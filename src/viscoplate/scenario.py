"""Run configuration: INI files, named presets, and the effective config.

A Scenario is a flat bag of primitives (numbers and spec strings).  The
heavier objects (basis, kernels, damping laws) are built on demand, so two
scenarios are equal exactly when their configs are.  Config files are INI
with the sections [space], [time], [physics], [initial], [output] and
[diagnostics]; unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ScenarioError
from .kernels import (
    parse_damping_spec,
    parse_kernel_spec,
    parse_modulus_spec,
    parse_xi_spec,
)
from .spectral import build_basis, project_initial

_SCHEMA = {
    "space": {"dim": int, "n": int, "L": float, "quad_order": int},
    "time": {"dt": float, "T": float},
    "physics": {
        "rho": float, "k": float, "sigma": float,
        "kernel": str, "damping": str, "xi": str, "modulus": str,
    },
    "initial": {"u": str, "v": str},
    "output": {"dir": str, "stride": int},
    "diagnostics": {
        "a": float, "eps0": float, "eps1": float,
        "t0": float, "t1": float, "delta": float, "lyap_eps": float,
    },
}

_FIELD_OF = {
    ("space", "dim"): "spatial_dim",
    ("space", "n"): "n",
    ("space", "L"): "L",
    ("space", "quad_order"): "quad_order",
    ("time", "dt"): "dt",
    ("time", "T"): "T",
    ("physics", "rho"): "rho",
    ("physics", "k"): "k",
    ("physics", "sigma"): "sigma",
    ("physics", "kernel"): "kernel",
    ("physics", "damping"): "damping",
    ("physics", "xi"): "xi",
    ("physics", "modulus"): "modulus",
    ("initial", "u"): "initial_u",
    ("initial", "v"): "initial_v",
    ("output", "dir"): "out_dir",
    ("output", "stride"): "stride",
    ("diagnostics", "a"): "a",
    ("diagnostics", "eps0"): "eps0",
    ("diagnostics", "eps1"): "eps1",
    ("diagnostics", "t0"): "t0",
    ("diagnostics", "t1"): "t1",
    ("diagnostics", "delta"): "delta",
    ("diagnostics", "lyap_eps"): "lyap_eps",
}
_KEY_OF = {fname: section_key for section_key, fname in _FIELD_OF.items()}


@dataclass(frozen=True)
class Scenario:
    spatial_dim: int = 1
    n: int = 8
    L: float = 1.0
    quad_order: int | None = None
    dt: float = 1e-2
    T: float = 10.0
    rho: float = 0.0
    k: float = 0.5
    sigma: float = 1e-8
    kernel: str = "exp(0.5,1.0)"
    damping: str = "damp-linear(1)"
    xi: str | None = None
    modulus: str | None = None
    initial_u: str = "mode(1,0.04)"
    initial_v: str = "zero"
    out_dir: str = "out"
    stride: int = 1
    a: float | None = None
    eps0: float = 0.5
    eps1: float = 0.5
    t0: float = 0.0
    t1: float | None = None
    delta: float = 0.5
    lyap_eps: float = 1e-2

    # --- derived builders -------------------------------------------------

    def make_basis(self):
        return build_basis(self.spatial_dim, self.n, L=self.L, quad_order=self.quad_order)

    def physical_params(self):
        from .dynamics import PhysicalParams

        return PhysicalParams(
            rho=self.rho, k=self.k,
            kernel=parse_kernel_spec(self.kernel),
            damping=parse_damping_spec(self.damping),
            sigma=self.sigma,
        )

    def xi_weight(self):
        if self.xi is not None:
            return parse_xi_spec(self.xi)
        return parse_kernel_spec(self.kernel).natural_xi()

    def memory_modulus(self):
        if self.modulus is not None:
            return parse_modulus_spec(self.modulus)
        return parse_kernel_spec(self.kernel).natural_modulus()

    def tail_start(self) -> float:
        return self.t1 if self.t1 is not None else 0.25 * self.T

    def initial_coeffs(self, basis, grams):
        return (
            _initial_vector(self.initial_u, basis, grams),
            _initial_vector(self.initial_v, basis, grams),
        )

    def validate(self) -> list:
        """Collect every semantic problem; empty list means valid.

        A field of the wrong type (a float field takes int or float, an int
        field int, a str field str) is reported alone, before any comparison.
        """
        optional = {f.name for f in fields(self) if f.default is None}
        wrong = []
        for (section, key), fname in _FIELD_OF.items():
            kind, value = _SCHEMA[section][key], getattr(self, fname)
            if value is None and fname in optional:
                continue
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                wrong.append(f"{section}.{key} must be {kind.__name__}, got {value!r}")
        if wrong:
            return wrong
        errs = [
            f"{section}.{key} must be finite"
            for (section, key), fname in _FIELD_OF.items()
            if _SCHEMA[section][key] is float
            and getattr(self, fname) is not None
            and not math.isfinite(getattr(self, fname))
        ]
        if self.spatial_dim not in (1, 2):
            errs.append("space.dim must be 1 or 2")
        if self.n < 1:
            errs.append("space.n must be >= 1")
        if self.L <= 0:
            errs.append("space.L must be positive")
        if self.dt <= 0:
            errs.append("time.dt must be positive")
        if self.T < 0:
            errs.append("time.T must be nonnegative")
        if self.rho < 0:
            errs.append("physics.rho must be nonnegative")
        if self.k < 0:
            errs.append("physics.k must be nonnegative")
        if self.stride < 1:
            errs.append("output.stride must be >= 1")
        if not 0 < self.delta < 1:
            errs.append("diagnostics.delta must lie in (0, 1)")
        if self.lyap_eps <= 0:
            errs.append("diagnostics.lyap_eps must be positive")
        for name, spec, parser in (
            ("physics.kernel", self.kernel, parse_kernel_spec),
            ("physics.damping", self.damping, parse_damping_spec),
        ):
            try:
                parser(spec)
            except Exception as exc:
                errs.append(f"{name}: {exc}")
        if self.xi is not None:
            try:
                parse_xi_spec(self.xi)
            except Exception as exc:
                errs.append(f"physics.xi: {exc}")
        if self.modulus is not None:
            try:
                parse_modulus_spec(self.modulus)
            except Exception as exc:
                errs.append(f"physics.modulus: {exc}")
        dim = self.n**self.spatial_dim
        for name, spec in (("initial.u", self.initial_u), ("initial.v", self.initial_v)):
            try:
                _parse_initial(spec, self.spatial_dim, dim)
            except Exception as exc:
                errs.append(f"{name}: {exc}")
        return errs


# --- initial data -------------------------------------------------------


def _parse_initial(spec: str, spatial_dim: int, dim: int):
    """Parse an initial-data spec: zero, a sum of mode(j, amplitude) terms, or table(path).

    Returns the (rows, 2) array of (x, value) samples for a table, and the
    list of (j, amplitude) pairs otherwise.  The table file is read here, so
    a missing or malformed file is a ScenarioError.
    """
    spec = spec.strip()
    if spec == "zero":
        return []
    if spec.startswith("table(") and spec.endswith(")"):
        path = spec[6:-1].strip()
        if spatial_dim != 1:
            raise ScenarioError("tabulated initial data is one-dimensional only")
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot read table {path!r}: {exc}") from None
        if data.shape[1] != 2:
            raise ScenarioError("tabulated initial data needs two columns (x, value)")
        if not np.isfinite(data).all():
            raise ScenarioError(f"table {path!r} holds a non-finite number")
        return data
    terms = []
    for part in spec.split("+"):
        part = part.strip()
        if not (part.startswith("mode(") and part.endswith(")")):
            raise ScenarioError(f"unrecognized initial-data term {part!r}")
        args = part[5:-1].split(",")
        if len(args) != 2:
            raise ScenarioError(f"mode term needs (index, amplitude), got {part!r}")
        j = int(args[0])
        amplitude = float(args[1])
        if not 1 <= j <= dim:
            raise ScenarioError(f"mode index {j} outside 1..{dim}")
        if not math.isfinite(amplitude):
            raise ScenarioError(f"mode amplitude in {part!r} must be finite")
        terms.append((j, amplitude))
    return terms


def _initial_vector(spec: str, basis, grams) -> np.ndarray:
    parsed = _parse_initial(spec, basis.spatial_dim, basis.dim)
    if isinstance(parsed, np.ndarray):
        xs, vals = parsed[:, 0], parsed[:, 1]
        return project_initial(lambda x: np.interp(x, xs, vals), basis, grams)
    g = np.zeros(basis.dim)
    for j, amplitude in parsed:
        g[j - 1] += amplitude
    return g


# --- parsing ------------------------------------------------------------


def parse_field(field: str, raw: str):
    """raw as a value of the Scenario field, typed as the config file types it."""
    section, key = _KEY_OF[field]
    typ = _SCHEMA[section][key]
    try:
        return raw.strip() if typ is str else typ(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from None


def _set_field(kwargs: dict, errors: list, section: str, key: str, raw: str) -> None:
    if key not in _SCHEMA.get(section, ()):
        errors.append(f"unknown key [{section}] {key}")
        return
    fname = _FIELD_OF[(section, key)]
    try:
        kwargs[fname] = parse_field(fname, raw)
    except ScenarioError as exc:
        errors.append(str(exc))


def parse_scenario_text(text: str, origin: str = "<config>") -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive: T and t differ
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ScenarioError(f"config parse error: {exc}") from exc
    errors: list = []
    kwargs: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in cp.items(section):
            _set_field(kwargs, errors, section, key, raw)
    if errors:
        raise ScenarioError("; ".join(errors))
    return with_overrides(Scenario(), **kwargs)


def parse_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), origin=path)


def effective_config(scn: Scenario) -> str:
    """Every field written out explicitly; reparsing yields an equal Scenario."""
    out = io.StringIO()
    by_section: dict = {}
    for (section, key), fname in _FIELD_OF.items():
        value = getattr(scn, fname)
        if value is None:
            continue
        by_section.setdefault(section, []).append((key, value))
    for section in _SCHEMA:
        items = by_section.get(section)
        if not items:
            continue
        out.write(f"[{section}]\n")
        for key, value in items:
            text = repr(value) if isinstance(value, float) else str(value)
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


# --- presets ------------------------------------------------------------

PRESETS = {
    "exp-linear": Scenario(
        kernel="exp(0.5,1.0)", damping="damp-linear(1)", rho=0.0, k=0.5, a=0.25
    ),
    "exp-cubic": Scenario(
        kernel="exp(0.5,1.0)", damping="damp-cubic(0.5)", rho=0.0, k=0.5, a=0.25
    ),
    "power-linear": Scenario(
        kernel="power(0.5,2.0)", damping="damp-linear(1)", rho=0.0, k=0.5, a=0.25
    ),
    "power-cubic": Scenario(
        kernel="power(0.5,2.0)", damping="damp-cubic(0.5)", rho=0.0, k=0.5, a=0.25
    ),
    "exp-fast-linear": Scenario(
        kernel="exp(0.3,2.0)", damping="damp-linear(0.5)", rho=1.0, k=0.5, sigma=0.0, a=0.25
    ),
    "power-steep-cubic": Scenario(
        kernel="power(0.4,3.0)", damping="damp-cubic(0.5)", rho=1.0, k=0.5, sigma=0.0, a=0.25
    ),
    "conservative": Scenario(
        kernel="none", damping="none", rho=0.0, k=0.0, sigma=0.0,
        initial_u="mode(1,0.1)", dt=1e-3, T=62.832, a=0.25,
    ),
    "well-certified": Scenario(
        kernel="exp(0.5,1.0)", damping="damp-linear(1)", rho=0.0, k=2.0, a=0.25, T=10.0
    ),
}


def load_scenario(name_or_path: str) -> Scenario:
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    import os

    if os.path.exists(name_or_path):
        return parse_scenario(name_or_path)
    raise ScenarioError(
        f"{name_or_path!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a config file"
    )


def with_overrides(scn: Scenario, **kwargs) -> Scenario:
    """scn with the given fields replaced; ScenarioError lists every problem."""
    out = replace(scn, **kwargs)
    problems = out.validate()
    if problems:
        raise ScenarioError("; ".join(problems))
    return out

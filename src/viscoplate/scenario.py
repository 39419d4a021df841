"""Run configuration: INI files, named presets, and the effective config.

A Scenario is a flat bag of primitives (numbers and spec strings).  The
heavier objects (basis, kernels, damping laws) are built on demand, so two
scenarios are equal exactly when their configs are.  Config files are INI
with the sections [space], [time], [physics], [initial], [output] and
[diagnostics]; unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dynamics import DEFAULT_SIGMA, PhysicalParams, check_physics_args, step_count
from .errors import ScenarioError, ViscoplateError
from .kernels import (
    call_args,
    check_decay_args,
    parse_damping_spec,
    parse_kernel_spec,
    parse_modulus_spec,
    parse_xi_spec,
    split_top,
)
from .spectral import build_basis, check_basis_args, project_initial


def _ini(section: str, key: str, kind: type, default):
    """A Scenario field read from and written to [section] key as kind."""
    return field(default=default, metadata={"ini": (section, key, kind)})


@dataclass(frozen=True)
class Scenario:
    """One run's configuration; each field declares its INI section, key and type."""

    spatial_dim: int = _ini("space", "dim", int, 1)
    n: int = _ini("space", "n", int, 8)
    L: float = _ini("space", "L", float, 1.0)
    quad_order: int | None = _ini("space", "quad_order", int, None)
    dt: float = _ini("time", "dt", float, 1e-2)
    T: float = _ini("time", "T", float, 10.0)
    rho: float = _ini("physics", "rho", float, 0.0)
    k: float = _ini("physics", "k", float, 0.5)
    sigma: float = _ini("physics", "sigma", float, DEFAULT_SIGMA)
    kernel: str = _ini("physics", "kernel", str, "exp(0.5,1.0)")
    damping: str = _ini("physics", "damping", str, "damp-linear(1)")
    xi: str | None = _ini("physics", "xi", str, None)
    modulus: str | None = _ini("physics", "modulus", str, None)
    initial_u: str = _ini("initial", "u", str, "mode(1,0.04)")
    initial_v: str = _ini("initial", "v", str, "zero")
    out_dir: str = _ini("output", "dir", str, "out")
    stride: int = _ini("output", "stride", int, 1)
    a: float | None = _ini("diagnostics", "a", float, None)
    eps0: float = _ini("diagnostics", "eps0", float, 0.5)
    eps1: float = _ini("diagnostics", "eps1", float, 0.5)
    t0: float = _ini("diagnostics", "t0", float, 0.0)
    t1: float | None = _ini("diagnostics", "t1", float, None)
    delta: float = _ini("diagnostics", "delta", float, 0.5)
    lyap_eps: float = _ini("diagnostics", "lyap_eps", float, 1e-2)

    # --- derived builders -------------------------------------------------

    def make_basis(self):
        return build_basis(self.spatial_dim, self.n, L=self.L, quad_order=self.quad_order)

    def physical_params(self):
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

    def decay_case(self) -> str:
        """Which decay envelope the run is fitted to: none, linear,
        nonlinear-B or nonlinear-both."""
        if parse_kernel_spec(self.kernel).is_zero:
            return "none"
        if self.memory_modulus().is_linear:
            return "linear"  # with nonlinear friction too: the memory shape governs
        damping = parse_damping_spec(self.damping)
        if damping.is_none or damping.h1_is_linear:
            return "nonlinear-B"
        return "nonlinear-both"

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
        The step count, the basis, the physical coefficients, the spec
        strings and the decay-law parameters are checked by the code that
        uses them, one problem per check.
        """
        optional = {f.name for f in fields(self) if f.default is None}
        wrong, errs = [], []
        for fname, (section, key, kind) in _FIELDS.items():
            value = getattr(self, fname)
            if value is None and fname in optional:
                continue
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                wrong.append(f"{section}.{key} must be {kind.__name__}, got {value!r}")
            elif kind is float and not math.isfinite(value):
                errs.append(f"{section}.{key} must be finite")
        if wrong:
            return wrong
        if self.dt <= 0:
            errs.append("time.dt must be positive")
        if self.T < 0:
            errs.append("time.T must be nonnegative")
        if self.stride < 1:
            errs.append("output.stride must be >= 1")
        if self.a is not None and self.a <= 0:
            errs.append("diagnostics.a must be positive")
        if not 0 < self.delta < 1:
            errs.append("diagnostics.delta must lie in (0, 1)")
        if self.lyap_eps <= 0:
            errs.append("diagnostics.lyap_eps must be positive")
        if self.t1 is not None and self.t1 < 0:
            errs.append("diagnostics.t1 must be >= 0")
        for name, check in (
            ("time", lambda: step_count(self.dt, self.T)),
            ("space", lambda: check_basis_args(self.spatial_dim, self.n, self.L, self.quad_order)),
            ("physics", lambda: check_physics_args(self.rho, self.k, self.sigma)),
            ("physics.kernel", lambda: parse_kernel_spec(self.kernel)),
            ("physics.damping", lambda: parse_damping_spec(self.damping)),
            ("physics.xi", lambda: self.xi is None or parse_xi_spec(self.xi)),
            ("physics.modulus", lambda: self.modulus is None or parse_modulus_spec(self.modulus)),
            ("initial.u", lambda: _parse_initial(self.initial_u, self.spatial_dim, self.n**self.spatial_dim)),
            ("initial.v", lambda: _parse_initial(self.initial_v, self.spatial_dim, self.n**self.spatial_dim)),
            ("diagnostics", lambda: check_decay_args(self.eps0, self.eps1, self.t0, self.decay_case() == "linear")),
        ):
            needs = {"time": "time.", "initial.u": "space:", "initial.v": "space:", "diagnostics": (
                "physics.kernel", "physics.damping", "physics.modulus", "diagnostics.eps", "diagnostics.t0")}.get(name)
            if needs and any(e.startswith(needs) for e in errs):
                # no step count without a finite dt > 0 and T >= 0, no mode range
                # without a space, no decay case without the specs
                continue
            try:
                check()
            except ViscoplateError as exc:
                errs.append(f"{name}: {exc}")
        return errs


# Scenario field -> (INI section, key, type), in the order effective_config writes
_FIELDS = {f.name: f.metadata["ini"] for f in fields(Scenario)}
_FIELD_AT = {(section, key): fname for fname, (section, key, _) in _FIELDS.items()}


# --- initial data -------------------------------------------------------


_TABLE_FORMAT = "rows must be comma-separated x,value pairs"


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
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # how loadtxt reports a file with no data
            try:
                data = np.loadtxt(path, delimiter=",", ndmin=2)
            except UserWarning:
                raise ScenarioError(f"table {path!r} holds no data") from None
            except OSError as exc:
                raise ScenarioError(f"cannot read table {path!r}: {exc}") from None
            except ValueError as exc:
                raise ScenarioError(
                    f"cannot read table {path!r}: {_TABLE_FORMAT} ({exc})"
                ) from None
        if data.shape[1] != 2:
            raise ScenarioError(f"table {path!r} has {data.shape[1]} columns: {_TABLE_FORMAT}")
        if not np.isfinite(data).all():
            raise ScenarioError(f"table {path!r} holds a non-finite number")
        return data
    terms = []
    for part in split_top(spec, "+"):  # a "+" inside mode(...) is an exponent sign
        args = call_args(part, "mode", (2,))
        if args is None:
            raise ScenarioError(f"unrecognized initial-data term {part!r}")
        try:
            j, amplitude = int(args[0]), float(args[1])
        except ValueError:
            raise ScenarioError(f"mode term {part!r} needs an integer index and a number") from None
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


def parse_field(fname: str, raw: str):
    """raw as a value of the Scenario field fname, typed as the config file types it."""
    section, key, typ = _FIELDS[fname]
    try:
        return raw.strip() if typ is str else typ(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from None


def parse_scenario_text(text: str, origin: str = "<config>") -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive: T and t differ
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ScenarioError(f"config parse error: {exc}") from exc
    errors: list = []
    kwargs: dict = {}
    sections = {section for section, _ in _FIELD_AT}
    for section in cp.sections():
        if section not in sections:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in cp.items(section):
            fname = _FIELD_AT.get((section, key))
            if fname is None:
                errors.append(f"unknown key [{section}] {key}")
                continue
            try:
                kwargs[fname] = parse_field(fname, raw)
            except ScenarioError as exc:
                errors.append(str(exc))
    if errors:
        raise ScenarioError("; ".join(errors))
    return with_overrides(Scenario(), **kwargs)


def parse_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), origin=path)


def effective_config(scn: Scenario) -> str:
    """Every field written out explicitly; reparsing yields an equal Scenario."""
    by_section: dict = {}
    for fname, (section, key, _) in _FIELDS.items():
        value = getattr(scn, fname)
        if value is not None:
            text = repr(value) if isinstance(value, float) else str(value)
            by_section.setdefault(section, []).append(f"{key} = {text}\n")
    return "".join(f"[{section}]\n{''.join(lines)}\n" for section, lines in by_section.items())


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

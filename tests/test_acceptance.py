"""Acceptance gate: the eleven numerical criteria the package must satisfy.

Each test covers one criterion at its pinned tolerance and records a single
pass/fail line (shown in the terminal summary).  Oracles here are built
independently of the implementation: brute-force quadrature, fresh bisection,
dense grids, synthetic series.
"""

import math
import time

import numpy as np
import pytest
from conftest import record

from viscoplate import diagnostics as dg
from viscoplate.cli import run_scenario
from viscoplate.dynamics import HistoryBuffer, memory_term, run
from viscoplate.kernels import (
    ConvexModulus,
    XiWeight,
    convex_conjugate,
    envelope_linear_B,
    envelope_nonlinear_B,
    envelope_nonlinear_both,
    validate_h1,
    validate_h2,
    validate_h3,
)
from viscoplate.scenario import PRESETS, Scenario, with_overrides
from viscoplate.spectral import assemble_grams, beam_roots, build_basis, estimate_cp

DISSIPATIVE = [
    "exp-linear",
    "exp-cubic",
    "power-linear",
    "power-cubic",
    "exp-fast-linear",
    "power-steep-cubic",
]


def _check(num: int, ok: bool, detail: str) -> None:
    record(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def shared_space():
    basis = build_basis(1, 8)
    grams = assemble_grams(basis)
    return basis, grams, estimate_cp(grams)


@pytest.fixture(scope="module")
def catalog(shared_space):
    """One run + diagnostics bundle per preset (all share the n=8 basis)."""
    basis, grams, _ = shared_space
    out = {}
    for name, scn in PRESETS.items():
        traj = run(scn, basis=basis, grams=grams)
        out[name] = (traj, dg.analyze(traj))
    return out


def _sign_change_instants(traj) -> np.ndarray:
    """One instant per step in which u changes sign at a quadrature node.

    u ln|u| is evaluated at these shared nodes; the instant is the mean of
    the linearly interpolated zeros of the nodes that change sign.
    """
    uq = traj.g @ traj.basis.phi
    flips = (uq[1:] < 0.0) != (uq[:-1] < 0.0)
    out = []
    for i in np.flatnonzero(flips.any(axis=1)):
        a, b = uq[i, flips[i]], uq[i + 1, flips[i]]
        out.append(traj.times[i] + traj.dt * float(np.mean(a / (a - b))))
    return np.array(out)


def test_c01_energy_rate_residual_refinement_slope():
    # 1D, n=8, rho=1, k=0.5, b(t)=0.5e^{-t}, h(s)=s, dt=1e-3, T=5; within
    # a 60 s budget the max residual must shrink with slope 2.0 +- 0.1 over
    # dt, dt/2, dt/4 on the samples farther than 0.05 from every zero
    # crossing of u.  Across a crossing the trapezoid rule meets the
    # non-differentiable force u ln|u| and leaves an O(dt^2) velocity
    # defect, so there the residual need only shrink at first order.
    half = 0.05
    t0 = time.perf_counter()
    dts, worsts, smooth, near, crossings, fracs, secs = [], [], [], [], [], [], []
    for level in range(3):
        scn = Scenario(
            spatial_dim=1, n=8, rho=1.0, sigma=0.0, k=0.5,
            kernel="exp(0.5,1.0)", damping="damp-linear(1)",
            dt=1e-3 / 2**level, T=5.0, initial_u="mode(1,0.04)",
        )
        ta = time.perf_counter()
        traj = run(scn)
        tb = time.perf_counter()
        rr = np.abs(dg.analyze(traj).rate_residual)
        secs.append((tb - ta, time.perf_counter() - tb))
        cross = _sign_change_instants(traj)
        dist = np.abs(traj.times[:, None] - cross[None, :]).min(axis=1, initial=math.inf)
        excluded = dist <= half
        dts.append(scn.dt)
        worsts.append(float(np.nanmax(rr)))
        smooth.append(float(np.nanmax(rr[~excluded])))
        near.append(float(np.nanmax(rr[excluded])) if excluded.any() else math.nan)
        crossings.append(cross)
        fracs.append(float(excluded.mean()))
        i_worst = int(np.nanargmax(rr))
        worst_at = (float(traj.times[i_worst]), float(dist[i_worst]))
    wall = time.perf_counter() - t0

    def slope(vals):
        return float(np.polyfit(np.log(dts), np.log(vals), 1)[0])

    n_cross = min(len(c) for c in crossings)
    s_all, s_smooth = slope(worsts), slope(smooth)
    s_near = slope(near) if n_cross else math.nan
    ok = (
        abs(s_smooth - 2.0) <= 0.1
        and wall < 60.0
        and n_cross >= 1
        and max(fracs) <= 0.05
        and s_near >= 0.9
    )
    _check(
        1, ok,
        f"refinement slope {s_smooth:.3f} (target 2.0±0.1) outside ±{half} of the "
        f"crossings of u at t={[round(float(c), 4) for c in crossings[-1]]} "
        f"({max(fracs):.1%} of samples excluded), {s_near:.3f} (>= 0.9) near them, "
        f"{s_all:.3f} overall; worst residual at t={worst_at[0]:.4f}, "
        f"{1e3 * worst_at[1]:.1f} ms from a crossing; "
        f"run/analyze s {['%.1f/%.1f' % st for st in secs]}, wall {wall:.1f}s < 60s",
    )


def test_c02_energy_monotone_on_dissipative_catalog(catalog):
    grid = np.linspace(0.0, 30.0, 2001)
    sym = np.linspace(-3.0, 3.0, 1201)
    worst = -math.inf
    for name in DISSIPATIVE:
        scn = PRESETS[name]
        params = scn.physical_params()
        assert validate_h1(params.kernel, grid) == [], name
        assert validate_h2(params.kernel, scn.memory_modulus(), scn.xi_weight(), grid) == [], name
        assert validate_h3(params.damping, sym) == [], name
        _, bundle = catalog[name]
        worst = max(worst, float(np.max(np.diff(bundle.E))))
    _check(2, worst <= 1e-10,
           f"max energy increase {worst:.2e} <= 1e-10 across {len(DISSIPATIVE)} presets")


def test_c03_conservative_limit_energy_drift(catalog):
    _, bundle = catalog["conservative"]
    drift = float(np.max(np.abs(bundle.E - bundle.E[0])))
    rel = drift / bundle.E[0]
    _check(3, rel <= 1e-6,
           f"relative drift {rel:.2e} <= 1e-6 over 10 periods ({len(bundle.E) - 1} steps)")


def test_c04_potential_well_invariants_hold(shared_space):
    basis, grams, cp = shared_space
    scn = PRESETS["well-certified"]
    wc = dg.well_constants(scn.physical_params(), cp, a=scn.a)
    amp, report = 0.5, None
    for _ in range(40):
        trial = with_overrides(scn, initial_u=f"mode(1,{amp!r})")
        traj = run(trial, basis=basis, grams=grams)
        report = dg.check_well(dg.analyze(traj), wc)
        if report.certified:
            break
        amp /= 2.0
    ok = report.certified and report.passed and not report.violations
    _check(4, ok,
           f"amp {amp:g}: E0 {report.e0:.4f} in (0, {wc.d:.4f}), "
           f"violations {len(report.violations)} over T=10")


def test_c05_log_sobolev_gap_on_runs_and_random_vectors(catalog, shared_space):
    basis, _, cp = shared_space
    a = 0.25
    gap_min = math.inf
    snapshots = 0
    for name, (_, b) in catalog.items():
        m = b.mass
        safe = np.where(m > 0.0, m, 1.0)
        gaps = np.where(
            m > 0.0,
            0.5 * m * np.log(safe) + (cp * a * a / (2.0 * math.pi)) * b.bend
            - (1.0 + math.log(a)) * m - b.logterm,
            0.0,
        )
        gap_min = min(gap_min, float(gaps.min()))
        snapshots += len(m)
    rng = np.random.RandomState(2718)
    for _ in range(100):
        g = rng.standard_normal(basis.dim)
        g *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(g)
        gap_min = min(gap_min, dg.log_sobolev_gap(g, a, cp, basis))
    _check(5, gap_min >= -1e-8,
           f"min gap {gap_min:.2e} >= -1e-8 over {snapshots} snapshots + 100 random vectors")


def test_c06_scalar_log_inequality_constant_sweep():
    rng = np.random.RandomState(314159)
    s = 10.0 ** rng.uniform(-8, 3, 100_000)
    worst = math.inf
    for eps0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = dg.s_log_constant(eps0)
        margin = d * s ** (1.0 - eps0) - (-s * np.log(s) - s * s)
        worst = min(worst, float(margin.min()))
        # independent grid oracle for the maximised ratio
        sg = np.logspace(-8, 0, 1_000_000)
        d_grid = float(np.max((-sg * np.log(sg) - sg * sg) / sg ** (1.0 - eps0)))
        assert d >= d_grid - 1e-10
        assert d - d_grid < 1e-4
    d_half = dg.s_log_constant(0.5)
    ok = worst >= -1e-12 and abs(d_half - 0.696) <= 1e-2
    _check(6, ok, f"min margin {worst:.2e} over 5x1e5 samples; d(1/2)={d_half:.6f} vs 0.696")


def test_c07_memory_quadrature_oracle_and_cs_gaps(catalog):
    traj, bundle = catalog["exp-linear"]
    kernel = PRESETS["exp-linear"].physical_params().kernel
    rng = np.random.RandomState(1234)
    idx = rng.choice(np.arange(2, len(traj)), 10, replace=False)
    worst = 0.0
    scale = 1.0
    series_worst = 0.0
    series_scale = 0.0
    gap_min = 0.0
    for i in idx:
        i = int(i)
        hist = HistoryBuffer(traj.dt, traj.g[: i + 1])
        t = traj.times[i]
        mem = memory_term(hist, kernel, traj.grams, t)
        # brute force: per-node trapezoid weights, plain python accumulation
        tt = traj.times[: i + 1]
        w = np.zeros(i + 1)
        w[1:] += 0.5 * np.diff(tt)
        w[:-1] += 0.5 * np.diff(tt)
        conv = np.zeros(traj.basis.dim)
        scal = {"memory": 0.0, "memory_deriv": 0.0}
        for j in range(i + 1):
            conv += w[j] * float(kernel.value(t - tt[j])) * traj.g[j]
            d = traj.g[i] - traj.g[j]
            q = float(d @ (traj.grams.M2 @ d))
            scal["memory"] += w[j] * float(kernel.value(t - tt[j])) * q
            scal["memory_deriv"] += w[j] * float(kernel.deriv(t - tt[j])) * q
        brute = traj.grams.M2 @ conv
        worst = max(worst, float(np.max(np.abs(mem - brute))))
        scale = max(scale, float(np.max(np.abs(brute))))
        # the run-length series in the analyzed bundle: same quadrature
        for name, ref in scal.items():
            series_worst = max(series_worst, abs(float(getattr(bundle, name)[i]) - ref))
            series_scale = max(series_scale, abs(ref))
        gb, gdb = dg.memory_cs_check(traj.state(i), hist, kernel, traj.grams)
        gap_min = min(gap_min, gb, gdb)
    ok = (
        worst <= 1e-13 * scale
        and series_worst <= 1e-12 * series_scale
        and gap_min >= -1e-10
    )
    _check(7, ok,
           f"brute-force mismatch {worst:.2e} <= 1e-13*{scale:.1f}; "
           f"series mismatch {series_worst:.2e} <= 1e-12*{series_scale:.3g}; "
           f"memory CS gap min {gap_min:.2e} >= -1e-10")


def test_c08_decay_envelopes_dominate_fitted_energy(catalog):
    # (i) exponential kernel + linear damping against the linear-modulus bound
    scn = PRESETS["exp-linear"]
    _, b = catalog["exp-linear"]
    env = envelope_linear_B(scn.xi_weight(), scn.eps0, 1.0, 0.0)
    fit_i = dg.fit_decay((b.times, b.E), env, start=scn.T / 2)
    # (ii) power kernel b0 (1+t)^-2 whose natural modulus is s^{3/2}
    scn2 = PRESETS["power-linear"]
    _, b2 = catalog["power-linear"]
    mod = scn2.memory_modulus()
    assert mod.form == "power"
    env2 = envelope_nonlinear_B(
        scn2.xi_weight(), scn2.eps0, scn2.eps1, 1.0, 1.0, 0.0,
        max(scn2.tail_start(), scn2.dt), mod,
    )
    fit_ii = dg.fit_decay((b2.times, b2.E), env2, start=scn2.T / 2)
    # (iii) synthetic exponential recovers its exponent
    t = np.linspace(0.0, 10.0, 1001)
    fit_iii = dg.fit_decay(
        (t, 5.0 * np.exp(-2.0 * t)),
        envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0),
    )
    ok = (
        fit_i.overshoot <= 1e-9
        and fit_ii.overshoot <= 1e-9
        and abs(fit_iii.exponent - 2.0) <= 0.02
    )
    _check(8, ok,
           f"overshoots {fit_i.overshoot:.1e}/{fit_ii.overshoot:.1e} on [T/2,T]; "
           f"synthetic exponent {fit_iii.exponent:.4f} = 2±1%")


def test_c09_young_inequality_and_inversion_machinery():
    rng = np.random.RandomState(42)
    young_min = math.inf
    for K, r in (
        (ConvexModulus.power(2.0, coef=0.5, r1=4.0), 4.0),
        (ConvexModulus.power(3.0, coef=1.0 / 3.0, r1=2.0), 2.0),
    ):
        kmax = float(K.deriv(np.asarray(r)))
        a = 10.0 ** rng.uniform(-4, 0, 5000) * kmax * 0.999
        bvals = 10.0 ** rng.uniform(-4, 0, 5000) * r
        for ai, bi in zip(a, bvals):
            gap = convex_conjugate(K, ai, r=r) + float(K.value(bi)) - ai * bi
            young_min = min(young_min, gap)
    rt_worst = 0.0
    for K, lo in (
        (ConvexModulus.power(1.5, r1=1.0), 0.1),
        (ConvexModulus.power(2.0, coef=0.5, r1=1.0), 1e-2),
    ):
        kmax = float(K.deriv(np.asarray(1.0)))
        for tau in rng.uniform(lo, 0.999, 150) * kmax:
            s = K.deriv_inverse(tau)
            rt_worst = max(rt_worst, abs(float(K.deriv(np.asarray(s))) - tau) / tau)
    # closed forms against the bisection-driven envelopes (s^p family)
    eps1, c, c1 = 0.37, 2.0, 0.8
    envK = envelope_nonlinear_B(
        XiWeight.constant(1.0), 1.0, eps1, c, c1, 0.0, 1.0,
        ConvexModulus.power(2.0, r1=1.0),
    )
    B_worst = 0.0
    for tcheck in (2.0, 3.0, 5.0, 9.0):
        tau = math.sqrt(tcheck)
        ref_env = c * tau * (c1 / (tau * (tcheck - 1.0)) / (4.0 * eps1**3)) ** 0.25
        B_worst = max(B_worst, abs(envK(tcheck) - ref_env) / ref_env)
    eps1b, cb = 0.61, 1.7
    sq = ConvexModulus.power(2.0, r1=1.0)
    envW = envelope_nonlinear_both(XiWeight.constant(1.0), 1.0, eps1b, cb, 0.0, sq, sq)
    both_worst = 0.0
    for tcheck in (1.0, 2.0, 3.0, 7.0):
        tau = math.sqrt(tcheck)
        ref_env = cb * tau * (4.0 * (cb / (tau * tcheck)) / eps1b**3) ** 0.25
        both_worst = max(both_worst, abs(envW(tcheck) - ref_env) / ref_env)
    ok = young_min >= -1e-12 and rt_worst <= 1e-10 and B_worst <= 1e-10 and both_worst <= 1e-10
    _check(9, ok,
           f"Young min gap {young_min:.1e} over 1e4 pairs; inverse round trip {rt_worst:.1e}; "
           f"nonlinear-B/nonlinear-both envelope closed-form vs bisection {B_worst:.1e}/{both_worst:.1e}")


def test_c10_spectral_roots_grams_poincare(shared_space):
    basis, grams, _ = shared_space
    roots = beam_roots(8)
    # fresh bisection oracle on cos(b) cosh(b) = 1
    worst_root = 0.0
    for j, r in enumerate(roots, start=1):
        lo, hi = (j + 0.25) * math.pi, (j + 0.75) * math.pi
        f = lambda x: math.cos(x) * math.cosh(x) - 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        worst_root = max(worst_root, abs(r - 0.5 * (lo + hi)))
    frozen_ok = abs(roots[0] - 4.7300408) <= 1e-6 and abs(roots[1] - 7.8532046) <= 1e-6
    diag = np.diag(grams.M2)
    expected = (roots / basis.L) ** 4
    m2_rel = float(np.max(np.abs(diag - expected) / expected))
    off = grams.M2 - np.diag(diag)
    off_rel = float(np.max(np.abs(off)) / diag.max())
    cp16 = estimate_cp(assemble_grams(build_basis(1, 16)))
    cp32 = estimate_cp(assemble_grams(build_basis(1, 32)))
    cp_rel = abs(cp32 - cp16) / cp32
    ok = worst_root <= 1e-10 and frozen_ok and m2_rel <= 1e-8 and off_rel <= 1e-8 and cp_rel < 1e-3
    _check(10, ok,
           f"roots vs bisection {worst_root:.1e}; M2 diag rel {m2_rel:.1e}; "
           f"cp rel change 16->32 {cp_rel:.1e} < 1e-3")


def test_c11_deterministic_rerun_byte_identical(tmp_path):
    scn = with_overrides(
        PRESETS["exp-linear"], T=1.0, dt=0.01, out_dir=str(tmp_path / "det")
    )
    run_scenario(scn)
    first = (tmp_path / "det" / "timeseries.csv").read_bytes()
    run_scenario(scn)
    second = (tmp_path / "det" / "timeseries.csv").read_bytes()
    ok = first == second and len(first) > 0
    _check(11, ok, f"rerun timeseries.csv byte-identical ({len(first)} bytes)")

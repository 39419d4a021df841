"""Symmetry certificates: checks that need no oracle.

Each symmetry commutes with the continuous problem, and the Galerkin system
with its quadrature inherits it, so a run from the transformed initial data
must give the transformed run.  Nothing here is compared with a reference
solution, only with a second run of the stepper.
"""

import numpy as np
import pytest

from viscoplate.cli import run_scenario
from viscoplate.dynamics import run
from viscoplate.scenario import PRESETS, with_overrides

U0 = "mode(1,{s}0.04) + mode(2,{s}0.005)"
V0 = "mode(1,{s}0.01) + mode(3,{s}0.002)"


@pytest.mark.parametrize("name", ["exp-linear", "power-steep-cubic", "well-certified"])
def test_sign_flip_writes_the_same_timeseries(tmp_path, name):
    # the source k u ln|u|, the damping law and the memory term are odd in u
    # or v, rho-inertia is even, and IEEE rounding is sign-symmetric, so the
    # run from (-u0, -v0) has E, rates and verdicts bit for bit equal
    outputs = []
    for sign in ("", "-"):
        out = tmp_path / f"sign{sign or '+'}"
        scn = with_overrides(
            PRESETS[name], T=1.0, initial_u=U0.format(s=sign), initial_v=V0.format(s=sign), out_dir=str(out)
        )
        report, code = run_scenario(scn)
        outputs.append(((out / "timeseries.csv").read_bytes(), report["verdicts"], code))
    assert outputs[0] == outputs[1]


def test_2d_swap_of_axes_gives_the_swapped_run():
    # the square, its tensor quadrature and the tensor basis are symmetric
    # under x <-> y, which swaps the mode indices (j, k) -> (k, j): in the
    # flat index (first axis slowest) that is a transpose of each n x n block
    n = 4
    base = with_overrides(PRESETS["exp-fast-linear"], spatial_dim=2, n=n, T=1.0)
    u = {(0, 0): 0.03, (0, 1): 0.01, (1, 2): -0.004}
    v = {(1, 0): 0.02, (2, 3): 0.003}

    def spec(terms, swap=False):
        return " + ".join(f"mode({(k * n + j if swap else j * n + k) + 1},{a})" for (j, k), a in terms.items())

    g = run(with_overrides(base, initial_u=spec(u), initial_v=spec(v))).g
    h = run(with_overrides(base, initial_u=spec(u, True), initial_v=spec(v, True))).g
    swapped = np.swapaxes(g.reshape(len(g), n, n), 1, 2).reshape(g.shape)
    assert not np.array_equal(h, g)  # the data are not symmetric themselves
    assert np.max(np.abs(h - swapped)) <= 1e-14 * np.max(np.abs(g))


@pytest.mark.parametrize("name", ["exp-linear", "exp-cubic", "power-steep-cubic", "well-certified"])
def test_1d_reflection_keeps_symmetric_data_symmetric(name):
    # x -> L - x maps the clamped mode j to (-1)^(j+1) times itself, and
    # every term of the equation commutes with it, so from data in the
    # symmetric modes 1, 3, ... the antisymmetric coefficients (modes 2,
    # 4, ...) stay zero.  The Galerkin system keeps this only through its
    # quadrature: the rule must be reflection symmetric (a node at L - x_i
    # with the weight of x_i), or the projections of the pointwise terms
    # couple the two classes; what is left is rounding (5.7e-18 on 0.04)
    scn = with_overrides(
        PRESETS[name], T=2.0, initial_u="mode(1,0.04) + mode(3,0.01)", initial_v="mode(1,0.01) + mode(3,-0.002)"
    )
    g = run(scn).g
    assert g.shape[1] >= 4
    assert np.max(np.abs(g[:, 1::2])) <= 1e-14 * np.max(np.abs(g))

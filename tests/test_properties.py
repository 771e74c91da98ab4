"""Property tests: identities the pipeline rests on, checked on drawn (S, T)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctinv.ctcore import coeffs_to_T, expansion_coeffs
from ctinv.errors import InadmissibleConfigurationError
from ctinv.glm import RadialGrid, det_and_scale, solve_kernel

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def s_and_t(draw):
    """S: up to 3 distinct ell in 0..4; T: as many L in (-0.45, 5), 0.1 apart and 0.05 from S."""
    ells = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    Ls = draw(st.lists(st.floats(-0.45, 5.0), min_size=len(ells), max_size=len(ells)))
    Ls.sort()
    assume(all(hi - lo >= 0.1 for lo, hi in zip(Ls, Ls[1:])))
    assume(all(abs(L - ell) >= 0.05 for L in Ls for ell in ells))
    return ells, Ls


@PROPERTY_SETTINGS
@given(s_and_t())
def test_coeffs_to_T_inverts_expansion_coeffs(pair):
    ells, Ls = pair
    back = coeffs_to_T(ells, expansion_coeffs(ells, Ls))
    assert np.max(np.abs(np.asarray(back.Ls) - Ls)) < 1e-7


@PROPERTY_SETTINGS
@given(s_and_t())
def test_kernel_diagonal_is_log_derivative_of_determinant(pair):
    # dM/dr = v u^T / r^2 has rank one, so K(r, r) = r^2 D'(r) / D(r)
    ells, Ls = pair
    grid = RadialGrid(0.05, 10.0)
    try:
        kernel = solve_kernel(ells, Ls, grid)
    except InadmissibleConfigurationError:
        assume(False)
    # fourth-order central difference from r = 1 on: the O(h^2) one misses 1e-6
    # (2.3e-6 at S = {2}, T = {3.375}), and near 0 D ~ r^-n is too steep
    outer = grid.r >= 1.0
    r, h = grid.r[outer], 1e-4
    det, scale = det_and_scale(ells, Ls, r)

    def step(m):
        return det_and_scale(ells, Ls, r + m * h)[0] - det_and_scale(ells, Ls, r - m * h)[0]

    slope = (8.0 * step(1) - step(2)) / (12.0 * h)
    use = np.abs(det) > 1e-3 * scale
    k = kernel.k_diag[outer][use]
    assert np.all(np.abs(k - r[use] ** 2 * slope[use] / det[use]) <= 1e-6 * (1.0 + np.abs(k)))

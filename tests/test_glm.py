"""Kernel layer: matching system, determinant identities, potential and tail."""

import math

import numpy as np
import pytest
from scipy import integrate

from ctinv.ctcore import InputSet, asymptotic_data, moment_closed_form
from ctinv.errors import (
    DomainError,
    InadmissibleConfigurationError,
    SingularConfigurationError,
    TailFitError,
)
from ctinv.forward import extract_phase
from ctinv.glm import (
    RadialGrid,
    det_and_scale,
    glm_matrix,
    kernel_diag_series,
    moment_numeric,
    potential,
    solve_kernel,
    tail_q,
    transformed_wave,
)
from ctinv.specfun import riccati

from conftest import REF1_T, REF2_T

RAMM_ZERO = 2.4431401944940823  # first zero of D(r) for S={0}, T={2}


def test_radial_grid_layout():
    g = RadialGrid(0.01, 2.0)
    assert g.r[0] == pytest.approx(0.01)
    assert g.r[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(g.r), 0.01)


def test_glm_matrix_rhs_solve_residual(ref2_input, ref2_kernel, grid400):
    # direct substitution of A into the matching system at sampled radii
    idx = np.linspace(10, len(grid400.r) - 1, 25, dtype=int)
    for k in idx:
        r = grid400.r[k]
        m = glm_matrix(ref2_input, REF2_T, r)
        rhs = np.array([riccati(float(e), r).v for e in ref2_input.ells])
        resid = m @ ref2_kernel.a[k] - rhs
        assert np.max(np.abs(resid)) < 1e-10


def test_glm_matrix_derivative_identity(ref2_input):
    # d/dr of each entry is u_L v_ell / r^2 exactly; check at O(h^2)
    h = 1e-5
    for r in (0.7, 3.3, 17.0):
        fd = (glm_matrix(ref2_input, REF2_T, r + h) - glm_matrix(ref2_input, REF2_T, r - h)) / (2 * h)
        u = np.array([riccati(L, r).u for L in REF2_T])
        v = np.array([riccati(float(e), r).v for e in ref2_input.ells])
        exact = np.outer(v, u) / r**2
        assert np.max(np.abs(fd - exact)) < 1e-8


def test_glm_matrix_large_r_limit(ref2_input):
    r = 1.0e6
    m = glm_matrix(ref2_input, REF2_T, r)
    for i, ell in enumerate(ref2_input.ells):
        for j, L in enumerate(REF2_T):
            lim = math.cos((ell - L) * math.pi / 2) / (ell * (ell + 1) - L * (L + 1))
            assert abs(m[i, j] - lim) < 2e-5


def test_kernel_diag_series_matches_alg_route(ref2_input, ref2_kernel, grid400):
    waves = [
        transformed_wave(ref2_input, REF2_T, float(e), grid400, kernel=ref2_kernel)
        for e in ref2_input.ells
    ]
    series = kernel_diag_series(ref2_input, REF2_T, grid400, waves)
    assert np.max(np.abs(series - ref2_kernel.k_diag)) < 1e-8


def test_fredholm_det_1d_integral_rep_absolute():
    # D(r) = int_0^r u_L v_ell rho^-2 for L > ell (the r->0 boundary term
    # vanishes only in that order); adaptive quadrature oracle
    big_l, ell = 0.6, 0.0

    def integrand(rho):
        return riccati(big_l, rho).u * riccati(ell, rho).v / rho**2

    for r in (1.0, 4.0, 12.0):
        val, _ = integrate.quad(integrand, 0.0, r, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(val - det_and_scale((ell,), (big_l,), np.array([r]))[0][0]) < 1e-7


def test_fredholm_det_1d_integral_rep_difference():
    # for L < ell only the difference form converges
    big_l, ell = -0.4, 0.0

    def integrand(rho):
        return riccati(big_l, rho).u * riccati(ell, rho).v / rho**2

    r0, r1 = 0.5, 6.0
    val, _ = integrate.quad(integrand, r0, r1, limit=400, epsabs=1e-13, epsrel=1e-13)
    d = det_and_scale((ell,), (big_l,), np.array([r0, r1]))[0]
    assert abs(val - (d[1] - d[0])) < 1e-10


def test_fredholm_det_2d_integral_rep():
    # det of the entrywise integrals equals D(r) when min T > max S
    S, T = (0.0, 1.0), (1.5, 2.5)
    t_nodes, w_nodes = np.polynomial.legendre.leggauss(200)

    def entry(big_l, ell, r):
        # rho = t^2 removes the rho^(L-ell-1) endpoint behaviour
        b = math.sqrt(r)
        tt = 0.5 * b * (t_nodes + 1.0)
        ww = 0.5 * b * w_nodes
        rho = tt**2
        f = riccati(big_l, rho).u * riccati(ell, rho).v / rho**2 * 2 * tt
        return float(np.sum(ww * f))

    for r in (1.0, 5.0, 20.0):
        m = np.array([[entry(L, ell, r) for L in T] for ell in S])
        dq = float(np.linalg.det(m))
        dp = det_and_scale(S, T, np.array([r]))[0][0]
        assert abs(dq - dp) < 1e-6


def test_fredholm_det_sign_change_cases():
    r = np.arange(0.05, 50.0, 0.05)
    d_bad = det_and_scale((0,), (2.0,), r)[0]
    assert np.any(np.sign(d_bad[:-1]) != np.sign(d_bad[1:]))
    r_long = np.arange(0.05, 1000.0, 0.05)
    d_ok = det_and_scale((0,), (-0.4,), r_long)[0]
    assert np.all(np.sign(d_ok) == np.sign(d_ok[0]))


def test_det_and_scale_hadamard_bound(ref2_input):
    r = np.linspace(0.2, 40.0, 50)
    det, scale = det_and_scale(ref2_input, REF2_T, r)
    assert np.all(scale > 0)
    assert np.all(np.abs(det) <= scale * (1 + 1e-12))


def test_solve_kernel_refuses_grid_point_on_zero():
    grid = RadialGrid(RAMM_ZERO / 489.0, 3.0)  # node 489 lands on the zero
    with pytest.raises(InadmissibleConfigurationError):
        solve_kernel((0,), (2.0,), grid)


def test_potential_origin_and_regression(ref1_profile):
    # frozen regression for the reference reconstruction
    assert ref1_profile.q_origin == pytest.approx(-1.4545447732740833, abs=1e-9)
    # quadratic extrapolation: first sample sits ~c*h^2 from q(0)
    assert abs(ref1_profile.q[0] - ref1_profile.q_origin) < 1e-4


def test_potential_tail_law(ref1_profile):
    # |r^2 q - 4(beta sin 2r - alpha cos 2r)| small over the outer decade
    tail = ref1_profile.tail
    assert tail is not None
    n = len(ref1_profile.r)
    sl = slice(int(0.9 * n), n)
    r = ref1_profile.r[sl]
    dev = r**2 * ref1_profile.q[sl] - r**2 * tail_q(tail, r)
    assert np.max(np.abs(dev)) < 1e-2


def test_tail_fit_matches_closed_forms(ref1_input, ref1_profile, ref2_input, ref2_profile):
    for s, t, prof in (
        (ref1_input, REF1_T, ref1_profile),
        (ref2_input, REF2_T, ref2_profile),
    ):
        ref = asymptotic_data(s, t)
        assert prof.tail.alpha == pytest.approx(ref.alpha, abs=1e-3)
        assert prof.tail.beta == pytest.approx(ref.beta, abs=1e-3)


def test_moment_numeric_matches_closed_form(ref1_input, ref1_profile):
    closed = moment_closed_form(ref1_input, REF1_T)
    assert closed == pytest.approx(-0.8, abs=1e-14)
    assert moment_numeric(ref1_profile) == pytest.approx(closed, abs=1e-2)


def test_moment_numeric_refuses_short_grid(ref1_input):
    # last-quarter window below two oscillation periods -> no tail fit
    grid = RadialGrid(0.01, 40.0)
    prof = potential(ref1_input, REF1_T, grid, solve_kernel(ref1_input, REF1_T, grid))
    assert prof.tail is None
    with pytest.raises(TailFitError):
        moment_numeric(prof)


def test_potential_vanishes_in_T_to_S_limit():
    s = InputSet((0,), (0.0,))
    grid = RadialGrid(0.01, 30.0)
    sup = []
    for eps in (0.02, 0.01):
        prof = potential(s, (eps,), grid, solve_kernel(s, (eps,), grid))
        sup.append(float(np.max(np.abs(prof.q))))
    assert sup[1] < sup[0]
    assert sup[1] / sup[0] == pytest.approx(0.5, abs=0.1)  # linear in eps
    assert sup[0] < 0.2


def test_transformed_wave_carries_input_phase(ref1_input, ref1_kernel, grid400):
    phi = transformed_wave(ref1_input, REF1_T, 0.0, grid400, kernel=ref1_kernel)
    got = extract_phase(grid400.r, phi, 0)
    assert abs(got.delta - 0.2 * math.pi) < 1e-3


def test_transformed_wave_collision_guard(ref1_input, grid400, ref1_kernel):
    with pytest.raises(DomainError):
        transformed_wave(ref1_input, REF1_T, -0.4, grid400, kernel=ref1_kernel)


def test_glm_matrix_domain_errors(ref1_input):
    with pytest.raises(DomainError):
        glm_matrix(ref1_input, REF1_T, 0.0)
    with pytest.raises(SingularConfigurationError):
        glm_matrix(ref1_input, (0.0,), 1.0)  # T collides with S


def test_kernel_from_another_grid_or_T_is_refused(ref2_input):
    # same number of points, different step: the tables would line up silently
    kernel = solve_kernel(ref2_input, REF2_T, RadialGrid(0.01, 8.0))
    other_grid = RadialGrid(0.02, 16.0)
    assert other_grid.n == kernel.grid.n
    with pytest.raises(DomainError):
        transformed_wave(ref2_input, REF2_T, 0.0, other_grid, kernel)
    with pytest.raises(DomainError):
        potential(ref2_input, REF2_T, other_grid, kernel=kernel)
    other_t = (-0.2, 0.9295)
    with pytest.raises(DomainError):
        transformed_wave(ref2_input, other_t, 0.0, kernel.grid, kernel)
    with pytest.raises(DomainError):
        potential(ref2_input, other_t, kernel.grid, kernel=kernel)
    with pytest.raises(DomainError):
        potential((0, 2), REF2_T, kernel.grid, kernel=kernel)


def test_only_the_used_riccati_halves_are_evaluated(ref2_input, monkeypatch):
    # u and u' for T, v and v' for S; values alone where only values are read.
    # Every derivative is u_{lam-1} - (lam/x) u_lam: a non-integer order reads
    # J at lam + 1/2 and (lam - 1) + 1/2 and no jvp; an integer order l takes
    # the spherical function at l and l - 1 (cos x or sin x at l = 0).
    # Each (function, order) is evaluated once per table, so S = {0, 1} takes
    # y_0 and y_1: two calls, and no yv
    from collections import Counter

    from ctinv import specfun

    calls = []
    for name in ("jv", "yv", "jvp", "yvp", "spherical_jn", "spherical_yn"):
        fn = getattr(specfun.special, name)
        monkeypatch.setattr(
            specfun.special, name, lambda nu, x, _f=fn, _n=name: calls.append((_n, nu)) or _f(nu, x)
        )

    def orders(lams):
        return {nu for lam in lams for nu in (lam + 0.5, (lam - 1.0) + 0.5)}

    grid = RadialGrid(0.01, 60.0)
    kernel = solve_kernel(ref2_input, REF2_T, grid)
    assert ref2_input.ells == (0, 1)
    assert Counter(calls) == Counter(
        [("jv", nu) for nu in orders(REF2_T)] + [("spherical_yn", 0), ("spherical_yn", 1)]
    )
    calls.clear()
    waves = [transformed_wave(ref2_input, REF2_T, float(e), grid, kernel) for e in ref2_input.ells]
    # u_0' is cos x; u_1' reads j_0, each wave its own table
    assert Counter(calls) == Counter({("spherical_jn", 0): 2, ("spherical_jn", 1): 1})
    calls.clear()
    kernel_diag_series(ref2_input, REF2_T, grid, waves)
    assert calls == [("spherical_yn", 0), ("spherical_yn", 1)]
    calls.clear()
    # a value-only read at l = 1 skips the order 0 of its derivative
    extract_phase(grid.r, waves[1], 1)
    assert calls == [("spherical_jn", 1), ("spherical_yn", 1)]

"""Forward solver: Numerov integration, phase extraction, potential wrappers."""

import math
import warnings

import numpy as np
import pytest

from ctinv.ctcore import one_shift_phase_formula, reduce_phase
from ctinv.errors import DomainError, WindowTooSmallError
from ctinv.forward import (
    SampledPotential,
    WoodsSaxon,
    extract_phase,
    integrate_regular,
    phase_table,
)
from ctinv.glm import RadialGrid, TailFit
from ctinv.specfun import riccati

ZERO_POT = SampledPotential(lambda r: np.zeros_like(np.asarray(r, dtype=float)), "free")


def _projected_deviation(phi, ref):
    # the regular solution is defined up to overall scale
    c = float(np.dot(phi, ref) / np.dot(ref, ref))
    return float(np.max(np.abs(phi - c * ref)) / np.max(np.abs(ref)))


def test_free_solution_matches_riccati():
    grid = RadialGrid(0.005, 50.0)
    for ell in range(7):
        phi = integrate_regular(ZERO_POT, ell, grid)
        ref = riccati(float(ell), grid.r).u
        assert _projected_deviation(phi, ref) < 1e-8, ell


def test_free_phase_is_zero():
    grid = RadialGrid(0.005, 60.0)
    for ell in (0, 1, 3):
        phi = integrate_regular(ZERO_POT, ell, grid)
        got = extract_phase(grid.r, phi, ell)
        assert abs(got.delta) < 1e-8
        assert got.b_norm == pytest.approx(1.0, abs=1e-6)
        assert got.residual < 1e-8


def test_numerov_fourth_order():
    # halving h shrinks the projected deviation ~16x on a smooth potential;
    # the series-seeded start nudges the measured ratio a bit above that,
    # but it stays far from 2nd order (4x) and from roundoff noise
    pot = SampledPotential(lambda r: -1.2 * np.exp(-0.5 * np.asarray(r) ** 2), "gauss")
    devs = []
    for h in (0.08, 0.04, 0.02):
        grid = RadialGrid(h, 40.0)
        phi = integrate_regular(pot, 0, grid)
        ref = integrate_regular(pot, 0, RadialGrid(h / 8, 40.0))[7::8]
        devs.append(_projected_deviation(phi, ref))
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    assert 10.0 < r1 < 40.0, devs
    assert 10.0 < r2 < 40.0, devs


def test_square_well_calibration():
    # independent closed form: inside wavenumber K = sqrt(1 + V0),
    # delta_0 = atan2(tan(K a), K) - a (mod pi); edge placed mid-cell
    h = 0.0025
    grid = RadialGrid(h, 60.0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        v0 = float(rng.uniform(0.2, 2.0))
        a = (round(float(rng.uniform(0.5, 2.5)) / h) + 0.5) * h
        pot = SampledPotential(
            lambda r, v0=v0, a=a: np.where(np.asarray(r) < a, -v0, 0.0), "square"
        )
        got = extract_phase(grid.r, integrate_regular(pot, 0, grid), 0)
        big_k = math.sqrt(1.0 + v0)
        ref = reduce_phase(math.atan2(math.tan(big_k * a), big_k) - a)
        assert abs(reduce_phase(got.delta - ref)) < 1e-6, (v0, a)


def test_square_well_higher_ell():
    # log-derivative matching with Riccati functions for ell = 1
    h, v0 = 0.0025, 1.3
    a = (round(1.7 / h) + 0.5) * h
    grid = RadialGrid(h, 60.0)
    pot = SampledPotential(lambda r: np.where(np.asarray(r) < a, -v0, 0.0), "square")
    got = extract_phase(grid.r, integrate_regular(pot, 1, grid), 1)
    big_k = math.sqrt(1.0 + v0)
    fin = riccati(1.0, big_k * a)
    fout = riccati(1.0, a)
    ld = big_k * fin.du / fin.u
    ref = math.atan2(ld * fout.u - fout.du, ld * fout.v - fout.dv)
    assert abs(reduce_phase(got.delta - reduce_phase(ref))) < 1e-6


def test_woods_saxon_reference_phases():
    tab = phase_table(WoodsSaxon(1.0, 1.0, 0.4), [0, 1], RadialGrid(0.005, 60.0))
    assert abs(tab.rows[0].delta - 0.4389) < 1e-3
    assert abs(tab.rows[1].delta - 0.1246) < 1e-3
    assert tab.rows[0].error is None


def test_woods_saxon_shape():
    ws = WoodsSaxon(1.0, 1.0, 0.4)
    assert ws(1.0) == pytest.approx(-0.5)          # half depth at the radius
    assert ws(0.0) == pytest.approx(-1.0, abs=0.1)
    # far tail underflows to zero without overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ws(np.array([500.0]))[0] == 0.0


def test_phase_table_error_rows():
    # a grid whose extraction window spans under two periods fails per-ell
    tab = phase_table(ZERO_POT, [0, 1], RadialGrid(0.01, 20.0))
    for row in tab.rows:
        assert row.delta is None
        assert row.error is not None and "WindowTooSmallError" in row.error


def test_extract_phase_window_guard():
    grid = RadialGrid(0.005, 60.0)
    phi = integrate_regular(ZERO_POT, 0, grid)
    # the last quarter of r in (0, 20] spans 5 < 4 pi
    with pytest.raises(WindowTooSmallError):
        extract_phase(grid.r[:4000], phi[:4000], 0)


def test_sampled_potential_interpolation_and_tail():
    r = np.linspace(0.01, 10.0, 2000)
    q = -np.exp(-r)
    plain = SampledPotential.from_arrays(r, q)
    mid = np.array([0.5004, 3.3337])
    assert np.max(np.abs(plain(mid) - (-np.exp(-mid)))) < 1e-6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert plain(np.array([12.0]))[0] == 0.0
    assert any("no fitted tail" in str(w.message) for w in caught)
    tail = TailFit(0.1, -0.05, 0.0, 0.0)
    with_tail = SampledPotential.from_arrays(r, q, tail=tail)
    expected = 4 * (-0.05 * math.sin(24.0) - 0.1 * math.cos(24.0)) / 144.0
    assert with_tail(np.array([12.0]))[0] == pytest.approx(expected, rel=1e-12)


def test_phase_table_takes_a_range_of_ells():
    # `ctinv forward --ellmax 2` asks for range(3)
    tab = phase_table(ZERO_POT, range(3), RadialGrid(0.01, 60.0))
    assert [row.ell for row in tab.rows] == [0, 1, 2]
    for row in tab.rows:
        assert abs(row.delta) < 1e-8


@pytest.mark.parametrize("ell", [-1, 1.5, math.inf, math.nan])
def test_channel_must_be_a_non_negative_integer(ell):
    # inf and nan are refused before int(), which raises OverflowError/ValueError
    with pytest.raises(DomainError, match="ell must be a non-negative integer"):
        integrate_regular(ZERO_POT, ell, RadialGrid(0.01, 1.0))
    with pytest.raises(DomainError, match="ell must be a non-negative integer"):
        one_shift_phase_formula(-0.4, ell, 0.3)


def test_reconstruction_label_prints_plain_numbers(ref1_profile):
    # the profile stores numpy scalars, whose NumPy 2 repr is np.float64(...)
    label = SampledPotential.from_profile(ref1_profile).describe()
    assert label == "reconstruction(S=[0], T=[-0.4])"


@pytest.mark.parametrize("params", [(1.0, 1.0, math.nan), (math.nan, 1.0, 0.4), (1.0, math.inf, 0.4)])
def test_woods_saxon_parameters_must_be_finite(params):
    with pytest.raises(DomainError):
        WoodsSaxon(*params)


def _numpy_scalar_numerov(pot, ell, grid):
    # the element-at-a-time numpy loop that integrate_regular replaced:
    # the float-list recurrence must reproduce it bit for bit
    r, h = grid.r, grid.h
    q = np.asarray(pot(r), dtype=float)
    f = ell * (ell + 1.0) / r**2 + q - 1.0
    h2 = h * h
    n_seed = 2
    while n_seed < len(r) - 4 and abs(h2 * f[n_seed - 2] / 12.0) >= 0.3:
        n_seed += 1
    norm = math.prod(range(3, 2 * ell + 2, 2))
    a2 = (q[0] - 1.0) / (2.0 * (2.0 * ell + 3.0))
    phi = np.empty_like(r)
    rs = r[:n_seed]
    phi[:n_seed] = rs ** (ell + 1) / float(norm) * (1.0 + a2 * rs**2)
    w_prev = (1.0 - h2 / 12.0 * f[n_seed - 2]) * phi[n_seed - 2]
    w_cur = (1.0 - h2 / 12.0 * f[n_seed - 1]) * phi[n_seed - 1]
    for i in range(n_seed - 1, len(r) - 1):
        w_next = 2.0 * w_cur - w_prev + h2 * f[i] * phi[i]
        phi_next = w_next / (1.0 - h2 / 12.0 * f[i + 1])
        if abs(phi_next) > 1e250:
            phi[: i + 1] *= 1e-100
            w_next *= 1e-100
            w_cur *= 1e-100
            phi_next *= 1e-100
        phi[i + 1] = phi_next
        w_prev, w_cur = w_cur, w_next
    return phi


@pytest.mark.parametrize("ell", [0, 3, 8])
def test_numerov_is_bit_identical_to_the_numpy_scalar_loop(ell):
    grid = RadialGrid(0.005, 30.0)
    pot = WoodsSaxon(1.0, 1.0, 0.4)
    assert integrate_regular(pot, ell, grid).tobytes() == _numpy_scalar_numerov(pot, ell, grid).tobytes()


def test_numerov_rescale_branch_is_bit_identical():
    # a repulsive barrier grows phi past 1e250 inside the well: the history
    # written so far, seeds included, is rescaled by 1e-100 at that step
    grid = RadialGrid(0.005, 30.0)
    pot = WoodsSaxon(-1e4, 6.0, 0.4)
    phi = integrate_regular(pot, 0, grid)
    assert abs(phi[0]) < 1e-90
    assert phi.tobytes() == _numpy_scalar_numerov(pot, 0, grid).tobytes()


def test_repulsive_barrier_phase_is_extracted():
    # the wave leaves the barrier near 1e183; the fit scales the window by a
    # power of two, so squaring the misfit cannot overflow
    grid = RadialGrid(0.005, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = phase_table(WoodsSaxon(-1e4, 6.0, 0.4), [0, 1], grid)
    for row in tab.rows:
        assert row.error is None
        assert row.residual < 1e-10 * abs(row.b_norm)
    assert tab.rows[0].delta == pytest.approx(0.1695, abs=1e-4)
    assert abs(tab.rows[0].b_norm) > 1e180


def test_extraction_scale_leaves_ordinary_fits_unchanged():
    # the power-of-two scaling is exact: a wave and the same wave times 2^k
    # give the same delta and b, residual scaled by exactly 2^k
    grid = RadialGrid(0.005, 60.0)
    phi = integrate_regular(WoodsSaxon(1.0, 1.0, 0.4), 1, grid)
    base = extract_phase(grid.r, phi, 1)
    for k in (-700, -3, 5, 600):
        got = extract_phase(grid.r, np.ldexp(phi, k), 1)
        assert got.delta == base.delta
        assert got.b_norm == math.ldexp(base.b_norm, k)
        assert got.residual == math.ldexp(base.residual, k)

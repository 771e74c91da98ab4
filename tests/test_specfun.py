"""Special-function layer: reference values, Wronskians, zeros, interlacing."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from ctinv.errors import DomainError, SaturationError
from ctinv.specfun import (
    RiccatiTables,
    _riccati_half,
    _riccati_halves,
    bessel_jy,
    cross_wronskian,
    interlacing_check,
    positive_zeros,
    riccati,
)

# Frozen arbitrary-precision reference values (30-digit evaluation, rounded).
# (nu, x) -> (J, Y, J', Y')
JY_REFERENCE = {
    (1.7, 5.0): (
        -0.085089767345250387,
        0.35626412768764787,
        -0.32870939576268643,
        -0.12006835425857174,
    ),
    (0.3, 0.7): (
        0.73859182062021894,
        -0.54790720456686491,
        0.10904603234181652,
        1.1504456009341297,
    ),
}

# First three zeros of J, Y, J', Y' at nu = 1.7, same provenance.
ZEROS_17 = {
    "j": (4.7522904823032044, 8.0039489778639873, 11.192057599397546),
    "y": (3.0342402517804444, 6.392276860302425, 9.6018841984439582),
    "jp": (2.7003104414199931, 6.302216136971262, 9.5464777262697161),
    "yp": (4.6160162632163612, 7.9356316556536443, 11.145298098570704),
}


def test_bessel_jy_reference_values():
    for (nu, x), (j, y, jp, yp) in JY_REFERENCE.items():
        J, Y, Jp, Yp = bessel_jy(nu, x)
        assert abs(J - j) < 1e-12 * abs(j)
        assert abs(Y - y) < 1e-12 * abs(y)
        assert abs(Jp - jp) < 1e-12 * abs(jp)
        assert abs(Yp - yp) < 1e-12 * abs(yp)


def test_bessel_jy_half_integer_closed_forms():
    x = np.array([0.3, 0.9, 2.0, 7.5, 20.0])
    fac = np.sqrt(2.0 / (np.pi * x))
    s, c = np.sin(x), np.cos(x)
    closed = {
        0.5: (fac * s, -fac * c),
        1.5: (fac * (s / x - c), fac * (-c / x - s)),
        2.5: (
            fac * ((3 / x**2 - 1) * s - 3 * c / x),
            fac * (-(3 / x**2 - 1) * c - 3 * s / x),
        ),
    }
    for nu, (jref, yref) in closed.items():
        J, Y, _, _ = bessel_jy(nu, x)
        assert np.max(np.abs(J - jref) / np.abs(jref)) < 1e-12
        assert np.max(np.abs(Y - yref) / np.abs(yref)) < 1e-12


def test_riccati_order_zero_and_one():
    x = np.linspace(0.2, 30.0, 200)
    f0 = riccati(0.0, x)
    assert np.max(np.abs(f0.u - np.sin(x))) < 1e-13
    assert np.max(np.abs(f0.v + np.cos(x))) < 1e-13
    assert np.max(np.abs(f0.du - np.cos(x))) < 1e-13
    assert np.max(np.abs(f0.dv - np.sin(x))) < 1e-13
    f1 = riccati(1.0, x)
    assert np.max(np.abs(f1.u - (np.sin(x) / x - np.cos(x)))) < 1e-12
    assert np.max(np.abs(f1.v - (-np.cos(x) / x - np.sin(x)))) < 1e-12


def test_riccati_wronskian_random():
    # 10^4 points: u v' - u' v = 1 everywhere, including near the -1/2 edge
    rng = np.random.default_rng(20260825)
    lams = rng.uniform(-0.49, 8.0, size=50)
    worst = 0.0
    for lam in lams:
        x = rng.uniform(0.05, 60.0, size=200)
        f = riccati(float(lam), x)
        worst = max(worst, float(np.max(np.abs(f.u * f.dv - f.du * f.v - 1.0))))
    assert worst < 1e-9


def test_bessel_wronskian_random():
    rng = np.random.default_rng(11)
    nus = rng.uniform(0.0, 8.0, size=50)
    worst = 0.0
    for nu in nus:
        x = rng.uniform(0.05, 60.0, size=200)
        J, Y, Jp, Yp = bessel_jy(float(nu), x)
        w = J * Yp - Jp * Y
        ref = 2.0 / (np.pi * x)
        worst = max(worst, float(np.max(np.abs(w - ref) / ref)))
    assert worst < 1e-9


def test_positive_zeros_half_integer():
    zj = positive_zeros("j", 0.5, 3)
    assert np.max(np.abs(zj - np.array([np.pi, 2 * np.pi, 3 * np.pi]))) < 1e-10
    zy = positive_zeros("y", 0.5, 2)
    assert np.max(np.abs(zy - np.array([np.pi / 2, 3 * np.pi / 2]))) < 1e-10


def test_positive_zeros_residual_and_order():
    z = positive_zeros("j", 1.3, 5)
    assert np.all(np.diff(z) > 0)
    J, _, _, _ = bessel_jy(1.3, z)
    assert np.max(np.abs(J)) < 1e-9


def test_positive_zeros_frozen_reference():
    for kind, ref in ZEROS_17.items():
        z = positive_zeros(kind, 1.7, 3)
        assert np.max(np.abs(z - np.array(ref))) < 1e-10


def test_jy_zeros_alternate():
    # classical Sturm interlacing: y_1 < j_1 < y_2 < j_2 < ...
    for nu in (0.0, 0.5, 1.3, 2.7):
        zj = positive_zeros("j", nu, 8)
        zy = positive_zeros("y", nu, 8)
        merged = np.empty(16)
        merged[0::2] = zy
        merged[1::2] = zj
        assert np.all(np.diff(merged) > 0)


def test_positive_zeros_errors():
    with pytest.raises(DomainError):
        positive_zeros("q", 1.0, 2)
    with pytest.raises(DomainError):
        positive_zeros("j", 1.0, 0)
    with pytest.raises(DomainError):
        positive_zeros("j", -0.1, 2)


def test_riccati_domain_errors():
    with pytest.raises(DomainError):
        riccati(-0.5, 1.0)
    with pytest.raises(DomainError):
        riccati(0.0, 0.0)
    with pytest.raises(DomainError):
        riccati(0.0, -2.0)


def test_interlacing_holds_up_to_unit_shift():
    for nu in (0.0, 0.5, 1.3, 2.7):
        for eps in (0.25, 0.5, 1.0):
            res = interlacing_check(nu, eps, depth=8)
            assert res.holds, (nu, eps, res.relation)
            assert res.violated_at is None


def test_interlacing_violated_beyond_unit_shift():
    for nu in (0.0, 0.5, 1.3, 2.7):
        for eps in (1.2, 1.5):
            res = interlacing_check(nu, eps, depth=50)
            assert not res.holds, (nu, eps)
            assert res.violated_at is not None and res.violated_at <= 50
            assert res.relation  # names the first failing comparison


H = (True, None, None)
Y1_YP = "y(nu+eps,s) < y'(nu,s)"
J1_JP = "j(nu+eps,s) < j'(nu,s+1)"


@pytest.mark.parametrize(
    "nu, expected",
    [
        (0.0, [H, H, H, (False, 1, Y1_YP), (False, 1, Y1_YP), (False, 1, Y1_YP)]),
        (0.5, [H, H, H, (False, 1, Y1_YP), (False, 1, Y1_YP), (False, 1, Y1_YP)]),
        (1.3, [H, H, H, (False, 1, J1_JP), (False, 1, Y1_YP), (False, 1, Y1_YP)]),
        (2.7, [H, H, H, (False, 3, Y1_YP), (False, 1, J1_JP), (False, 1, Y1_YP)]),
    ],
)
def test_interlacing_first_failure_pinned(nu, expected):
    # (holds, violated_at, relation) for eps = 0.25, 0.5, 1, 1.2, 1.5, 2.5
    epses = (0.25, 0.5, 1.0, 1.2, 1.5, 2.5)
    got = [tuple(interlacing_check(nu, eps, depth=8 if eps <= 1 else 50)) for eps in epses]
    assert got == expected


def test_interlacing_depth_guard():
    with pytest.raises(DomainError):
        interlacing_check(0.5, 0.5, depth=1)


def test_cross_wronskian_same_order_is_one():
    x = np.linspace(0.3, 40.0, 100)
    for lam in (0.0, 0.7, 2.4):
        w = cross_wronskian(lam, lam, x)
        assert np.max(np.abs(w - 1.0)) < 1e-10


def test_cross_wronskian_large_x_limit():
    # tends to cos((ell - L) pi / 2); adjacent integer orders -> 0
    x = np.array([2000.0, 5000.0])
    w = cross_wronskian(1.0, 2.0, x)
    assert np.max(np.abs(w - math.cos(-math.pi / 2))) < 2e-3
    w2 = cross_wronskian(0.6, 0.0, np.array([5000.0]))
    assert abs(w2[0] - math.cos(-0.6 * math.pi / 2)) < 1e-3


def test_cross_wronskian_quadrature_identity():
    # d/dx [u_L v_l' - u_L' v_l] = (l(l+1) - L(L+1)) u_L v_l / x^2, and the
    # Wronskian vanishes at 0 for L > l, so the quadrature recovers it.
    big_l, ell = 0.6, 0.0
    den = ell * (ell + 1) - big_l * (big_l + 1)

    def integrand(rho):
        return riccati(big_l, rho).u * riccati(ell, rho).v / rho**2

    for x in (0.5, 2.0, 12.0, 50.0):
        val, _ = integrate.quad(integrand, 0.0, x, limit=400, epsabs=1e-12, epsrel=1e-12)
        assert abs(val * den - cross_wronskian(big_l, ell, x)) < 1e-7


def test_riccati_array_shapes():
    f = riccati(1.3, np.linspace(0.5, 3.0, 7))
    assert f.u.shape == (7,)
    g = riccati(1.3, 2.0)
    assert np.ndim(g.u) == 0


def test_riccati_fields_are_the_exact_halves():
    # the halves keep the Bessel-based arithmetic bit for bit, and the
    # value-only form returns the same value without a derivative
    for lam in (-0.45, 0.0, 0.37, 1.0, 2.6, 8.0):
        for x in (2.3, np.linspace(0.05, 40.0, 301)):
            arr = np.asarray(x, dtype=float)
            factor = np.sqrt(0.5 * math.pi * arr)
            j, y, jp, yp = bessel_jy(lam + 0.5, arr)
            old = (
                factor * j,
                factor * (j / (2.0 * arr) + jp),
                factor * y,
                factor * (y / (2.0 * arr) + yp),
            )
            f = riccati(lam, x)
            halves = (*_riccati_half(lam, x, True), *_riccati_half(lam, x, False))
            for got, half, want in zip(f, halves, old):
                assert np.array_equal(got, half) and np.array_equal(got, want)
                assert np.ndim(got) == np.ndim(x)
            for regular, want in ((True, f.u), (False, f.v)):
                val, none = _riccati_half(lam, x, regular, deriv=False)
                assert none is None and np.array_equal(val, want)


def test_cross_wronskian_is_exact_riccati_product():
    x = np.linspace(0.1, 30.0, 97)
    for big_l, ell in ((0.6, 0.0), (-0.3056, 1.0), (2.6, 2.0)):
        ul, ve = riccati(big_l, x), riccati(ell, x)
        assert np.array_equal(cross_wronskian(big_l, ell, x), ul.u * ve.dv - ul.du * ve.v)
        scalar = cross_wronskian(big_l, ell, 3.5)
        ul, ve = riccati(big_l, 3.5), riccati(ell, 3.5)
        assert scalar == ul.u * ve.dv - ul.du * ve.v


def test_regular_half_ignores_irregular_overflow():
    # Y_{L+1/2} overflows near the origin at large L; the u half never
    # evaluates it, so only the full pair reports saturation
    x = np.linspace(0.005, 0.5, 100)
    u, du = _riccati_half(150.0, x, True)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(du))
    with pytest.raises(SaturationError):
        riccati(150.0, x)
    with pytest.raises(SaturationError):
        _riccati_half(150.0, x, False, deriv=False)


@pytest.mark.parametrize("lams", [(0.0, 1.0, 2.0), (0.1944, 1.1944)])
def test_shared_order_table_equals_per_order_halves(lams):
    # orders 1 apart share their Bessel evaluations only where the floats are
    # equal ((1.1944 + 0.5) - 1 is not the float 0.1944 + 0.5); either way
    # each half equals its own one-order table and scipy's jvp/yvp route
    x = np.linspace(0.005, 80.0, 4001)
    factor = np.sqrt(0.5 * math.pi * x)
    for regular, c, cp in ((True, special.jv, special.jvp), (False, special.yv, special.yvp)):
        shared = _riccati_halves(lams, x, regular)
        for lam, (val, dval) in zip(lams, shared):
            one = _riccati_half(lam, x, regular)
            nu = lam + 0.5
            assert np.array_equal(val, one[0]) and np.array_equal(dval, one[1])
            assert np.array_equal(val, factor * c(nu, x))
            assert np.array_equal(dval, factor * (c(nu, x) / (2.0 * x) + cp(nu, x)))
        for (val, none), lam in zip(_riccati_halves(lams, x, regular, deriv=False), lams):
            assert none is None and np.array_equal(val, _riccati_half(lam, x, regular)[0])


def test_saturation_message_names_the_table_order():
    # the value check comes first, then the derivative's, order by order
    near = np.linspace(0.005, 0.5, 100)
    for deriv in (True, False):
        with pytest.raises(SaturationError) as exc:
            _riccati_halves((0.0, 150.0), near, False, deriv=deriv)
        assert str(exc.value) == "Bessel value saturated at nu=150.5, x~0.005"
    # Y_{150.5} is finite from x = 1.06 on, Y_{151.5} (in its derivative) not yet
    edge = np.linspace(1.06, 10.0, 200)
    with pytest.raises(SaturationError) as exc:
        _riccati_half(150.0, edge, False)
    assert str(exc.value) == "Bessel value saturated at nu=150.5, x~1.06"
    val, none = _riccati_half(150.0, edge, False, deriv=False)
    assert none is None and np.all(np.isfinite(val))


@pytest.mark.parametrize(
    "regular, lams", [(True, (-0.3056, 0.9295, 2.5)), (False, (0.0, 1.0, 3.0))]
)
def test_tables_grown_n_2n_4n_equal_whole_grid_halves(regular, lams):
    # each growth evaluates only the new points; the bits are those of one
    # _riccati_halves call on the whole grid x_k = k * step
    tables = RiccatiTables(0.05)
    for n in (700, 1400, 2800):
        got = tables.halves(lams, regular, n)
        full = _riccati_halves(lams, np.arange(1, n + 1, dtype=float) * 0.05, regular)
        for (val, dval), (ref, dref) in zip(got, full):
            assert np.array_equal(val, ref) and np.array_equal(dval, dref)
    # a shorter request reads a prefix and fills nothing
    (val, _), = tables.halves(lams[:1], regular, 100)
    assert np.array_equal(val, full[0][0][:100])
    assert tables.counts() == {"filled": 3, "bessel_points": 3 * 3 * 2800, "most_live": 3}
    tables.drop(lams[1:], regular)
    tables.halves(lams, regular, 10)
    assert tables.counts()["filled"] == 5


@pytest.mark.parametrize("fill, n", [(0, 0), (10, 0), (10, -3)])
def test_tables_refuse_fewer_than_one_point(fill, n):
    tables = RiccatiTables(0.05)
    if fill:
        tables.halves([0.0], True, fill)
    with pytest.raises(DomainError, match="needs n >= 1"):
        tables.halves([0.0], True, n)


def test_tables_raise_the_saturation_message_of_direct_halves():
    x = np.arange(1, 201, dtype=float) * 0.005
    with pytest.raises(SaturationError) as direct:
        _riccati_halves((0.0, 150.0), x, False)
    tables = RiccatiTables(0.005)
    with pytest.raises(SaturationError) as memo:
        tables.halves((0.0, 150.0), False, 200)
    assert str(memo.value) == str(direct.value) == "Bessel value saturated at nu=150.5, x~0.005"
    # the order that saturated left no table behind
    assert tables.counts()["filled"] == 1

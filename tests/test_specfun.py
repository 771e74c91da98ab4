"""Special-function layer: reference values, Wronskians, zeros, interlacing."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from ctinv.errors import DomainError, SaturationError
from ctinv.specfun import (
    RiccatiTables,
    _as_positive_array,
    _hankel,
    _hankel_series,
    _require_finite,
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


def _bessel_halves(lams, x, regular: bool, deriv: bool = True) -> list:
    """The jv/yv route of _riccati_halves for every order, kept as the reference.

    Before integer orders took the spherical Bessel closed forms and every
    derivative took u_{lam-1} - (lam/x) u_lam, every order went this way:
    C_nu (J or Y) at nu = lam + 1/2, with scipy's jvp/yvp expression
    (C_{nu-1} - C_{nu-1+2}) / 2 for the derivative, so its halves equal
    sqrt(pi x / 2) times jv/yv and the jvp/yvp route bit for bit.
    """
    for lam in lams:
        if not math.isfinite(lam) or lam <= -0.5:
            raise DomainError("order lam must be finite and > -1/2")
    arr, scalar = _as_positive_array(x, "x")
    factor = np.sqrt(0.5 * math.pi * arr)
    fn = special.jv if regular else special.yv
    memo: dict[float, np.ndarray] = {}  # keyed on the exact float order

    def cyl(nu: float):
        if nu not in memo:
            memo[nu] = fn(nu, arr)
        return memo[nu]

    halves = []
    for lam in lams:
        nu = lam + 0.5
        c = cyl(nu)
        _require_finite(nu, arr, c)
        val, dval = factor * c, None
        if deriv:
            # scipy's _bessel_diff_formula, operation for operation, so the bits match jvp/yvp
            s = cyl(nu - 1.0).copy()
            s += -1.0 * cyl(nu - 1.0 + 2.0)
            cp = s / 2.0
            _require_finite(nu, arr, cp)
            dval = factor * (c / (2.0 * arr) + cp)
        if scalar:
            halves.append((float(val), None if dval is None else float(dval)))
        else:
            halves.append((val, dval))
    return halves


def _assert_near_reference(lam, x, got, want):
    """Compare (u, u', v, v') at x with the reference: the values u, v at a
    non-integer order equal it bit for bit below x_min(lam + 1/2), where
    they take the jv/yv route, and lie within 1e-13 of the modulus
    sqrt(u^2 + v^2) from there on, where Hankel's expansion gives them;
    integer-order values lie within 1e-12 of that modulus, and the
    derivatives of every order within 1e-12 of sqrt(u'^2 + v'^2), both
    moduli from the reference."""
    moduli = (np.hypot(want[0], want[2]), np.hypot(want[1], want[3])) * 2
    exact = np.asarray(x) < _hankel_series(lam + 0.5)[0]
    for k, (g, w, m) in enumerate(zip(got, want, moduli)):
        if k % 2 == 0 and lam != int(lam):
            assert np.all(np.where(exact, g == w, np.abs(g - w) <= 1e-13 * m))
        else:
            assert np.all(np.abs(g - w) <= 1e-12 * m)


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
    # the four fields are the halves bit for bit, and the value-only form
    # returns the same value without a derivative; against the jv/yv route,
    # non-integer values are bit-exact below x_min and the rest near it
    for lam in (-0.45, 0.0, 0.37, 1.0, 2.6, 8.0):
        for x in (2.3, np.linspace(0.05, 40.0, 301)):
            f = riccati(lam, x)
            halves = (*_riccati_half(lam, x, True), *_riccati_half(lam, x, False))
            for got, half in zip(f, halves):
                assert np.array_equal(got, half)
                assert np.ndim(got) == np.ndim(x)
            old = (*_bessel_halves((lam,), x, True)[0], *_bessel_halves((lam,), x, False)[0])
            _assert_near_reference(lam, x, f, old)
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


# the orders the pipeline tables: ref1's T, ref2's T and ws3's physical T
PIPELINE_T = (-0.4, -0.3056, 0.9295, 1.997)


@pytest.mark.parametrize("lams", [(0.0, 1.0, 2.0), (0.1944, 1.1944), PIPELINE_T])
def test_shared_order_table_equals_per_order_halves(lams):
    # orders 1 apart share their evaluations only where the orders are equal
    # (1.1944 - 1 is not the float 0.1944; the integer order l reads l - 1);
    # either way each half equals its own one-order table.  Every value is
    # x j_l(x) or x y_l(x) at an integer order, sqrt(pi x / 2) J or Y at
    # lam + 1/2 at any other, every derivative u_{lam-1} - (lam/x) u_lam with
    # u_{-1} = cos x, v_{-1} = sin x, and every order matches the jv/yv
    # reference as _assert_near_reference says.  From x_min(lam + 1/2) on
    # (17.6 to 21.9 at these orders), a non-integer value is Hankel's
    # expansion instead
    x = np.linspace(0.005, 80.0, 4001)
    funcs = {
        True: (special.spherical_jn, np.cos, special.jv),
        False: (special.spherical_yn, np.sin, special.yv),
    }
    halves = {}
    for regular, (sph, below, c) in funcs.items():

        def value(lam):
            if lam == -1.0:
                return below(x)
            if lam == int(lam):
                return x * sph(int(lam), x)
            val = np.sqrt(0.5 * math.pi * x) * c(lam + 0.5, x)
            x_min, p, q = _hankel_series(lam + 0.5)
            far = x >= x_min
            val[far] = _hankel(lam + 0.5, x[far], regular, p, q)
            return val

        shared = _riccati_halves(lams, x, regular)
        for lam, (val, dval) in zip(lams, shared):
            one = _riccati_half(lam, x, regular)
            assert np.array_equal(val, one[0]) and np.array_equal(dval, one[1])
            assert np.array_equal(val, value(lam))
            assert np.array_equal(dval, value(lam - 1.0) - (lam / x) * val)
        for (val, none), lam in zip(_riccati_halves(lams, x, regular, deriv=False), lams):
            assert none is None and np.array_equal(val, _riccati_half(lam, x, regular)[0])
        halves[regular] = (shared, _bessel_halves(lams, x, regular))
    for k, lam in enumerate(lams):
        got = (*halves[True][0][k], *halves[False][0][k])
        want = (*halves[True][1][k], *halves[False][1][k])
        _assert_near_reference(lam, x, got, want)


def test_saturation_message_names_the_table_order():
    # the value check comes first, then the derivative's, order by order
    near = np.linspace(0.005, 0.5, 100)
    for deriv in (True, False):
        with pytest.raises(SaturationError) as exc:
            _riccati_halves((0.0, 150.0), near, False, deriv=deriv)
        assert str(exc.value) == "Bessel value saturated at nu=150.5, x~0.005"
    # Y_{150.4} is finite from x = 1.06 on, Y_{151.4} not yet.  v'_lam =
    # v_{lam-1} - (lam/x) v_lam reads Y_{149.4} and no Y_{151.4}, so the
    # half is finite where the jv/yv route saturated in its derivative;
    # the same holds for the integer order 150, which needs no Y_{151.5}
    edge = np.linspace(1.06, 10.0, 200)
    for lam in (149.9, 150.0):
        with pytest.raises(SaturationError) as exc:
            _bessel_halves((lam,), edge, False)
        assert str(exc.value) == f"Bessel value saturated at nu={lam + 0.5:g}, x~1.06"
        val, dval = _riccati_half(lam, edge, False)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(dval))
        # and near the reference from the first point where that is finite
        ok = edge >= 1.2
        x = edge[ok]
        old = (*_bessel_halves((lam,), x, True)[0], *_bessel_halves((lam,), x, False)[0])
        _assert_near_reference(lam, x, (*_riccati_half(lam, x, True), val[ok], dval[ok]), old)


@pytest.mark.parametrize("lam", [501.0, 1e20])
def test_integer_orders_above_500_take_the_bessel_route(lam):
    # scipy's spherical functions recur over the order at each point, and take
    # it as a C long; above 500 the value takes the jv/yv route as it does for
    # a non-integer order: the reference's values, or its saturation.  The
    # derivative is u_{lam-1} - (lam/x) u_lam as at every order, near the
    # reference's (501 reads the spherical order 500; 1e20 - 1 is 1e20)
    x = np.linspace(400.0, 700.0, 60)

    def outcome(halves, regular):
        try:
            return halves((lam,), x, regular)[0]
        except SaturationError as exc:
            return str(exc)

    got, want = ([outcome(halves, r) for r in (True, False)] for halves in (_riccati_halves, _bessel_halves))
    for regular, g, w in zip((True, False), got, want):
        if isinstance(w, str):
            assert g == w
            continue
        val, dval = g
        assert np.array_equal(val, w[0])
        below, _ = _riccati_half(lam - 1.0, x, regular, deriv=False)
        assert np.array_equal(dval, below - (lam / x) * val)
    if not any(isinstance(w, str) for w in want):
        _assert_near_reference(lam, x, (*got[0], *got[1]), (*want[0], *want[1]))


# every integer order 0..60 on the grid x = k * 0.005 up to 400
INTEGER_ORDERS = tuple(float(ell) for ell in range(61))
GRID_400 = np.arange(1, 80001) * 0.005


def test_integer_orders_stay_near_the_bessel_route():
    # a 1-in-7 sample of the grid keeps the jv/yv reference to a few seconds
    # (on the whole grid the worst case is the same, 3.7e-13 of the modulus)
    x = GRID_400[::7]
    new, old = (
        [halves(INTEGER_ORDERS, x, regular) for regular in (True, False)]
        for halves in (_riccati_halves, _bessel_halves)
    )
    for k, lam in enumerate(INTEGER_ORDERS):
        _assert_near_reference(lam, x, (*new[0][k], *new[1][k]), (*old[0][k], *old[1][k]))


def test_integer_order_wronskian_is_one_to_rounding():
    # u v' - u' v = 1 beyond the turning point; the jv/yv route gave up to 2.7e-13
    for lam in INTEGER_ORDERS:
        x = GRID_400[GRID_400 > lam + 5.0]
        (u, du), (v, dv) = _riccati_half(lam, x, True), _riccati_half(lam, x, False)
        assert np.max(np.abs(u * dv - du * v - 1.0)) <= 4e-15, lam


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
    assert tables.counts() == {"filled": 3, "bessel_points": 3 * 3 * 2800}


def test_tables_grown_across_x_min_equal_whole_grid_halves():
    # the first fill ends below x_min of both orders a half reads (lam and
    # lam - 1, at 20.43 and 20.30), the first growth crosses both, the second
    # lies beyond them; every fill equals one call on the whole grid
    lam, step = 0.9295, 0.05
    x_mins = [_hankel_series(nu)[0] for nu in (lam + 0.5, lam - 0.5)]
    assert 300 * step < min(x_mins) and max(x_mins) < 420 * step
    tables = RiccatiTables(step)
    for regular in (True, False):
        for n in (300, 420, 600):
            (val, dval), = tables.halves((lam,), regular, n)
            (ref, dref), = _riccati_halves((lam,), np.arange(1, n + 1, dtype=float) * step, regular)
            assert np.array_equal(val, ref) and np.array_equal(dval, dref)


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


# orders of the accuracy test as nu = lam + 1/2; -0.81 is read only as the
# order lam - 1 of a derivative
HANKEL_NUS = (-0.81, 0.19, 0.43, 1.43, 2.3, 4.7, 8.4)


@pytest.mark.parametrize("nu", HANKEL_NUS)
def test_hankel_branch_is_exact_to_rounding(nu):
    # against 40-digit values on seeded x in [x_min, 2800]: within 2e-15 of
    # sqrt(u^2 + v^2), where the jv/yv route is off by up to 3.5e-14
    mpmath = pytest.importorskip("mpmath")
    x_min, p, q = _hankel_series(nu)
    x = np.concatenate(([x_min], np.random.default_rng(35).uniform(x_min, 2800.0, 40)))
    with mpmath.workdps(40):
        exact = [
            np.array([float(mpmath.sqrt(mpmath.pi * t / 2) * fn(nu, t)) for t in map(mpmath.mpf, x)])
            for fn in (mpmath.besselj, mpmath.bessely)
        ]
    modulus = np.hypot(*exact)
    for regular, want in zip((True, False), exact):
        assert np.max(np.abs(_hankel(nu, x, regular, p, q) - want) / modulus) <= 2e-15


def test_non_integer_halves_stay_near_the_bessel_route_row_by_row():
    # 50 seeded orders, 10 of them below 1/2 so that lam - 1 lies in
    # (-1.49, -1/2), each at 200 seeded x in (0.05, 400) and exactly at the
    # two points where its value's and its derivative's order switch route:
    # 10,100 rows; each switch point also as a scalar, equal to its row
    rng = np.random.default_rng(3501)
    for lam in np.concatenate((rng.uniform(-0.49, 0.5, 10), rng.uniform(0.5, 9.0, 40))).tolist():
        switches = [_hankel_series(nu)[0] for nu in (lam + 0.5, lam - 0.5)]
        x = np.concatenate((rng.uniform(0.05, 400.0, 200), switches))
        got, want = (
            (*halves((lam,), x, True)[0], *halves((lam,), x, False)[0])
            for halves in (_riccati_halves, _bessel_halves)
        )
        _assert_near_reference(lam, x, got, want)
        for k, point in zip((-2, -1), switches):
            scalar = (*_riccati_half(lam, point, True), *_riccati_half(lam, point, False))
            assert scalar == tuple(g[k] for g in got)


def test_non_integer_wronskian_is_one_to_rounding():
    # u v' - u' v = 1 on the grid from x = 25 on, where nearly every value
    # is Hankel's expansion; the jv/yv route gave up to 3.9e-15 here
    x = GRID_400[GRID_400 >= 25.0]
    for lam in np.random.default_rng(46).uniform(-0.49, 8.0, 46).tolist():
        (u, du), (v, dv) = _riccati_half(lam, x, True), _riccati_half(lam, x, False)
        assert np.max(np.abs(u * dv - du * v - 1.0)) <= 5e-15, lam


@pytest.mark.parametrize("lam", [20.1, 149.9, 1e20])
def test_orders_beyond_the_hankel_bound_keep_the_bessel_route(lam):
    # 20 terms bound Hankel's remainder only up to |nu| = 20.5, so these
    # orders read jv/yv at every x: the same values, or the same saturation
    assert math.isfinite(_hankel_series(20.5)[0])
    assert _hankel_series(lam + 0.5)[0] == math.inf
    x = np.linspace(0.005, 3000.0, 601)

    def outcome(halves, regular):
        try:
            return halves((lam,), x, regular, deriv=False)[0][0]
        except SaturationError as exc:
            return str(exc)

    for regular in (True, False):
        got, want = outcome(_riccati_halves, regular), outcome(_bessel_halves, regular)
        assert type(got) is type(want) and np.array_equal(got, want)

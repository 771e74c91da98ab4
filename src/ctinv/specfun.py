"""Cylinder and Riccati-Bessel functions at real order, plus their zeros.

The functions accept scalar or array abscissae and raise typed errors
instead of returning inf/nan; each result depends on its arguments alone.
The one stateful object is `RiccatiTables`, a memo of Riccati halves on a
fixed grid.  Orders are real; the radial functions used elsewhere in the
package are

    u_lam(x) = sqrt(pi x / 2) J_{lam+1/2}(x)      (regular at x = 0)
    v_lam(x) = sqrt(pi x / 2) Y_{lam+1/2}(x)      (irregular at x = 0)

normalised so that the same-order Wronskian u v' - u' v equals 1.  Their
values take one of four routes (see _riccati_halves): cos x or sin x at
lam = -1, the spherical Bessel closed forms at an integer order up to 500,
and at any other order Hankel's large-x expansion from x_min(lam + 1/2) on
and scipy's jv/yv below it.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import BracketingError, DomainError, SaturationError

__all__ = [
    "FunctionPair",
    "InterlacingResult",
    "RiccatiTables",
    "bessel_jy",
    "riccati",
    "cross_wronskian",
    "positive_zeros",
    "interlacing_check",
]

# zero kind -> (scipy derivative function, order of the derivative it is);
# one order more gives its slope for the Newton polish
_CYL = {
    "j": (special.jvp, 0),
    "y": (special.yvp, 0),
    "jp": (special.jvp, 1),
    "yp": (special.yvp, 1),
}
ZERO_KINDS = tuple(_CYL)


class FunctionPair(NamedTuple):
    """Regular/irregular Riccati-Bessel values and radial derivatives."""

    u: np.ndarray | float
    du: np.ndarray | float
    v: np.ndarray | float
    dv: np.ndarray | float


class InterlacingResult(NamedTuple):
    """Outcome of an interlacing-chain verification.

    ``violated_at`` is the 1-based block index s of the first failed
    inequality and ``relation`` names it; both are None when the chain holds.
    """

    holds: bool
    violated_at: int | None
    relation: str | None


def _as_positive_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if arr.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} must be > 0")
    return arr, scalar


def _check_order(nu: float) -> None:
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError("order nu must be finite and >= 0")


def bessel_jy(nu: float, x):
    """Evaluate J_nu, Y_nu and their derivatives at x > 0.

    Parameters
    ----------
    nu : float
        Real order, nu >= 0.
    x : float or array_like
        Strictly positive abscissae.

    Returns
    -------
    (J, Y, Jp, Yp)
        Values and first derivatives with respect to x, scalars for scalar
        input and ndarrays otherwise.

    Raises
    ------
    DomainError
        For x <= 0 or nu < 0.
    SaturationError
        If any value overflows or is otherwise non-finite (Y_nu near the
        origin at large order overflows double precision long before x
        reaches 0).
    """
    _check_order(nu)
    arr, scalar = _as_positive_array(x, "x")
    # scipy's derivative formula sums an overflowed Y as numpy scalars; _require_finite reports it
    with np.errstate(invalid="ignore", over="ignore"):
        j = special.jv(nu, arr)
        y = special.yv(nu, arr)
        jp = special.jvp(nu, arr)
        yp = special.yvp(nu, arr)
    _require_finite(nu, arr, j, y, jp, yp)
    if scalar:
        return float(j), float(y), float(jp), float(yp)
    return j, y, jp, yp


def _require_finite(nu: float, arr: np.ndarray, *values) -> None:
    for vals in values:
        if not np.all(np.isfinite(vals)):
            bad = arr[~np.isfinite(np.asarray(vals))]
            raise SaturationError(
                f"Bessel value saturated at nu={nu:g}, x~{float(np.min(bad)):.6g}"
            )


# terms a_0 .. a_{N-1} of Hankel's expansion that _hankel sums, half in P and half in Q
HANKEL_TERMS = 20


def _hankel_series(nu: float) -> tuple[float, list[float], list[float]]:
    """Where Hankel's expansion at order nu holds to 2^-54, and its P and Q coefficients.

    DLMF 10.17.3-4 write sqrt(pi x / 2) J_nu(x) = P cos w - Q sin w and
    sqrt(pi x / 2) Y_nu(x) = P sin w + Q cos w, with w = x - (nu/2 + 1/4) pi,
    P = sum_k (-1)^k a_2k x^-2k, Q = sum_k (-1)^k a_2k+1 x^-2k-1 and
    a_k = a_{k-1} (4 nu^2 - (2k-1)^2) / (8k), a_0 = 1.  Summed over
    a_0 .. a_{N-1} (N = HANKEL_TERMS), P and Q are each off by at most
    their first neglected term (DLMF 10.17(iii), which needs N >= |nu| - 1/2;
    P and Q are even in nu).  The returned x_min is the smallest x at which
    both those terms, a_N x^-N and a_{N+1} x^-N-1, are <= 2^-54; it is inf
    where the bound does not hold, so no coefficient can overflow.  The
    coefficients come signed, as polynomials in 1/x^2: P, and x Q.
    """
    n = HANKEL_TERMS
    if n < abs(nu) - 0.5:
        return math.inf, [], []
    a = [1.0]
    for k in range(1, n + 2):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    x_min = max((abs(a[n]) * 2.0**54) ** (1 / n), (abs(a[n + 1]) * 2.0**54) ** (1 / (n + 1)))
    signed = [ak if k % 4 < 2 else -ak for k, ak in enumerate(a[:n])]  # (-1)^k on a_2k, a_2k+1
    return x_min, signed[0::2], signed[1::2]


def _hankel(nu: float, x: np.ndarray, regular: bool, p: list[float], q: list[float]) -> np.ndarray:
    """sqrt(pi x / 2) J_nu(x) or Y_nu(x) from the coefficients _hankel_series returns."""
    t = 1.0 / (x * x)
    big_p, big_q = np.full_like(x, p[-1]), np.full_like(x, q[-1])
    for cp, cq in zip(p[-2::-1], q[-2::-1]):  # Horner's rule in 1/x^2
        big_p *= t
        big_p += cp
        big_q *= t
        big_q += cq
    big_q /= x
    # phi = (nu/2 + 1/4) pi from pi (nu - k) / 2, exact to rounding for the
    # integer k nearest nu, turned by k quarter turns and then by pi/4
    k = round(nu)
    c, s = math.cos(0.5 * math.pi * (nu - k)), math.sin(0.5 * math.pi * (nu - k))
    for _ in range(k % 4):
        c, s = -s, c
    cos_phi, sin_phi = (c - s) * math.sqrt(0.5), (s + c) * math.sqrt(0.5)
    # w = x - phi by the angle-difference formulas, so only cos and sin reduce x
    cos_x, sin_x = np.cos(x), np.sin(x)
    cos_w = cos_x * cos_phi + sin_x * sin_phi
    sin_w = sin_x * cos_phi - cos_x * sin_phi
    if regular:
        return big_p * cos_w - big_q * sin_w
    return big_p * sin_w + big_q * cos_w


def _riccati_halves(lams, x, regular: bool, deriv: bool = True) -> list:
    """One half of the Riccati pair per order: (u, u') from J or (v, v') from Y.

    The derivative is None when `deriv` is false, so callers that read
    only values skip the order it needs.  Every order takes its derivative
    from u_lam' = u_{lam-1} - (lam/x) u_lam (DLMF 10.6.2), so each half
    reads two orders, lam and lam - 1.  The value at an order comes from
    cos x or sin x at lam = -1; from the spherical Bessel closed forms
    u_l = x j_l(x), v_l = x y_l(x) at an integer 0 <= l <= 500 (scipy
    recurs over l at each point, which costs more than jv/yv above
    l ~ 500); and at any other order, with nu = lam + 1/2, from Hankel's
    expansion at x >= x_min(nu) (see _hankel_series; at most 27 for
    |nu| <= 9, inf for |nu| > 20.5) and from sqrt(pi x / 2) C_nu (scipy's
    jv or yv) below it.  The route is chosen point by point, so a value
    depends on its x alone.  Each distinct order is evaluated once per
    call and shared between the values and derivatives of all `lams`.
    Every value and derivative computed is checked for saturation, order
    by order.
    """
    for lam in lams:
        if not math.isfinite(lam) or lam <= -0.5:
            raise DomainError("order lam must be finite and > -1/2")
    arr, scalar = _as_positive_array(x, "x")
    fn = special.jv if regular else special.yv
    sph = special.spherical_jn if regular else special.spherical_yn

    @functools.cache  # keyed on the exact float order
    def ric(lam: float):
        if lam == -1.0:
            return np.cos(arr) if regular else np.sin(arr)
        if 0 <= lam <= 500 and lam == int(lam):
            return arr * sph(int(lam), arr)
        nu = lam + 0.5
        x_min, p, q = _hankel_series(nu)
        near = arr < x_min
        out = np.empty_like(arr)
        out[near] = np.sqrt(0.5 * math.pi * arr[near]) * fn(nu, arr[near])
        if not near.all():  # x_min is inf where the expansion's bound does not hold
            out[~near] = _hankel(nu, arr[~near], regular, p, q)
        return out

    halves = []
    for lam in lams:
        val, dval = ric(lam), None
        _require_finite(lam + 0.5, arr, val)
        if deriv:
            dval = ric(lam - 1.0) - (lam / arr) * val
            _require_finite(lam + 0.5, arr, dval)
        if scalar:
            halves.append((float(val), None if dval is None else float(dval)))
        else:
            halves.append((val, dval))
    return halves


def _riccati_half(lam: float, x, regular: bool, deriv: bool = True):
    """One half of the Riccati pair at a single order; see _riccati_halves."""
    return _riccati_halves((lam,), x, regular, deriv)[0]


class RiccatiTables:
    """Riccati halves on the grid x_k = k * step, k = 1..n, each table built once.

    A table is keyed on its half (u, u' from J or v, v' from Y) and exact
    order, and grows append-only: only points beyond those held are
    evaluated, through _riccati_halves.  Its arithmetic is elementwise, so
    the first n points equal _riccati_halves on the whole grid bit for bit.
    Nothing is removed: a table lives as long as the instance, so a sweep
    that owns one builds each table once.  Threads may share one instance:
    each table fills under its own lock, so no fill runs twice and no
    table is replaced by a shorter one.  A fill that fails with a
    CtinvError (a saturated Y near the origin) stores nothing, so a later
    request evaluates it again.  `counts()` derives its numbers from the
    tables: `filled` is the number of tables and `bessel_points` three per
    point held, at every order although each half reads two orders (lam
    and lam - 1), so the counts stay comparable with earlier reports.
    """

    def __init__(self, step: float):
        self.step = float(step)  # checked by the callers: scans refuse a bad step
        self._tables: dict[tuple[bool, float], tuple[np.ndarray, np.ndarray]] = {}
        self._locks: dict[tuple[bool, float], threading.Lock] = {}
        self._guard = threading.Lock()  # the dicts

    def halves(self, lams, regular: bool, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """(value, derivative) of each order on the first n grid points."""
        if n < 1:
            raise DomainError("a Riccati table needs n >= 1 grid points")
        return [self._half((regular, float(lam)), n) for lam in lams]

    def _half(self, key: tuple[bool, float], n: int):
        with self._guard:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            with self._guard:
                held = self._tables.get(key)
            have = 0 if held is None else len(held[0])
            if have < n:
                x = np.arange(have + 1, n + 1, dtype=float) * self.step
                new = _riccati_halves((key[1],), x, key[0])[0]
                held = new if held is None else tuple(map(np.concatenate, zip(held, new)))
                for arr in held:  # callers get views of the shared table
                    arr.flags.writeable = False
                with self._guard:
                    self._tables[key] = held
        return held[0][:n], held[1][:n]

    def counts(self) -> dict[str, int]:
        with self._guard:
            held = list(self._tables.values())
        return {"filled": len(held), "bessel_points": 3 * sum(len(val) for val, _ in held)}


def riccati(lam: float, x) -> FunctionPair:
    """Riccati-Bessel pair u_lam, v_lam and derivatives at x > 0.

    The order must satisfy lam > -1/2 so that u is the recessive solution at
    the origin.  Derivatives follow from u_lam' = u_{lam-1} - (lam/x) u_lam,
    and likewise for v.
    """
    return FunctionPair(*_riccati_half(lam, x, True), *_riccati_half(lam, x, False))


def cross_wronskian(big_l: float, ell: float, x):
    """Mixed-order Wronskian u_L v_ell' - u_L' v_ell at x > 0.

    Unlike the same-order case this is not constant; it tends to
    cos((ell - L) pi / 2) as x -> infinity.
    """
    u, du = _riccati_half(big_l, x, True)
    v, dv = _riccati_half(ell, x, False)
    return u * dv - du * v


def positive_zeros(kind: str, nu: float, count: int) -> np.ndarray:
    """First `count` strictly positive zeros of J, Y, J' or Y' at order nu.

    Parameters
    ----------
    kind : {"j", "y", "jp", "yp"}
        Which cylinder function (prime meaning d/dx).
    nu : float
        Real order, nu >= 0.
    count : int
        Number of zeros, >= 1.

    Returns
    -------
    ndarray
        Ascending zeros, refined to near machine accuracy (bracket scan,
        Brent, one Newton polish).

    Notes
    -----
    x = 0 is never reported even where classical zero counting includes it
    (J_0' at the origin); callers that need that convention add it
    themselves.
    """
    if kind not in ZERO_KINDS:
        raise DomainError(f"unknown zero kind {kind!r}; expected one of {ZERO_KINDS}")
    _check_order(nu)
    if count < 1:
        raise DomainError("count must be >= 1")

    # All first zeros of the four kinds lie at or above nu (the classical
    # chain starts nu <= j'_{nu,1}), so scanning can start there.
    from scipy.optimize import brentq

    deriv, order = _CYL[kind]

    def f(x):
        return deriv(nu, x, order)

    step = 0.25 * math.pi
    x_lo = max(1e-6, nu)
    f_lo = f(x_lo)
    zeros: list[float] = []
    # Zeros of cylinder functions and their derivatives are separated by at
    # least ~1 for nu >= 0, so a pi/4 scan step cannot skip a sign change.
    max_steps = int((count + 2) * math.pi / step * 3) + 200
    for _ in range(max_steps):
        x_hi = x_lo + step
        f_hi = f(x_hi)
        if f_lo == 0.0:
            root = x_lo
        elif f_lo * f_hi < 0.0:
            root = brentq(f, x_lo, x_hi, xtol=1e-14, rtol=8.9e-16)
        else:
            root = None
        if root is not None and (not zeros or root - zeros[-1] > 1e-9):
            fp = deriv(nu, root, order + 1)
            if fp != 0.0:
                polished = root - f(root) / fp
                if x_lo <= polished <= x_hi and abs(f(polished)) <= abs(f(root)):
                    root = polished
            zeros.append(float(root))
            if len(zeros) == count:
                return np.array(zeros)
        x_lo, f_lo = x_hi, f_hi
    raise BracketingError(
        f"found only {len(zeros)} of {count} zeros of {kind} at nu={nu:g}"
    )


# the six links of one block of the chain, left to right
_LINKS = (
    "j'(nu,s) < y(nu,s)",
    "y(nu,s) < y(nu+eps,s)",
    "y(nu+eps,s) < y'(nu,s)",
    "y'(nu,s) < j(nu,s)",
    "j(nu,s) < j(nu+eps,s)",
    "j(nu+eps,s) < j'(nu,s+1)",
)


def interlacing_check(nu: float, eps: float, depth: int = 10) -> InterlacingResult:
    """Verify the shifted interlacing chain of Bessel zeros to given depth.

    For each block s = 1..depth the chain

        j'_{nu,s} < y_{nu,s} < y_{nu+eps,s} < y'_{nu,s}
                  < j_{nu,s} < j_{nu+eps,s} < j'_{nu,s+1}

    is checked together with the head inequality nu <= j'_{nu,1}.  It holds
    for every 0 < eps <= 1 and breaks for eps > 1; the returned result
    pinpoints the first failing comparison.

    Ties within the zero-refinement tolerance count as interlaced: at
    nu = 0, eps = 1 the chain degenerates to equality (Y_0' = -Y_1 makes
    y_{1,s} and y'_{0,s} the same points), and the eps <= 1 criterion only
    survives that corner with a non-strict reading.

    For nu = 0 the chain uses the classical count in which x = 0 is the
    first zero of J_0', so j'_{0,1} = 0 there.
    """
    _check_order(nu)
    if not math.isfinite(eps) or eps <= 0.0:
        raise DomainError("shift eps must be finite and > 0")
    if depth < 2:
        raise DomainError("depth must be >= 2")

    if nu == 0.0:
        jp_base = np.concatenate(([0.0], positive_zeros("jp", 0.0, depth)))
    else:
        jp_base = positive_zeros("jp", nu, depth + 1)
    # row s - 1 holds block s: j'(nu,s), y(nu,s), ..., j(nu+eps,s), j'(nu,s+1)
    chain = np.column_stack((
        jp_base[:-1],
        positive_zeros("y", nu, depth),
        positive_zeros("y", nu + eps, depth),
        positive_zeros("yp", nu, depth),
        positive_zeros("j", nu, depth),
        positive_zeros("j", nu + eps, depth),
        jp_base[1:],
    ))
    if nu > jp_base[0]:
        return InterlacingResult(False, 1, "nu <= j'(nu,1)")
    broken = np.argwhere(~(chain[:, :-1] < chain[:, 1:] + 1e-9))
    if len(broken):
        s, link = broken[0]
        return InterlacingResult(False, int(s) + 1, _LINKS[link])
    return InterlacingResult(True, None, None)

"""Core algebra of the fixed-energy inversion.

The input is a finite set S of physical angular momenta with phase shifts
delta_ell; the unknowns are an equal-size set T of real shifted angular
momenta L > -1/2 with T disjoint from S.  Everything here is small dense
linear algebra built on the matrices

    [M_sin]_{ell,L} = sin((ell - L) pi/2) / (L(L+1) - ell(ell+1))
    [M_cos]_{ell,L} = cos((ell - L) pi/2) / (L(L+1) - ell(ell+1))

which encode the large-r behaviour of the transformed waves.  One real solve,
M_cos [a b] = [cos(ell pi/2) sin(ell pi/2)] over S, gives the tail amplitudes,
and delta_ell = atan2(Q, P) + ell pi/2 (mod pi) for any ell, with
P = cos(ell pi/2) + (M_sin b)_ell and Q = (M_sin a)_ell - sin(ell pi/2).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    InternalInconsistencyError,
    NoValidTError,
    SingularConfigurationError,
)

__all__ = [
    "InputSet",
    "ShiftedSet",
    "TSolveResult",
    "AsymptoticData",
    "SumRules",
    "OneShiftPhase",
    "reduce_phase",
    "expansion_coeffs",
    "coeffs_to_T",
    "kappa_matrices",
    "phases_from_T",
    "solve_T",
    "asymptotic_data",
    "sum_rules",
    "moment_closed_form",
    "one_shift_phase_formula",
]

DISTINCT_TOL = 1e-9
MIN_ORDER = -0.5
# Newton search of solve_T: iteration cap, step and residual tolerances, central-difference step,
# the step factors tried in turn for descent, the distance below which two solutions count as one,
# and the default seeding (lattice points per axis for |S| >= 2, branch range k for |S| = 1)
NEWTON_MAX_ITER = 60
NEWTON_TOL_STEP = 1e-12
NEWTON_TOL_RESID = 1e-10
NEWTON_FD_STEP = 1e-6
NEWTON_HALVINGS = 0.5 ** np.arange(20)
DEDUPE_TOL = 1e-6
SEEDS_PER_AXIS = 12
K_RANGE = 3
# then, for |S| = 2, its lattice pass: the step, coarsened so that no axis holds
# more than LATTICE_MAX_POINTS points, the max |residual| below which a lattice
# minimum seeds Newton, and the rows per stacked residual call
LATTICE_STEP = 0.02
LATTICE_MAX_POINTS = 400
LATTICE_SEED_RESID = 0.1
LATTICE_CHUNK = 2048


def _ll1(x):
    """Centrifugal eigenvalue x(x+1)."""
    return x * (x + 1.0)


def _as_channel(ell) -> int:
    if not (math.isfinite(ell) and ell >= 0 and int(ell) == ell):
        raise DomainError("ell must be a non-negative integer")
    return int(ell)


def reduce_phase(delta: float) -> float:
    """Reduce a phase to the principal branch (-pi/2, pi/2] modulo pi."""
    y = math.remainder(float(delta), math.pi)
    if y <= -0.5 * math.pi:
        y += math.pi
    return y


def _wrap_pi(arr: np.ndarray) -> np.ndarray:
    """Vectorised principal-branch reduction modulo pi."""
    y = arr - np.round(arr / math.pi) * math.pi
    y = np.where(y <= -0.5 * math.pi, y + math.pi, y)
    return y


@dataclass(frozen=True)
class InputSet:
    """Physical angular momenta and their phase shifts at fixed energy.

    Phases are reduced modulo pi into (-pi/2, pi/2] on construction; the
    phase equations only determine them modulo pi.
    """

    ells: tuple[int, ...]
    deltas: tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(e) or float(e) != int(e) for e in self.ells):
            raise DomainError("angular momenta in S must be integers")
        ells = tuple(int(e) for e in self.ells)
        if len(ells) == 0:
            raise DomainError("S must be non-empty")
        if len(ells) != len(self.deltas):
            raise DomainError("ells and deltas must have equal length")
        if any(e < 0 for e in ells):
            raise DomainError("angular momenta must be >= 0")
        if len(set(ells)) != len(ells):
            raise DomainError("angular momenta must be distinct")
        if any(not math.isfinite(d) for d in self.deltas):
            raise DomainError("phase shifts must be finite")
        object.__setattr__(self, "ells", ells)
        object.__setattr__(self, "deltas", tuple(reduce_phase(d) for d in self.deltas))

    def __len__(self) -> int:
        return len(self.ells)


def _check_orders(vals, sym: str, noun: str) -> None:
    """Sorted orders must be finite, > -1/2 and pairwise distinct."""
    if any(not math.isfinite(v) or v <= MIN_ORDER for v in vals):
        raise DomainError(f"every {sym} must be finite and > -1/2")
    for lo, hi in zip(vals, vals[1:]):
        if hi - lo < DISTINCT_TOL:
            raise SingularConfigurationError(f"repeated {noun} {sym}={lo:.9g}")


@dataclass(frozen=True)
class ShiftedSet:
    """A set of shifted angular momenta, sorted, distinct, all > -1/2."""

    Ls: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(float(v) for v in self.Ls))
        if len(vals) == 0:
            raise DomainError("T must be non-empty")
        _check_orders(vals, "L", "shifted momentum")
        object.__setattr__(self, "Ls", vals)

    def __len__(self) -> int:
        return len(self.Ls)


def _as_ells(s) -> np.ndarray:
    """S as an array: an InputSet, or a sequence of distinct orders > -1/2."""
    if isinstance(s, InputSet):
        return np.asarray(s.ells, dtype=float)
    arr = np.asarray(list(s), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("S must be a non-empty 1-d sequence")
    _check_orders(np.sort(arr), "ell", "angular momentum")
    return arr


def _as_Ls(t) -> np.ndarray:
    if not isinstance(t, ShiftedSet):
        t = ShiftedSet(tuple(float(v) for v in t))
    return np.asarray(t.Ls, dtype=float)


def _as_pair(s, t) -> tuple[np.ndarray, np.ndarray]:
    """S and T as arrays, checked to be of equal size and disjoint."""
    ells = _as_ells(s)
    Ls = _as_Ls(t)
    if len(ells) != len(Ls):
        raise DomainError("S and T must have equal size")
    gap = np.abs(ells[:, None] - Ls[None, :])
    if gap.min() < DISTINCT_TOL:
        i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
        raise SingularConfigurationError(
            f"T collides with S: L={Ls[j]:.9g} equals ell={ells[i]:g}"
        )
    return ells, Ls


def _node_products(xe: np.ndarray) -> np.ndarray:
    """prod_{j != i} (xe_i - xe_j) for each node xe_i."""
    return np.array([np.prod(xe[i] - np.delete(xe, i)) for i in range(len(xe))])


def expansion_coeffs(s, t) -> np.ndarray:
    """Combination coefficients c_ell of the finite kernel expansion.

    c_ell = prod_{L in T} (ell(ell+1) - L(L+1))
          / prod_{ell' != ell} (ell(ell+1) - ell'(ell'+1)),

    one value per element of S, in S order.  Requires |S| = |T| and
    disjoint sets.
    """
    ells, Ls = _as_pair(s, t)
    xe = _ll1(ells)
    xt = _ll1(Ls)
    num = np.prod(xe[:, None] - xt[None, :], axis=1)
    return num / _node_products(xe)


def coeffs_to_T(s, coeffs) -> ShiftedSet:
    """Invert expansion_coeffs: recover T from the c_ell.

    The products defining c_ell say that the monic polynomial
    p(x) = prod_{L in T} (x - L(L+1)) takes the value
    c_ell * prod_{ell' != ell}(x_ell - x_ell') at each node x_ell =
    ell(ell+1).  That fixes p, whose roots give back L(L+1); roots that are
    complex or below -1/4 admit no real L > -1/2.
    """
    ells = _as_ells(s)
    c = np.asarray(list(coeffs), dtype=float)
    n = len(ells)
    if c.shape != (n,):
        raise DomainError("need exactly one coefficient per element of S")
    xe = _ll1(ells)
    y = c * _node_products(xe)
    # p(x) = x^n + a_{n-1} x^{n-1} + ... + a_0 with p(x_ell) = y_ell.
    vander = np.vander(xe, n)  # columns x^{n-1} .. x^0
    a = np.linalg.solve(vander, y - xe**n)
    roots = np.roots(np.concatenate(([1.0], a)))
    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.any(np.abs(roots.imag) > 1e-8 * scale):
        raise NoValidTError("coefficients lead to complex L(L+1) values")
    xr = np.sort(roots.real)
    if np.any(xr <= -0.25):
        raise NoValidTError("a root of the node polynomial lies below -1/4")
    Ls = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * xr))
    try:
        out = ShiftedSet(tuple(Ls))
    except (SingularConfigurationError, DomainError) as exc:
        raise NoValidTError(f"recovered T is degenerate: {exc}") from exc
    _as_pair(ells, out)
    return out


def _kappa(ells: np.ndarray, Ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M_sin and M_cos, stacked over the leading axes of Ls (..., |T|)."""
    half_pi = 0.5 * math.pi
    diff = ells[:, None] - Ls[..., None, :]
    den = _ll1(Ls)[..., None, :] - _ll1(ells)[:, None]
    return np.sin(half_pi * diff) / den, np.cos(half_pi * diff) / den


def kappa_matrices(s, t) -> tuple[np.ndarray, np.ndarray]:
    """The sin and cos structure matrices (rows ell in S, columns L in T).

    Raises SingularConfigurationError when S and T collide (vanishing
    denominator).  The condition of M_cos is not estimated here: solve_T
    reports it once per candidate as `cos_cond` (see _cos_cond).
    """
    return _kappa(*_as_pair(s, t))


def phases_from_T(s, t) -> np.ndarray:
    """Phase shifts generated by a shifted set T, one per element of S.

    delta_ell = atan2(Q, P) + ell pi/2 reduced modulo pi, with P and Q from
    the one matching solve (module docstring); real for real T.  The only
    failure is a singular M_cos, which raises InternalInconsistencyError.
    """
    ells, Ls = _as_pair(s, t)
    return _phases(ells, Ls[None])[0]


def _matching(ells: np.ndarray, Ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M_sin and [a b] (..., |T|, 2) solving M_cos [a b] = [cos(ell pi/2) sin(ell pi/2)].

    One solve with two right-hand sides, stacked over the leading axes of Ls
    as in _kappa; a singular M_cos raises InternalInconsistencyError.
    """
    m_sin, m_cos = _kappa(ells, Ls)
    half_pi = 0.5 * math.pi
    rhs = np.stack((np.cos(half_pi * ells), np.sin(half_pi * ells)), axis=-1)
    try:
        return m_sin, np.linalg.solve(m_cos, rhs)
    except np.linalg.LinAlgError as exc:
        raise InternalInconsistencyError(f"cos structure matrix singular: {exc}") from exc


def _phases(ells: np.ndarray, Ls: np.ndarray) -> np.ndarray:
    """phases_from_T of each T stacked in Ls (N, |T|); raises if any M_cos is singular."""
    m_sin, ab = _matching(ells, Ls)
    sin_a, sin_b = np.moveaxis(m_sin @ ab, -1, 0)
    half_ell = 0.5 * math.pi * ells
    return _wrap_pi(np.arctan2(sin_a - np.sin(half_ell), np.cos(half_ell) + sin_b) + half_ell)


@dataclass
class TSolveResult:
    """Outcome of a T search: candidates plus per-seed diagnostics."""

    candidates: list[ShiftedSet]
    zero_potential: bool
    seed_residuals: list[float] = field(default_factory=list)
    seeds_tried: int = 0
    cos_cond: list[float] = field(default_factory=list)  # cond(M_cos) per candidate
    seeds_out_of_box: int = 0  # Newton runs that converged outside the seed box


def _phase_residuals(ells_arr: np.ndarray, deltas_arr: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Wrapped phase mismatch of each trial T, a row of X (N, |S|); NaN rows for invalid T.

    The guards are stricter than ShiftedSet's and _as_pair's: phases_from_T accepts each valid row.
    """
    srt = np.sort(X, axis=1)
    ok = (np.isfinite(X) & (X > MIN_ORDER + 1e-9)).all(axis=1)
    ok &= (srt[:, 1:] - srt[:, :-1] >= 1e-7).all(axis=1)
    ok &= (np.abs(ells_arr[:, None] - X[:, None, :]) >= 1e-7).all(axis=(1, 2))
    out = np.full(X.shape, np.nan)
    try:
        out[ok] = _wrap_pi(_phases(ells_arr, srt[ok]) - deltas_arr)
    except InternalInconsistencyError:  # a singular M_cos: row by row
        for i in np.flatnonzero(ok):
            with contextlib.suppress(InternalInconsistencyError):
                out[i] = _wrap_pi(_phases(ells_arr, srt[i : i + 1])[0] - deltas_arr)
    return out


def _cos_cond(ells_arr: np.ndarray, candidates: list[ShiftedSet]) -> list[float]:
    """Condition number of M_cos per candidate, one stacked call: the one place it is computed."""
    Ls = np.reshape([c.Ls for c in candidates], (len(candidates), len(ells_arr)))
    return np.linalg.cond(_kappa(ells_arr, Ls)[1]).tolist()


def _newton(ells_arr, deltas_arr, X):
    """Damped Newton on the wrapped phase residual from all seeds, rows of X (N, |S|), in lockstep.

    Returns the rows reached and their residual inf-norms (inf for an invalid seed); a row has
    converged iff its norm < NEWTON_TOL_RESID.  Each row takes the path of a run on its own.
    """
    x = np.array(X, dtype=float)
    f = _phase_residuals(ells_arr, deltas_arr, x)
    run = ~np.isnan(f[:, 0])
    fnorm = np.where(run, np.max(np.abs(f), axis=1), math.inf)
    n = x.shape[1]
    shifts = NEWTON_FD_STEP * np.eye(n)
    for _ in range(NEWTON_MAX_ITER):
        rows = np.flatnonzero(run & ~(fnorm < NEWTON_TOL_RESID))
        if not rows.size:
            break
        xr = x[rows]
        # central differences: the 2n shifted T of each row in one stacked call
        fd = np.concatenate((xr[:, None] + shifts, xr[:, None] - shifts), axis=1)
        fs = _phase_residuals(ells_arr, deltas_arr, fd.reshape(-1, n)).reshape(-1, 2 * n, n)
        jac = ((fs[:, :n] - fs[:, n:]) / (2.0 * NEWTON_FD_STEP)).swapaxes(1, 2)
        step = np.full(xr.shape, np.nan)  # left NaN for a NaN or singular jac: nothing descends
        ok = ~np.isnan(fs).any(axis=(1, 2))
        try:
            step[ok] = np.linalg.solve(jac[ok], -f[rows[ok], :, None])[..., 0]
        except np.linalg.LinAlgError:  # a singular Jacobian: row by row
            for i in np.flatnonzero(ok):
                with contextlib.suppress(np.linalg.LinAlgError):
                    step[i] = np.linalg.solve(jac[i], -f[rows[i]])
        # every halving of each step in one stacked call; a row takes the first that descends
        trial = xr[:, None] + NEWTON_HALVINGS[:, None] * step[:, None]
        ft = _phase_residuals(ells_arr, deltas_arr, trial.reshape(-1, n)).reshape(trial.shape)
        ftn = np.max(np.abs(ft), axis=2)
        lower = ftn < fnorm[rows, None]  # never for a NaN row
        run[rows] = False
        down = lower.any(axis=1)
        rows, m = rows[down], np.argmax(lower[down], axis=1)
        x[rows], f[rows], fnorm[rows] = trial[down, m], ft[down, m], ftn[down, m]
        run[rows] = NEWTON_HALVINGS[m] * np.max(np.abs(step[down]), axis=1) >= NEWTON_TOL_STEP
    return x, fnorm


def _lattice_seeds(ells_arr: np.ndarray, deltas_arr: np.ndarray, lo: float, hi: float):
    """Local minima below LATTICE_SEED_RESID of max |phase residual| on a lattice in (lo, hi)^2.

    Only ordered points L1 < L2 are evaluated; the others, and invalid T, count as +inf.
    """
    step = max(LATTICE_STEP, (hi - lo) / LATTICE_MAX_POINTS)
    axis = lo + step * np.arange(1, round((hi - lo) / step))
    grid = np.full((len(axis), len(axis)), np.inf)
    i, j = np.triu_indices(len(axis), 1)
    for k in range(0, len(i), LATTICE_CHUNK):
        part = slice(k, k + LATTICE_CHUNK)
        X = np.stack((axis[i[part]], axis[j[part]]), axis=1)
        grid[i[part], j[part]] = np.max(np.abs(_phase_residuals(ells_arr, deltas_arr, X)), axis=1)
    grid[np.isnan(grid)] = np.inf
    around = sliding_window_view(np.pad(grid, 1, constant_values=np.inf), (3, 3))
    minima = (grid <= around.min(axis=(2, 3))) & (grid < LATTICE_SEED_RESID)
    return axis[np.argwhere(minima)]


def solve_T(
    input_set: InputSet,
    seeds_per_axis: int = SEEDS_PER_AXIS,
    k_range: int = K_RANGE,
) -> TSolveResult:
    """Find shifted sets T reproducing the input phase shifts.

    For |S| = 1 the phase equation has the explicit solution family
    L = ell - 2 delta / pi + 2k; k runs over [-k_range, k_range] and
    invalid members (L <= -1/2 or colliding with S) are dropped.  For
    |S| >= 2 a damped Newton iteration runs from a lattice of ordered
    seed tuples spanning (-1/2, max(S) + 3) and (|S| = 2) from each local
    minimum below LATTICE_SEED_RESID of the max |residual| on a finer
    lattice over that box (step LATTICE_STEP, at most LATTICE_MAX_POINTS
    per axis), every seed in lockstep; converged solutions inside the box
    are sorted and de-duplicated, the first found kept, and those outside
    it are counted in `seeds_out_of_box`.

    All phase shifts below 1e-12 in magnitude short-circuit to the zero
    potential: no T is needed and `zero_potential` is set.  A negative
    `k_range`, or fewer than |S| seeds per axis for |S| >= 2, leaves no
    seed to try and raises DomainError.
    """
    n = len(input_set)
    if k_range < 0:
        raise DomainError("k_range must be >= 0")
    if n > 1 and seeds_per_axis < n:
        raise DomainError(f"seeds_per_axis must be >= |S| = {n}")
    ells_arr = np.asarray(input_set.ells, dtype=float)
    deltas_arr = np.asarray(input_set.deltas, dtype=float)
    if np.all(np.abs(deltas_arr) < 1e-12):
        return TSolveResult([], True)

    if n == 1:
        ell = ells_arr[0]
        delta = deltas_arr[0]
        family = []
        for k in range(-k_range, k_range + 1):
            big_l = ell - 2.0 * delta / math.pi + 2.0 * k
            if big_l > MIN_ORDER + 1e-12 and abs(big_l - ell) >= DISTINCT_TOL:
                family.append(ShiftedSet((big_l,)))
        return TSolveResult(
            family, False, seeds_tried=len(family), cos_cond=_cos_cond(ells_arr, family)
        )

    lo, hi = MIN_ORDER, float(max(input_set.ells)) + 3.0
    margin = 0.02 * (hi - lo)
    axis = np.linspace(lo + margin, hi - margin, seeds_per_axis)
    seeds = np.array(list(itertools.combinations(axis, n)))
    if n == 2:
        seeds = np.concatenate((seeds, _lattice_seeds(ells_arr, deltas_arr, lo, hi)))
    sols, residuals = _newton(ells_arr, deltas_arr, seeds)
    reached = np.sort(sols[residuals < NEWTON_TOL_RESID], axis=1)
    inside = (reached[:, 0] > lo - 1e-9) & (reached[:, -1] < hi + 1e-9)
    candidates: list[np.ndarray] = []
    for srt in reached[inside]:
        if any(np.max(np.abs(srt - prev)) < DEDUPE_TOL for prev in candidates):
            continue
        candidates.append(srt)
    candidates.sort(key=lambda arr: tuple(arr))
    found = [ShiftedSet(tuple(arr)) for arr in candidates]
    return TSolveResult(
        found,
        False,
        seed_residuals=residuals.tolist(),
        seeds_tried=len(seeds),
        cos_cond=_cos_cond(ells_arr, found),
        seeds_out_of_box=int(np.sum(~inside)),
    )


@dataclass(frozen=True)
class AsymptoticData:
    """Tail data of the kernel coefficient functions A_L -> a_L cos r + b_L sin r.

    alpha and beta are the coefficients of sin 2r and cos 2r in the large-r
    diagonal kernel; a and b are aligned with the sorted Ls of T.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: float
    beta: float


def asymptotic_data(s, t) -> AsymptoticData:
    """Solve the large-r matching conditions for a_L, b_L, alpha, beta.

    The conditions are M_cos a = cos(ell pi/2) and M_cos b = sin(ell pi/2)
    componentwise over S; then
    alpha = (1/2) sum_L (a_L cos(L pi/2) - b_L sin(L pi/2)) and
    beta = -(1/2) sum_L (a_L sin(L pi/2) + b_L cos(L pi/2)).
    A singular M_cos raises InternalInconsistencyError.
    """
    ells, Ls = _as_pair(s, t)
    a, b = _matching(ells, Ls)[1].T
    cl = np.cos(0.5 * math.pi * Ls)
    sl = np.sin(0.5 * math.pi * Ls)
    alpha = 0.5 * float(np.sum(a * cl - b * sl))
    beta = -0.5 * float(np.sum(a * sl + b * cl))
    return AsymptoticData(a, b, alpha, beta)


class SumRules(NamedTuple):
    """The three tail sum rules over S (cos- and sin-weighted, and plain)."""

    residual_cos: float
    residual_sin: float
    coeff_sum: float


def sum_rules(s, t, deltas, b_factors) -> SumRules:
    """Evaluate sum_ell (-1)^ell c_ell B_ell {cos, sin} delta_ell and sum c_ell.

    b_factors are the measured asymptotic normalisations B_ell, one per
    element of S.
    """
    ells = _as_ells(s)
    if np.any(np.abs(ells - np.round(ells)) > 0):
        raise DomainError("sum rules need integer angular momenta")
    c = expansion_coeffs(s, t)
    d = np.asarray(list(deltas), dtype=float)
    if d.shape != ells.shape:
        raise DomainError("need one phase shift per element of S")
    b = np.asarray(list(b_factors), dtype=float)
    if b.shape != ells.shape:
        raise DomainError("need one B_ell per element of S")
    sign = np.where(np.round(ells).astype(int) % 2 == 0, 1.0, -1.0)
    return SumRules(
        float(np.sum(sign * c * b * np.cos(d))),
        float(np.sum(sign * c * b * np.sin(d))),
        float(np.sum(c)),
    )


def moment_closed_form(s, t) -> float:
    """First radial moment of the potential from S and T alone.

    integral_0^inf t q(t) dt = 2 sum_{L in T} prod_{ell in S} (L - ell)
                             / prod_{L' != L} (L - L').

    The sum itself is lim_{r->0} K(r, r)/r; with q = -(2/r) d/dr [K/r]
    and K/r -> 0 at infinity the integral is twice that limit.
    """
    ells, Ls = _as_pair(s, t)
    num = np.prod(Ls[:, None] - ells[None, :], axis=1)
    return float(2.0 * sum(num / _node_products(Ls)))


class OneShiftPhase(NamedTuple):
    """Single-shift phase prediction; bound_ok is None when not applicable."""

    delta: float
    tan_delta: float
    bound_ok: bool | None


def one_shift_phase_formula(big_l: float, ell: int, delta0: float) -> OneShiftPhase:
    """Higher phase shifts generated by a single shift of the s-wave.

    With S = {0} and T = {L}: tan delta_ell equals
    L(L+1) / (L(L+1) - ell(ell+1)) * tan delta_0 for even ell and exactly 0
    for odd ell.  For delta0 < 0 and even ell >= 2 the advisory bound
    tan delta_ell <= (4 / (15 ell^2)) tan delta_0 is evaluated into
    bound_ok (see README: the bound is reported, not relied on).
    """
    ell = _as_channel(ell)
    if ell % 2 == 1:
        return OneShiftPhase(0.0, 0.0, None)
    lam_t = _ll1(float(big_l))
    lam_e = _ll1(float(ell))
    if abs(lam_t - lam_e) < DISTINCT_TOL:
        raise SingularConfigurationError("L(L+1) equals ell(ell+1)")
    tan_d = lam_t / (lam_t - lam_e) * math.tan(delta0)
    bound_ok = None
    if delta0 < 0.0 and ell >= 2:
        bound_ok = bool(tan_d <= (4.0 / (15.0 * ell * ell)) * math.tan(delta0) + 1e-12)
    return OneShiftPhase(math.atan(tan_d), tan_d, bound_ok)

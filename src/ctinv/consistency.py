"""Admissibility checks: where does the Fredholm determinant vanish?

A shifted set T is physically usable for S only when D(r) has no zero on
r > 0; a zero makes the reconstructed potential blow up like a double pole
there and the first moment integral diverge.  For |S| = |T| = 1 the exact
rule is |L - ell| <= 1 (boundary included); in general the determinant is
scanned out to a radius where it has demonstrably settled onto its
r -> infinity limit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ctcore import InputSet, ShiftedSet, _as_Ls, _as_ells, _as_pair, _kappa
from .errors import CtinvError, DomainError, InternalInconsistencyError
from .glm import _det_scale, _glm_matrix, _halves
from .specfun import RiccatiTables

__all__ = [
    "AdmissibilityVerdict",
    "SelectionReport",
    "AdmissibilityMap",
    "default_scan_radius",
    "admissible_1d",
    "scan_zeros",
    "select_physical",
    "admissibility_map",
]

SETTLE_TOL = 1e-4
DIP_TOL = 1e-10
MAX_DOUBLINGS = 2
SCAN_RESOLUTION = 0.05  # default sampling step of the determinant scan
MIN_SCAN_RADIUS = 700.0  # floor of default_scan_radius
SCAN_BLOCK = 4096  # samples of D(r) per determinant block: bounds the scan's temporaries
MAX_SCAN_SAMPLES = 2**24  # samples per table of the longest scan: 268 MB of value + derivative


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Scan outcome: zeros found (if any), whether the scan settled, and the parity.

    `admissible` is derived: a settled scan that found no zero.  A located
    zero settles the scan; an unsettled verdict has no zeros, because D had
    not converged onto its limit within the allowed range doublings.
    `parity` is _parity of the end signs the scan evaluated: "odd", "even",
    or None where the sign of D(infinity) is not resolved.
    """

    zeros: tuple[float, ...]
    r_max: float
    settled: bool
    parity: str | None

    @property
    def admissible(self) -> bool:
        return self.settled and not self.zeros


def admissible_1d(ell: float, big_l: float) -> bool:
    """Exact single-channel rule: no determinant zero iff |L - ell| <= 1."""
    if not (math.isfinite(ell) and ell > -0.5):
        raise DomainError("ell must be finite and > -1/2")
    if not (math.isfinite(big_l) and big_l > -0.5):
        raise DomainError("L must be finite and > -1/2")
    return abs(big_l - ell) <= 1.0


def default_scan_radius(s, t) -> float:
    """Default outer scan radius for the pair (S, T).

    D(r) approaches its limit like 1/(2r), so resolving the settlement
    band of 1e-4 over the last decade of the range needs a radius in the
    several hundreds regardless of the orders involved.
    """
    return _default_radius(_as_ells(s), _as_Ls(t))


def _default_radius(ells: np.ndarray, Ls: np.ndarray) -> float:
    """default_scan_radius of validated arrays."""
    top = float(max(np.max(ells), np.max(Ls)))
    return max(50.0 + 10.0 * top, MIN_SCAN_RADIUS)


def _end_signs(ells, Ls) -> tuple[float, float]:
    """sign D(0+) and sign D(infinity), from S and T alone.

    As r -> 0, u_L ~ a_L r^(L+1) and v_ell ~ -b_ell r^(-ell) with a, b > 0, so
    entry (i, j) of M(r) tends to a_L b_ell r^(L - ell) / (ell - L) and D(0+)
    has the sign of the Cauchy determinant det[1/(ell_i - L_j)], the product
    prod_{i<j} (ell_j - ell_i)(L_i - L_j) / prod_{i,j} (ell_i - L_j).  As
    r -> infinity M(r) tends to -M_cos, so D(infinity) has the sign of
    det(-M_cos); that sign is 0.0 when |det M_cos| <= 1e-8 times its row-norm
    scale, where it is not resolved.
    """
    i, j = np.triu_indices(len(ells), 1)
    cauchy = np.concatenate([ells[j] - ells[i], Ls[i] - Ls[j], np.ravel(ells[:, None] - Ls)])
    det_inf, scale_inf = _det_scale(-_kappa(ells, Ls)[1])
    at_inf = math.copysign(1.0, det_inf) if abs(det_inf) > 1e-8 * scale_inf else 0.0
    return float(np.prod(np.sign(cauchy))), at_inf


def _parity(at_origin: float, at_inf: float) -> str | None:
    """"odd" or "even": the parity of the number of zeros of D on r > 0.

    Takes the end signs of _end_signs.  None when the sign of D(infinity)
    is not resolved (det M_cos near 0).  An odd parity proves a zero, so T
    is inadmissible; an even one proves nothing, since zeros may come in
    pairs.
    """
    if not at_inf:
        return None
    return "even" if at_origin == at_inf else "odd"


def _check_scan(r_max: float | None, resolution: float, default: float) -> None:
    """Refuse a scan step or radius that no scan can use, before any table is built.

    The step must be finite and > 0.  The radius, r_max or `default` when
    r_max is None, must hold a finite count of steps, at most
    MAX_SCAN_SAMPLES once doubled MAX_DOUBLINGS times, and a step in its
    last 10%.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise DomainError("scan resolution must be finite and > 0")
    if r_max is None and resolution >= default:
        raise DomainError(f"scan resolution must be below the default scan radius {default:g}")
    if r_max is not None and not (math.isfinite(r_max) and r_max > resolution):
        raise DomainError("scan radius r_max must be finite and exceed the scan resolution")
    radius = default if r_max is None else float(r_max)
    if not math.isfinite(radius / resolution):
        raise DomainError(f"scan radius {radius:g} holds no finite count of scan steps")
    if radius * 2.0**MAX_DOUBLINGS / resolution > MAX_SCAN_SAMPLES:
        raise DomainError(
            f"scan radius {radius:g} at step {resolution:g} needs more than"
            f" {MAX_SCAN_SAMPLES} samples per table once doubled"
        )
    # the settle window [0.9 R, R] needs a sample k * resolution; then each doubled range has one
    if int(radius / resolution) * resolution < 0.9 * radius:
        raise DomainError(f"scan radius {radius:g} leaves no scan step in its last 10%")


def _scan_det(ells, Ls, tables: RiccatiTables, n: int, det, scale):
    """D and its row-norm scale: (det, scale) of the first table points, extended to n.

    Only points beyond len(det) are evaluated, SCAN_BLOCK rows at a time, each
    determinant on its own, so the result equals one whole-grid evaluation bit for bit.
    """
    # S first: a saturating S fails before any u_L table of T is built
    v_sides, u_sides = tables.halves(ells, False, n), tables.halves(Ls, True, n)
    blocks = [(det, scale)] + [
        _det_scale(_glm_matrix(ells, Ls, u_sides, v_sides, slice(k, k + SCAN_BLOCK)))
        for k in range(len(det), n, SCAN_BLOCK)
    ]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def scan_zeros(
    s,
    t,
    r_max: float | None = None,
    resolution: float = SCAN_RESOLUTION,
) -> AdmissibilityVerdict:
    """Locate zeros of the Fredholm determinant on (0, r_max].

    Samples D(r) on the grid r_k = k * resolution, brackets sign changes
    and refines them with Brent's method; grid points where |D| drops below
    1e-10 times the row-norm scale count as (tangential) zeros too.  The
    scan is `settled` when, over the last 10% of the range, D stays within
    1e-4 of its final sample and the sign of that sample agrees with the
    analytic r -> infinity limit whenever the latter is numerically
    nonzero (a disagreement proves a crossing beyond r_max).  An unsettled
    scan is retried with the range doubled, at most MAX_DOUBLINGS times.
    Without r_max the range is default_scan_radius(s, t).  (S, T) is
    validated here, once, and scanned by _scan on tables of its own.
    """
    ells, Ls = _as_pair(s, t)
    return _scan(ells, Ls, r_max, RiccatiTables(resolution))


def _scan(ells, Ls, r_max: float | None, tables: RiccatiTables) -> AdmissibilityVerdict:
    """scan_zeros of S and T arrays as _as_pair returns them, on the step of `tables`.

    T comes sorted: its order sets the columns of M(r), and so the last bits
    of the row-norm scale.  Callers scanning many T share one RiccatiTables.
    A doubled range appends only its new points to each table and evaluates
    D on its new samples only, in blocks of SCAN_BLOCK, so the scan's memory
    beyond the tables stays a few arrays of the grid length.  Only the step
    and radius are checked here.
    """
    resolution = tables.step
    radius = float(r_max) if r_max is not None else _default_radius(ells, Ls)
    _check_scan(r_max, resolution, radius)
    at_origin, at_inf = _end_signs(ells, Ls)
    parity = _parity(at_origin, at_inf)
    det = scale = np.empty(0)

    for attempt in range(MAX_DOUBLINGS + 1):
        span = radius * 2.0**attempt
        n = int(span / resolution)
        rr = np.arange(1, n + 1, dtype=float) * resolution
        det, scale = _scan_det(ells, Ls, tables, n, det, scale)

        zeros: list[float] = []
        sign_change = np.nonzero(det[:-1] * det[1:] < 0.0)[0]
        for k in sign_change:
            from scipy.optimize import brentq  # deferred: importing scipy.optimize is slow
            root = brentq(
                lambda x: np.linalg.det(_glm_matrix(ells, Ls, *_halves(ells, Ls, [x])))[0],
                rr[k],
                rr[k + 1],
                xtol=1e-12,
                rtol=8.9e-16,
            )
            zeros.append(float(root))
        dips = np.nonzero(np.abs(det) < DIP_TOL * scale)[0]
        for k in dips:
            x = float(rr[k])
            if not any(abs(x - z) <= resolution for z in zeros):
                zeros.append(x)
        zeros.sort()

        window = rr >= 0.9 * span
        d_end = det[-1]
        settled = bool(np.max(np.abs(det[window] - d_end)) <= SETTLE_TOL)
        if settled and at_inf:
            settled = math.copysign(1.0, d_end) == at_inf
        if settled or zeros:
            # a located zero decides inadmissibility regardless of settlement
            return AdmissibilityVerdict(tuple(zeros), float(span), True, parity)
    return AdmissibilityVerdict((), float(span), False, parity)


@dataclass
class SelectionReport:
    """Per-candidate verdicts and the physical choice, when unique."""

    chosen: ShiftedSet | None
    admissible: list[ShiftedSet]
    verdicts: list[AdmissibilityVerdict]
    ambiguous: bool
    unsettled: bool


def select_physical(
    input_set: InputSet,
    candidates: list[ShiftedSet],
    resolution: float = SCAN_RESOLUTION,
) -> SelectionReport:
    """Scan every candidate T and single out the admissible one(s).

    For |S| = 1 the exact |L - ell| <= 1 rule is applied as well and any
    disagreement with the scan raises InternalInconsistencyError (the rule
    is an iff, so disagreement means the scan failed).  `chosen` is set
    only when exactly one candidate is admissible; more than one sets
    `ambiguous` and callers must decide (all of them reproduce the data).

    Each candidate is validated against S once, then scanned by _scan.  The
    scans share one RiccatiTables, kept until the selection returns: the
    v_ell tables of S are built once for all candidates, and each
    candidate's u_L tables once.  `unsettled` is set when any scan did not
    settle.
    """
    tables = RiccatiTables(resolution)
    verdicts: list[AdmissibilityVerdict] = []
    for cand in candidates:
        ells, Ls = _as_pair(input_set, cand)
        verdict = _scan(ells, Ls, None, tables)
        if len(ells) == 1 and verdict.settled:
            rule = admissible_1d(float(ells[0]), cand.Ls[0])
            if rule != verdict.admissible:
                raise InternalInconsistencyError(
                    f"scan and single-channel rule disagree for T={cand.Ls}"
                )
        verdicts.append(verdict)
    admissible = [cand for cand, verdict in zip(candidates, verdicts) if verdict.admissible]
    chosen = admissible[0] if len(admissible) == 1 else None
    unsettled = not all(verdict.settled for verdict in verdicts)
    return SelectionReport(chosen, admissible, verdicts, len(admissible) > 1, unsettled)


@dataclass
class AdmissibilityMap:
    """Boolean admissibility over a rectangle of candidate pairs (L1, L2)."""

    ells: tuple[int, ...]
    axis1: np.ndarray
    axis2: np.ndarray
    admissible: np.ndarray  # bool, shape (len(axis1), len(axis2))
    errors: list[tuple[int, int, str]] = field(default_factory=list)
    tables: dict[str, int] = field(default_factory=dict)  # RiccatiTables.counts() of the sweep

    def rows(self):
        """Yield (L1, L2, 0/1) in row-major order for CSV export."""
        for i, l1 in enumerate(self.axis1):
            for j, l2 in enumerate(self.axis2):
                yield float(l1), float(l2), int(self.admissible[i, j])


def admissibility_map(
    s,
    box: tuple[float, float, float, float],
    resolution: float,
    r_max: float | None = None,
    scan_resolution: float = SCAN_RESOLUTION,
    threads: int = 1,
) -> AdmissibilityMap:
    """Scan a lattice of (L1, L2) pairs for a two-channel S.

    Cells with L <= -1/2, coincident components, or a collision with S are
    inadmissible by construction and are not scanned.  The map is symmetric
    under swapping L1 and L2 (T is a set), so when both axes are the same
    lattice only the upper triangle is computed and mirrored; otherwise
    every cell is scanned.  Per-cell failures are recorded in `errors` and
    leave the cell marked inadmissible rather than aborting the sweep; the
    scan radius (MIN_SCAN_RADIUS, the smallest default, when r_max is None),
    the resolution and the thread count are checked once, before it.

    All cells share one RiccatiTables, kept until the map returns: the
    v_ell tables of S and the u_L table of each lattice value are built
    once per map, each as long as the longest scan that read it.  The
    v_ell tables are built before the sweep, as long as the shortest cell
    scan, when there is a cell to scan; if that fill fails (a saturated
    v_ell of a large ell), every cell gets its error without a scan.  The
    cells go to the threads one lattice row at a time, in cell order, and
    at most two rows of them are in flight.  `tables` holds the counts.
    """
    ells_arr = _as_ells(s)
    if len(ells_arr) != 2:
        raise DomainError("the admissibility map is defined for |S| = 2")
    if np.any(ells_arr != np.round(ells_arr)):
        raise DomainError("the admissibility map needs integer angular momenta")
    ells = tuple(int(e) for e in ells_arr)
    a, b, c, d = (float(x) for x in box)
    if not (b > a and d > c and all(map(math.isfinite, (a, b, c, d)))):
        raise DomainError("box must be finite with a < b and c < d")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise DomainError("resolution must be finite and > 0")
    # the axes (8 bytes a point) and the flags (1 byte a cell), refused where numpy
    # would raise ValueError instead of trying to allocate them
    sizes = [(hi + 0.5 * resolution - lo) / resolution for lo, hi in ((a, b), (c, d))]
    if not (max(sizes) < 2.0**60 and sizes[0] * sizes[1] < 2.0**63):
        raise DomainError(
            f"box {a:g},{b:g},{c:g},{d:g} at resolution {resolution:g} holds more"
            " lattice points than an array can"
        )
    _check_scan(r_max, scan_resolution, MIN_SCAN_RADIUS)
    if threads < 1:
        raise DomainError("threads must be >= 1")
    axis1 = np.arange(a, b + 0.5 * resolution, resolution)
    axis2 = np.arange(c, d + 0.5 * resolution, resolution)
    flags = np.zeros((len(axis1), len(axis2)), dtype=bool)
    errors: list[tuple[int, int, str]] = []

    def valid(l1: float, l2: float) -> bool:
        if min(l1, l2) <= -0.5 + 1e-9 or abs(l1 - l2) < 1e-6:
            return False
        return min(abs(l - e) for l in (l1, l2) for e in ells) >= 1e-6

    square = np.array_equal(axis1, axis2)
    rows = [
        [(i, j) for j in range(i if square else 0, len(axis2)) if valid(float(l1), float(axis2[j]))]
        for i, l1 in enumerate(axis1)
    ]

    tables = RiccatiTables(scan_resolution)
    failed = None
    if any(rows):
        radius = MIN_SCAN_RADIUS if r_max is None else float(r_max)
        try:
            tables.halves(ells_arr, False, int(radius / scan_resolution))
        except CtinvError as exc:
            failed = f"{type(exc).__name__}: {exc}"

    def work(idx: tuple[int, int]):
        if failed is not None:
            return False, failed
        # valid() is the cell check: it refuses every pair that _as_pair would
        i, j = idx
        Ls = np.array(sorted((float(axis1[i]), float(axis2[j]))))
        try:
            return _scan(ells_arr, Ls, r_max, tables).admissible, None
        except Exception as exc:  # recorded per cell, sweep continues
            return False, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # a row is submitted before the previous one is read, so no thread idles at a row's end
        pending = iter(())
        for row in rows + [[]]:
            submitted = zip(row, pool.map(work, row))
            for (i, j), (ok, err) in pending:
                flags[i, j] = ok
                if err is not None:
                    errors.append((i, j, err))
            pending = submitted

    if square:
        flags |= flags.T
    return AdmissibilityMap(ells, axis1, axis2, flags, errors, tables.counts())

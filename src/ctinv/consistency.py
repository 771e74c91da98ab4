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
from .errors import DomainError, InternalInconsistencyError
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
MAP_TILE = 9  # lattice values per side of a map tile; its u_L tables go when it is done


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Scan outcome: zeros found (if any) and whether the scan settled.

    `admissible` is derived: a settled scan that found no zero.  A located
    zero settles the scan; an unsettled verdict has no zeros, because D had
    not converged onto its limit within the allowed range doublings.
    """

    zeros: tuple[float, ...]
    r_max: float
    settled: bool

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
    ells = _as_ells(s)
    Ls = _as_Ls(t)
    top = float(max(np.max(ells), np.max(Ls)))
    return max(50.0 + 10.0 * top, MIN_SCAN_RADIUS)


def _check_scan(r_max: float | None, resolution: float, default: float) -> None:
    """Scan step finite, > 0 and leaving a sample in the last 10% of the radius.

    The radius is r_max, or `default` when r_max is None.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise DomainError("scan resolution must be finite and > 0")
    if r_max is None and resolution >= default:
        raise DomainError(f"scan resolution must be below the default scan radius {default:g}")
    if r_max is not None and not (math.isfinite(r_max) and r_max > resolution):
        raise DomainError("scan radius r_max must be finite and exceed the scan resolution")
    radius = default if r_max is None else float(r_max)
    # the settle window [0.9 R, R] needs a sample k * resolution; then each doubled range has one
    if int(radius / resolution) * resolution < 0.9 * radius:
        raise DomainError(f"scan radius {radius:g} leaves no scan step in its last 10%")


def _scan_det(ells, Ls, tables: RiccatiTables, n: int, det, scale):
    """D and its row-norm scale: (det, scale) of the first table points, extended to n.

    Only points beyond len(det) are evaluated, SCAN_BLOCK rows at a time, each
    determinant on its own, so the result equals one whole-grid evaluation bit for bit.
    """
    sides = tables.halves(Ls, True, n), tables.halves(ells, False, n)
    blocks = [(det, scale)] + [
        _det_scale(_glm_matrix(ells, Ls, *sides, slice(k, k + SCAN_BLOCK)))
        for k in range(len(det), n, SCAN_BLOCK)
    ]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def scan_zeros(
    s,
    t,
    r_max: float | None = None,
    resolution: float = SCAN_RESOLUTION,
    tables: RiccatiTables | None = None,
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

    The Riccati tables come from `tables`, a RiccatiTables on the step
    `resolution` that callers scanning many T share; without one the scan
    builds its own.  A doubled range appends only its new points to each
    table and evaluates D on its new samples only, in blocks of SCAN_BLOCK,
    so the scan's memory beyond the tables stays a few arrays of the grid
    length.  (S, T) is validated once, on entry, not at each Brent step.
    """
    ells, Ls = _as_pair(s, t)
    radius = float(r_max) if r_max is not None else default_scan_radius(ells, Ls)
    _check_scan(r_max, resolution, radius)
    if tables is None:
        tables = RiccatiTables(resolution)
    elif tables.step != resolution:
        raise DomainError("Riccati tables were built on another scan step")
    # the matching matrix tends to -M_cos as r -> infinity
    det_inf, scale_inf = _det_scale(-_kappa(ells, Ls)[1])
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
        if settled and abs(det_inf) > 1e-8 * scale_inf:
            settled = math.copysign(1.0, d_end) == math.copysign(1.0, det_inf)
        if settled or zeros:
            # a located zero decides inadmissibility regardless of settlement
            return AdmissibilityVerdict(tuple(zeros), float(span), True)
    return AdmissibilityVerdict((), float(span), False)


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

    The scans share one RiccatiTables: the v_ell tables of S are built once
    for all candidates, and a candidate's u_L tables are dropped when its
    scan returns.
    """
    ells = _as_ells(input_set)
    verdicts: list[AdmissibilityVerdict] = []
    admissible: list[ShiftedSet] = []
    unsettled = False
    tables = RiccatiTables(resolution)
    for cand in candidates:
        verdict = scan_zeros(ells, cand, resolution=resolution, tables=tables)
        tables.drop(cand.Ls, True)
        if len(ells) == 1 and verdict.settled:
            rule = admissible_1d(float(ells[0]), cand.Ls[0])
            if rule != verdict.admissible:
                raise InternalInconsistencyError(
                    f"scan and single-channel rule disagree for T={cand.Ls}"
                )
        verdicts.append(verdict)
        if not verdict.settled:
            unsettled = True
        elif verdict.admissible:
            admissible.append(cand)
    chosen = admissible[0] if len(admissible) == 1 else None
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

    All cells share one RiccatiTables: the v_ell tables of S are built once
    per map, the u_L table of a lattice value once per tile.  The sweep
    goes tile by tile, MAP_TILE lattice values a side, and drops a tile's
    u_L tables when it is done, so at most 2 * MAP_TILE lattice tables plus
    S are live, each as long as the longest scan that read it.  `tables`
    holds the counts.
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
    cells = [
        (i, j)
        for i in range(len(axis1))
        for j in range(i if square else 0, len(axis2))
        if valid(float(axis1[i]), float(axis2[j]))
    ]

    tables = RiccatiTables(scan_resolution)

    def work(idx: tuple[int, int]):
        i, j = idx
        try:
            verdict = scan_zeros(
                ells_arr,
                (float(axis1[i]), float(axis2[j])),
                r_max=r_max,
                resolution=scan_resolution,
                tables=tables,
            )
            return i, j, verdict.admissible, None
        except Exception as exc:  # recorded per cell, sweep continues
            return i, j, False, f"{type(exc).__name__}: {exc}"

    tiles: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in cells:
        tiles.setdefault((i // MAP_TILE, j // MAP_TILE), []).append((i, j))
    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for tile in tiles.values():
            results += pool.map(work, tile)
            values = {float(axis1[i]) for i, _ in tile} | {float(axis2[j]) for _, j in tile}
            tables.drop(values, True)
    for i, j, ok, err in sorted(results, key=lambda res: res[:2]):
        flags[i, j] = ok
        if err is not None:
            errors.append((i, j, err))

    if square:
        flags |= flags.T
    return AdmissibilityMap(ells, axis1, axis2, flags, errors, tables.counts())

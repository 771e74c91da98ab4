"""Forward radial problem at unit energy: integrate, then read off phases.

The regular solution of

    phi'' = [ ell(ell+1)/r^2 + q(r) - 1 ] phi,      phi ~ r^{ell+1} at 0,

is propagated with the Numerov three-term scheme (O(h^4) global error) and
matched to B sin(r - ell pi/2 + delta) by least squares over an asymptotic
window.  Seeds are normalised like the free solution r^{ell+1}/(2ell+1)!!
so that q = 0 reproduces the Riccati-Bessel u_ell exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ctcore import _as_channel, reduce_phase
from .errors import DomainError, WindowTooSmallError
from .glm import PotentialProfile, RadialGrid, TailFit, tail_q
from .specfun import _riccati_half

__all__ = [
    "WoodsSaxon",
    "SampledPotential",
    "PhaseRow",
    "PhaseShiftTable",
    "integrate_regular",
    "extract_phase",
    "phase_table",
]


@dataclass(frozen=True)
class WoodsSaxon:
    """Woods-Saxon well -depth / (1 + exp((r - radius)/diffuseness)).

    A positive depth is an attractive well; a negative depth is a repulsive
    barrier and is supported too (the integrator rescales the wave that
    grows under it, and the phase fit scales its window).
    """

    depth: float
    radius: float
    diffuseness: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.depth, self.radius, self.diffuseness))):
            raise DomainError("Woods-Saxon parameters must be finite")
        if self.diffuseness <= 0.0:
            raise DomainError("diffuseness must be > 0")

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            return -self.depth / (1.0 + np.exp((rr - self.radius) / self.diffuseness))

    def describe(self) -> str:
        return f"ws({self.depth:g},{self.radius:g},{self.diffuseness:g})"


class SampledPotential:
    """A radial potential the integrator can evaluate anywhere.

    Wraps either an analytic callable and its label, or grid samples.
    Sampled data is interpolated with a cubic spline; beyond the last sample
    the fitted oscillatory tail (when available) or zero is used, and below
    the first sample the value is held constant (reconstructed potentials
    have q'(0) = 0, so the constant extension is second-order accurate).
    Samples must be finite.
    """

    def __init__(self, fn: Callable, label: str):
        self._fn = fn
        self._label = label

    def describe(self) -> str:
        return self._label

    @classmethod
    def from_arrays(
        cls,
        r: np.ndarray,
        q: np.ndarray,
        tail: TailFit | None = None,
        description: str = "sampled",
    ) -> "SampledPotential":
        r = np.asarray(r, dtype=float)
        q = np.asarray(q, dtype=float)
        if r.ndim != 1 or r.shape != q.shape or len(r) < 4:
            raise DomainError("need matching 1-d arrays with at least 4 samples")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(q))):
            raise DomainError("potential samples must be finite")
        if np.any(np.diff(r) <= 0.0) or r[0] <= 0.0:
            raise DomainError("radii must be positive and strictly increasing")
        from scipy.interpolate import CubicSpline  # deferred: it imports scipy.optimize
        spline = CubicSpline(r, q, extrapolate=False)
        r_lo, r_hi = float(r[0]), float(r[-1])
        q_lo = float(q[0])

        def evaluate(x):
            xx = np.asarray(x, dtype=float)
            scalar = xx.ndim == 0
            xx = np.atleast_1d(xx)
            out = np.empty_like(xx, dtype=float)
            inside = (xx >= r_lo) & (xx <= r_hi)
            out[inside] = spline(xx[inside])
            out[xx < r_lo] = q_lo
            above = xx > r_hi
            if np.any(above):
                if tail is not None:
                    out[above] = tail_q(tail, xx[above])
                else:
                    warnings.warn(
                        f"no fitted tail for {description}: treating q = 0 "
                        f"beyond r = {r_hi:g}",
                        stacklevel=2,
                    )
                    out[above] = 0.0
            return float(out[0]) if scalar else out

        return cls(evaluate, description)

    @classmethod
    def from_profile(cls, profile: PotentialProfile) -> "SampledPotential":
        ells = ", ".join(f"{e:g}" for e in profile.ells)
        label = f"reconstruction(S=[{ells}], T={[round(float(v), 6) for v in profile.Ls]})"
        return cls.from_arrays(profile.r, profile.q, profile.tail, label)

    def __call__(self, r):
        return self._fn(np.asarray(r, dtype=float))


def _double_factorial_odd(ell: int) -> float:
    """(2 ell + 1)!! as a float."""
    out = 1.0
    for k in range(3, 2 * ell + 2, 2):
        out *= k
    return out


def integrate_regular(pot, ell: int, grid: RadialGrid) -> np.ndarray:
    """Regular solution phi_ell on grid.r for the given potential.

    `pot` is any callable q(r) (SampledPotential included).  The leading
    samples come from the small-r series
    phi = r^{ell+1}/(2ell+1)!! [1 + (q0 - 1) r^2 / (2(2ell+3))], extended
    past any points where the centrifugal term makes h^2 f / 12 approach 1
    (the scheme's denominator would vanish there); after that Numerov's
    method propagates.  The recurrence w_{i+1} = 2 w_i - w_{i-1} +
    h^2 f_i phi_i, phi_{i+1} = w_{i+1} / (1 - h^2 f_{i+1} / 12) runs over
    Python floats (h^2 f and the denominators are precomputed as lists) and
    is written back into the array once; each step does the same float
    operations in the same order as an element-wise numpy loop would.  If
    the amplitude ever exceeds 1e250 the whole history is rescaled by 1e-100
    and propagation continues; the returned samples are then uniformly
    scaled, which leaves phases untouched.
    """
    ell = _as_channel(ell)
    r = grid.r
    if len(r) < 8:
        raise DomainError("grid too short to integrate")
    h = grid.h
    q = np.asarray(pot(r), dtype=float)
    if not np.all(np.isfinite(q)):
        raise DomainError("potential evaluates to non-finite values on the grid")
    f = ell * (ell + 1.0) / r**2 + q - 1.0

    h2 = h * h
    # seed every point where |h^2 f / 12| >= 0.3, plus one more pair
    n_seed = 2
    while n_seed < len(r) - 4 and abs(h2 * f[n_seed - 2] / 12.0) >= 0.3:
        n_seed += 1
    norm = _double_factorial_odd(ell)
    a2 = (q[0] - 1.0) / (2.0 * (2.0 * ell + 3.0))
    phi = np.empty_like(r)
    rs = r[:n_seed]
    phi[:n_seed] = rs ** (ell + 1) / norm * (1.0 + a2 * rs**2)
    hf = (h2 * f).tolist()
    den = (1.0 - h2 / 12.0 * f).tolist()
    p = float(phi[n_seed - 1])
    w_prev = den[n_seed - 2] * float(phi[n_seed - 2])
    w_cur = den[n_seed - 1] * p
    out: list[float] = []
    append = out.append
    for a, d in zip(hf[n_seed - 1 : -1], den[n_seed:]):
        w_next = 2.0 * w_cur - w_prev + a * p
        p = w_next / d
        if p > 1e250 or p < -1e250:  # abs(p) > 1e250 without the call
            phi[:n_seed] *= 1e-100
            out[:] = [v * 1e-100 for v in out]
            w_next *= 1e-100
            w_cur *= 1e-100
            p *= 1e-100
        append(p)
        w_prev, w_cur = w_cur, w_next
    phi[n_seed:] = out
    return phi


@dataclass(frozen=True)
class PhaseRow:
    """One phase-table entry; error is None when extraction succeeded."""

    ell: int
    delta: float | None
    b_norm: float | None
    residual: float | None
    error: str | None = None


def extract_phase(r: np.ndarray, wave: np.ndarray, ell: int) -> PhaseRow:
    """Fit phi ~ b sin(r - ell pi/2 + delta) over a window: the phase-table row.

    Beyond the potential the wave is exactly p u_ell(r) - m v_ell(r) with
    p = B cos delta, m = B sin delta, so the fit basis is (u_ell, -v_ell)
    rather than bare sinusoids; that keeps every 1/r order of the free
    equation out of the residual.  The window is the last quarter of the
    grid and must span at least two oscillation periods.  The rms
    misfit must stay below 1e-3 |b|; a larger residual means the window is
    not asymptotic (or too short) and raises WindowTooSmallError.
    """
    r = np.asarray(r, dtype=float)
    wave = np.asarray(wave, dtype=float)
    if r.shape != wave.shape or r.ndim != 1:
        raise DomainError("r and wave must be matching 1-d arrays")
    lo, hi = float(r[0] + 0.75 * (r[-1] - r[0])), float(r[-1])
    mask = (r >= lo) & (r <= hi)
    if hi - lo < 4.0 * math.pi or int(np.count_nonzero(mask)) < 16:
        raise WindowTooSmallError(
            f"window [{lo:g}, {hi:g}] spans less than two periods"
        )
    u, _ = _riccati_half(float(ell), r[mask], True, deriv=False)
    v, _ = _riccati_half(float(ell), r[mask], False, deriv=False)
    basis = np.column_stack((u, -v))
    # fit the window scaled by an exact power of two, so that squaring the
    # misfit of a wave grown large under a barrier (up to the integrator's
    # 1e250 rescale) cannot overflow; b and the residual are scaled back
    _, e = math.frexp(float(np.max(np.abs(wave[mask]))))
    window = np.ldexp(wave[mask], -e)
    coef, *_ = np.linalg.lstsq(basis, window, rcond=None)
    a_sin, a_cos = float(coef[0]), float(coef[1])
    delta = reduce_phase(math.atan2(a_cos, a_sin))
    b = math.ldexp(a_sin * math.cos(delta) + a_cos * math.sin(delta), e)
    resid = math.ldexp(float(np.sqrt(np.mean((window - basis @ coef) ** 2))), e)
    if abs(b) == 0.0 or resid > 1e-3 * abs(b):
        raise WindowTooSmallError(
            f"asymptotic fit residual {resid:.3g} exceeds 1e-3 |b| = {1e-3 * abs(b):.3g}"
        )
    return PhaseRow(ell, delta, b, resid)


@dataclass
class PhaseShiftTable:
    """Phase shifts for ell = 0..ell_max of one potential."""

    source: str
    rows: list[PhaseRow]

    def delta(self, ell: int) -> float:
        for row in self.rows:
            if row.ell == ell:
                if row.delta is None:
                    raise WindowTooSmallError(f"no phase for ell={ell}: {row.error}")
                return row.delta
        raise KeyError(f"ell={ell} not in table")


def phase_table(pot, ells: Sequence[int], grid: RadialGrid) -> PhaseShiftTable:
    """Integrate and extract phases for several ell at once.

    `pot` is a WoodsSaxon or a SampledPotential (its describe() names the
    table's source).  Per-ell extraction failures are recorded in the row
    instead of raised, so one bad channel does not lose the others.
    """
    rows: list[PhaseRow] = []
    for ell in ells:
        try:
            wave = integrate_regular(pot, int(ell), grid)
            rows.append(extract_phase(grid.r, wave, int(ell)))
        except (DomainError, WindowTooSmallError) as exc:
            rows.append(PhaseRow(int(ell), None, None, None, f"{type(exc).__name__}: {exc}"))
    return PhaseShiftTable(pot.describe(), rows)

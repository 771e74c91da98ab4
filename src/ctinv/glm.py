"""Separable translation-kernel machinery on a radial grid.

The kernel K(r, r') = sum_{L in T} A_L(r) u_L(r') is fixed by the pointwise
linear system

    sum_L A_L(r) [u_L(r) v_ell'(r) - u_L'(r) v_ell(r)]
                 / (ell(ell+1) - L(L+1))  =  v_ell(r),   ell in S,

whose matrix determinant D(r) (the Fredholm determinant of the underlying
integral equation) must stay away from zero for the reconstruction to be
admissible.  The potential follows from the kernel diagonal,
q(r) = -(2/r) d/dr [K(r, r)/r].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ctcore import _as_pair, _ll1, expansion_coeffs
from .errors import DomainError, InadmissibleConfigurationError, TailFitError
from .specfun import _riccati_half, _riccati_halves

__all__ = [
    "RadialGrid",
    "KernelSolution",
    "TailFit",
    "PotentialProfile",
    "glm_matrix",
    "det_and_scale",
    "solve_kernel",
    "potential",
    "transformed_wave",
    "kernel_diag_series",
    "tail_q",
    "moment_numeric",
]

DET_FLOOR = 1e-12


@dataclass
class RadialGrid:
    """Uniform radial grid r = h, 2h, ..., ~r_max (the origin excluded)."""

    h: float
    r_max: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError("step h must be finite and > 0")
        if not (math.isfinite(self.r_max) and self.r_max > self.h):
            raise DomainError("r_max must exceed the step")

    @cached_property
    def n(self) -> int:
        return int(round(self.r_max / self.h))

    @cached_property
    def r(self) -> np.ndarray:
        return (np.arange(self.n, dtype=float) + 1.0) * self.h


def _halves(ells, Ls, r):
    """(u_L, u_L') per L in T and (v_ell, v_ell') per ell in S on the radii r."""
    return _riccati_halves(Ls, r, True), _riccati_halves(ells, r, False)


def _glm_matrix(ells, Ls, u_halves, v_halves, rows: slice = slice(None)) -> np.ndarray:
    """M(r_k) of shape (points, |S|, |T|) on `rows` of halves shaped as _halves returns them.

    Each entry is computed on its own, so any split of the rows is bit-identical.
    """
    den = _ll1(ells)[:, None] - _ll1(Ls)[None, :]
    # entry (i, j) at r_k: (u_{L_j} v'_{ell_i} - u'_{L_j} v_{ell_i}) / den_ij
    return np.stack([
        np.stack([(u[rows] * dv[rows] - du[rows] * v[rows]) / den[i, j]
                  for j, (u, du) in enumerate(u_halves)], axis=-1)
        for i, (v, dv) in enumerate(v_halves)
    ], axis=1)


def glm_matrix(s, t, r: float) -> np.ndarray:
    """The |S| x |T| kernel matching matrix at a single radius."""
    ells, Ls = _as_pair(s, t)
    rr = np.asarray([float(r)])
    if rr[0] <= 0.0:
        raise DomainError("r must be > 0")
    return _glm_matrix(ells, Ls, *_halves(ells, Ls, rr))[0]


def _det_scale(m: np.ndarray):
    """Determinant of each (stacked) matrix and its Hadamard row-norm scale.

    The scale (product of row 2-norms) bounds |det| from above and gives
    the natural yardstick for "numerically zero".
    """
    return np.linalg.det(m), np.prod(np.linalg.norm(m, axis=-1), axis=-1)


def det_and_scale(s, t, r):
    """Determinant of the matching matrix and its Hadamard row-norm scale."""
    ells, Ls = _as_pair(s, t)
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr <= 0.0):
        raise DomainError("r must be > 0")
    det, scale = _det_scale(_glm_matrix(ells, Ls, *_halves(ells, Ls, rr)))
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return float(det[0]), float(scale[0])
    return det, scale


@dataclass
class KernelSolution:
    """Kernel coefficients and derived diagonal data on a grid."""

    grid: RadialGrid
    ells: tuple[float, ...]
    Ls: tuple[float, ...]
    a: np.ndarray  # (n_points, |T|) coefficients A_L(r)
    k_diag: np.ndarray  # K(r, r)
    k_prime: np.ndarray  # d/dr K(r, r)
    uL: np.ndarray  # (|T|, n_points) u_L and u_L' on the grid
    duL: np.ndarray


def solve_kernel(s, t, grid: RadialGrid) -> KernelSolution:
    """Solve the pointwise matching system for A_L and its derivative.

    A' comes from differentiating the system in place (dM/dr has the exact
    entries u_L v_ell / r^2), so no finite differencing of A is involved.

    Raises InadmissibleConfigurationError at the first grid point where
    |D(r)| < 1e-12 * scale; run the consistency scan first to pick a T
    without determinant zeros.
    """
    ells, Ls = _as_pair(s, t)
    r = grid.r
    # each stacked (orders, n_points); their rows are the halves M is built from
    uL, duL, vE, dvE = (np.array(part) for side in _halves(ells, Ls, r) for part in zip(*side))
    m = _glm_matrix(ells, Ls, list(zip(uL, duL)), list(zip(vE, dvE)))
    det, scale = _det_scale(m)
    # compare against the grid-wide scale too: for |S|=1 the pointwise
    # Hadamard scale IS |det| and can never expose a vanishing determinant
    bad = np.abs(det) < DET_FLOOR * max(float(np.max(scale)), np.finfo(float).tiny)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InadmissibleConfigurationError(
            f"kernel determinant vanishes at r = {r[k]:.6g} "
            f"(|D| = {abs(det[k]):.3g}, scale = {scale[k]:.3g})"
        )
    rhs = vE.T  # (n_points, |S|)
    a = np.linalg.solve(m, rhs[..., None])[..., 0]
    # dM/dr[k, i, j] = u_{L_j} v_{ell_i} / r^2
    m_prime = (uL.T[:, None, :] * vE.T[:, :, None]) / (r**2)[:, None, None]
    rhs_prime = dvE.T - np.einsum("kij,kj->ki", m_prime, a)
    a_prime = np.linalg.solve(m, rhs_prime[..., None])[..., 0]
    k_diag = np.sum(a * uL.T, axis=1)
    k_prime = np.sum(a_prime * uL.T + a * duL.T, axis=1)
    return KernelSolution(grid, tuple(ells), tuple(Ls), a, k_diag, k_prime, uL, duL)


@dataclass(frozen=True)
class TailFit:
    """Least-squares tail K(r,r) ~ alpha sin 2r + beta cos 2r + gamma."""

    alpha: float
    beta: float
    gamma: float
    rms: float


def _fit_tail(r: np.ndarray, k_diag: np.ndarray) -> TailFit | None:
    n = len(r)
    start = int(0.75 * n)
    rw = r[start:]
    if len(rw) < 16 or rw[-1] - rw[0] < 4.0 * math.pi:
        return None
    basis = np.column_stack((np.sin(2.0 * rw), np.cos(2.0 * rw), np.ones_like(rw)))
    coef, *_ = np.linalg.lstsq(basis, k_diag[start:], rcond=None)
    resid = k_diag[start:] - basis @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return TailFit(float(coef[0]), float(coef[1]), float(coef[2]), rms)


@dataclass
class PotentialProfile:
    """Reconstructed potential on a grid with its fitted oscillatory tail."""

    r: np.ndarray
    q: np.ndarray
    ells: tuple[float, ...]
    Ls: tuple[float, ...]
    tail: TailFit | None
    h: float
    r_max: float
    q_origin: float


def _extrapolate_origin(r: np.ndarray, q: np.ndarray) -> float:
    # q is even in r to leading order (q'(0) = 0), so fit q0 + c r^2
    k = min(len(r), 12)
    basis = np.column_stack((np.ones(k), r[:k] ** 2))
    coef, *_ = np.linalg.lstsq(basis, q[:k], rcond=None)
    return float(coef[0])


def _check_kernel(s, t, grid: RadialGrid, kernel: KernelSolution) -> None:
    """`kernel` must be the solve_kernel(s, t, grid) solution: same grid, S and T."""
    ells, Ls = _as_pair(s, t)
    if (
        (kernel.grid.h, kernel.grid.n) != (grid.h, grid.n)
        or kernel.ells != tuple(ells)
        or kernel.Ls != tuple(Ls)
    ):
        raise DomainError("kernel was solved for another grid or another (S, T)")


def potential(s, t, grid: RadialGrid, kernel: KernelSolution) -> PotentialProfile:
    """Reconstruct q(r) = -(2/r) d/dr [K(r,r)/r] on the grid from the kernel.

    The tail of K(r, r) is fitted over the last quarter of the grid; the
    fit is omitted (tail = None) when that window spans less than two
    oscillation periods.  q(0) is reported by quadratic extrapolation of
    the innermost samples (the potential starts with zero slope).
    """
    _check_kernel(s, t, grid, kernel)
    r = grid.r
    q = -2.0 * kernel.k_prime / r**2 + 2.0 * kernel.k_diag / r**3
    tail = _fit_tail(r, kernel.k_diag)
    return PotentialProfile(
        r, q, kernel.ells, kernel.Ls, tail, grid.h, float(r[-1]), _extrapolate_origin(r, q)
    )


def transformed_wave(s, t, ell: float, grid: RadialGrid, kernel: KernelSolution) -> np.ndarray:
    """Regular solution of the reconstructed potential at angular momentum ell.

    phi_ell = u_ell - sum_L A_L (u_L u_ell' - u_L' u_ell)
                              / (ell(ell+1) - L(L+1)).

    Exact by construction: asymptotically B_ell sin(r - ell pi/2 + delta_ell)
    when ell is in S.
    """
    _check_kernel(s, t, grid, kernel)
    ue, due = _riccati_half(float(ell), grid.r, True)
    den = _ll1(float(ell)) - _ll1(np.asarray(kernel.Ls))
    if np.min(np.abs(den)) < 1e-12:
        raise DomainError(f"ell={ell:g} collides with an element of T")
    wron = kernel.uL.T * due[:, None] - kernel.duL.T * ue[:, None]
    return ue - np.sum(kernel.a * wron / den[None, :], axis=1)


def kernel_diag_series(s, t, grid: RadialGrid, waves) -> np.ndarray:
    """K(r, r) assembled from the S-side expansion sum_ell c_ell phi_ell v_ell.

    `waves` holds the transformed wave on the grid of each ell in S, in S
    order.  Independent of the A_L route through solve_kernel; the two must
    agree pointwise.
    """
    ells, Ls = _as_pair(s, t)
    c = expansion_coeffs(ells, Ls)
    r = grid.r
    seq = [np.asarray(w) for w in waves]
    if len(seq) != len(ells):
        raise DomainError("need one transformed wave per element of S")
    total = np.zeros_like(r)
    for ce, ell, phi in zip(c, ells, seq):
        if phi.shape != r.shape:
            raise DomainError("transformed wave not sampled on the grid")
        total += ce * phi * _riccati_half(float(ell), r, False, deriv=False)[0]
    return total


def tail_q(tail: TailFit, r) -> np.ndarray:
    """Leading oscillatory tail of the potential, 4(beta sin 2r - alpha cos 2r)/r^2."""
    rr = np.asarray(r, dtype=float)
    return 4.0 * (tail.beta * np.sin(2.0 * rr) - tail.alpha * np.cos(2.0 * rr)) / rr**2


def moment_numeric(profile: PotentialProfile) -> float:
    """First moment integral_0^infinity r q(r) dr of a reconstructed potential.

    Trapezoid over the grid plus the exact tail contribution: r q is the
    total derivative -2 (K/r)', so the remainder beyond r_max equals
    2 K(r_max)/r_max with K evaluated from the fitted tail.
    """
    if profile.tail is None:
        raise TailFitError(
            "tail not fitted (grid too short); rerun with a larger r_max"
        )
    r = np.concatenate(([0.0], profile.r))
    integrand = np.concatenate(([0.0], profile.r * profile.q))
    body = float(np.trapezoid(integrand, r))
    t = profile.tail
    rm = profile.r_max
    k_tail = t.alpha * math.sin(2.0 * rm) + t.beta * math.cos(2.0 * rm) + t.gamma
    return body + 2.0 * k_tail / rm

"""Desk-scale ground truth, independent of the dual machinery.

``grid_global_min`` brute-forces the objective on a box grid and polishes
the best node with Newton steps (each trial clipped to the box) driven by
finite differences, so nothing here shares code with the analytic solvers
it is used to check.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionTooLargeError
from .model import ProblemInstance

MAX_GRID_DIM = 3
MAX_RESOLUTION = 2001
POLISH_STEPS = 50
_CHUNK = 200_000


def _objective_batch(inst: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Vectorized objective on rows of X (independent re-implementation)."""
    X = np.asarray(X, dtype=float)
    out = 0.5 * np.einsum("ki,ij,kj->k", X, inst.A, X) - X @ inst.f
    if inst.p:
        xi = 0.5 * np.einsum("ki,pij,kj->kp", X, inst.Q_stack, X)
        a = inst.beta * (xi + inst.d)
        s = np.maximum(0.0, a.max(axis=1))
        out += (s + np.log(np.exp(-s) + np.exp(a - s[:, None]).sum(axis=1))) / inst.beta
    if inst.r:
        eta = 0.5 * np.einsum("ki,pij,kj->kp", X, inst.B_stack, X)
        out += (0.5 * inst.alpha * (eta + inst.c) ** 2).sum(axis=1)
    return out


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h."""
    x = np.asarray(x, dtype=float).ravel()
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def fd_hessian(fn: Callable[[np.ndarray], float], x: np.ndarray,
               h: float = 1e-4) -> np.ndarray:
    """Central second differences; symmetric by construction."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                       - fn(x - ei + ej) + fn(x - ei - ej)) / (4.0 * h * h)
            H[j, i] = H[i, j]
    return H


def _polish(fn, x0: np.ndarray, v0: float, lo: np.ndarray, hi: np.ndarray):
    """Up to POLISH_STEPS Newton steps with backtracking from the best grid
    node, each trial clipped to the box [lo, hi], on the finite-difference
    gradient and Hessian. The Hessian's eigenvalues enter by their absolute
    values, floored, so every step descends; a trial is accepted only on a
    sufficient decrease, so the value never rises."""
    x, v = np.array(x0, dtype=float), float(v0)
    for _ in range(POLISH_STEPS):
        g = fd_gradient(fn, x, h=1e-6)
        if float(g @ g) <= 1e-24:
            break
        w, V = np.linalg.eigh(fd_hessian(fn, x))
        w = np.maximum(np.abs(w), 1e-8 * (1.0 + np.abs(w).max()))
        d = -V @ ((V.T @ g) / w)
        slope = -float(g @ d)
        t = 1.0
        moved = False
        while t > 1e-18:
            x2 = np.clip(x + t * d, lo, hi)
            v2 = fn(x2)
            if v2 <= v - 1e-4 * t * slope:
                x, v = x2, v2
                moved = True
                break
            t *= 0.5
        if not moved:
            break
    return x, v


BoxLike = Union[tuple, Sequence]


def _box_edges(box: BoxLike, n: int) -> list[tuple[float, float]]:
    box = list(box)
    if len(box) == 2 and np.isscalar(box[0]):
        return [(float(box[0]), float(box[1]))] * n
    if len(box) != n:
        raise ValueError(f"box must give {n} per-coordinate intervals")
    return [(float(lo), float(hi)) for lo, hi in box]


def check_grid_dimension(n: int) -> None:
    """Raise :class:`DimensionTooLargeError` when the grid cannot cover n
    dimensions."""
    if n > MAX_GRID_DIM:
        raise DimensionTooLargeError(f"grid oracle supports n <= {MAX_GRID_DIM}", n=n)


def grid_global_min(inst: ProblemInstance, box: BoxLike,
                    resolution: int = 601) -> tuple[np.ndarray, float]:
    """Best node of a grid on the box, polished; deterministic.

    The nodes are built from their flat C-order indices and scored _CHUNK
    at a time, so memory does not grow with the grid.

    Grid-only search can miss minima between nodes on quartic / smoothed-max
    curvature, so the node is always polished; the reported value is never
    above the best raw node value. The polish clips each trial to the box,
    so the returned point lies in it: a minimum outside the box shows as a
    point on its edge.
    """
    n = inst.n
    check_grid_dimension(n)
    if not (2 <= resolution <= MAX_RESOLUTION):
        raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}]")
    edges = _box_edges(box, n)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in edges]
    size = resolution ** n
    best_v = np.inf
    best_x = np.array([axis[0] for axis in axes])
    for start in range(0, size, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, size)),
                                 (resolution,) * n)
        chunk = np.column_stack([axis[i] for axis, i in zip(axes, index)])
        vals = _objective_batch(inst, chunk)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_x = chunk[i]
    fn = lambda x: float(_objective_batch(inst, x[None, :])[0])
    lo, hi = np.array(edges).T
    x, v = _polish(fn, best_x, best_v, lo, hi)
    return x, v


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M.T @ M + 0.1 * np.eye(n)


def definiteness_transfer_check(rng_seed: int, trials: int, r: int, n: int,
                                m: int) -> bool:
    """Randomized check of the definiteness-transfer identity

        P + D U D' <= 0   iff   -D' P^{-1} D - U^{-1} <= 0

    for P negative definite (n x n), U block-diagonal positive definite
    (m x m, blocks r and m-r), and D (n x m) zero outside a nonsingular
    r x r leading block. Returns True iff the two sides' semidefiniteness
    verdicts agree on every trial (1e-8-scaled slack near zero)."""
    if r > min(n, m) or r < 1:
        raise ValueError("need 1 <= r <= min(n, m)")
    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        P = -_random_spd(rng, n)
        U = np.zeros((m, m))
        U[:r, :r] = _random_spd(rng, r)
        if m > r:
            U[r:, r:] = _random_spd(rng, m - r)
        D11 = rng.standard_normal((r, r))
        while abs(np.linalg.det(D11)) < 1e-3:
            D11 = rng.standard_normal((r, r))
        D = np.zeros((n, m))
        D[:r, :r] = D11
        lhs = P + D @ U @ D.T
        rhs = -D.T @ np.linalg.inv(P) @ D - np.linalg.inv(U)
        lam_l = float(np.linalg.eigvalsh(0.5 * (lhs + lhs.T)).max())
        lam_r = float(np.linalg.eigvalsh(0.5 * (rhs + rhs.T)).max())
        slack_l = 1e-8 * (1.0 + float(np.max(np.abs(lhs))))
        slack_r = 1e-8 * (1.0 + float(np.max(np.abs(rhs))))
        nsd_l = lam_l <= slack_l
        nsd_r = lam_r <= slack_r
        if nsd_l != nsd_r and abs(lam_l) > slack_l and abs(lam_r) > slack_r:
            # disagreement not attributable to a near-zero borderline
            return False
    return True

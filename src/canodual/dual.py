"""Canonical dual function: assembly, conjugates, derivatives, recovery.

For a dual point zeta = (tau, sigma) the shifted curvature matrix is

    G(zeta) = A + sum_i tau_i Q_i + sum_i sigma_i B_i.

Wherever G is nonsingular the dual function

    Pid(zeta) = -1/2 f' G(zeta)^{-1} f - V1*(tau) - V2*(sigma)

is defined, with the conjugates

    V1*(tau)  = (1/beta) [sum tau_i log tau_i + (1 - sum tau) log(1 - sum tau)] - d'tau
    V2*(sigma) = sum sigma_i^2 / (2 alpha_i) - c'sigma.

A critical point zeta of Pid recovers the primal critical point
x = G(zeta)^{-1} f with equal objective value (zero duality gap), and the
definiteness of G(zeta) decides whether that point is the global minimizer.

Every formula is written once, for a stack of k flat dual vectors
(tau, sigma) as a (k, m) array. The kernel ``evaluate`` factorizes G with
one stacked ``eigh`` and gives x = G^{-1} f, the measure rows at x and the
gradient of every row; ``hessians`` reuses that factorization for the m
back-solves and ``dual_value`` gives the value. ``gradients`` gives the
gradient alone, with x from one stacked LU solve (``solve_rows``) and no
eigendecomposition: the m = 1 scan needs no more. The solvers call the
kernels on their flat vectors; the per-point functions ``assemble``,
``grad_dual``, ``hess_dual`` and ``eval_dual`` run the same steps on one
row, so each row of a stack rounds exactly as that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, SingularMatrixError
from .model import DualPoint, ProblemInstance, Region, SpectralData
from .primal import measure_jacobian, measures

SING_TOL = 1e-10       # eigenvalues of G this close (relatively) to zero count as zero
SIMPLEX_SLACK = 1e-14
GRAD_TOL = 1e-10       # a dual point with |grad|_inf at most this is critical
BOUNDARY_MARGIN = 1e-8  # the root searches keep tau this far inside the simplex


@dataclass(frozen=True)
class ShiftedHessian:
    """Spectral factorization of G(zeta) with inertia bookkeeping.

    Eigenvalues within ``sing_tol`` of zero count as zero; ``x_of_f`` (the
    solve G x = f) is present iff no eigenvalue is flagged zero.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sing_tol: float
    x_of_f: Optional[np.ndarray]

    @cached_property
    def inertia(self) -> tuple[int, int, int]:
        w = self.eigenvalues
        n_zero = int(np.count_nonzero(np.abs(w) <= self.sing_tol))
        n_pos = int(np.count_nonzero(w > self.sing_tol))
        n_neg = int(np.count_nonzero(w < -self.sing_tol))
        return (n_pos, n_neg, n_zero)

    @property
    def region(self) -> Region:
        n_pos, n_neg, n_zero = self.inertia
        if n_zero > 0:
            return Region.SINGULAR
        if n_neg == 0:
            return Region.SA_PLUS
        if n_pos == 0:
            return Region.SA_MINUS
        return Region.INDEFINITE

    @property
    def is_singular(self) -> bool:
        return self.inertia[2] > 0

    @staticmethod
    def from_spectrum(sd: SpectralData, A: np.ndarray, shift: float) -> "ShiftedHessian":
        """The factorisation of G = A + shift I read off the spectral data
        of A (eigenvalues lambda + shift, the same eigenvectors), with the
        singular threshold of :func:`assemble`: no eigendecomposition."""
        G = A + shift * np.eye(len(A))
        w = sd.lambdas + shift
        tol = SING_TOL * (1.0 + float(np.abs(G).max()))
        x = None if np.abs(w).min() <= tol else sd.U @ (sd.f_hat / w)
        return ShiftedHessian(matrix=G, eigenvalues=w, eigenvectors=sd.U,
                              sing_tol=tol, x_of_f=x)


class Points(NamedTuple):
    """The dual kernel's evaluation at a stack of k flat dual vectors
    (tau, sigma). Rows outside the open simplex or with G singular have
    ``valid`` False and NaN everywhere else."""

    valid: np.ndarray  # (k,)
    grad: np.ndarray   # (k, m)
    U: np.ndarray      # (k, n, n): eigenvectors of G
    w: np.ndarray      # (k, n): eigenvalues of G
    x: np.ndarray      # (k, n): x = G^{-1} f
    Mx: np.ndarray     # (k, m, n): rows Q_1 x, ..., B_r x


def _factor(inst: ProblemInstance, Z: np.ndarray):
    """G(zeta) for every row of Z (k, m) with its eigenvalues w, eigenvectors
    U, singular threshold and nonsingular mask, and x = G^{-1} f at the
    nonsingular rows. The only eigendecomposition of G."""
    G = inst.curvatures(Z)
    w, U = np.linalg.eigh(G)
    tol = SING_TOL * (1.0 + np.abs(G).max(axis=(1, 2)))
    nonsingular = ~(np.abs(w).min(axis=1) <= tol)  # a NaN eigenvalue passes
    Un, wn = _rows_where(nonsingular, U, w)
    x = (Un @ ((Un.transpose(0, 2, 1) @ inst.f) / wn)[..., None])[..., 0]
    return G, w, U, tol, nonsingular, x


def _rows_where(mask: np.ndarray, *arrays: np.ndarray) -> tuple:
    """The rows of each array where ``mask`` holds: the arrays themselves,
    not copied, when it holds at every row."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _gradients(inst: ProblemInstance, Z: np.ndarray, x: np.ndarray):
    """Dual gradients (k, m) at the rows of Z with tau in the open simplex
    and x = G^{-1} f (k, n), and the measure rows Mx (k, m, n) at x."""
    p = inst.p
    Mx, grad = measures(inst, x)  # (xi, eta), then the gradient
    if p:
        slack = 1.0 - Z[:, :p].sum(axis=1)
        grad[:, :p] = grad[:, :p] + inst.d - np.log(Z[:, :p] / slack[:, None]) / inst.beta
    if inst.r:
        grad[:, p:] = grad[:, p:] + inst.c - Z[:, p:] / inst.alpha
    return grad, Mx


def _inside(inst: ProblemInstance, Z: np.ndarray) -> np.ndarray:
    """The rows of Z (k, m) with tau in the open simplex."""
    if not inst.p:
        return np.ones(len(Z), dtype=bool)
    tau = Z[:, :inst.p]
    return (tau.min(axis=1) > 0.0) & (tau.sum(axis=1) < 1.0)


def solve_rows(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of M[i] s = b[i] for every row of b (k, n) by LU with
    partial pivoting, rounded as the solve of one point; NaN where LAPACK
    finds M[i] singular.

    At n = 1 the LU is the division b / M: LAPACK rounds it so and refuses
    exactly a zero pivot (+-0), so that division, NaN at a zero pivot, is
    the solve, with no LAPACK call. At n >= 2 one singular M[i] fails a
    stacked ``solve`` whole. Then one stacked ``slogdet`` marks those rows:
    it runs the same ``getrf`` and gives sign 0 exactly where that meets a
    zero pivot. One ``solve`` takes the rest, so a stack costs at most
    three LAPACK calls, however many rows are singular."""
    if M.shape[-1] == 1:
        pivot = M[..., 0]
        with np.errstate(all="ignore"):  # LAPACK divides without a warning
            return np.divide(b, pivot, out=np.full(b.shape, np.nan), where=pivot != 0.0)
    try:
        return np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        with np.errstate(invalid="ignore"):  # a NaN matrix is singular too
            regular = np.linalg.slogdet(M)[0] != 0.0
        if regular.any():
            out[regular] = np.linalg.solve(M[regular], b[regular][..., None])[..., 0]
        return out


def gradients(inst: ProblemInstance, Z: np.ndarray) -> np.ndarray:
    """The dual gradients (k, m) at the rows of Z (k, m), with x = G^{-1} f
    from one stacked LU solve (:func:`solve_rows`) and no eigendecomposition;
    NaN at the rows with tau outside the open simplex or G singular to
    LAPACK. Unlike :func:`evaluate`, which flags G singular within
    ``SING_TOL``, a row next to a pole of G^{-1} is finite here, with a
    large x. Each row rounds as it would alone."""
    grad = np.full((len(Z), inst.m), np.nan)
    inside = _inside(inst, Z)
    Zin, = _rows_where(inside, Z)
    x = solve_rows(inst.curvatures(Zin), np.broadcast_to(inst.f, (len(Zin), inst.n)))
    solved = np.isfinite(x).all(axis=1)
    Zv, x = _rows_where(solved, Zin, x)
    grad[inside.nonzero()[0][solved]] = _gradients(inst, Zv, x)[0]
    return grad


def evaluate(inst: ProblemInstance, Z: np.ndarray) -> Points:
    """The eigen kernel at every row of Z (k, m), with one stacked ``eigh``.
    Each row rounds as it would alone."""
    k = len(Z)
    inside = _inside(inst, Z)
    Zin, = _rows_where(inside, Z)
    _, w, U, _, nonsingular, x = _factor(inst, Zin)
    Zv, U, w = _rows_where(nonsingular, Zin, U, w)
    grad, Mx = _gradients(inst, Zv, x)
    found = Points(np.ones(len(Zv), dtype=bool), grad, U, w, x, Mx)
    if len(Zv) == k:  # every row valid, the usual case: nothing to spread
        return found
    rows = inside.nonzero()[0][nonsingular]
    pts = Points(np.zeros(k, dtype=bool),
                 *(np.full((k,) + a.shape[1:], np.nan) for a in found[1:]))
    for mine, value in zip(pts, found):
        mine[rows] = value
    return pts


def assemble(inst: ProblemInstance, zeta: DualPoint) -> ShiftedHessian:
    """Assemble and factorize G(zeta): the kernel's factor step on one row.

    Accepts any finite zeta, including tau outside the simplex (exploratory
    evaluation); only the conjugate-dependent operations reject such points.
    """
    G, w, U, tol, nonsingular, x = _factor(inst, zeta.vector()[None])
    return ShiftedHessian(matrix=G[0], eigenvalues=w[0], eigenvectors=U[0],
                          sing_tol=float(tol[0]), x_of_f=x[0] if nonsingular[0] else None)


def _check_simplex(tau: np.ndarray):
    if tau.size == 0:
        return
    if float(tau.min()) < -SIMPLEX_SLACK or float(tau.sum()) > 1.0 + SIMPLEX_SLACK:
        raise DomainError("tau outside the closed unit simplex",
                          tau_min=float(tau.min()), tau_sum=float(tau.sum()))


def _xlogx(t: np.ndarray) -> np.ndarray:
    # convention t log t -> 0 as t -> 0+
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log(t[pos])
    return out


def conjugate_lse(inst: ProblemInstance, tau: np.ndarray) -> float:
    """Conjugate of the log-sum-exp block (negative entropy minus d'tau)."""
    tau = np.asarray(tau, dtype=float).ravel()
    _check_simplex(tau)
    t = np.clip(tau, 0.0, None)
    slack = max(0.0, 1.0 - float(t.sum()))
    ent = float(_xlogx(t).sum()) + float(_xlogx(np.array([slack]))[0])
    return ent / inst.beta - float(inst.d @ tau)


def conjugate_quartic(inst: ProblemInstance, sigma: np.ndarray) -> float:
    """Conjugate of the quartic block: sum sigma_i^2/(2 alpha_i) - c'sigma."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    return float(np.sum(sigma ** 2 / (2.0 * inst.alpha)) - inst.c @ sigma)


def eval_complementary(inst: ProblemInstance, x: np.ndarray, zeta: DualPoint) -> float:
    """Total complementary value 1/2 x'G(zeta)x - f'x - V1*(tau) - V2*(sigma)."""
    x = np.asarray(x, dtype=float).ravel()
    G = inst.curvature(zeta.tau, zeta.sigma)
    return (0.5 * float(x @ G @ x) - float(inst.f @ x)
            - conjugate_lse(inst, zeta.tau) - conjugate_quartic(inst, zeta.sigma))


def dual_weight_inverse(inst: ProblemInstance, tau: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the block weight matrix: the tau block is
    (diag(tau)^{-1} + ee'/(1 - tau'e)) / beta, the quartic block diag(1/alpha).
    An m x m matrix for one tau (p,), a (k, m, m) stack for a stack (k, p)."""
    one = np.ndim(tau) < 2
    T = np.atleast_2d(np.asarray(tau, dtype=float))
    k, m, p = len(T), inst.m, inst.p
    Dinv = np.zeros((k, m, m))
    diagonal = Dinv.reshape(k, m * m)[:, ::m + 1]  # a view of every diagonal
    if p:
        block = Dinv[:, :p, :p]
        block[...] = (1.0 / (1.0 - T.sum(axis=1)))[:, None, None]
        diagonal[:, :p] += 1.0 / T
        block /= inst.beta
    if inst.r:
        diagonal[:, p:] = 1.0 / inst.alpha
    return Dinv[0] if one else Dinv


def hessians(inst: ProblemInstance, tau: np.ndarray, F: np.ndarray,
             U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dual Hessians -F' G^{-1} F - D^{-1}, a (k, m, m) stack, from the
    measure Jacobians F (k, n, m) at x = G^{-1} f, the eigenvectors U and
    eigenvalues w of G, and the simplex weights ``tau`` (k, p)."""
    GinvF = U @ ((U.transpose(0, 2, 1) @ F) / w[:, :, None])
    H = -F.transpose(0, 2, 1) @ GinvF - dual_weight_inverse(inst, tau)
    return 0.5 * (H + H.transpose(0, 2, 1))


def dual_value(inst: ProblemInstance, z: np.ndarray, x: np.ndarray) -> float:
    """Dual value -1/2 f'x - V1*(tau) - V2*(sigma) at the flat dual vector z
    with x = G(z)^{-1} f."""
    return (-0.5 * float(inst.f @ x) - conjugate_lse(inst, z[:inst.p])
            - conjugate_quartic(inst, z[inst.p:]))


def _defined_at(inst: ProblemInstance, zeta: DualPoint, factor: Optional[ShiftedHessian],
                what: str, interior: bool = True) -> ShiftedHessian:
    """``factor``, else the factorisation of G(zeta), after checking that the
    dual ``what`` is defined at zeta: tau in the open simplex (when
    ``interior``) and G nonsingular."""
    if interior and not zeta.tau_interior():
        raise DomainError("tau outside the open unit simplex",
                          tau_min=float(zeta.tau.min()), tau_sum=float(zeta.tau.sum()))
    G = factor if factor is not None else assemble(inst, zeta)
    if G.is_singular:
        raise SingularMatrixError(f"dual {what} undefined: G(zeta) singular")
    return G


def eval_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> float:
    """Dual value -1/2 f' G^{-1} f - V1*(tau) - V2*(sigma)."""
    G = _defined_at(inst, zeta, factor, "function", interior=False)
    return dual_value(inst, zeta.vector(), G.x_of_f)


def grad_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> np.ndarray:
    """Analytic dual gradient (m-vector); raises on singular G or boundary tau."""
    G = _defined_at(inst, zeta, factor, "gradient")
    return _gradients(inst, zeta.vector()[None], G.x_of_f[None])[0][0]


def hess_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> np.ndarray:
    """Analytic dual Hessian -F' G^{-1} F - D^{-1} at x = G^{-1} f."""
    G = _defined_at(inst, zeta, factor, "Hessian")
    F = measure_jacobian(inst, G.x_of_f)
    return hessians(inst, zeta.tau[None], F[None], G.eigenvectors[None],
                    G.eigenvalues[None])[0]

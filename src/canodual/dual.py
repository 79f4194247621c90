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

All evaluations use one spectral factorization of G per dual point; the
Hessian reuses it for the m back-solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, SingularMatrixError
from .model import DualPoint, ProblemInstance, Region
from .primal import measure_jacobian

SING_TOL = 1e-10       # eigenvalues of G this close (relatively) to zero count as zero
SIMPLEX_SLACK = 1e-14
GRAD_TOL = 1e-10       # a dual point with |grad|_inf at most this is critical
BOUNDARY_MARGIN = 1e-8  # the solvers keep tau this far inside the simplex


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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.is_singular:
            raise SingularMatrixError("shifted curvature matrix is singular",
                                      min_abs_eig=float(np.min(np.abs(self.eigenvalues))))
        U, w = self.eigenvectors, self.eigenvalues
        if rhs.ndim == 1:
            return U @ ((U.T @ rhs) / w)
        return U @ ((U.T @ rhs) / w[:, None])


def assemble(inst: ProblemInstance, zeta: DualPoint) -> ShiftedHessian:
    """Assemble and factorize G(zeta).

    Accepts any finite zeta, including tau outside the simplex (exploratory
    evaluation); only the conjugate-dependent operations reject such points.
    """
    G = inst.curvature(zeta.tau, zeta.sigma)
    w, U = np.linalg.eigh(G)
    tol = SING_TOL * (1.0 + float(np.max(np.abs(G), initial=0.0)))
    singular = bool(np.min(np.abs(w), initial=np.inf) <= tol)
    x_of_f = None if singular else U @ ((U.T @ inst.f) / w)
    return ShiftedHessian(matrix=G, eigenvalues=w, eigenvectors=U,
                          sing_tol=tol, x_of_f=x_of_f)


def classify_region(inst: ProblemInstance, zeta: DualPoint) -> Region:
    return assemble(inst, zeta).region


def _check_simplex(tau: np.ndarray):
    if tau.size == 0:
        return
    if float(tau.min()) < -SIMPLEX_SLACK or float(tau.sum()) > 1.0 + SIMPLEX_SLACK:
        raise DomainError("tau outside the closed unit simplex",
                          tau_min=float(tau.min()), tau_sum=float(tau.sum()))


def _check_open_simplex(tau: np.ndarray):
    if tau.size == 0:
        return
    if float(tau.min()) <= 0.0 or float(tau.sum()) >= 1.0:
        raise DomainError("tau outside the open unit simplex",
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


def eval_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> float:
    """Dual value -1/2 f' G^{-1} f - V1*(tau) - V2*(sigma)."""
    G = factor if factor is not None else assemble(inst, zeta)
    if G.is_singular:
        raise SingularMatrixError("dual function undefined: G(zeta) singular")
    return (-0.5 * float(inst.f @ G.x_of_f)
            - conjugate_lse(inst, zeta.tau) - conjugate_quartic(inst, zeta.sigma))


def grad_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> np.ndarray:
    """Analytic dual gradient (m-vector); raises on singular G or boundary tau."""
    _check_open_simplex(zeta.tau)
    G = factor if factor is not None else assemble(inst, zeta)
    if G.is_singular:
        raise SingularMatrixError("dual gradient undefined: G(zeta) singular")
    x = G.x_of_f
    parts = []
    if inst.p:
        xi = 0.5 * (inst.Q_stack @ x) @ x
        slack = 1.0 - float(zeta.tau.sum())
        parts.append(xi + inst.d - np.log(zeta.tau / slack) / inst.beta)
    if inst.r:
        eta = 0.5 * (inst.B_stack @ x) @ x
        parts.append(eta + inst.c - zeta.sigma / inst.alpha)
    return np.concatenate(parts) if parts else np.zeros(0)


def dual_weight_inverse(inst: ProblemInstance, tau: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the block weight matrix: the tau block is
    (diag(tau)^{-1} + ee'/(1 - tau'e)) / beta, the quartic block diag(1/alpha)."""
    m = inst.m
    p = inst.p
    Dinv = np.zeros((m, m))
    if p:
        slack = 1.0 - float(tau.sum())
        Dinv[:p, :p] = (np.diag(1.0 / tau) + 1.0 / slack) / inst.beta
    if inst.r:
        Dinv[p:, p:] = np.diag(1.0 / inst.alpha)
    return Dinv


def hess_dual(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[ShiftedHessian] = None) -> np.ndarray:
    """Analytic dual Hessian -F' G^{-1} F - D^{-1} at x = G^{-1} f."""
    _check_open_simplex(zeta.tau)
    G = factor if factor is not None else assemble(inst, zeta)
    if G.is_singular:
        raise SingularMatrixError("dual Hessian undefined: G(zeta) singular")
    F = measure_jacobian(inst, G.x_of_f)
    H = -F.T @ G.solve(F) - dual_weight_inverse(inst, zeta.tau)
    return 0.5 * (H + H.T)


def recover_primal(inst: ProblemInstance, zeta: DualPoint) -> np.ndarray:
    """Analytic primal recovery x = G(zeta)^{-1} f."""
    G = assemble(inst, zeta)
    if G.is_singular:
        raise SingularMatrixError("primal recovery undefined: G(zeta) singular")
    return G.x_of_f

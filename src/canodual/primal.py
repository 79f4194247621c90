"""Primal objective: evaluation, canonical measure, duality map, derivatives.

The nonlinearity enters only through the quadratic measures
xi_i = 1/2 x'Q_i x and eta_i = 1/2 x'B_i x; every formula below is written
in terms of them. The log-sum-exp block is evaluated with the usual
max-shift so that neither the value nor the constitutive weights overflow:
the implicit leading "1" inside the log contributes the exponent 0, which
is included in the shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DualPoint, ProblemInstance


@dataclass(frozen=True)
class CanonicalMeasure:
    """Quadratic measures (xi, eta) of a point."""

    xi: np.ndarray
    eta: np.ndarray


def _one_row(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(1, -1)


def _rows(x) -> tuple[np.ndarray, bool]:
    """(X, one): a 2-D input is a (k, n) stack of points; anything else is
    one point, raveled into a one-row stack."""
    X = np.asarray(x, dtype=float)
    return (X, False) if X.ndim == 2 else (X.reshape(1, -1), True)


def measures(inst: ProblemInstance, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure gradients and measures at every row x of X (k, n): the
    (k, m, n) stack of rows Q_1 x, ..., Q_p x, B_1 x, ..., B_r x and the
    (k, m) values (xi, eta). Each block rounds as one point's
    ``0.5 * (Q_stack @ x) @ x``."""
    col = X[..., None]
    Sx = [(S @ col[:, None])[..., 0] for S in (inst.Q_stack, inst.B_stack) if len(S)]
    values = [((0.5 * rows) @ col)[..., 0] for rows in Sx]
    if len(Sx) == 1:
        return Sx[0], values[0]
    return np.concatenate(Sx, axis=1), np.concatenate(values, axis=1)


def canonical_measure(inst: ProblemInstance, x: np.ndarray) -> CanonicalMeasure:
    values = measures(inst, _one_row(x))[1][0]
    return CanonicalMeasure(xi=values[:inst.p], eta=values[inst.p:])


def _shifted_exponentials(inst: ProblemInstance, xi: np.ndarray):
    """Return (shift, exp(-shift), exp(a - shift)) for a = beta (xi + d),
    over the last axis of xi; shift and exp(-shift) keep that axis.

    shift = max(0, max_i a_i), so every exponential is <= 1.
    """
    a = inst.beta * (xi + inst.d)
    s = a.max(axis=-1, initial=0.0, keepdims=True)
    return s, np.exp(-s), np.exp(a - s)


def _constitutive(inst: ProblemInstance, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(x) at every row of X (k, n) as a flat (k, m) array, with the
    measure gradients of :func:`measures`.

    tau is the softmax weight of each log-sum-exp exponent against the
    implicit unit term (from the same shifted exponentials as
    :func:`eval_lse`, so the two agree to machine precision);
    sigma_i = alpha_i (eta_i + c_i).
    """
    p = inst.p
    Mx, values = measures(inst, X)
    parts = []
    if p:
        _, e0, ea = _shifted_exponentials(inst, values[:, :p])
        parts.append(ea / (e0 + ea.sum(axis=1, keepdims=True)))
    if inst.r:
        parts.append(inst.alpha * (values[:, p:] + inst.c))
    return (parts[0] if len(parts) == 1 else np.hstack(parts)), Mx


def eval_lse(inst: ProblemInstance, x: np.ndarray) -> float:
    """Smoothed max term (1/beta) log[1 + sum_i exp(beta (xi_i + d_i))]."""
    xi = canonical_measure(inst, x).xi
    s, e0, ea = _shifted_exponentials(inst, xi)
    return float((s[0] + np.log(e0[0] + ea.sum())) / inst.beta)


def eval_quartic(inst: ProblemInstance, x: np.ndarray) -> float:
    """Quartic penalty sum_i (alpha_i/2) (eta_i + c_i)^2."""
    eta = canonical_measure(inst, x).eta
    return float(np.sum(0.5 * inst.alpha * (eta + inst.c) ** 2))


def eval_primal(inst: ProblemInstance, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float).ravel()
    quad = 0.5 * float(x @ inst.A @ x) - float(inst.f @ x)
    return quad + eval_lse(inst, x) + eval_quartic(inst, x)


def duality_map(inst: ProblemInstance, x: np.ndarray) -> DualPoint | np.ndarray:
    """Constitutive dual point zeta(x).

    A ``DualPoint`` at one point x (n,); the flat (k, m) rows (tau, sigma)
    at a stack of points X (k, n), each row rounded as the point alone. Any
    2-D input is a stack, as for ``grad_primal`` and ``hess_primal``: a
    (1, n) array gives a (1, m) array, not a ``DualPoint``.
    """
    X, one = _rows(x)
    Z = _constitutive(inst, X)[0]
    return DualPoint.from_vector(Z[0], inst.p) if one else Z


def measure_jacobian(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """n x m matrix whose columns are the measure gradients
    Q_1 x, ..., Q_p x, B_1 x, ..., B_r x."""
    return measures(inst, _one_row(x))[0][0].T


def weight_hessian(inst: ProblemInstance, tau: np.ndarray) -> np.ndarray:
    """Block-diagonal curvature of the canonical potential at the measure:
    beta (diag(tau) - tau tau') on the log-sum-exp block, diag(alpha) on the
    quartic block. An m x m matrix for one tau (p,), a (k, m, m) stack for a
    stack of weights (k, p)."""
    one = np.ndim(tau) < 2
    T = np.atleast_2d(np.asarray(tau, dtype=float))
    m, p = inst.m, inst.p
    D = np.zeros((len(T), m, m))
    if p:
        diag = np.zeros((len(T), p, p))
        diag[:, np.arange(p), np.arange(p)] = T
        D[:, :p, :p] = inst.beta * (diag - T[:, :, None] * T[:, None, :])
    if inst.r:
        D[:, p:, p:] = np.diag(inst.alpha)
    return D[0] if one else D


def grad_primal(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient G(zeta(x)) x - f with the constitutive zeta(x).

    An n-vector at one point x (n,); a (k, n) stack at a stack of points
    X (k, n), each row rounded as the point alone.
    """
    X, one = _rows(x)
    Z, _ = _constitutive(inst, X)
    g = (inst.curvatures(Z) @ X[..., None])[..., 0] - inst.f
    return g[0] if one else g


def hess_primal(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Hessian G(zeta(x)) + F D F' (symmetric by construction).

    An n x n matrix at one point x (n,); a (k, n, n) stack at a stack of
    points X (k, n), each rounded as the point alone.
    """
    X, one = _rows(x)
    Z, Mx = _constitutive(inst, X)
    F = Mx.transpose(0, 2, 1)
    H = inst.curvatures(Z) + F @ weight_hessian(inst, Z[:, :inst.p]) @ F.transpose(0, 2, 1)
    H = 0.5 * (H + H.transpose(0, 2, 1))
    return H[0] if one else H

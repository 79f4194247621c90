"""Specialized solver for the single-quartic objective

    1/2 x'Ax - f'x + (alpha/2) (1/2 x'x + c)^2

(one quartic term, identity weight, no log-sum-exp block). Its dual is the
univariate spectral dual of :mod:`canodual.univariate` with the quartic
conjugate V*(sigma) = sigma^2/(2 alpha) - c sigma on [alpha c, inf):

    -1/2 sum_i f_hat_i^2 / (lambda_i + sigma) + c sigma - sigma^2 / (2 alpha),

whose stationarity condition is the secular equation

    1/2 sum_i f_hat_i^2 / (lambda_i + sigma)^2 + c - sigma / alpha = 0.

The shared engine decides existence on the spectral data, separating the
easy instances from the hard ones up front, and brackets the unique root.
This module keeps the instance type, the solve, and the (alpha, c) forms
of the dual functions and the existence check that the solve calls.

General positive-definite quartic weights are handled by whitening: with
W'BW = I, x = Wy turns the weight into the identity without changing
objective values, and the solution is mapped back through ``basis`` = W.
A diagonal B is scaled, W = diag(B_ii^{-1/2}), with no factorisation; any
other B gives W = L^{-T} from its Cholesky factor B = LL'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import primal as _primal
from . import univariate
from .errors import ShapeMismatchError
from .model import (
    Classification,
    CriticalPair,
    DualPoint,
    ExistenceVerdict,
    ProblemInstance,
    QuarticTerm,
    Region,
    SolveReport,
    SpectralData,
)


@dataclass(frozen=True)
class QuarticInstance:
    """Whitened data (A, f, alpha, c); ``basis`` W, with W'BW = I for the
    original weight B, maps whitened solutions back to original coordinates
    (None means identity). W is diag(B_ii^{-1/2}) for a diagonal B, scaled
    with no factorisation, else L^{-T} for the Cholesky factor B = LL'."""

    A: np.ndarray
    f: np.ndarray
    alpha: float
    c: float
    basis: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "f", np.atleast_1d(np.asarray(self.f, dtype=float)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def spectral(self) -> SpectralData:
        return SpectralData.from_matrix(self.A, self.f)

    def to_problem(self) -> ProblemInstance:
        return ProblemInstance(
            A=self.A, f=self.f,
            quartic_terms=(QuarticTerm(B=np.eye(self.n), c=self.c, alpha=self.alpha),),
            beta=1.0)

    def to_original(self, y: np.ndarray) -> np.ndarray:
        return y if self.basis is None else self.basis @ y

    @staticmethod
    def from_problem(inst: ProblemInstance) -> "QuarticInstance":
        """Specialize a validated instance with p = 0, r = 1, B positive
        definite and a finite whitened A and f; raises
        :class:`ShapeMismatchError` otherwise."""
        if inst.p != 0 or inst.r != 1:
            raise ShapeMismatchError("quartic specialization needs p=0, r=1",
                                     p=inst.p, r=inst.r)
        term = inst.quartic_terms[0]
        W, A = univariate.whitened(term.B, inst.A, "quartic weight")
        with np.errstate(over="ignore", invalid="ignore"):
            f = W.T @ inst.f
        univariate.require_finite(A, f, "quartic weight")
        return QuarticInstance(A=A, f=f, alpha=term.alpha, c=term.c, basis=W)


def secular_derivative(sd: SpectralData, alpha: float, c: float,
                       sigma: float) -> float:
    """First derivative of the univariate dual,
    1/2 sum f_hat_i^2/(lambda_i + sigma)^2 + c - sigma/alpha."""
    return float(univariate.derivative(sd, univariate.quartic(alpha, c), sigma))


def secular_second_derivative(sd: SpectralData, alpha: float, sigma: float) -> float:
    return float(univariate.second_derivative(sd, univariate.quartic(alpha, 0.0), sigma))


def dual_value(sd: SpectralData, alpha: float, c: float, sigma: float) -> float:
    return float(univariate.value(sd, univariate.quartic(alpha, c), sigma))


def existence_check(sd: SpectralData, alpha: float, c: float) -> ExistenceVerdict:
    """Does the univariate dual have a critical point in the positive region?
    UNCONDITIONAL when alpha c > -lambda_1 (see :func:`univariate.existence`)."""
    return univariate.existence(sd, univariate.quartic(alpha, c))["verdict"]


def solve(qi: QuarticInstance) -> SolveReport:
    """Maximize the univariate dual over the positive region and recover the
    global minimizer spectrally.

    Raises :class:`NoDualCriticalPointError` on the hard instances flagged
    by :func:`existence_check`.
    """
    sd = qi.spectral()
    verdict = existence_check(sd, qi.alpha, qi.c)
    sigma_bar, iters = univariate.maximise(
        sd, univariate.quartic(qi.alpha, qi.c), verdict,
        lambda s: secular_derivative(sd, qi.alpha, qi.c, s),
        second=lambda s: secular_second_derivative(sd, qi.alpha, s))
    y = sd.U @ (sd.f_hat / (sd.lambdas + sigma_bar))
    x = qi.to_original(y)
    dv = dual_value(sd, qi.alpha, qi.c, sigma_bar)
    pv = _primal.eval_primal(qi.to_problem(), y)
    residual = abs(secular_derivative(sd, qi.alpha, qi.c, sigma_bar))
    pair = CriticalPair(
        x=x, zeta=DualPoint(tau=np.zeros(0), sigma=np.array([sigma_bar])),
        primal_value=pv, dual_value=dv, region=Region.SA_PLUS,
        classification=Classification.GLOBAL_MIN,
        primal_label=Classification.GLOBAL_MIN,
        dual_label=Classification.LOCAL_MAX,
        gap=abs(pv - dv), residual=residual)
    return SolveReport(critical_pairs=[pair], existence_verdict=verdict,
                       iterations=iters, residual_norm=residual,
                       notes=[f"secular root sigma = {sigma_bar:.12g}"])

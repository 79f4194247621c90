"""Two-branch quadratic minimax via log-sum-exp smoothing.

    min_x  max( 1/2 x'A1 x - f1'x + d1,  1/2 x'A2 x - f2'x + d2 )

with A2 - A1 positive definite. Factoring the first branch out of the
smoothed maximum and whitening the difference quadratic, x = W y +
(A2-A1)^{-1} (f2-f1) with W'(A2 - A1)W = I, yields the canonical form

    1/2 y'Ay - f'y + (1/beta) log(1 + exp(beta (1/2 y'y + d)))  (+ constant),

whose dual is the univariate spectral dual of :mod:`canodual.univariate`
with the entropy conjugate on (0, 1):

    -1/2 sum_i f_hat_i^2/(lambda_i + tau) + d tau
    - (1/beta) [tau log tau + (1-tau) log(1-tau)].

The dual is strictly concave on the sub-interval where A + tau I is
positive definite; the shared engine's maximizer there recovers the global
smoothed minimizer, and is the only critical point there. The remaining
critical points of the univariate dual lie left of that sub-interval, in
(0, min(1, -lambda_1)), and are enumerated by the engine's enclosure
search over that interval minus the spectrum poles (bisection that drops
every sub-interval whose bounds on the dual's slope exclude zero) and
classified through the general machinery, each on a factorisation of
A + tau I read off the spectrum of A: a solve makes one
eigendecomposition, and one Cholesky factorisation of the difference
unless it is diagonal, which is whitened by scaling.
This module keeps the instance and canonical-form types, the solves, and
the (d, beta) forms of the dual functions and the existence check.

Smoothing error is one-sided: max <= smoothed <= max + log(2)/beta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import univariate
from .dual import ShiftedHessian
from .errors import (
    HardCaseError,
    NonPositiveParameterError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from .model import (
    DualPoint,
    ExistenceVerdict,
    LseTerm,
    ProblemInstance,
    SolveReport,
    SpectralData,
    _symmetrized,
)
from .solver import _sorted_pairs, make_pair


@dataclass(frozen=True)
class MinimaxInstance:
    A1: np.ndarray
    A2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    d1: float = 0.0
    d2: float = 0.0
    beta: float = 100.0

    def __post_init__(self):
        for name in ("A1", "A2"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("f1", "f2"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    def branch_values(self, x: np.ndarray) -> tuple[float, float]:
        x = np.asarray(x, dtype=float).ravel()
        g1 = 0.5 * float(x @ self.A1 @ x) - float(self.f1 @ x) + self.d1
        g2 = 0.5 * float(x @ self.A2 @ x) - float(self.f2 @ x) + self.d2
        return g1, g2

    def max_value(self, x: np.ndarray) -> float:
        return max(self.branch_values(x))

    def smoothed_value(self, x: np.ndarray) -> float:
        """Log-sum-exp smoothing of the two branches (overflow-safe)."""
        g1, g2 = self.branch_values(x)
        hi, lo = (g1, g2) if g1 >= g2 else (g2, g1)
        return hi + np.log1p(np.exp(self.beta * (lo - hi))) / self.beta


def validate_minimax(mm: MinimaxInstance) -> MinimaxInstance:
    """The instance with symmetrized curvatures, or an input error: checks
    the shapes, symmetry and finiteness of the data and the sign of beta.
    That A2 - A1 is positive definite is tested where it is whitened, by
    :func:`smooth_and_canonicalize`."""
    n = mm.n
    A1 = _symmetrized("A1", mm.A1, n)
    A2 = _symmetrized("A2", mm.A2, n)
    if mm.f1.shape != (n,) or mm.f2.shape != (n,):
        raise ShapeMismatchError("f1/f2 must be n-vectors", n=n)
    if not (np.isfinite(mm.beta) and mm.beta > 0):
        raise NonPositiveParameterError("beta must be positive", beta=mm.beta)
    if not all(np.all(np.isfinite(v)) for v in (mm.f1, mm.f2, [mm.d1, mm.d2])):
        raise ShapeMismatchError("non-finite data")
    return MinimaxInstance(A1=A1, A2=A2, f1=mm.f1, f2=mm.f2,
                           d1=float(mm.d1), d2=float(mm.d2), beta=float(mm.beta))


# the branch difference A2 - A1 is admitted when its eigenvalues have
# w_min > 1e-10 (1 + |w_max|), else NotPositiveDefiniteError
_DIFFERENCE = dict(what="branch difference A2 - A1", rtol=1e-10,
                   error=NotPositiveDefiniteError)


@dataclass(frozen=True)
class CanonicalForm:
    """Whitened smoothed problem with the affine transform back to the
    original coordinates: x = basis @ y + offset, original value =
    canonical value + value_shift. ``basis`` is the W of
    :func:`univariate.whitened` for the whitened weight (A2 - A1, or the
    log-sum-exp weight): diag(d^{-1/2}) for a diagonal weight, which is
    scaled with no factorisation, else L^{-T} for its Cholesky factor LL',
    a rotation of the symmetric root's coordinates, with the same spectrum
    and the same solutions."""

    A: np.ndarray
    f: np.ndarray
    d: float
    beta: float
    basis: np.ndarray
    offset: np.ndarray
    value_shift: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def to_original(self, y: np.ndarray) -> np.ndarray:
        return self.basis @ np.asarray(y, dtype=float).ravel() + self.offset

    def spectral(self) -> SpectralData:
        return SpectralData.from_matrix(self.A, self.f)

    def to_problem(self) -> ProblemInstance:
        return ProblemInstance(
            A=self.A, f=self.f,
            lse_terms=(LseTerm(Q=np.eye(self.n), d=self.d),),
            beta=self.beta)


def smooth_and_canonicalize(mm: MinimaxInstance) -> CanonicalForm:
    """Whiten the branch difference and fold the base branch constant into
    the value shift. One whitening W of the difference delta (a scaling
    when delta is diagonal, else from one Cholesky factorisation) serves
    the definiteness test, the canonical A = W'A1W and the offset, since
    delta^{-1} = WW'. The test admits only w_min > 1e-10 (1 + w_max),
    which bounds the condition number of the difference below 1e10, so an
    admitted difference needs no warning. A canonical A or f that overflows
    is refused with the difference's own error."""
    mm = validate_minimax(mm)
    g = mm.f2 - mm.f1
    W, A = univariate.whitened(mm.A2 - mm.A1, mm.A1, **_DIFFERENCE)
    A = 0.5 * (A + A.T)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = W @ (W.T @ g)                          # delta^{-1} g
        f = W.T @ (mm.f1 - mm.A1 @ offset)
    univariate.require_finite(A, f, _DIFFERENCE["what"], _DIFFERENCE["error"])
    d = mm.d2 - mm.d1 - 0.5 * float(g @ offset)
    shift = 0.5 * float(offset @ mm.A1 @ offset) - float(mm.f1 @ offset) + mm.d1
    return CanonicalForm(A=A, f=f, d=d, beta=mm.beta,
                         basis=W, offset=offset, value_shift=shift)


def canonical_from_problem(inst: ProblemInstance) -> CanonicalForm:
    """Specialize a validated instance with r = 0, p = 1, a positive
    definite log-sum-exp weight (identity after whitening) and a finite
    whitened A and f; raises :class:`ShapeMismatchError` otherwise."""
    if inst.p != 1 or inst.r != 0:
        raise ShapeMismatchError("smoothed-minimax specialization needs p=1, r=0",
                                 p=inst.p, r=inst.r)
    term = inst.lse_terms[0]
    W, A = univariate.whitened(term.Q, inst.A, "log-sum-exp weight")
    with np.errstate(over="ignore", invalid="ignore"):
        f = W.T @ inst.f
    univariate.require_finite(A, f, "log-sum-exp weight")
    return CanonicalForm(A=A, f=f, d=term.d, beta=inst.beta, basis=W,
                         offset=np.zeros(inst.n), value_shift=0.0)


# ---------------------------------------------------------------------------
# univariate dual

def dual_derivative(sd: SpectralData, d: float, beta: float, tau: float) -> float:
    return float(univariate.derivative(sd, univariate.entropy(d, beta), tau))


def existence_check(sd: SpectralData, d: float, beta: float) -> ExistenceVerdict:
    """Existence of a dual critical point in the positive region: always
    for lambda_1 >= 0, never (unbounded) for lambda_1 <= -1 (see
    :func:`univariate.existence`)."""
    return univariate.existence(sd, univariate.entropy(d, beta))["verdict"]


def solve_canonical(can: CanonicalForm) -> SolveReport:
    """:func:`solve` from the canonical form."""
    sd = can.spectral()
    conj = univariate.entropy(can.d, can.beta)
    verdict = existence_check(sd, can.d, can.beta)
    # no Newton steps: near the entropy barrier D' grows like a logarithm,
    # Newton steps from the left overshoot the bracket, and bisection is cheaper
    global_root, _ = univariate.maximise(
        sd, conj, verdict, lambda t: dual_derivative(sd, can.d, can.beta, t))
    # D' decreases on the positive region tau > -lambda_1, so its one root
    # there is the maximiser: only the intervals left of it are searched
    lam1 = float(sd.lambdas[0])
    left = conj._replace(hi=min(conj.hi, -lam1))
    roots = univariate.critical_points(sd, left) + [global_root]
    problem = can.to_problem()
    pairs = []
    for tau in roots:
        # G = A + tau I has the eigenvectors of A: no eigendecomposition per pair
        pair = make_pair(problem, DualPoint(tau=np.array([tau]), sigma=np.zeros(0)),
                         factor=ShiftedHessian.from_spectrum(sd, can.A, tau))
        if pair is None:
            continue
        pairs.append(replace(pair, x=can.to_original(pair.x),
                             primal_value=pair.primal_value + can.value_shift,
                             dual_value=pair.dual_value + can.value_shift))
    if not pairs or pairs[-1].zeta.tau[0] != global_root:  # the maximiser has none
        raise HardCaseError(
            "no pair at the dual maximiser: G = A + tau I is singular to working "
            "precision there, or the pair fails the gap or criticality test",
            lambda_min=lam1, tau=global_root, min_eig=lam1 + global_root,
            verdict=verdict.value)
    pairs = _sorted_pairs(pairs)
    residual = max(p.residual for p in pairs)
    return SolveReport(critical_pairs=pairs, existence_verdict=verdict,
                       iterations=len(roots), residual_norm=residual,
                       notes=[f"{len(pairs)} univariate dual critical points"])


def solve(mm: MinimaxInstance) -> SolveReport:
    """Smooth, canonicalize, and solve; the report is in original
    coordinates and original objective values.

    The first pair is the certified global minimizer of the smoothed
    objective; subsequent pairs are the other dual critical points with
    their triality labels. A maximiser with no pair is a :class:`HardCaseError`.
    """
    return solve_canonical(smooth_and_canonicalize(mm))


def beta_sweep(mm: MinimaxInstance, betas: Sequence[float]) -> list[dict]:
    """Re-solve under a sequence of smoothing weights; larger beta tightens
    the one-sided log(2)/beta smoothing bound."""
    rows = []
    for beta in betas:
        swapped = MinimaxInstance(A1=mm.A1, A2=mm.A2, f1=mm.f1, f2=mm.f2,
                                  d1=mm.d1, d2=mm.d2, beta=float(beta))
        report = solve(swapped)
        best = report.best
        rows.append({"beta": float(beta), "value": best.primal_value,
                     "x": np.array(best.x), "tau": float(best.zeta.tau[0])})
    return rows

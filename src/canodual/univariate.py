"""Univariate spectral dual shared by the two fast paths.

After whitening the measure weight to the identity (:func:`whitened`: a
diagonal weight is scaled, any other one goes through its Cholesky factor)
and diagonalising A = U diag(lambda) U' with f_hat = U'f, the canonical dual
of a problem with one measure term is the univariate function

    D(s) = -1/2 sum_i f_hat_i^2 / (lambda_i + s) - V*(s),

and the two fast paths differ only in the conjugate V*:

    quartic   V*(sigma) = sigma^2 / (2 alpha) - c sigma          on [alpha c, inf)
    entropy   V*(tau)   = (tau log tau + (1-tau) log(1-tau)) / beta - d tau
                                                               on (0, 1)

(the entropy's slope tends to -inf at tau = 0: a barrier). On the positive
region, where s > -lambda_1 as well, D' is strictly decreasing, so the
maximiser of D is unique when it exists, and an existence test on the
spectral data decides up front whether it does.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .dual import BOUNDARY_MARGIN, GRAD_TOL
from .errors import (
    DomainError,
    NoDualCriticalPointError,
    PoleError,
    ShapeMismatchError,
    UnboundedError,
)
from .model import ExistenceVerdict, SpectralData

HEAD_COMPONENT_RTOL = 1e-12
POLE_TOL = 1e-14
REACH = 1e-13          # bracketing gives up this close (relatively) to an end,
REACH_FINITE_LEFT = 1e-14  # or to the left end of a finite interval (of its width)
ENCLOSURE_ULPS = 16     # rounding allowance of the enclosure search's exclusion test
STOP_RTOL = 1e-15       # and its narrowest sub-interval, relative to |u| + |v|
MAX_ITER = 200         # refinement cap of the fast paths' root searches


class Conjugate(NamedTuple):
    """Conjugate V* of the measure term on its domain [lo, hi).

    ``barrier`` marks a conjugate that is undefined outside the open domain
    (lo, hi) and whose slope tends to -inf at lo; otherwise V* extends to
    the whole line and lo is a closed end of the maximisation. (A named
    tuple: the fast paths' public functions build one per call.)
    """

    lo: float
    hi: float
    barrier: bool
    value: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]


def quartic(alpha: float, c: float) -> Conjugate:
    return Conjugate(lo=alpha * c, hi=np.inf, barrier=False,
                     value=lambda s: s ** 2 / (2.0 * alpha) - c * s,
                     slope=lambda s: s / alpha - c,
                     curvature=lambda s: 1.0 / alpha)


def entropy(d: float, beta: float) -> Conjugate:
    return Conjugate(lo=0.0, hi=1.0, barrier=True,
                     value=lambda t: (t * np.log(t) + (1.0 - t) * np.log(1.0 - t)) / beta - d * t,
                     slope=lambda t: np.log(t / (1.0 - t)) / beta - d,
                     curvature=lambda t: (1.0 / t + 1.0 / (1.0 - t)) / beta)


# ---------------------------------------------------------------------------
# the dual and its derivatives, vectorised over s

def _shifted(sd: SpectralData, conj: Conjugate, s):
    """(s, lambda_i + s): a scalar s as a float with an n-vector (floats keep
    the bracketer's one-point calls cheap), an array of points with an
    (n, points) array. Raises outside a barrier conjugate's open domain and
    at a pole."""
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = float(s)
        first = last = s
        shifted = sd.lambdas + s
    else:
        first, last = s.min(), s.max()
        shifted = np.add.outer(sd.lambdas, s)
    if conj.barrier and not (conj.lo < first and last < conj.hi):
        raise DomainError("outside the open domain of the conjugate", s=s)
    if np.abs(shifted).min() <= POLE_TOL:
        raise PoleError("at a pole of the spectral dual", s=s)
    return s, shifted


def value(sd: SpectralData, conj: Conjugate, s):
    s, shifted = _shifted(sd, conj, s)
    return -0.5 * (sd.f_hat ** 2 @ (1.0 / shifted)) - conj.value(s)


def derivative(sd: SpectralData, conj: Conjugate, s):
    s, shifted = _shifted(sd, conj, s)
    return 0.5 * (sd.f_hat ** 2 @ (1.0 / shifted ** 2)) - conj.slope(s)


def second_derivative(sd: SpectralData, conj: Conjugate, s):
    s, shifted = _shifted(sd, conj, s)
    return -(sd.f_hat ** 2 @ (1.0 / shifted ** 3)) - conj.curvature(s)


# ---------------------------------------------------------------------------
# existence

def existence(sd: SpectralData, conj: Conjugate) -> dict:
    """Does D have a critical point in the positive region? The verdict plus
    the evaluated quantities behind it.

    UNCONDITIONAL when the domain's left end lies inside the positive region
    (or on its edge, behind a barrier); UNBOUNDED when the positive region is
    empty. Otherwise the critical point exists iff the load has a component
    on the ground eigenspace or the boundary limit of D' at -lambda_1,
    1/2 sum tail^2/gap^2 - V*'(-lambda_1), is positive. ``boundary_lhs`` is
    reported wherever V*' is defined at -lambda_1 (a barrier conjugate's
    only inside its open domain) and is NaN elsewhere.
    """
    lam1 = float(sd.lambdas[0])
    head_inf = float(np.max(np.abs(sd.f_hat[:sd.k]), initial=0.0))
    threshold = HEAD_COMPONENT_RTOL * float(np.linalg.norm(sd.f_hat))
    lhs = float("nan")
    if not conj.barrier or conj.lo < -lam1 < conj.hi:
        tail = sd.f_hat[sd.k:]
        gaps = sd.lambdas[sd.k:] - lam1
        lhs = 0.5 * float(np.sum(tail ** 2 / gaps ** 2)) - float(conj.slope(-lam1))
    if conj.lo > -lam1 or (conj.lo == -lam1 and conj.barrier):
        verdict = ExistenceVerdict.UNCONDITIONAL
    elif -lam1 >= conj.hi:
        verdict = ExistenceVerdict.UNBOUNDED
    else:
        verdict = (ExistenceVerdict.EXISTS if head_inf > threshold or lhs > 0.0
                   else ExistenceVerdict.NOT_EXISTS)
    return {
        "verdict": verdict,
        "lambda_min": lam1,
        "multiplicity": sd.k,
        "head_component_inf": head_inf,
        "head_threshold": threshold,
        "boundary_lhs": lhs,
    }


# ---------------------------------------------------------------------------
# root finding

def refine(fn, a: float, b: float, fa: float, tol: float, fprime=None):
    """Safeguarded Newton/bisection on a bracket [a, b] where fn changes
    sign (fa = fn(a)), for the fast paths' root searches.

    Stops when |fn| <= tol, when the bracket is narrower than
    1e-16 (1 + |x|), or after MAX_ITER iterations. Newton steps that leave
    the bracket fall back to bisection. Returns (x, fn(x), iterations).
    """
    x = 0.5 * (a + b)
    for it in range(1, MAX_ITER + 1):
        fx = fn(x)
        if abs(fx) <= tol or (b - a) <= 1e-16 * (1.0 + abs(x)):
            return x, fx, it
        if fa * fx <= 0.0:
            b = x
        else:
            a, fa = x, fx
        nxt = None
        if fprime is not None:
            d = fprime(x)
            if np.isfinite(d) and d != 0.0:
                nxt = x - fx / d
        if nxt is None or not np.isfinite(nxt) or not (a < nxt < b):
            nxt = 0.5 * (a + b)
        x = nxt
    return x, fn(x), MAX_ITER


def _approach(fn, end: float, step: float, direction: float, floor: float):
    """First x = end + direction t, for t = step, step/4, ... down to
    floor, with direction fn(x) > 0, as (x, fn(x)); None when there is
    none."""
    t = step
    while t > floor:
        x = end + direction * t
        fx = fn(x)
        if direction * fx > 0.0:
            return x, fx
        t /= 4.0
    return None


def maximise(sd: SpectralData, conj: Conjugate, verdict: ExistenceVerdict,
             deriv, second=None) -> tuple[float, int]:
    """Maximiser of D over the positive region and the iterations spent.

    ``verdict`` is the :func:`existence` verdict and ``deriv`` evaluates D'
    (the fast paths pass their public functions, so their evaluations stay
    countable under their own names); with ``second`` (D'') the root is
    refined by Newton steps, otherwise by bisection. Raises
    :class:`UnboundedError` when the positive region is empty and
    :class:`NoDualCriticalPointError` when it holds no critical point (a
    relatively hard instance); each error's context carries ``verdict``,
    the verdict's value, for the report of the limit.

    D' is strictly decreasing on the positive region (lo, hi), and its root
    is bracketed by approaching both ends with shrinking offsets
    (:func:`_approach`), so a root hugging an end more closely than the
    last offset is not resolved: REACH max(1, |end|), except that the left
    end of a finite interval is followed down to REACH_FINITE_LEFT (hi - lo).
    An infinite right end is approached by doubling the distance from lo.
    """
    lam1 = float(sd.lambdas[0])
    if verdict == ExistenceVerdict.UNBOUNDED:
        raise UnboundedError("objective unbounded below: the positive region "
                             "is empty", lambda_min=lam1, verdict=verdict.value)
    if verdict == ExistenceVerdict.NOT_EXISTS:
        raise NoDualCriticalPointError(
            "no dual critical point in the positive-definite region, a "
            "relatively hard instance", verdict=verdict.value)
    lo, hi = max(-lam1, conj.lo), conj.hi
    if conj.lo > -lam1 and not conj.barrier and deriv(lo) <= 0.0:
        return lo, 0                      # maximum attained at the closed end
    # a bounded domain is stepped by its width, with an absolute stopping
    # floor; an unbounded one scales both by the data
    if np.isfinite(hi):
        step, floor, reach = 0.25 * (hi - lo), 1e-13, REACH_FINITE_LEFT * (hi - lo)

        def right_end(a):
            found = _approach(deriv, hi, min(step, 0.5 * (hi - a)), -1.0,
                              REACH * max(1.0, abs(hi)))
            return None if found is None else found[0]
    else:
        scale = 1.0 + abs(lam1) + abs(conj.lo)
        step, floor, reach = max(0.1 * scale, 1.0), 1e-14 * scale, REACH * max(1.0, abs(lo))

        def right_end(a):
            t = a + step
            for _ in range(200):
                if deriv(t) <= 0.0:
                    return t
                t = lo + 2.0 * (t - lo)
            return None
    left = _approach(deriv, lo, step, 1.0, reach)
    b = None if left is None else right_end(left[0])
    if b is None:
        raise NoDualCriticalPointError(
            "existence predicted a positive-region critical point but "
            "bracketing found none", lower=lo, verdict=verdict.value)
    root, _, iters = refine(deriv, left[0], b, left[1], max(GRAD_TOL, floor), fprime=second)
    return root, iters


def _secular_terms(sd: SpectralData, conj: Conjugate, s: np.ndarray) -> np.ndarray:
    """Rows s, S, S', V*' at an array of points, where
    S(s) = 1/2 sum f_hat_i^2 / (lambda_i + s)^2, so that D' = S - V*'."""
    s, shifted = _shifted(sd, conj, s)
    inv_sq = 1.0 / shifted ** 2
    return np.stack([s, 0.5 * (sd.f_hat ** 2 @ inv_sq), -(sd.f_hat ** 2 @ (inv_sq / shifted)),
                     conj.slope(s)])


def critical_points(sd: SpectralData, conj: Conjugate) -> list[float]:
    """All roots of D' on a bounded domain minus the poles (a boundary
    margin kept at each end of every pole-free interval).

    An enclosure search: on a pole-free sub-interval [u, v], S is convex and
    V*' increasing, so D' = S - V*' lies between (the end tangents' lower
    bound of S) - V*'(v) and max(S(u), S(v)) - V*'(u). A sub-interval whose
    enclosure of D' excludes 0 holds no root and is dropped. One where S is
    decreasing (S'(v) < 0, S' being increasing) has D' strictly decreasing,
    so it holds at most one root, which :func:`refine` resolves when the
    ends bracket it (as it does for a sub-interval bisected down to
    STOP_RTOL); every other sub-interval is bisected. This is interval
    branch and bound with exclusion tests (Hansen & Walster, Global
    Optimization Using Interval Analysis, 2004). All pending sub-intervals
    of all pole intervals are evaluated together, one array per round. A
    trimmed end where |D'| <= GRAD_TOL is reported as a root as well.
    """
    poles = sorted({float(-lam) for lam in sd.lambdas if conj.lo < -lam < conj.hi})
    edges = np.array([conj.lo] + poles + [conj.hi])
    width = np.diff(edges)
    keep = width > 4.0 * BOUNDARY_MARGIN
    if not keep.any():
        return []
    margin = np.maximum(BOUNDARY_MARGIN, 1e-9 * width[keep])
    left = _secular_terms(sd, conj, edges[:-1][keep] + margin)
    right = _secular_terms(sd, conj, edges[1:][keep] - margin)
    roots = [float(end[0]) for end in np.hstack([left, right]).T
             if abs(end[1] - end[3]) <= GRAD_TOL]
    deriv = lambda s: derivative(sd, conj, s)
    while True:
        (u, S_u, dS_u, slope_u), (v, S_v, dS_v, slope_v) = left, right
        D_u, D_v = S_u - slope_u, S_v - slope_v
        # lowest point of the larger of the end tangents of the convex S
        den = dS_u - dS_v
        t = np.clip((S_v - S_u - dS_v * (v - u)) / np.where(den < 0.0, den, -1.0), 0.0, v - u)
        S_lo = np.where(dS_u >= 0.0, S_u, np.where(dS_v <= 0.0, S_v,
                                                  np.minimum(S_u + dS_u * t, S_v)))
        S_hi = np.maximum(S_u, S_v)
        slack = ENCLOSURE_ULPS * np.finfo(float).eps * (S_hi + np.abs(slope_u) + np.abs(slope_v))
        open_ = (S_lo - slope_v <= slack) & (S_hi - slope_u >= -slack)
        # S' increases, so S'(v) < 0 makes D'' = S' - V*'' negative throughout
        settled = open_ & ((dS_v < 0.0) | (v - u <= STOP_RTOL * (np.abs(u) + np.abs(v))))
        for i in np.nonzero(settled & (D_u * D_v <= 0.0))[0]:
            roots.append(refine(deriv, float(u[i]), float(v[i]), float(D_u[i]), GRAD_TOL)[0])
        split = open_ & ~settled
        if not split.any():
            break
        mid = _secular_terms(sd, conj, 0.5 * (u[split] + v[split]))
        left = np.hstack([left[:, split], mid])
        right = np.hstack([mid, right[:, split]])
    dedup: list[float] = []
    for root in sorted(roots):
        if not dedup or root - dedup[-1] > 1e-9:
            dedup.append(root)
    return dedup


# ---------------------------------------------------------------------------
# whitening

def whitened(M: np.ndarray, A: np.ndarray, what: str, rtol: float = 1e-12,
             error: type = ShapeMismatchError) -> tuple[np.ndarray, np.ndarray]:
    """(W, W'AW) for a W with W'MW = I, for a positive definite weight M;
    raises ``error`` (with ``min_eig``) unless the eigenvalues of M have
    w_min > rtol (1 + |w_max|).

    A diagonal M (every off-diagonal entry exactly zero) is scaled, with no
    factorisation: its eigenvalues are its diagonal d, which decides the
    test exactly, and W = diag(d^{-1/2}) is bit for bit the L^{-T} of the
    Cholesky route, since the factor of a diagonal M is diag(sqrt(d)). It
    scales the rows and columns of A in O(n^2), with the rounding of the
    dense product (W'A)W: each of its sums has one nonzero term.

    Any other M is whitened by W = L^{-T} from its Cholesky factor M = LL'.
    The factor decides the test without eigenvalues unless M is badly
    conditioned. A Cholesky factorisation fails only when w_min is below
    or within rounding of zero, and such an M is rejected. Since
    w_max <= trace(M) and w_min >= 1 / ||L^{-1}||_F^2, the bound
    rtol (1 + trace(M)) ||L^{-1}||_F^2 < 1 admits M. Only where that bound
    fails, which needs w_min <= 2 n^2 rtol max(1, w_max), does ``eigvalsh``
    decide.
    """
    W, scale = _whitening(M, what, rtol, error)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite names it
        if scale is not None:
            return W, (scale[:, None] * A) * scale
        return W, (W.T @ A) @ W


def require_finite(A: np.ndarray, f: np.ndarray, what: str,
                   error: type = ShapeMismatchError) -> None:
    """Raise ``error`` when the whitened A or f has overflowed: an admitted
    weight can still have eigenvalues small enough that W'AW or W'f leaves
    the floats, and the spectrum of a non-finite A decides nothing. This
    error is the only report of such an overflow: :func:`whitened` and the
    callers' W'f products overflow without a warning."""
    if not (np.isfinite(A).all() and np.isfinite(f).all()):
        raise error(f"whitening by the {what} overflows A or f")


def _whitening(M: np.ndarray, what: str, rtol: float, error: type):
    """(W, the diagonal of W when M is diagonal, else None); see :func:`whitened`."""
    d = np.diagonal(M)
    if np.count_nonzero(M) == np.count_nonzero(d):
        if not d.min() > rtol * (1.0 + abs(d.max())):
            raise error(f"{what} must be positive definite", min_eig=float(d.min()))
        scale = 1.0 / np.sqrt(d)
        return np.diag(scale), scale
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = None
    if L is not None:
        L_inv = _lower_inverse(L)
        if rtol * (1.0 + float(np.trace(M))) * float(np.sum(L_inv * L_inv)) < 1.0:
            return L_inv.T, None
    w = np.linalg.eigvalsh(M)
    if L is None or w[0] <= rtol * (1.0 + abs(w[-1])):
        raise error(f"{what} must be positive definite", min_eig=float(w[0]))
    return L_inv.T, None


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular L, by halves: the inverse of
    [[P, 0], [R, S]] is [[P^{-1}, 0], [-S^{-1} R P^{-1}, S^{-1}]]. (numpy
    has no triangular inverse, and a general one is five times slower at
    n = 400.)"""
    n = L.shape[0]
    if n < 64:
        return np.linalg.inv(L)
    h = n // 2
    P_inv, S_inv = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = P_inv
    out[h:, h:] = S_inv
    out[h:, :h] = -S_inv @ (L[h:, :h] @ P_inv)
    return out

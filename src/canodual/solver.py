"""Dual solvers: global ascent, multistart critical-point search, triality.

``solve_global`` maximizes the dual over the region where G(zeta) is
positive definite. There the dual Hessian is negative definite, so the
dual's one critical point in the region, when it exists, is the maximiser.
The ascent is the root search's Newton iteration from one interior point:
the same step and merit test on the squared gradient norm, with one domain
rule, ``_positive_point``, that refuses every trial with tau outside the
open simplex or G not positive definite. The region is convex, so no other
rule on tau is needed. Iterates drifting to the region boundary with a
non-vanishing gradient are reported as the hard case.

``find_critical_points`` runs seeded multistart Newton on the dual gradient
(line search on the squared gradient norm) from its first starts and from
starts harvested by a primal Newton search, deduplicates the converged
rows of that one search, and classifies every resulting primal/dual pair.
The first starts are sampled from the dual box, except for m = 1, where a
scan of the single weight replaces them (below). Both Newton searches are thin
callers of one lockstep driver, ``_lockstep_newton``, on one array of
points: each gives its stacked gradient (``dual.evaluate``,
``primal.grad_primal``) and Newton direction, and the driver owns the
iteration cap, the convergence and stop tests and the line search. A start
converges when its gradient meets the tolerance at its start or after any
allowed step, the point after the last one included. A round is one
evaluation of all pending trials: the driver takes each start's first
acceptable trial and carries that trial's gradient, its merit from the
acceptance test and its kernel output (the dual search's U, w and Mx) one
round on, into the start's next Newton step. No start reads another's
data, so each ends bitwise as it would alone, and a search ends when no
start is left running.

The driver backtracks in batches: each round evaluates a batch of halvings
of every running start's first trial step, sized from that start's own
history (``_trial_round``): t0 alone after a full step, else up to 8
halvings past the one its previous step accepted, then doubling. A start
crawling next to a singular G thus takes about one round per step instead
of several. The accepted trial is still the first acceptable one in
halving order, so the batch sizes change only how many evaluations a
search makes, never its result.

For m = 1 the first starts are the points of a scan
(``_univariate_roots``): the dual derivative on a grid of the single weight
in one call of the gradient-only kernel ``dual.gradients`` (one stacked LU
solve, no eigendecomposition), and for every sign-change cell its secant
point and both ends. The scan only brackets; the Newton search refines.
The sampled starts are still drawn, since the primal seeds follow them in
the generator's stream.

Every other dual evaluation inside the solvers calls the stacked eigen
kernel of ``dual`` (``dual.evaluate`` and ``dual.hessians``) on a (k, m)
array of flat dual vectors; the ascent and its interior start pass one row
at a time. The Newton steps of both searches solve through
``dual.solve_rows``, the one stacked solve. ``find_critical_points`` keeps its
starts, the primal seeds (``primal.duality_map`` on a stack) and its roots
as flat arrays; ``make_pair`` and ``triality_classify``, at the API edge,
take a ``DualPoint`` and call the per-point functions of ``dual``.

Classification semantics at a dual critical point zeta with recovered x:

* G(zeta) positive definite  -> x is the global minimizer.
* G(zeta) negative definite  -> second-derivative labels of both sides are
  compared: two maxima pair up; two minima pair up only when m = n; a dual
  minimum with m < n forces a primal saddle; a primal minimum with m > n
  forces a dual saddle; anything else is a saddle or unclassified.
* indefinite or singular G   -> unclassified.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import dual as _dual
from . import primal as _primal
from .dual import BOUNDARY_MARGIN, GRAD_TOL
from .errors import DomainError, HardCaseError, NotCriticalError, SingularMatrixError
from .model import (
    Classification,
    CriticalPair,
    DualPoint,
    ExistenceVerdict,
    ProblemInstance,
    Region,
    SolveReport,
)


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 200
    num_starts: int = 64
    seed: int = 42

    def __post_init__(self):
        for name in ("max_iter", "num_starts", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)  # ints and numpy integers
            except TypeError:
                raise ValueError(f"SolverConfig.{name} must be an integer, "
                                 f"got {value!r}") from None
        if self.num_starts < 1 or self.max_iter < 1:
            raise ValueError("num_starts and max_iter must be >= 1")
        if self.seed < 0:
            raise ValueError(f"SolverConfig.seed must be >= 0, got {self.seed!r}")


DEFAULT_CONFIG = SolverConfig()

# A pair whose duality gap exceeds GAP_RTOL * (1 + |primal value|) is not a
# critical pair (the zero-gap tolerance of acceptance criterion 4).
GAP_RTOL = 1e-6


def _positive_point(inst: ProblemInstance, z: np.ndarray) -> Optional[_dual.Points]:
    """The one-row evaluation at z when tau is interior and G(z) is positive
    definite, else None."""
    pts = _dual.evaluate(inst, z[None])
    return pts if pts.valid[0] and pts.w[0, 0] > 0.0 else None


def _tau_step_caps(tau: np.ndarray, dtau: np.ndarray) -> np.ndarray:
    """Per row of ``tau`` (k, p) and step ``dtau``, the largest step keeping
    each tau_i and the simplex slack above both a 1 - 0.995 fraction of their
    current values (the fraction-to-boundary rule) and ``BOUNDARY_MARGIN``.

    The floor makes the margin-interior simplex the root search's working
    domain: roots hugging the boundary closer than the margin are outside
    the search by design (their iterates stall at the floor and are
    discarded).
    """
    if tau.shape[1] == 0:
        return np.full(len(tau), np.inf)
    value = np.concatenate([tau, 1.0 - tau.sum(axis=1, keepdims=True)], axis=1)
    fall = np.concatenate([-dtau, dtau.sum(axis=1, keepdims=True)], axis=1)  # per unit step
    allowed = np.maximum(value - np.maximum(BOUNDARY_MARGIN, (1.0 - 0.995) * value), 0.0)
    cap = np.divide(allowed, fall, out=np.full(value.shape, np.inf), where=fall > 0.0)
    return cap.min(axis=1)


# ---------------------------------------------------------------------------
# start sampling

def _stratified_uniforms(rng: np.random.Generator, num: int, dims: int) -> np.ndarray:
    """Latin-hypercube sample of [0, 1)^dims: stratified per coordinate so
    the starts cover the box without clumping."""
    if dims == 0:
        return np.zeros((num, 0))
    strata = np.stack([rng.permutation(num) for _ in range(dims)], axis=1)
    return (strata + rng.uniform(0.0, 1.0, (num, dims))) / num


def _tau_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Rows tau (k, p) from the uniforms u (k, p + 1): a flat Dirichlet over
    (tau, slack) via exponential spacings, kept ``BOUNDARY_MARGIN`` inside
    the simplex; the simplex centre for a row of zeros."""
    p = u.shape[1] - 1
    w = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-12))
    total = w.sum(axis=1, keepdims=True)
    tau = np.full((len(u), p), 1.0 / (p + 1))
    np.divide(w[:, :p], total, out=tau, where=total > 0)
    tau = np.maximum(tau, BOUNDARY_MARGIN)
    total = tau.sum(axis=1)
    crowded = total >= 1.0 - BOUNDARY_MARGIN
    tau[crowded] *= ((1.0 - (p + 1) * BOUNDARY_MARGIN) / total[crowded])[:, None]
    return tau


def _sigma_box(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-component sampling interval for sigma.

    Anchored at alpha_i c_i (the smallest constitutive value when B_i is
    positive semidefinite) and widened past +-||A||_2 so the box itself
    spans every definiteness change of G.
    """
    norm_a = float(np.max(np.abs(np.linalg.eigvalsh(inst.A))))
    anchor = inst.alpha * inst.c
    spread = 10.0 * (1.0 + norm_a / inst.alpha)
    lo = np.minimum(anchor, -norm_a) - spread
    hi = np.maximum(anchor, norm_a) + spread
    return lo, hi


def _sample_starts(inst: ProblemInstance, cfg: SolverConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """``cfg.num_starts`` dual starts as rows (tau, sigma) of a (k, m) array."""
    lo, hi = _sigma_box(inst) if inst.r else (np.zeros(0), np.zeros(0))
    u_tau = _stratified_uniforms(rng, cfg.num_starts, inst.p + 1 if inst.p else 0)
    u_sigma = _stratified_uniforms(rng, cfg.num_starts, inst.r)
    tau = _tau_from_uniforms(u_tau) if inst.p else np.zeros((cfg.num_starts, 0))
    sigma = lo + u_sigma * (hi - lo)
    return np.hstack([tau, sigma])


def _primal_seeded_starts(inst: ProblemInstance, cfg: SolverConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """Rows of dual starts harvested from primal critical points.

    Primal critical points and dual critical points are in bijection
    through the constitutive map wherever G is nonsingular, and the primal
    basins (especially of local minima, which pair with dual saddles) are
    far larger than the thin dual merit basins near singular points. A
    short Newton root find on the primal gradient gives starts that the
    dual Newton search then polishes cheaply.
    """
    fscale = 1.0 + float(np.max(np.abs(inst.f), initial=0.0))
    X0 = rng.standard_normal((max(2, cfg.num_starts // 8), inst.n)) * (2.5 * fscale)
    X, converged = _primal_roots(inst, X0, 1e-8 * fscale)
    Z = _primal.duality_map(inst, X[converged])
    if inst.p:  # keep the rows with tau inside the margin-interior simplex
        tau = Z[:, :inst.p]
        Z = Z[(tau.min(axis=1) > BOUNDARY_MARGIN) & (tau.sum(axis=1) < 1.0 - BOUNDARY_MARGIN)]
    return Z


def _univariate_roots(inst: ProblemInstance) -> np.ndarray:
    """The first starts of the search on an m = 1 instance: a sign-change
    scan of the dual derivative over the sampling interval of the single
    weight, three points per sign-change cell [a, b] as rows of a (k, 1)
    array: its secant point a + fa / (fa - fb) (b - a) (the midpoint when
    fa = fb), then a, then b.

    Multistart Newton from sampled points can step over thin basins next to
    the singular points of G; a dense grid is cheap in one variable and puts
    a bracket around every sign change of the dual derivative. The grid is
    the scan's one call of ``dual.gradients``, whose stacked LU solve
    costs a fraction of the eigen kernel's ``eigh`` on the 4,096 rows; a
    row where LAPACK finds G singular is NaN and bounds no cell. The scan
    only brackets: the Newton search decides which of the points lead to
    roots (a cell around a pole of G^{-1} brackets the pole, not a root),
    and a cell's ends reach roots its secant point misses.
    """
    if inst.r == 1:
        lo, hi = _sigma_box(inst)
        grid = np.linspace(float(lo[0]), float(hi[0]), 4096)
    else:
        grid = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, 4096)
    vals = _dual.gradients(inst, grid[:, None])[:, 0]
    finite = np.isfinite(vals)
    change = np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0  # a product may underflow
    cells = np.nonzero(finite[:-1] & finite[1:] & change)[0]
    a, b, fa, fb = grid[cells], grid[cells + 1], vals[cells], vals[cells + 1]
    share = np.divide(fa, fa - fb, out=np.full(cells.size, 0.5), where=fa != fb)
    return np.column_stack([a + share * (b - a), a, b]).reshape(-1, 1)


def _interior_start(inst: ProblemInstance, cfg: SolverConfig,
                    rng: np.random.Generator) -> Optional[tuple[np.ndarray, _dual.Points]]:
    """A point with tau interior and G(zeta) positive definite, with its
    one-row evaluation, or None.

    When sum(B) is positive definite, G = M + s sum(B) is positive definite
    for a large enough s, whatever the signs of the single B_i, so the
    first try is that lift with every sigma_i = s, unless s overflows; then
    sampled starts."""
    tau0 = np.full(inst.p, 0.5 / max(inst.p, 1))[:inst.p]
    if inst.r:
        wB = np.linalg.eigvalsh(inst.B_stack.sum(axis=0))
        if wB[0] > 1e-12:
            M = inst.curvature(tau0, np.zeros(inst.r))
            ell = float(np.linalg.eigvalsh(M)[0])
            scale = 1.0 + float(np.max(np.abs(inst.A)))
            s = max(0.0, (-ell + 0.05 * scale + 0.5)) / float(wB[0])  # inf on overflow
            z = np.concatenate([tau0, np.full(inst.r, s)])
            pts = _positive_point(inst, z) if np.isfinite(s) else None
            if pts is not None:
                return z, pts
    # one start at a time: the first one usually succeeds
    for z in _sample_starts(inst, cfg, rng):
        pts = _positive_point(inst, z)
        if pts is not None:
            return z, pts
    return None


# ---------------------------------------------------------------------------
# Newton drivers

# The line search of the dual Newton iteration, in the root search and the
# ascent alike: a trial t of the first step length is accepted when
# 1/2 ||g||^2 falls by the factor 1 - _DECREASE * t, and halving stops at
# _STEP_FLOOR.
_STEP_FLOOR = 1e-16
_DECREASE = 2e-4


def _newton_ascent(inst: ProblemInstance, z: np.ndarray, pts: _dual.Points,
                   cfg: SolverConfig):
    """The root search's Newton iteration kept inside the positive region,
    from z with its one-row evaluation ``pts``: the step of
    :func:`_directions`, every line search from t = 1, and a trial accepted
    only where :func:`_positive_point` holds (tau in the open simplex, G
    positive definite) and the merit test of :func:`_lockstep_newton` holds.
    That region is convex and the dual is strictly concave on it, so its
    one root is the maximiser, and no cap on tau is needed: a trial outside
    the simplex fails the test without a factorisation of G. Halvings are
    tried one row at a time: G's factorisation is most of a trial's cost at
    large n, and the first trial is usually accepted.

    Returns (z, pts, iterations, converged) at the last accepted point; an
    ascent whose merit 1/2 ||g||^2 is not finite stops there unconverged.
    """
    for it in range(1, cfg.max_iter + 1):
        if float(np.max(np.abs(pts.grad[0]))) <= GRAD_TOL:
            return z, pts, it, True
        merit = _half_sq_norms(pts.grad)[0]
        if not np.isfinite(merit):
            return z, pts, it, False
        step, flat = _directions(inst, z[None, :inst.p], pts)
        if flat[0]:
            return z, pts, it, False
        t = 1.0
        while t > _STEP_FLOOR:
            trial = z + t * step[0]
            trial_pts = _positive_point(inst, trial)
            if (trial_pts is not None and
                    _half_sq_norms(trial_pts.grad)[0] <= merit * (1.0 - _DECREASE * t)):
                break
            t *= 0.5
        else:
            return z, pts, it, False
        z, pts = trial, trial_pts
    return z, pts, cfg.max_iter, float(np.max(np.abs(pts.grad[0]))) <= GRAD_TOL


def _directions(inst: ProblemInstance, tau: np.ndarray, pts: _dual.Points):
    """Newton steps -J^{-1} g at the valid points ``pts`` (only their grad,
    U, w and Mx are read), with steepest descent -J g on the merit
    function, scaled to unit max-norm, where the Newton step is not finite.
    Returns (steps, flat): ``flat`` marks the points where that descent
    direction is zero."""
    J = _dual.hessians(inst, tau, pts.Mx.transpose(0, 2, 1), pts.U, pts.w)
    g = pts.grad
    steps = _dual.solve_rows(J, -g)
    flat = np.zeros(len(g), dtype=bool)
    descent = ~np.all(np.isfinite(steps), axis=1)
    if descent.any():
        sd = (-J[descent] @ g[descent][..., None])[..., 0]
        size = np.abs(sd).max(axis=1)
        flat[descent] = size == 0.0
        steps[descent] = sd / np.where(size == 0.0, 1.0, size)[:, None]
    return steps, flat


def _half_sq_norms(g: np.ndarray) -> np.ndarray:
    """1/2 g'g per row, rounded as the 1-D ``g @ g`` of one point is; inf,
    with no warning, where it overflows."""
    with np.errstate(over="ignore"):
        return 0.5 * (g[:, None, :] @ g[:, :, None])[:, 0, 0]


# The line-search batch sizing of the lockstep searches: a start's first
# batch reaches this many halvings past the one it accepted on its previous
# step, and each later batch tries at least this many further halvings.
_HALVINGS_PER_ROUND = 8


def _trial_round(running: np.ndarray, tried: np.ndarray, last: np.ndarray,
                 t0: np.ndarray, floor: float):
    """The trial steps of one line-search round of a lockstep search.

    Each running start sizes its batch from its own history only. The first
    batch of a line search runs from halving 0 of t0 up to
    ``_HALVINGS_PER_ROUND`` past ``last``, the halving the start accepted on
    its previous step; it is t0 alone when that step took the full t0 (or
    there was none). Each later batch doubles the halvings tried so far,
    with at least ``_HALVINGS_PER_ROUND``. A start whose next trial is at
    most ``floor`` has exhausted its backtracking and stops running, so the
    round has no trials exactly when no start is left running.

    The batch decides only how many trials share a kernel call: every trial
    is the same t0 * 0.5**h and its stacked row is evaluated independently
    of the others, and the caller accepts the first acceptable trial in
    halving order, so a start ends bitwise as under any other batching.

    Advances ``tried`` (halvings of t0 tried per start) and returns
    (owner, t, halving): the start, step length and halving index of every
    trial, grouped by start in halving order.
    """
    L = running.nonzero()[0]
    done, hint = tried[L], last[L]
    first = np.where(hint > 0, hint + _HALVINGS_PER_ROUND + 1, 1)
    batch = np.where(done > 0, np.maximum(done, _HALVINGS_PER_ROUND), first)
    owner = L.repeat(batch)
    lead = batch.cumsum() - batch  # each start's first trial
    halving = (done - lead).repeat(batch) + np.arange(owner.size)
    t = t0[owner] * 0.5 ** halving
    tried[L] = done + batch
    live = t > floor
    if live.all():
        return owner, t, halving
    running[L[~live[lead]]] = False
    return owner[live], t[live], halving[live]


def _first_acceptable(owner: np.ndarray, ok: np.ndarray):
    """(start, trial index) of the first acceptable trial of each start,
    for trials grouped by start in halving order."""
    first = ok.nonzero()[0]
    start = owner[first]
    lowest = np.ones(first.size, dtype=bool)
    lowest[1:] = start[1:] != start[:-1]
    return start[lowest], first[lowest]


def _lockstep_newton(evaluate, direction, X0: np.ndarray, max_iter: int, tol: float,
                     floor: float, decrease: float):
    """Newton iteration on g = 0 with backtracking on 1/2 ||g||^2, run in
    lockstep from every row of X0 (k, n): the one line-search loop of both
    root searches.

    ``evaluate(X)`` gives (valid, g, state) for a stack of points: the rows
    that can be stepped from, the gradients (k, n) and a sequence of
    per-row arrays the caller needs for its steps. ``direction(X, g,
    state)`` gives (step, t0, stop) for the running rows: the steps, their
    first trial lengths and the rows to stop at. A start converges when
    ||g||_inf <= tol at its start or after any of its first ``max_iter``
    steps; it stops unconverged there, at an invalid or non-finite point,
    where ``stop`` says so, or when no trial down to ``floor`` lowers the
    merit by the factor 1 - decrease * t. A round evaluates the pending
    trials of all starts in one call, takes each start's first acceptable
    trial, and hands that trial's rows of g and state, and its merit from
    the acceptance test, straight to the start's next step; no start reads
    another's data, so every row ends exactly as it would alone.

    Returns (X, iterations, converged), one row or entry per start.
    """
    X = np.array(X0, dtype=float)
    k = len(X)
    iters = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    running = np.zeros(k, dtype=bool)
    step = np.zeros_like(X)
    t0 = np.zeros(k)                # first trial step length
    tried = np.zeros(k, dtype=int)  # halvings of t0 already tried
    last = np.zeros(k, dtype=int)   # halving accepted on the previous step
    valid, g, state = evaluate(X)
    merit = _half_sq_norms(g)       # 1/2 ||g||^2 at each start's point
    S = at = valid.nonzero()[0]     # the starts at a new point, their rows of g
    gS = g[at]
    while True:
        it = iters[S] + 1
        capped = it > max_iter
        iters[S] = np.minimum(it, max_iter)
        ginf = np.abs(gS).max(axis=1)
        converged[S] = done = ginf <= tol
        running[S] = go = ~(capped | done) & np.isfinite(ginf)
        if not go.all():
            S, at, gS = S[go], at[go], gS[go]
        if S.size:
            step[S], t0[S], stop = direction(X[S], gS, [a[at] for a in state])
            running[S[stop]] = False
            tried[S] = 0
        owner, t, halving = _trial_round(running, tried, last, t0, floor)
        if owner.size == 0:  # no start is running
            return X, iters, converged
        Xt = X[owner] + t[:, None] * step[owner]
        valid, g, state = evaluate(Xt)
        trial_merit = _half_sq_norms(g)
        ok = (valid & np.isfinite(g).all(axis=1)
              & (trial_merit <= merit[owner] * (1.0 - decrease * t)))
        S, at = _first_acceptable(owner, ok)
        last[S] = halving[at]
        X[S] = Xt[at]
        merit[S] = trial_merit[at]
        gS = g[at]


def _newton_roots(inst: ProblemInstance, Z0: np.ndarray, cfg: SolverConfig):
    """The dual root search: :func:`_lockstep_newton` on the dual gradient
    from every row of Z0 (k, m), with the steps of :func:`_directions`, the
    first trial capped by the fraction-to-boundary rule on tau, and at most
    ``cfg.max_iter`` steps per start.

    Returns (Z, iterations, converged); merit-stationary non-roots are
    reported unconverged so the caller can discard them.
    """
    p = inst.p

    def evaluate(Z):
        pts = _dual.evaluate(inst, Z)
        return pts.valid, pts.grad, (pts.U, pts.w, pts.Mx)

    def direction(Z, g, state):
        U, w, Mx = state
        dz, flat = _directions(inst, Z[:, :p], _dual.Points(None, g, U, w, Mx))
        t0 = np.minimum(1.0, _tau_step_caps(Z[:, :p], dz[:, :p]))
        return dz, t0, flat

    return _lockstep_newton(evaluate, direction, Z0, cfg.max_iter, GRAD_TOL,
                            _STEP_FLOOR, _DECREASE)


# Newton steps of each primal-seeded start
_PRIMAL_ITERATIONS = 39


def _primal_roots(inst: ProblemInstance, X0: np.ndarray, tol: float):
    """The primal harvest: :func:`_lockstep_newton` on the primal gradient
    from every row of X0 (k, n), with at most ``_PRIMAL_ITERATIONS`` full
    Newton steps per start, falling back to -grad where the Hessian solve
    fails or is not finite.

    Returns (X, converged), one row or entry per start.
    """
    def evaluate(X):
        return np.ones(len(X), dtype=bool), _primal.grad_primal(inst, X), ()

    def direction(X, g, _):
        dx = _dual.solve_rows(_primal.hess_primal(inst, X), -g)
        descent = ~np.isfinite(dx).all(axis=1)
        dx[descent] = -g[descent]
        return dx, np.ones(len(X)), np.zeros(len(X), dtype=bool)

    X, _, converged = _lockstep_newton(evaluate, direction, X0, _PRIMAL_ITERATIONS,
                                       tol, 1e-14, 1e-4)
    return X, converged


def _dedup(Z: np.ndarray) -> np.ndarray:
    """The rows of Z (k, m), in order, that are farther than
    1e-6 (1 + ||u||) in max-norm from every earlier kept row u: each row is
    tested against all kept rows in one comparison."""
    kept = np.empty_like(Z)
    tol = np.empty(len(Z))  # 1e-6 (1 + ||u||) of each kept row u
    count = 0
    for z in Z:
        if not (np.abs(z - kept[:count]).max(axis=1, initial=0.0) <= tol[:count]).any():
            kept[count] = z
            tol[count] = 1e-6 * (1.0 + float(np.linalg.norm(z)))
            count += 1
    return kept[:count]


# ---------------------------------------------------------------------------
# classification

def _definiteness_label(eigs: np.ndarray, tol: float) -> Classification:
    lo, hi = float(eigs.min()), float(eigs.max())
    if lo > tol:
        return Classification.LOCAL_MIN
    if hi < -tol:
        return Classification.LOCAL_MAX
    if lo < -tol and hi > tol:
        return Classification.SADDLE
    return Classification.UNCLASSIFIED


def _factor(inst: ProblemInstance, zeta: DualPoint,
            factor: Optional[_dual.ShiftedHessian] = None) -> Optional[_dual.ShiftedHessian]:
    """The factorisation of G(zeta) (``factor``, else assembled) where the
    dual's derivatives are defined (see :func:`dual._defined_at`), else None."""
    try:
        return _dual._defined_at(inst, zeta, factor, "derivatives")
    except (DomainError, SingularMatrixError):
        return None


def triality_classify(inst: ProblemInstance, pair: CriticalPair,
                      factor: Optional[_dual.ShiftedHessian] = None) -> CriticalPair:
    """Attach triality labels and the dual gradient residual to a critical pair.

    Raises :class:`NotCriticalError` when the dual gradient residual exceeds
    ten times the solver tolerance. Near the domain boundary the dual
    curvature can be so large that no float-representable point resolves the
    gradient that finely; the filter therefore never demands more than the
    attainable precision eps * ||hessian|| * (1 + ||zeta||). ``factor``, when
    given, is the nonsingular factorisation of G(pair.zeta) with tau in the
    open simplex, which is then not built again.
    """
    G = factor if factor is not None else _factor(inst, pair.zeta)
    if G is None:
        return replace(pair, region=Region.SINGULAR,
                       classification=Classification.UNCLASSIFIED)
    resid = float(np.max(np.abs(_dual.grad_dual(inst, pair.zeta, factor=G)), initial=0.0))
    Hd = _dual.hess_dual(inst, pair.zeta, factor=G)
    zeta_scale = 1.0 + float(np.max(np.abs(pair.zeta.vector()), initial=0.0))
    attainable = np.finfo(float).eps * float(np.max(np.abs(Hd))) * zeta_scale
    limit = max(10.0 * GRAD_TOL, 1e3 * attainable)
    if resid > limit:
        raise NotCriticalError("dual gradient too large for classification",
                               residual=resid, limit=limit)
    region = G.region
    if region == Region.SA_PLUS:
        return replace(pair, region=region, residual=resid,
                       classification=Classification.GLOBAL_MIN,
                       primal_label=Classification.GLOBAL_MIN,
                       dual_label=Classification.LOCAL_MAX)

    Hp = _primal.hess_primal(inst, pair.x)
    tol_p = _dual.SING_TOL * (1.0 + float(np.max(np.abs(Hp), initial=0.0)))
    tol_d = _dual.SING_TOL * (1.0 + float(np.max(np.abs(Hd), initial=0.0)))
    lp = _definiteness_label(np.linalg.eigvalsh(Hp), tol_p)
    ld = _definiteness_label(np.linalg.eigvalsh(Hd), tol_d)

    if region != Region.SA_MINUS:
        # outside the triality hypotheses; keep the raw side labels
        return replace(pair, region=region, residual=resid,
                       classification=Classification.UNCLASSIFIED,
                       primal_label=lp, dual_label=ld)

    m, n = inst.m, inst.n
    if lp == Classification.LOCAL_MAX and ld == Classification.LOCAL_MAX:
        cls = Classification.LOCAL_MAX
    elif m == n and lp == Classification.LOCAL_MIN and ld == Classification.LOCAL_MIN:
        cls = Classification.LOCAL_MIN
    elif m < n and ld == Classification.LOCAL_MIN:
        lp = Classification.SADDLE  # forced: a primal minimum would need m >= n
        cls = Classification.SADDLE
    elif m > n and lp == Classification.LOCAL_MIN:
        ld = Classification.SADDLE
        cls = Classification.SADDLE
    elif Classification.SADDLE in (lp, ld):
        cls = Classification.SADDLE
    else:
        cls = Classification.UNCLASSIFIED
    return replace(pair, region=region, residual=resid, classification=cls,
                   primal_label=lp, dual_label=ld)


def make_pair(inst: ProblemInstance, zeta: DualPoint,
              factor: Optional[_dual.ShiftedHessian] = None) -> Optional[CriticalPair]:
    """Build and classify the critical pair at a dual root; None when tau is
    outside the open simplex, the point is singular, its duality gap
    exceeds ``GAP_RTOL * (1 + |primal value|)`` or it fails the criticality
    filter. ``factor``, when given, is the factorisation of G(zeta), which
    is then not built again."""
    G = _factor(inst, zeta, factor)
    if G is None:
        return None
    x = G.x_of_f
    pv = _primal.eval_primal(inst, x)
    dv = _dual.eval_dual(inst, zeta, factor=G)
    gap = abs(pv - dv)
    if gap > GAP_RTOL * (1.0 + abs(pv)):
        return None
    pair = CriticalPair(x=x, zeta=zeta, primal_value=pv, dual_value=dv,
                        region=G.region,
                        classification=Classification.UNCLASSIFIED,
                        gap=gap)
    try:
        return triality_classify(inst, pair, factor=G)
    except NotCriticalError:
        return None


def _sorted_pairs(pairs: list[CriticalPair]) -> list[CriticalPair]:
    return sorted(pairs, key=lambda p: (p.dual_value, tuple(p.zeta.vector())))


# ---------------------------------------------------------------------------
# public drivers

def solve_global(inst: ProblemInstance,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Certified global minimization via dual ascent in the positive region.

    Raises :class:`HardCaseError` when no interior starting point can be
    found, when the ascent's merit 1/2 ||g||^2 overflows, or when the ascent
    stalls on the region boundary (tau on the simplex edge, or G singular)
    without reaching a critical point; the known remedy is a perturbation
    of the load, which this solver does not attempt. The
    stall's context adds ``tau_min``, the smallest of tau and the simplex
    slack, when p > 0. The certificate is weak duality,
    Pi(x) >= Pi^d(zeta) on the positive-definite region, which holds for
    any number of measure components.
    """
    rng = np.random.default_rng(cfg.seed)
    start = _interior_start(inst, cfg, rng)
    if start is None:
        raise HardCaseError(
            "no strictly feasible point of the positive-definite region found")
    z, pts, iters, converged = _newton_ascent(inst, *start, cfg)
    if not converged:
        context = dict(min_eig=float(pts.w[0, 0]),
                       grad_inf=float(np.max(np.abs(pts.grad[0]))), iterations=iters)
        if inst.p:
            context["tau_min"] = float(min(z[:inst.p].min(), 1.0 - z[:inst.p].sum()))
        if not np.isfinite(_half_sq_norms(pts.grad)[0]):
            raise HardCaseError("dual ascent overflowed: the merit 1/2 |g|^2 of its "
                                "gradient is not finite", **context)
        raise HardCaseError(
            "dual ascent stalled at the boundary of the positive-definite "
            "region; no interior critical point", **context)
    pair = make_pair(inst, DualPoint.from_vector(z, inst.p))
    if pair is None or pair.region != Region.SA_PLUS:
        raise HardCaseError("ascent limit is not an interior critical point")
    return SolveReport(critical_pairs=[pair],
                       existence_verdict=ExistenceVerdict.NOT_APPLICABLE,
                       iterations=iters, residual_norm=pair.residual,
                       notes=[f"newton ascent converged in {iters} iterations"])


def find_critical_points(inst: ProblemInstance,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Multistart search for all dual critical points, classified.

    One dual Newton search runs from the first starts (``cfg.num_starts``
    sampled ones, or at m = 1 the scan's points), then from the primal
    seeds; the reported roots are its converged rows, deduplicated. The
    report's iterations and notes count the first starts. Deterministic for
    a fixed seed: starts are drawn from one seeded generator and results are
    merged order-independently (sorted by dual value, then lexicographically
    by zeta).
    """
    if inst.m > 2:
        warnings.warn(
            f"m = {inst.m} > 2 measure components: the triality labels of the "
            "non-global pairs assume a convex measure range, which is not verified",
            RuntimeWarning, stacklevel=2)
    rng = np.random.default_rng(cfg.seed)
    # the sampled starts are drawn at every m: the primal seeds follow them
    # in the generator's stream
    starts = _sample_starts(inst, cfg, rng)
    if inst.m == 1:
        starts = _univariate_roots(inst)
    Z = np.vstack([starts, _primal_seeded_starts(inst, cfg, rng)])
    iters, converged = np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    if len(Z):  # empty at m = 1 with no scanned cell and no primal seed
        Z, iters, converged = _newton_roots(inst, Z, cfg)
    # the report counts the first starts; the primal-seeded ones follow them
    first = len(starts)
    total_iters = int(iters[:first].sum())
    converged_starts = int(converged[:first].sum())
    pairs = []
    for z in _dedup(Z[converged]):
        pair = make_pair(inst, DualPoint.from_vector(z, inst.p))
        if pair is not None:
            pairs.append(pair)
    pairs = _sorted_pairs(pairs)
    residual = max((p.residual for p in pairs), default=0.0)
    notes = [f"{first} starts, {converged_starts} converged, "
             f"{len(pairs)} distinct critical points"]
    return SolveReport(critical_pairs=pairs,
                       existence_verdict=ExistenceVerdict.NOT_APPLICABLE,
                       iterations=total_iters, residual_norm=residual,
                       notes=notes)

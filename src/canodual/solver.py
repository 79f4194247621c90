"""Dual solvers: global ascent, multistart critical-point search, triality.

``solve_global`` maximizes the dual over the region where G(zeta) is
positive definite. There the dual Hessian is negative definite, so a damped
Newton ascent with a fraction-to-boundary rule on tau and an inertia guard
on G converges to the unique interior critical point whenever one exists;
iterates drifting to the region boundary with a non-vanishing gradient are
reported as the hard case.

``find_critical_points`` runs seeded multistart Newton on the dual gradient
(line search on the squared gradient norm), deduplicates the roots, and
classifies every resulting primal/dual pair.

Classification semantics at a dual critical point zeta with recovered x:

* G(zeta) positive definite  -> x is the global minimizer.
* G(zeta) negative definite  -> second-derivative labels of both sides are
  compared: two maxima pair up; two minima pair up only when m = n; a dual
  minimum with m < n forces a primal saddle; a primal minimum with m > n
  forces a dual saddle; anything else is a saddle or unclassified.
* indefinite or singular G   -> unclassified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from . import dual as _dual
from . import primal as _primal
from . import univariate
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
    grad_tol: float = 1e-10
    max_iter: int = 200
    num_starts: int = 64
    seed: int = 42
    boundary_margin: float = 1e-8
    sing_tol: float = 1e-10

    def __post_init__(self):
        if min(self.grad_tol, self.boundary_margin, self.sing_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.num_starts < 1 or self.max_iter < 1:
            raise ValueError("num_starts and max_iter must be >= 1")


DEFAULT_CONFIG = SolverConfig()


def _warn_wide_measure(inst: ProblemInstance):
    if inst.m > 2:
        warnings.warn(
            f"m = {inst.m} > 2 measure components: convexity of the measure "
            "range is assumed, not verified; dual certificates may be vacuous",
            RuntimeWarning, stacklevel=3)


class _Eval:
    """Per-point dual evaluation sharing one factorization of G(zeta)."""

    __slots__ = ("inst", "zeta", "G", "_value", "_grad", "_hess")

    def __init__(self, inst: ProblemInstance, zeta: DualPoint):
        if not zeta.tau_interior():
            raise DomainError("tau not interior")
        self.inst = inst
        self.zeta = zeta
        self.G = _dual.assemble(inst, zeta)
        if self.G.is_singular:
            raise SingularMatrixError("singular G(zeta)")
        self._value = None
        self._grad = None
        self._hess = None

    @property
    def region(self) -> Region:
        return self.G.region

    def value(self) -> float:
        if self._value is None:
            self._value = _dual.eval_dual(self.inst, self.zeta, factor=self.G)
        return self._value

    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = _dual.grad_dual(self.inst, self.zeta, factor=self.G)
        return self._grad

    def hess(self) -> np.ndarray:
        if self._hess is None:
            self._hess = _dual.hess_dual(self.inst, self.zeta, factor=self.G)
        return self._hess

    def grad_inf(self) -> float:
        g = self.grad()
        return float(np.max(np.abs(g), initial=0.0))


def _try_eval(inst, zeta) -> Optional[_Eval]:
    try:
        return _Eval(inst, zeta)
    except (DomainError, SingularMatrixError):
        return None


def _tau_step_cap(tau: np.ndarray, dtau: np.ndarray, floor: float,
                  ftb: float = 0.995) -> float:
    """Largest step keeping each tau_i and the simplex slack above both a
    (1 - ftb) fraction of their current values and the absolute floor.

    The floor makes the margin-interior simplex the working domain: roots
    hugging the boundary closer than the margin are outside the search by
    design (their iterates stall at the floor and are discarded).
    """
    if tau.size == 0:
        return np.inf
    cap = np.inf
    for value, slope in list(zip(tau, dtau)) + [(1.0 - float(tau.sum()), -float(dtau.sum()))]:
        if slope < 0.0:
            allowed = value - max(floor, (1.0 - ftb) * value)
            cap = min(cap, max(allowed, 0.0) / (-slope))
    return cap


# ---------------------------------------------------------------------------
# start sampling

def _stratified_uniforms(rng: np.random.Generator, num: int, dims: int) -> np.ndarray:
    """Latin-hypercube sample of [0, 1)^dims: stratified per coordinate so
    the starts cover the box without clumping."""
    if dims == 0:
        return np.zeros((num, 0))
    strata = np.stack([rng.permutation(num) for _ in range(dims)], axis=1)
    return (strata + rng.uniform(0.0, 1.0, (num, dims))) / num


def _tau_from_uniforms(u: np.ndarray, margin: float) -> np.ndarray:
    # flat Dirichlet over (tau, slack) via exponential spacings, floored
    # away from the boundary
    p = u.size - 1
    w = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-12))
    total = w.sum()
    tau = w[:p] / total if total > 0 else np.full(p, 1.0 / (p + 1))
    tau = np.maximum(tau, margin)
    total = tau.sum()
    if total >= 1.0 - margin:
        tau *= (1.0 - (p + 1) * margin) / total
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
                   rng: np.random.Generator) -> list[DualPoint]:
    lo, hi = _sigma_box(inst) if inst.r else (np.zeros(0), np.zeros(0))
    u_tau = _stratified_uniforms(rng, cfg.num_starts, inst.p + 1 if inst.p else 0)
    u_sigma = _stratified_uniforms(rng, cfg.num_starts, inst.r)
    starts = []
    for k in range(cfg.num_starts):
        tau = (_tau_from_uniforms(u_tau[k], cfg.boundary_margin)
               if inst.p else np.zeros(0))
        sigma = lo + u_sigma[k] * (hi - lo) if inst.r else np.zeros(0)
        starts.append(DualPoint(tau=tau, sigma=sigma))
    return starts


def _primal_seeded_roots(inst: ProblemInstance, cfg: SolverConfig,
                         rng: np.random.Generator) -> list[np.ndarray]:
    """Dual starts harvested from primal critical points.

    Primal critical points and dual critical points are in bijection
    through the constitutive map wherever G is nonsingular, and the primal
    basins (especially of local minima, which pair with dual saddles) are
    far larger than the thin dual merit basins near singular points. A
    short Newton root find on the primal gradient followed by a dual polish
    recovers those roots cheaply.
    """
    duality_map = _primal.duality_map
    grad_primal = _primal.grad_primal
    hess_primal = _primal.hess_primal
    spread = 2.5 * (1.0 + float(np.max(np.abs(inst.f), initial=0.0)))
    roots: list[np.ndarray] = []
    fscale = 1.0 + float(np.max(np.abs(inst.f), initial=0.0))
    for _ in range(max(2, cfg.num_starts // 8)):
        x = rng.standard_normal(inst.n) * spread
        converged = False
        for _ in range(40):
            g = grad_primal(inst, x)
            ginf = float(np.max(np.abs(g)))
            if not np.isfinite(ginf):
                break
            if ginf <= 1e-8 * fscale:
                converged = True
                break
            H = hess_primal(inst, x)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g
            if not np.all(np.isfinite(step)):
                step = -g
            merit = float(g @ g)
            t = 1.0
            moved = False
            while t > 1e-14:
                x_t = x + t * step
                g_t = grad_primal(inst, x_t)
                if np.all(np.isfinite(g_t)) and float(g_t @ g_t) <= merit * (1.0 - 1e-4 * t):
                    x, moved = x_t, True
                    break
                t *= 0.5
            if not moved:
                break
        if not converged:
            continue
        zeta0 = duality_map(inst, x)
        if not zeta0.tau_interior(cfg.boundary_margin):
            continue
        zeta, _, ok = _newton_root(inst, zeta0, cfg)
        if ok:
            roots.append(zeta.vector())
    return roots


def _univariate_scan_values(inst: ProblemInstance, grid: np.ndarray) -> np.ndarray:
    """Dual derivative on a grid of the single weight, batched; NaN where G
    is singular (or too close to it)."""
    M = inst.Q_stack[0] if inst.p else inst.B_stack[0]
    G = inst.A[None, :, :] + grid[:, None, None] * M[None, :, :]
    w = np.linalg.eigvalsh(G)
    scale = 1.0 + np.max(np.abs(G), axis=(1, 2))
    valid = np.min(np.abs(w), axis=1) > _dual.SING_TOL * scale
    out = np.full(grid.size, np.nan)
    if np.any(valid):
        rhs = np.broadcast_to(inst.f, (int(valid.sum()), inst.n))[..., None]
        x = np.linalg.solve(G[valid], rhs)[..., 0]
        quad = 0.5 * np.einsum("ki,ij,kj->k", x, M, x)
        t = grid[valid]
        if inst.p:
            out[valid] = quad + inst.d[0] - np.log(t / (1.0 - t)) / inst.beta
        else:
            out[valid] = quad + inst.c[0] - t / inst.alpha[0]
    return out


def _univariate_roots(inst: ProblemInstance, cfg: SolverConfig) -> list[np.ndarray]:
    """Deterministic sign-change scan for m = 1 instances.

    Multistart Newton can step over thin basins next to the singular points
    of G; a dense bracket-and-bisect over the same sampling interval is
    cheap in one variable and recovers every sign change of the dual
    derivative (grid cells touching a singular point are skipped)."""
    if inst.m != 1:
        return []
    if inst.r == 1:
        lo, hi = _sigma_box(inst)
        grid = np.linspace(float(lo[0]), float(hi[0]), 4096)
    else:
        margin = max(cfg.boundary_margin, 1e-12)
        grid = np.linspace(margin, 1.0 - margin, 4096)

    def deriv_at(s: float):
        ev = _try_eval(inst, DualPoint.from_vector(np.array([s]), inst.p))
        if ev is None:
            return None
        g = float(ev.grad()[0])
        return g if np.isfinite(g) else None

    vals = _univariate_scan_values(inst, grid)
    tol = max(cfg.grad_tol, 1e-13)
    roots: list[np.ndarray] = []
    finite = np.isfinite(vals)
    sign_change = np.nonzero(finite[:-1] & finite[1:]
                             & (vals[:-1] * vals[1:] <= 0.0))[0]
    for i in sign_change:
        mid, fm, _ = univariate.refine(deriv_at, float(grid[i]), float(grid[i + 1]),
                                       float(vals[i]), tol, cfg.max_iter, rtol=1e-15)
        if fm is not None and abs(fm) <= 10.0 * tol:
            roots.append(np.array([mid]))
    return roots


def _interior_start(inst: ProblemInstance, cfg: SolverConfig,
                    rng: np.random.Generator) -> Optional[_Eval]:
    """A point with tau interior and G(zeta) positive definite, or None."""
    tau0 = np.full(inst.p, 0.5 / max(inst.p, 1))[:inst.p]
    if inst.r:
        # lift along sum(B) when the quartic block can shift G positive
        B_sum = inst.B_stack.sum(axis=0)
        wB = np.linalg.eigvalsh(B_sum)
        B_all_psd = all(np.linalg.eigvalsh(t.B).min() > -_dual.SING_TOL * 10
                        for t in inst.quartic_terms)
        if B_all_psd and wB[0] > 1e-12:
            M = inst.curvature(tau0, np.zeros(inst.r))
            ell = float(np.linalg.eigvalsh(M)[0])
            scale = 1.0 + float(np.max(np.abs(inst.A)))
            s = max(0.0, (-ell + 0.05 * scale + 0.5)) / wB[0]
            ev = _try_eval(inst, DualPoint(tau=tau0, sigma=np.full(inst.r, s)))
            if ev is not None and ev.region == Region.SA_PLUS:
                return ev
    for zeta in _sample_starts(inst, cfg, rng):
        ev = _try_eval(inst, zeta)
        if ev is not None and ev.region == Region.SA_PLUS:
            return ev
    return None


# ---------------------------------------------------------------------------
# Newton drivers

def _newton_ascent(inst: ProblemInstance, ev: _Eval, cfg: SolverConfig):
    """Damped Newton maximization of the dual inside the positive region.

    Returns (eval_at_solution, iterations, converged).
    """
    for it in range(1, cfg.max_iter + 1):
        g = ev.grad()
        if float(np.max(np.abs(g))) <= cfg.grad_tol:
            return ev, it, True
        H = ev.hess()
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            step = g.copy()
        if not np.all(np.isfinite(step)) or float(g @ step) <= 0.0:
            step = g.copy()
        z = ev.zeta.vector()
        t = min(1.0, _tau_step_cap(ev.zeta.tau, step[:inst.p], cfg.boundary_margin))
        slope = float(g @ step)
        accepted = None
        while t > 1e-16:
            trial = _try_eval(inst, DualPoint.from_vector(z + t * step, inst.p))
            if trial is not None and trial.region == Region.SA_PLUS \
                    and trial.value() >= ev.value() + 1e-4 * t * slope:
                accepted = trial
                break
            t *= 0.5
        if accepted is None:
            return ev, it, False
        ev = accepted
    return ev, cfg.max_iter, float(np.max(np.abs(ev.grad()))) <= cfg.grad_tol


def _newton_root(inst: ProblemInstance, zeta0: DualPoint, cfg: SolverConfig):
    """Newton iteration on grad = 0 with line search on 1/2 ||grad||^2.

    Returns (zeta, iterations, converged); merit-stationary non-roots are
    reported unconverged so the caller can discard them.
    """
    ev = _try_eval(inst, zeta0)
    if ev is None:
        return zeta0, 0, False
    for it in range(1, cfg.max_iter + 1):
        g = ev.grad()
        ginf = float(np.max(np.abs(g), initial=0.0))
        if not np.isfinite(ginf):
            return ev.zeta, it, False
        if ginf <= cfg.grad_tol:
            return ev.zeta, it, True
        merit = 0.5 * float(g @ g)
        J = ev.hess()
        step = None
        try:
            cand = np.linalg.solve(J, -g)
            if np.all(np.isfinite(cand)):
                step = cand
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = -J @ g  # steepest descent on the merit function
            sn = float(np.max(np.abs(step), initial=0.0))
            if sn == 0.0:
                return ev.zeta, it, False
            step /= sn
        z = ev.zeta.vector()
        t = min(1.0, _tau_step_cap(ev.zeta.tau, step[:inst.p], cfg.boundary_margin))
        accepted = None
        while t > 1e-16:
            trial = _try_eval(inst, DualPoint.from_vector(z + t * step, inst.p))
            if trial is not None:
                gt = trial.grad()
                if np.all(np.isfinite(gt)):
                    merit_t = 0.5 * float(gt @ gt)
                    if merit_t <= merit * (1.0 - 2e-4 * t):
                        accepted = trial
                        break
            t *= 0.5
        if accepted is None:
            return ev.zeta, it, ginf <= cfg.grad_tol
        ev = accepted
    return ev.zeta, cfg.max_iter, ev.grad_inf() <= cfg.grad_tol


def _dedup(points: Iterable[np.ndarray], rel: float = 1e-6) -> list[np.ndarray]:
    unique: list[np.ndarray] = []
    for z in points:
        if not any(np.max(np.abs(z - u), initial=0.0) <= rel * (1.0 + float(np.linalg.norm(u)))
                   for u in unique):
            unique.append(z)
    return unique


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


def triality_classify(inst: ProblemInstance, pair: CriticalPair,
                      cfg: SolverConfig = DEFAULT_CONFIG) -> CriticalPair:
    """Attach triality labels to a critical pair.

    Raises :class:`NotCriticalError` when the dual gradient residual exceeds
    ten times the solver tolerance. Near the domain boundary the dual
    curvature can be so large that no float-representable point resolves the
    gradient that finely; the filter therefore never demands more than the
    attainable precision eps * ||hessian|| * (1 + ||zeta||).
    """
    ev = _try_eval(inst, pair.zeta)
    if ev is None:
        return replace(pair, region=Region.SINGULAR,
                       classification=Classification.UNCLASSIFIED)
    resid = ev.grad_inf()
    zeta_scale = 1.0 + float(np.max(np.abs(pair.zeta.vector()), initial=0.0))
    attainable = np.finfo(float).eps * float(np.max(np.abs(ev.hess()))) * zeta_scale
    limit = max(10.0 * cfg.grad_tol, 1e3 * attainable)
    if resid > limit:
        raise NotCriticalError("dual gradient too large for classification",
                               residual=resid, limit=limit)
    region = ev.region
    if region == Region.SA_PLUS:
        return replace(pair, region=region, residual=resid,
                       classification=Classification.GLOBAL_MIN,
                       primal_label=Classification.GLOBAL_MIN,
                       dual_label=Classification.LOCAL_MAX)

    Hp = _primal.hess_primal(inst, pair.x)
    Hd = ev.hess()
    tol_p = cfg.sing_tol * (1.0 + float(np.max(np.abs(Hp), initial=0.0)))
    tol_d = cfg.sing_tol * (1.0 + float(np.max(np.abs(Hd), initial=0.0)))
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
              cfg: SolverConfig = DEFAULT_CONFIG) -> Optional[CriticalPair]:
    """Build and classify the critical pair at a dual root; None when the
    point is singular or fails the criticality filter."""
    ev = _try_eval(inst, zeta)
    if ev is None:
        return None
    x = ev.G.x_of_f
    pv = _primal.eval_primal(inst, x)
    dv = ev.value()
    pair = CriticalPair(x=x, zeta=zeta, primal_value=pv, dual_value=dv,
                        region=ev.region,
                        classification=Classification.UNCLASSIFIED,
                        gap=abs(pv - dv), residual=ev.grad_inf())
    try:
        return triality_classify(inst, pair, cfg)
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
    found or the ascent stalls on the region boundary without reaching a
    critical point (the known remedy is a perturbation of the load, which
    this solver does not attempt).
    """
    _warn_wide_measure(inst)
    rng = np.random.default_rng(cfg.seed)
    ev = _interior_start(inst, cfg, rng)
    if ev is None:
        raise HardCaseError(
            "no strictly feasible point of the positive-definite region found")
    ev, iters, converged = _newton_ascent(inst, ev, cfg)
    if not converged:
        lam_min = float(ev.G.eigenvalues[0])
        raise HardCaseError(
            "dual ascent stalled at the boundary of the positive-definite "
            "region; no interior critical point",
            min_eig=lam_min, grad_inf=ev.grad_inf(), iterations=iters)
    pair = make_pair(inst, ev.zeta, cfg)
    if pair is None or pair.region != Region.SA_PLUS:
        raise HardCaseError("ascent limit is not an interior critical point")
    return SolveReport(critical_pairs=[pair],
                       existence_verdict=ExistenceVerdict.NOT_APPLICABLE,
                       iterations=iters, residual_norm=pair.residual,
                       notes=[f"newton ascent converged in {iters} iterations"])


def find_critical_points(inst: ProblemInstance,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Multistart search for all dual critical points, classified.

    Deterministic for a fixed seed: starts are drawn from one seeded
    generator and results are merged order-independently (sorted by dual
    value, then lexicographically by zeta).
    """
    _warn_wide_measure(inst)
    rng = np.random.default_rng(cfg.seed)
    roots: list[np.ndarray] = []
    total_iters = 0
    converged_starts = 0
    for zeta0 in _sample_starts(inst, cfg, rng):
        zeta, iters, ok = _newton_root(inst, zeta0, cfg)
        total_iters += iters
        if ok:
            converged_starts += 1
            roots.append(zeta.vector())
    roots.extend(_primal_seeded_roots(inst, cfg, rng))
    roots.extend(_univariate_roots(inst, cfg))
    pairs = []
    for z in _dedup(roots):
        pair = make_pair(inst, DualPoint.from_vector(z, inst.p), cfg)
        if pair is not None:
            pairs.append(pair)
    pairs = _sorted_pairs(pairs)
    residual = max((p.residual for p in pairs), default=0.0)
    notes = [f"{cfg.num_starts} starts, {converged_starts} converged, "
             f"{len(pairs)} distinct critical points"]
    return SolveReport(critical_pairs=pairs,
                       existence_verdict=ExistenceVerdict.NOT_APPLICABLE,
                       iterations=total_iters, residual_norm=residual,
                       notes=notes)

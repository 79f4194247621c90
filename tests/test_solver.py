import warnings
import zlib

import numpy as np
import pytest

from canodual import dual, fixtures, primal, solver
from canodual.errors import HardCaseError, NotCriticalError
from canodual.model import (
    Classification,
    DualPoint,
    LseTerm,
    ProblemInstance,
    QuarticTerm,
    Region,
    validate,
)
from canodual.dual import (
    BOUNDARY_MARGIN,
    GRAD_TOL,
    assemble,
    evaluate,
    grad_dual,
    gradients,
    hess_dual,
    hessians,
)
from canodual.oracle import grid_global_min
from canodual.primal import eval_primal, grad_primal, hess_primal
from canodual.solver import (
    SolverConfig,
    _newton_roots,
    _primal_roots,
    _primal_seeded_starts,
    _sample_starts,
    _sigma_box,
    _tau_from_uniforms,
    _univariate_roots,
    find_critical_points,
    make_pair,
    solve_global,
    triality_classify,
)

from conftest import rand_feasible_zeta, rand_instance


def _nearest(pairs, sigma):
    return min(pairs, key=lambda p: abs(float(p.zeta.sigma[0]) - sigma))


class TestSolveGlobal:
    def test_benchmark1(self):
        rep = solve_global(fixtures.example1())
        p = rep.best
        assert p.classification == Classification.GLOBAL_MIN
        assert float(p.zeta.tau[0]) == pytest.approx(0.599866, abs=1e-4)
        assert float(p.zeta.sigma[0]) == pytest.approx(0.098119, abs=1e-4)
        assert float(p.x[0]) == pytest.approx(1.004894, abs=1e-4)
        assert p.primal_value == pytest.approx(0.112521, abs=1e-4)

    def test_benchmark2(self):
        rep = solve_global(fixtures.example2())
        p = rep.best
        assert float(p.zeta.sigma[0]) == pytest.approx(19.093, abs=1e-2)
        assert p.x == pytest.approx([5.6, 0.67], abs=5e-2)

    def test_unconstrained_origin(self):
        # convex quadratic with a centered well: minimizer at the origin,
        # constitutive sigma = alpha * c
        inst = validate(ProblemInstance(
            A=np.diag([1.0, 2.0]), f=np.zeros(2),
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.5, alpha=2.0),)))
        rep = solve_global(inst)
        p = rep.best
        assert np.allclose(p.x, 0.0, atol=1e-9)
        assert float(p.zeta.sigma[0]) == pytest.approx(1.0, abs=1e-9)

    def test_hard_case_raises(self):
        # load orthogonal to the ground eigenspace, boundary inequality fails
        inst = validate(ProblemInstance(
            A=np.diag([-2.0, 1.0]), f=[0.0, 0.1],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=-3.0, alpha=1.0),)))
        with pytest.raises(HardCaseError, match="positive-definite region") as err:
            solve_global(inst)
        assert "tau_min" not in err.value.context

    @pytest.mark.parametrize("seed,n,p,spd,half_width", [
        (17, 2, 1, True, 6.0),
        ([27, 2, 1, 1, False], 2, 1, False, 11.0),
        ([33, 2, 1, 1, True], 2, 1, True, 6.0),
        ([42, 1, 2, 1, False], 1, 2, False, 6.0),
        ([51, 1, 1, 1, False], 1, 1, False, 8.0)],
        ids=["17", "27-2-1-1-False", "33-2-1-1-True", "42-1-2-1-False", "51-1-1-1-False"])
    def test_certifies_where_the_margin_stopped_the_ascent(self, seed, n, p, spd, half_width):
        # these minimisers pair with tau between 7e-37 and 1.3e-9; a floor of
        # 1e-8 on tau stopped the ascent there with G well inside the positive
        # region, and the positive-point test alone lets it reach the root
        inst = rand_instance(np.random.default_rng(seed), n, p, 1, spd_quartic=spd)
        rep = solve_global(inst)
        _, v_star = grid_global_min(inst, (-half_width, half_width), 601)
        assert rep.best.classification == Classification.GLOBAL_MIN
        assert float(rep.best.zeta.tau.min()) < BOUNDARY_MARGIN
        assert rep.best.primal_value == pytest.approx(v_star, abs=1e-8)

    @pytest.mark.parametrize("key,half_width", [((25, 2, 0, 2, False), 14.0),
                                                ((14, 2, 1, 2, False), 6.0)],
                             ids=["25-2-0-2-False", "14-2-1-2-False"])
    def test_lift_needs_only_a_definite_sum_of_weights(self, key, half_width):
        # one B_i is indefinite and sum(B) is positive definite, so
        # G = M + s sum(B) is positive definite for a large enough s
        _, n, p, r, spd = key
        inst = rand_instance(np.random.default_rng(list(key)), n, p, r, spd_quartic=spd)
        assert min(np.linalg.eigvalsh(B).min() for B in inst.B_stack) < 0.0
        assert np.linalg.eigvalsh(inst.B_stack.sum(axis=0))[0] > 0.0
        z, _ = solver._interior_start(inst, solver.DEFAULT_CONFIG,
                                      np.random.default_rng(solver.DEFAULT_CONFIG.seed))
        sigma = z[inst.p:]
        assert sigma[0] > 0.0 and np.all(sigma == sigma[0])
        rep = solve_global(inst)
        _, v_star = grid_global_min(inst, (-half_width, half_width), 601)
        assert rep.best.classification == Classification.GLOBAL_MIN
        assert rep.best.primal_value == pytest.approx(v_star, abs=1e-8)

    def test_stall_on_the_simplex_edge_has_the_one_message(self):
        # the ascent runs tau onto the simplex edge with G well inside the
        # positive region; that is the region's boundary like any other
        inst = rand_instance(np.random.default_rng([2, 2, 2, 1, False]), 2, 2, 1,
                             spd_quartic=False)
        with pytest.raises(HardCaseError, match="positive-definite region") as err:
            solve_global(inst)
        assert err.value.context["tau_min"] < 1e-20
        assert err.value.context["min_eig"] > 0.0

    def test_overflow_is_not_reported_as_a_stall(self):
        # the lift's shift overflows and the start's 1/2 |g|^2 is not finite:
        # no warning escapes, and the error names the overflow
        inst = validate(ProblemInstance(
            A=[[1e300, 0.0], [0.0, 1.0]], f=[1.0, 1.0],
            quartic_terms=(QuarticTerm(B=[[1e-11, 0.0], [0.0, 1.0]], c=-1.0, alpha=1.0),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HardCaseError, match="dual ascent overflowed"):
                solve_global(inst)

    def test_residual_below_tolerance(self):
        rep = solve_global(fixtures.example1())
        assert rep.residual_norm <= GRAD_TOL

    @pytest.mark.parametrize("n,p,r,seed", [(1, 0, 2, 15), (2, 0, 1, 4),
                                            (2, 1, 1, 2), (3, 0, 1, 0)])
    def test_certifies_when_the_value_stops_resolving_the_ascent(self, n, p, r, seed):
        # near the root a rise of the dual value falls below its rounding,
        # while the squared gradient norm still resolves the steps; the
        # ascent accepts on the latter and must converge instead of stalling
        inst = rand_instance(np.random.default_rng(seed), n, p, r, spd_quartic=True)
        rep = solve_global(inst)
        _, v_star = grid_global_min(inst, (-6.0, 6.0), 601 if n <= 2 else 121)
        assert rep.best.classification == Classification.GLOBAL_MIN
        assert rep.best.primal_value == pytest.approx(v_star, abs=1e-8)

    @pytest.mark.parametrize("seed,p,r,spd", [(5, 1, 2, False), (15, 1, 1, False),
                                              (22, 2, 1, True), (30, 0, 3, False)])
    def test_certifies_where_the_value_rule_stalled(self, seed, p, r, spd):
        # accepting a trial on a rise of the dual value let these ascents
        # crawl along the boundary of the positive region, where min eig G
        # fell to 1e-10 with the gradient still large; on the merit test
        # alone they reach the interior root
        inst = rand_instance(np.random.default_rng([seed, 2, p, r, spd]), 2, p, r,
                             spd_quartic=spd)
        rep = solve_global(inst)
        _, v_star = grid_global_min(inst, (-6.0, 6.0), 601)
        assert rep.best.classification == Classification.GLOBAL_MIN
        assert rep.best.primal_value == pytest.approx(v_star, abs=1e-8)

    def test_ascent_is_the_root_search_kept_positive(self):
        """From its interior start, the ascent ends bitwise where the
        one-point reference of the root search ends when that reference
        accepts a trial only where G is positive definite."""
        cfg = SolverConfig(max_iter=60)
        endings = set()
        for seed in range(3):
            for n in (1, 2, 3):
                for p, r in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (0, 3)]:
                    for spd in (True, False):
                        inst = rand_instance(np.random.default_rng([seed, n, p, r, spd]),
                                             n, p, r, spd_quartic=spd)
                        start = solver._interior_start(inst, cfg,
                                                       np.random.default_rng(cfg.seed))
                        if start is None:
                            continue
                        z, _, it, ok = solver._newton_ascent(inst, *start, cfg)
                        ref, ref_it, ref_ok, _ = _serial_newton_root(inst, start[0], cfg,
                                                                     positive=True)
                        assert np.array_equal(z, ref)
                        assert (it, ok) == (ref_it, ref_ok)
                        endings.add("converged" if ok else "capped" if it == cfg.max_iter
                                    else "stalled")
        assert endings == {"converged", "capped", "stalled"}


class TestFindCriticalPoints:
    def test_benchmark1_all_three(self):
        rep = find_critical_points(fixtures.example1())
        assert len(rep.critical_pairs) == 3
        assert rep.residual_norm <= GRAD_TOL
        for tau, sigma, x, value, _ in fixtures.EX1_EXPECTED["points"]:
            p = _nearest(rep.critical_pairs, sigma)
            assert float(p.zeta.tau[0]) == pytest.approx(tau, abs=1e-4)
            assert float(p.zeta.sigma[0]) == pytest.approx(sigma, abs=1e-4)
            assert float(p.x[0]) == pytest.approx(x, abs=1e-4)
            assert p.primal_value == pytest.approx(value, abs=1e-5)

    def test_benchmark2_all_five(self):
        rep = find_critical_points(fixtures.example2())
        assert len(rep.critical_pairs) == 5
        got = sorted(float(p.zeta.sigma[0]) for p in rep.critical_pairs)
        expected = sorted(fixtures.EX2_EXPECTED["sigma"])
        assert got == pytest.approx(expected, abs=1e-2)

    def test_benchmark3_canonical(self):
        from canodual.minimax import smooth_and_canonicalize
        can = smooth_and_canonicalize(fixtures.example3())
        rep = find_critical_points(can.to_problem())
        taus = sorted(float(p.zeta.tau[0]) for p in rep.critical_pairs)
        assert taus == pytest.approx([0.249308, 0.749318], abs=1e-5)

    @pytest.mark.parametrize("seed", [3, 20, 22, 999, 2024])
    def test_complete_root_counts_across_seeds(self, seed):
        # regression seeds that once exposed coverage holes in the
        # multistart sampling
        cfg = SolverConfig(seed=seed)
        assert len(find_critical_points(fixtures.example1(), cfg).critical_pairs) == 3
        assert len(find_critical_points(fixtures.example2(), cfg).critical_pairs) == 5

    def test_determinism(self):
        cfg = SolverConfig(seed=7, num_starts=32)
        rep1 = find_critical_points(fixtures.example1(), cfg)
        rep2 = find_critical_points(fixtures.example1(), cfg)
        assert len(rep1.critical_pairs) == len(rep2.critical_pairs)
        for a, b in zip(rep1.critical_pairs, rep2.critical_pairs):
            assert np.array_equal(a.zeta.vector(), b.zeta.vector())
            assert a.primal_value == b.primal_value
        assert rep1.iterations == rep2.iterations

    def test_zero_gap_and_transfer_random(self, rng):
        # spot check; the full 200-instance sweep lives in the acceptance suite
        cfg = SolverConfig(num_starts=8, max_iter=80)
        pairs_seen = 0
        for _ in range(25):
            inst = rand_instance(rng, n=int(rng.integers(1, 5)))
            rep = find_critical_points(inst, cfg)
            for p in rep.critical_pairs:
                pairs_seen += 1
                assert abs(p.primal_value - p.dual_value) <= 1e-6 * (1 + abs(p.dual_value))
                g = grad_primal(inst, p.x)
                assert np.max(np.abs(g)) <= 1e-6 * (1 + np.max(np.abs(inst.f)))
        assert pairs_seen >= 10

    def test_empty_result_is_valid(self):
        # hard-case instance has no critical point reachable in the sampled
        # region only if none exist at all; here even the saddle structure
        # yields roots, so just check the report invariant on a tiny budget
        cfg = SolverConfig(num_starts=1, max_iter=2)
        rep = find_critical_points(fixtures.example2(), cfg)
        assert rep.residual_norm <= 10 * GRAD_TOL or not rep.critical_pairs


class TestTriality:
    def test_benchmark1_labels(self):
        rep = find_critical_points(fixtures.example1())
        p1 = _nearest(rep.critical_pairs, 0.098119)
        assert p1.classification == Classification.GLOBAL_MIN
        assert p1.region == Region.SA_PLUS
        p2 = _nearest(rep.critical_pairs, -9.983154)
        assert p2.classification == Classification.LOCAL_MAX
        assert p2.primal_label == Classification.LOCAL_MAX
        assert p2.dual_label == Classification.LOCAL_MAX
        p3 = _nearest(rep.critical_pairs, -0.710070)
        assert p3.dual_label == Classification.SADDLE
        assert p3.primal_label == Classification.LOCAL_MIN
        assert p3.classification == Classification.SADDLE

    def test_benchmark2_labels(self):
        rep = find_critical_points(fixtures.example2())
        p4 = _nearest(rep.critical_pairs, -16.459)
        # dual local min with m < n forces a primal saddle
        assert p4.dual_label == Classification.LOCAL_MIN
        assert p4.primal_label == Classification.SADDLE
        p5 = _nearest(rep.critical_pairs, -139.945)
        assert p5.classification == Classification.LOCAL_MAX
        indefinite = [_nearest(rep.critical_pairs, s) for s in (14.495, -13.184)]
        for p in indefinite:
            assert p.region == Region.INDEFINITE
            assert p.classification == Classification.UNCLASSIFIED

    def test_not_critical_rejected(self):
        inst = fixtures.example1()
        zeta = DualPoint(tau=[0.55], sigma=[1.2])
        pair = make_pair(inst, zeta)
        assert pair is None
        from canodual.model import CriticalPair
        x = np.array([0.9])
        raw = CriticalPair(x=x, zeta=zeta, primal_value=0.0, dual_value=0.0,
                           region=Region.SA_PLUS,
                           classification=Classification.UNCLASSIFIED, gap=0.0)
        with pytest.raises(NotCriticalError):
            triality_classify(inst, raw)
        # next to a root the gap meets its rule (1.3e-8) and the criticality
        # filter rejects the point
        root = solve_global(inst).best.zeta
        near = DualPoint(tau=root.tau, sigma=root.sigma + 1e-5)
        G = assemble(inst, near)
        gap = abs(eval_primal(inst, G.x_of_f) - dual.eval_dual(inst, near, factor=G))
        assert gap <= solver.GAP_RTOL and make_pair(inst, near) is None

    def test_a_duality_gap_is_rejected(self):
        """At a slack of 2**-53 the criticality filter's attainable-precision
        limit reads thousands, so only the gap rule rejects this point: G is
        positive definite, yet the primal value lies 1.6e5 above the dual
        value, and far above the global minimum -22.09."""
        inst = rand_instance(np.random.default_rng(53), n=2, p=1, r=2)
        zeta = DualPoint(tau=np.array([0.9999999999999999]),
                         sigma=np.array([4.735747756953528, 1.8742326050748794]))
        G = assemble(inst, zeta)
        assert G.region == Region.SA_PLUS
        gap = abs(eval_primal(inst, G.x_of_f) - dual.eval_dual(inst, zeta, factor=G))
        assert gap > 1e5
        assert make_pair(inst, zeta) is None

    @pytest.mark.parametrize("example", [fixtures.example1, fixtures.example2])
    def test_given_factor_classifies_as_a_fresh_one(self, example):
        inst = example()
        pairs = find_critical_points(inst).critical_pairs
        assert len(pairs) >= 3
        for p in pairs:
            given = triality_classify(inst, p, factor=assemble(inst, p.zeta))
            fresh = triality_classify(inst, p)
            for field in ("region", "classification", "primal_label", "dual_label", "residual"):
                assert getattr(given, field) == getattr(fresh, field)

    @pytest.mark.parametrize("where", ["singular", "outside"])
    def test_undefined_dual_point_is_singular_unclassified(self, where):
        from canodual.model import CriticalPair
        if where == "singular":
            # G = diag(0, 1) at sigma = -1
            inst = validate(ProblemInstance(
                A=np.diag([1.0, 2.0]), f=[0.3, 0.1],
                quartic_terms=(QuarticTerm(B=np.eye(2), c=0.5, alpha=2.0),)))
            zeta = DualPoint(tau=np.zeros(0), sigma=[-1.0])
        else:
            inst = fixtures.example1()
            zeta = DualPoint(tau=[1.2], sigma=[0.1])
        raw = CriticalPair(x=np.zeros(inst.n), zeta=zeta, primal_value=0.0,
                           dual_value=0.0, region=Region.SA_PLUS,
                           classification=Classification.GLOBAL_MIN, gap=0.0)
        pair = triality_classify(inst, raw)
        assert pair.region == Region.SINGULAR
        assert pair.classification == Classification.UNCLASSIFIED
        assert make_pair(inst, zeta) is None

    def test_local_labels_hold_under_perturbation(self, rng):
        # sampled soundness of the second-derivative labels
        inst = fixtures.example1()
        rep = find_critical_points(inst)
        for p in rep.critical_pairs:
            if p.primal_label not in (Classification.LOCAL_MIN,
                                      Classification.LOCAL_MAX):
                continue
            v0 = eval_primal(inst, p.x)
            sign = 1.0 if p.primal_label == Classification.LOCAL_MIN else -1.0
            for _ in range(200):
                delta = rng.standard_normal(inst.n)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert sign * (eval_primal(inst, p.x + delta) - v0) >= -1e-9


class TestWarnings:
    def test_wide_measure_warns(self, rng):
        inst = rand_instance(rng, n=2, p=2, r=1)
        with pytest.warns(RuntimeWarning, match="measure components"):
            find_critical_points(inst, SolverConfig(num_starts=2, max_iter=5))

    def test_two_measures_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_global(fixtures.example1())

    @pytest.mark.parametrize("n, p, r", [(2, 0, 3), (2, 1, 2), (3, 1, 2)])
    def test_wide_measure_certificate_does_not_warn(self, n, p, r):
        # the positive-definite certificate is weak duality, valid for any m
        import warnings

        inst = rand_instance(np.random.default_rng(3), n=n, p=p, r=r, spd_quartic=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = solve_global(inst).best
        _, v_star = grid_global_min(inst, (-6.0, 6.0), resolution=601 if n == 2 else 121)
        assert best.classification == Classification.GLOBAL_MIN
        assert best.primal_value == pytest.approx(v_star, abs=1e-8)


def _singular_start(inst):
    """Dual point sigma_1 e_1 of a tau-free instance with A + sigma_1 B_1
    singular, or None when no real sigma_1 makes it so."""
    mu = np.linalg.eigvals(np.linalg.solve(inst.B_stack[0], inst.A))
    real = mu.real[np.abs(mu.imag) < 1e-12]
    if real.size == 0:
        return None
    z = np.zeros(inst.m)
    z[0] = -real[0]
    return z


def _serial_newton_root(inst, z, cfg, positive=False):
    """Reference for the lockstep search: the same Newton iteration for one
    start, one point at a time through the public dual functions. With
    ``positive``, a point counts only where G(zeta) is positive definite,
    which makes it the reference of the ascent, and every line search
    starts at t = 1 instead of at the cap on tau. Returns (z, iterations,
    converged, halvings): ``halvings`` lists the halving of t0 each step
    accepted, with None for a line search that reached the floor."""
    def factor(z):
        zeta = DualPoint.from_vector(z, inst.p)
        if not zeta.tau_interior():
            return None, None
        G = assemble(inst, zeta)
        if G.is_singular or (positive and not G.eigenvalues[0] > 0.0):
            return None, None
        return zeta, G

    def tau_cap(tau, dtau, floor, ftb=0.995):
        cap = np.inf
        for value, slope in list(zip(tau, dtau)) + [(1.0 - float(tau.sum()), -float(dtau.sum()))]:
            if slope < 0.0:
                allowed = value - max(floor, (1.0 - ftb) * value)
                cap = min(cap, max(allowed, 0.0) / (-slope))
        return cap

    halvings = []
    zeta, G = factor(z)
    if zeta is None:
        return z, 0, False, halvings
    g = grad_dual(inst, zeta, factor=G)
    for it in range(1, cfg.max_iter + 1):
        ginf = float(np.max(np.abs(g)))
        if not np.isfinite(ginf):
            return z, it, False, halvings
        if ginf <= GRAD_TOL:
            return z, it, True, halvings
        J = hess_dual(inst, zeta, factor=G)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            step = np.full_like(g, np.nan)
        if not np.all(np.isfinite(step)):
            step = -J @ g
            size = float(np.max(np.abs(step)))
            if size == 0.0:
                return z, it, False, halvings
            step /= size
        merit = 0.5 * float(g @ g)
        t = 1.0 if positive else min(1.0, tau_cap(zeta.tau, step[:inst.p], BOUNDARY_MARGIN))
        h = 0
        while t > 1e-16:
            trial, trial_G = factor(z + t * step)
            if trial is not None:
                gt = grad_dual(inst, trial, factor=trial_G)
                if np.all(np.isfinite(gt)) and 0.5 * float(gt @ gt) <= merit * (1.0 - 2e-4 * t):
                    break
            t, h = t * 0.5, h + 1
        else:
            return z, it, False, halvings + [None]
        halvings.append(h)
        z, zeta, G, g = z + t * step, trial, trial_G, gt
    return z, cfg.max_iter, float(np.max(np.abs(g))) <= GRAD_TOL, halvings


def _deep_line_searches(halvings):
    """The backtracking patterns the batch sizing must keep exact: two
    consecutive steps accepted at halving 8 or more, and a line search run
    down to the floor right after such a step."""
    deep = [h is not None and h >= 8 for h in halvings]
    found = set()
    if any(a and b for a, b in zip(deep, deep[1:])):
        found.add("deep twice")
    if len(halvings) >= 2 and halvings[-1] is None and deep[-2]:
        found.add("floor after deep")
    return found


class TestLockstepRoots:
    def test_stacked_evaluation_matches_pointwise(self):
        # bit for bit, so the lockstep search and the ascent take the serial
        # decisions; n = 16 is where F's memory layout could change how
        # F'G^{-1}F rounds
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 16):
            for m in range(1, 4):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    Z = np.array([rand_feasible_zeta(rng, inst).vector() for _ in range(5)])
                    pts = evaluate(inst, Z)
                    H = hessians(inst, Z[:, :p], pts.Mx.transpose(0, 2, 1), pts.U, pts.w)
                    # x = G^{-1} f from each row's U and w, as dual._factor forms it
                    x = (pts.U @ ((pts.U.transpose(0, 2, 1) @ inst.f) / pts.w)[..., None])[..., 0]
                    assert pts.valid.all()
                    for i, z in enumerate(Z):
                        zeta = DualPoint.from_vector(z, p)
                        assert np.array_equal(x[i], assemble(inst, zeta).x_of_f)
                        assert np.array_equal(pts.grad[i], grad_dual(inst, zeta))
                        assert np.array_equal(H[i], hess_dual(inst, zeta))

    def test_invalid_rows_are_flagged(self):
        """A row outside the open simplex or with G singular comes back with
        ``valid`` False and NaN everywhere else; the other rows are as in a
        stack without it."""
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            for m in range(1, 4):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    bad = np.full(m, 1.5) if p else _singular_start(inst)
                    if bad is None:
                        continue
                    Z = np.array([rand_feasible_zeta(rng, inst).vector() for _ in range(3)])
                    mixed = evaluate(inst, np.vstack([Z[:1], bad, Z[1:]]))
                    alone = evaluate(inst, Z)
                    assert mixed.valid.tolist() == [True, False, True, True]
                    for a, b in zip(mixed[1:], alone[1:]):
                        assert np.isnan(a[1]).all()
                        assert np.array_equal(np.delete(a, 1, axis=0), b)

    def test_rows_end_as_they_would_alone(self):
        """Running k starts in one call gives bitwise the result of k
        one-row calls, and of the one-point-at-a-time reference: the
        lockstep rounds couple no two starts."""
        rng = np.random.default_rng(7)
        cfg = SolverConfig(num_starts=6, max_iter=30)
        endings = set()
        for n in range(1, 5):
            for m in range(1, 4):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    Z0 = _sample_starts(inst, cfg, rng)
                    # a start outside the simplex, or one where G(zeta) is singular
                    bad = np.full(m, 1.5) if p else _singular_start(inst)
                    if bad is not None:
                        Z0 = np.vstack([Z0, bad])
                    Z, iters, converged = _newton_roots(inst, Z0, cfg)
                    if bad is not None:
                        assert iters[-1] == 0 and not converged[-1]
                    for i, z0 in enumerate(Z0):
                        z, it, ok = _newton_roots(inst, z0[None], cfg)
                        assert np.array_equal(z[0], Z[i])
                        assert (it[0], ok[0]) == (iters[i], converged[i])
                        z, it, ok, halvings = _serial_newton_root(inst, z0, cfg)
                        assert np.array_equal(z, Z[i])
                        assert (it, ok) == (iters[i], converged[i])
                        endings |= _deep_line_searches(halvings)
                    endings |= {"rejected" if it == 0 else "converged" if ok
                                else "capped" if it == cfg.max_iter else "stalled"
                                for it, ok in zip(iters, converged)}
        assert endings == {"rejected", "converged", "capped", "stalled",
                           "deep twice", "floor after deep"}

    def test_no_search_evaluates_an_empty_stack(self, monkeypatch):
        """Both lockstep searches stop once no start is running, without a
        last call of the kernel or the primal layer on no rows, and an m = 1
        instance with no scanned cell and no primal seed runs no search: its
        one kernel call is the scan's grid, on the gradient-only kernel."""
        calls = {}

        def nonempty(module, name):
            fn = getattr(module, name)

            def counted(inst, stack):
                assert len(stack) > 0, f"{name} called on no rows"
                calls[name] = calls.get(name, 0) + 1
                return fn(inst, stack)
            monkeypatch.setattr(module, name, counted)

        nonempty(dual, "evaluate")
        nonempty(dual, "gradients")
        nonempty(primal, "grad_primal")
        nonempty(primal, "hess_primal")
        rng = np.random.default_rng(4)
        cfg = SolverConfig(num_starts=8, max_iter=40)
        for n in (1, 2, 3):
            for m in (1, 2):
                for p in range(m + 1):
                    find_critical_points(rand_instance(rng, n=n, p=p, r=m - p), cfg)
        assert set(calls) == {"evaluate", "gradients", "grad_primal", "hess_primal"}
        calls.clear()
        report = find_critical_points(_random_m1_draws()[31], cfg)
        assert report.notes == ["0 starts, 0 converged, 0 distinct critical points"]
        assert report.iterations == 0 and calls["gradients"] == 1  # the scan's grid
        assert "evaluate" not in calls

    def test_batches_follow_each_start_history(self):
        """Each start's batch comes from its own tried count and previous
        acceptance: t0 alone after a full step, halvings 0 to 8 past the
        previous acceptance otherwise, then doubling what was tried, with
        at least 8; trials at or below the floor are dropped and a start
        whose next trial is there stops."""
        running = np.array([True, True, True, True, False, True, True])
        tried = np.array([0, 0, 1, 12, 5, 50, 54])
        last = np.array([0, 3, 6, 4, 9, 11, 2])
        t0 = np.array([1.0, 0.75, 1.0, 0.5, 1.0, 1.0, 1.0])
        owner, t, halving = solver._trial_round(running, tried, last, t0, 1e-16)
        expected = {0: [0], 1: list(range(12)), 2: list(range(1, 9)),
                    3: list(range(12, 24)), 5: list(range(50, 54))}
        assert owner.tolist() == [i for i in expected for _ in expected[i]]
        assert halving.tolist() == [h for i in expected for h in expected[i]]
        assert np.array_equal(t, t0[owner] * 0.5 ** halving)
        assert running.tolist() == [True] * 4 + [False, True, False]
        assert tried[:6].tolist() == [1, 12, 9, 24, 5, 100]

    @pytest.mark.parametrize("h, first_rounds, floor_rounds", [(3, 2, 5), (10, 3, 4)])
    def test_a_repeated_halving_costs_one_round_per_step(self, monkeypatch, h,
                                                         first_rounds, floor_rounds):
        """Near a root, a step of 1.5 * 2**h Newton steps is accepted at
        halving h every time (at h - 1 it doubles the gradient). The first
        line search tries t0 alone, then 8 halvings, then 9, so it takes 2
        rounds for h = 3 and 3 for h = 10; every later one takes a single
        round. Once the direction is NaN, no trial is
        acceptable: after h = 10 the search tries 19, 19 and 38 halvings,
        past the floor at halving 53, and stops in a fourth round; after
        h = 3 it tries 12, 12, 24 and 48 and stops in a fifth. A round in
        which the last running start stops has no trial and makes no
        kernel call."""
        rng = np.random.default_rng(0)
        cfg = SolverConfig(num_starts=6, max_iter=80)
        inst = rand_instance(rng, n=2, p=0, r=1)
        Z, _, converged = _newton_roots(inst, _sample_starts(inst, cfg, rng), cfg)
        z0 = Z[converged][0] + 1e-3
        directions, kernel = solver._directions, dual.evaluate
        trial_round, first_acceptable = solver._trial_round, solver._first_acceptable
        seen = {"calls": 0, "steps": 0, "halvings": None, "accepted": [],
                "stall_after": cfg.max_iter}

        def scaled(*args):
            step, flat = directions(*args)
            seen["steps"] += 1
            scale = 1.5 * 2.0 ** h if seen["steps"] <= seen["stall_after"] else np.nan
            return step * scale, flat

        def counted(inst, Z):
            seen["calls"] += 1
            assert seen["calls"] < 200, "the line search never reached the floor"
            assert len(Z) > 0, "the kernel was called on no rows"
            return kernel(inst, Z)

        def recorded_round(*args):
            owner, t, seen["halvings"] = trial_round(*args)
            return owner, t, seen["halvings"]

        def recorded_acceptance(*args):
            accepted, first = first_acceptable(*args)
            seen["accepted"] += seen["halvings"][first].tolist()
            return accepted, first

        monkeypatch.setattr(solver, "_directions", scaled)
        monkeypatch.setattr(dual, "evaluate", counted)
        monkeypatch.setattr(solver, "_trial_round", recorded_round)
        monkeypatch.setattr(solver, "_first_acceptable", recorded_acceptance)
        _, iters, converged = _newton_roots(inst, z0[None], cfg)
        steps = len(seen["accepted"])
        assert converged[0] and steps == iters[0] - 1 > 10
        assert seen["accepted"] == [h] * steps
        # the first evaluation, then one call per round that has a trial
        assert seen["calls"] == 1 + first_rounds + (steps - 1)

        seen.update(calls=0, steps=0, accepted=[], stall_after=5)
        _, iters, converged = _newton_roots(inst, z0[None], cfg)
        assert not converged[0] and seen["accepted"] == [h] * 5
        assert seen["calls"] == 1 + first_rounds + 4 + (floor_rounds - 1)

    def test_the_point_after_the_last_step_is_tested(self):
        """A start that first meets the tolerance after step j converges,
        with j iterations, when j steps are allowed, and ends unconverged at
        its point after step j - 1 when only j - 1 are."""
        rng = np.random.default_rng(3)
        inst = rand_instance(rng, n=2, p=1, r=1)
        free = SolverConfig(num_starts=8, max_iter=80)
        for z0 in _sample_starts(inst, free, rng):
            _, _, ok, halvings = _serial_newton_root(inst, z0, free)
            if ok and len(halvings) >= 3:
                break
        else:
            pytest.fail("no start converges after three or more steps")
        j = len(halvings)
        z, _, _, _ = _serial_newton_root(inst, z0, SolverConfig(max_iter=j))
        Z, iters, converged = _newton_roots(inst, z0[None], SolverConfig(max_iter=j))
        assert converged[0] and iters[0] == j and np.array_equal(Z[0], z)
        z, _, _, _ = _serial_newton_root(inst, z0, SolverConfig(max_iter=j - 1))
        Z, iters, converged = _newton_roots(inst, z0[None], SolverConfig(max_iter=j - 1))
        assert not converged[0] and iters[0] == j - 1 and np.array_equal(Z[0], z)


def _serial_primal_root(inst, x, tol):
    """Reference for the lockstep harvest: the primal Newton iteration of one
    start, one point at a time, taking at most ``solver._PRIMAL_ITERATIONS``
    steps and testing the point after the last one. Returns (x, converged,
    how it ended, halvings), with ``halvings`` as in
    :func:`_serial_newton_root`."""
    halvings = []
    for _ in range(solver._PRIMAL_ITERATIONS):
        g = grad_primal(inst, x)
        ginf = float(np.max(np.abs(g)))
        if not np.isfinite(ginf):
            return x, False, "non-finite", halvings
        if ginf <= tol:
            return x, True, "converged", halvings
        try:
            step = np.linalg.solve(hess_primal(inst, x), -g)
        except np.linalg.LinAlgError:
            step = -g
        if not np.all(np.isfinite(step)):
            step = -g
        merit = float(g @ g)
        t, h = 1.0, 0
        while t > 1e-14:
            g_t = grad_primal(inst, x + t * step)
            if np.all(np.isfinite(g_t)) and float(g_t @ g_t) <= merit * (1.0 - 1e-4 * t):
                break
            t, h = t * 0.5, h + 1
        else:
            return x, False, "exhausted", halvings + [None]
        halvings.append(h)
        x = x + t * step
    ok = float(np.max(np.abs(grad_primal(inst, x)))) <= tol
    return x, ok, "converged" if ok else "capped", halvings


class TestLockstepHarvest:
    def _check_rows(self, seed):
        """Runs every shape with n 1..4, m 1..3; k starts in one call must end
        bitwise as k one-row calls and as the reference. Returns the endings."""
        rng = np.random.default_rng(seed)
        endings = set()
        for n in range(1, 5):
            for m in range(1, 4):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    fscale = 1.0 + float(np.max(np.abs(inst.f)))
                    # the last start has a non-finite gradient from the outset
                    X0 = np.vstack([rng.standard_normal((4, n)) * 2.5 * fscale,
                                    np.full(n, np.inf)])
                    with np.errstate(invalid="ignore"):
                        X, converged = _primal_roots(inst, X0, 1e-8 * fscale)
                        for i, x0 in enumerate(X0):
                            x, ok = _primal_roots(inst, x0[None], 1e-8 * fscale)
                            assert np.array_equal(x[0], X[i]) and ok[0] == converged[i]
                            x, ok, ending, halvings = _serial_primal_root(inst, x0, 1e-8 * fscale)
                            assert np.array_equal(x, X[i]) and ok == converged[i]
                            endings |= {ending} | _deep_line_searches(halvings)
        return endings

    def test_rows_end_as_they_would_alone(self):
        """The lockstep rounds couple no two starts, whichever way each ends
        and however deep each line search backtracks."""
        assert self._check_rows(0) == {"converged", "capped", "exhausted", "non-finite",
                                       "deep twice", "floor after deep"}

    def test_the_point_after_the_last_step_is_tested(self, monkeypatch):
        """The harvest's cap rule is the dual search's: a start that first
        meets the tolerance after step j converges when
        ``_PRIMAL_ITERATIONS`` is j, and ends at its point after step j - 1,
        unconverged, when it is j - 1."""
        rng = np.random.default_rng(5)
        inst = rand_instance(rng, n=2, p=1, r=1)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(inst.f))))
        monkeypatch.setattr(solver, "_PRIMAL_ITERATIONS", 80)
        for x0 in rng.standard_normal((8, 2)) * 2.5:
            x, ok, _, halvings = _serial_primal_root(inst, x0, tol)
            if ok and len(halvings) >= 3:
                break
        else:
            pytest.fail("no start converges after three or more steps")
        j = len(halvings)
        monkeypatch.setattr(solver, "_PRIMAL_ITERATIONS", j)
        X, converged = _primal_roots(inst, x0[None], tol)
        assert converged[0] and np.array_equal(X[0], x)
        monkeypatch.setattr(solver, "_PRIMAL_ITERATIONS", j - 1)
        x, _, ending, _ = _serial_primal_root(inst, x0, tol)
        X, converged = _primal_roots(inst, x0[None], tol)
        assert ending == "capped" and not converged[0] and np.array_equal(X[0], x)

    def test_failed_hessian_solves_are_marked_and_step_along_minus_grad(self, monkeypatch):
        """With a third of the Hessians at n >= 2 refused as singular by
        LAPACK (by its solve and its slogdet alike), a stacked solve holding
        one of them fails whole; the slogdet marks the refused rows, the
        others are solved in one call, and the refused ones step along
        -grad, as the reference does. A 1 x 1 Hessian is solved by a
        division and never reaches LAPACK, so the fake refuses none."""
        solve, slogdet = np.linalg.solve, np.linalg.slogdet
        refused = {"stacked": 0, "one": 0, "marked": 0}

        def singular(a):
            mats = np.reshape(a, (-1,) + np.shape(a)[-2:])
            return np.array([len(M) > 1 and zlib.crc32(np.ascontiguousarray(M).tobytes()) % 3 == 0
                             for M in mats], dtype=bool)

        def flaky_solve(a, b):
            refuse = singular(a)
            if refuse.any():
                refused["stacked" if len(refuse) > 1 else "one"] += 1
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        def flaky_slogdet(a):
            sign, logdet = slogdet(a)
            refuse = singular(a).reshape(np.shape(sign))
            refused["marked"] += int(refuse.sum())
            return np.where(refuse, 0.0, sign), np.where(refuse, -np.inf, logdet)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        monkeypatch.setattr(np.linalg, "slogdet", flaky_slogdet)
        self._check_rows(1)
        assert refused["stacked"] > 0 and refused["one"] > 0 and refused["marked"] > 0


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [("max_iter", 3.5), ("num_starts", 2.5),
                                              ("seed", 1.5), ("max_iter", 4.0),
                                              ("seed", "7"), ("num_starts", None)])
    def test_a_non_integral_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"SolverConfig.{field} must be an integer"):
            SolverConfig(**{field: value})

    def test_a_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="SolverConfig.seed must be >= 0"):
            SolverConfig(seed=np.int64(-1))

    def test_numpy_integers_are_accepted(self):
        cfg = SolverConfig(max_iter=np.int64(40), num_starts=np.int32(4), seed=np.uint8(3))
        rep = find_critical_points(fixtures.example1(), cfg)
        assert rep.critical_pairs


def _tau_one_row(u, margin):
    """Reference for the vectorised sampling: one row of uniforms (p + 1,)
    to tau (p,), a point at a time."""
    p = u.size - 1
    w = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-12))
    total = w.sum()
    tau = w[:p] / total if total > 0 else np.full(p, 1.0 / (p + 1))
    tau = np.maximum(tau, margin)
    total = tau.sum()
    if total >= 1.0 - margin:
        tau *= (1.0 - (p + 1) * margin) / total
    return tau


class TestStartSampling:
    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    def test_tau_rows_match_the_per_row_sampling(self, p):
        """Bitwise, on random rows, all-zero rows (the simplex centre), rows
        clipped at 1 and rows crowded onto the margin (rescaled)."""
        rng = np.random.default_rng(p)
        crowded = np.zeros(p + 1)
        crowded[0] = 1.0
        U = np.vstack([rng.uniform(0.0, 1.0, (40, p + 1)), np.zeros(p + 1), crowded,
                       np.ones(p + 1), rng.uniform(0.0, 1e-9, (3, p + 1))])
        tau = _tau_from_uniforms(U)
        assert tau.shape == (len(U), p)
        for row, u in zip(tau, U):
            assert np.array_equal(row, _tau_one_row(u, BOUNDARY_MARGIN))
        assert np.array_equal(tau[40], np.full(p, 1.0 / (p + 1)))
        assert tau[41].sum() < 1.0 - BOUNDARY_MARGIN <= _tau_one_row(crowded, 0.0).sum()


def _scan_grid(inst):
    """The m = 1 scan's grid: sigma over its sampling box, or tau inside the
    margin."""
    if inst.r == 1:
        lo, hi = _sigma_box(inst)
        return np.linspace(float(lo[0]), float(hi[0]), 4096)
    return np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, 4096)


def _scan_cells(inst, kernel=gradients):
    """The grid, its derivative values and the sign-change cells of the
    m = 1 scan, with the gradients of ``kernel`` (the scan's own by
    default): the cells whose end values are finite and differ in sign or
    touch zero."""
    grid = _scan_grid(inst)
    vals = kernel(inst, grid[:, None])[:, 0]
    cells = [i for i in range(len(grid) - 1)
             if np.isfinite(vals[i]) and np.isfinite(vals[i + 1])
             and (vals[i] <= 0.0 <= vals[i + 1] or vals[i + 1] <= 0.0 <= vals[i])]
    cells = np.array(cells, dtype=int)
    return grid, vals, cells


def _scan_rows(inst, kernel=gradients):
    """Reference for the m = 1 scan: for each sign-change cell [a, b] of
    the grid, its secant point a + fa / (fa - fb) (b - a) (the midpoint when
    fa = fb), then a, then b, as rows of a (k, 1) array."""
    grid, vals, cells = _scan_cells(inst, kernel)
    rows = []
    for i in cells:
        a, b, fa, fb = grid[i], grid[i + 1], vals[i], vals[i + 1]
        share = fa / (fa - fb) if fa != fb else 0.5
        rows += [a + share * (b - a), a, b]
    return np.reshape(rows, (-1, 1))


def _serial_scan(inst, max_iter):
    """Reference for the earlier m = 1 scan: each sign-change cell bisected
    alone, over one-row kernel calls, until the derivative is within
    GRAD_TOL, undefined, or the cell is narrower than 1e-15 (1 + |x|), in at
    most ``max_iter`` halvings. Returns the final midpoints as rows of a
    (k, 1) array and the derivative there (NaN where undefined)."""
    def deriv_at(s):
        g = float(evaluate(inst, np.array([[s]])).grad[0, 0])
        return g if np.isfinite(g) else None

    grid, vals, cells = _scan_cells(inst)
    x, fx = [], []
    for i in cells:
        a, b, fa = float(grid[i]), float(grid[i + 1]), float(vals[i])
        mid = 0.5 * (a + b)
        fm = deriv_at(mid)
        for _ in range(max_iter):
            if fm is None or abs(fm) <= GRAD_TOL or b - a <= 1e-15 * (1.0 + abs(mid)):
                break
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
            mid = 0.5 * (a + b)
            fm = deriv_at(mid)
        x.append(mid)
        fx.append(np.nan if fm is None else fm)
    return np.reshape(x, (-1, 1)), np.array(fx)


def _pole_in_cell(offset):
    """An n = 2, r = 1 instance whose scan has a sign-change cell with a pole
    of G^{-1} inside it, ``offset`` of the cell's width from its left end.
    The pole's mode carries a load of 1e-6, so it barely moves the grid
    values, and it sits in a cell where the other mode's derivative changes
    sign."""
    def instance(a2):
        return validate(ProblemInstance(
            A=np.diag([-3.0, a2]), f=[1.0, 1e-6],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.0, alpha=1.0),)))

    grid = _scan_grid(instance(0.0))  # the box depends on max |a| = 3 only
    smooth = 0.5 / (grid - 3.0) ** 2 - grid
    j = np.nonzero((smooth[:-1] * smooth[1:] <= 0.0) & (np.abs(grid[:-1]) < 2.0))[0][0]
    return instance(-(grid[j] + offset * (grid[j + 1] - grid[j])))


def _singular_grid_point():
    """An n = 2, p = 1 instance with G singular at a point of the tau grid."""
    t = _scan_grid(validate(ProblemInstance(
        A=np.eye(1), f=[1.0], lse_terms=(LseTerm(Q=np.eye(1), d=0.0),))))[1500]
    return validate(ProblemInstance(A=np.diag([-t, 0.7]), f=[0.3, 0.5],
                                    lse_terms=(LseTerm(Q=np.eye(2), d=0.2),)))


def _random_m1_draws():
    """32 random m = 1 instances, n = 1..4 with one log-sum-exp or one
    quartic term; the last (n = 4, p = 1) has no sign-change cell and no
    primal seed inside the simplex margin."""
    rng = np.random.default_rng(0)
    shapes = [(n, p) for n in range(1, 5) for p in (0, 1)] * 4
    return [rand_instance(rng, n=n, p=p, r=1 - p) for n, p in shapes]


class TestUnivariateScan:
    def _instances(self):
        return _random_m1_draws() + [_pole_in_cell(0.5), _pole_in_cell(0.3),
                                     _singular_grid_point()]

    def test_the_scan_hands_every_cell_its_secant_point_and_ends(self):
        """The scan's rows are, bitwise, the secant point, the left end and
        the right end of every sign-change cell, in grid order, whatever
        the derivative there. The sample has cells straddling a pole (the
        inertia of G differs at their ends) and a grid point where G is
        singular."""
        straddling = singular_points = 0
        for inst in self._instances():
            grid, vals, cells = _scan_cells(inst)
            rows = _univariate_roots(inst)
            assert np.array_equal(rows, _scan_rows(inst))
            secant, a, b = rows.reshape(-1, 3).T
            assert np.all((a <= secant) & (secant <= b))
            w = evaluate(inst, grid[:, None]).w
            negative = (w < 0.0).sum(axis=1)
            straddling += int(np.count_nonzero(negative[cells] != negative[cells + 1]))
            singular_points += int(np.count_nonzero(~np.isfinite(vals)))
        assert straddling >= 2 and singular_points >= 1

    def test_the_scan_rows_are_those_of_the_eigen_kernel(self):
        """The LU kernel moves no cell: on the same sample the cells are,
        bitwise, those of the eigen kernel's gradients, and the secant
        points agree with its ones to 1e-12 relative."""
        def eigen(inst, Z):
            return evaluate(inst, Z).grad

        for inst in self._instances():
            rows = _univariate_roots(inst).reshape(-1, 3)
            want = _scan_rows(inst, eigen).reshape(-1, 3)
            assert rows.shape == want.shape
            assert np.array_equal(rows[:, 1:], want[:, 1:])
            np.testing.assert_allclose(rows[:, 0], want[:, 0], rtol=1e-12, atol=0.0)

    def test_the_scan_is_one_kernel_call(self, monkeypatch):
        """The grid is the scan's only kernel call, on the gradient-only
        kernel and 4,096 rows; a cell adds rows to the Newton search and no
        evaluation, and the eigen kernel is never called."""
        calls = {"gradients": [], "evaluate": []}

        def counted(name):
            kernel = getattr(dual, name)

            def call(inst, Z):
                calls[name].append(len(Z))
                return kernel(inst, Z)
            monkeypatch.setattr(dual, name, call)

        counted("gradients")
        counted("evaluate")
        rows = _univariate_roots(_pole_in_cell(0.3))
        assert len(rows) >= 6 and len(rows) % 3 == 0
        assert calls == {"gradients": [4096], "evaluate": []}

    @pytest.mark.parametrize("f", [[1.0, 0.0, 0.0], [0.0, 1.0, -0.5]])
    def test_a_null_vector_of_a_and_b_gives_no_rows(self, monkeypatch, f):
        """A and B share the null vector e_1, so G(sigma) is singular on the
        whole grid; f lies on that vector, then off it. The scan hands the
        search no rows, in a bounded number of LAPACK calls rather than one
        per row and with no eigendecomposition, and the report is that of
        an instance with nothing to search."""
        inst = validate(ProblemInstance(
            A=[[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, -3.0]], f=f,
            quartic_terms=(QuarticTerm(B=[[0.0, 0.0, 0.0], [0.0, 1.0, 0.5],
                                          [0.0, 0.5, 2.0]], c=0.5, alpha=1.0),)))
        calls = []
        for name in ("solve", "slogdet", "eigh"):
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        rows = _univariate_roots(inst)
        assert rows.shape == (0, 1)
        assert 0 < len(calls) <= 3 and "eigh" not in calls
        monkeypatch.undo()
        report = find_critical_points(inst)
        assert report.notes == ["0 starts, 0 converged, 0 distinct critical points"]
        assert report.iterations == 0 and not report.critical_pairs

    def test_a_tiny_derivative_is_not_a_sign_change_everywhere(self):
        """At beta = 1e300 the derivative is about 1e-300 on the whole grid,
        so the product of two neighbouring values underflows to zero; only
        the one cell around the root may count."""
        inst = validate(ProblemInstance(A=[[-1.0]], f=[0.0],
                                        lse_terms=(LseTerm(Q=[[1.0]], d=0.0),),
                                        beta=1e300))
        rows = _univariate_roots(inst)
        assert 0 < len(rows) <= 3
        rep = find_critical_points(inst)
        assert rep.critical_pairs


def _captured_search_rows(monkeypatch, inst, cfg):
    """The rows ``find_critical_points`` hands to the dual Newton search,
    and its report."""
    search, rows = solver._newton_roots, []

    def captured(inst, Z0, cfg):
        rows.append(Z0.copy())
        return search(inst, Z0, cfg)

    monkeypatch.setattr(solver, "_newton_roots", captured)
    report = find_critical_points(inst, cfg)
    assert len(rows) == 1
    return rows[0], report


def _reference_pairs(inst, cfg):
    """The pairs of the earlier design: the Newton search from the sampled
    and the primal-seeded starts, the scan's points whose derivative is
    within 10 GRAD_TOL appended after its roots, then deduplicated and
    classified."""
    rng = np.random.default_rng(cfg.seed)
    Z0 = np.vstack([_sample_starts(inst, cfg, rng), _primal_seeded_starts(inst, cfg, rng)])
    Z, _, converged = _newton_roots(inst, Z0, cfg)
    points, fx = _serial_scan(inst, cfg.max_iter)
    roots = np.vstack([Z[converged], points[np.abs(fx) <= 10.0 * GRAD_TOL]])
    pairs = [make_pair(inst, DualPoint.from_vector(z, inst.p)) for z in solver._dedup(roots)]
    return solver._sorted_pairs([pair for pair in pairs if pair is not None])


class TestOneNewtonSearch:
    @pytest.mark.parametrize("n,p,r", [(1, 0, 1), (3, 1, 0), (2, 1, 1), (4, 2, 1)])
    def test_the_search_runs_the_first_starts_then_the_primal_seeds(self, monkeypatch,
                                                                    n, p, r):
        """At m = 1 the scan's points are the first rows, in place of the
        sampled starts, which are still drawn so the primal seeds after them
        are those of every m; at m >= 2 the sampled starts come first. The
        report counts the first rows only."""
        inst = rand_instance(np.random.default_rng(5), n=n, p=p, r=r)
        cfg = SolverConfig(num_starts=8, max_iter=80)
        rows, report = _captured_search_rows(monkeypatch, inst, cfg)
        rng = np.random.default_rng(cfg.seed)
        sampled = _sample_starts(inst, cfg, rng)
        first = _univariate_roots(inst) if inst.m == 1 else sampled
        assert np.array_equal(rows, np.vstack([first, _primal_seeded_starts(inst, cfg, rng)]))
        assert len(first) > 0
        _, iters, converged = _newton_roots(inst, rows, cfg)
        assert report.iterations == iters[:len(first)].sum()
        assert report.notes[0].startswith(
            f"{len(first)} starts, {converged[:len(first)].sum()} converged, ")

    def test_every_pair_is_a_converged_row_of_the_search(self, monkeypatch):
        """No pair comes from outside the search: the rows it ends
        unconverged give none."""
        inst = rand_instance(np.random.default_rng(5), n=2, p=1, r=1)
        cfg = SolverConfig(num_starts=8, max_iter=80)
        rows, report = _captured_search_rows(monkeypatch, inst, cfg)
        Z, _, converged = _newton_roots(inst, rows, cfg)
        assert not converged.all() and report.critical_pairs
        for pair in report.critical_pairs:
            assert any(np.array_equal(pair.zeta.vector(), z) for z in Z[converged])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_m1_pairs_are_those_of_the_earlier_design(self, seed):
        """Scanned instead of sampled first starts, the same pairs: count,
        classification and value to 1e-9, on random m = 1 draws and on
        example 2 (whose five roots include thin basins next to poles)."""
        rng = np.random.default_rng(100 + seed)
        cfg = SolverConfig(num_starts=8, max_iter=80, seed=seed)
        cases = [(rand_instance(rng, n=n, p=p, r=1 - p), cfg)
                 for n in range(1, 5) for p in (0, 1) for _ in range(2)]
        cases.append((fixtures.example2(), SolverConfig(seed=seed)))
        found = 0
        for inst, config in cases:
            got = find_critical_points(inst, config).critical_pairs
            want = _reference_pairs(inst, config)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.classification == b.classification
                assert a.dual_value == pytest.approx(b.dual_value, rel=1e-9, abs=1e-9)
                assert a.primal_value == pytest.approx(b.primal_value, rel=1e-9, abs=1e-9)
            found += len(got)
        assert found >= 20


class TestDirections:
    @staticmethod
    def _points(inst, k=4):
        """k rows of the positive region of ``inst`` with their evaluation."""
        cfg = SolverConfig(num_starts=k)
        z, pts = solver._interior_start(inst, cfg, np.random.default_rng(0))
        Z = z + np.outer(np.linspace(0.0, 0.3, k), np.r_[np.zeros(inst.p), np.ones(inst.r)])
        pts = dual.evaluate(inst, Z)
        assert pts.valid.all() and (pts.w[:, 0] > 0.0).all()
        return Z, pts

    def test_an_unsolvable_row_steps_along_minus_jg_at_unit_max_norm(self, monkeypatch):
        """Where the Newton solve gives NaN the step is steepest descent on
        the merit 1/2 |g|^2, -J g, scaled to unit max-norm; the other rows
        keep their Newton steps."""
        inst = fixtures.example1()
        Z, pts = self._points(inst)
        newton, _ = solver._directions(inst, Z[:, :inst.p], pts)
        refused = np.array([True, False, True, False])

        solve_rows = dual.solve_rows

        def partly_singular(M, b):
            out = solve_rows(M, b)
            out[refused] = np.nan
            return out
        monkeypatch.setattr(dual, "solve_rows", partly_singular)
        steps, flat = solver._directions(inst, Z[:, :inst.p], pts)
        assert not flat.any()
        assert np.array_equal(steps[~refused], newton[~refused])
        for i in np.nonzero(refused)[0]:
            J = hess_dual(inst, DualPoint.from_vector(Z[i], inst.p))
            descent = -J @ pts.grad[i]
            assert np.allclose(steps[i], descent / np.abs(descent).max(), rtol=1e-9)
            assert np.abs(steps[i]).max() == pytest.approx(1.0, rel=1e-15)

    def test_a_zero_descent_direction_is_flat(self, monkeypatch):
        # -J g = 0 where g = 0: the row is flat and its step is zero
        inst = fixtures.example1()
        Z, pts = self._points(inst)
        pts = pts._replace(grad=np.where(np.arange(len(Z))[:, None] == 1, 0.0, pts.grad))
        monkeypatch.setattr(dual, "solve_rows", lambda M, b: np.full(b.shape, np.nan))
        steps, flat = solver._directions(inst, Z[:, :inst.p], pts)
        assert flat.tolist() == [False, True, False, False]
        assert not steps[1].any() and np.all(np.isfinite(steps))

    def test_the_ascent_stops_on_a_flat_direction(self, monkeypatch):
        inst = fixtures.example1()
        cfg = SolverConfig()
        z, pts = solver._interior_start(inst, cfg, np.random.default_rng(0))
        calls = []

        def flat(inst, tau, pts):
            calls.append(len(tau))
            return np.zeros((1, inst.m)), np.array([True])
        monkeypatch.setattr(solver, "_directions", flat)
        got, got_pts, it, converged = solver._newton_ascent(inst, z, pts, cfg)
        assert (it, converged, calls) == (1, False, [1])
        assert got is z and got_pts is pts


class TestLockstepHandoff:
    def test_each_step_gets_a_fresh_evaluation_of_its_point(self, monkeypatch):
        """At every Newton step of both searches, at a start or at an
        accepted trial, the direction callback gets per row bitwise what a
        one-row evaluation at that point gives: the dual kernel's grad, U,
        w and Mx, or the primal gradient."""
        lockstep = solver._lockstep_newton
        steps = {"dual": 0, "primal": 0}
        starts = dict(steps)

        def checked(evaluate, direction, X0, *args):
            starts["dual" if evaluate(X0[:1])[2] else "primal"] += len(X0)

            def fresh(X, g, state):
                for i, x in enumerate(X):
                    if state:
                        pts = dual.evaluate(inst, x[None])
                        want = (pts.grad, pts.U, pts.w, pts.Mx)
                    else:
                        want = (primal.grad_primal(inst, x[None]),)
                    for got, one in zip((g, *state), want, strict=True):
                        assert np.array_equal(got[i], one[0])
                steps["dual" if state else "primal"] += len(X)
                return direction(X, g, state)
            return lockstep(evaluate, fresh, X0, *args)

        monkeypatch.setattr(solver, "_lockstep_newton", checked)
        rng = np.random.default_rng(17)
        cfg = SolverConfig(num_starts=8, max_iter=40)
        for n in (1, 2, 3):
            for m in (1, 2):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    find_critical_points(inst, cfg)
        # most steps come after accepted trials
        assert steps["dual"] > 3 * starts["dual"] and steps["primal"] > 3 * starts["primal"]


def _tau_step_caps_reference(tau, dtau):
    """The fraction-to-boundary caps written column by column."""
    value = np.column_stack([tau, 1.0 - tau.sum(axis=1)])
    slope = np.column_stack([dtau, -dtau.sum(axis=1)])
    allowed = np.maximum(value - np.maximum(BOUNDARY_MARGIN, (1.0 - 0.995) * value), 0.0)
    cap = np.divide(allowed, -slope, out=np.full(value.shape, np.inf), where=slope < 0.0)
    return cap.min(axis=1)


class TestStepCaps:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_caps_are_the_columnwise_formula(self, p):
        """Bitwise the reference, with tau and the slack next to the simplex
        edge and on the margin, and steps of both signs and of either zero."""
        rng = np.random.default_rng(40 + p)
        W = rng.exponential(size=(300, p + 1)) * 10.0 ** rng.integers(-12, 1, (300, p + 1))
        Z = np.hstack([W / W.sum(axis=1, keepdims=True), rng.standard_normal((300, 2))])
        Z[:20, :p] = BOUNDARY_MARGIN
        D = rng.standard_normal((300, p + 2)) * 10.0 ** rng.integers(-10, 3, (300, p + 2))
        D[rng.random(D.shape) < 0.1] = 0.0
        D[rng.random(D.shape) < 0.05] = -0.0
        D[-2:] = [0.0], [-0.0]  # no tau moves: no cap
        tau, dtau = Z[:, :p], D[:, :p]  # views, as the search passes them
        got = solver._tau_step_caps(tau, dtau)
        assert np.array_equal(got, _tau_step_caps_reference(tau, dtau))
        assert np.isinf(got).any() and (got < 1.0).any()


def _dedup_reference(points):
    """The deduplication one kept root at a time."""
    unique = []
    for z in points:
        if not any(np.max(np.abs(z - u), initial=0.0)
                   <= 1e-6 * (1.0 + float(np.linalg.norm(u))) for u in unique):
            unique.append(z)
    return unique


class TestDedup:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_kept_rows_are_the_one_at_a_time_ones(self, m):
        """Rows clustered around a few centres, each offset by the
        tolerance of its centre times a factor within 1e-9 of 1, so the
        comparisons sit on the tolerance's edge: the kept rows are
        bitwise those of the reference, in its order."""
        rng = np.random.default_rng(50 + m)
        centres = rng.standard_normal((6, m)) * 10.0 ** rng.integers(-2, 3, (6, 1))
        rows = []
        for c in centres[rng.integers(6, size=400)]:
            offset = rng.uniform(-1.0, 1.0, m)
            offset[rng.integers(m)] = rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(-1e-9, 1e-9))
            rows.append(c + offset * 1e-6 * (1.0 + np.linalg.norm(c)))
        Z = np.array(rows)
        got = solver._dedup(Z)
        want = _dedup_reference(Z)
        assert 6 < len(want) < 200
        assert got.shape == (len(want), m)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

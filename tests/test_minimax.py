import math
import warnings

import numpy as np
import pytest

from canodual import fixtures, univariate
from canodual.dual import ShiftedHessian, assemble
from canodual.errors import (
    DomainError,
    HardCaseError,
    NoDualCriticalPointError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
    UnboundedError,
)
from canodual.minimax import (
    MinimaxInstance,
    beta_sweep,
    canonical_from_problem,
    dual_derivative,
    existence_check,
    smooth_and_canonicalize,
    solve,
    solve_canonical,
    validate_minimax,
)
from canodual.model import (
    Classification,
    DualPoint,
    ExistenceVerdict,
    LseTerm,
    ProblemInstance,
    SpectralData,
    validate,
)
from canodual.solver import make_pair

from conftest import rand_minimax, rand_sym


class TestCanonicalize:
    def test_benchmark3_canonical_data(self):
        can = smooth_and_canonicalize(fixtures.example3())
        assert np.allclose(can.A, -0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(can.f, [0.0, -0.5], atol=1e-12)
        assert can.d == pytest.approx(fixtures.EX3_EXPECTED["canonical_d"], abs=1e-12)
        assert can.value_shift == pytest.approx(fixtures.EX3_EXPECTED["canonical_shift"],
                                                abs=1e-12)
        assert np.allclose(can.to_original([0.0, 0.0]), [0.0, 1.0], atol=1e-12)

    def test_identity_case(self):
        mm = MinimaxInstance(A1=np.zeros((2, 2)), A2=np.eye(2),
                             f1=np.zeros(2), f2=np.zeros(2), beta=10.0)
        can = smooth_and_canonicalize(mm)
        assert np.allclose(can.A, 0.0) and np.allclose(can.f, 0.0)
        assert can.d == 0.0 and can.value_shift == 0.0
        assert np.allclose(can.basis, np.eye(2))

    def test_difference_whitened_on_random_probes(self, rng):
        for _ in range(20):
            mm = rand_minimax(rng, 3, "generic")
            can = smooth_and_canonicalize(mm)
            for _ in range(10):
                y = rng.standard_normal(3) * 2.0
                x = can.to_original(y)
                g1, g2 = mm.branch_values(x)
                target = 0.5 * float(y @ y) + can.d
                assert g2 - g1 == pytest.approx(target, abs=1e-9)

    def test_base_branch_value_shift(self, rng):
        mm = rand_minimax(rng, 2, "generic")
        can = smooth_and_canonicalize(mm)
        for _ in range(10):
            y = rng.standard_normal(2)
            x = can.to_original(y)
            base = 0.5 * float(y @ can.A @ y) - float(can.f @ y) + can.value_shift
            assert mm.branch_values(x)[0] == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("change, fragment", [
        (dict(f1=np.zeros(3)), "f1/f2 must be n-vectors"),
        (dict(f2=np.zeros((2, 1))), "f1/f2 must be n-vectors"),
        (dict(f1=np.array([np.nan, 0.0])), "non-finite data"),
        (dict(f2=np.array([0.0, np.inf])), "non-finite data"),
        (dict(d1=np.inf), "non-finite data"),
        (dict(d2=np.nan), "non-finite data"),
    ], ids=["f1-length", "f2-shape", "f1", "f2", "d1", "d2"])
    def test_each_invalid_input_names_its_fault(self, change, fragment):
        mm = MinimaxInstance(**{**dict(A1=np.zeros((2, 2)), A2=np.eye(2),
                                       f1=np.zeros(2), f2=np.zeros(2)), **change})
        with pytest.raises(ShapeMismatchError) as info:
            validate_minimax(mm)
        assert fragment in str(info.value)

    def test_not_pd_rejected(self):
        # negative definite, and positive but below the relative threshold 1e-10
        for A2 in (-2.0 * np.eye(2), 2.0 * np.eye(2) + np.diag([1.0, 1e-10])):
            mm = MinimaxInstance(A1=2.0 * np.eye(2), A2=A2, f1=np.zeros(2), f2=np.zeros(2))
            for step in (smooth_and_canonicalize, solve):
                with pytest.raises(NotPositiveDefiniteError):
                    step(mm)

    def test_finite_curvatures_stay_finite(self):
        """Symmetrizing halves each side first, so a finite entry near the
        largest float neither overflows nor warns."""
        A1 = np.array([[1e308, 1.0], [1.0, 1.0]])
        A2 = A1 + np.diag([1e300, 1e300])
        mm = MinimaxInstance(A1=A1, A2=A2, f1=np.zeros(2), f2=np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = validate_minimax(mm)
        assert np.array_equal(out.A1, A1) and np.array_equal(out.A2, A2)

    def test_an_overflowing_whitening_is_refused(self):
        # the difference is admitted (1e-9 > 1e-10 (1 + 1)), but whitening
        # scales the first coordinate by 10^4.5, which takes f past the floats
        mm = MinimaxInstance(A1=np.eye(2), A2=np.eye(2) + np.diag([1e-9, 1.0]),
                             f1=np.array([1e305, 1.0]), f2=np.array([1e305, 1.0]))
        with pytest.raises(NotPositiveDefiniteError,
                           match="whitening by the branch difference A2 - A1 overflows"):
            smooth_and_canonicalize(mm)

    @pytest.mark.parametrize("w_min, admitted", [(1.002e-7, True), (1.0e-7, False)])
    def test_conditioning_at_the_definiteness_threshold(self, w_min, admitted):
        # w_max = 1e3 puts the threshold 1e-10 (1 + w_max) at 1.001e-7: just
        # above it kappa is 1e10 to within 0.1 %, and the solve stays silent
        mm = MinimaxInstance(A1=np.eye(2), A2=np.eye(2) + np.diag([1e3, w_min]),
                             f1=np.array([1.0, 0.5]), f2=np.zeros(2), d2=0.5, beta=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if admitted:
                assert solve(mm).best.classification == Classification.GLOBAL_MIN
            else:
                with pytest.raises(NotPositiveDefiniteError):
                    solve(mm)

    def test_smoothing_sandwich(self, rng):
        # max <= smoothed <= max + log(2)/beta, checked on 1000 points
        count = 0
        while count < 1000:
            mm = rand_minimax(rng, int(rng.integers(1, 4)), "generic")
            bound = math.log(2.0) / mm.beta
            for _ in range(25):
                x = rng.standard_normal(mm.n) * 2.5
                hi = mm.max_value(x)
                sm = mm.smoothed_value(x)
                assert hi - 1e-12 <= sm <= hi + bound + 1e-12
                count += 1

    def test_canonical_value_consistency(self, rng):
        # smoothed objective equals the canonical instance value plus shift
        from canodual.primal import eval_primal
        mm = rand_minimax(rng, 2, "generic")
        can = smooth_and_canonicalize(mm)
        prob = can.to_problem()
        for _ in range(10):
            y = rng.standard_normal(2)
            assert mm.smoothed_value(can.to_original(y)) == pytest.approx(
                eval_primal(prob, y) + can.value_shift, abs=1e-9)


class TestUnivariateDual:
    def _ex3_sd(self):
        can = smooth_and_canonicalize(fixtures.example3())
        return can, can.spectral()

    def test_benchmark_values(self):
        can, sd = self._ex3_sd()
        conj = univariate.entropy(can.d, can.beta)
        v1 = univariate.value(sd, conj, 0.749318) + can.value_shift
        assert v1 == pytest.approx(0.005627, abs=1e-5)
        v2 = univariate.value(sd, conj, 0.249308) + can.value_shift
        assert v2 == pytest.approx(2.00562, abs=1e-4)

    def test_domain_error(self):
        can, sd = self._ex3_sd()
        conj = univariate.entropy(can.d, can.beta)
        with pytest.raises(DomainError):
            univariate.value(sd, conj, 0.5)  # spectrum pole
        with pytest.raises(DomainError):
            univariate.value(sd, conj, 1.0)
        with pytest.raises(DomainError):
            univariate.value(sd, conj, -0.1)

    def test_entropy_only_maximizer_at_half(self):
        sd = SpectralData.from_matrix(np.diag([1.0, 2.0]), np.zeros(2))
        assert dual_derivative(sd, 0.0, 10.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_concave_on_positive_interval(self):
        can, sd = self._ex3_sd()
        conj = univariate.entropy(can.d, can.beta)
        for tau in np.linspace(0.51, 0.99, 25):
            assert univariate.second_derivative(sd, conj, tau) < 0


class TestExistence:
    def test_benchmark3_exists(self):
        can = smooth_and_canonicalize(fixtures.example3())
        sd = can.spectral()
        assert sd.k == 2 and np.max(np.abs(sd.f_hat[:2])) > 0
        assert existence_check(sd, can.d, can.beta) == ExistenceVerdict.EXISTS

    def test_psd_unconditional(self):
        sd = SpectralData.from_matrix(np.diag([0.0, 1.0]), np.ones(2))
        assert existence_check(sd, 0.0, 10.0) == ExistenceVerdict.UNCONDITIONAL

    def test_deep_negative_unbounded(self):
        sd = SpectralData.from_matrix(np.diag([-2.0, 1.0]), np.ones(2))
        assert existence_check(sd, 0.0, 10.0) == ExistenceVerdict.UNBOUNDED


class TestSolve:
    def test_benchmark3_full(self):
        rep = solve(fixtures.example3())
        exp = fixtures.EX3_EXPECTED
        best = rep.best
        assert best.classification == Classification.GLOBAL_MIN
        assert float(best.zeta.tau[0]) == pytest.approx(exp["tau_global"], abs=1e-5)
        assert best.x == pytest.approx(exp["x_global"], abs=1e-5)
        assert best.primal_value == pytest.approx(exp["value_global"], abs=1e-5)
        second = max(rep.critical_pairs, key=lambda p: p.primal_value)
        assert float(second.zeta.tau[0]) == pytest.approx(exp["tau_second"], abs=1e-5)
        assert second.primal_value == pytest.approx(exp["value_second"], abs=1e-4)
        assert second.primal_label == Classification.SADDLE
        assert second.dual_label == Classification.LOCAL_MIN

    def test_trivial_centered_instance(self):
        mm = MinimaxInstance(A1=np.eye(2), A2=2.0 * np.eye(2),
                             f1=np.zeros(2), f2=np.zeros(2), beta=10.0)
        rep = solve(mm)
        best = rep.best
        assert np.allclose(best.x, 0.0, atol=1e-9)
        assert float(best.zeta.tau[0]) == pytest.approx(0.5, abs=1e-9)

    def test_unbounded_raises_and_ray_confirms(self, rng):
        for _ in range(5):
            mm = rand_minimax(rng, 2, "unbounded")
            with pytest.raises(UnboundedError):
                solve(mm)
            can = smooth_and_canonicalize(mm)
            sd = can.spectral()
            v = sd.U[:, 0]  # canonical ground direction
            vals = [mm.max_value(can.to_original(t * v)) for t in 2.0 ** np.arange(24)]
            assert min(vals) < -1e6

    def test_enumeration_stops_left_of_the_positive_region(self, monkeypatch):
        # D' decreases where tau > -lambda_1, so the maximiser is the one
        # root there and the enclosure search covers only the intervals
        # left of it
        seen = []
        search = univariate.critical_points

        def recorded(sd, conj):
            seen.append((float(sd.lambdas[0]), conj.hi))
            return search(sd, conj)

        monkeypatch.setattr(univariate, "critical_points", recorded)
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5):
            for _ in range(4):
                rep = solve(rand_minimax(rng, n, "exists"))
                assert rep.best.classification == Classification.GLOBAL_MIN
        negative = [(lam1, hi) for lam1, hi in seen if lam1 < 0.0]
        assert len(negative) >= 8
        assert all(hi <= -lam1 for lam1, hi in negative)

    def test_not_exists_raises(self, rng):
        for _ in range(5):
            mm = rand_minimax(rng, 2, "not_exists")
            with pytest.raises(NoDualCriticalPointError):
                solve(mm)

    def test_smoothed_fast_path_matches(self):
        can = smooth_and_canonicalize(fixtures.example3())
        rep = solve_canonical(canonical_from_problem(can.to_problem()))
        assert float(rep.best.zeta.tau[0]) == pytest.approx(
            fixtures.EX3_EXPECTED["tau_global"], abs=1e-5)
        # canonical values (no shift applied by the fast path)
        assert rep.best.primal_value == pytest.approx(
            fixtures.EX3_EXPECTED["value_global"] - fixtures.EX3_EXPECTED["canonical_shift"],
            abs=1e-5)

    def test_root_hugging_the_entropy_wall(self):
        # a strongly positive gap term pushes the maximizer to
        # tau = 1 - exp(-beta d +- ...), far inside the usual scan margin;
        # the geometric bracketer must still resolve it
        mm = MinimaxInstance(A1=np.zeros((2, 2)), A2=np.eye(2),
                             f1=[0.05, -0.05], f2=[0.05, -0.05],
                             d1=0.0, d2=2.0, beta=10.0)
        rep = solve(mm)
        tau = float(rep.best.zeta.tau[0])
        assert 1.0 - tau < 1e-6
        assert tau < 1.0
        assert rep.best.gap <= 1e-9 * (1 + abs(rep.best.dual_value))

    def test_a_maximiser_without_a_pair_is_a_hard_case(self):
        # the head load 1e-10 is above its threshold, so the maximiser
        # exists, but it lies 3.2e-11 past the pole at tau = 0.5, where
        # A + tau I is singular to working precision
        inst = validate(ProblemInstance(A=np.diag([-0.5, 0.3]), f=[1e-10, 0.1],
                                        lse_terms=(LseTerm(Q=np.eye(2), d=-5.0),), beta=10.0))
        can = canonical_from_problem(inst)
        assert existence_check(can.spectral(), can.d, can.beta) == ExistenceVerdict.EXISTS
        with pytest.raises(HardCaseError, match="no pair at the dual maximiser") as err:
            solve_canonical(can)
        context = err.value.context
        assert context["lambda_min"] == -0.5
        assert context["min_eig"] == context["lambda_min"] + context["tau"]
        assert 0.0 < context["min_eig"] < 1e-10
        assert context["verdict"] == "EXISTS"

    def test_beta_sweep_decreases_to_nonsmooth_optimum(self):
        rows = beta_sweep(fixtures.example3(), [1.0, 1e2, 1e4])
        values = [row["value"] for row in rows]
        assert all(math.isfinite(v) for v in values)
        assert values[0] > values[1] > values[2] > 0
        assert values[2] < 1e-4
        assert np.max(np.abs(rows[2]["x"])) < 1e-3


def _diagonal_difference_instance(rng, n, diagonal):
    A1 = rand_sym(rng, n, 0.8)
    return MinimaxInstance(A1=A1, A2=A1 + np.diag(diagonal),
                           f1=rng.standard_normal(n) * 0.4, f2=rng.standard_normal(n) * 0.4,
                           d1=float(rng.uniform(-0.5, 0.5)), d2=float(rng.uniform(-0.5, 0.5)),
                           beta=8.0)


class TestDiagonalDifference:
    """A2 - A1 with every off-diagonal entry exactly zero is whitened by
    scaling, with the outputs of the dense Cholesky formula."""

    @pytest.mark.parametrize("n", [5, 100])
    def test_canonical_form_is_the_dense_formula_bit_for_bit(self, rng, n):
        mm = _diagonal_difference_instance(rng, n, rng.uniform(0.5, 2.0, n))
        delta, g = mm.A2 - mm.A1, mm.f2 - mm.f1
        assert np.count_nonzero(delta - np.diag(np.diagonal(delta))) == 0
        W = np.linalg.inv(np.linalg.cholesky(delta)).T
        offset = W @ (W.T @ g)
        A = W.T @ mm.A1 @ W
        can = smooth_and_canonicalize(mm)
        assert np.array_equal(can.basis, W)
        assert np.array_equal(can.offset, offset)
        assert np.array_equal(can.A, 0.5 * (A + A.T))
        assert np.array_equal(can.f, W.T @ (mm.f1 - mm.A1 @ offset))
        assert can.d == mm.d2 - mm.d1 - 0.5 * float(g @ offset)
        assert can.value_shift == (0.5 * float(offset @ mm.A1 @ offset)
                                   - float(mm.f1 @ offset) + mm.d1)

    @pytest.mark.parametrize("n", [5, 100])
    def test_problem_path_is_the_dense_formula_bit_for_bit(self, rng, n):
        from canodual.model import LseTerm, ProblemInstance, validate
        Q = np.diag(rng.uniform(0.5, 2.0, n))
        inst = validate(ProblemInstance(A=rand_sym(rng, n, 0.8), f=rng.standard_normal(n),
                                        lse_terms=(LseTerm(Q=Q, d=-0.3),), beta=8.0))
        W = np.linalg.inv(np.linalg.cholesky(Q)).T
        can = canonical_from_problem(inst)
        assert np.array_equal(can.basis, W)
        assert np.array_equal(can.A, W.T @ inst.A @ W)
        assert np.array_equal(can.f, W.T @ inst.f)

    def test_rejected_with_the_dense_error(self, rng):
        mm = _diagonal_difference_instance(rng, 4, [1.0, 2.0, -0.5, 1.0])
        min_eig = np.linalg.eigvalsh(mm.A2 - mm.A1)[0]
        for step in (smooth_and_canonicalize, solve):
            with pytest.raises(NotPositiveDefiniteError,
                               match="branch difference A2 - A1 must be positive definite") as err:
                step(mm)
            assert err.value.context["min_eig"] == min_eig

    def test_solves_without_a_factorisation(self, rng, monkeypatch):
        mm = rand_minimax(rng, 6, "unconditional")
        want = solve(mm).best

        def refuse(M):
            raise np.linalg.LinAlgError("factorised")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        got = solve(mm).best
        assert np.array_equal(got.x, want.x) and got.primal_value == want.primal_value


class TestWhitenedProblemPath:
    @pytest.mark.parametrize("A, f", [([[1e300, 0.0], [0.0, 1.0]], [1.0, 1.0]),
                                      (np.eye(2), [1e304, 1.0])], ids=["A", "f"])
    def test_an_overflowing_whitening_is_refused(self, A, f):
        # the weight is admitted (1e-11 > 1e-12 (1 + 1)), but whitening scales
        # the first coordinate by 10^5.5, which takes A or f past the floats
        from canodual.errors import ShapeMismatchError
        from canodual.model import LseTerm, ProblemInstance, validate
        inst = validate(ProblemInstance(
            A=A, f=f, lse_terms=(LseTerm(Q=np.diag([1e-11, 1.0]), d=0.0),), beta=1.0))
        with pytest.raises(ShapeMismatchError,
                           match="whitening by the log-sum-exp weight overflows"):
            canonical_from_problem(inst)

    def test_general_lse_weight(self, rng):
        # p = 1 instance with a non-identity positive definite weight
        from canodual.model import LseTerm, ProblemInstance, validate
        from conftest import rand_spd
        Q = rand_spd(rng, 2, 0.5, 2.0)
        inst = validate(ProblemInstance(
            A=np.eye(2) * 0.5, f=[0.1, -0.2],
            lse_terms=(LseTerm(Q=Q, d=-0.3),), beta=8.0))
        rep = solve_canonical(canonical_from_problem(inst))
        from canodual.solver import solve_global
        general = solve_global(inst)
        assert rep.best.primal_value == pytest.approx(
            general.best.primal_value, abs=1e-8)


def _same_pair(built, plain):
    assert (built is None) == (plain is None)
    if plain is None:
        return False
    assert (built.region, built.classification, built.primal_label, built.dual_label) == (
        plain.region, plain.classification, plain.primal_label, plain.dual_label)
    assert np.max(np.abs(built.x - plain.x)) <= 1e-10 * np.max(np.abs(plain.x))
    for a, b in ((built.primal_value, plain.primal_value), (built.dual_value, plain.dual_value)):
        assert a == pytest.approx(b, rel=1e-10)
    return True


class TestPairsFromTheSpectrum:
    @pytest.mark.parametrize("mode", ["unconditional", "not_exists"])
    def test_match_pairs_on_an_assembled_factor(self, rng, mode):
        # every root of the enclosure search, a few points that are not
        # critical (None on both), and the poles inside (0, 1), on them and
        # 1e-12 off them (singular under the threshold, not exactly)
        compared, poles = 0, 0
        for _ in range(6):
            can = smooth_and_canonicalize(rand_minimax(rng, int(rng.integers(5, 31)), mode))
            sd, problem = can.spectral(), can.to_problem()
            taus = univariate.critical_points(sd, univariate.entropy(can.d, can.beta))
            taus += list(rng.uniform(0.05, 0.95, 3))
            at_poles = [float(-lam) + off for lam in sd.lambdas if 0.0 < -lam < 1.0
                        for off in (0.0, -1e-12, 1e-12)]
            for tau in taus + at_poles:
                zeta = DualPoint(tau=np.array([tau]), sigma=np.zeros(0))
                factor = ShiftedHessian.from_spectrum(sd, can.A, tau)
                assembled = assemble(problem, zeta)
                assert factor.inertia == assembled.inertia
                assert factor.sing_tol == assembled.sing_tol
                built = make_pair(problem, zeta, factor=factor)
                compared += _same_pair(built, make_pair(problem, zeta))
                if tau in at_poles:
                    assert factor.x_of_f is None and built is None
                    poles += 1
        assert compared >= 5
        assert poles >= (18 if mode == "not_exists" else 0)

    def test_outside_the_open_simplex_is_none(self, rng):
        can = smooth_and_canonicalize(rand_minimax(rng, 5, "unconditional"))
        sd, problem = can.spectral(), can.to_problem()
        for tau in (0.0, 1.0, 1.5):
            zeta = DualPoint(tau=np.array([tau]), sigma=np.zeros(0))
            assert make_pair(problem, zeta,
                             factor=ShiftedHessian.from_spectrum(sd, can.A, tau)) is None

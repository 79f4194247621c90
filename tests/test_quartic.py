import numpy as np
import pytest

from canodual import fixtures
from canodual.errors import NoDualCriticalPointError, PoleError, ShapeMismatchError
from canodual.model import (
    ExistenceVerdict,
    ProblemInstance,
    QuarticTerm,
    SpectralData,
    validate,
)
from canodual.oracle import grid_global_min
from canodual.primal import duality_map, eval_primal
from canodual.quartic import (
    QuarticInstance,
    dual_value,
    existence_check,
    secular_derivative,
    solve,
)
from canodual.solver import solve_global

from conftest import rand_quartic_easy, rand_quartic_hard


def spectral(inst):
    return QuarticInstance.from_problem(inst).spectral()


class TestSecularDerivative:
    def test_trivial_root_at_zero(self):
        sd = SpectralData.from_matrix(np.diag([1.0, 2.0]), np.zeros(2))
        assert secular_derivative(sd, 1.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_benchmark_roots(self):
        sd = spectral(fixtures.example2())
        for s in fixtures.EX2_EXPECTED["sigma"]:
            assert abs(secular_derivative(sd, 10.0, -14.0, s)) <= 1e-2
        for s in fixtures.EX2_EXPECTED["sigma_precise"]:
            assert abs(secular_derivative(sd, 10.0, -14.0, s)) <= 1e-5

    def test_pole_rejected(self):
        sd = SpectralData.from_matrix(np.diag([-1.0, 2.0]), np.ones(2))
        with pytest.raises(PoleError):
            secular_derivative(sd, 1.0, 0.0, 1.0)


class TestExistence:
    def test_benchmark_exists(self):
        sd = spectral(fixtures.example2())
        assert sd.lambdas[0] == pytest.approx(fixtures.EX2_EXPECTED["lambda_min"],
                                              abs=1e-6)
        assert sd.k == 1
        assert abs(sd.f_hat[0]) > 1e-6
        assert existence_check(sd, 10.0, -14.0) == ExistenceVerdict.EXISTS

    def test_orthogonal_load_reduces_to_boundary_inequality(self):
        # f = 0 and alpha c = -lambda_1 - 1: the inequality is
        # lambda_1/alpha + c = -1 < 0
        lam1 = -2.0
        sd = SpectralData.from_matrix(np.array([[lam1]]), np.zeros(1))
        alpha = 1.0
        c = (-lam1 - 1.0) / alpha
        assert existence_check(sd, alpha, c) == ExistenceVerdict.NOT_EXISTS

    def test_positive_definite_unconditional(self):
        sd = SpectralData.from_matrix(np.diag([1.0, 2.0]), np.ones(2))
        assert existence_check(sd, 1.0, 0.5) == ExistenceVerdict.UNCONDITIONAL


class TestSolve:
    def test_benchmark2(self):
        rep = solve(QuarticInstance.from_problem(fixtures.example2()))
        p = rep.best
        assert float(p.zeta.sigma[0]) == pytest.approx(19.093, abs=1e-2)
        assert p.x == pytest.approx([5.6, 0.67], abs=5e-2)
        assert abs(p.primal_value - p.dual_value) <= 1e-6

    def test_no_load_boundary_maximizer(self):
        inst = validate(ProblemInstance(
            A=np.diag([1.0, 2.0]), f=np.zeros(2),
            quartic_terms=(QuarticTerm(B=np.eye(2), c=-0.5, alpha=1.0),)))
        rep = solve(QuarticInstance.from_problem(inst))
        p = rep.best
        assert float(p.zeta.sigma[0]) == pytest.approx(-0.5, abs=1e-12)
        assert np.allclose(p.x, 0.0, atol=1e-14)

    def test_hard_instance_raises(self, rng):
        for _ in range(10):
            inst = rand_quartic_hard(rng, int(rng.integers(1, 3)))
            with pytest.raises(NoDualCriticalPointError):
                solve(QuarticInstance.from_problem(inst))

    def test_random_easy_matches_grid_oracle(self, rng):
        done = 0
        while done < 12:
            inst = rand_quartic_easy(rng, int(rng.integers(1, 3)))
            qi = QuarticInstance.from_problem(inst)
            if existence_check(qi.spectral(), qi.alpha, qi.c) == ExistenceVerdict.NOT_EXISTS:
                continue
            rep = solve(qi)
            x_star, v_star = grid_global_min(inst, (-6.0, 6.0), 301)
            assert np.max(np.abs(x_star)) < 5.5  # optimum interior to the box
            assert rep.best.primal_value == pytest.approx(v_star, abs=1e-4)
            done += 1

    def test_spectral_reconstruction_matches_direct_solve(self, rng):
        for _ in range(20):
            inst = rand_quartic_easy(rng, 2)
            qi = QuarticInstance.from_problem(inst)
            sd = qi.spectral()
            if existence_check(sd, qi.alpha, qi.c) == ExistenceVerdict.NOT_EXISTS:
                continue
            rep = solve(qi)
            sigma = float(rep.best.zeta.sigma[0])
            direct = np.linalg.solve(qi.A + sigma * np.eye(qi.n), qi.f)
            denom = 1.0 + np.max(np.abs(direct))
            assert np.max(np.abs(rep.best.x - direct)) / denom <= 1e-10

    def test_verdict_consistency_not_exists(self, rng):
        # at the oracle optimum the constitutive image must leave the
        # positive-definite region (hard-case optima sit exactly on the
        # singular boundary, resolved to oracle precision)
        for _ in range(8):
            inst = rand_quartic_hard(rng, 2)
            x_star, _ = grid_global_min(inst, (-8.0, 8.0), 401)
            zeta = duality_map(inst, x_star)
            G = inst.curvature(zeta.tau, zeta.sigma)
            assert np.linalg.eigvalsh(G)[0] <= 1e-2

    def test_root_hugging_the_pole(self):
        # tiny ground-component load puts the secular root just above the
        # pole at -lambda_1; the shrinking left-end approach must find it
        inst = validate(ProblemInstance(
            A=np.diag([-2.0, 1.0]), f=[1e-5, 0.2],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=-2.5, alpha=1.0),)))
        qi = QuarticInstance.from_problem(inst)
        assert existence_check(qi.spectral(), qi.alpha, qi.c) == ExistenceVerdict.EXISTS
        rep = solve(qi)
        sigma = float(rep.best.zeta.sigma[0])
        assert sigma > 2.0
        assert sigma - 2.0 < 1e-2
        assert rep.best.gap <= 1e-8 * (1 + abs(rep.best.dual_value))

    def test_general_weight_whitened(self, rng):
        # a non-identity positive definite quartic weight gives the same
        # optimum as the general solver
        from conftest import rand_spd
        for _ in range(5):
            n = 2
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            inst = validate(ProblemInstance(
                A=A, f=rng.standard_normal(n) * 0.4,
                quartic_terms=(QuarticTerm(B=rand_spd(rng, n, 0.5, 2.0),
                                           c=float(rng.uniform(-1.5, 0.0)),
                                           alpha=float(rng.uniform(1.0, 3.0))),)))
            qi = QuarticInstance.from_problem(inst)
            if existence_check(qi.spectral(), qi.alpha, qi.c) == ExistenceVerdict.NOT_EXISTS:
                continue
            fast = solve(qi)
            general = solve_global(inst)
            assert fast.best.primal_value == pytest.approx(
                general.best.primal_value, abs=1e-6)
            assert eval_primal(inst, fast.best.x) == pytest.approx(
                fast.best.primal_value, abs=1e-8)

    @pytest.mark.parametrize("n", [5, 100])
    def test_diagonal_weight_is_the_dense_formula_bit_for_bit(self, rng, n):
        # a diagonal weight is scaled, with no factorisation
        B = np.diag(rng.uniform(0.5, 2.0, n))
        A = rng.standard_normal((n, n))
        inst = validate(ProblemInstance(
            A=0.5 * (A + A.T), f=rng.standard_normal(n),
            quartic_terms=(QuarticTerm(B=B, c=-1.0, alpha=2.0),)))
        W = np.linalg.inv(np.linalg.cholesky(B)).T
        qi = QuarticInstance.from_problem(inst)
        assert np.array_equal(qi.basis, W)
        assert np.array_equal(qi.A, W.T @ inst.A @ W)
        assert np.array_equal(qi.f, W.T @ inst.f)

    def test_identity_weight_keeps_the_data(self):
        inst = fixtures.example2()
        qi = QuarticInstance.from_problem(inst)
        assert np.array_equal(qi.basis, np.eye(inst.n))
        assert np.array_equal(qi.A, inst.A) and np.array_equal(qi.f, inst.f)
        y = solve(QuarticInstance(A=inst.A, f=inst.f, alpha=qi.alpha, c=qi.c)).best.x
        assert np.array_equal(solve(qi).best.x, y)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            QuarticInstance.from_problem(fixtures.example1())

    @pytest.mark.parametrize("A, f", [([[1e300, 0.0], [0.0, 1.0]], [1.0, 1.0]),
                                      (np.eye(2), [1e304, 1.0])], ids=["A", "f"])
    def test_an_overflowing_whitening_is_refused(self, A, f):
        # the weight is admitted (1e-11 > 1e-12 (1 + 1)), but whitening scales
        # the first coordinate by 10^5.5, which takes A or f past the floats
        inst = validate(ProblemInstance(A=A, f=f, quartic_terms=(
            QuarticTerm(B=np.diag([1e-11, 1.0]), c=-1.0, alpha=1.0),)))
        with pytest.raises(ShapeMismatchError, match="whitening by the quartic weight overflows"):
            QuarticInstance.from_problem(inst)

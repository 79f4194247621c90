import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from canodual import fixtures
from canodual.model import LseTerm, ProblemInstance, QuarticTerm, validate
from canodual.oracle import fd_gradient, fd_hessian
from canodual.primal import (
    canonical_measure,
    duality_map,
    eval_lse,
    eval_primal,
    eval_quartic,
    grad_primal,
    hess_primal,
)

from conftest import rand_instance


def lse_only(Q, d, beta=1.0, n=1):
    return validate(ProblemInstance(
        A=np.zeros((n, n)), f=np.zeros(n),
        lse_terms=(LseTerm(Q=Q, d=d),), beta=beta))


class TestLse:
    def test_scalar_value_against_direct_formula(self):
        inst = lse_only([[1.0]], -0.1)
        expected = math.log(1.0 + math.exp(-0.1))  # = 0.64439666...
        assert eval_lse(inst, [0.0]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.64439666, abs=1e-8)

    def test_zero_exponents_give_log_two(self):
        inst = lse_only([[0.0]], 0.0)
        for x in ([0.0], [3.7], [-2.0]):
            assert eval_lse(inst, x) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_huge_beta_no_overflow(self):
        # the max-shift makes the dominant branch exact: T = xi + d here
        inst = lse_only([[1.0]], 0.0, beta=1e4)
        val = eval_lse(inst, [10.0])  # xi = 50
        assert math.isfinite(val)
        assert val == pytest.approx(50.0, abs=1e-12)
        inst = lse_only([[10.0]], 0.0, beta=1e4)
        val = eval_lse(inst, [10.0])  # xi = 500
        assert math.isfinite(val)
        assert val == pytest.approx(500.0, abs=1e-12)

    def test_stability_envelope(self, rng):
        # finite for beta up to 1e6 and exponents up to 1e3 in magnitude
        for _ in range(50):
            beta = 10.0 ** rng.uniform(0, 6)
            d = float(rng.uniform(-1e3, 1e3))
            inst = lse_only([[1.0]], d, beta=beta)
            x = rng.uniform(-3, 3, 1)
            assert math.isfinite(eval_lse(inst, x))

    def test_monotone_in_beta_toward_max(self, rng):
        for _ in range(40):
            inst = rand_instance(rng, n=2, p=2, r=0)
            x = rng.standard_normal(2)
            cm = canonical_measure(inst, x)
            M = max(0.0, float(np.max(cm.xi + inst.d)))
            t1 = eval_lse(inst, x)
            inst10 = validate(ProblemInstance(A=inst.A, f=inst.f,
                                              lse_terms=inst.lse_terms,
                                              beta=10.0 * inst.beta))
            t2 = eval_lse(inst10, x)
            assert abs(t2 - M) <= abs(t1 - M) + 1e-12


class TestQuartic:
    def test_constant_at_origin(self):
        inst = validate(ProblemInstance(
            A=np.zeros((2, 2)), f=np.zeros(2),
            quartic_terms=(QuarticTerm(B=np.eye(2), c=-14.0, alpha=10.0),)))
        assert eval_quartic(inst, [0.0, 0.0]) == pytest.approx(980.0)

    def test_double_well_vanishes_at_unit(self):
        inst = fixtures.example1()
        assert eval_quartic(inst, [1.0]) == pytest.approx(0.0, abs=1e-15)
        assert eval_quartic(inst, [-1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_arithmetic(self):
        inst = fixtures.example1()
        # 10/2 * (0.5*2*0.25 - 1)^2 = 5 * 0.5625
        assert eval_quartic(inst, [0.5]) == pytest.approx(2.8125, abs=1e-15)


class TestPrimalValue:
    def test_benchmark_values(self):
        inst = fixtures.example1()
        for _, _, x, value, _ in fixtures.EX1_EXPECTED["points"]:
            assert eval_primal(inst, [x]) == pytest.approx(value, abs=1e-5)

    def test_quadratic_plus_trivial_quartic(self):
        inst = validate(ProblemInstance(
            A=np.eye(2), f=np.zeros(2),
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.0, alpha=1.0),)))
        assert eval_primal(inst, np.zeros(2)) == pytest.approx(0.0)


class TestMeasureAndMap:
    def test_measure_at_origin(self, rng):
        inst = rand_instance(rng, n=3)
        cm = canonical_measure(inst, np.zeros(3))
        assert np.all(cm.xi == 0) and np.all(cm.eta == 0)

    def test_measure_values(self):
        inst = fixtures.example1()
        cm = canonical_measure(inst, [1.0])
        assert cm.xi[0] == pytest.approx(0.5)
        assert cm.eta[0] == pytest.approx(1.0)

    def test_indefinite_form_cancels(self):
        inst = lse_only(np.diag([1.0, -1.0]), 0.0, n=2)
        cm = canonical_measure(inst, [1.0, 1.0])
        assert cm.xi[0] == pytest.approx(0.0)

    def test_equal_exponents_give_half(self):
        inst = lse_only([[1.0]], 0.0)
        z = duality_map(inst, [0.0])
        assert z.tau[0] == pytest.approx(0.5, abs=1e-15)

    def test_benchmark_constitutive_point(self):
        inst = fixtures.example1()
        z = duality_map(inst, [1.004894])
        assert z.tau[0] == pytest.approx(0.599866, abs=1e-5)
        assert z.sigma[0] == pytest.approx(0.098119, abs=1e-4)

    def test_sigma_zero_at_well(self):
        inst = fixtures.example1()
        z = duality_map(inst, [1.0])  # eta = 1, c = -1
        assert z.sigma[0] == pytest.approx(0.0, abs=1e-15)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_map_lands_in_open_simplex(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, n=3)
        x = rng.standard_normal(3) * 2
        cm = canonical_measure(inst, x)
        # beyond ~36 the softmax weight saturates to exactly 0/1 in floats
        assume(inst.p == 0 or inst.beta * float(np.max(np.abs(cm.xi + inst.d))) < 30)
        z = duality_map(inst, x)
        assert z.tau_interior()
        assert z.sigma.size == inst.r


class TestDerivatives:
    def test_gradient_small_at_benchmark_solution(self):
        inst = fixtures.example1()
        assert abs(grad_primal(inst, [1.004894])[0]) <= 1e-4

    def test_gradient_zero_at_origin_without_load(self, rng):
        inst = rand_instance(rng, n=3, f_scale=0.0)
        assert np.allclose(grad_primal(inst, np.zeros(3)), 0.0, atol=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            inst = rand_instance(rng, n=int(rng.integers(1, 6)))
            x = rng.standard_normal(inst.n)
            g = grad_primal(inst, x)
            g_fd = fd_gradient(lambda y: eval_primal(inst, y), x, h=1e-5)
            denom = 1.0 + np.max(np.abs(g))
            assert np.max(np.abs(g - g_fd)) / denom <= 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        for _ in range(60):
            inst = rand_instance(rng, n=2)
            x = rng.standard_normal(2)
            H = hess_primal(inst, x)
            H_fd = fd_hessian(lambda y: eval_primal(inst, y), x, h=1e-4)
            denom = 1.0 + np.max(np.abs(H))
            assert np.max(np.abs(H - H_fd)) / denom <= 1e-5

    def test_hessian_at_origin_is_shifted_matrix(self, rng):
        inst = rand_instance(rng, n=3)
        z = duality_map(inst, np.zeros(3))
        H = hess_primal(inst, np.zeros(3))
        assert np.allclose(H, inst.curvature(z.tau, z.sigma), atol=1e-14)

    def test_hessian_negative_at_benchmark_maximizer(self):
        inst = fixtures.example1()
        H = hess_primal(inst, [-0.041044])
        assert H[0, 0] < 0

    def test_hessian_symmetric(self, rng):
        inst = rand_instance(rng, n=4)
        x = rng.standard_normal(4)
        H = hess_primal(inst, x)
        assert np.max(np.abs(H - H.T)) == 0.0


def _pointwise_derivatives(inst, x):
    """zeta(x), gradient and Hessian of one point by the one-point formulas: the
    softmax of the shifted exponentials, G summed by tensordot and F
    column-stacked from the measure gradients."""
    p = inst.p
    xi = 0.5 * (inst.Q_stack @ x) @ x
    eta = 0.5 * (inst.B_stack @ x) @ x
    tau = np.zeros(0)
    if p:
        a = inst.beta * (xi + inst.d)
        shift = max(0.0, float(a.max()))
        ea = np.exp(a - shift)
        tau = ea / (np.exp(-shift) + ea.sum())
    sigma = inst.alpha * (eta + inst.c)
    G = inst.curvature(tau, sigma)
    cols = [(S @ x).T for S in (inst.Q_stack, inst.B_stack) if len(S)]
    F = np.column_stack(cols) if len(cols) > 1 else cols[0]
    D = np.zeros((inst.m, inst.m))
    D[:p, :p] = inst.beta * (np.diag(tau) - np.outer(tau, tau))
    D[p:, p:] = np.diag(inst.alpha)
    H = G + F @ D @ F.T
    return np.concatenate([tau, sigma]), G @ x - inst.f, 0.5 * (H + H.T)


class TestStacks:
    def test_stacked_derivatives_match_pointwise(self):
        # bit for bit, so the lockstep harvest takes the serial decisions;
        # n = 16 with p = r = 1 is where F's memory layout could change how
        # the Hessians round
        rng = np.random.default_rng(16)
        shapes = [(n, p, m - p) for n in (1, 2, 3, 4) for m in (1, 2, 3)
                  for p in range(m + 1)] + [(16, 1, 1), (16, 2, 1), (16, 0, 2)]
        for n, p, r in shapes:
            inst = rand_instance(rng, n=n, p=p, r=r)
            X = rng.standard_normal((5, n)) * 2.0
            G, H = grad_primal(inst, X), hess_primal(inst, X)
            assert G.shape == (5, n) and H.shape == (5, n, n)
            for i, x in enumerate(X):
                z1, g1, h1 = _pointwise_derivatives(inst, x)
                assert np.array_equal(duality_map(inst, x).vector(), z1)
                assert np.array_equal(G[i], g1) and np.array_equal(G[i], grad_primal(inst, x))
                assert np.array_equal(H[i], h1) and np.array_equal(H[i], hess_primal(inst, x))

    def test_stacked_duality_map_rows_match_one_point_calls(self):
        # one point gives a DualPoint, a stack its flat (tau, sigma) rows,
        # each bitwise as the point alone; one row is a stack of one, and
        # no rows give none
        rng = np.random.default_rng(17)
        for n, p, r in [(n, p, m - p) for n in (1, 2, 3, 4) for m in (1, 2, 3)
                        for p in range(m + 1)]:
            inst = rand_instance(rng, n=n, p=p, r=r)
            X = rng.standard_normal((6, n)) * 3.0
            Z = duality_map(inst, X)
            assert Z.shape == (6, p + r)
            for z, x in zip(Z, X):
                assert np.array_equal(z, duality_map(inst, x).vector())
            assert np.array_equal(duality_map(inst, X[:1]), Z[:1])
            assert duality_map(inst, X[:0]).shape == (0, p + r)

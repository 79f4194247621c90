import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canodual import fixtures
from canodual.dual import (
    assemble,
    conjugate_lse,
    conjugate_quartic,
    dual_weight_inverse,
    eval_complementary,
    eval_dual,
    evaluate,
    grad_dual,
    gradients,
    hess_dual,
    solve_rows,
)
from canodual.errors import DomainError, SingularMatrixError
from canodual.model import DualPoint, ProblemInstance, QuarticTerm, Region, validate
from canodual.oracle import fd_gradient, fd_hessian
from canodual.primal import eval_primal

from conftest import rand_feasible_zeta, rand_instance


def zp(tau=(), sigma=()):
    return DualPoint(tau=np.asarray(tau, dtype=float),
                     sigma=np.asarray(sigma, dtype=float))


EX1_POINTS = [zp([t], [s]) for t, s, *_ in fixtures.EX1_EXPECTED["precise"]]
EX1_VALUES = [v for *_, v in fixtures.EX1_EXPECTED["precise"]]


class TestAssemble:
    def test_zero_weights_give_base_matrix(self, rng):
        inst = rand_instance(rng, n=3)
        G = assemble(inst, zp(np.zeros(inst.p), np.zeros(inst.r)))
        assert np.allclose(G.matrix, inst.A, atol=1e-15)

    def test_benchmark_eigenvalues(self):
        inst = fixtures.example2()
        G = assemble(inst, zp(sigma=[19.093]))
        assert G.eigenvalues == pytest.approx([2.282, 33.904], abs=2e-3)
        assert G.region == Region.SA_PLUS

    def test_scalar_combination(self):
        inst = fixtures.example1()
        G = assemble(inst, zp([0.599866], [0.098119]))
        assert G.matrix[0, 0] == pytest.approx(0.796104, abs=1e-6)
        assert G.region == Region.SA_PLUS

    def test_inertia_counts(self):
        inst = validate(ProblemInstance(
            A=np.diag([1.0, -2.0, 0.0]), f=np.zeros(3),
            quartic_terms=(QuarticTerm(B=np.zeros((3, 3)), c=0.0, alpha=1.0),)))
        G = assemble(inst, zp(sigma=[0.0]))
        assert G.inertia == (1, 1, 1)
        assert G.region == Region.SINGULAR

    def test_solve_matches_numpy(self, rng):
        inst = rand_instance(rng, n=4)
        zeta = rand_feasible_zeta(rng, inst)
        G = assemble(inst, zeta)
        assert np.allclose(G.x_of_f, np.linalg.solve(G.matrix, inst.f),
                           atol=1e-10)


class TestConjugates:
    def test_entropy_maximum(self):
        # with d = 0 the conjugate at tau = 1/2 is -log 2
        from canodual.model import LseTerm
        inst = validate(ProblemInstance(A=[[0.0]], f=[0.0],
                                        lse_terms=(LseTerm(Q=[[1.0]], d=0.0),),
                                        beta=1.0))
        assert conjugate_lse(inst, [0.5]) == pytest.approx(-math.log(2), abs=1e-15)

    def test_scalar_value(self):
        inst = fixtures.example1()
        tau = 0.599866
        expected = tau * math.log(tau) + (1 - tau) * math.log(1 - tau) + 0.1 * tau
        assert conjugate_lse(inst, [tau]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-0.61308, abs=1e-4)

    def test_domain_error_outside_simplex(self):
        inst = fixtures.example1()
        with pytest.raises(DomainError):
            conjugate_lse(inst, [1.01])
        with pytest.raises(DomainError):
            conjugate_lse(inst, [-0.2])

    def test_boundary_convention(self):
        from canodual.model import LseTerm
        inst = validate(ProblemInstance(A=[[0.0]], f=[0.0],
                                        lse_terms=(LseTerm(Q=[[1.0]], d=0.0),),
                                        beta=1.0))
        assert conjugate_lse(inst, [0.0]) == 0.0
        assert conjugate_lse(inst, [1.0]) == 0.0

    def test_quartic_conjugate_values(self):
        inst = fixtures.example1()
        assert conjugate_quartic(inst, [0.0]) == 0.0
        sigma = 0.098119
        assert conjugate_quartic(inst, [sigma]) == pytest.approx(
            sigma ** 2 / 20.0 + sigma, abs=1e-14)
        assert conjugate_quartic(inst, [sigma]) == pytest.approx(0.098600, abs=1e-5)
        inst2 = fixtures.example2()
        assert conjugate_quartic(inst2, [19.093]) == pytest.approx(
            19.093 ** 2 / 20.0 + 14 * 19.093, abs=1e-10)
        assert conjugate_quartic(inst2, [19.093]) == pytest.approx(285.529, abs=1e-3)


class TestComplementary:
    def test_benchmark_value_at_pair(self):
        inst = fixtures.example1()
        tau, sigma, x, value = fixtures.EX1_EXPECTED["precise"][0]
        assert eval_complementary(inst, [x], zp([tau], [sigma])) == pytest.approx(
            value, abs=1e-9)

    def test_zero_point_reduces_to_conjugates(self, rng):
        inst = rand_instance(rng, n=2)
        zeta = rand_feasible_zeta(rng, inst)
        expected = -conjugate_lse(inst, zeta.tau) - conjugate_quartic(inst, zeta.sigma)
        assert eval_complementary(inst, np.zeros(2), zeta) == pytest.approx(
            expected, abs=1e-12)

    def test_never_exceeds_primal(self, rng):
        # conjugate inequality: complementary value <= objective, any pairing
        checked = 0
        while checked < 1000:
            inst = rand_instance(rng, n=int(rng.integers(1, 4)))
            for _ in range(10):
                x = rng.standard_normal(inst.n) * 2.0
                zeta = rand_feasible_zeta(rng, inst, min_eig_rel=0.0)
                gap = eval_primal(inst, x) - eval_complementary(inst, x, zeta)
                assert gap >= -1e-10
                checked += 1


class TestDualValue:
    def test_benchmark_values(self):
        inst = fixtures.example1()
        for zeta, value in zip(EX1_POINTS, EX1_VALUES):
            assert eval_dual(inst, zeta) == pytest.approx(value, abs=1e-9)
        # published 6-digit figures
        assert eval_dual(inst, zp([0.599866], [0.098119])) == pytest.approx(
            0.112521, abs=1e-5)
        assert eval_dual(inst, zp([0.475231], [-9.983154])) == pytest.approx(
            5.660800, abs=1e-5)

    def test_no_load_reduces_to_conjugates(self, rng):
        inst = rand_instance(rng, n=2, f_scale=0.0)
        zeta = rand_feasible_zeta(rng, inst)
        expected = -conjugate_lse(inst, zeta.tau) - conjugate_quartic(inst, zeta.sigma)
        assert eval_dual(inst, zeta) == pytest.approx(expected, abs=1e-12)

    def test_singular_matrix_rejected(self):
        inst = fixtures.example1()
        with pytest.raises(SingularMatrixError):
            eval_dual(inst, zp([0.5], [-0.25]))  # G = 0.5 - 0.5 = 0


class TestDualDerivatives:
    def test_small_gradient_at_benchmark_points(self):
        inst = fixtures.example1()
        for t, s, *_ in fixtures.EX1_EXPECTED["points"]:
            g = grad_dual(inst, zp([t], [s]))
            assert np.max(np.abs(g)) <= 1e-5

    def test_entropy_component_zero_at_half(self):
        from canodual.model import LseTerm
        inst = validate(ProblemInstance(A=[[1.0]], f=[0.0],
                                        lse_terms=(LseTerm(Q=[[1.0]], d=0.0),),
                                        beta=1.0))
        g = grad_dual(inst, zp([0.5]))
        assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            inst = rand_instance(rng, n=int(rng.integers(1, 5)))
            zeta = rand_feasible_zeta(rng, inst)
            g = grad_dual(inst, zeta)
            vec = zeta.vector()
            g_fd = fd_gradient(
                lambda v: eval_dual(inst, DualPoint.from_vector(v, inst.p)),
                vec, h=1e-5)
            denom = 1.0 + np.max(np.abs(g))
            assert np.max(np.abs(g - g_fd)) / denom <= 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        for _ in range(60):
            inst = rand_instance(rng, n=int(rng.integers(1, 5)))
            zeta = rand_feasible_zeta(rng, inst)
            H = hess_dual(inst, zeta)
            vec = zeta.vector()
            H_fd = fd_hessian(
                lambda v: eval_dual(inst, DualPoint.from_vector(v, inst.p)),
                vec, h=1e-4)
            denom = 1.0 + np.max(np.abs(H))
            assert np.max(np.abs(H - H_fd)) / denom <= 1e-5

    def test_hessian_negative_definite_on_positive_region(self, rng):
        found = 0
        while found < 25:
            inst = rand_instance(rng, n=3, spd_quartic=True)
            zeta = rand_feasible_zeta(rng, inst)
            G = assemble(inst, zeta)
            if G.region != Region.SA_PLUS:
                continue
            found += 1
            H = hess_dual(inst, zeta)
            w = np.linalg.eigvalsh(H)
            assert w[-1] < G.sing_tol

    def test_no_load_hessian_is_weight_inverse(self, rng):
        inst = rand_instance(rng, n=2, f_scale=0.0)
        zeta = rand_feasible_zeta(rng, inst)
        H = hess_dual(inst, zeta)
        assert np.allclose(H, -dual_weight_inverse(inst, zeta.tau), atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    def test_weight_inverse_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, p=int(rng.integers(1, 4)), r=0, n=2)
        w = rng.exponential(1.0, inst.p + 1)
        tau = 0.02 + 0.9 * w[:inst.p] / w.sum()
        tau *= min(1.0, 0.95 / tau.sum())
        D_tau = inst.beta * (np.diag(tau) - np.outer(tau, tau))
        Dinv = dual_weight_inverse(inst, tau)[:inst.p, :inst.p]
        assert np.max(np.abs(Dinv @ D_tau - np.eye(inst.p))) <= 1e-10


class TestRegionAndRecovery:
    def test_benchmark_regions(self):
        inst1 = fixtures.example1()
        assert assemble(inst1, EX1_POINTS[0]).region == Region.SA_PLUS
        inst2 = fixtures.example2()
        assert assemble(inst2, zp(sigma=[-139.945])).region == Region.SA_MINUS
        assert assemble(inst2, zp(sigma=[14.495])).region == Region.INDEFINITE

    def test_recover_benchmark_solutions(self):
        inst = fixtures.example1()
        x = assemble(inst, EX1_POINTS[0]).x_of_f
        assert x[0] == pytest.approx(1.004894, abs=1e-5)
        inst2 = fixtures.example2()
        x = assemble(inst2, zp(sigma=[19.093])).x_of_f
        assert x == pytest.approx([5.6, 0.67], abs=5e-2)

    def test_no_load_recovers_origin(self, rng):
        inst = rand_instance(rng, n=3, f_scale=0.0)
        zeta = rand_feasible_zeta(rng, inst)
        assert np.allclose(assemble(inst, zeta).x_of_f, 0.0, atol=1e-14)


def _singular_instance():
    # G(0) = diag(1, -2, 0)
    return validate(ProblemInstance(
        A=np.diag([1.0, -2.0, 0.0]), f=np.ones(3),
        quartic_terms=(QuarticTerm(B=np.zeros((3, 3)), c=0.0, alpha=1.0),)))


class TestPointContracts:
    """The domain of the per-point functions: the derivatives need tau in
    the open simplex, every evaluation needs G nonsingular, and assembly
    takes any tau."""

    @pytest.mark.parametrize("fn", [grad_dual, hess_dual])
    @pytest.mark.parametrize("tau", [[0.0, 0.5], [0.5, 0.0], [0.4, 0.6],
                                     [-0.1, 0.3], [0.7, 0.6], [1.5, -0.2]])
    def test_derivatives_reject_tau_off_the_open_simplex(self, fn, tau):
        inst = rand_instance(np.random.default_rng(3), n=2, p=2, r=1)
        with pytest.raises(DomainError):
            fn(inst, zp(tau, [0.3]))

    @pytest.mark.parametrize("fn", [eval_dual, grad_dual, hess_dual])
    @pytest.mark.parametrize("inst, zeta", [
        (fixtures.example1(), zp([0.5], [-0.25])),  # G = 0.5 - 0.5 = 0
        (_singular_instance(), zp(sigma=[0.0])),
    ])
    def test_singular_matrix_rejected(self, fn, inst, zeta):
        assert assemble(inst, zeta).is_singular
        with pytest.raises(SingularMatrixError):
            fn(inst, zeta)

    @pytest.mark.parametrize("tau", [[1.5, 0.2], [-0.3, 0.4], [0.0, 1.0]])
    def test_assemble_accepts_tau_off_the_simplex(self, tau):
        inst = rand_instance(np.random.default_rng(5), n=3, p=2, r=1)
        G = assemble(inst, zp(tau, [0.7]))
        expected = (inst.A + tau[0] * inst.Q_stack[0] + tau[1] * inst.Q_stack[1]
                    + 0.7 * inst.B_stack[0])
        assert np.allclose(G.matrix, expected, atol=1e-14)
        assert np.allclose(G.matrix @ G.x_of_f, inst.f, atol=1e-10)

    def test_weight_inverse_is_the_blockwise_formula(self):
        """Bitwise the formula written block by block: a (p, p) diagonal of
        1/tau plus 1/slack everywhere, over beta, then diag(1/alpha); with
        tau next to the simplex edge."""
        def reference(inst, T):
            k, m, p = len(T), inst.m, inst.p
            Dinv = np.zeros((k, m, m))
            if p:
                diag = np.zeros((k, p, p))
                diag[:, np.arange(p), np.arange(p)] = 1.0 / T
                slack = 1.0 - T.sum(axis=1)
                Dinv[:, :p, :p] = (diag + (1.0 / slack)[:, None, None]) / inst.beta
            if inst.r:
                Dinv[:, p:, p:] = np.diag(1.0 / inst.alpha)
            return Dinv

        rng = np.random.default_rng(31)
        for m in range(1, 4):
            for p in range(m + 1):
                inst = rand_instance(rng, n=2, p=p, r=m - p)
                W = rng.exponential(size=(40, p + 1)) * 10.0 ** rng.integers(-12, 1, (40, p + 1))
                T = (W / W.sum(axis=1, keepdims=True))[:, :p]
                assert np.array_equal(dual_weight_inverse(inst, T), reference(inst, T))

    def test_stacked_weight_inverse_matches_each_point(self):
        rng = np.random.default_rng(9)
        for m in range(1, 4):
            for p in range(m + 1):
                inst = rand_instance(rng, n=2, p=p, r=m - p)
                T = np.array([rand_feasible_zeta(rng, inst).tau for _ in range(6)])
                Dinv = dual_weight_inverse(inst, T)
                assert Dinv.shape == (6, m, m)
                for i, tau in enumerate(T):
                    assert np.array_equal(Dinv[i], dual_weight_inverse(inst, tau))


def _singular_rows(rng, k, n):
    """A (k, n, n) stack of random matrices, a third of them singular to
    LAPACK: a zero column, two equal rows, or a NaN entry."""
    M = rng.standard_normal((k, n, n))
    for i in range(0, k, 3):
        kind = rng.integers(3)
        if kind == 0:
            M[i, :, rng.integers(n)] = 0.0
        elif kind == 1 and n > 1:
            M[i, 1] = M[i, 0]
        else:
            M[i, rng.integers(n), rng.integers(n)] = np.nan
    return M


class TestStackedKernels:
    def test_a_solve_is_each_row_solved_alone(self):
        """Every row of a stack, singular ones among them, is bitwise the
        solve of that matrix alone, and NaN exactly where that solve fails."""
        rng = np.random.default_rng(21)
        singular = 0
        for _ in range(100):
            k, n = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            M, b = _singular_rows(rng, k, n), rng.standard_normal((k, n))
            got = solve_rows(M, b)
            for i in range(k):
                try:
                    want = np.linalg.solve(M[i], b[i])
                except np.linalg.LinAlgError:
                    singular += 1
                    assert np.isnan(got[i]).all()
                else:
                    assert np.array_equal(got[i], want, equal_nan=True)
        assert singular >= 100

    def test_a_1x1_solve_is_a_division(self, monkeypatch):
        """At n = 1 every row is bitwise LAPACK's solve, NaN exactly where
        LAPACK refuses (a zero pivot of either sign), on stacks mixing
        random systems with zero, infinite, NaN and subnormal entries on
        either side, and no row reaches LAPACK."""
        rng = np.random.default_rng(23)
        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         2e-308, 1e308, -1e-300, 1.0])
        M = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 300, 4000)
        b = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 300, 4000)
        M[:2000:2] = rng.choice(edge, 1000)
        b[1:2000:2] = rng.choice(edge, 1000)
        M[2000:2000 + edge.size ** 2] = np.repeat(edge, edge.size)
        b[2000:2000 + edge.size ** 2] = np.tile(edge, edge.size)
        want = np.full(M.size, np.nan)
        with np.errstate(all="ignore"):
            for i, (a, f) in enumerate(zip(M, b)):
                try:
                    want[i] = np.linalg.solve([[a]], [f])[0]
                except np.linalg.LinAlgError:
                    assert a == 0.0
        assert np.isnan(want[M == 0.0]).all()

        def no_lapack(*args):
            raise AssertionError("a 1 x 1 solve reached LAPACK")
        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        monkeypatch.setattr(np.linalg, "slogdet", no_lapack)
        got = solve_rows(M[:, None, None], b[:, None])[:, 0]
        assert got.view(np.int64)[~np.isnan(want)].tolist() == \
            want.view(np.int64)[~np.isnan(want)].tolist()
        assert np.isnan(got).tolist() == np.isnan(want).tolist()

    def test_gradients_are_the_eigen_kernels(self):
        """The LU kernel's gradient is the eigen kernel's to rounding at
        every valid row, NaN at a row outside the open simplex or with G
        singular, and each row rounds as it would alone."""
        rng = np.random.default_rng(22)
        for n in (1, 2, 3, 4):
            for m in range(1, 4):
                for p in range(m + 1):
                    inst = rand_instance(rng, n=n, p=p, r=m - p)
                    Z = np.array([rand_feasible_zeta(rng, inst).vector() for _ in range(5)])
                    if p:
                        Z[1, :p] = 1.5 / p  # tau outside the simplex
                    grad, pts = gradients(inst, Z), evaluate(inst, Z)
                    assert grad.shape == (5, m)
                    assert np.isfinite(grad).all(axis=1).tolist() == pts.valid.tolist()
                    np.testing.assert_allclose(grad[pts.valid], pts.grad[pts.valid],
                                               rtol=1e-8, atol=1e-10)
                    for i, z in enumerate(Z):
                        assert np.array_equal(gradients(inst, z[None])[0], grad[i],
                                              equal_nan=True)
        assert np.isnan(gradients(_singular_instance(), np.zeros((3, 1)))).all()

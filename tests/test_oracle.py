import tracemalloc

import numpy as np
import pytest

from canodual import fixtures
from canodual.dual import eval_dual, grad_dual
from canodual.errors import DimensionTooLargeError
from canodual.minimax import smooth_and_canonicalize
from canodual.model import DualPoint, LseTerm, ProblemInstance, QuarticTerm, validate
from canodual.oracle import (
    _box_edges,
    _objective_batch,
    _polish,
    definiteness_transfer_check,
    fd_gradient,
    fd_hessian,
    grid_global_min,
)
from canodual.primal import eval_primal, grad_primal
from canodual.solver import solve_global

from conftest import rand_instance


class TestGrid:
    def test_benchmark1(self):
        x, v = grid_global_min(fixtures.example1(), (-3.0, 3.0), 601)
        assert x[0] == pytest.approx(1.0049, abs=1e-3)
        assert v == pytest.approx(0.11252, abs=1e-4)

    def test_benchmark3(self):
        can = smooth_and_canonicalize(fixtures.example3())
        x, v = grid_global_min(can.to_problem(), (-3.0, 3.0), 301)
        assert v + can.value_shift == pytest.approx(0.00563, abs=1e-4)

    def test_quadratic_sanity(self):
        inst = validate(ProblemInstance(
            A=np.eye(2), f=np.zeros(2),
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.0, alpha=1e-8),)))
        x, v = grid_global_min(inst, (-2.0, 2.0), 101)
        assert np.max(np.abs(x)) <= 1e-6
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_dimension_guard(self):
        inst = rand_instance(np.random.default_rng(0), n=4)
        with pytest.raises(DimensionTooLargeError):
            grid_global_min(inst, (-1.0, 1.0), 11)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            grid_global_min(fixtures.example1(), (-1.0, 1.0), 5000)

    @pytest.mark.parametrize("box, n", [([(-1.0, 1.0)], 2), ([(-1.0, 1.0)] * 3, 2),
                                        ([(-1.0, 1.0)] * 2, 1), ([], 1)],
                             ids=["1-for-2", "3-for-2", "2-for-1", "0-for-1"])
    def test_a_box_needs_one_interval_per_coordinate(self, box, n):
        with pytest.raises(ValueError, match=f"box must give {n} per-coordinate intervals"):
            _box_edges(box, n)

    def test_per_coordinate_box(self):
        can = smooth_and_canonicalize(fixtures.example3())
        x, v = grid_global_min(can.to_problem(), [(-1.0, 1.0), (-3.0, 0.0)], 201)
        assert v + can.value_shift == pytest.approx(0.00563, abs=1e-3)

    def test_monotone_in_resolution(self):
        # nesting resolutions (r -> 2r - 1) never worsen the polished value
        for inst, box in ((fixtures.example1(), (-3.0, 3.0)),):
            values = [grid_global_min(inst, box, res)[1] for res in (151, 301, 601)]
            for coarse, fine in zip(values[:-1], values[1:]):
                assert fine <= coarse + 1e-12

    def test_polish_stays_in_the_box(self):
        # double well with its minimiser at x = 10.005, outside (-6, 6)
        inst = validate(ProblemInstance(
            A=[[0.0]], f=[0.5],
            quartic_terms=(QuarticTerm(B=[[1.0]], c=-50.0, alpha=1.0),)))
        x, v = grid_global_min(inst, (-6.0, 6.0), 601)
        assert x[0] == 6.0
        assert v == pytest.approx(eval_primal(inst, x), abs=1e-9)

    def test_polish_reaches_the_certified_minimum(self):
        # a criterion-6 draw (seed 1053, draw 1) and an indefinite-weight
        # draw, on which 50 gradient steps stopped about 7e-8 above the minimum
        rng = np.random.default_rng(1053)
        for _ in range(2):
            draw = rand_instance(rng, n=int(rng.integers(1, 3)), p=int(rng.integers(0, 2)),
                                 r=1, a_range=(-1.5, 1.5), f_scale=0.4, spd_quartic=True,
                                 alpha_range=(1.5, 4.0), c_range=(-1.2, 0.4),
                                 spd_eigs=(0.6, 1.6))
        indefinite = rand_instance(np.random.default_rng([4, 2, 1, 2, False]), 2, 1, 2,
                                   spd_quartic=False)
        for inst in (draw, indefinite):
            v = solve_global(inst).best.primal_value
            _, v_grid = grid_global_min(inst, (-6.0, 6.0), 601)
            assert abs(v_grid - v) <= 1e-9 * (1.0 + abs(v))

    def test_polish_improves_on_grid_node(self):
        # a deliberately coarse grid still lands on the right basin floor
        x, v = grid_global_min(fixtures.example1(), (-3.0, 3.0), 31)
        assert v == pytest.approx(0.11252, abs=1e-4)


def _full_grid_min(inst, box, resolution):
    """The oracle on the whole grid at once: every node's value, the first
    argmin, then the polish."""
    edges = _box_edges(box, inst.n)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in edges]
    X = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    vals = _objective_batch(inst, X)
    i = int(np.argmin(vals))
    lo, hi = np.array(edges).T
    return _polish(lambda x: float(_objective_batch(inst, x[None, :])[0]),
                   X[i], float(vals[i]), lo, hi)


def _three_dimensional():
    return validate(ProblemInstance(
        A=[[-1.0, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 1.0]], f=[0.3, -0.2, 0.1],
        quartic_terms=(QuarticTerm(B=np.eye(3), c=-1.0, alpha=2.0),)))


class TestChunkedGrid:
    @pytest.mark.parametrize("inst, box, resolution", [
        (fixtures.example1(), (-3.0, 3.0), 601),
        (fixtures.example2(), (-8.0, 8.0), 481),
        (validate(ProblemInstance(A=np.diag([-0.5, 0.3]), f=[0.2, 0.1],
                                  lse_terms=(LseTerm(Q=np.eye(2), d=-1.0),), beta=4.0)),
         [(-1.0, 2.5), (-3.0, 0.5)], 401),
        (_three_dimensional(), (-2.0, 2.0), 61),
        (_three_dimensional(), [(-2.0, 2.0), (-1.5, 1.0), (-1.0, 1.0)], 71),
    ], ids=["n1", "n2", "n2-per-coordinate", "n3", "n3-per-coordinate"])
    def test_is_the_full_grid_bit_for_bit(self, inst, box, resolution):
        # the 481^2, 61^3 and 71^3 grids span two chunks each
        x, v = grid_global_min(inst, box, resolution)
        x_ref, v_ref = _full_grid_min(inst, box, resolution)
        assert np.array_equal(x, x_ref) and v == v_ref

    def test_memory_does_not_grow_with_the_grid(self):
        # the whole 201^3 grid and its mesh take about 400 MB
        tracemalloc.start()
        try:
            grid_global_min(_three_dimensional(), (-6.0, 6.0), 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestFiniteDifferences:
    def test_quadratic_gradient(self, rng):
        for _ in range(10):
            x = rng.standard_normal(3)
            g = fd_gradient(lambda y: 0.5 * float(y @ y), x, h=1e-5)
            assert np.max(np.abs(g - x)) <= 1e-9

    def test_matches_analytic_primal(self):
        inst = fixtures.example1()
        x = np.array([0.3])
        g_fd = fd_gradient(lambda y: eval_primal(inst, y), x, h=1e-5)
        assert np.max(np.abs(g_fd - grad_primal(inst, x))) <= 1e-6

    def test_matches_analytic_dual(self):
        inst = fixtures.example1()
        zeta = DualPoint(tau=[0.55], sigma=[0.2])
        vec = zeta.vector()
        g_fd = fd_gradient(
            lambda v: eval_dual(inst, DualPoint.from_vector(v, 1)), vec, h=1e-5)
        assert np.max(np.abs(g_fd - grad_dual(inst, zeta))) <= 1e-6

    def test_hessian_quadratic(self, rng):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        H = fd_hessian(lambda y: 0.5 * float(y @ M @ y), rng.standard_normal(2))
        assert np.max(np.abs(H - M)) <= 1e-6


class TestDefinitenessTransfer:
    @pytest.mark.parametrize("r,n,m", [(1, 2, 2), (2, 3, 3), (1, 3, 2)])
    def test_holds_on_random_trials(self, r, n, m):
        assert definiteness_transfer_check(2024, 500, r=r, n=n, m=m)

    def test_scale_invariance(self):
        # the identity is invariant under P, U -> s P, s U; large s probes it
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = m = 2
            r = 1
            M = rng.standard_normal((n, n))
            P = -(M.T @ M + 0.1 * np.eye(n)) * 1e3
            U = np.zeros((m, m))
            for blk in (slice(0, r), slice(r, m)):
                Mb = rng.standard_normal((blk.stop - blk.start,) * 2)
                U[blk, blk] = (Mb.T @ Mb + 0.1 * np.eye(blk.stop - blk.start)) * 1e3
            D = np.zeros((n, m))
            D[:r, :r] = rng.standard_normal((r, r)) + 0.5 * np.eye(r)
            lhs = P + D @ U @ D.T
            rhs = -D.T @ np.linalg.inv(P) @ D - np.linalg.inv(U)
            nsd_l = np.linalg.eigvalsh(lhs).max() <= 1e-8 * (1 + np.max(np.abs(lhs)))
            nsd_r = np.linalg.eigvalsh(rhs).max() <= 1e-8 * (1 + np.max(np.abs(rhs)))
            assert nsd_l == nsd_r

    def test_rank_precondition(self):
        with pytest.raises(ValueError):
            definiteness_transfer_check(0, 10, r=3, n=2, m=2)

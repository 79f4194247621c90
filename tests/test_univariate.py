import numpy as np
import pytest

from canodual import univariate
from canodual.dual import BOUNDARY_MARGIN, GRAD_TOL, eval_dual, grad_dual, hess_dual
from canodual.errors import DomainError, PoleError, UnboundedError
from canodual.minimax import canonical_from_problem, smooth_and_canonicalize, solve_smoothed
from canodual.model import (
    DualPoint,
    ExistenceVerdict,
    LseTerm,
    ProblemInstance,
    SpectralData,
    validate,
)
from canodual.quartic import QuarticInstance

from conftest import rand_instance, rand_minimax


class TestVerdictBoundaries:
    def test_quartic_closed_end_on_the_pole_is_not_unconditional(self):
        # alpha c == -lambda_1 exactly: no barrier there, so the head and
        # boundary tests decide
        conj = univariate.quartic(1.0, 2.0)
        A = np.diag([-2.0, 1.0])
        no_load = univariate.existence(SpectralData.from_matrix(A, np.zeros(2)), conj)
        assert no_load["verdict"] == ExistenceVerdict.NOT_EXISTS
        assert no_load["boundary_lhs"] == 0.0
        head = univariate.existence(SpectralData.from_matrix(A, [0.3, 0.0]), conj)
        assert head["verdict"] == ExistenceVerdict.EXISTS

    def test_entropy_pole_at_the_right_end_is_unbounded(self):
        inst = validate(ProblemInstance(A=np.diag([-1.0, 0.5]), f=np.ones(2),
                                        lse_terms=(LseTerm(Q=np.eye(2), d=0.2),), beta=10.0))
        detail = univariate.existence(canonical_from_problem(inst).spectral(),
                                      univariate.entropy(0.2, 10.0))
        assert detail["verdict"] == ExistenceVerdict.UNBOUNDED
        assert np.isnan(detail["boundary_lhs"])
        with pytest.raises(UnboundedError):
            solve_smoothed(inst)


def test_maximiser_hugging_the_entropy_barrier_is_bracketed():
    # f = 0, so tau* = 1 / (1 + e^30.63), about 5e-14: closer to the left end
    # than 1e-13, farther than 1e-14 of the interval's width
    inst = validate(ProblemInstance(A=np.diag([1.0, 2.0]), f=np.zeros(2),
                                    lse_terms=(LseTerm(Q=np.eye(2), d=-30.63),), beta=1.0))
    tau = float(solve_smoothed(inst).critical_pairs[0].zeta.tau[0])
    assert tau == pytest.approx(1.0 / (1.0 + np.exp(30.63)), rel=1e-9)


def test_one_error_at_a_pole_for_scalar_and_array_points():
    sd = SpectralData.from_matrix(np.diag([-2.0, 0.5, 3.0]), np.ones(3))
    conj = univariate.quartic(1.0, 0.0)
    for pole in (2.0, -0.5, -3.0):      # the lowest, a middle and the top eigenvalue
        for points in (pole, np.array([10.0, pole, -10.0])):
            with pytest.raises(PoleError):
                univariate.derivative(sd, conj, points)
    assert issubclass(PoleError, DomainError)
    assert np.all(np.isfinite(univariate.derivative(sd, conj, np.array([10.0, 1.0, -10.0]))))


def _away_from_poles(rng, sd, lo, hi, count=12, gap=0.05):
    points = []
    while len(points) < count:
        s = float(rng.uniform(lo, hi))
        if np.min(np.abs(sd.lambdas + s)) > gap:
            points.append(s)
    return np.array(points)


def _assert_matches_general(sd, conj, problem, points, zeta_of):
    values = univariate.value(sd, conj, points)
    slopes = univariate.derivative(sd, conj, points)
    curvatures = univariate.second_derivative(sd, conj, points)
    for i, s in enumerate(points):
        zeta = zeta_of(s)
        for spectral, general in ((values[i], eval_dual(problem, zeta)),
                                  (slopes[i], grad_dual(problem, zeta)[0]),
                                  (curvatures[i], hess_dual(problem, zeta)[0, 0])):
            assert abs(spectral - general) <= 1e-10 * max(1.0, abs(general))


class TestSpectralMatchesGeneralDual:
    def test_quartic(self, rng):
        for _ in range(10):
            inst = rand_instance(rng, n=3, p=0, r=1, spd_quartic=True)
            qi = QuarticInstance.from_problem(inst)
            sd = qi.spectral()
            bound = 3.0 + float(np.max(np.abs(sd.lambdas)))
            _assert_matches_general(
                sd, univariate.quartic(qi.alpha, qi.c), qi.to_problem(),
                _away_from_poles(rng, sd, -bound, bound),
                lambda s: DualPoint(tau=np.zeros(0), sigma=[s]))

    def test_entropy(self, rng):
        for _ in range(10):
            can = smooth_and_canonicalize(rand_minimax(rng, 3, "generic"))
            sd = can.spectral()
            _assert_matches_general(
                sd, univariate.entropy(can.d, can.beta), can.to_problem(),
                _away_from_poles(rng, sd, 0.01, 0.99),
                lambda t: DualPoint(tau=[t], sigma=np.zeros(0)))


# ---------------------------------------------------------------------------
# critical_points: the enclosure search over (0, 1) minus the poles

def _trimmed_intervals(sd, conj):
    """The pole-free intervals of (0, 1) with critical_points' end margins."""
    poles = sorted({float(-lam) for lam in sd.lambdas if conj.lo < -lam < conj.hi})
    edges = [conj.lo] + poles + [conj.hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 4.0 * BOUNDARY_MARGIN:
            margin = max(BOUNDARY_MARGIN, 1e-9 * (b - a))
            yield a + margin, b - margin


def _reference_roots(sd, conj, points=32768):
    """Sign changes of D' on a dense grid of every trimmed interval, each
    refined by bisection."""
    deriv = lambda s: univariate.derivative(sd, conj, s)
    roots = []
    for lo, hi in _trimmed_intervals(sd, conj):
        grid = np.linspace(lo, hi, points)
        vals = deriv(grid)
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
            roots.append(univariate.refine(deriv, grid[i], grid[i + 1], vals[i],
                                           GRAD_TOL, univariate.MAX_ITER)[0])
    return sorted(roots)


def _near_touch(gap):
    """Entropy dual whose D' on the pole interval (0.1, 0.7) dips to -gap at
    its lowest point s_m (two roots close to s_m for a small gap > 0, none
    for gap < 0). Returns (sd, conj, s_m)."""
    sd = SpectralData.from_matrix(np.diag([-0.7, -0.1]), [0.2, 0.3])
    beta = 8.0
    flat = univariate.entropy(0.0, beta)       # D' of entropy(d) is this one's plus d
    curvature = lambda s: univariate.second_derivative(sd, flat, s)
    s_m = univariate.refine(curvature, 0.1 + 1e-3, 0.7 - 1e-3, curvature(0.1 + 1e-3),
                            0.0, univariate.MAX_ITER)[0]
    d = -float(univariate.derivative(sd, flat, s_m)) - gap
    return sd, univariate.entropy(d, beta), s_m


class TestCriticalPoints:
    def test_two_roots_inside_one_cell_of_a_2048_grid(self):
        sd, conj, s_m = _near_touch(1e-9)
        lo, hi = next(iv for iv in _trimmed_intervals(sd, conj) if iv[0] < s_m < iv[1])
        grid = np.linspace(lo, hi, 2048)
        cell = grid[1] - grid[0]
        # both roots sit inside one cell: a 2048-point scan sees no sign change there
        vals = univariate.derivative(sd, conj, grid)
        near = np.abs(grid - s_m) <= 2.0 * cell
        assert np.all(vals[near] > 0.0)
        close = [t for t in univariate.critical_points(sd, conj) if abs(t - s_m) < cell]
        assert len(close) == 2
        assert close[0] < s_m < close[1]
        assert np.all(np.abs(univariate.derivative(sd, conj, np.array(close))) <= GRAD_TOL)

    def test_matches_a_dense_reference_scan_on_random_duals(self):
        rng = np.random.default_rng(0)
        total = 0
        for n in [int(k) for k in rng.integers(2, 9, 40)] + [25, 50]:
            # at least two poles in (0, 1); loads from 1e-3 to 0.3, since a small
            # load keeps S below V*' between the poles, so roots are many
            lam = np.concatenate([rng.uniform(-1.0, 0.0, 2), rng.uniform(-1.3, 0.4, n - 2)])
            load = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, -0.5)
            sd = SpectralData.from_matrix(np.diag(lam), load)
            conj = univariate.entropy(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(1.0, 30.0)))
            found = univariate.critical_points(sd, conj)
            reference = _reference_roots(sd, conj)
            assert len(found) == len(reference)
            assert np.allclose(found, reference, rtol=0.0, atol=1e-9)
            total += len(found)
        assert total >= 100

    def test_rootless_intervals_between_poles_give_nothing(self):
        # D' > 0 everywhere: V*' < 0 on the trimmed domain while S > 0
        sd = SpectralData.from_matrix(np.diag([-0.8, -0.5, -0.2, 0.3]), [0.3, 0.1, 0.2, 0.5])
        assert univariate.critical_points(sd, univariate.entropy(50.0, 8.0)) == []
        # D' stays 1e-7 above zero at its lowest point between two poles
        sd, conj, s_m = _near_touch(-1e-7)
        assert not [t for t in univariate.critical_points(sd, conj) if 0.1 < t < 0.7]

    def test_root_on_a_trimmed_end_is_reported(self):
        # no pole in (0, 1), so D' decreases; it is still 5e-11 > 0 at the
        # trimmed right end 1 - 1e-8, with no sign change inside
        sd = SpectralData.from_matrix(np.diag([0.5, 1.5]), [0.4, -0.3])
        beta = 6.0
        hi = 1.0 - BOUNDARY_MARGIN
        d = -float(univariate.derivative(sd, univariate.entropy(0.0, beta), hi)) + 5e-11
        conj = univariate.entropy(d, beta)
        assert 0.0 < univariate.derivative(sd, conj, hi) <= GRAD_TOL
        assert univariate.critical_points(sd, conj) == [hi]

import numpy as np
import pytest

from canodual import univariate
from canodual.dual import eval_dual, grad_dual, hess_dual
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

import json

import numpy as np
import pytest

from canodual import minimax, quartic, univariate
from canodual.cli import main
from canodual.dual import BOUNDARY_MARGIN, GRAD_TOL, eval_dual, grad_dual, hess_dual
from canodual.errors import (
    CanodualError,
    DomainError,
    NoDualCriticalPointError,
    NotPositiveDefiniteError,
    PoleError,
    ShapeMismatchError,
    UnboundedError,
)
from canodual.minimax import (
    CanonicalForm,
    MinimaxInstance,
    canonical_from_problem,
    smooth_and_canonicalize,
    solve_canonical,
)
from canodual.model import (
    DualPoint,
    ExistenceVerdict,
    LseTerm,
    ProblemInstance,
    SpectralData,
    serialize_problem,
    validate,
)
from canodual.quartic import QuarticInstance

from conftest import _minimax_from_canonical, rand_instance, rand_minimax


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
            solve_canonical(canonical_from_problem(inst))


def test_maximiser_hugging_the_entropy_barrier_is_bracketed():
    # f = 0, so tau* = 1 / (1 + e^30.63), about 5e-14: closer to the left end
    # than 1e-13, farther than 1e-14 of the interval's width
    inst = validate(ProblemInstance(A=np.diag([1.0, 2.0]), f=np.zeros(2),
                                    lse_terms=(LseTerm(Q=np.eye(2), d=-30.63),), beta=1.0))
    tau = float(solve_canonical(canonical_from_problem(inst)).critical_pairs[0].zeta.tau[0])
    assert tau == pytest.approx(1.0 / (1.0 + np.exp(30.63)), rel=1e-9)


def test_maximiser_past_the_right_reach_is_not_bracketed(tmp_path, capsys):
    # f = 0, so tau* = 1 / (1 + e^-40): 1 - tau* is about 4e-18, closer to
    # the right end than the 1e-13 the bracketing reaches
    inst = validate(ProblemInstance(A=np.diag([1.0, 2.0]), f=np.zeros(2),
                                    lse_terms=(LseTerm(Q=np.eye(2), d=40.0),), beta=1.0))
    can = canonical_from_problem(inst)
    assert (univariate.existence(can.spectral(), univariate.entropy(can.d, can.beta))["verdict"]
            == ExistenceVerdict.UNCONDITIONAL)
    with pytest.raises(NoDualCriticalPointError, match="bracketing found none") as err:
        solve_canonical(can)
    assert err.value.context["lower"] == 0.0
    # the limit's report carries the verdict it was raised under
    path = tmp_path / "reach.json"
    path.write_text(serialize_problem(inst))
    assert main(["solve", str(path), "--json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "NOT_EXISTS"
    assert out["existence_verdict"] == "UNCONDITIONAL"


def test_maximum_at_the_closed_end_takes_no_iterations():
    # with f = 0, D'(alpha c) = c - alpha c / alpha = 0: the maximum is at sigma = alpha c
    report = quartic.solve(QuarticInstance(A=np.eye(2), f=np.zeros(2), alpha=1.0, c=1.0))
    assert float(report.best.zeta.sigma[0]) == 1.0
    assert report.iterations == 0


def test_an_unbounded_right_end_is_found_by_doubling():
    # D'(s) = 5e5 / (1 + s)^2 - s on [0, inf): after the closed-end test at
    # 0 and the left step to s = 1, the right end doubles its distance from
    # 0, 2 -> 128, where D' < 0
    sd = SpectralData.from_matrix(np.eye(1), [1000.0])
    conj = univariate.quartic(1.0, 0.0)
    seen = []

    def deriv(s):
        seen.append(s)
        return univariate.derivative(sd, conj, s)
    root, _ = univariate.maximise(sd, conj, ExistenceVerdict.UNCONDITIONAL, deriv)
    assert seen[:9] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    assert deriv(64.0) > 0.0 > deriv(128.0)
    assert root == pytest.approx(78.705, abs=1e-3)
    assert abs(univariate.derivative(sd, conj, root)) <= GRAD_TOL
    report = quartic.solve(QuarticInstance(A=np.eye(1), f=[1000.0], alpha=1.0, c=0.0))
    assert float(report.best.zeta.sigma[0]) == pytest.approx(root, rel=1e-12)


def test_refinement_stops_at_its_iteration_cap():
    # bisection would need about 1,030 halvings of [-1e300, 1e300] to reach 1e-10
    calls = []

    def fn(x):
        calls.append(x)
        return x - 1.0
    x, fx, iters = univariate.refine(fn, -1e300, 1e300, -1e300, 1e-10)
    assert iters == univariate.MAX_ITER
    assert len(calls) == univariate.MAX_ITER + 1
    assert fx == fn(x) and abs(fx) > 1e-10


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
            roots.append(univariate.refine(deriv, grid[i], grid[i + 1], vals[i], GRAD_TOL)[0])
    return sorted(roots)


def _near_touch(gap):
    """Entropy dual whose D' on the pole interval (0.1, 0.7) dips to -gap at
    its lowest point s_m (two roots close to s_m for a small gap > 0, none
    for gap < 0). Returns (sd, conj, s_m)."""
    sd = SpectralData.from_matrix(np.diag([-0.7, -0.1]), [0.2, 0.3])
    beta = 8.0
    flat = univariate.entropy(0.0, beta)       # D' of entropy(d) is this one's plus d
    curvature = lambda s: univariate.second_derivative(sd, flat, s)
    s_m = univariate.refine(curvature, 0.1 + 1e-3, 0.7 - 1e-3, curvature(0.1 + 1e-3), 0.0)[0]
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


def _rotated(rng, eigenvalues):
    Q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    return (Q * np.asarray(eigenvalues)) @ Q.T


def _admits(M, rtol):
    w = np.linalg.eigvalsh(M)
    return bool(w[0] > rtol * (1.0 + abs(w[-1])))


def _counting_eigvalsh(monkeypatch):
    calls = []
    plain = np.linalg.eigvalsh

    def counted(M):
        calls.append(len(M))
        return plain(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestWhiten:
    @pytest.mark.parametrize("n", [1, 3, 65, 130, 257])
    def test_congruence_gives_the_identity(self, rng, n):
        # 65, 130 and 257 split unevenly and recurse in the triangular inverse
        M = _rotated(rng, rng.uniform(0.3, 2.0, n))
        W = univariate.whitened(M, M, "weight")[0]
        assert np.max(np.abs(W.T @ M @ W - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("rtol", [1e-12, 1e-10])
    @pytest.mark.parametrize("side", [0.98, 1.02])
    def test_decision_is_the_eigenvalue_rule_at_the_threshold(self, rng, monkeypatch,
                                                               rtol, side):
        # eleven eigenvalues, w_max = 1e3 and w_min a hair either side of
        # rtol (1 + w_max): the trace bound cannot decide, eigvalsh does
        M = _rotated(rng, [1e3] * 10 + [side * rtol * 1001.0])
        admitted = _admits(M, rtol)
        assert admitted == (side > 1.0)
        calls = _counting_eigvalsh(monkeypatch)
        if admitted:
            assert univariate.whitened(M, M, "weight", rtol=rtol)[0].shape == (11, 11)
        else:
            with pytest.raises(ShapeMismatchError) as err:
                univariate.whitened(M, M, "weight", rtol=rtol)
            assert err.value.context["min_eig"] == pytest.approx(side * rtol * 1001.0,
                                                                 rel=1e-3)
        assert calls == [11]

    def test_trace_bound_admits_without_eigenvalues(self, rng, monkeypatch):
        M = _rotated(rng, rng.uniform(0.3, 2.0, 40))
        calls = _counting_eigvalsh(monkeypatch)
        univariate.whitened(M, M, "weight", rtol=1e-10)
        assert calls == []

    def test_trace_bound_failing_falls_back_and_admits(self, rng, monkeypatch):
        # ten eigenvalues 1e3 and one 1.5e-7: the bound reads
        # 1e-10 (1 + 1e4) / 1.5e-7 > 6, the exact rule admits 1.5e-7 > 1.001e-7
        M = _rotated(rng, [1e3] * 10 + [1.5e-7])
        assert _admits(M, 1e-10)
        calls = _counting_eigvalsh(monkeypatch)
        W = univariate.whitened(M, M, "branch difference", rtol=1e-10,
                                 error=NotPositiveDefiniteError)[0]
        assert calls == [11]
        assert np.allclose(W.T @ M @ W, np.eye(11), atol=1e-6)

    @pytest.mark.parametrize("M", [np.diag([2.0, -1.0, 3.0]),
                                   np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
                                   np.diag([2.0, 0.0, 3.0])],
                             ids=["indefinite", "singular", "singular-diagonal"])
    def test_failed_cholesky_is_rejected_with_the_least_eigenvalue(self, M):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        assert not _admits(M, 1e-12)
        for error in (ShapeMismatchError, NotPositiveDefiniteError):
            with pytest.raises(error, match="weight must be positive definite") as err:
                univariate.whitened(M, M, "weight", error=error)
            assert err.value.context["min_eig"] == pytest.approx(np.linalg.eigvalsh(M)[0],
                                                                 abs=1e-15)


class TestDiagonalWhitening:
    """A diagonal weight is scaled, with no factorisation, and lands bit for
    bit where the Cholesky route would."""

    @pytest.mark.parametrize("n", [5, 100])
    def test_scaling_is_the_cholesky_route_bit_for_bit(self, rng, n):
        # n = 100 recurses in the triangular inverse, n = 5 does not
        M = np.diag(rng.uniform(0.3, 2.0, n))
        A = _sym(rng.standard_normal((n, n)))
        W, WAW = univariate.whitened(M, A, "weight")
        L = np.linalg.cholesky(M)
        dense = np.linalg.inv(L).T
        assert np.array_equal(W, dense)
        assert np.array_equal(W, univariate._lower_inverse(L).T)
        assert np.array_equal(WAW, dense.T @ A @ dense)
        assert np.array_equal(univariate.whitened(M, M, "weight")[0], W)

    @pytest.mark.parametrize("rtol", [1e-12, 1e-10])
    @pytest.mark.parametrize("side", [0.98, 1.02])
    @pytest.mark.parametrize("w_max", [1e3, 1.0])
    @pytest.mark.parametrize("error", [ShapeMismatchError, NotPositiveDefiniteError])
    def test_decision_is_the_eigenvalue_rule_at_the_threshold(self, monkeypatch, rtol,
                                                               side, w_max, error):
        M = np.diag([w_max] * 10 + [side * rtol * (1.0 + w_max)])
        admitted, min_eig = _admits(M, rtol), np.linalg.eigvalsh(M)[0]
        assert admitted == (side > 1.0)
        calls = _counting_eigvalsh(monkeypatch)
        if admitted:
            assert univariate.whitened(M, M, "weight", rtol=rtol, error=error)[0].shape == (11, 11)
        else:
            with pytest.raises(error, match="weight must be positive definite") as err:
                univariate.whitened(M, M, "weight", rtol=rtol, error=error)
            assert err.value.context["min_eig"] == min_eig
        assert calls == []

    def test_no_factorisation(self, monkeypatch):
        def refuse(M):
            raise np.linalg.LinAlgError("factorised")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        M = np.diag([0.5, 2.0, 4.0])
        W = univariate.whitened(M, M, "weight")[0]
        assert np.array_equal(W, np.diag(1.0 / np.sqrt([0.5, 2.0, 4.0])))

    def test_one_tiny_off_diagonal_entry_takes_the_cholesky_route(self, monkeypatch):
        M = np.diag([0.5, 2.0, 4.0])
        M[0, 2] = M[2, 0] = 1e-300
        plain, calls = np.linalg.cholesky, []

        def counted(M):
            calls.append(len(M))
            return plain(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        W = univariate.whitened(M, M, "weight")[0]
        assert calls == [3]
        assert np.array_equal(W, univariate._lower_inverse(plain(M)).T)


def _symmetric_root(M):
    """M^{-1/2}, built as ``conftest.rand_minimax`` builds it."""
    w, V = np.linalg.eigh(M)
    return V @ np.diag(1.0 / np.sqrt(w)) @ V.T


def _sym(M):
    return 0.5 * (M + M.T)


class TestCholeskyCoordinates:
    """The Cholesky basis is a rotation of the symmetric root's: the same
    spectrum, the same |f_hat| on simple eigenvalues, the same solutions."""

    def _assert_same_spectral_data(self, sd, ref):
        assert np.max(np.abs(sd.lambdas - ref.lambdas)) <= 1e-10 * np.max(np.abs(ref.lambdas))
        gap = np.diff(ref.lambdas) > 1e-4
        simple = np.r_[gap, True] & np.r_[True, gap]
        assert simple.sum() > 0.8 * simple.size
        err = np.abs(np.abs(sd.f_hat) - np.abs(ref.f_hat))[simple]
        assert np.max(err) <= 1e-10 * np.max(np.abs(ref.f_hat))

    def _assert_same_x(self, x, ref):
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [80, 130])
    def test_quartic(self, rng, n):
        inst = rand_instance(rng, n=n, p=0, r=1, spd_quartic=True)
        term = inst.quartic_terms[0]
        R = _symmetric_root(term.B)
        ref = QuarticInstance(A=R @ inst.A @ R, f=R @ inst.f, alpha=term.alpha, c=term.c,
                              basis=R)
        qi = QuarticInstance.from_problem(inst)
        self._assert_same_spectral_data(qi.spectral(), ref.spectral())
        self._assert_same_x(quartic.solve(qi).best.x, quartic.solve(ref).best.x)

    @pytest.mark.parametrize("n", [80, 130])
    @pytest.mark.parametrize("mode", ["interior", "exists"])
    def test_minimax(self, rng, n, mode):
        # "interior": lambda_1 >= 0.3 and a load of norm about 0.5 keep the
        # maximiser a float-resolvable distance inside (0, 1), so every solve
        # returns pairs; the generator's "exists" instances mostly fail at
        # these sizes (ROADMAP item 2), and must fail the same way. The
        # instance is taken to the coordinates x = T z, T with singular
        # values in [0.7, 1.4], so that A2 - A1 = T'T, and f2 is moved off
        # f1 so that the offset is not zero.
        if mode == "interior":
            base = _minimax_from_canonical(rng, np.sort(rng.uniform(0.3, 2.0, n)),
                                           rng.standard_normal(n) * 0.5 / np.sqrt(n),
                                           rng.uniform(-0.5, 0.5), rng.uniform(5.0, 12.0))
        else:
            base = rand_minimax(rng, n, mode)
        P, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S, _ = np.linalg.qr(rng.standard_normal((n, n)))
        T = (P * rng.uniform(0.7, 1.4, n)) @ S
        mm = MinimaxInstance(A1=_sym(T.T @ base.A1 @ T), A2=_sym(T.T @ base.A2 @ T),
                             f1=T.T @ base.f1,
                             f2=T.T @ base.f2 + rng.standard_normal(n) * 0.1 / np.sqrt(n),
                             d1=base.d1, d2=base.d2,
                             beta=base.beta)
        delta, g = mm.A2 - mm.A1, mm.f2 - mm.f1
        R = _symmetric_root(delta)
        offset = np.linalg.solve(delta, g)
        ref = CanonicalForm(
            A=_sym(R @ mm.A1 @ R), f=R @ (mm.f1 - mm.A1 @ offset),
            d=mm.d2 - mm.d1 - 0.5 * float(g @ offset), beta=mm.beta, basis=R,
            offset=offset,
            value_shift=0.5 * float(offset @ mm.A1 @ offset) - float(mm.f1 @ offset) + mm.d1)
        can = smooth_and_canonicalize(mm)
        self._assert_same_spectral_data(can.spectral(), ref.spectral())
        got, want = _outcome(minimax.solve, mm), _outcome(minimax.solve_canonical, ref)
        assert type(got) is type(want)
        if mode == "interior":
            assert isinstance(got, list) and len(got) >= 1
        if isinstance(got, Exception):
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.zeta.tau[0] == pytest.approx(b.zeta.tau[0], abs=1e-12)
            assert (a.region, a.classification) == (b.region, b.classification)
            self._assert_same_x(a.x, b.x)


def _outcome(solve, data):
    """The solve's pairs, or the library error it raised."""
    try:
        return solve(data).critical_pairs
    except CanodualError as err:
        return err

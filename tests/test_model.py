import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canodual.errors import (
    EmptyModelError,
    InvalidModelError,
    NonPositiveParameterError,
    NonSymmetricError,
    ParseError,
)
from canodual.model import (
    LseTerm,
    ProblemInstance,
    QuarticTerm,
    SpectralData,
    parse_problem,
    serialize_problem,
    validate,
)

from conftest import rand_instance


def simple_quartic(A22=-14.0, alpha=10.0):
    return ProblemInstance(
        A=[[-16.0, -5.0], [-5.0, A22]], f=[14.0, -6.0],
        quartic_terms=(QuarticTerm(B=np.eye(2), c=-14.0, alpha=alpha),),
        beta=1.0)


class TestValidate:
    def test_well_formed_passes_unchanged(self):
        inst = ProblemInstance(
            A=[[-16.0]], f=[0.0],
            quartic_terms=(QuarticTerm(B=[[1.0]], c=-14.0, alpha=10.0),))
        out = validate(inst)
        assert out.n == 1 and out.r == 1 and out.p == 0
        assert out.A[0, 0] == -16.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(NonPositiveParameterError):
            validate(ProblemInstance(
                A=[[1.0]], f=[0.0],
                quartic_terms=(QuarticTerm(B=[[1.0]], c=0.0, alpha=-1.0),)))

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(NonPositiveParameterError):
            validate(ProblemInstance(
                A=[[1.0]], f=[0.0],
                lse_terms=(LseTerm(Q=[[1.0]], d=0.0),), beta=0.0))

    def test_large_asymmetry_rejected(self):
        bad = ProblemInstance(
            A=[[1.0, 0.001], [0.0, 1.0]], f=[0.0, 0.0],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.0, alpha=1.0),))
        with pytest.raises(NonSymmetricError):
            validate(bad)

    def test_tiny_asymmetry_repaired(self):
        eps = 1e-13
        inst = validate(ProblemInstance(
            A=[[1.0, eps], [0.0, 1.0]], f=[0.0, 0.0],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=0.0, alpha=1.0),)))
        assert inst.A[0, 1] == inst.A[1, 0] == pytest.approx(eps / 2)

    def test_empty_model_rejected(self):
        with pytest.raises(EmptyModelError):
            validate(ProblemInstance(A=[[1.0]], f=[0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidModelError):
            validate(ProblemInstance(
                A=[[np.nan]], f=[0.0],
                quartic_terms=(QuarticTerm(B=[[1.0]], c=0.0, alpha=1.0),)))

    def test_finite_input_stays_finite(self):
        """Symmetrizing halves each side first, so a finite entry near the
        largest float neither overflows nor warns."""
        text = json.dumps({
            "n": 2, "A": [[1e308, 1.0], [1.0, 1.0]], "f": [0.0, 0.0],
            "quartic": [{"B": [[1e308, 0.0], [0.0, 1.0]], "c": 0.0, "alpha": 1.0}],
            "beta": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = parse_problem(text)
        assert np.array_equal(inst.A, [[1e308, 1.0], [1.0, 1.0]])
        assert np.array_equal(inst.quartic_terms[0].B, np.diag([1e308, 1.0]))

    def test_idempotent(self, rng):
        inst = rand_instance(rng, n=3)
        again = validate(inst)
        assert again.allclose(inst, tol=0.0)

    def test_instance_arrays_read_only(self):
        inst = validate(simple_quartic(A22=14.0))
        with pytest.raises(ValueError):
            inst.A[0, 0] = 3.0

    @pytest.mark.parametrize("raw, fragment", [
        (ProblemInstance(A=np.zeros((0, 0)), f=np.zeros(0)), "dimension must be positive"),
        (ProblemInstance(A=np.eye(2), f=[1.0, 2.0, 3.0],
                         quartic_terms=(QuarticTerm(np.eye(2), -1.0, 1.0),)),
         "f must be an n-vector"),
        (ProblemInstance(A=np.eye(2), f=[1.0, 2.0], lse_terms=(LseTerm(np.eye(2), np.nan),)),
         "non-finite d in lse[0]"),
        (ProblemInstance(A=np.eye(2), f=[1.0, 2.0],
                         quartic_terms=(QuarticTerm(np.eye(2), np.inf, 1.0),)),
         "non-finite c in quartic[0]"),
        (ProblemInstance(A=np.eye(2), f=[1.0, 2.0], lse_terms=(LseTerm(np.eye(3), 0.0),)),
         "lse[0].Q must be 2x2"),
    ], ids=["n", "f", "d", "c", "shape"])
    def test_each_invalid_input_names_its_fault(self, raw, fragment):
        with pytest.raises(InvalidModelError) as info:
            validate(raw)
        assert fragment in str(info.value)


class TestParse:
    def test_quartic_benchmark_file(self):
        # quoted form of the 2-D benchmark data (shape check only)
        text = json.dumps({
            "n": 2, "A": [[-16, -5], [-5, -14]], "f": [14, -6],
            "quartic": [{"B": [[1, 0], [0, 1]], "c": -14, "alpha": 10}],
            "beta": 1.0})
        inst = parse_problem(text)
        assert (inst.n, inst.p, inst.r) == (2, 0, 1)
        assert inst.quartic_terms[0].alpha == 10.0

    def test_mixed_benchmark_file(self):
        text = json.dumps({
            "n": 1, "A": [[0.0]], "f": [0.8],
            "lse": [{"Q": [[1.0]], "d": -0.1}],
            "quartic": [{"B": [[2.0]], "c": -1.0, "alpha": 10.0}],
            "beta": 1.0})
        inst = parse_problem(text)
        assert (inst.p, inst.r) == (1, 1)

    def test_empty_stream(self):
        with pytest.raises(ParseError):
            parse_problem("")
        with pytest.raises(ParseError):
            parse_problem(io.StringIO("   \n"))

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_problem('{"n": 1, "A": [[1]], "f": [0], "beta": 1, "extra": 2}')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing"):
            parse_problem('{"n": 1, "A": [[1]], "beta": 1}')

    def test_bad_shape_has_context(self):
        with pytest.raises(ParseError, match="A"):
            parse_problem('{"n": 2, "A": [[1]], "f": [0, 0], "beta": 1}')

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_problem('{"n": 1,\n  "A": [[1]],,}')

    @pytest.mark.parametrize("change, fragment", [
        (lambda doc: [doc], "top-level value must be an object"),
        (lambda doc: {**doc, "n": 0}, "'n' must be a positive integer"),
        (lambda doc: {**doc, "n": "2"}, "'n' must be a positive integer"),
        (lambda doc: {**doc, "n": True}, "'n' must be a positive integer"),
        (lambda doc: {**doc, "n": 1.5}, "'n' must be a positive integer"),
        (lambda doc: {**doc, "A": [["a", 0], [0, 1]]}, "A: not a numeric matrix"),
        (lambda doc: {**doc, "f": ["x", 1]}, "'f' is not a numeric vector"),
        (lambda doc: {**doc, "f": [1, 2, 3]}, "'f' must have length 2"),
        (lambda doc: {**doc, "lse": [{"Q": [[1, 0], [0, 1]], "d": 0, "c": 1}]},
         "lse[0] must be an object with fields Q, d"),
        (lambda doc: {**doc, "lse": [[1, 0]]}, "lse[0] must be an object with fields Q, d"),
        (lambda doc: {**doc, "quartic": [{"B": [[1, 0], [0, 1]], "c": 0}]},
         "quartic[0] must be an object with fields B, c, alpha"),
        (lambda doc: {**doc, "lse": [{"Q": [[1, 0], [0, 1]], "d": "x"}]},
         "lse[0].d is not a number"),
        (lambda doc: {**doc, "quartic": [{"B": [[1, 0], [0, 1]], "c": [1], "alpha": 1}]},
         "quartic[0]: c/alpha must be numbers"),
        (lambda doc: {**doc, "quartic": [{"B": [[1, 0], [0, 1]], "c": 0, "alpha": None}]},
         "quartic[0]: c/alpha must be numbers"),
        (lambda doc: {**doc, "beta": "one"}, "'beta' is not a number"),
    ], ids=["top-level", "n-zero", "n-string", "n-bool", "n-float", "A", "f-numeric",
            "f-length", "lse-fields", "lse-not-object", "quartic-fields", "d", "c",
            "alpha", "beta"])
    def test_each_unreadable_field_names_its_fault(self, change, fragment):
        doc = {"n": 2, "A": [[1, 0], [0, 1]], "f": [1, 1], "beta": 1,
               "quartic": [{"B": [[1, 0], [0, 1]], "c": -1, "alpha": 1}]}
        with pytest.raises(ParseError) as info:
            parse_problem(json.dumps(change(doc)))
        assert fragment in str(info.value)

    def test_validation_error_propagates(self):
        text = json.dumps({
            "n": 1, "A": [[1.0]], "f": [0.0],
            "quartic": [{"B": [[1.0]], "c": 0.0, "alpha": -2.0}], "beta": 1.0})
        with pytest.raises(NonPositiveParameterError):
            parse_problem(text)

    def test_round_trip_fixture(self):
        inst = validate(simple_quartic(A22=14.0))
        again = parse_problem(serialize_problem(inst))
        assert again.allclose(inst, tol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_round_trip_random(self, seed):
        inst = rand_instance(np.random.default_rng(seed), n=3)
        again = parse_problem(serialize_problem(inst))
        assert again.allclose(inst, tol=1e-15)


class TestSpectralData:
    def test_invariants_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            A = 0.5 * (M + M.T)
            f = rng.standard_normal(n)
            sd = SpectralData.from_matrix(A, f)
            assert np.all(np.diff(sd.lambdas) >= 0)
            assert np.max(np.abs(sd.U.T @ sd.U - np.eye(n))) <= 1e-10
            recon = (sd.U * sd.lambdas) @ sd.U.T
            assert np.max(np.abs(recon - A)) <= 1e-8 * (1 + np.max(np.abs(A)))
            assert np.allclose(sd.f_hat, sd.U.T @ f, atol=1e-14)
            assert 1 <= sd.k <= n

    def test_multiplicity_detected(self):
        sd = SpectralData.from_matrix(np.diag([2.0, 2.0, 5.0]), np.zeros(3))
        assert sd.k == 2
        sd = SpectralData.from_matrix(-0.5 * np.eye(2), [0.0, -0.5])
        assert sd.k == 2

    def test_k_maximal_under_cluster_tolerance(self):
        A = np.diag([1.0, 1.0 + 1e-12, 3.0])
        assert SpectralData.from_matrix(A, np.zeros(3)).k == 2

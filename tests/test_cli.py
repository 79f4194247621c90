import json
import warnings

import numpy as np
import pytest

from canodual import errors, fixtures
from canodual.cli import main
from canodual.errors import HardCaseError
from canodual.minimax import smooth_and_canonicalize
from canodual.model import (
    LseTerm,
    ProblemInstance,
    QuarticTerm,
    serialize_problem,
    validate,
)
from canodual.reproduce import reproduce_example
from canodual.solver import solve_global

from conftest import rand_instance


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(serialize_problem(fixtures.example1()))
    return str(path)


@pytest.fixture
def ex2_path(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(fixtures.example2()))
    return str(path)


@pytest.fixture
def ex3_path(tmp_path):
    path = tmp_path / "ex3.json"
    can = smooth_and_canonicalize(fixtures.example3())
    path.write_text(serialize_problem(can.to_problem()))
    return str(path)


class TestSolve:
    def test_specialized_quartic_json(self, ex2_path, capsys):
        code = main(["solve", ex2_path, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "GLOBAL_MIN_FOUND"
        pair = out["critical_pairs"][0]
        assert pair["sigma"][0] == pytest.approx(19.093, abs=1e-2)
        assert pair["x"] == pytest.approx([5.6, 0.67], abs=5e-2)
        assert pair["classification"] == "GLOBAL_MIN"
        assert set(out) == {"status", "critical_pairs", "existence_verdict",
                            "iterations", "residual_norm", "notes"}
        assert set(pair) == {"x", "tau", "sigma", "primal_value", "dual_value",
                             "gap", "region", "classification"}

    def test_missing_file(self, capsys):
        assert main(["solve", "missing.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_all_critical(self, ex1_path, capsys):
        code = main(["solve", ex1_path, "--all-critical", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["critical_pairs"]) == 3
        labels = {p["classification"] for p in out["critical_pairs"]}
        assert labels == {"GLOBAL_MIN", "LOCAL_MAX", "SADDLE"}

    def test_json_deterministic_across_runs(self, ex1_path, capsys):
        main(["solve", ex1_path, "--all-critical", "--json", "--seed", "11"])
        first = capsys.readouterr().out
        main(["solve", ex1_path, "--all-critical", "--json", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("example, verdict", [
        ("ex1", "NOT_APPLICABLE"), ("ex2", "EXISTS"), ("ex3", "EXISTS")])
    def test_the_shape_picks_the_solver(self, example, verdict, request, capsys):
        # the fast paths report their existence verdict; solve_global has none
        path = request.getfixturevalue(f"{example}_path")
        assert main(["solve", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "GLOBAL_MIN_FOUND"
        assert out["existence_verdict"] == verdict

    def test_hard_case_exit_two(self, tmp_path, capsys):
        # the quartic fast path decides the hard case up front
        inst = validate(ProblemInstance(
            A=np.diag([-2.0, 1.0]), f=[0.0, 0.1],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=-3.0, alpha=1.0),)))
        path = tmp_path / "hard.json"
        path.write_text(serialize_problem(inst))
        code = main(["solve", str(path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["status"] == "NOT_EXISTS"
        with pytest.raises(HardCaseError):
            solve_global(inst)

    def test_a_general_shape_stall_exits_two(self, tmp_path, capsys):
        # the same hard case split into two quartic terms has no fast path:
        # solve_global's ascent stalls on the boundary of the region
        half = QuarticTerm(B=np.eye(2), c=-3.0, alpha=0.5)
        inst = validate(ProblemInstance(
            A=np.diag([-2.0, 1.0]), f=[0.0, 0.1], quartic_terms=(half, half)))
        path = tmp_path / "hard2.json"
        path.write_text(serialize_problem(inst))
        code = main(["solve", str(path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["status"] == "NO_SA_PLUS_CRITICAL_POINT"
        assert "stalled" in out["notes"][0]

    def test_an_uncertified_maximiser_exits_two(self, tmp_path, capsys):
        # the smoothed-minimax maximiser sits 3.2e-11 past a pole of
        # G^{-1}, where no pair is built: a limit, never an empty certificate
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"n": 2, "A": [[-0.5, 0], [0, 0.3]], "f": [1e-10, 0.1],
                                    "lse": [{"Q": [[1, 0], [0, 1]], "d": -5}], "beta": 10}))
        assert main(["solve", str(path), "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "NO_SA_PLUS_CRITICAL_POINT"
        assert out["existence_verdict"] == "EXISTS"
        assert out["critical_pairs"] == []
        assert main(["oracle-compare", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error [NO_SA_PLUS_CRITICAL_POINT]")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("doc, verdict", [
        ({"n": 2, "A": [[-2, 0], [0, 1]], "f": [0, 0.1],
          "quartic": [{"B": [[1, 0], [0, 1]], "c": -3, "alpha": 1}], "beta": 1}, "NOT_EXISTS"),
        ({"n": 1, "A": [[-3]], "f": [0.5], "lse": [{"Q": [[1]], "d": 0}], "beta": 2},
         "UNBOUNDED"),
    ], ids=["not-exists", "unbounded"])
    def test_a_fast_path_limit_reports_its_verdict(self, doc, verdict, tmp_path, capsys):
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == out["existence_verdict"] == verdict

    def test_beta_override(self, ex3_path, capsys):
        code = main(["solve", ex3_path, "--beta", "1000", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["critical_pairs"][0]["tau"][0] == pytest.approx(0.749931, abs=1e-4)

    def test_human_readable_output(self, ex1_path, capsys):
        code = main(["solve", ex1_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "GLOBAL_MIN" in out and "gap" in out

    def test_an_overflowing_ascent_is_a_method_limit(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "n": 2, "A": [[1e300, 0], [0, 1]], "f": [1, 1], "beta": 1,
            "quartic": [{"B": [[1e-11, 0], [0, 1]], "c": -1, "alpha": 1}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == 2
        out = capsys.readouterr().out
        assert "status: NO_SA_PLUS_CRITICAL_POINT" in out
        assert "dual ascent overflowed" in out


class TestCheckExistence:
    def test_quartic_exists(self, ex2_path, capsys):
        code = main(["check-existence", ex2_path])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "EXISTS"
        assert "lambda_min" in out and "left-hand side" in out

    def test_quartic_unconditional_reports_the_boundary_lhs(self, tmp_path, capsys):
        inst = validate(ProblemInstance(
            A=np.diag([1.0, 2.0]), f=[1.0, 1.0],
            quartic_terms=(QuarticTerm(B=np.eye(2), c=1.0, alpha=1.0),)))
        path = tmp_path / "unconditional.json"
        path.write_text(serialize_problem(inst))
        code = main(["check-existence", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "UNCONDITIONAL"
        # 1/2 tail^2/gap^2 + lambda_1/alpha + c = 1/2 + 1 + 1
        assert lines[3].startswith("boundary inequality left-hand side: 2.5 ")

    def test_smoothed_unbounded(self, tmp_path, capsys):
        inst = validate(ProblemInstance(
            A=np.diag([-2.0, 1.0]), f=[0.3, 0.1],
            lse_terms=(LseTerm(Q=np.eye(2), d=0.0),), beta=10.0))
        path = tmp_path / "p2.json"
        path.write_text(serialize_problem(inst))
        code = main(["check-existence", str(path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "UNBOUNDED"

    def test_smoothed_not_exists_reports_the_boundary_lhs(self, tmp_path, capsys):
        inst = validate(ProblemInstance(
            A=np.diag([-0.5, 1.0]), f=[0.0, 0.3],
            lse_terms=(LseTerm(Q=np.eye(2), d=-1.0),), beta=2.0))
        path = tmp_path / "not_exists.json"
        path.write_text(serialize_problem(inst))
        code = main(["check-existence", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "NOT_EXISTS"
        # 1/2 tail^2/gap^2 - V*'(1/2) = 1/2 0.09/1.5^2 - (0 - d)
        assert lines[3].startswith("boundary inequality left-hand side: -0.98 ")

    def test_shape_mismatch(self, ex1_path, tmp_path, capsys):
        # every shape but the two fast paths' is refused with one message
        # that names both: ex1 (p = 1, r = 1) and a p = 0, r = 2 file
        p0r2 = tmp_path / "p0r2.json"
        p0r2.write_text(serialize_problem(rand_instance(np.random.default_rng(0), 2, 0, 2)))
        for path, p, r in ((ex1_path, 1, 1), (str(p0r2), 0, 2)):
            assert main(["check-existence", path]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "error [SHAPE_MISMATCH]: no fast path for this shape: p=0, r=1 (quartic) "
                f"or p=1, r=0 (smoothed minimax) (p={p}, r={r})\n")
            assert captured.out == ""

    def test_an_indefinite_quartic_weight_names_its_own_error(self, tmp_path, capsys):
        # the single-quartic shape goes to the quartic form only, so its
        # error is not masked by the minimax form's shape message
        inst = validate(ProblemInstance(
            A=np.eye(2), f=[1.0, 0.5],
            quartic_terms=(QuarticTerm(B=np.diag([1.0, -1.0]), c=0.0, alpha=1.0),)))
        path = tmp_path / "indefinite.json"
        path.write_text(serialize_problem(inst))
        assert main(["check-existence", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [SHAPE_MISMATCH]: quartic weight must be positive definite" in err
        assert "smoothed-minimax" not in err

    @pytest.mark.parametrize("term", [
        {"quartic": [{"B": [[1e-11, 0], [0, 1]], "c": -1, "alpha": 1}]},
        {"lse": [{"Q": [[1e-11, 0], [0, 1]], "d": 0}]}], ids=["quartic", "lse"])
    def test_an_overflowing_whitening_is_input_error(self, term, tmp_path, capsys):
        # an admitted weight whose whitening takes A past the floats: the
        # spectrum of the non-finite A would give a verdict from NaN
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n": 2, "A": [[1e300, 0], [0, 1]], "f": [1, 1],
                                    "beta": 1, **term}))
        assert main(["check-existence", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error [SHAPE_MISMATCH]: whitening by the" in captured.err
        assert "overflows A or f" in captured.err
        assert captured.out == ""
        # solve goes to the general solver, as for any weight the fast paths
        # do not admit; its report names the limit and nothing else
        assert main(["solve", str(path)]) == 2
        out = capsys.readouterr().out
        assert "status: NO_SA_PLUS_CRITICAL_POINT" in out
        assert "existence: NOT_APPLICABLE" in out
        assert "perturbation" not in out


class TestReproduce:
    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_benchmarks_pass(self, example, capsys):
        code = main(["reproduce", str(example)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_unknown_id_usage_error(self, capsys):
        assert main(["reproduce", "9"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--starts", "2"], ["--seed", "1"], ["--beta", "10"]],
                             ids=["starts", "seed", "beta"])
    def test_an_option_is_a_usage_error(self, option, capsys):
        # the reference values hold at the default configuration only:
        # 2 starts lose benchmark 1's GLOBAL_MIN, and the beta study is
        # scripts/beta_sweep.py's
        example = "3" if option[0] == "--beta" else "1"
        assert main(["reproduce", example, *option]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("example", [0, 4, -1])
    def test_the_library_refuses_an_unknown_id(self, example):
        with pytest.raises(ValueError, match=f"unknown benchmark id {example}; choose 1, 2 or 3"):
            reproduce_example(example)


def _no_general_solve(*args):
    raise AssertionError("solve_global ran on a fast-path shape")


class TestOracleCompare:
    def test_benchmark1(self, ex1_path, capsys):
        code = main(["oracle-compare", ex1_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "difference" in out

    # oracle-compare checks what solve returns: on ex2 and ex3 a fast path
    def test_benchmark2(self, ex2_path, monkeypatch, capsys):
        monkeypatch.setattr("canodual.solve_global", _no_general_solve)
        assert main(["oracle-compare", ex2_path]) == 0

    def test_benchmark3(self, ex3_path, monkeypatch, capsys):
        monkeypatch.setattr("canodual.solve_global", _no_general_solve)
        assert main(["oracle-compare", ex3_path]) == 0

    def test_dimension_guard(self, tmp_path, capsys):
        inst = validate(ProblemInstance(
            A=np.eye(5), f=np.zeros(5),
            quartic_terms=(QuarticTerm(B=np.eye(5), c=0.0, alpha=1.0),)))
        path = tmp_path / "big.json"
        path.write_text(serialize_problem(inst))
        code = main(["oracle-compare", str(path)])
        assert code == 1
        assert "DIMENSION_TOO_LARGE" in capsys.readouterr().err

    def test_dimension_is_checked_before_the_solve(self, tmp_path, capsys):
        # solve_global raises HardCaseError on this instance: an input error
        # must still exit 1, not as a limit of the method
        inst = rand_instance(np.random.default_rng(0), n=4, p=0, r=1)
        with pytest.raises(HardCaseError):
            solve_global(inst)
        path = tmp_path / "n4.json"
        path.write_text(serialize_problem(inst))
        assert main(["oracle-compare", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [DIMENSION_TOO_LARGE]" in err
        assert "NO_SA_PLUS_CRITICAL_POINT" not in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_an_invalid_tolerance_is_input_error(self, tol, monkeypatch, capsys):
        # rejected before the file is read or anything is solved
        def no_solve(*args):
            raise AssertionError("solved with an invalid tolerance")
        monkeypatch.setattr("canodual.solve_global", no_solve)
        monkeypatch.setattr("canodual.cli._load", no_solve)
        assert main(["oracle-compare", "missing.json", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert "error: --tol must be finite and >= 0" in captured.err
        assert captured.out == ""

    def test_minimiser_outside_the_box_is_inconclusive(self, tmp_path, capsys):
        # double well at |x| = 10, outside the oracle's box (-6, 6)
        inst = validate(ProblemInstance(
            A=[[0.0]], f=[0.5],
            quartic_terms=(QuarticTerm(B=[[1.0]], c=-50.0, alpha=1.0),)))
        assert abs(solve_global(inst).best.x[0]) > 6.0
        path = tmp_path / "far.json"
        path.write_text(serialize_problem(inst))
        assert main(["oracle-compare", str(path)]) == 2
        assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("beta", ["-1", "0", "nan"])
def test_invalid_beta_override_is_input_error(beta, ex1_path, capsys):
    assert main(["solve", ex1_path, "--beta", beta]) == 1
    assert "error [NON_POSITIVE_PARAMETER]" in capsys.readouterr().err


@pytest.mark.parametrize("starts", ["0", "-3"])
@pytest.mark.parametrize("command", [["solve"], ["solve", "--all-critical"],
                                     ["oracle-compare"]],
                         ids=["solve", "solve-all-critical", "oracle-compare"])
def test_nonpositive_starts_is_input_error(command, starts, ex1_path, capsys):
    assert main([command[0], ex1_path, *command[1:], "--starts", starts]) == 1
    captured = capsys.readouterr()
    assert "error: num_starts and max_iter must be >= 1" in captured.err
    assert captured.out == ""


METHOD_LIMITS = {errors.HardCaseError, errors.NoDualCriticalPointError,
                 errors.UnboundedError}
ERROR_CLASSES = sorted((cls for cls in vars(errors).values()
                        if isinstance(cls, type) and issubclass(cls, errors.CanodualError)),
                       key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_maps_to_its_exit_status(cls, ex1_path, monkeypatch, capsys):
    # only the method's limits exit 2; every other library error is input
    # error 1, printed with its code by every command
    status = 2 if cls in METHOD_LIMITS else 1
    assert cls.exit_status == status

    def fail(*args, **kwargs):
        raise cls("stop")
    monkeypatch.setattr("canodual.cli.reproduce_example", fail)
    monkeypatch.setattr("canodual.solve_global", fail)
    assert main(["reproduce", "1"]) == status
    assert capsys.readouterr().err == f"error [{cls.code}]: stop\n"
    # solve reports a limit of the method as its status, not as an error
    assert main(["solve", ex1_path, "--json"]) == status
    captured = capsys.readouterr()
    if status == 2:
        assert json.loads(captured.out)["status"] == cls.code
        assert captured.err == ""
    else:
        assert captured.err == f"error [{cls.code}]: stop\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "check-existence", "oracle-compare"])
def test_non_utf8_file_is_input_error(command, tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not UTF-8 text")
    assert captured.out == ""

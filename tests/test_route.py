"""canodual.solve and canodual.check_existence route an instance by its
shape (p, r): p = 0, r = 1 to the quartic fast path, p = 1, r = 0 to the
smoothed-minimax one, every other shape, and a weight a fast path refuses,
to solve_global. A fast path's certificate or limit is final."""

import json

import numpy as np
import pytest

import canodual
from canodual import fixtures, minimax, quartic, univariate
from canodual.errors import (
    HardCaseError,
    NoDualCriticalPointError,
    ShapeMismatchError,
    UnboundedError,
)
from canodual.minimax import canonical_from_problem, smooth_and_canonicalize
from canodual.model import LseTerm, ProblemInstance, QuarticTerm, parse_problem, validate
from canodual.quartic import QuarticInstance
from canodual.solver import solve_global

from conftest import rand_instance

FAST_PATHS = (("quartic", QuarticInstance.from_problem, quartic.solve),
              ("minimax", canonical_from_problem, minimax.solve_canonical))


def _fixtures():
    return {"ex1": fixtures.example1(), "ex2": fixtures.example2(),
            "ex3": smooth_and_canonicalize(fixtures.example3()).to_problem()}


def _expected_entry(inst):
    """The entry point the instance should reach, as a name and a call: the
    first fast path whose form admits it, else solve_global."""
    for name, build, solve_form in FAST_PATHS:
        try:
            form = build(inst)
        except ShapeMismatchError:
            continue
        return name, lambda: solve_form(form)
    return "general", lambda: solve_global(inst)


def _bits(value):
    """Every field of a report or scalar, floats and arrays as their bytes."""
    if isinstance(value, canodual.SolveReport):
        return ([_bits(p) for p in value.critical_pairs], value.existence_verdict,
                value.iterations, _bits(value.residual_norm), value.notes)
    if isinstance(value, canodual.CriticalPair):
        return (_bits(value.x), _bits(value.zeta.tau), _bits(value.zeta.sigma),
                _bits(value.primal_value), _bits(value.dual_value), _bits(value.gap),
                _bits(value.residual), value.region, value.classification,
                value.primal_label, value.dual_label)
    if isinstance(value, (float, np.floating, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def _outcome(call):
    """What a call returns, bit for bit, or the class, message and context
    of what it raises."""
    try:
        return _bits(call())
    except canodual.errors.CanodualError as exc:
        return type(exc), str(exc), {k: _bits(v) for k, v in exc.context.items()}


@pytest.fixture
def entries(monkeypatch):
    """The names of the entry points canodual.solve calls, in order."""
    calls = []

    def counted(name, fn):
        def entry(*args):
            calls.append(name)
            return fn(*args)
        return entry

    names = {(0, 1): "quartic", (1, 0): "minimax"}
    for shape, (build, conjugate, solve_form) in list(canodual._FAST_PATHS.items()):
        monkeypatch.setitem(canodual._FAST_PATHS, shape,
                            (build, conjugate, counted(names[shape], solve_form)))
    monkeypatch.setattr(canodual, "solve_global", counted("general", solve_global))
    return calls


SHAPES = [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("spd", [False, True], ids=["any-weight", "spd-quartic"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p, r", SHAPES, ids=[f"p{p}r{r}" for p, r in SHAPES])
def test_each_shape_runs_one_entry(p, r, n, spd, entries):
    inst = rand_instance(np.random.default_rng([p, r, n, spd]), n, p, r, spd_quartic=spd)
    name, direct = _expected_entry(inst)
    got = _outcome(lambda: canodual.solve(inst))
    assert entries == [name]
    assert got == _outcome(direct)


@pytest.mark.parametrize("example, entry", [("ex1", "general"), ("ex2", "quartic"),
                                            ("ex3", "minimax")])
def test_each_fixture_runs_its_entry(example, entry, entries):
    inst = _fixtures()[example]
    name, direct = _expected_entry(inst)
    assert name == entry
    report = canodual.solve(inst)
    assert entries == [entry]
    assert _bits(report) == _outcome(direct)
    assert report.best.classification == canodual.Classification.GLOBAL_MIN


@pytest.mark.parametrize("inst", [
    validate(ProblemInstance(A=np.eye(2), f=[1.0, 0.5], quartic_terms=(
        QuarticTerm(B=np.diag([1.0, -1.0]), c=0.0, alpha=1.0),))),
    validate(ProblemInstance(A=[[1e300, 0.0], [0.0, 1.0]], f=[1.0, 1.0], quartic_terms=(
        QuarticTerm(B=np.diag([1e-11, 1.0]), c=-1.0, alpha=1.0),))),
    validate(ProblemInstance(A=[[1e300, 0.0], [0.0, 1.0]], f=[1.0, 1.0], lse_terms=(
        LseTerm(Q=np.diag([1e-11, 1.0]), d=0.0),))),
], ids=["indefinite-quartic", "overflowing-quartic", "overflowing-lse"])
def test_a_refused_weight_goes_to_the_general_solver(inst, entries):
    build = canodual._FAST_PATHS[inst.p, inst.r][0]
    with pytest.raises(ShapeMismatchError):
        build(inst)
    got = _outcome(lambda: canodual.solve(inst))
    assert entries == ["general"]
    assert got == _outcome(lambda: solve_global(inst))


def _general_solve_fails(*args):
    raise AssertionError("solve_global ran after a fast path's limit")


@pytest.mark.parametrize("doc, error, verdict", [
    ({"n": 2, "A": [[-2, 0], [0, 1]], "f": [0, 0.1],
      "quartic": [{"B": [[1, 0], [0, 1]], "c": -3, "alpha": 1}], "beta": 1},
     NoDualCriticalPointError, "NOT_EXISTS"),
    ({"n": 1, "A": [[-3]], "f": [0.5], "lse": [{"Q": [[1]], "d": 0}], "beta": 2},
     UnboundedError, "UNBOUNDED"),
    ({"n": 2, "A": [[-0.5, 0], [0, 0.3]], "f": [1e-10, 0.1],
      "lse": [{"Q": [[1, 0], [0, 1]], "d": -5}], "beta": 10},
     HardCaseError, "EXISTS"),
], ids=["not-exists", "unbounded", "uncertified-maximiser"])
def test_a_fast_path_limit_is_final(doc, error, verdict, monkeypatch):
    monkeypatch.setattr(canodual, "solve_global", _general_solve_fails)
    with pytest.raises(error) as err:
        canodual.solve(parse_problem(json.dumps(doc)))
    assert err.value.context["verdict"] == verdict


def test_check_existence_is_the_forms_test():
    examples = _fixtures()
    for inst, build, conjugate in (
            (examples["ex2"], QuarticInstance.from_problem,
             lambda qi: univariate.quartic(qi.alpha, qi.c)),
            (examples["ex3"], canonical_from_problem,
             lambda can: univariate.entropy(can.d, can.beta))):
        form = build(inst)
        want = univariate.existence(form.spectral(), conjugate(form))
        got = canodual.check_existence(inst)
        assert got.keys() == want.keys()
        assert all(_bits(got[key]) == _bits(want[key]) for key in want)
        assert got["verdict"] == canodual.ExistenceVerdict.EXISTS


def test_check_existence_refuses_every_other_shape():
    inst = fixtures.example1()
    with pytest.raises(ShapeMismatchError, match="p=0, r=1 \\(quartic\\) or p=1, r=0 "
                                                 "\\(smoothed minimax\\)") as err:
        canodual.check_existence(inst)
    assert err.value.context == {"p": 1, "r": 1}


def test_check_existence_names_a_refused_weight():
    inst = validate(ProblemInstance(A=np.eye(2), f=[1.0, 0.5], quartic_terms=(
        QuarticTerm(B=np.diag([1.0, -1.0]), c=0.0, alpha=1.0),)))
    with pytest.raises(ShapeMismatchError, match="quartic weight must be positive definite"):
        canodual.check_existence(inst)

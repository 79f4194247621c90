"""Correctness gate of the benchmark.

Every reported GLOBAL_MIN is re-checked here from the instance data with
the benchmark's own formulas, not the library's: a Cholesky factor of
G(zeta) must exist, the primal value at x must match the dual value at
zeta within 1e-6 (1 + |value|), and the primal gradient must vanish to
1e-6 (1 + ||f||_inf). These are the tolerances of acceptance criterion 4.

An outcome *fails* when the call raised an exception outside the
documented set, when it contradicts the library's own existence verdict,
or when its GLOBAL_MIN fails the re-check. The last kind also breaks the
gate: the benchmark then reports ``correct: false`` and exits nonzero.
"""

from __future__ import annotations

import numpy as np

from canodual import errors, minimax, quartic
from canodual.model import Classification, ExistenceVerdict
from canodual.reproduce import reproduce_example

from workloads import DOCUMENTED, Case, Outcome, has_global_min

TOL = 1e-6


def _xlogx(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0)


def _general_check(inst, pair) -> list[str]:
    """Re-check a GLOBAL_MIN pair of a general instance."""
    x = np.asarray(pair.x, dtype=float)
    tau = np.asarray(pair.zeta.tau, dtype=float)
    sigma = np.asarray(pair.zeta.sigma, dtype=float)
    A, f = np.asarray(inst.A), np.asarray(inst.f)
    Qs = [np.asarray(t.Q) for t in inst.lse_terms]
    Bs = [np.asarray(t.B) for t in inst.quartic_terms]
    d = np.array([t.d for t in inst.lse_terms])
    c = np.array([t.c for t in inst.quartic_terms])
    alpha = np.array([t.alpha for t in inst.quartic_terms])
    beta = inst.beta

    problems = []
    G = A + sum(t * Q for t, Q in zip(tau, Qs)) + sum(s * B for s, B in zip(sigma, Bs))
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        problems.append("Cholesky of G(zeta) failed")
        return problems

    xi = np.array([0.5 * x @ Q @ x for Q in Qs])
    eta = np.array([0.5 * x @ B @ x for B in Bs])
    a = beta * (xi + d)
    shift = max(0.0, float(a.max())) if a.size else 0.0
    e0, ea = np.exp(-shift), np.exp(a - shift)
    lse = (shift + np.log(e0 + ea.sum())) / beta if Qs else 0.0
    primal = 0.5 * x @ A @ x - f @ x + lse + float(np.sum(0.5 * alpha * (eta + c) ** 2))

    weights = ea / (e0 + ea.sum())
    stress = alpha * (eta + c)
    grad = (A @ x - f + sum(w * (Q @ x) for w, Q in zip(weights, Qs))
            + sum(s * (B @ x) for s, B in zip(stress, Bs)))

    slack = 1.0 - float(tau.sum())
    conj_lse = (float(_xlogx(tau).sum()) + float(_xlogx(slack))) / beta - float(d @ tau) \
        if tau.size else 0.0
    conj_quartic = float(np.sum(sigma ** 2 / (2.0 * alpha)) - c @ sigma) if sigma.size else 0.0
    dual = -0.5 * f @ np.linalg.solve(G, f) - conj_lse - conj_quartic

    scale = 1.0 + abs(primal)
    if abs(primal - dual) > TOL * scale:
        problems.append(f"gap {abs(primal - dual):.3e} exceeds {TOL * scale:.3e}")
    if abs(primal - pair.primal_value) > TOL * scale:
        problems.append(f"reported value {pair.primal_value!r} differs from {primal!r}")
    limit = TOL * (1.0 + float(np.max(np.abs(f), initial=0.0)))
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    if gnorm > limit:
        problems.append(f"||grad||_inf {gnorm:.3e} exceeds {limit:.3e}")
    return problems


def _minimax_check(mm, pair) -> list[str]:
    """Re-check a GLOBAL_MIN of the smoothed two-branch minimax in original
    coordinates: its dual is min_x of (1-tau) g1 + tau g2 minus the binary
    entropy over beta, so G(tau) = (1-tau) A1 + tau A2."""
    x = np.asarray(pair.x, dtype=float)
    tau = float(pair.zeta.tau[0])
    beta = mm.beta
    G = (1.0 - tau) * mm.A1 + tau * mm.A2
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return ["Cholesky of G(tau) failed"]
    g1 = 0.5 * x @ mm.A1 @ x - mm.f1 @ x + mm.d1
    g2 = 0.5 * x @ mm.A2 @ x - mm.f2 @ x + mm.d2
    hi, lo = max(g1, g2), min(g1, g2)
    primal = hi + np.log1p(np.exp(beta * (lo - hi))) / beta
    weight = 1.0 / (1.0 + np.exp(-beta * (g2 - g1)))
    grad = (1.0 - weight) * (mm.A1 @ x - mm.f1) + weight * (mm.A2 @ x - mm.f2)
    b = (1.0 - tau) * mm.f1 + tau * mm.f2
    entropy = float(_xlogx(tau) + _xlogx(1.0 - tau))
    dual = (-0.5 * b @ np.linalg.solve(G, b) + (1.0 - tau) * mm.d1 + tau * mm.d2
            - entropy / beta)

    problems = []
    scale = 1.0 + abs(primal)
    if abs(primal - dual) > TOL * scale:
        problems.append(f"gap {abs(primal - dual):.3e} exceeds {TOL * scale:.3e}")
    if abs(primal - pair.primal_value) > TOL * scale:
        problems.append(f"reported value {pair.primal_value!r} differs from {primal!r}")
    fmax = max(float(np.max(np.abs(mm.f1))), float(np.max(np.abs(mm.f2))))
    limit = TOL * (1.0 + fmax)
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    if gnorm > limit:
        problems.append(f"||grad||_inf {gnorm:.3e} exceeds {limit:.3e}")
    return problems


def existence_verdict(case: Case) -> ExistenceVerdict:
    """The library's own existence verdict for a fast-path case."""
    if case.kind == "quartic":
        qi = quartic.QuarticInstance.from_problem(case.data)
        return quartic.existence_check(qi.spectral(), qi.alpha, qi.c)
    can = minimax.smooth_and_canonicalize(case.data)
    return minimax.existence_check(can.spectral(), can.d, can.beta)


_EXPECTED_KIND = {
    ExistenceVerdict.UNCONDITIONAL: "certified",
    ExistenceVerdict.EXISTS: "certified",
    ExistenceVerdict.NOT_EXISTS: "no_critical_point",
    ExistenceVerdict.UNBOUNDED: "unbounded",
}


def classify(case: Case, seconds: float, result) -> Outcome:
    """Turn a returned report or a raised exception into a checked outcome."""
    if isinstance(result, BaseException):
        out = Outcome(case.label, case.kind, "failed", seconds)
        if isinstance(result, errors.HardCaseError):
            out.kind = "hard_case"
            out.detail = {k: float(v) for k, v in result.context.items()}
            out.iterations = int(result.context.get("iterations", 0))
        elif isinstance(result, errors.NoDualCriticalPointError):
            out.kind = "no_critical_point"
        elif isinstance(result, errors.UnboundedError):
            out.kind = "unbounded"
        if not isinstance(result, DOCUMENTED):
            out.failure = f"undocumented {type(result).__name__}: {result}"
    else:
        out = Outcome(case.label, case.kind,
                      "certified" if has_global_min(result) else "uncertified", seconds,
                      pairs=len(result.critical_pairs), iterations=int(result.iterations))
        check = _minimax_check if case.kind == "minimax" else _general_check
        for pair in result.critical_pairs:
            if pair.classification != Classification.GLOBAL_MIN:
                continue
            problems = check(case.data, pair)
            if problems:
                out.gate = out.failure = f"{case.label}: GLOBAL_MIN re-check: " + "; ".join(problems)
                out.kind = "failed"
                break

    if case.kind in ("quartic", "minimax") and out.failure is None:
        # a returned report carries the verdict the solve itself computed
        verdict = (existence_verdict(case) if isinstance(result, BaseException)
                   else result.existence_verdict)
        out.detail["verdict"] = verdict.name
        if _EXPECTED_KIND[verdict] != out.kind:
            out.failure = (f"{case.label}: existence_check says {verdict.name}, "
                           f"solve ended {out.kind}")
    if out.failure is not None:
        out.kind = "failed"
    return out


def reproduce_gate() -> list[str]:
    """The three reference benchmarks must still reproduce."""
    return [f"reproduce_example({i}) no longer matches its reference"
            for i in (1, 2, 3) if not reproduce_example(i).ok]

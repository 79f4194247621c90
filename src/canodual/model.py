"""Problem instances and solution records.

An instance bundles the data of the objective

    Pi(x) = 1/2 x'Ax - f'x
          + (1/beta) log[1 + sum_i exp(beta (1/2 x'Q_i x + d_i))]
          + sum_i (alpha_i/2) (1/2 x'B_i x + c_i)^2

with ``p`` log-sum-exp terms and ``r`` quartic terms, m = p + r >= 1.
Instances are immutable after validation and safe to share across threads.

JSON file format (all matrices row-major nested lists)::

    {
      "n": 2,
      "A": [[...], [...]],
      "f": [...],
      "lse": [{"Q": [[...]], "d": 0.0}, ...],
      "quartic": [{"B": [[...]], "c": -1.0, "alpha": 10.0}, ...],
      "beta": 1.0
    }

``lse`` and ``quartic`` may be omitted when empty; any unknown field is a
parse error.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Optional, Union

import numpy as np

from .errors import (
    EmptyModelError,
    InvalidModelError,
    NonPositiveParameterError,
    NonSymmetricError,
    ParseError,
)

SYMMETRY_TOL = 1e-12
EIGEN_CLUSTER_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class Region(enum.Enum):
    """Definiteness class of the shifted curvature matrix at a dual point."""

    SA_PLUS = "SA_PLUS"
    SA_MINUS = "SA_MINUS"
    INDEFINITE = "INDEFINITE"
    SINGULAR = "SINGULAR"


class Classification(enum.Enum):
    GLOBAL_MIN = "GLOBAL_MIN"
    LOCAL_MAX = "LOCAL_MAX"
    LOCAL_MIN = "LOCAL_MIN"
    SADDLE = "SADDLE"
    UNCLASSIFIED = "UNCLASSIFIED"


class ExistenceVerdict(enum.Enum):
    EXISTS = "EXISTS"
    NOT_EXISTS = "NOT_EXISTS"
    UNCONDITIONAL = "UNCONDITIONAL"
    UNBOUNDED = "UNBOUNDED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class LseTerm:
    Q: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "Q", _readonly(self.Q))
        object.__setattr__(self, "d", float(self.d))


@dataclass(frozen=True)
class QuarticTerm:
    B: np.ndarray
    c: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "B", _readonly(self.B))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class ProblemInstance:
    A: np.ndarray
    f: np.ndarray
    lse_terms: tuple[LseTerm, ...] = ()
    quartic_terms: tuple[QuarticTerm, ...] = ()
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(np.atleast_2d(self.A)))
        object.__setattr__(self, "f", _readonly(np.atleast_1d(self.f)))
        object.__setattr__(self, "lse_terms", tuple(self.lse_terms))
        object.__setattr__(self, "quartic_terms", tuple(self.quartic_terms))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return len(self.lse_terms)

    @property
    def r(self) -> int:
        return len(self.quartic_terms)

    @property
    def m(self) -> int:
        return self.p + self.r

    @cached_property
    def Q_stack(self) -> np.ndarray:
        if self.p == 0:
            return np.zeros((0, self.n, self.n))
        return _readonly(np.stack([t.Q for t in self.lse_terms]))

    @cached_property
    def d(self) -> np.ndarray:
        return _readonly([t.d for t in self.lse_terms])

    @cached_property
    def B_stack(self) -> np.ndarray:
        if self.r == 0:
            return np.zeros((0, self.n, self.n))
        return _readonly(np.stack([t.B for t in self.quartic_terms]))

    @cached_property
    def c(self) -> np.ndarray:
        return _readonly([t.c for t in self.quartic_terms])

    @cached_property
    def alpha(self) -> np.ndarray:
        return _readonly([t.alpha for t in self.quartic_terms])

    def curvature(self, tau: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """A + sum_i tau_i Q_i + sum_i sigma_i B_i: one row of :meth:`curvatures`."""
        z = np.concatenate([np.ravel(tau), np.ravel(sigma)]).astype(float)
        return self.curvatures(z[None])[0]

    def curvatures(self, Z: np.ndarray) -> np.ndarray:
        """G(zeta) for every row (tau, sigma) of Z (k, m), as a (k, n, n) stack.

        Each block product is a stacked matmul, so every row rounds as it
        would alone, where a 2-D dot over all rows does not.
        """
        k, n, p = len(Z), self.n, self.p
        G = self.A[None]
        if p:
            G = G + (Z[:, None, :p] @ self.Q_stack.reshape(p, n * n)).reshape(k, n, n)
        if self.r:
            G = G + (Z[:, None, p:] @ self.B_stack.reshape(self.r, n * n)).reshape(k, n, n)
        return G

    def allclose(self, other: "ProblemInstance", tol: float = 1e-15) -> bool:
        if (self.n, self.p, self.r) != (other.n, other.p, other.r):
            return False
        pairs = [(self.A, other.A), (self.f, other.f), (self.d, other.d),
                 (self.c, other.c), (self.alpha, other.alpha),
                 (self.Q_stack, other.Q_stack), (self.B_stack, other.B_stack),
                 (np.array([self.beta]), np.array([other.beta]))]
        return all(np.max(np.abs(a - b), initial=0.0) <= tol for a, b in pairs)


@dataclass(frozen=True)
class DualPoint:
    """Dual variables zeta = (tau, sigma).

    Feasibility of the log-sum-exp block (tau > 0 componentwise and
    sum(tau) < 1) is not enforced at construction: points outside the open
    simplex are allowed for exploratory evaluation and are flagged via
    :meth:`tau_interior`.
    """

    tau: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", _readonly(np.atleast_1d(np.asarray(self.tau, dtype=float)).ravel()))
        object.__setattr__(self, "sigma", _readonly(np.atleast_1d(np.asarray(self.sigma, dtype=float)).ravel()))

    @property
    def p(self) -> int:
        return self.tau.size

    @property
    def r(self) -> int:
        return self.sigma.size

    def vector(self) -> np.ndarray:
        return np.concatenate([self.tau, self.sigma])

    @staticmethod
    def from_vector(vec: np.ndarray, p: int) -> "DualPoint":
        vec = np.asarray(vec, dtype=float).ravel()
        return DualPoint(tau=vec[:p], sigma=vec[p:])

    def tau_interior(self) -> bool:
        if self.p == 0:
            return True
        return bool(self.tau.min() > 0.0 and self.tau.sum() < 1.0)


@dataclass(frozen=True)
class CriticalPair:
    """A dual critical point paired with its recovered primal point.

    ``classification`` is the pair-level label from the triality analysis;
    ``primal_label`` / ``dual_label`` record the second-derivative verdicts
    of each side separately (the saddle cases tag the two sides differently).
    """

    x: np.ndarray
    zeta: DualPoint
    primal_value: float
    dual_value: float
    region: Region
    classification: Classification
    gap: float
    primal_label: Classification = Classification.UNCLASSIFIED
    dual_label: Classification = Classification.UNCLASSIFIED
    residual: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.atleast_1d(self.x)))

    def as_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "tau": [float(v) for v in self.zeta.tau],
            "sigma": [float(v) for v in self.zeta.sigma],
            "primal_value": float(self.primal_value),
            "dual_value": float(self.dual_value),
            "gap": float(self.gap),
            "region": self.region.value,
            "classification": self.classification.value,
        }


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric matrix with the rotated load.

    ``lambdas`` is nondecreasing, ``k`` is the (maximal) multiplicity of the
    smallest eigenvalue under a relative cluster threshold, and
    ``f_hat = U' f``.
    """

    lambdas: np.ndarray
    U: np.ndarray
    f_hat: np.ndarray
    k: int

    @staticmethod
    def from_matrix(A: np.ndarray, f: np.ndarray) -> "SpectralData":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        f = np.atleast_1d(np.asarray(f, dtype=float))
        lam, U = np.linalg.eigh(A)
        gap = EIGEN_CLUSTER_TOL * (1.0 + abs(lam[0]))
        k = int(np.count_nonzero(lam - lam[0] <= gap))
        return SpectralData(lambdas=_readonly(lam), U=_readonly(U),
                            f_hat=_readonly(U.T @ f), k=k)


@dataclass
class SolveReport:
    """Solver outcome: critical pairs plus trace data."""

    critical_pairs: list = field(default_factory=list)
    existence_verdict: ExistenceVerdict = ExistenceVerdict.NOT_APPLICABLE
    iterations: int = 0
    residual_norm: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def best(self) -> Optional[CriticalPair]:
        return self.critical_pairs[0] if self.critical_pairs else None

    def as_dict(self, status: str = "OK") -> dict:
        return {
            "status": status,
            "critical_pairs": [p.as_dict() for p in self.critical_pairs],
            "existence_verdict": self.existence_verdict.value,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# validation

def _check_finite(name: str, a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise InvalidModelError(f"non-finite entries in {name}")


def _symmetrized(name: str, M: np.ndarray, n: int) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (n, n):
        raise InvalidModelError(f"{name} must be {n}x{n}", shape=M.shape)
    _check_finite(name, M)
    skew = float(np.max(np.abs(M - M.T), initial=0.0))
    if skew > SYMMETRY_TOL:
        raise NonSymmetricError(f"{name} is not symmetric", max_asymmetry=skew)
    half = 0.5 * M  # halved before the sum, which then cannot overflow
    return half + half.T


def validate(raw: ProblemInstance) -> ProblemInstance:
    """Check invariants and return a normalized instance.

    Matrices with asymmetry within ``SYMMETRY_TOL`` are replaced by their
    symmetric part; anything larger is an error, since silently repairing a
    large asymmetry would hide modeling bugs. Idempotent.
    """
    n = raw.n
    if n < 1:
        raise InvalidModelError("dimension must be positive", n=n)
    if raw.f.shape != (n,):
        raise InvalidModelError("f must be an n-vector", n=n, shape=raw.f.shape)
    _check_finite("f", raw.f)
    A = _symmetrized("A", raw.A, n)
    if raw.p + raw.r == 0:
        raise EmptyModelError("need at least one log-sum-exp or quartic term")
    if not (math.isfinite(raw.beta) and raw.beta > 0):
        raise NonPositiveParameterError("beta must be positive", beta=raw.beta)
    lse = []
    for i, t in enumerate(raw.lse_terms):
        if not math.isfinite(t.d):
            raise InvalidModelError(f"non-finite d in lse[{i}]")
        lse.append(LseTerm(Q=_symmetrized(f"lse[{i}].Q", t.Q, n), d=t.d))
    quartic = []
    for i, t in enumerate(raw.quartic_terms):
        if not (math.isfinite(t.alpha) and t.alpha > 0):
            raise NonPositiveParameterError(
                f"alpha must be positive in quartic[{i}]", alpha=t.alpha)
        if not math.isfinite(t.c):
            raise InvalidModelError(f"non-finite c in quartic[{i}]")
        quartic.append(QuarticTerm(B=_symmetrized(f"quartic[{i}].B", t.B, n),
                                   c=t.c, alpha=t.alpha))
    return ProblemInstance(A=A, f=raw.f, lse_terms=tuple(lse),
                           quartic_terms=tuple(quartic), beta=raw.beta)


# ---------------------------------------------------------------------------
# JSON I/O

_TOP_FIELDS = {"n", "A", "f", "lse", "quartic", "beta"}


def _as_matrix(obj, n: int, where: str) -> np.ndarray:
    try:
        M = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: not a numeric matrix") from exc
    if M.shape != (n, n):
        raise ParseError(f"{where}: expected shape {n}x{n}", shape=M.shape)
    return M


def parse_problem(source: Union[str, IO[str]]) -> ProblemInstance:
    """Parse a problem file (JSON text or open stream) into a validated
    instance."""
    text = source.read() if hasattr(source, "read") else source
    if not text or not text.strip():
        raise ParseError("empty problem file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for req in ("n", "A", "f", "beta"):
        if req not in doc:
            raise ParseError(f"missing required field '{req}'")
    if not isinstance(doc["n"], int) or isinstance(doc["n"], bool) or doc["n"] < 1:
        raise ParseError("'n' must be a positive integer", n=doc["n"])
    n = doc["n"]
    A = _as_matrix(doc["A"], n, "A")
    try:
        f = np.array(doc["f"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError("'f' is not a numeric vector") from exc
    if f.shape != (n,):
        raise ParseError(f"'f' must have length {n}", shape=f.shape)

    lse = []
    for i, item in enumerate(doc.get("lse", [])):
        if not isinstance(item, dict) or set(item) != {"Q", "d"}:
            raise ParseError(f"lse[{i}] must be an object with fields Q, d")
        try:
            d = float(item["d"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"lse[{i}].d is not a number") from exc
        lse.append(LseTerm(Q=_as_matrix(item["Q"], n, f"lse[{i}].Q"), d=d))
    quartic = []
    for i, item in enumerate(doc.get("quartic", [])):
        if not isinstance(item, dict) or set(item) != {"B", "c", "alpha"}:
            raise ParseError(f"quartic[{i}] must be an object with fields B, c, alpha")
        try:
            c = float(item["c"])
            alpha = float(item["alpha"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"quartic[{i}]: c/alpha must be numbers") from exc
        quartic.append(QuarticTerm(B=_as_matrix(item["B"], n, f"quartic[{i}].B"),
                                   c=c, alpha=alpha))
    try:
        beta = float(doc["beta"])
    except (TypeError, ValueError) as exc:
        raise ParseError("'beta' is not a number") from exc

    raw = ProblemInstance(A=A, f=f, lse_terms=tuple(lse),
                          quartic_terms=tuple(quartic), beta=beta)
    return validate(raw)


def serialize_problem(inst: ProblemInstance) -> str:
    """Serialize to the JSON problem format; round-trips through
    :func:`parse_problem` exactly."""
    doc = {
        "n": inst.n,
        "A": inst.A.tolist(),
        "f": inst.f.tolist(),
        "lse": [{"Q": t.Q.tolist(), "d": t.d} for t in inst.lse_terms],
        "quartic": [{"B": t.B.tolist(), "c": t.c, "alpha": t.alpha}
                    for t in inst.quartic_terms],
        "beta": inst.beta,
    }
    return json.dumps(doc, indent=2)

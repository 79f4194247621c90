"""Span tracer for the traced benchmark run.

Wraps the public functions of each layer at the name its caller looks up
(a module attribute, read at call time) and records one span per call:
name, start, end, parent span and instance id. Spans stay in flat arrays
in memory and are written once, at the end of the run. Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _batch_n(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


def _eigh_flops(a, *_, **__):
    # tridiagonal reduction plus eigenvectors by divide and conquer
    batch, n = _batch_n(a)
    return batch * 9.0 * n ** 3


def _eigvalsh_flops(a, *_, **__):
    batch, n = _batch_n(a)
    return batch * (4.0 / 3.0) * n ** 3


def _solve_flops(a, b, *_, **__):
    batch, n = _batch_n(a)
    rhs = np.size(b) // max(batch * n, 1)
    return batch * ((2.0 / 3.0) * n ** 3 + 2.0 * n ** 2 * rhs)


def traced_targets():
    """(owner, attribute, span name, flop model) for every wrapped function.

    ``canodual.dual.measure_jacobian`` is the primal function imported into
    ``dual`` by name, so it is wrapped at both names under one span name;
    ``canodual.minimax.make_pair`` is the solver function imported into
    ``minimax`` and keeps its own span name.
    """
    from canodual import dual, minimax, primal, quartic, solver
    from canodual.model import SpectralData
    from canodual.quartic import QuarticInstance

    targets = [(np.linalg, "eigh", "linalg.eigh", _eigh_flops),
               (np.linalg, "eigvalsh", "linalg.eigvalsh", _eigvalsh_flops),
               (np.linalg, "solve", "linalg.solve", _solve_flops),
               (SpectralData, "from_matrix", "model.spectral", None)]
    for name in ("assemble", "eval_dual", "grad_dual", "hess_dual", "conjugate_lse",
                 "conjugate_quartic", "dual_weight_inverse"):
        targets.append((dual, name, f"dual.{name}", None))
    targets.append((dual, "measure_jacobian", "primal.measure_jacobian", None))
    for name in ("canonical_measure", "eval_lse", "eval_quartic", "eval_primal",
                 "duality_map", "measure_jacobian", "weight_hessian", "grad_primal",
                 "hess_primal"):
        targets.append((primal, name, f"primal.{name}", None))
    for name in ("find_critical_points", "solve_global", "make_pair", "triality_classify"):
        targets.append((solver, name, f"solver.{name}", None))
    for name in ("solve", "secular_derivative", "secular_second_derivative",
                 "dual_value", "existence_check"):
        targets.append((quartic, name, f"quartic.{name}", None))
    targets.append((QuarticInstance, "from_problem", "quartic.from_problem", None))
    for name in ("solve", "smooth_and_canonicalize", "validate_minimax",
                 "dual_derivative", "existence_check", "make_pair"):
        targets.append((minimax, name, f"minimax.{name}", None))
    return targets


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.flops = 0.0
        self.instance = -1
        self._name = array("H")
        self._parent = array("q")
        self._inst = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, flops=None):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = len(self._start)
            self._start.append(t0)
            self._end.append(0.0)
            self._name.append(nid)
            self._parent.append(stack[-1][0] if stack else -1)
            self._inst.append(self.instance)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if flops is not None:
                    self.flops += flops(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        wrappers = {}
        try:
            for owner, attr, name, flops in traced_targets():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                key = (id(fn), name)
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, fn, flops)
                wrapped = wrappers[key]
                setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                        else wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a span name; zeros when never wrapped."""
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def layer_entry_seconds(self, layer: str) -> float:
        """Total duration of the spans of ``layer`` not nested in another
        span of the same layer (the time spent inside the layer)."""
        if not self._start:
            return 0.0
        layers = np.array([n.split(".", 1)[0] for n in self.names])
        name = np.frombuffer(self._name, dtype=np.uint16)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        own = layers[name] == layer
        parent_layer = np.where(parent >= 0, layers[name[np.maximum(parent, 0)]], "")
        return float(dur[own & (parent_layer != layer)].sum())

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self._name, dtype=np.uint16),
                            parent=np.frombuffer(self._parent, dtype=np.int64),
                            instance=np.frombuffer(self._inst, dtype=np.int64),
                            start=np.frombuffer(self._start),
                            end=np.frombuffer(self._end))

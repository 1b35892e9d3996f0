"""Thread-aware spans and counters around fykit's module boundaries.

The traced run wraps public functions of each fykit module from outside the
package. fykit modules import names directly (``fykit.cli`` holds its own
binding of ``solve_fourbody_ground_state``, ``fykit.yakubovsky`` its own
``shift_invert_eigenpair``), so installing a wrapper rebinds the name in every
fykit module that holds the original. The scipy kernels are wrapped on the
module objects the package calls through (``scipy.linalg``,
``scipy.sparse.linalg``). Nothing in the package is edited.

Each thread keeps its own span stack, so spans opened by the worker threads
of ``fy hardcore3`` attach to the case root instead of to whatever span
another thread has open.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    thread: int
    case: Optional[int]
    parent: Optional[int]
    end: float = 0.0
    error: Optional[str] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one case is traced at a time.

    A span opened on a thread whose own stack is empty is a child of the
    current case root (the outermost span of the case), which is how work
    handed to a thread pool stays attributed to the case that caused it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.case: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Optional[Span] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else self._root
            span = Span(
                id=len(self.spans),
                name=name,
                start=time.perf_counter(),
                thread=threading.get_ident(),
                case=self.case,
                parent=None if parent is None else parent.id,
            )
            self.spans.append(span)
            if parent is None:
                self._root = span
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            if self._root is span:
                self._root = None

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(counts, args, result)`` records counts.

        Counting runs in its own ``trace.count`` span after the call, so its
        cost is tracing overhead and is not charged to the wrapped layer or
        to its parent's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if count is not None:
                counting = self.open(COUNT_SPAN)
                try:
                    count(span.counts, args, result)
                finally:
                    self.close(counting)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children on other threads may overlap each other, so the covered part is
    the length of the union of the child intervals, clipped to the span.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


# ----------------------------------------------------------------------
# what the traced run wraps

FUNCTIONS = {
    "blockops": ("shift_invert_eigenpair", "dense_eigenvalues", "linear_solve"),
    "lattice": ("hamiltonian_terms", "build_hamiltonian", "dense_oracle_spectrum"),
    "faddeev": (
        "assemble_faddeev_operator",
        "faddeev_components",
        "faddeev_residual",
        "lippmann_schwinger_residual",
    ),
    "yakubovsky": (
        "assemble_yakubovsky_operator",
        "solve_fourbody_ground_state",
        "yakubovsky_residual",
        "chain_sum_consistency",
    ),
    "hardcore": (
        "assemble_hardcore3_pencil",
        "restricted_oracle",
        "restricted_space",
        "solve_hardcore3",
    ),
    "cli": ("main",),
}
SCIPY_KERNELS = {
    "scipy.sparse.linalg": ("splu",),
    "scipy.linalg": ("lu_factor", "eigh", "eigvals", "eigvalsh"),
}


def _count_eigen(counts, args, result):
    counts["iterations"] = result.iterations
    counts["factorizations"] = result.factorizations
    counts["shifts"] = len(result.shift_history)


def _count_splu(counts, args, result):
    counts["input_nnz"] = int(args[0].nnz)
    counts["fill_nnz"] = int(result.L.nnz + result.U.nnz)


def _count_flatten(counts, args, result):
    counts["kind"] = result.kind
    counts["dim"] = int(result.dim)


def _count_hardcore(counts, args, result):
    counts["physical"] = int(bool(result.physical))


COUNTERS = {
    "blockops.shift_invert_eigenpair": _count_eigen,
    "kernel.splu": _count_splu,
    "blockops.flatten": _count_flatten,
    "hardcore.solve_hardcore3": _count_hardcore,
}


class Hooks:
    """Installs the wrappers and restores every original binding on removal."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"fykit.{name}")
            for name in ("blockops", "lattice", "combinatorics", "faddeev",
                         "yakubovsky", "hardcore", "cli")
        }
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                span = f"{layer}.{fname}"
                wrapper = self.tracer.wrap(span, original, COUNTERS.get(span))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        block = modules["blockops"].BlockOperator
        self._rebind(block, "flatten",
                     self.tracer.wrap("blockops.flatten", block.flatten, _count_flatten))
        for modname, names in SCIPY_KERNELS.items():
            module = importlib.import_module(modname)
            for fname in names:
                span = f"kernel.{fname}"
                self._rebind(module, fname,
                             self.tracer.wrap(span, getattr(module, fname), COUNTERS.get(span)))

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-case layer metrics

# Each name is "<span>.<statistic>": "s" is inclusive time summed over the
# case, "self_s" self time, "calls" the number of spans, "errors" the spans
# left by an exception, anything else a count recorded on the span.
SPAN_METRICS = (
    "kernel.splu.s",
    "kernel.splu.calls",
    "kernel.lu_factor.s",
    "kernel.lu_factor.calls",
    "blockops.shift_invert_eigenpair.s",
    "blockops.shift_invert_eigenpair.self_s",
    "blockops.shift_invert_eigenpair.iterations",
    "blockops.shift_invert_eigenpair.factorizations",
    "blockops.shift_invert_eigenpair.errors",
    "blockops.flatten.s",
    "blockops.flatten.calls",
    "blockops.dense_eigenvalues.s",
    "blockops.dense_eigenvalues.calls",
    "kernel.eigvals.s",
    "kernel.eigvalsh.s",
    "blockops.linear_solve.s",
    "blockops.linear_solve.calls",
    "lattice.hamiltonian_terms.s",
    "lattice.hamiltonian_terms.calls",
    "lattice.build_hamiltonian.s",
    "lattice.build_hamiltonian.calls",
    "lattice.dense_oracle_spectrum.s",
    "lattice.dense_oracle_spectrum.calls",
    "kernel.eigh.s",
    "kernel.eigh.calls",
    "faddeev.assemble_faddeev_operator.s",
    "faddeev.faddeev_components.s",
    "faddeev.faddeev_residual.s",
    "faddeev.lippmann_schwinger_residual.s",
    "yakubovsky.assemble_yakubovsky_operator.s",
    "yakubovsky.solve_fourbody_ground_state.self_s",
    "yakubovsky.yakubovsky_residual.s",
    "yakubovsky.chain_sum_consistency.s",
    "hardcore.assemble_hardcore3_pencil.s",
    "hardcore.restricted_oracle.s",
    "hardcore.restricted_oracle.calls",
    "hardcore.restricted_space.s",
    "hardcore.solve_hardcore3.self_s",
    "cli.main.s",
    "cli.self_s",  # self time of the cli.main span
)


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    p = span.parent
    while p is not None:
        if by_id[p].name == name:
            return True
        p = by_id[p].parent
    return False


def case_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced case from its spans.

    Inclusive times leave out the counting done inside them, which is
    tracing overhead, so ``s`` and ``self_s`` both measure the layer's work.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    counting = {}
    for s in spans:
        if s.name == COUNT_SPAN:
            p = s.parent
            while p is not None:
                counting[p] = counting.get(p, 0.0) + s.duration
                p = by_id[p].parent
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def stat(name, what):
        group = by_name.get(name, [])
        if what == "s":
            return sum(s.duration - counting.get(s.id, 0.0) for s in group)
        if what == "self_s":
            return sum(own[s.id] for s in group)
        if what == "calls":
            return len(group)
        if what == "errors":
            return sum(1 for s in group if s.error is not None)
        return sum(s.counts.get(what, 0) for s in group)

    out = {}
    for metric in SPAN_METRICS:
        name, what = metric.rsplit(".", 1)
        out[metric] = float(stat("cli.main" if name == "cli" else name, what))
    factored = [s for s in by_name.get("kernel.splu", []) if s.counts]
    for key in ("input_nnz", "fill_nnz"):  # per factorization
        out[f"kernel.splu.{key}"] = (
            statistics.fmean(s.counts[key] for s in factored) if factored else 0.0
        )
    flat = by_name.get("blockops.flatten", [])
    out["blockops.flatten.dense_calls"] = float(sum(s.counts.get("kind") == "dense" for s in flat))
    out["blockops.flatten.sparse_calls"] = float(sum(s.counts.get("kind") == "sparse" for s in flat))
    out["blockops.flatten.dim_max"] = float(max((s.counts.get("dim", 0) for s in flat), default=0))
    solves = by_name.get("blockops.shift_invert_eigenpair", [])
    facts = sum(s.counts.get("factorizations", 0) for s in solves)
    out["blockops.useful_factorization_ratio"] = (
        sum(1 for s in solves if s.error is None) / facts if facts else 0.0
    )
    out["yakubovsky.channel_check.s"] = sum(
        s.duration - counting.get(s.id, 0.0)
        for s in by_name.get("blockops.dense_eigenvalues", [])
        if _has_ancestor(s, "yakubovsky.solve_fourbody_ground_state", by_id)
    )
    hard = by_name.get("hardcore.solve_hardcore3", [])
    out["hardcore.physical_ratio"] = (
        sum(s.counts.get("physical", 0) for s in hard) / len(hard) if hard else 0.0
    )
    return out


def layer_metrics(per_case: list[dict[str, float]]) -> dict[str, float]:
    """Mean over the traced cases, so a run that repeats every case equally
    often reports the same counts as a run that traced each case once."""
    return {k: statistics.fmean(m[k] for m in per_case) for k in per_case[0]}

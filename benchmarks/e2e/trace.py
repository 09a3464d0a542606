"""Span tracing for the benchmark's traced passes.

Wrappers go on the attributes that callers look up — module globals such
as ``repro.core.pipeline.iter_quotient_candidates`` and class attributes
such as ``HomEngine.hom_le`` — so the program runs unmodified and the
wrappers come off again when the traced pass ends.  Each wrapped call is a
span (name, start, end, parent, op id).  Spans are kept in memory and
folded online into per-name totals: inclusive seconds, and *self* seconds,
a span's duration minus the part of it its child spans cover.  A layer
table is the self seconds per span name plus an ``unaccounted`` row, so it
sums to the traced wall time.  Generator functions are traced per
``next()``, which charges each stage-1 candidate to the generator and not
to its consumer.  Stacks are per thread; the op id is set by the
benchmark, which drives one op at a time, so spans on server threads
still land on the right op.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Any, Iterable

#: Individual span records kept for ``trace.jsonl``; beyond this many only
#: the per-name totals grow (they are exact either way).
SPAN_RECORD_CAP = 200_000


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()
        self.op: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        #: op id -> span name -> (inclusive seconds, self seconds)
        self.per_op: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0])
        )
        self.records: list[tuple] = []
        self.dropped = 0

    # ------------------------------------------------------------- spans

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        name, start, covered = stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        own = duration - covered
        op = self.op
        with self._lock:
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.exclusive[name] += own
            if op is not None:
                entry = self.per_op[op][name]
                entry[0] += duration
                entry[1] += own
            if len(self.records) < SPAN_RECORD_CAP:
                self.records.append(
                    (name, start, end, parent[0] if parent else None, op)
                )
            else:
                self.dropped += 1

    # ----------------------------------------------------------- patching

    def wrap(self, fn, name: str):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                tracer.enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit()

            return traced_coroutine
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(tracer, name, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until restore."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name))
        self._patches.append((owner, attribute, original))

    def patch_all(self, targets: Iterable[tuple[Any, str, str]]) -> None:
        for owner, attribute, name in targets:
            self.patch(owner, attribute, name)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------ reports

    def layer_rows(self, wall: float) -> list[tuple[str, float]]:
        """Self seconds per span name, largest first, plus ``unaccounted``."""
        rows = sorted(self.exclusive.items(), key=lambda item: -item[1])
        accounted = sum(seconds for _, seconds in rows)
        return rows + [("unaccounted", wall - accounted)]

    def write_jsonl(self, path) -> None:
        """One summary line per span name, then the recorded spans."""
        with open(path, "w", encoding="utf-8") as handle:
            for name in sorted(self.calls):
                handle.write(
                    json.dumps(
                        {
                            "summary": name,
                            "calls": self.calls[name],
                            "inclusive_s": self.inclusive[name],
                            "self_s": self.exclusive[name],
                        }
                    )
                    + "\n"
                )
            if self.dropped:
                handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
            for name, start, end, parent, op in self.records:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class _TracedIterator:
    """A generator whose every ``next()`` is one span."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit()

    def close(self) -> None:
        self._inner.close()


def pipeline_targets() -> list[tuple[Any, str, str]]:
    """Layer boundaries of the approximation path (``repro.core``)."""
    import repro.core as core
    import repro.core.approximation as approximation
    import repro.core.pipeline as pipeline
    import repro.core.quotients as quotients
    import repro.homomorphism.cores as cores
    from repro.homomorphism.engine import HomEngine
    from repro.parallel import ProcessExecutor

    return [
        (core, "all_approximations", "core.approximation"),
        (core, "approximate", "core.approximation"),
        (approximation, "all_approximations", "core.approximation"),
        (approximation, "approximate", "core.approximation"),
        (approximation, "run_pipeline", "core.pipeline.driver"),
        (approximation, "core_tableau", "homomorphism.core"),
        (approximation, "minimize", "homomorphism.core"),
        (cores, "core_tableau", "homomorphism.core"),
        (pipeline, "iter_quotient_candidates", "core.quotients"),
        (pipeline, "iter_extended_candidates", "core.quotients"),
        (pipeline, "coarseness_buckets", "core.quotients"),
        (pipeline, "coarseness_ordered", "core.quotients"),
        (pipeline, "canonical_key_indexed", "homomorphism.canonical_key"),
        (quotients, "canonical_key_indexed", "homomorphism.canonical_key"),
        (pipeline.MembershipTester, "__call__", "core.classes"),
        (pipeline.Frontier, "resolve", "core.pipeline.frontier"),
        (pipeline.Frontier, "add", "core.pipeline.frontier"),
        (pipeline.Frontier, "absorbable", "core.pipeline.frontier"),
        (pipeline.Frontier, "restore_generation_order", "core.pipeline.frontier"),
        (pipeline.Frontier, "merge", "core.pipeline.merge"),
        (HomEngine, "hom_le", "homomorphism.hom_le"),
        (HomEngine, "hom_le_many", "homomorphism.hom_le"),
        (HomEngine, "canonical_key", "homomorphism.canonical_key"),
        (HomEngine, "canonical_key_many", "homomorphism.canonical_key"),
        (ProcessExecutor, "__init__", "parallel"),
        (ProcessExecutor, "imap", "parallel"),
        (ProcessExecutor, "close", "parallel"),
    ]


def evaluation_targets() -> list[tuple[Any, str, str]]:
    """Layer boundaries of query evaluation (``repro.evaluation``)."""
    import repro.evaluation as evaluation
    import repro.evaluation.engine as engine
    from repro.evaluation.columnar import ColumnarKernel

    return [
        (evaluation, "evaluate", "evaluation.plan"),
        (engine, "evaluate", "evaluation.plan"),
        (ColumnarKernel, "atom_bindings", "evaluation.scan"),
        (ColumnarKernel, "join", "evaluation.join"),
        (ColumnarKernel, "semijoin", "evaluation.semijoin"),
        (ColumnarKernel, "project", "evaluation.project"),
        (ColumnarKernel, "project_answer", "evaluation.project"),
        (ColumnarKernel, "product_extend", "evaluation.extend"),
    ]


def serve_targets() -> list[tuple[Any, str, str]]:
    """Layer boundaries of one serving daemon and its client."""
    import repro.serve.server as server
    from repro.serve.cache import ResultCache
    from repro.serve.client import ServeClient

    return [
        (ServeClient, "request", "serve.client"),
        (server.ApproximationServer, "_handle_line", "serve.request"),
        (server, "parse_request", "serve.decode"),
        (server, "parse_query", "cq.parse"),
        (server, "canonical_result_key", "serve.key"),
        (ResultCache, "get", "serve.cache_get"),
        (server, "canonical_representative", "serve.compute"),
        (server, "approximate", "serve.compute"),
        (server, "all_approximations", "serve.compute"),
        (ResultCache, "put", "serve.cache_put"),
        (server, "encode_message", "serve.encode"),
    ]


def format_layer_table(rows: list[tuple[str, float]], wall: float) -> str:
    lines = [f"{'layer (self time)':<32} {'seconds':>10} {'share':>7}"]
    for name, seconds in rows:
        share = seconds / wall if wall else 0.0
        lines.append(f"{name:<32} {seconds:>10.4f} {share:>7.1%}")
    lines.append(f"{'traced wall':<32} {wall:>10.4f} {1:>7.1%}")
    return "\n".join(lines)

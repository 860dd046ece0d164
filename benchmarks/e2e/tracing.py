"""Benchmark-owned spans: a flat in-memory span table, the timing proxy
set on ``decoder.kernel.backend``, and the method wrappers the traced
pass installs.  Nothing here is imported by ``src/``; spans inside the
program are a later issue (ROADMAP item 2)."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.decoder.backends import KernelBackend

#: The ``KernelBackend`` operations the proxy times, by protocol name.
BACKEND_OPS = (
    "csr_gather",
    "segment_best",
    "expand_frame",
    "expand_closure",
    "expand_fused",
    "trace_reachable",
)
#: Ops whose first output is the gathered arc-row index array.
_GATHERING_OPS = frozenset(
    ("csr_gather", "expand_frame", "expand_closure", "expand_fused")
)


class Tracer:
    """Spans as flat parallel arrays: name id, start, end, parent, session.

    Spans nest by call order on the one driver thread, so the parent of a
    span is whatever span was open when it began.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.session: List[int] = []
        self._open: List[int] = []

    def begin(self, name: str, session: int = -1) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._open[-1] if self._open else -1)
        self.session.append(session)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self._clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self._clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, session: int = -1) -> Iterator[None]:
        index = self.begin(name, session)
        try:
            yield
        finally:
            self.finish(index)

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             session: int = -1) -> Any:
        """``fn(*args)`` inside a span."""
        index = self.begin(name, session)
        try:
            return fn(*args)
        finally:
            self.finish(index)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: ``(count, inclusive seconds, self seconds)``.

        Self time is a span's duration minus the part of it its child
        spans cover.
        """
        self_s = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_s[parent] -= self.end[index] - self.start[index]
        out: Dict[str, List[float]] = {}
        for index, ident in enumerate(self.name_id):
            row = out.setdefault(self.names[ident], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.end[index] - self.start[index]
            row[2] += self_s[index]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def inclusive_under(self, name: str, parent_name: str) -> float:
        """Inclusive seconds of ``name`` spans whose parent is a
        ``parent_name`` span."""
        want = self._name_ids.get(name)
        under = self._name_ids.get(parent_name)
        if want is None or under is None:
            return 0.0
        return sum(
            self.end[i] - self.start[i]
            for i, ident in enumerate(self.name_id)
            if ident == want and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == under
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "session": self.session,
                },
                fh,
            )


class NullTracer:
    """The untraced pass: same surface, no clock reads, no records."""

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             session: int = -1) -> Any:
        return fn(*args)

    @contextmanager
    def span(self, name: str, session: int = -1) -> Iterator[None]:
        yield


def layer_table(
    tracer: Tracer, root: str, layers: Dict[str, str]
) -> Tuple[List[Tuple[str, int, float]], float, float]:
    """Fold span self-times into layer rows.

    ``layers`` maps a span name to the row it is reported under; the
    ``root`` span is the timed wall.  Returns ``(rows, wall_s,
    residual_share)`` where a row is ``(layer, spans, self seconds)`` and
    the residual is the wall no row covers -- the root's own self time
    plus spans no layer claims.
    """
    totals = tracer.totals()
    wall = totals.get(root, (0, 0.0, 0.0))[1]
    rows: Dict[str, List[float]] = {}
    covered = 0.0
    for name, (count, _inclusive, self_s) in totals.items():
        layer = layers.get(name)
        if layer is None:
            continue
        row = rows.setdefault(layer, [0, 0.0])
        row[0] += count
        row[1] += self_s
        covered += self_s
    residual = (wall - covered) / wall if wall > 0 else 0.0
    ordered = sorted(rows.items(), key=lambda kv: -kv[1][1])
    return [(k, int(v[0]), v[1]) for k, v in ordered], wall, residual


def format_layer_table(
    rows: List[Tuple[str, int, float]], wall: float, residual: float
) -> str:
    lines = [f"{'layer':<28}{'spans':>9}{'self s':>11}{'share':>8}"]
    for layer, count, self_s in rows:
        share = self_s / wall if wall > 0 else 0.0
        lines.append(f"{layer:<28}{count:>9}{self_s:>11.4f}{share:>8.1%}")
    lines.append(f"{'(residual)':<28}{'':>9}{residual * wall:>11.4f}{residual:>8.1%}")
    lines.append(f"{'wall':<28}{'':>9}{wall:>11.4f}{1:>8.1%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Proxies and wrappers installed by the traced pass
# ----------------------------------------------------------------------
def _timed_op(op: str) -> Callable[..., Any]:
    span_name = "backend." + op
    gathers = op in _GATHERING_OPS

    def method(self: "TimingBackend", *args: Any) -> Any:
        index = self._tracer.begin(span_name)
        try:
            out = getattr(self._inner, op)(*args)
        finally:
            self._tracer.finish(index)
        if gathers:
            self.rows_gathered += len(out[0])
        return out

    method.__name__ = op
    return method


class TimingBackend(KernelBackend):
    """A ``KernelBackend`` that forwards every op to ``inner`` inside a
    span.  Outputs pass through untouched, so a decode through the proxy
    is bit-identical to one without it."""

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.rows_gathered = 0


for _op in BACKEND_OPS:
    setattr(TimingBackend, _op, _timed_op(_op))


def wrap_method(obj: Any, attr: str, tracer: Tracer, span_name: str) -> Callable[[], None]:
    """Replace ``obj.attr`` with a span-recording wrapper; returns the
    function that restores the original."""
    original = getattr(obj, attr)
    had_own = attr in getattr(obj, "__dict__", {})

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(span_name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.finish(index)

    setattr(obj, attr, wrapper)

    def restore() -> None:
        if had_own:
            setattr(obj, attr, original)
        else:
            delattr(obj, attr)

    return restore

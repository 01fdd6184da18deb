"""In-memory span recorder and the wrappers that feed it.

Spans are recorded by the benchmark around calls into each layer's
public functions; nothing inside ``src/`` is traced.  :func:`instrument`
swaps the wrappers in for the traced phase and restores the originals on
exit, so an untraced run executes the program's own code objects.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str  # shared by every span of one operation
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; single-threaded, like the benchmark."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = "none"

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                 self.op, attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op: str):
        """Tag every span opened inside with the operation id ``op``."""
        prev, self.op = self.op, op
        try:
            yield
        finally:
            self.op = prev

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children of one parent may overlap (they never do in a single
    thread, but the arithmetic does not assume it): the covered part is
    the union of their intervals clipped to the parent.
    """
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(kids.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


def _wrap(rec: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as s:
            out = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs.update(attrs(out, *args, **kwargs))
            return out

    return wrapper


def _k(out, self, x, *a, **kw):
    return {"k": int(x.shape[1]) if x.ndim == 2 else 1, "nnz": int(self.nnz)}


def _nnz(out, self, *a, **kw):
    return {"nnz": int(self.nnz)}


def _iterations(out, *a, **kw):
    return {"iterations": int(np.max(out.iterations))}


def _targets():
    """(owner, attribute, span name, attribute extractor) per wrapped call."""
    from repro.apps import solvers
    from repro.core.tilespmv import TileSpMV
    from repro.dist import partition
    from repro.dist.procpool import ProcessShardedSpMV
    from repro.dist.sharded import ShardedSpMV
    from repro.reliability import validation
    from repro.reliability.abft import AbftChecksum
    from repro.reliability.reliable import ReliableSpMV
    from repro.serving.runtime import ServingRuntime

    return [
        (validation, "canonicalize_csr", "canonicalize", None),
        (partition, "partition_grid", "dist.partition", None),
        (TileSpMV, "__init__", "plan.build", _nnz),
        (TileSpMV, "spmv", "kernel.spmv", _k),
        (TileSpMV, "spmm", "kernel.spmm", _k),
        (TileSpMV, "update_values", "kernel.update", _nnz),
        (solvers, "conjugate_gradient", "solver.cg", _iterations),
        (solvers, "block_conjugate_gradient", "solver.block_cg", _iterations),
        (ReliableSpMV, "spmv", "abft.spmv", _k),
        (ReliableSpMV, "spmm", "abft.spmm", _k),
        (AbftChecksum, "verify", "abft.verify", None),
        (ServingRuntime, "offer", "serving.offer", None),
        (ServingRuntime, "flush", "serving.flush", None),
        (ShardedSpMV, "spmm", "dist.spmm", _k),
        (ProcessShardedSpMV, "spmm", "dist.spmm", _k),
        (ProcessShardedSpMV, "__init__", "procpool.spawn", None),
    ]


@contextmanager
def instrument(rec: Recorder):
    """Wrap each layer's public calls in spans for the ``with`` body.

    Module-level functions are also rebound in every loaded module that
    imported them by name, so ``from x import f`` call sites are traced.
    """
    saved = []
    for owner, attr, name, attrs in _targets():
        orig = owner.__dict__[attr]
        wrapped = _wrap(rec, name, orig, attrs)
        sites = [owner]
        if not isinstance(owner, type):
            sites += [m for m in list(sys.modules.values())
                      if m is not owner and getattr(m, attr, None) is orig]
        for site in sites:
            saved.append((site, attr, orig))
            setattr(site, attr, wrapped)
    try:
        yield rec
    finally:
        for site, attr, orig in reversed(saved):
            setattr(site, attr, orig)

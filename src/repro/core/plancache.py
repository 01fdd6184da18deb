"""Plan cache: amortise TileSpMV preprocessing across constructions.

The paper's preprocessing (tiling, per-tile format selection, payload
encoding, warp scheduling) is paid once and amortised over many SpMVs
(§III, Fig 11).  Iterative workloads push the same idea one level up:
a solver factors the *pattern* once and streams new values through it,
and a serving system sees the same matrices over and over.  The
:class:`PlanCache` is an LRU keyed by a **structural fingerprint** —
``(indptr, indices, tile, selection thresholds, tbalance)`` — holding
everything that depends on structure only:

* the :class:`~repro.core.tiling.TileSet` (tile decomposition),
* the ADPT format vector,
* the built :class:`~repro.core.storage.TileMatrix` payloads and the
  DeferredCOO split per strategy,
* the :class:`~repro.core.scheduler.WarpSchedule`.

A plan is a pattern: it holds the canonical ``indptr``/``indices``,
the shape and the value dtype, and what is built from them.  It holds
no values; each engine owns its values, in its operand.  A miss stores
the plan unbuilt: the artifacts above are built the first time an
engine on the plan prices or inspects it, once, and shared by every
engine on it.  A second ``TileSpMV`` construction with the same pattern
is a cache hit and never re-tiles, whatever its values: its operand
shares the plan's index arrays and owns its own ``data``.  A reader
that needs values (payloads, decodes, ``validate``) takes them from the
engine's operand when it reads.  Hit/miss/eviction counters are
exposed via :meth:`PlanCache.stats` / :meth:`describe` and surfaced by
the CLI and ``TileSpMV.describe``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.baselines.csr5 import Csr5SpMV
from repro.core.deferred import split_deferred_coo
from repro.core.kernels.params import KernelCostParams
from repro.core.scheduler import DEFAULT_TBALANCE, WarpSchedule, build_schedule
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import TileSet, tile_decompose
from repro.formats import FormatID
from repro.gpu.costmodel import RunCost

__all__ = [
    "PlanCache",
    "CachedPlan",
    "MethodPlan",
    "structural_fingerprint",
]


def structural_fingerprint(
    csr: sp.csr_matrix, tile: int, selection, tbalance: int, extra: str = ""
) -> str:
    """Digest of everything the preprocessing depends on except values.

    Two matrices with equal fingerprints produce byte-identical tile
    structure, format vectors and schedules, so their plans are
    interchangeable up to values.  The value *dtype* is part of the key:
    a float32 matrix does not share a plan with a float64 twin of the
    same pattern.  ``indptr`` and ``indices`` are hashed in place, each
    after a tag naming its dtype: the tag fixes how many bytes
    ``indptr`` spans (``m + 1`` items), so no pattern's bytes can read
    as another's in a different index dtype.  ``extra`` folds additional
    plan-shaping inputs into the key — the reorder tag and the per-tile
    format-override digest of a tuned plan — so a re-tuned plan never
    aliases the plan it was derived from (the serving layer keys
    circuit breakers and live-migration bookkeeping on this).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(
        np.array([csr.shape[0], csr.shape[1], tile, tbalance], dtype=np.int64).tobytes()
    )
    h.update(str(np.dtype(csr.dtype)).encode())
    h.update(repr(selection).encode())
    if extra:
        h.update(extra.encode())
    for arr in (csr.indptr, csr.indices):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr))  # read in place
    return h.hexdigest()


@dataclass
class MethodPlan:
    """Built artifacts for one resolved strategy of a plan.

    Structure only, like the plan: every product executes the engine's
    operand, the canonical CSR matrix of the plan's pattern.  For
    ``csr``/``adpt`` the tiled matrix covers all of it.  DeferredCOO
    prices two halves (the tiled matrix and the CSR5 layout) but
    executes the full matrix; ``extracted`` masks, in the operand's
    canonical order, the entries the CSR5 half holds — the tiled half
    holds the rest, in the same order — so a reader takes each half's
    values from the operand.  ``costs`` memoizes :meth:`run_cost` per
    pricing setting; no price reads a value.
    """

    method: str
    tiled: TileMatrix | None
    deferred: Csr5SpMV | None
    schedule: WarpSchedule | None
    extracted: np.ndarray | None = None
    costs: dict = field(default_factory=dict, repr=False)

    def run_cost(self, params: KernelCostParams, tbalance: int) -> RunCost:
        """Device-independent cost of one SpMV with these artifacts: the
        tiled kernel plus, for a DeferredCOO split, the CSR5 kernel.

        Priced once per ``(params, tbalance)``; each call returns a
        fresh copy, since callers set its ``label``.
        """
        cost = self.costs.get((params, tbalance))
        if cost is None:
            parts: list[RunCost] = []
            if self.tiled is not None:
                parts.append(self.tiled.run_cost(params, tbalance, schedule=self.schedule))
            if self.deferred is not None:
                parts.append(self.deferred.run_cost())
            cost = RunCost(label="TileSpMV(empty)") if not parts else parts[0]
            for p in parts[1:]:
                cost = cost + p
            self.costs[(params, tbalance)] = cost
        return replace(cost)


@dataclass
class CachedPlan:
    """Everything reusable across constructions sharing one pattern.

    A plan is stored unbuilt: ``indptr``/``indices`` are its canonical
    pattern (shared with the operand of the engine that stored it),
    ``shape``/``dtype`` the matrix's, and ``tile``/``selection``/
    ``tbalance``/``formats_override`` the build inputs the fingerprint
    covers.  The tile set, the ADPT format vector, the warp schedule and
    each strategy's :class:`MethodPlan` are built on first read
    (:meth:`cut_tiles`, :meth:`method`), once per plan, and shared by
    every engine on it.  No artifact holds a value.
    """

    key: str
    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple[int, int]
    dtype: np.dtype
    tile: int = 16
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    tbalance: int = DEFAULT_TBALANCE
    formats_override: np.ndarray | None = None  # a tuned format vector
    tileset: TileSet | None = None  # cut by the first build
    formats: np.ndarray | None = None  # ADPT selection vector (lazy)
    schedule: WarpSchedule | None = None  # full-tileset schedule (lazy)
    methods: dict = field(default_factory=dict)  # build method -> MethodPlan
    tilings_saved: int = 0  # constructions served without re-tiling

    # -- the build, on first read ------------------------------------------

    def cut_tiles(self, operand: sp.csr_matrix) -> float:
        """Cut the tile set once from ``operand``, an engine's matrix on
        the plan's pattern (the tile set keeps its index arrays, not its
        values); returns the seconds spent now."""
        if self.tileset is not None:
            return 0.0
        t0 = time.perf_counter()
        self.tileset = tile_decompose(operand, tile=self.tile, validation="trust")
        return time.perf_counter() - t0

    def _adpt_formats(self) -> np.ndarray:
        """The ADPT format vector, selected once per plan.

        A ``formats_override`` (an :class:`OnlineTuner
        <repro.tuning.OnlineTuner>` re-arbitration) replaces the
        flowchart's choice wholesale; its digest is part of the plan
        fingerprint, so the plan adopts it as *its* format vector
        without aliasing the flowchart-selected plan.
        """
        if self.formats is None:
            fo = self.formats_override
            if fo is None:
                self.formats = select_formats(self.tileset, self.selection)
            elif fo.size != self.tileset.n_tiles:
                raise ValueError(
                    f"formats_override has {fo.size} entries for "
                    f"{self.tileset.n_tiles} tiles"
                )
            else:
                self.formats = fo
        return self.formats

    def _full_schedule(self) -> WarpSchedule:
        """The full-tileset warp schedule, built once per plan."""
        if self.schedule is None:
            self.schedule = build_schedule(self.tileset.tile_ptr, self.tbalance)
        return self.schedule

    def method(self, name: str) -> tuple[MethodPlan, float]:
        """One strategy's artifacts on the cut tile set, built once.

        Returns ``(artifacts, seconds spent now)``: zero when the plan
        already held them (an earlier reader or the other ``auto``
        candidate).
        """
        mp = self.methods.get(name)
        if mp is not None:
            return mp, 0.0
        t0 = time.perf_counter()
        tileset = self.tileset
        if name in ("csr", "adpt"):
            formats = (
                np.full(tileset.n_tiles, FormatID.CSR, dtype=np.uint8)
                if name == "csr"
                else self._adpt_formats()
            )
            mp = MethodPlan(
                method=name,
                tiled=TileMatrix.build(tileset, formats),
                deferred=None,
                schedule=self._full_schedule(),
            )
        else:  # deferred_coo: reuse the shared selection, never re-select
            split = split_deferred_coo(tileset, self.selection, formats=self._adpt_formats())
            tiled = split.tiled
            mp = MethodPlan(
                method=name,
                tiled=tiled,
                deferred=split.deferred if split.deferred.nnz else None,
                schedule=(
                    build_schedule(tiled.tileset.tile_ptr, self.tbalance)
                    if tiled is not None
                    else None
                ),
                extracted=split.extracted,
            )
        self.methods[name] = mp
        return mp, time.perf_counter() - t0


class PlanCache:
    """LRU cache of :class:`CachedPlan` with hit/miss/eviction counters.

    Lookups, inserts and invalidations take an internal ``RLock`` so a
    sharded engine can prepare its per-shard plans from worker threads
    against one shared cache.  The lock covers the map and the counters,
    not plan construction: two threads missing on the same key, or
    first reading one unbuilt plan, may both build and the last write
    wins — wasted work, never corruption.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> CachedPlan | None:
        """Look up a plan; counts a hit or a miss and refreshes LRU order."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                if tele.ENABLED:
                    tele.count("plan_cache_misses_total")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            plan.tilings_saved += 1
            if tele.ENABLED:
                tele.count("plan_cache_hits_total")
            return plan

    def peek(self, key: str) -> CachedPlan | None:
        """Look up a plan without touching counters or the LRU order.

        The serving runtime's degradation ladder uses this to ask "could
        this request be served from an already-built plan?" while
        deciding a tier — an admission probe, not a service, so it must
        not inflate the hit rate or refresh recency.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, plan: CachedPlan) -> None:
        """Insert (or replace) a plan, evicting the least recently used."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if tele.ENABLED:
                    tele.count("plan_cache_evictions_total")
            if tele.ENABLED:
                tele.set_gauge("plan_cache_size", len(self._entries))

    def invalidate(self, key: str) -> bool:
        """Drop one plan — e.g. artifacts a checksum failure implicated.

        Returns whether the key was present.  The reliability layer's
        retry path calls this before re-preparing, so a corrupted cached
        payload cannot poison the fresh plan.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.invalidations += 1
            if tele.ENABLED:
                tele.count("plan_cache_invalidations_total")
                tele.set_gauge("plan_cache_size", len(self._entries))
            return True

    def clear(self) -> None:
        """Drop every plan; counters keep accumulating."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"PlanCache[{s['size']}/{s['capacity']} plans] "
            f"hits={s['hits']} misses={s['misses']} evictions={s['evictions']} "
            f"hit_rate={s['hit_rate']:.0%}"
        )

"""Public TileSpMV entry point.

The three strategies of §III.D, plus an ``auto`` mode implementing the
paper's observed switch point (ADPT below ~1.8M nonzeros, DeferredCOO
above):

* ``csr``           — TileSpMV_CSR: every tile stored as a CSR tile.
* ``adpt``          — TileSpMV_ADPT: per-tile format selection.
* ``deferred_coo``  — TileSpMV_DeferredCOO: ADPT + COO extraction to CSR5.
* ``auto``          — cost-model choice between the last two.

The paper picks between ADPT and DeferredCOO with a fixed nnz threshold
(1.8M) tuned on its hardware, where the extra kernel launch DeferredCOO
pays is negligible for large matrices.  Our ``auto`` makes the same
decision from first principles: it builds both representations and keeps
whichever the cost model predicts faster on ``auto_device`` — at this
reproduction's reduced matrix scale the crossover sits well below 1.8M,
and the modelled costs locate it per matrix instead of per fleet.
``AUTO_DEFERRED_NNZ`` preserves the paper's constant for reference.

Repeated-SpMV serving: pass a :class:`~repro.core.plancache.PlanCache`
to amortise preprocessing across constructions with the same sparsity
pattern, :meth:`TileSpMV.update_values` to stream new values through an
existing plan, and :meth:`TileSpMV.spmm` for batched multi-vector
products whose modelled cost (:meth:`TileSpMV.spmm_cost`) reflects the
k-column amortisation of the matrix payload traffic.

Example
-------
>>> import numpy as np, scipy.sparse as sp
>>> from repro import TileSpMV
>>> a = sp.random(256, 256, density=0.05, random_state=0, format="csr")
>>> engine = TileSpMV(a, method="adpt")
>>> x = np.ones(256)
>>> y = engine.spmv(x)
>>> np.allclose(y, a @ x)
True
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.baselines.csr5 import Csr5SpMV
from repro.core.deferred import split_deferred_coo
from repro.core.kernels.params import KernelCostParams
from repro.core.plancache import (
    CachedPlan,
    MethodPlan,
    PlanCache,
    canonical_csr,
    structural_fingerprint,
    value_digest,
)
from repro.matrices.reorder import ReorderPlan, build_reorder
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.core.scheduler import DEFAULT_TBALANCE, build_schedule
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix, csr_operand, refill_operand
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.gpu.costmodel import RunCost
from repro.gpu.device import A100, DeviceSpec

__all__ = ["TileSpMV", "tile_spmv", "METHODS", "AUTO_DEFERRED_NNZ"]

METHODS = ("csr", "adpt", "deferred_coo", "auto")
AUTO_DEFERRED_NNZ = 1_800_000  # the paper's observed crossover (Fig 6)


class TileSpMV:
    """A sparse matrix prepared for tiled SpMV.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix.
    method:
        One of :data:`METHODS`.
    tile:
        Tile edge length (paper: 16).
    selection:
        Thresholds for the ADPT flowchart.
    tbalance:
        Maximum tiles per warp (paper: 8).
    params:
        Kernel instruction-cost constants for the modelled timings.
    auto_device:
        Device whose cost model arbitrates ``method="auto"``.
    plan_cache:
        Optional :class:`~repro.core.plancache.PlanCache`.  When given,
        construction looks the matrix's structural fingerprint up first:
        a hit reuses the cached tile set, format vector, payloads and
        warp schedule (refilling values only if they changed), a miss
        stores the freshly built plan for the next construction.
    validation:
        :class:`~repro.reliability.validation.ValidationPolicy` for the
        input gate (default ``repair``: sort/merge/drop defects and
        record them in ``validation_report``; ``strict`` raises
        :class:`~repro.reliability.validation.MatrixValidationError`;
        ``trust`` skips inspection for known-canonical inputs).
    reorder:
        Optional plan-time reordering: a
        :class:`~repro.matrices.reorder.ReorderPlan`, a spec string
        (``"rcm"``, ``"sell:32"``, ``"cmrs:16/64"``, chains via ``+``)
        or a token list.  The plan is built on the permuted matrix;
        ``spmv``/``spmm``/``spmv_transpose`` accept and return vectors
        in the *original* index order (bit-for-bit equal to the
        unreordered plan for the row-only transforms under the
        single-half methods).  The reorder tag joins the structural
        fingerprint, so reordered plans never alias natural-order ones.
    formats_override:
        Optional per-tile format vector (uint8 ``FormatID`` values, one
        per occupied tile) replacing the ADPT flowchart's selection —
        the adoption hook for :class:`~repro.tuning.OnlineTuner`
        re-arbitration.  Its digest joins the structural fingerprint.

    Timing attributes: ``build_seconds`` covers tiling, selection and
    the kept representation's encode; ``arbitration_seconds`` covers the
    discarded ``auto`` candidate and the cost-model evaluations;
    ``preprocessing_seconds`` is exactly their sum.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        method: str = "adpt",
        tile: int = 16,
        selection: SelectionConfig | None = None,
        tbalance: int = DEFAULT_TBALANCE,
        params: KernelCostParams | None = None,
        auto_device: DeviceSpec | None = None,
        plan_cache: PlanCache | None = None,
        validation: ValidationPolicy | str = ValidationPolicy.REPAIR,
        reorder: ReorderPlan | str | list | None = None,
        formats_override: np.ndarray | None = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        self.method = method
        self.selection = selection or SelectionConfig()
        self.tbalance = tbalance
        self.params = params or KernelCostParams()
        self.plan_cache = plan_cache
        self.plan_key: str | None = None
        self.tiled: TileMatrix | None = None
        self.deferred_engine: Csr5SpMV | None = None
        # Per-half A.T operands in original coordinates, built on the
        # first spmv_transpose: [(half, slot map, operand), ...].
        self._t_ops: list | None = None
        self._schedule = None
        self._deferred_src: np.ndarray | None = None
        self._tiled_src: np.ndarray | None = None
        # Caller's canonical-CSR entry -> operand slot, per half, built
        # on the first update_values (see _operand_value_maps).
        self._value_src: tuple | None = None

        with tele.span("canonicalize", cat="build", policy=str(validation)):
            csr, self.validation_report = canonicalize_csr(matrix, validation)

        # Plan-time reordering: build on the permuted matrix, answer in
        # the caller's original index space (bit-for-bit for row-only
        # transforms — see docs/TUNING.md and the metamorphic suite).
        self.reorder: ReorderPlan | None = None
        self._orig_indptr: np.ndarray | None = None
        self._orig_indices: np.ndarray | None = None
        self._data_perm: np.ndarray | None = None
        if reorder is not None:
            rp = build_reorder(csr, reorder)
            with tele.span("reorder", cat="build", tag=rp.tag):
                self.reorder = rp
                self._orig_indptr, self._orig_indices = csr.indptr, csr.indices
                self._data_perm = rp.data_permutation(csr)
                csr = rp.apply(csr)

        self._formats_override: np.ndarray | None = None
        if formats_override is not None:
            self._formats_override = np.ascontiguousarray(
                formats_override, dtype=np.uint8
            )

        self._indptr = csr.indptr
        self._indices = csr.indices
        fp_extra = self._fingerprint_extra()
        plan = None
        if plan_cache is not None:
            self.plan_key = structural_fingerprint(
                csr, tile, self.selection, tbalance, extra=fp_extra
            )
            plan = plan_cache.get(self.plan_key)

        build_seconds = 0.0
        with tele.span("tile_build", cat="build", nnz=int(csr.nnz),
                       cached=plan is not None):
            if plan is None:
                t1 = time.perf_counter()
                tileset = tile_decompose(csr, tile=tile, validation="trust")
                build_seconds += time.perf_counter() - t1
                plan = CachedPlan(
                    key=self.plan_key or "",
                    tileset=tileset,
                    values_digest=value_digest(csr.data) if plan_cache is not None else "",
                )
                if plan_cache is not None:
                    plan_cache.put(self.plan_key, plan)
            elif plan.values_digest != value_digest(csr.data):
                # Same pattern, new numbers: refresh payload values in place
                # of re-tiling/re-selecting (the update_values fast path).
                t1 = time.perf_counter()
                plan.refresh_values(csr.data, value_digest(csr.data))
                build_seconds += time.perf_counter() - t1
            self._plan = plan
            self._shape = plan.tileset.m, plan.tileset.n
            self._nnz = plan.tileset.nnz

            arbitration_seconds = 0.0
            if method == "auto":
                with tele.span("arbitration", cat="build", nnz=int(csr.nnz)):
                    device = auto_device or A100
                    mp_adpt, s_adpt = self._ensure_method(plan, "adpt")
                    mp_def, s_def = self._ensure_method(plan, "deferred_coo")
                    t1 = time.perf_counter()
                    t_adpt = self._method_cost(mp_adpt).time(device)
                    t_def = self._method_cost(mp_def).time(device)
                    arbitration_eval = time.perf_counter() - t1
                    if t_adpt <= t_def:
                        kept, kept_seconds, discarded_seconds = mp_adpt, s_adpt, s_def
                        method = "adpt"
                    else:
                        kept, kept_seconds, discarded_seconds = mp_def, s_def, s_adpt
                        method = "deferred_coo"
                    build_seconds += kept_seconds
                    arbitration_seconds = discarded_seconds + arbitration_eval
            else:
                kept, kept_seconds = self._ensure_method(plan, method)
                build_seconds += kept_seconds
        self._adopt(kept)
        self.method = method
        self.build_seconds = build_seconds
        self.arbitration_seconds = arbitration_seconds
        self.preprocessing_seconds = build_seconds + arbitration_seconds
        if tele.ENABLED:
            tele.count("tilespmv_builds_total", method=method)

    # -- plan construction ---------------------------------------------------

    def _fingerprint_extra(self) -> str:
        """Reorder tag + format-override digest for the plan key.

        Both change what the built plan *is* without changing the input
        pattern, so they must be part of the structural fingerprint —
        a tuned candidate plan and its incumbent may share a matrix but
        never a cache slot or a circuit breaker.
        """
        parts = []
        if self.reorder is not None:
            parts.append(f"reorder={self.reorder.tag}")
        if self._formats_override is not None:
            digest = hashlib.blake2b(
                self._formats_override.tobytes(), digest_size=8
            ).hexdigest()
            parts.append(f"formats={digest}")
        return ";".join(parts)

    def _plan_formats(self, plan: CachedPlan) -> np.ndarray:
        """The ADPT format vector, selected once per plan.

        A ``formats_override`` (an :class:`OnlineTuner
        <repro.tuning.OnlineTuner>` re-arbitration) replaces the
        flowchart's choice wholesale; the override digest is part of the
        plan fingerprint, so the cached plan can adopt it as *its*
        format vector without aliasing the flowchart-selected plan.
        """
        if plan.formats is None:
            if self._formats_override is not None:
                fo = self._formats_override
                if fo.size != plan.tileset.n_tiles:
                    raise ValueError(
                        f"formats_override has {fo.size} entries for "
                        f"{plan.tileset.n_tiles} tiles"
                    )
                plan.formats = fo
            else:
                plan.formats = select_formats(plan.tileset, self.selection)
        return plan.formats

    def _plan_schedule(self, plan: CachedPlan):
        """The full-tileset warp schedule, built once per plan."""
        if plan.schedule is None:
            plan.schedule = build_schedule(plan.tileset.tile_ptr, self.tbalance)
        return plan.schedule

    def _ensure_method(self, plan: CachedPlan, name: str) -> tuple[MethodPlan, float]:
        """Fetch or build the artifacts for one strategy.

        Returns ``(artifacts, seconds_spent_now)`` — zero when the plan
        already held them (cache hit or the other ``auto`` candidate).
        """
        mp = plan.methods.get(name)
        if mp is not None:
            return mp, 0.0
        t1 = time.perf_counter()
        tileset = plan.tileset
        if name == "csr":
            formats = np.full(tileset.n_tiles, FormatID.CSR, dtype=np.uint8)
            mp = MethodPlan(
                method=name,
                tiled=TileMatrix.build(tileset, formats),
                deferred=None,
                schedule=self._plan_schedule(plan),
            )
        elif name == "adpt":
            mp = MethodPlan(
                method=name,
                tiled=TileMatrix.build(tileset, self._plan_formats(plan)),
                deferred=None,
                schedule=self._plan_schedule(plan),
            )
        else:  # deferred_coo: reuse the shared selection, never re-select
            split = split_deferred_coo(tileset, self.selection, formats=self._plan_formats(plan))
            mp = MethodPlan(
                method=name,
                tiled=split.tiled,
                deferred=(
                    Csr5SpMV(split.deferred, validation="trust")
                    if split.deferred.nnz
                    else None
                ),
                schedule=(
                    build_schedule(split.tiled.tileset.tile_ptr, self.tbalance)
                    if split.tiled is not None
                    else None
                ),
                deferred_src=split.deferred_src,
                tiled_src=split.tiled_src,
            )
        mp.build_seconds = time.perf_counter() - t1
        plan.methods[name] = mp
        return mp, mp.build_seconds

    def _method_cost(self, mp: MethodPlan) -> RunCost:
        """Device-independent cost of one SpMV with these artifacts."""
        parts: list[RunCost] = []
        if mp.tiled is not None:
            parts.append(mp.tiled.run_cost(self.params, self.tbalance, schedule=mp.schedule))
        if mp.deferred is not None:
            parts.append(mp.deferred.run_cost())
        if not parts:
            return RunCost(label="TileSpMV(empty)")
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return total

    def _adopt(self, mp: MethodPlan) -> None:
        self.tiled = mp.tiled
        self.deferred_engine = mp.deferred
        self._schedule = mp.schedule
        self._deferred_src = mp.deferred_src
        self._tiled_src = mp.tiled_src

    # -- numerics -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x (in original index order when the plan is reordered).

        A reordered plan gathers ``x`` into the permuted column order,
        runs the permuted kernels, and scatters the result back through
        the inverse row permutation — pure index gathers, so for the
        row-only transforms the summation per output row is the exact
        sequence the unreordered plan runs (every format decodes each
        row's entries in ascending column order) and the result is
        bit-for-bit identical.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._shape[1],):
            raise ValueError(f"x must have shape ({self._shape[1]},)")
        rp = self.reorder
        if rp is not None and rp.col_perm is not None:
            x = x[rp.col_perm]
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz):
            # Single-half strategies (csr/adpt, or a fully deferred split)
            # return the kernel's own output array — no zero-fill + add
            # pass over y in the serving hot loop.
            if self.deferred_engine is None:
                if self.tiled is None:
                    y = np.zeros(self._shape[0])
                else:
                    y = self.tiled.spmv(x)
            elif self.tiled is None:
                y = self.deferred_engine.spmv(x)
            else:
                y = self.tiled.spmv(x)
                y += self.deferred_engine.spmv(x)
        if rp is not None:
            y = y[rp.inv_row]
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return y

    __matmul__ = spmv

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x (needed by transpose-using Krylov methods).

        Every half multiplies by its own A.T operand in *original*
        coordinates (the reorder permutations map the half's stream
        back; without a reorder they are identities), whose rows hold
        each original column's entries in ascending original row order.
        The summation per output entry is therefore a pure function of
        the original structure, so reordered and sharded plans reproduce
        it bit-for-bit (per half; the DeferredCOO split may place
        entries differently under a reorder).  The operands are
        structural sorts built on the first call and refilled by
        :meth:`update_values`.  No ABFT check covers a transpose, so it
        is not a fault site.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._shape[0],):
            raise ValueError(f"x must have shape ({self._shape[0]},)")
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz, transpose=True):
            if self._t_ops is None:
                self._t_ops = self._transposed_operands()
            y = None
            for _, _, op in self._t_ops:
                if y is None:
                    y = op @ x
                else:
                    y += op @ x
            if y is None:
                y = np.zeros(self._shape[1])
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return y

    def _transposed_operands(self) -> list:
        """``[(half, slot map, A.T operand), ...]`` for the present halves."""
        rp = self.reorder
        m, n = self._shape
        out = []
        for half, stream in enumerate(self.decode_streams()):
            if stream is None:
                continue
            rows, cols, vals = stream
            if rp is not None:
                rows = rp.row_perm[rows]
                if rp.col_perm is not None:
                    cols = rp.col_perm[cols]
            op, slots = csr_operand(cols, rows, vals, (n, m))
            out.append((half, slots, op))
        return out

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors (batched multi-RHS SpMM).

        Both halves run natively batched — the tiled half's CSR operand
        and the CSR5 half each stream their index structure once for
        all ``k`` columns; there is no per-column Python loop.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._shape[1]:
            raise ValueError(f"X must have shape ({self._shape[1]}, k)")
        if x.shape[1] == 0:
            return np.zeros((self._shape[0], 0))
        if x.shape[1] == 1:
            # Degenerate batch: route through the exact spmv path
            # (including any reorder handling) so a batch of one is
            # bit-for-bit a standalone product.
            return self.spmv(x[:, 0]).reshape(self._shape[0], 1)
        rp = self.reorder
        if rp is not None and rp.col_perm is not None:
            x = x[rp.col_perm]
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz, k=x.shape[1]):
            if self.deferred_engine is None:
                if self.tiled is None:
                    out = np.zeros((self._shape[0], x.shape[1]))
                else:
                    out = self.tiled.spmm(x)
            elif self.tiled is None:
                out = self.deferred_engine.spmm(x)
            else:
                out = self.tiled.spmm(x) + self.deferred_engine.spmm(x)
        if rp is not None:
            out = out[rp.inv_row]
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return out

    def decode_streams(self):
        """Operand-order contribution streams of the prepared plan.

        Returns ``(tiled, deferred)`` where each half is either ``None``
        or a ``(rows, cols, vals)`` triple of equal-length arrays listing
        every nonzero the half executes, in the exact order its kernel
        accumulates them: canonical (row, ascending column) order — the
        tiled half's CSR operand (:meth:`TileMatrix.stream
        <repro.core.storage.TileMatrix.stream>`), the deferred half's
        CSR entries (what CSR5's segmented sum reduces to).

        `repro.dist` assembles its bit-for-bit per-block operands from
        these streams: shards own tile-snapped blocks, so a block's rows
        hold exactly the single-device operand's entries, and sorting
        them canonically restores its accumulation sequence.  Arrays are
        live references — valid until the next :meth:`update_values`; do
        not mutate.
        """
        tiled = None
        if self.tiled is not None and self.tiled.nnz:
            tiled = self.tiled.stream()
        deferred = None
        d = self.deferred_engine
        if d is not None and d.nnz:
            deferred = (d.entry_rows, d.indices, d.data)
        return tiled, deferred

    def update_values(self, values) -> "TileSpMV":
        """Fast path: new numbers, unchanged sparsity pattern.

        ``values`` is either a sparse matrix with the *same* pattern or
        the length-``nnz`` value array in canonical CSR order.  The tile
        decomposition, format selection, DeferredCOO extraction and warp
        schedule are all kept; the values go through one structural map
        per half (:meth:`_operand_value_maps`) straight into what
        executes — the tiled half's CSR operand, any built transposed
        operands and the CSR5 half.  Payload and view values of the
        tiled half are rebuilt from its operand only if something reads
        them.  Returns ``self`` (updated in place; the previous
        artifacts are left untouched for any cached plan sharing them).
        """
        ref_indptr = (
            self._orig_indptr if self.reorder is not None else self._indptr
        )
        ref_indices = (
            self._orig_indices if self.reorder is not None else self._indices
        )
        if sp.issparse(values):
            csr = canonical_csr(values)
            if (
                csr.shape != self._shape
                or csr.nnz != self._nnz
                or not np.array_equal(csr.indptr, ref_indptr)
                or not np.array_equal(csr.indices, ref_indices)
            ):
                raise ValueError(
                    "sparsity pattern differs from the prepared matrix; "
                    "build a new TileSpMV instead of update_values"
                )
            values = csr.data
        data = np.asarray(values, dtype=np.float64)
        if data.shape != (self._nnz,):
            raise ValueError(f"expected {self._nnz} values, got {data.shape}")
        if self._value_src is None:
            self._value_src = self._operand_value_maps()
        tiled_src, deferred_src = self._value_src
        if self.tiled is not None:
            # The copy keeps the operand independent of the caller's array.
            self.tiled = self.tiled.with_operand_data(
                data.copy() if tiled_src is None else data[tiled_src]
            )
        if self.deferred_engine is not None:
            self.deferred_engine = self.deferred_engine.with_values(data[deferred_src])
        if self._t_ops is not None:
            streams = self.decode_streams()
            self._t_ops = [
                (half, slots, refill_operand(op, streams[half][2][slots]))
                for half, slots, op in self._t_ops
            ]
        return self

    def _operand_value_maps(self) -> tuple:
        """``(tiled, deferred)``: caller's canonical entry of each value slot.

        Tiled operand slot ``q`` holds canonical entry ``tiled[q]``, the
        composition of the decode permutation (operand slot -> the
        half's view entry), a DeferredCOO split's ``tiled_src`` (-> the
        full tile set's view entry), ``entry_perm`` (-> the planned
        matrix's canonical entry) and a reorder's data permutation (->
        the caller's canonical entry).  The CSR5 half's map is
        ``deferred_src`` composed the same way.  An identity tiled map —
        every unreordered single-half plan — is ``None``: the update is
        then a plain copy.
        """
        src = self._plan.tileset.entry_perm
        if self._data_perm is not None:
            src = self._data_perm[src]
        tiled = deferred = None
        if self.tiled is not None:
            tiled = self.tiled._value_slot_maps()[1]
            if self._tiled_src is not None:
                tiled = self._tiled_src[tiled]
            tiled = src[tiled]
            if np.array_equal(tiled, np.arange(tiled.size)):
                tiled = None
        if self.deferred_engine is not None:
            deferred = src[self._deferred_src]
        return tiled, deferred

    # -- accounting -----------------------------------------------------------

    def nbytes_model(self) -> int:
        """Modelled device footprint of the whole representation."""
        total = 0
        if self.tiled is not None:
            total += self.tiled.nbytes_model()
        if self.deferred_engine is not None:
            total += self.deferred_engine.nbytes_model()
        return total

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Tile/nnz counts per format (zeroes if fully deferred)."""
        if self.tiled is None:
            return {f: {"tiles": 0, "nnz": 0} for f in FormatID}
        return self.tiled.format_histogram()

    def run_cost(self) -> RunCost:
        """Device-independent cost of one SpMV (both kernels if split)."""
        parts: list[RunCost] = []
        if self.tiled is not None:
            parts.append(self.tiled.run_cost(self.params, self.tbalance, schedule=self._schedule))
        if self.deferred_engine is not None:
            parts.append(self.deferred_engine.run_cost())
        if not parts:
            return RunCost(label="TileSpMV(empty)")
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        total.label = f"TileSpMV_{self.method}"
        return total

    def spmm_cost(self, k: int) -> RunCost:
        """Device-independent cost of one k-vector :meth:`spmm`.

        The matrix payload streams once for all ``k`` columns (see
        :meth:`RunCost.batched <repro.gpu.costmodel.RunCost.batched>`),
        which is where batching beats ``k`` sequential :meth:`spmv`
        calls on memory-bound matrices.
        """
        cost = self.run_cost().batched(k)
        cost.label = f"TileSpMV_{self.method}[k={k}]"
        return cost

    def describe(self) -> str:
        """Human-readable summary: method, format mix, modelled performance."""
        from repro.gpu.device import TITAN_RTX

        m, n = self._shape
        lines = [
            f"TileSpMV[{self.method}] {m}x{n}, nnz={self._nnz}, "
            f"tiles={self.tiled.n_tiles if self.tiled else 0}"
            + (
                f", deferred nnz={self.deferred_engine.nnz}"
                if self.deferred_engine is not None
                else ""
            )
        ]
        if self.reorder is not None:
            lines.append(self.reorder.describe())
        if self._formats_override is not None:
            lines.append("per-tile formats: tuned override")
        hist = self.format_histogram()
        total = sum(h["tiles"] for h in hist.values())
        mix = ", ".join(
            f"{fmt.name}:{h['tiles']}" for fmt, h in hist.items() if h["tiles"]
        )
        if total:
            lines.append(f"format mix: {mix}")
        lines.append(
            f"modelled: {self.predicted_time(TITAN_RTX) * 1e6:.1f} us / "
            f"{self.gflops(TITAN_RTX):.1f} GFlops (Titan RTX), "
            f"{self.predicted_time(A100) * 1e6:.1f} us / "
            f"{self.gflops(A100):.1f} GFlops (A100); "
            f"footprint {self.nbytes_model()} B"
        )
        if self.plan_cache is not None:
            lines.append(self.plan_cache.describe())
        return "\n".join(lines)

    def profile(self, device: DeviceSpec = A100, top: int = 8) -> str:
        """Per-tile hotspot report against ``device``'s roofline ceilings.

        Delegates to :func:`repro.telemetry.profile.hotspot_report` on the
        tiled half of the representation (the DeferredCOO extraction, if
        any, runs in the CSR5 kernel and is not tile-resolved).
        """
        from repro.telemetry.profile import hotspot_report

        if self.tiled is None:
            return "profile: no tiled half (fully deferred to CSR5)"
        return hotspot_report(
            self.tiled,
            device=device,
            params=self.params,
            tbalance=self.tbalance,
            schedule=self._schedule,
            top=top,
        )

    def predicted_time(self, device: DeviceSpec) -> float:
        """Modelled kernel seconds on ``device``."""
        return self.run_cost().time(device)

    def gflops(self, device: DeviceSpec) -> float:
        """Modelled useful GFlop/s (2*nnz per SpMV) on ``device``."""
        return self.run_cost().gflops(device)


def tile_spmv(
    matrix: sp.spmatrix,
    x: np.ndarray,
    method: str = "adpt",
    **kwargs,
) -> np.ndarray:
    """One-shot convenience wrapper: prepare, multiply, return y."""
    return TileSpMV(matrix, method=method, **kwargs).spmv(x)

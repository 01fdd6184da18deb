"""Public TileSpMV entry point.

The three strategies of §III.D, plus an ``auto`` mode implementing the
paper's observed switch point (ADPT below ~1.8M nonzeros, DeferredCOO
above):

* ``csr``           — TileSpMV_CSR: every tile stored as a CSR tile.
* ``adpt``          — TileSpMV_ADPT: per-tile format selection.
* ``deferred_coo``  — TileSpMV_DeferredCOO: ADPT + COO extraction to CSR5.
* ``auto``          — cost-model choice between the last two.

The strategies differ in what the cost model prices: tile formats,
payloads, warp schedules, and DeferredCOO's second (CSR5) launch.  They
do not differ in what executes.  Every plan executes the canonical
(row, ascending column) scipy CSR matrix it was built from, so every
method returns the same bits for ``spmv``, ``spmm`` and
``spmv_transpose``.  The payloads are priced, not run; the round-trip
tests hold their decode equal to that matrix.

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
from repro.matrices.reorder import Reorderable, ReorderPlan
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.core.scheduler import DEFAULT_TBALANCE, build_schedule
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix, faulted_operand, masked_csr, same_csr
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.gpu.costmodel import RunCost
from repro.gpu.device import A100, DeviceSpec

__all__ = ["TileSpMV", "tile_spmv", "METHODS", "AUTO_DEFERRED_NNZ"]

METHODS = ("csr", "adpt", "deferred_coo", "auto")
AUTO_DEFERRED_NNZ = 1_800_000  # the paper's observed crossover (Fig 6)


class TileSpMV(Reorderable):
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
        or a token list.  Construction then returns a
        :class:`~repro.matrices.reorder.ReorderedSpMV` over a plain plan
        of the permuted matrix; it accepts and returns vectors in the
        *original* index order (bit-for-bit equal to the unreordered
        plan for the row-only transforms).
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
        # The adopted MethodPlan; the priced halves and the executing
        # operand below are its fields.
        self._mp: MethodPlan | None = None
        self.tiled: TileMatrix | None = None
        self.deferred_engine: Csr5SpMV | None = None
        self._schedule = None
        self._op: sp.csr_matrix | None = None
        # The A.T operand, built on the first spmv_transpose.
        self._t_op: sp.csr_matrix | None = None

        with tele.span("canonicalize", cat="build", policy=str(validation)):
            csr, self.validation_report = canonicalize_csr(matrix, validation)
            if csr is matrix:
                # ``trust`` hands back the caller's own matrix; the plan
                # executes it, so it must not alias the caller's arrays.
                csr = csr.copy()

        self._formats_override: np.ndarray | None = None
        if formats_override is not None:
            self._formats_override = np.ascontiguousarray(
                formats_override, dtype=np.uint8
            )

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
                plan = CachedPlan(key=self.plan_key or "", tileset=tileset)
                if plan_cache is not None:
                    plan_cache.put(self.plan_key, plan)
            else:
                digest = value_digest(csr.data)
                if plan.values_digest() != digest:
                    # Same pattern, new numbers: refresh payload values in
                    # place of re-tiling/re-selecting (the update_values
                    # fast path).
                    t1 = time.perf_counter()
                    plan.refresh_values(csr.data, digest)
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
        """The format-override digest for the plan key.

        An override changes what the built plan *is* without changing
        the input pattern, so it must be part of the structural
        fingerprint — a tuned candidate plan and its incumbent may share
        a matrix but never a cache slot or a circuit breaker.  (A
        reorder needs no such term: its plan is built on the permuted
        matrix, whose pattern the fingerprint already reads.)
        """
        if self._formats_override is None:
            return ""
        digest = hashlib.blake2b(
            self._formats_override.tobytes(), digest_size=8
        ).hexdigest()
        return f"formats={digest}"

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
        if name in ("csr", "adpt"):
            formats = (
                np.full(tileset.n_tiles, FormatID.CSR, dtype=np.uint8)
                if name == "csr"
                else self._plan_formats(plan)
            )
            tiled = TileMatrix.build(tileset, formats)
            mp = MethodPlan(
                method=name,
                tiled=tiled,
                deferred=None,
                schedule=self._plan_schedule(plan),
                operand=tiled.operand,
            )
        else:  # deferred_coo: reuse the shared selection, never re-select
            split = split_deferred_coo(tileset, self.selection, formats=self._plan_formats(plan))
            tiled = split.tiled
            mp = MethodPlan(
                method=name,
                tiled=tiled,
                deferred=(
                    Csr5SpMV(split.deferred, validation="trust")
                    if split.deferred.nnz
                    else None
                ),
                schedule=(
                    build_schedule(tiled.tileset.tile_ptr, self.tbalance)
                    if tiled is not None
                    else None
                ),
                operand=tileset.csr,
                extracted=split.extracted,
            )
        mp.build_seconds = time.perf_counter() - t1
        plan.methods[name] = mp
        return mp, mp.build_seconds

    def _method_cost(self, mp: MethodPlan, label: str | None = None) -> RunCost:
        """The plan's memoized cost under this engine's pricing setting."""
        cost = mp.run_cost(self.params, self.tbalance)
        if label is not None and (mp.tiled is not None or mp.deferred is not None):
            cost.label = label  # an empty plan keeps its own label
        return cost

    def _adopt(self, mp: MethodPlan) -> None:
        self._mp = mp
        self.tiled = mp.tiled
        self.deferred_engine = mp.deferred
        self._schedule = mp.schedule
        self._op = mp.operand

    # -- numerics -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x.

        The operand's product array is returned as is — no zero-fill or
        add pass over ``y``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._shape[1],):
            raise ValueError(f"x must have shape ({self._shape[1]},)")
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz):
            y = faulted_operand(self._op) @ x
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return y

    __matmul__ = spmv

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x (needed by transpose-using Krylov methods).

        One A.T operand: the CSR of the transpose of the canonical
        matrix, whose rows hold each column's entries in ascending row
        order.  The summation per output entry is therefore a pure
        function of the structure, so reordered and sharded engines
        reproduce it bit-for-bit.  The operand is built on the first
        call by scipy's CSC→CSR conversion (a counting pass, no sort)
        and rebuilt by :meth:`update_values`.  No ABFT check covers a transpose, so it
        is not a fault site.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._shape[0],):
            raise ValueError(f"x must have shape ({self._shape[0]},)")
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz, transpose=True):
            if self._t_op is None:
                self._t_op = self._op.T.tocsr()
            y = self._t_op @ x
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return y

    @property
    def operand(self) -> sp.csr_matrix:
        """The canonical CSR operand, current values: what :meth:`spmv`
        multiplies (do not mutate)."""
        return self._op

    def canonical_csr(self) -> sp.csr_matrix:
        """:attr:`operand`, as the sharded engines name it."""
        return self._op

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors (batched multi-RHS SpMM).

        Natively batched: the operand streams its index structure once
        for all ``k`` columns; there is no per-column Python loop.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._shape[1]:
            raise ValueError(f"X must have shape ({self._shape[1]}, k)")
        if x.shape[1] == 0:
            return np.zeros((self._shape[0], 0))
        if x.shape[1] == 1:
            # Degenerate batch: route through the exact spmv path so a
            # batch of one is bit-for-bit a standalone product.
            return self.spmv(x[:, 0]).reshape(self._shape[0], 1)
        with tele.span("kernel_execute", cat="kernel", method=self.method,
                       nnz=self._nnz, k=x.shape[1]):
            out = faulted_operand(self._op) @ x
        if tele.ENABLED:
            tele.count("tilespmv_spmv_total", method=self.method)
        return out

    def update_values(self, values) -> "TileSpMV":
        """Fast path: new numbers, unchanged sparsity pattern.

        ``values`` is either a sparse matrix with the *same* pattern or
        the length-``nnz`` value array in canonical CSR order.  The tile
        decomposition, format selection, DeferredCOO extraction and warp
        schedule are all kept.  The operand is canonical CSR of the
        planned matrix, so the values reach it as given and
        :meth:`MethodPlan.with_values
        <repro.core.plancache.MethodPlan.with_values>` refills it (and
        DeferredCOO's priced halves) with no sort; a built A.T operand
        is rebuilt by the counting pass that built it.  Payload and view
        values of the tiled matrix are rebuilt from its operand only if
        something reads them.
        Returns ``self`` (updated in place; the previous artifacts are
        left untouched for any cached plan sharing them).
        """
        if sp.issparse(values):
            csr = canonical_csr(values)
            if (
                csr.shape != self._shape
                or csr.nnz != self._nnz
                or not np.array_equal(csr.indptr, self._op.indptr)
                or not np.array_equal(csr.indices, self._op.indices)
            ):
                raise ValueError(
                    "sparsity pattern differs from the prepared matrix; "
                    "build a new TileSpMV instead of update_values"
                )
            values = csr.data
        data = np.asarray(values, dtype=np.float64)
        if data.shape != (self._nnz,):
            raise ValueError(f"expected {self._nnz} values, got {data.shape}")
        # The copy keeps the operand independent of the caller's array.
        self._adopt(self._mp.with_values(data.copy()))
        if self._t_op is not None:
            self._t_op = self._op.T.tocsr()
        return self

    def validate(self) -> None:
        """Check that the priced halves encode exactly the operand.

        The tiled half must validate (its payloads decode to its
        operand) and hold the operand's unextracted entries; the CSR5
        arrays hold the extracted ones.  Raises ``AssertionError``.
        """
        op, tiled, d = self._op, self.tiled, self.deferred_engine
        m = self._mp.extracted if self._mp.extracted is not None else np.zeros(op.nnz, bool)
        empty = sp.csr_matrix(op.shape)
        if tiled is not None:
            tiled.validate()
        assert same_csr(tiled.operand if tiled else empty, masked_csr(op, ~m)), "tiled half"
        csr5 = sp.csr_matrix((d.data, d.indices, d.indptr), shape=op.shape) if d else empty
        assert same_csr(csr5, masked_csr(op, m)), "CSR5 half"

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
        return self._method_cost(self._mp, label=f"TileSpMV_{self.method}")

    def spmm_cost(self, k: int) -> RunCost:
        """Device-independent cost of one k-vector :meth:`spmm`.

        The matrix payload streams once for all ``k`` columns (see
        :meth:`RunCost.batched <repro.gpu.costmodel.RunCost.batched>`),
        which is where batching beats ``k`` sequential :meth:`spmv`
        calls on memory-bound matrices.  The plan is priced once; each
        width only rescales that price.
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
        any, is priced as the CSR5 kernel and is not tile-resolved).
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

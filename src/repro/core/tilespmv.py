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
from repro.core.kernels.params import KernelCostParams
from repro.core.plancache import CachedPlan, MethodPlan, PlanCache, structural_fingerprint
from repro.matrices.reorder import Reorderable, ReorderPlan
from repro.reliability.validation import ValidationPolicy, canonicalize_csr, pattern_values
from repro.core.scheduler import DEFAULT_TBALANCE
from repro.core.selection import SelectionConfig
from repro.core.storage import TileMatrix, faulted_operand, masked_csr, refill_operand
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
        a hit reuses the cached plan whatever the values, a miss stores
        a new, unbuilt plan for the next construction.  Either way the
        engine's operand shares the plan's index arrays and owns its
        values; a plan holds none.
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
        Its length is checked against the occupied tiles when the plan
        is built, so a wrong-size vector raises ``ValueError`` on the
        first price or inspection, not at construction.

    Construction with a fixed method canonicalizes the input, looks its
    plan up and adopts the canonical CSR as the operand; it builds
    nothing.  The tile set, format vector, payload structure, warp
    schedule and DeferredCOO split are built on the first read of
    anything that prices or inspects them (:meth:`run_cost`,
    :meth:`nbytes_model`, :attr:`tiled`, :meth:`validate`, ...), once
    per plan.  They are structure; a reader that needs values
    (:meth:`halves`, :meth:`validate`) takes them from the operand.
    Products and :meth:`update_values` never build.  ``auto`` builds
    at construction, since its arbitration reads prices.

    Timing attributes: ``build_seconds`` covers tiling, selection and
    the kept representation's encode, as far as this engine ran them
    (zero when it adopted a plan another engine built);
    ``arbitration_seconds`` covers the discarded ``auto`` candidate and
    the cost-model evaluations; ``preprocessing_seconds`` is exactly
    their sum.  Reading any of them builds the plan.
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

        plan = None
        if plan_cache is not None:
            self.plan_key = structural_fingerprint(
                csr, tile, self.selection, tbalance, extra=self._fingerprint_extra()
            )
            plan = plan_cache.get(self.plan_key)
        if plan is None:
            plan = CachedPlan(
                key=self.plan_key or "", indptr=csr.indptr, indices=csr.indices,
                shape=csr.shape, dtype=csr.dtype, tile=tile,
                selection=self.selection, tbalance=tbalance,
                formats_override=self._formats_override,
            )
            if plan_cache is not None:
                plan_cache.put(self.plan_key, plan)
        self._plan = plan
        # The operand: the plan's index arrays and this engine's values.
        self._op = sp.csr_matrix((csr.data, plan.indices, plan.indptr), shape=plan.shape)
        self._shape = plan.shape
        self._nnz = int(plan.indices.size)
        self._build_s = 0.0
        self._arbitration_s = 0.0
        if method == "auto":
            self._arbitrate(auto_device or A100)
        if tele.ENABLED:
            tele.count("tilespmv_builds_total", method=self.method)

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

    def _build_span(self):
        return tele.span("tile_build", cat="build", nnz=self._nnz,
                         cached=self._plan.tileset is not None)

    def _arbitrate(self, device: DeviceSpec) -> None:
        """``auto``: build both candidates and keep the cheaper on ``device``."""
        plan = self._plan
        with self._build_span():
            tiling_seconds = plan.cut_tiles(self._op)
            with tele.span("arbitration", cat="build", nnz=self._nnz):
                mp_adpt, s_adpt = plan.method("adpt")
                mp_def, s_def = plan.method("deferred_coo")
                t1 = time.perf_counter()
                t_adpt = mp_adpt.run_cost(self.params, self.tbalance).time(device)
                t_def = mp_def.run_cost(self.params, self.tbalance).time(device)
                arbitration_eval = time.perf_counter() - t1
        if t_adpt <= t_def:
            kept, kept_seconds, discarded_seconds = mp_adpt, s_adpt, s_def
            self.method = "adpt"
        else:
            kept, kept_seconds, discarded_seconds = mp_def, s_def, s_adpt
            self.method = "deferred_coo"
        self._build_s += tiling_seconds + kept_seconds
        self._arbitration_s = discarded_seconds + arbitration_eval

    @property
    def _mp(self) -> MethodPlan:
        """The priced artifacts, built on first read.

        The one build path: the plan cuts its tile set and builds the
        strategy's artifacts, each once per plan (a plan an earlier
        reader built is only read).  They hold no values.
        """
        mp = self._plan.methods.get(self.method)
        if mp is None:
            with self._build_span():
                seconds = self._plan.cut_tiles(self._op)
                mp, method_seconds = self._plan.method(self.method)
            self._build_s += seconds + method_seconds
        return mp

    @property
    def tiled(self) -> TileMatrix | None:
        """The tiled representation (``None`` if fully deferred)."""
        return self._mp.tiled

    @property
    def deferred_engine(self) -> Csr5SpMV | None:
        """DeferredCOO's CSR5 half, if anything was extracted: its
        layout, structure only (values: :meth:`halves`)."""
        return self._mp.deferred

    @property
    def _schedule(self):
        return self._mp.schedule

    @property
    def build_seconds(self) -> float:
        """Tiling, selection and the kept representation's encode, as
        far as this engine ran them (a read builds the plan)."""
        self._mp
        return self._build_s

    @property
    def arbitration_seconds(self) -> float:
        """The discarded ``auto`` candidate and the cost-model evaluations."""
        self._mp
        return self._arbitration_s

    @property
    def preprocessing_seconds(self) -> float:
        """Exactly :attr:`build_seconds` + :attr:`arbitration_seconds`."""
        return self.build_seconds + self.arbitration_seconds

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
        the length-``nnz`` value array in canonical CSR order.  Nothing
        is built: the operand is canonical CSR of the planned matrix, so
        the values refill it as given, with no sort; a built A.T operand
        is rebuilt by the counting pass that built it.  The plan holds
        no values, so nothing else changes: a later read of payloads or
        halves takes the new values from the operand.  Returns ``self``
        (updated in place; other engines on the same plan keep theirs).
        """
        data = pattern_values(
            values, self._shape, self._nnz, lambda: (self._op.indptr, self._op.indices)
        )
        # The copy keeps the operand independent of the caller's array.
        return self._adopt_values(data.copy())

    def _adopt_values(self, data: np.ndarray) -> "TileSpMV":
        """:meth:`update_values` of a checked float64 array the engine
        owns from now on (no copy): what a wrapper that gathered the
        array itself hands over."""
        self._op = refill_operand(self._op, data)
        if self._t_op is not None:
            self._t_op = self._op.T.tocsr()
        return self

    def halves(self) -> tuple[sp.csr_matrix | None, sp.csr_matrix | None]:
        """The operand split as the plan prices it, current values:
        ``(tiled, deferred)``, the entries the tiled half and the CSR5
        half hold (``None`` for an absent half).  Without a DeferredCOO
        split the tiled half is the operand itself."""
        mp, op = self._mp, self._op
        m = mp.extracted
        if m is None:
            return (op if mp.tiled is not None else None), None
        return (
            masked_csr(op, ~m) if mp.tiled is not None else None,
            masked_csr(op, m) if mp.deferred is not None else None,
        )

    def validate(self) -> None:
        """Check that the priced halves encode exactly the operand.

        The tiled half's payloads, encoded with the operand's
        unextracted values, must decode to those entries; the CSR5
        layout must hold the pattern of the extracted ones; together
        they cover every entry once.  Raises ``AssertionError``.
        """
        mp, (tiled, deferred) = self._mp, self.halves()
        m = mp.extracted if mp.extracted is not None else np.zeros(self._nnz, bool)
        if mp.tiled is not None:
            mp.tiled.validate(tiled)
        assert (mp.tiled is not None) or m.all(), "tiled half"
        d = mp.deferred
        assert (d is not None) or not m.any(), "CSR5 half"
        if d is not None:
            assert np.array_equal(d.indptr, deferred.indptr) and np.array_equal(
                d.indices, deferred.indices
            ), "CSR5 half"

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
        """Device-independent cost of one SpMV (both kernels if split).

        Priced once per plan and pricing setting (the first price
        builds the plan); no price reads a value.
        """
        mp = self._mp
        cost = mp.run_cost(self.params, self.tbalance)
        if mp.tiled is not None or mp.deferred is not None:
            cost.label = f"TileSpMV_{self.method}"  # an empty plan keeps its own label
        return cost

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

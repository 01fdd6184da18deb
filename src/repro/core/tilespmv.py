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
from repro.core.scheduler import DEFAULT_TBALANCE
from repro.core.selection import SelectionConfig
from repro.core.storage import (
    TileMatrix,
    faulted_operand,
    masked_csr,
    refill_operand,
    same_csr,
)
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
        a hit reuses the cached plan (refilling values only if they
        changed), a miss stores a new, unbuilt plan for the next
        construction.
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
    per plan; the engine reads them with its current values.
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
        # The priced artifacts (a MethodPlan carrying this engine's
        # values), adopted from the plan on first read.
        self._priced: MethodPlan | None = None
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

        self._build_s = 0.0
        self._arbitration_s = 0.0
        if plan is None:
            plan = CachedPlan(
                key=self.plan_key or "", csr=csr, tile=tile,
                selection=self.selection, tbalance=tbalance,
                formats_override=self._formats_override,
            )
            if plan_cache is not None:
                plan_cache.put(self.plan_key, plan)
        else:
            digest = value_digest(csr.data)
            if plan.values_digest() != digest:
                # Same pattern, new numbers: refresh the plan's values
                # in place of re-tiling/re-selecting (the update_values
                # fast path).
                t1 = time.perf_counter()
                plan.refresh_values(csr.data, digest)
                self._build_s += time.perf_counter() - t1
        self._plan = plan
        # The operand: the plan's canonical CSR, shared with every
        # engine holding the same values.
        self._op = plan.csr
        self._shape = plan.csr.shape
        self._nnz = int(plan.csr.nnz)
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
            tiling_seconds = plan.cut_tiles()
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
        self._adopt(kept)

    def _adopt(self, mp: MethodPlan) -> None:
        """Take ``mp`` as the priced artifacts, refilled with this
        engine's values unless they are already its values."""
        mine, theirs = self._op.data, mp.operand.data
        same = mine.shape == theirs.shape and mine.ctypes.data == theirs.ctypes.data
        self._priced = mp if same else mp.with_values(mine)

    @property
    def _mp(self) -> MethodPlan:
        """The priced artifacts, built on first read.

        The one build path: the plan cuts its tile set and builds the
        strategy's artifacts, each once per plan (a plan an earlier
        reader built is only adopted); the engine takes them with its
        own current values.
        """
        if self._priced is None:
            with self._build_span():
                seconds = self._plan.cut_tiles()
                mp, method_seconds = self._plan.method(self.method)
            self._build_s += seconds + method_seconds
            self._adopt(mp)
        return self._priced

    @property
    def tiled(self) -> TileMatrix | None:
        """The tiled representation (``None`` if fully deferred)."""
        return self._mp.tiled

    @property
    def deferred_engine(self) -> Csr5SpMV | None:
        """DeferredCOO's CSR5 half, if anything was extracted."""
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
        is rebuilt by the counting pass that built it.  If the priced
        artifacts were already read, :meth:`MethodPlan.with_values
        <repro.core.plancache.MethodPlan.with_values>` refills them too
        (payload and view values are derived from the operand only if
        something reads them); otherwise a later build takes the values
        from the operand.
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
        return self._adopt_values(data.copy())

    def _adopt_values(self, data: np.ndarray) -> "TileSpMV":
        """:meth:`update_values` of a checked float64 array the engine
        owns from now on (no copy): what a wrapper that gathered the
        array itself hands over."""
        self._op = refill_operand(self._op, data)
        if self._priced is not None:
            self._priced = self._priced.with_values(data)
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

"""OnlineTuner: roofline-residual re-arbitration over profiled plans.

The loop (documented with the state machine in ``docs/TUNING.md``):

1. **Residuals** — :func:`repro.telemetry.profile.profile_tile_matrix`
   prices every occupied tile under its *chosen* format;
   :func:`repro.core.tuner.greedy_scores` prices it under every
   universal format.  The per-tile **roofline residual** is::

       residual = pressure * incumbent_score / best_score - 1

   where ``score = cycles + byte_weight * bytes`` (the greedy roofline
   proxy: issue slots plus DRAM bytes at the device's exchange rate)
   and ``pressure`` scales the modelled picture by what the
   lane-accurate executor *measured*: the tile strip's observed entry
   share relative to the mean strip, from the
   :class:`~repro.telemetry.profile.ProfileCollector` warp records.  A
   residual of 0.3 reads "this tile burns 30% more modelled time than
   the best available format would, weighted up if its strip actually
   carried more than its share of the measured load".

2. **Re-arbitration** — the worst offenders (above
   ``residual_threshold``, at most ``max_fraction`` of the tiles) take
   their greedy argmin format; everything else keeps the flowchart's
   choice.  The result is a ``formats_override`` vector for
   :class:`~repro.core.tilespmv.TileSpMV`.

3. **Proposal** — candidate plans (re-arbitrated formats, each
   configured reorder, and reorder + re-arbitration stacked) are built
   and priced by the cost model; :meth:`OnlineTuner.propose` returns
   the best as a :class:`TuningProposal` scored against the incumbent.
   Nothing is adopted here — the caller (``repro tune``, or
   ``ServingRuntime.retune`` with its rollback gate) decides.  A format
   vector changes only the modelled price (every plan executes its
   canonical operand), so ``retune`` applies a proposal's reorder alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.kernels.params import KernelCostParams
from repro.core.scheduler import DEFAULT_TBALANCE
from repro.core.tilespmv import TileSpMV
from repro.core.tuner import _UNIVERSAL, default_byte_weight, greedy_scores
from repro.gpu.device import A100, DeviceSpec
from repro.matrices.reorder import ReorderedSpMV
from repro.telemetry.profile import ProfileCollector, profile_tile_matrix

__all__ = [
    "TileResidual",
    "ResidualReport",
    "TuningConfig",
    "TuningProposal",
    "OnlineTuner",
]


@dataclass
class TileResidual:
    """One tile's modelled-vs-observed roofline residual."""

    tile_id: int
    row: int                # tile-row (strip) index
    col: int                # tile-column index
    fmt: str                # incumbent format name
    nnz: int
    incumbent_score: float  # cycles + byte_weight * bytes, chosen format
    best_score: float       # same score under the best universal format
    best_fmt: str           # the format achieving best_score
    pressure: float         # observed strip load / mean strip load (1.0 unmeasured)
    residual: float         # pressure * incumbent/best - 1

    def as_dict(self) -> dict:
        return {
            "tile_id": self.tile_id,
            "row": self.row,
            "col": self.col,
            "fmt": self.fmt,
            "nnz": self.nnz,
            "incumbent_score": self.incumbent_score,
            "best_score": self.best_score,
            "best_fmt": self.best_fmt,
            "pressure": self.pressure,
            "residual": self.residual,
        }


@dataclass
class ResidualReport:
    """Per-tile residuals for one profiled plan."""

    residuals: list[TileResidual] = field(default_factory=list)
    observed_warps: int = 0  # warp records backing the pressure term

    def worst(self, threshold: float, max_count: int) -> list[TileResidual]:
        """Offenders above ``threshold``, worst first, capped."""
        bad = [r for r in self.residuals if r.residual >= threshold]
        bad.sort(key=lambda r: (-r.residual, r.tile_id))
        return bad[:max_count]

    def total_residual(self) -> float:
        return float(sum(max(r.residual, 0.0) for r in self.residuals))

    def describe(self, top: int = 8) -> str:
        lines = [
            f"residual report: {len(self.residuals)} tiles, "
            f"{self.observed_warps} observed warps, "
            f"total positive residual {self.total_residual():.2f}"
        ]
        heavy = sorted(
            self.residuals, key=lambda r: (-r.residual, r.tile_id)
        )[:top]
        for r in heavy:
            lines.append(
                f"  tile {r.tile_id:5d} ({r.row:4d},{r.col:4d}) "
                f"{r.fmt:7s} nnz={r.nnz:3d} residual={r.residual:+.2f} "
                f"(best {r.best_fmt}, pressure {r.pressure:.2f})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TuningConfig:
    """Knobs for the online loop."""

    residual_threshold: float = 0.05  # re-arbitrate tiles at/above this
    max_fraction: float = 0.5         # ... but at most this share of tiles
    reorders: tuple = ("sell:0", "sell:512", "cmrs:16/64")  # candidate plan transforms
    min_gain: float = 1.0             # candidates below this modelled gain lose

    def __post_init__(self) -> None:
        if not 0.0 < self.max_fraction <= 1.0:
            raise ValueError("max_fraction must be in (0, 1]")
        if self.min_gain < 1.0:
            raise ValueError("min_gain must be >= 1 (a regression never wins)")


@dataclass
class TuningProposal:
    """A scored candidate plan (not yet adopted)."""

    label: str                        # "incumbent", "formats", "sell:32", ...
    reorder: str | None               # reorder spec for the candidate plan
    formats: np.ndarray | None        # per-tile override, or None
    modelled_time: float              # candidate seconds on the tuner device
    incumbent_time: float             # incumbent seconds on the same device
    retiled: int = 0                  # tiles whose format the override changed

    @property
    def gain(self) -> float:
        """Modelled speedup of the candidate over the incumbent."""
        if self.modelled_time == 0.0:
            return 1.0 if self.incumbent_time == 0.0 else math.inf
        return self.incumbent_time / self.modelled_time

    @property
    def is_incumbent(self) -> bool:
        return self.reorder is None and self.formats is None

    def engine_kwargs(self) -> dict:
        """Constructor kwargs that realise this plan on ``TileSpMV``."""
        kwargs: dict = {}
        if self.reorder is not None:
            kwargs["reorder"] = self.reorder
        if self.formats is not None:
            kwargs["formats_override"] = self.formats
        return kwargs

    def describe(self) -> str:
        return (
            f"proposal[{self.label}]: modelled {self.modelled_time * 1e6:.1f} us "
            f"vs incumbent {self.incumbent_time * 1e6:.1f} us "
            f"(gain {self.gain:.2f}x, {self.retiled} tiles re-arbitrated"
            + (f", reorder {self.reorder}" if self.reorder else "")
            + ")"
        )


class OnlineTuner:
    """Re-arbitrate formats and reorders from profiled hotspots.

    Deterministic end to end: the residuals come from the modelled
    per-tile costs (scaled by measured warp records when a
    :class:`~repro.telemetry.profile.ProfileCollector` is supplied),
    and candidates are priced by the same cost model that arbitrates
    ``method="auto"`` — so a proposal replays identically for a given
    matrix, device and collector state.
    """

    def __init__(
        self,
        device: DeviceSpec = A100,
        params: KernelCostParams | None = None,
        config: TuningConfig | None = None,
    ) -> None:
        self.device = device
        self.params = params or KernelCostParams()
        self.config = config or TuningConfig()

    # -- step 1: residuals -------------------------------------------------

    def residuals(
        self,
        engine: TileSpMV,
        collector: ProfileCollector | None = None,
    ) -> ResidualReport:
        """Per-tile roofline residuals of a built engine's tiled half."""
        report = ResidualReport()
        tiled = engine.tiled
        if tiled is None or tiled.n_tiles == 0:
            return report
        records = profile_tile_matrix(
            tiled, engine.params, engine.tbalance, schedule=engine._schedule
        )
        scores = greedy_scores(tiled.tileset, self.device, self.params)
        byte_weight = default_byte_weight(self.device)
        fmt_names = [f.name for f in _UNIVERSAL]
        pressure = self._strip_pressure(collector)
        if collector is not None:
            report.observed_warps = len(collector.warps)
        for r in records:
            inc = r.cycles + byte_weight * r.payload_bytes
            col = scores[:, r.tile_id]
            k = int(np.argmin(col))
            best = float(col[k])
            p = pressure.get(r.row, 1.0)
            residual = (p * inc / best - 1.0) if best > 0 else 0.0
            report.residuals.append(TileResidual(
                tile_id=r.tile_id,
                row=r.row,
                col=r.col,
                fmt=r.fmt,
                nnz=r.nnz,
                incumbent_score=inc,
                best_score=best,
                best_fmt=fmt_names[k],
                pressure=p,
                residual=residual,
            ))
        return report

    @staticmethod
    def _strip_pressure(collector: ProfileCollector | None) -> dict[int, float]:
        """Observed entries per tile strip, normalised by the strip mean."""
        if collector is None or not collector.warps:
            return {}
        strip: dict[int, int] = {}
        for w in collector.warps:
            strip[w.row] = strip.get(w.row, 0) + w.entries
        mean = sum(strip.values()) / len(strip)
        if mean <= 0:
            return {}
        return {row: entries / mean for row, entries in strip.items()}

    # -- step 2: re-arbitration --------------------------------------------

    def rearbitrate(
        self,
        engine: TileSpMV,
        report: ResidualReport | None = None,
        collector: ProfileCollector | None = None,
    ) -> np.ndarray | None:
        """Format override replacing the worst offenders' formats.

        Returns the per-tile format vector, or ``None`` when no tile
        clears the residual threshold (nothing worth re-arbitrating).
        """
        tiled = engine.tiled
        if tiled is None or tiled.n_tiles == 0:
            return None
        if report is None:
            report = self.residuals(engine, collector)
        cap = max(1, int(self.config.max_fraction * tiled.n_tiles))
        offenders = report.worst(self.config.residual_threshold, cap)
        if not offenders:
            return None
        scores = greedy_scores(tiled.tileset, self.device, self.params)
        formats = np.array(tiled.formats, dtype=np.uint8, copy=True)
        universal = np.asarray(_UNIVERSAL, dtype=np.uint8)
        changed = 0
        for r in offenders:
            best = universal[int(np.argmin(scores[:, r.tile_id]))]
            if formats[r.tile_id] != best:
                formats[r.tile_id] = best
                changed += 1
        return formats if changed else None

    # -- step 3: proposal --------------------------------------------------

    def propose(
        self,
        matrix: sp.spmatrix,
        engine: TileSpMV | None = None,
        collector: ProfileCollector | None = None,
        method: str = "adpt",
        tile: int = 16,
        **build_kwargs,
    ) -> TuningProposal:
        """Score candidate plans against the incumbent; return the best.

        ``matrix`` is the matrix in its *original* order (candidates
        carry their own reorders).  When ``engine`` is a single-device
        plan (reordered or not) it is the incumbent and its
        method/tile/selection settings seed the candidates; otherwise
        (none, or a sharded engine, priced here on one device) an
        incumbent is built from ``method``/``tile``/``build_kwargs``
        under the engine's reorder.  The returned proposal is the
        incumbent itself when nothing beats it by ``min_gain``.
        """
        base_reorder: str | None = None
        if isinstance(engine, ReorderedSpMV):
            # An already-reordered incumbent: its residuals (and any
            # format override derived from them) live in the permuted
            # tiling, so the formats-only candidate must rebuild under
            # the same reorder.  The tag round-trips as a spec.
            base_reorder = engine.reorder.tag
            engine = engine.inner
        if not isinstance(engine, TileSpMV):
            method = getattr(engine, "method", method)
            engine = TileSpMV(matrix, method=method, tile=tile,
                              reorder=base_reorder, **build_kwargs)
            engine = getattr(engine, "inner", engine)
        else:
            method = engine.method
            tile = engine._plan.tile
            build_kwargs = {
                "selection": engine.selection,
                "tbalance": engine.tbalance,
                "params": engine.params,
                **build_kwargs,
            }
        t_inc = engine.run_cost().time(self.device)
        best = TuningProposal(
            label="incumbent", reorder=None, formats=None,
            modelled_time=t_inc, incumbent_time=t_inc,
        )

        def consider(label, reorder, formats, candidate, retiled):
            nonlocal best
            t = candidate.run_cost().time(self.device)
            if t * self.config.min_gain < best.modelled_time:
                best = TuningProposal(
                    label=label, reorder=reorder, formats=formats,
                    modelled_time=t, incumbent_time=t_inc, retiled=retiled,
                )

        def build(reorder=None, formats=None):
            kwargs = dict(build_kwargs)
            if reorder is not None:
                kwargs["reorder"] = reorder
            if formats is not None:
                kwargs["formats_override"] = formats
            return TileSpMV(matrix, method=method, tile=tile, **kwargs)

        # Candidate 1: re-arbitrated formats on the incumbent's order.
        formats = self.rearbitrate(engine, collector=collector)
        if formats is not None:
            retiled = int(np.count_nonzero(formats != np.asarray(engine.tiled.formats)))
            consider(
                "formats", base_reorder, formats,
                build(reorder=base_reorder, formats=formats), retiled,
            )

        # Candidates 2..n: each configured reorder, then re-arbitration
        # stacked on top of the reordered plan's own residuals.
        for spec in self.config.reorders:
            if spec == base_reorder:
                continue  # already the incumbent's order
            reordered = build(reorder=spec)
            consider(spec, spec, None, reordered, 0)
            formats_r = self.rearbitrate(reordered)
            if formats_r is not None:
                retiled = int(np.count_nonzero(
                    formats_r != np.asarray(reordered.tiled.formats)
                ))
                consider(
                    f"{spec}+formats", spec, formats_r,
                    build(reorder=spec, formats=formats_r), retiled,
                )
        return best

"""Roofline-style kernel timing model.

Kernels report what they *did* (DRAM sector traffic, dynamic warp
instructions, atomic serialisation rounds, per-warp critical path) in a
:class:`KernelStats`; :class:`CostModel` turns that into a predicted
execution time on a :class:`~repro.gpu.device.DeviceSpec`.

The model is deliberately simple and documented term-by-term:

``t = launch + max(t_mem, t_issue, t_tail) + t_atomic_excess``

* ``t_mem`` — sector bytes / achievable DRAM bandwidth.  SpMV is memory
  bound almost everywhere, so this term dominates for large matrices and
  carries the paper's headline effects (format selection moves fewer
  bytes; BSR's zero padding moves more).
* ``t_issue`` — total dynamic warp instructions / device-wide issue rate.
  Captures lane under-utilisation: a warp grinding through a 2-nonzero
  COO tile with a full CSR control loop issues the same instructions as a
  full tile, which is why ADPT beats CSR-only on sparse tiles.
* ``t_tail`` — the longest single warp's cycle count.  Captures load
  imbalance when one warp owns a pathologically heavy tile row; the
  tbalance splitting exists to shrink this term.
* ``t_atomic_excess`` — serialisation rounds beyond the first for
  conflicting atomics, charged at the device atomic throughput.

Absolute numbers are a model, not a measurement; EXPERIMENTS.md compares
*shapes* (who wins, crossover locations), which depend only on the
relative sizes of these terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec

__all__ = [
    "KernelStats",
    "CostModel",
    "TimingBreakdown",
    "RunCost",
    "MultiDeviceRunCost",
    "l2_adjusted_bytes",
]


def l2_adjusted_bytes(gather_bytes: float, footprint_bytes: float, l2_bytes: float) -> float:
    """Effective DRAM traffic of a gathered array behind an L2 cache.

    Compulsory misses cover the touched footprint once; reuse accesses
    beyond that hit with probability ``l2 / footprint`` (a working set
    larger than L2 thrashes proportionally).  This is the standard
    capacity-miss approximation; it is what lets a tiled kernel's
    windowed ``x`` accesses cost less than a scattered gather.
    """
    if gather_bytes <= 0 or footprint_bytes <= 0:
        return 0.0
    compulsory = min(gather_bytes, footprint_bytes)
    reuse = gather_bytes - compulsory
    hit_frac = min(1.0, l2_bytes / footprint_bytes)
    return compulsory + reuse * (1.0 - hit_frac)


@dataclass
class KernelStats:
    """Everything a kernel execution tells the cost model.

    All byte counts are *sector* bytes (already coalescing-adjusted).
    """

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    bytes_l2: float = 0.0  # gather traffic served by L2 (raw sector bytes)
    flops: float = 0.0
    warp_instructions: float = 0.0
    warp_cycles_max: float = 0.0
    n_warps: int = 0
    atomic_rounds: float = 0.0
    atomic_ops: float = 0.0
    kernel_launches: int = 1
    label: str = ""

    def __add__(self, other: "KernelStats") -> "KernelStats":
        """Combine stats of kernels launched back-to-back (sequential)."""
        return KernelStats(
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            bytes_l2=self.bytes_l2 + other.bytes_l2,
            flops=self.flops + other.flops,
            warp_instructions=self.warp_instructions + other.warp_instructions,
            warp_cycles_max=max(self.warp_cycles_max, other.warp_cycles_max),
            n_warps=self.n_warps + other.n_warps,
            atomic_rounds=self.atomic_rounds + other.atomic_rounds,
            atomic_ops=self.atomic_ops + other.atomic_ops,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            label=self.label or other.label,
        )

    def merge_concurrent(self, other: "KernelStats") -> "KernelStats":
        """Combine stats of work inside the *same* launch (one grid)."""
        merged = self + other
        merged.kernel_launches = max(self.kernel_launches, other.kernel_launches)
        return merged

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class TimingBreakdown:
    """Per-term decomposition of a predicted kernel time (seconds)."""

    t_launch: float
    t_mem: float
    t_l2: float
    t_issue: float
    t_tail: float
    t_atomic: float
    total: float
    bound: str = ""

    def as_dict(self) -> dict:
        return {
            "launch": self.t_launch,
            "mem": self.t_mem,
            "l2": self.t_l2,
            "issue": self.t_issue,
            "tail": self.t_tail,
            "atomic": self.t_atomic,
            "total": self.total,
            "bound": self.bound,
        }


@dataclass
class CostModel:
    """Maps :class:`KernelStats` to predicted seconds on a device."""

    device: DeviceSpec
    # Average cycles a warp instruction occupies its scheduler slot; >1
    # accounts for memory-dependency stalls SpMV cannot hide at low
    # arithmetic intensity.
    cycles_per_instruction: float = 1.0

    def breakdown(self, stats: KernelStats) -> TimingBreakdown:
        dev = self.device
        t_launch = stats.kernel_launches * dev.launch_overhead_us * 1e-6
        t_mem = stats.total_bytes / dev.mem_bandwidth_bytes
        # Gathers that hit in L2 still consume L2 bandwidth — staging a
        # full 16-entry x window per nearly-empty tile is not free even
        # when x is cache resident.
        t_l2 = stats.bytes_l2 / (dev.l2_bandwidth_gbps * 1e9)
        t_issue = (
            stats.warp_instructions * self.cycles_per_instruction / dev.warp_issue_rate
        )
        t_tail = stats.warp_cycles_max / dev.clock_hz
        excess_rounds = max(0.0, stats.atomic_rounds - stats.atomic_ops)
        t_atomic = excess_rounds / (
            dev.sm_count * dev.atomic_throughput_per_clk * dev.clock_hz
        )
        body = max(t_mem, t_l2, t_issue, t_tail)
        bound = {t_mem: "memory", t_l2: "l2", t_issue: "issue", t_tail: "tail"}[body]
        total = t_launch + body + t_atomic
        return TimingBreakdown(t_launch, t_mem, t_l2, t_issue, t_tail, t_atomic, total, bound)

    def time(self, stats: KernelStats) -> float:
        """Predicted kernel time in seconds."""
        return self.breakdown(stats).total

    def gflops(self, stats: KernelStats, useful_flops: float | None = None) -> float:
        """GFlop/s at the paper's convention: 2*nnz useful flops per SpMV."""
        flops = stats.flops if useful_flops is None else useful_flops
        t = self.time(stats)
        return flops / t / 1e9 if t > 0 else 0.0


@dataclass
class RunCost:
    """Device-independent cost record of one SpMV execution.

    Kernels and baselines produce a ``RunCost``; :meth:`stats` finalises
    it for a specific device by applying the L2 model to the ``x``
    gather traffic.  Useful vs executed flops are kept apart so GFlops
    follow the paper's 2*nnz convention even when padded slots execute.
    """

    payload_bytes: float = 0.0
    x_gather_bytes: float = 0.0
    x_footprint_bytes: float = 0.0
    y_write_bytes: float = 0.0
    warp_instructions: float = 0.0
    warp_cycles_max: float = 0.0
    n_warps: int = 0
    atomic_ops: float = 0.0
    atomic_rounds: float = 0.0
    useful_flops: float = 0.0
    executed_flops: float = 0.0
    kernel_launches: int = 1
    label: str = ""

    def __add__(self, other: "RunCost") -> "RunCost":
        """Sequential composition (kernels launched back-to-back)."""
        return RunCost(
            payload_bytes=self.payload_bytes + other.payload_bytes,
            x_gather_bytes=self.x_gather_bytes + other.x_gather_bytes,
            x_footprint_bytes=max(self.x_footprint_bytes, other.x_footprint_bytes),
            y_write_bytes=self.y_write_bytes + other.y_write_bytes,
            warp_instructions=self.warp_instructions + other.warp_instructions,
            warp_cycles_max=max(self.warp_cycles_max, other.warp_cycles_max),
            n_warps=self.n_warps + other.n_warps,
            atomic_ops=self.atomic_ops + other.atomic_ops,
            atomic_rounds=self.atomic_rounds + other.atomic_rounds,
            useful_flops=self.useful_flops + other.useful_flops,
            executed_flops=self.executed_flops + other.executed_flops,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            label=self.label or other.label,
        )

    def batched(self, k: int) -> "RunCost":
        """Cost of one k-vector SpMM reusing this SpMV's structure.

        The batching win the paper's preprocessing amortisation argument
        extends to: the matrix payload (indices, values, descriptors,
        level-1 arrays) streams from DRAM *once* per SpMM regardless of
        ``k``, while the ``x`` gathers, ``y`` writes, flops and atomics
        scale with ``k``.  Warp control flow (payload decode, loop
        management) is likewise paid once per tile; each extra column
        adds only the per-entry gather + FMA work (two warp-wide
        instructions per 32 executed entries).  Launch count is
        unchanged — the whole block runs in the same grid.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k == 1:
            return self
        # Per extra column: one x gather + one FMA per executed entry,
        # spread over the 32 lanes of a warp.
        entries = self.executed_flops / 2.0
        per_column_instructions = 2.0 * entries / 32.0
        instructions = self.warp_instructions + (k - 1) * per_column_instructions
        tail_scale = (
            instructions / self.warp_instructions if self.warp_instructions > 0 else 1.0
        )
        return RunCost(
            payload_bytes=self.payload_bytes,
            x_gather_bytes=self.x_gather_bytes * k,
            x_footprint_bytes=self.x_footprint_bytes * k,
            y_write_bytes=self.y_write_bytes * k,
            warp_instructions=instructions,
            warp_cycles_max=self.warp_cycles_max * tail_scale,
            n_warps=self.n_warps,
            atomic_ops=self.atomic_ops * k,
            atomic_rounds=self.atomic_rounds * k,
            useful_flops=self.useful_flops * k,
            executed_flops=self.executed_flops * k,
            kernel_launches=self.kernel_launches,
            label=f"{self.label}[k={k}]" if self.label else f"batched[k={k}]",
        )

    def stats(self, device: DeviceSpec) -> KernelStats:
        """Finalise for a device: L2-adjust the x gather traffic."""
        x_bytes = l2_adjusted_bytes(
            self.x_gather_bytes, self.x_footprint_bytes, device.l2_mb * 1024 * 1024
        )
        return KernelStats(
            bytes_read=self.payload_bytes + x_bytes,
            bytes_written=self.y_write_bytes,
            bytes_l2=self.x_gather_bytes,
            flops=self.executed_flops,
            warp_instructions=self.warp_instructions,
            warp_cycles_max=self.warp_cycles_max,
            n_warps=self.n_warps,
            atomic_rounds=self.atomic_rounds,
            atomic_ops=self.atomic_ops,
            kernel_launches=self.kernel_launches,
            label=self.label,
        )

    def time(self, device: DeviceSpec) -> float:
        """Predicted seconds on ``device``."""
        return CostModel(device).time(self.stats(device))

    def gflops(self, device: DeviceSpec) -> float:
        """Useful GFlop/s (paper convention: 2*nnz per SpMV)."""
        t = self.time(device)
        return self.useful_flops / t / 1e9 if t > 0 else 0.0


@dataclass
class MultiDeviceRunCost:
    """Cost of one SpMV sharded across P identical devices.

    Each shard owns a contiguous block of rows and runs on its own
    device; the makespan is the slowest shard's end-to-end time:

    ``T = max_p ( t_bcast(p) + shard_cost(p).time() + t_gather(p) )``

    * ``t_bcast`` — shipping the shard's ``x`` window over the
      interconnect.  The shard only needs ``x[col_lo:col_hi]`` (the
      column-range the partitioner measured), so a banded matrix pays a
      thin halo while a scattered one approaches a full broadcast.
    * ``t_gather`` — returning the shard's ``y`` block to the root
      device.  Both transfers pay one link latency plus bytes over the
      per-direction link bandwidth.

    By default shards are assumed to communicate over independent links
    (NVSwitch / separate PCIe root ports), so transfers overlap and only
    the per-shard serial chain counts — the standard alpha-beta model
    used by Kreutzer et al. for distributed SpMV.  Two extensions cover
    the 2D grid partitions:

    * ``links > 0`` models a **shared interconnect** with that many
      physical links: with P shards contending, every bandwidth term is
      stretched by ``ceil(P / links)`` (latency, being per-message
      setup, is not).  ``links = 0`` keeps the dedicated-link legacy.
    * ``reduce_bytes``/``reduce_depth`` price the **fixed-shape tree
      reduction** of partial-y blocks a column-cut grid performs on P
      real devices: after the slowest shard finishes,
      ``reduce_depth = ceil(log2 C)`` pairwise exchange rounds run, each
      paying one link latency plus the largest partial block over the
      (contended) link bandwidth.  The reproduction itself never sums
      partials: :class:`~repro.dist.sharded.ShardedSpMV` multiplies one
      operand per row block, so this term prices the modelled devices'
      combine, not the host's.

    The recovery terms (all zero/absent by default, so a fault-free
    engine prices identically to before they existed) come from
    :class:`~repro.dist.recovery.RecoverableShardedSpMV`:

    * ``parity_cost``/``parity_bytes`` — the optional parity device's
      kernel cost and the pairwise parity traffic (every shard's padded
      y block crossing one link so the parity device can reconstruct).
      The parity device computes concurrently with the data shards, so
      it joins the makespan ``max`` rather than adding to it.
    * ``retry_backoff_s``/``retry_costs`` — the recovery ladder's
      actual localized-retry history: modelled backoff waits plus one
      re-executed shard kernel per retry, charged serially (a retry
      happens after the fault is detected).
    * ``rebuild_cost`` — the full re-execution each quarantine-driven
      repartition performs over the survivors.

    The process-backend terms (zero by default, same contract) come
    from :class:`~repro.dist.procpool.ProcessShardedSpMV`:

    * ``spawn_s`` — modelled seconds spent spawning and respawning
      worker processes.  Spawns gate the first/retried execution, so
      they charge serially; the retry's backoff is the ladder's
      ``retry_backoff_s``.
    * ``shm_bytes``/``shm_gbps`` — per-call x/y payload traffic through
      ``multiprocessing.shared_memory``, priced at a cross-socket
      bandwidth.  Zero-copy does not mean free: the pages still cross
      the memory fabric between sockets.  ``shm_gbps = 0`` (the
      default) prices the traffic at zero, keeping legacy costs
      bit-identical.
    """

    shard_costs: list  # list[RunCost]
    halo_bytes: list  # per-shard x-window bytes shipped to the device
    y_bytes: list  # per-shard y-block bytes gathered back
    label: str = ""
    links: int = 0  # shared physical links (0 = dedicated link per shard)
    reduce_bytes: list | None = None  # per-shard partial-y bytes entering the tree
    reduce_depth: int = 0  # rounds of the fixed-shape reduction tree
    parity_cost: "RunCost | None" = None  # parity device's kernel cost
    parity_bytes: float = 0.0  # pairwise parity traffic (shard blocks -> parity)
    retry_backoff_s: float = 0.0  # recorded backoff waits (virtual seconds)
    retry_costs: list | None = None  # one re-executed shard RunCost per retry
    rebuild_cost: "RunCost | None" = None  # repartition full re-execution
    spawn_s: float = 0.0  # worker spawn/respawn seconds
    shm_bytes: float = 0.0  # shared-memory payload traffic (x in, y out)
    shm_gbps: float = 0.0  # cross-socket shm bandwidth (0 = don't price it)

    def __post_init__(self) -> None:
        if not (len(self.shard_costs) == len(self.halo_bytes) == len(self.y_bytes)):
            raise ValueError(
                "shard_costs, halo_bytes and y_bytes must have equal length, got "
                f"{len(self.shard_costs)}/{len(self.halo_bytes)}/{len(self.y_bytes)}"
            )
        if not self.shard_costs:
            raise ValueError("MultiDeviceRunCost needs at least one shard")
        if self.reduce_bytes is not None and len(self.reduce_bytes) != len(self.shard_costs):
            raise ValueError(
                "reduce_bytes must have one entry per shard, got "
                f"{len(self.reduce_bytes)}/{len(self.shard_costs)}"
            )
        if self.links < 0 or self.reduce_depth < 0:
            raise ValueError("links and reduce_depth must be >= 0")
        if self.parity_bytes < 0 or self.retry_backoff_s < 0:
            raise ValueError("parity_bytes and retry_backoff_s must be >= 0")
        if self.spawn_s < 0 or self.shm_bytes < 0 or self.shm_gbps < 0:
            raise ValueError("spawn_s, shm_bytes and shm_gbps must be >= 0")

    @property
    def shards(self) -> int:
        return len(self.shard_costs)

    def contention(self) -> float:
        """Bandwidth stretch factor on a shared interconnect.

        ``ceil(shards / links)`` transfers serialise on each physical
        link; 1.0 under the dedicated-link assumption (``links = 0``).
        """
        if self.links <= 0:
            return 1.0
        return float(-(-self.shards // self.links))

    def comm_time(self, shard: int, device: DeviceSpec) -> float:
        """Interconnect seconds for one shard (x broadcast + y gather)."""
        latency = device.link_latency_us * 1e-6
        bw = device.link_bandwidth_bytes / self.contention()
        t = 0.0
        if self.halo_bytes[shard] > 0:
            t += latency + self.halo_bytes[shard] / bw
        if self.y_bytes[shard] > 0:
            t += latency + self.y_bytes[shard] / bw
        return t

    def allreduce_time(self, device: DeviceSpec) -> float:
        """Seconds for the tree reduction of partial-y blocks.

        ``reduce_depth`` pairwise rounds; each round is bounded by the
        largest participant block over the (contended) link bandwidth
        plus one link latency.  Zero when the partition needs no
        reduction (1D rows, single column block).
        """
        if self.reduce_depth == 0 or not self.reduce_bytes:
            return 0.0
        latency = device.link_latency_us * 1e-6
        bw = device.link_bandwidth_bytes / self.contention()
        largest = max(float(b) for b in self.reduce_bytes)
        return self.reduce_depth * (latency + largest / bw)

    def reduce_comm_bytes(self) -> float:
        """Modelled bytes moved by the tree reduction.

        Round ``k`` ships half the surviving partials, so ``depth``
        rounds move ``sum(reduce_bytes) * (1 - 2**-depth)`` in total —
        ``(C - 1)`` block transfers per row block for a power-of-two
        ``C``, the recursive-halving count.
        """
        if self.reduce_depth == 0 or not self.reduce_bytes:
            return 0.0
        return float(sum(self.reduce_bytes)) * (1.0 - 2.0 ** -self.reduce_depth)

    def shard_time(self, shard: int, device: DeviceSpec) -> float:
        """End-to-end seconds for one shard: comm + compute."""
        return self.comm_time(shard, device) + self.shard_costs[shard].time(device)

    def parity_time(self, device: DeviceSpec) -> float:
        """The parity device's chain: its kernel + the parity traffic.

        Zero without a parity shard.  Runs concurrently with the data
        shards, so it competes in the makespan ``max`` instead of
        extending the critical path.
        """
        if self.parity_cost is None:
            return 0.0
        t = self.parity_cost.time(device)
        if self.parity_bytes > 0:
            latency = device.link_latency_us * 1e-6
            bw = device.link_bandwidth_bytes / self.contention()
            t += latency + self.parity_bytes / bw
        return t

    def recovery_time(self, device: DeviceSpec) -> float:
        """Serial seconds the recovery ladder appended to this run.

        Backoff waits, localized shard re-executions, and any
        quarantine-driven repartition rebuild all happen *after* a
        fault is detected, so they add to the makespan rather than
        overlapping it.  Zero for a fault-free run.
        """
        t = self.retry_backoff_s
        if self.retry_costs:
            t += sum(c.time(device) for c in self.retry_costs)
        if self.rebuild_cost is not None:
            t += self.rebuild_cost.time(device)
        return t

    def shm_time(self) -> float:
        """Seconds the shared-memory payload traffic costs (0 unpriced).

        Device-independent: the transfer crosses the *host's* memory
        fabric, not the accelerator interconnect.
        """
        if self.shm_bytes <= 0 or self.shm_gbps <= 0:
            return 0.0
        return self.shm_bytes / (self.shm_gbps * 1e9)

    def batched(self, k: int) -> "MultiDeviceRunCost":
        """Amortised cost of one k-vector batched ``spmm`` on this layout.

        Per-shard kernels take their :meth:`RunCost.batched` price (the
        sparse payload is read once, per-column gather/write/flops scale
        by ``k``), and every per-column traffic term — halo windows, y
        gathers, reduction partials, the shared-memory block — ships k
        columns.  The per-*batch* overheads are paid once: ``spawn_s``
        (live workers serve the whole batch — the coalescing win on the
        process backend) and the recovery/parity terms, which record
        history rather than per-column work.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k == 1:
            return self
        return MultiDeviceRunCost(
            shard_costs=[c.batched(k) for c in self.shard_costs],
            halo_bytes=[float(b) * k for b in self.halo_bytes],
            y_bytes=[float(b) * k for b in self.y_bytes],
            label=f"{self.label}[k={k}]" if self.label else f"batched[k={k}]",
            links=self.links,
            reduce_bytes=(
                [float(b) * k for b in self.reduce_bytes]
                if self.reduce_bytes is not None
                else None
            ),
            reduce_depth=self.reduce_depth,
            parity_cost=self.parity_cost,
            parity_bytes=self.parity_bytes,
            retry_backoff_s=self.retry_backoff_s,
            retry_costs=self.retry_costs,
            rebuild_cost=self.rebuild_cost,
            spawn_s=self.spawn_s,
            shm_bytes=self.shm_bytes * k,
            shm_gbps=self.shm_gbps,
        )

    def time(self, device: DeviceSpec) -> float:
        """Makespan: the slowest chain, plus reduction and recovery.

        The slowest chain is over the data shards *and* the optional
        parity device (which computes concurrently).  The tree
        reduction is a barrier over each row block's cells, so it
        starts after the slowest participant; recovery work (retries,
        rebuilds), worker spawning, and the shared-memory payload
        transfers are inherently serial and append.
        """
        chain = max(self.shard_time(p, device) for p in range(self.shards))
        chain = max(chain, self.parity_time(device))
        return (
            chain
            + self.allreduce_time(device)
            + self.recovery_time(device)
            + self.spawn_s
            + self.shm_time()
        )

    def compute_time(self, device: DeviceSpec) -> float:
        """Max per-shard compute time, ignoring the interconnect."""
        return max(c.time(device) for c in self.shard_costs)

    def total_comm_bytes(self) -> float:
        return float(
            sum(self.halo_bytes)
            + sum(self.y_bytes)
            + self.reduce_comm_bytes()
            + self.parity_bytes
        )

    def speedup(self, baseline: RunCost, device: DeviceSpec) -> float:
        """Modelled speedup over a single-device run of ``baseline``."""
        t = self.time(device)
        return baseline.time(device) / t if t > 0 else 0.0

    def efficiency(self, baseline: RunCost, device: DeviceSpec) -> float:
        """Parallel efficiency: speedup / device count (1.0 = ideal)."""
        return self.speedup(baseline, device) / self.shards

    def breakdown(self, device: DeviceSpec) -> dict:
        """Per-shard decomposition for reports and benchmarks."""
        return {
            "shards": self.shards,
            "makespan_s": self.time(device),
            "compute_s": [c.time(device) for c in self.shard_costs],
            "comm_s": [self.comm_time(p, device) for p in range(self.shards)],
            "halo_bytes": [float(b) for b in self.halo_bytes],
            "y_bytes": [float(b) for b in self.y_bytes],
            "links": self.links,
            "contention": self.contention(),
            "reduce_depth": self.reduce_depth,
            "allreduce_s": self.allreduce_time(device),
            "reduce_bytes": (
                [float(b) for b in self.reduce_bytes]
                if self.reduce_bytes is not None
                else []
            ),
            "parity_s": self.parity_time(device),
            "parity_bytes": float(self.parity_bytes),
            "retry_backoff_s": float(self.retry_backoff_s),
            "retries": len(self.retry_costs) if self.retry_costs else 0,
            "recovery_s": self.recovery_time(device),
            "spawn_s": float(self.spawn_s),
            "shm_bytes": float(self.shm_bytes),
            "shm_s": self.shm_time(),
            "label": self.label,
        }

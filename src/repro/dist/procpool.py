"""Supervised process-pool execution backend.

:class:`ProcessShardedSpMV` is a :class:`~repro.dist.sharded.ShardedSpMV`
whose output blocks execute in real worker *processes* instead of
threads — the backend that makes "heavy traffic on a many-core host"
real rather than modelled.  Three mechanisms carry the design:

* **Block wire format** — each worker holds one output block's operand:
  rows ``[r0, r1)`` of the canonical CSR over all n columns, frozen by
  :func:`~repro.core.serialize.pack_shard_plan` and shipped at spawn
  (and at every respawn).  The worker runs
  :func:`~repro.dist.sharded.run_block` on it, the call the thread
  backend makes, so worker results are bit-for-bit the parent's.  There
  are R workers on an R x C grid (P on a 1D partition): every forward
  product runs in them, on every grid.  A transpose multiplies the
  parent's A.T operand.
* **Shared-memory payloads** — per-call inputs and outputs live in
  :mod:`multiprocessing.shared_memory` segments: the parent writes
  ``x`` once, every worker reads it as a zero-copy numpy view, and
  each worker writes its block into its own output segment.  Nothing
  on the hot path is pickled; the pipes carry only small command/reply
  dicts.
* **Worker supervision** — :class:`WorkerSupervisor` repairs the
  transport and nothing more: heartbeat liveness probes, detection of
  crashed (exit code) and hung (missed deadline) workers, and respawn
  from the block's current wire.  The lost command's block comes back
  as a :class:`~repro.dist.faults.DeviceLostError`, so a killed or hung
  worker is a lost device — the fault model the thread backend already
  has.  Retry, backoff and quarantine belong to the one recovery ladder
  (:mod:`repro.dist.recovery`), which runs on either backend.

Real processes leak real resources, so segment lifecycle is owned by a
**janitor**: every segment this process creates is registered under a
recognisable name (``reproshm_<pid>_...``), released on
context-manager ``close()``, swept by an ``atexit`` hook on normal
interpreter exit, and — for the paths no hook can cover (SIGKILL of the
whole interpreter) — reclaimable by :func:`sweep_orphans`, which scans
for segments whose owning pid is dead.

Process-level faults (worker kill / worker hang) are part of the
deterministic fault model (:mod:`repro.gpu.faults`): every decision is a
pure function of ``(seed, kind, device rank, attempt)``, so a worker
re-derives its faults from the plans shipped inside the command — the
shard plan and any GPU-substrate plan, armed for each member cell at
its (rank, attempt) site — and agrees with the thread backend without
coordination.  The parent re-derives the kill and hang decisions for
bookkeeping and records the faults each reply says the worker applied.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm

import numpy as np

from repro import telemetry as tele
from repro.core.serialize import pack_shard_plan, unpack_shard_plan
from repro.dist import faults as shard_faults
from repro.dist.faults import DeviceLostError
from repro.dist.sharded import ShardedSpMV, cell_positions, run_block
from repro.gpu import faults as gpu_faults
from repro.gpu.costmodel import MultiDeviceRunCost

__all__ = [
    "ProcessConfig",
    "ProcessShardedSpMV",
    "WorkerSupervisor",
    "WorkerCrash",
    "scan_owned_segments",
    "sweep_orphans",
]

_SHM_PREFIX = "reproshm_"
_SHM_DIR = "/dev/shm"


class WorkerCrash(RuntimeError):
    """A worker raised while executing a shard operation.

    A crashed or hung worker is not this: the supervisor respawns it
    and reports its shard's device lost.  This is a bug in the
    operation itself, which a respawn would only repeat.
    """


# -- shared-memory janitor -------------------------------------------------


def _untrack(seg: _shm.SharedMemory) -> None:
    """Opt a segment out of the resource tracker's implicit cleanup.

    Lifecycle is owned by the janitor (explicit release + atexit sweep +
    orphan scan); leaving the tracker armed as well double-unlinks and
    spams warnings when worker processes attach.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - CPython internals moved
        pass


def _unlink_quiet(seg: _shm.SharedMemory) -> None:
    """Close + unlink without a resource-tracker round trip.

    The janitor untracked the segment at creation, so the tracker's
    cache no longer holds it; ``SharedMemory.unlink()`` would send an
    unmatched UNREGISTER and the tracker daemon would print a KeyError
    traceback.  Unlinking at the OS level sends nothing.
    """
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover
        pass
    try:
        import _posixshmem

        _posixshmem.shm_unlink(seg._name)
    except FileNotFoundError:
        pass
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


class _ShmJanitor:
    """Registry of every shared-memory segment this process created."""

    def __init__(self) -> None:
        self._segments: dict[str, _shm.SharedMemory] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count()

    def create(self, nbytes: int) -> _shm.SharedMemory:
        name = (
            f"{_SHM_PREFIX}{os.getpid()}_{next(self._seq)}_"
            f"{os.urandom(3).hex()}"
        )
        seg = _shm.SharedMemory(name=name, create=True, size=max(int(nbytes), 1))
        _untrack(seg)
        with self._lock:
            self._segments[seg.name] = seg
        return seg

    def release(self, seg: _shm.SharedMemory) -> None:
        with self._lock:
            self._segments.pop(seg.name, None)
        _unlink_quiet(seg)

    def close_all(self) -> list[str]:
        """Release every registered segment (the atexit sweep)."""
        with self._lock:
            segs = list(self._segments.values())
            self._segments.clear()
        names = []
        for seg in segs:
            names.append(seg.name)
            _unlink_quiet(seg)
        return names


_JANITOR = _ShmJanitor()
atexit.register(_JANITOR.close_all)


def scan_owned_segments(pid: int | None = None) -> list[str]:
    """Janitor-named segments on disk belonging to ``pid`` (default: us)."""
    pid = os.getpid() if pid is None else int(pid)
    prefix = f"{_SHM_PREFIX}{pid}_"
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def force_unlink(name: str) -> None:
    """Unlink one segment by name, ignoring absence."""
    try:
        seg = _shm.SharedMemory(name=name)
    except FileNotFoundError:
        return
    _untrack(seg)
    _unlink_quiet(seg)


def sweep_orphans() -> list[str]:
    """Unlink janitor-named segments whose owning process is dead.

    This is the reclamation path no in-process hook can cover: the
    owning interpreter was SIGKILL'd, so neither ``close()`` nor the
    atexit sweep ran.  Safe to call from any process at any time —
    segments of live owners are left alone.
    """
    removed = []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return removed
    for entry in entries:
        if not entry.startswith(_SHM_PREFIX):
            continue
        rest = entry[len(_SHM_PREFIX):]
        pid_str = rest.split("_", 1)[0]
        if not pid_str.isdigit() or _pid_alive(int(pid_str)):
            continue
        force_unlink(entry)
        removed.append(entry)
    return removed


# -- worker side -----------------------------------------------------------


def _worker_main(wire: bytes, conn) -> None:  # pragma: no cover
    """Worker process entry point: unpack the block operand, serve ops.

    Runs in a child process (excluded from parent-side coverage).  The
    final ``finally`` only closes *attachments* — segment lifetime is
    owned by the parent's janitor.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # A worker never owns segments, so its attaches must not register
    # with the resource tracker at all: under "fork" the tracker daemon
    # is shared with the parent (interleaved register/unregister would
    # corrupt its cache), under "spawn" the child's own tracker would
    # unlink live segments at worker exit.
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda *a, **k: None
    # A forked worker inherits the parent's armed campaigns; it arms the
    # plans its commands ship instead.
    gpu_faults.disarm_inherited()
    op = unpack_shard_plan(wire)
    positions: dict = {}  # the block's cell windows -> their entries
    attached: dict[str, _shm.SharedMemory] = {}

    def attach(name: str) -> _shm.SharedMemory:
        seg = attached.get(name)
        if seg is None:
            seg = _shm.SharedMemory(name=name)
            attached[name] = seg
        return seg

    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            kind = cmd.get("op")
            if kind == "shutdown":
                try:
                    conn.send({"ok": True, "op": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
                break
            if kind == "ping":
                try:
                    conn.send({"ok": True, "op": "pong"})
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                reply = _worker_execute(op, cmd, attached, attach, positions)
            except Exception:
                reply = {"ok": False, "error": traceback.format_exc()}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        for seg in attached.values():
            try:
                seg.close()
            except OSError:
                pass
        try:
            conn.close()
        except OSError:
            pass


def _worker_execute(op, cmd, attached, attach, positions):  # pragma: no cover
    """Execute one block operation inside the worker (child process)."""
    for name in cmd.get("drop", ()):
        seg = attached.pop(name, None)
        if seg is not None:
            try:
                seg.close()
            except OSError:
                pass
    kind = cmd["op"]
    plan = cmd.get("plan")
    cells = [tuple(cell) for cell in cmd.get("cells", ())]

    # Process-level faults first: a killed worker dies *mid-operation*
    # (after receiving the command, before replying), a hung one sleeps
    # past the supervisor's deadline.  Decisions are re-derived from the
    # shipped plan — identical to the parent's bookkeeping derivation,
    # which also counts them.
    if plan is not None:
        decide = shard_faults.ShardFaultInjector(plan)
        for rank, attempt, _, _ in cells:
            if decide.kill_worker(rank, attempt):
                os.kill(os.getpid(), signal.SIGKILL)
            hang = decide.worker_hang_s(rank, attempt)
            if hang > 0.0:
                time.sleep(hang)

    x_seg = attach(cmd["x_seg"])

    if kind == "update_values":
        count = int(cmd["count"])
        op.data[:] = np.ndarray((count,), dtype=np.float64, buffer=x_seg.buf)
        return {"ok": True, "op": kind}
    if kind != "run_block":
        raise ValueError(f"unknown worker op {kind!r}")

    x_len = int(cmd["x_len"])
    k = cmd.get("k")
    shape = (x_len,) if k is None else (x_len, int(k))
    x = np.ndarray(shape, dtype=np.float64, buffer=x_seg.buf)

    def cell_pos():
        windows = tuple(cell[2:] for cell in cells)
        if windows not in positions:
            positions[windows] = cell_positions(op, windows)
        return positions[windows]

    # The shipped plans are armed for this command only; run_block puts
    # each cell's hooks at its (rank, attempt) site, as the parent does.
    gpu_plan = cmd.get("gpu_plan")
    with (shard_faults.shard_fault_injection(plan) if plan is not None
          else nullcontext()) as inj, (
        gpu_faults.fault_injection(gpu_plan) if gpu_plan is not None
        else nullcontext()
    ) as ginj:
        out = run_block(op, x, cells, cell_pos, cmd["cell_sums"])
    sums = None
    if cmd["cell_sums"]:
        out, sums = out
    out = np.ascontiguousarray(out, dtype=np.float64)
    out_seg = attach(cmd["out_seg"])
    view = np.ndarray((out.size,), dtype=np.float64, buffer=out_seg.buf)
    view[: out.size] = out.ravel()
    applied = {key: i.by_kind for key, i in (("plan", inj), ("gpu_plan", ginj))
               if i is not None}
    return {"ok": True, "op": kind, "shape": tuple(out.shape),
            "faults": applied, "sums": sums}


# -- supervisor ------------------------------------------------------------


@dataclass(frozen=True)
class ProcessConfig:
    """Tuning knobs of the process backend and its supervisor.

    Attributes
    ----------
    heartbeat_timeout_s:
        Real seconds a liveness ping may take before the worker counts
        as unresponsive.  Heartbeats ride the same deadline machinery
        as operations, so a hung worker is detected identically either
        way.
    op_timeout_s:
        Real seconds one shard operation may take before the worker is
        declared hung, killed and respawned.  This is a *real-time*
        deadline (worker processes run on the wall clock); any retry
        backoff that follows is the recovery ladder's, charged to its
        virtual clock.
    poll_interval_s:
        Poll granularity while waiting on a worker reply.
    spawn_cost_s:
        Modelled seconds one worker spawn (or respawn) costs in
        :class:`~repro.gpu.costmodel.MultiDeviceRunCost`.
    shm_gbps:
        Modelled cross-socket shared-memory bandwidth pricing the
        per-call x/y traffic in the cost model.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` where
        available (cheap respawn) and falls back to ``spawn``.
    """

    heartbeat_timeout_s: float = 5.0
    op_timeout_s: float = 30.0
    poll_interval_s: float = 0.005
    spawn_cost_s: float = 2e-3
    shm_gbps: float = 25.0
    start_method: str | None = None


@dataclass
class _Worker:
    rank: int
    proc: object | None = None
    conn: object | None = None
    spawns: int = 0
    pending_drop: list = field(default_factory=list)


class WorkerSupervisor:
    """Owns the worker processes, their segments, and their respawns.

    One worker per output block.  ``wire_provider(i)`` supplies the
    current wire blob for block ``i`` at every (re)spawn, so a preceding
    ``update_values`` is reflected in respawned workers.  All waits
    (heartbeats, op deadlines) run on the wall clock — processes are
    real.  The supervisor only repairs the transport: a crashed or hung
    worker is killed and respawned, and its command reports failure.
    Retrying the lost shard, backing off and quarantining a device is
    the recovery ladder's job (:mod:`repro.dist.recovery`), the same
    ladder the thread backend runs under.
    """

    def __init__(
        self,
        wire_provider,
        ranks: list[int],
        x_capacity: int,
        out_capacities: list[int],
        config: ProcessConfig | None = None,
    ) -> None:
        self.config = config or ProcessConfig()
        self._wire_provider = wire_provider
        self.ranks = list(ranks)
        self._ctx = get_context(self._pick_start_method())
        self.workers = [_Worker(rank=r) for r in self.ranks]
        self.counters = {
            "spawns": 0,
            "respawns": 0,
            "crashes": 0,
            "hangs": 0,
            "heartbeats": 0,
            "round_trips": 0,
        }
        self.x_seg = _JANITOR.create(x_capacity)
        self.out_segs = [_JANITOR.create(c) for c in out_capacities]
        self._closed = False

    def _pick_start_method(self) -> str:
        if self.config.start_method is not None:
            return self.config.start_method
        import multiprocessing as mp

        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for i in range(len(self.workers)):
            self._spawn(i)
        self.heartbeat()

    def _spawn(self, i: int, respawn: bool = False) -> None:
        w = self.workers[i]
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._wire_provider(i), child),
            daemon=True,
            name=f"repro-shard-{i}",
        )
        span = "worker_respawn" if respawn else "worker_spawn"
        with tele.span(span, cat="dist", worker=i, rank=w.rank):
            proc.start()
        child.close()
        w.proc, w.conn = proc, parent
        w.spawns += 1
        self.counters["spawns"] += 1
        if respawn:
            self.counters["respawns"] += 1
        if tele.ENABLED:
            tele.count("worker_spawn_total", rank=w.rank)
            if respawn:
                tele.count("worker_respawn_total", rank=w.rank)

    def _kill(self, w: _Worker) -> None:
        if w.proc is not None and w.proc.is_alive():
            w.proc.kill()
            w.proc.join(timeout=2.0)
        if w.conn is not None:
            try:
                w.conn.close()
            except OSError:
                pass
        w.proc, w.conn = None, None

    def healthy_count(self) -> int:
        if self._closed:
            return 0
        return sum(w.proc is not None for w in self.workers)

    def close(self) -> None:
        """Shut every worker down and release every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self.workers:
            if w.proc is None:
                continue
            try:
                if w.conn is not None:
                    w.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
            w.proc.join(timeout=1.0)
            self._kill(w)
        _JANITOR.release(self.x_seg)
        for seg in self.out_segs:
            _JANITOR.release(seg)

    # -- segments ----------------------------------------------------------

    def _grow(self, seg: _shm.SharedMemory, nbytes: int) -> _shm.SharedMemory:
        new = _JANITOR.create(max(nbytes, 2 * seg.size))
        old_name = seg.name
        _JANITOR.release(seg)
        for w in self.workers:
            w.pending_drop.append(old_name)
        return new

    def ensure_x(self, nbytes: int) -> _shm.SharedMemory:
        if self.x_seg.size < nbytes:
            self.x_seg = self._grow(self.x_seg, nbytes)
        return self.x_seg

    def ensure_out(self, i: int, nbytes: int) -> _shm.SharedMemory:
        if self.out_segs[i].size < nbytes:
            self.out_segs[i] = self._grow(self.out_segs[i], nbytes)
        return self.out_segs[i]

    # -- liveness ----------------------------------------------------------

    def heartbeat(self, budget_s: float | None = None) -> dict[int, bool]:
        """Ping every worker; respawn the ones that miss.

        ``budget_s`` overrides the per-probe real-time deadline (the
        config's ``heartbeat_timeout_s``).  Returns rank → whether the
        worker answered (a missed one has been respawned since).
        """
        deadline = budget_s if budget_s is not None else self.config.heartbeat_timeout_s
        status: dict[int, bool] = {}
        for i, w in enumerate(self.workers):
            self.counters["heartbeats"] += 1
            alive = False
            with tele.span("worker_heartbeat", cat="dist", worker=i, rank=w.rank):
                try:
                    w.conn.send({"op": "ping"})
                    if w.conn.poll(deadline):
                        alive = bool(w.conn.recv().get("ok"))
                except (BrokenPipeError, EOFError, OSError):
                    alive = False
            if tele.ENABLED:
                tele.count("worker_heartbeat_total", rank=w.rank)
            if not alive:
                self._respawn(i, "heartbeat")
            status[w.rank] = alive
        return status

    # -- failure handling --------------------------------------------------

    def _respawn(self, i: int, reason: str) -> None:
        """Kill worker ``i`` and respawn it from its current wire."""
        if reason in ("crash", "hang"):
            self.counters["crashes" if reason == "crash" else "hangs"] += 1
        self._kill(self.workers[i])
        self._spawn(i, respawn=True)

    # -- operation dispatch ------------------------------------------------

    def _send(self, i: int, cmd: dict) -> bool:
        w = self.workers[i]
        if w.pending_drop:
            cmd = dict(cmd)
            cmd["drop"] = list(w.pending_drop)
            w.pending_drop.clear()
        try:
            w.conn.send(cmd)
            return True
        except (BrokenPipeError, OSError):
            return False

    def run(self, commands: list[tuple[int, dict]]) -> list[dict | None]:
        """Execute one command per listed worker; per command, its reply
        or ``None``.

        Commands are sent up front so workers overlap, then collected in
        list order.  A worker that crashes or misses ``op_timeout_s``
        mid-operation is killed and respawned from its current wire,
        and its slot returns ``None``: the caller reports that block's
        device lost.
        """
        self.counters["round_trips"] += len(commands)
        sent = [self._send(i, cmd) for i, cmd in commands]
        out: list[dict | None] = []
        for (i, cmd), ok in zip(commands, sent):
            w = self.workers[i]
            reply = self._await_reply(w) if ok else "crash"
            if isinstance(reply, str):
                self._respawn(i, reply)
                reply = None
            elif not reply.get("ok"):
                raise WorkerCrash(
                    f"worker {i} (rank {w.rank}) failed op "
                    f"{cmd.get('op')!r}:\n{reply.get('error')}"
                )
            out.append(reply)
        return out

    def _await_reply(self, w: _Worker) -> dict | str:
        """The worker's reply, or why none came: ``"crash"``/``"hang"``."""
        cfg = self.config
        deadline = time.monotonic() + cfg.op_timeout_s
        while True:
            try:
                if w.conn.poll(cfg.poll_interval_s):
                    return w.conn.recv()
            except (EOFError, OSError):
                return "crash"
            if not w.proc.is_alive():
                return "crash"
            if time.monotonic() >= deadline:
                return "hang"

    def stats(self) -> dict:
        return {
            "workers": len(self.workers),
            "healthy": self.healthy_count(),
            **self.counters,
        }


# -- the engine ------------------------------------------------------------


class ProcessShardedSpMV(ShardedSpMV):
    """:class:`ShardedSpMV` executing output blocks in supervised worker
    processes.

    Construct directly, or via ``ShardedSpMV(matrix, backend="process")``
    — the parent class dispatches here.  The parent engines are kept:
    they provide the cost model, the plan keys, the block operands the
    wire ships and the A.T operand.  :meth:`run_shards` is the process
    implementation of the block-execution interface.  A worker that
    crashes or misses its deadline is respawned and its block reported
    lost, so a plain engine raises
    :class:`~repro.dist.faults.DeviceLostError` exactly as the thread
    backend does (the next call runs on the respawned worker), and
    :class:`~repro.dist.recovery.RecoverableShardedSpMV` retries, backs
    off and quarantines with the one ladder both backends share.

    A fault campaign of either domain runs in the workers, which arm
    the plans each command ships at each member cell's (rank, attempt)
    site.
    """

    def __init__(
        self,
        matrix,
        *args,
        process_config: ProcessConfig | None = None,
        backend: str = "process",
        **kwargs,
    ) -> None:
        self._pcfg = process_config or ProcessConfig()
        self._shm_traffic_bytes = 0.0
        self._supervisor: WorkerSupervisor | None = None
        super().__init__(matrix, *args, backend="thread", **kwargs)
        self.backend = "process"
        # x holds a vector or an update_values payload; an output holds a
        # block's rows.
        x_cap = 8 * max(
            [self._m, self._n, 1] + [hi - lo for lo, hi in self._block_nnz]
        )
        out_caps = [8 * max(r1 - r0, 1) for r0, r1 in self.row_blocks]
        blocks = range(len(self.row_blocks))
        self._supervisor = WorkerSupervisor(
            self._make_wire,
            [self.device_ranks[self.block_cells(b)[0]] for b in blocks],
            x_cap,
            out_caps,
            self._pcfg,
        )
        self._supervisor.start()

    def _make_wire(self, b: int) -> bytes:
        return pack_shard_plan(self._row_op(b))

    @property
    def supervisor(self) -> WorkerSupervisor:
        return self._supervisor

    def _use_workers(self) -> bool:
        # Until close(): every fault is derived, so campaigns of either
        # domain run in the workers too.
        return self._supervisor is not None

    # -- dispatch plumbing -------------------------------------------------

    def _write_x(self, x: np.ndarray) -> None:
        xb = np.ascontiguousarray(x, dtype=np.float64)
        seg = self._supervisor.ensure_x(xb.nbytes)
        view = np.ndarray((xb.size,), dtype=np.float64, buffer=seg.buf)
        view[: xb.size] = xb.ravel()
        self._count_shm(xb.nbytes)

    def _count_shm(self, nbytes: int | float) -> None:
        self._shm_traffic_bytes += float(nbytes)
        if tele.ENABLED:
            tele.count("shm_bytes_total", n=float(nbytes))

    def _read_out(self, b: int, count: int) -> np.ndarray:
        seg = self._supervisor.out_segs[b]
        view = np.ndarray((count,), dtype=np.float64, buffer=seg.buf)
        self._count_shm(count * 8)
        return np.array(view)

    def run_shards(self, x: np.ndarray, indices=None,
                   cell_sums: bool = False) -> list:
        """The process implementation of :meth:`ShardedSpMV.run_shards`.

        Each listed block's cells open in the parent
        (:meth:`~ShardedSpMV._open_block`: counter, loss, straggler),
        which also re-derives the worker's kill and hang decisions for
        the campaign's counters.  Every command is sent before any reply
        is collected, shipping the armed plans of both fault domains.  A
        worker the supervisor had to respawn returns its block's
        :class:`~repro.dist.faults.DeviceLostError`, naming the first
        cell whose kill or hang fired.  The faults a worker applied
        (halo, partial, substrate) are recorded as its reply arrives.
        After :meth:`close` every block runs in-process on the inherited
        path.
        """
        if not self._use_workers():
            return super().run_shards(x, indices, cell_sums)
        indices = list(range(len(self.row_blocks)) if indices is None else indices)
        sup = self._supervisor
        inj = shard_faults.active_injector()
        ginj = gpu_faults.active_injector()
        k = x.shape[1] if x.ndim == 2 else 1
        self._write_x(x)
        out: dict[int, object] = {}
        lost_as: dict[int, tuple[int, int]] = {}
        commands = []
        for b in indices:
            try:
                cells = self._open_block(b)
            except DeviceLostError as exc:
                out[b] = exc
                continue
            suspects = []
            if inj is not None:
                for rank, attempt, _, _ in cells:
                    killed = inj.kill_worker(rank, attempt)
                    hang = inj.worker_hang_s(rank, attempt)
                    if killed or hang:
                        suspects.append((rank, attempt))
            lost_as[b] = (suspects or [cells[0][:2]])[0]
            r0, r1 = self.row_blocks[b]
            sup.ensure_out(b, 8 * max((r1 - r0) * k, 1))
            cmd = {
                "op": "run_block",
                "cells": cells,
                "cell_sums": cell_sums,
                "x_seg": sup.x_seg.name,
                "x_len": x.shape[0],
                "out_seg": sup.out_segs[b].name,
                "plan": inj.plan if inj is not None else None,
                "gpu_plan": ginj.plan if ginj is not None else None,
            }
            if x.ndim == 2:
                cmd["k"] = x.shape[1]
            commands.append((b, cmd))
        for (b, _), reply in zip(commands, sup.run(commands)):
            if reply is None:
                out[b] = DeviceLostError(*lost_as[b])
                continue
            for key, armed in (("plan", inj), ("gpu_plan", ginj)):
                if armed is not None:
                    armed.record_worker_faults(reply["faults"].get(key, {}))
            shape = tuple(reply["shape"])
            y = self._read_out(b, int(np.prod(shape))).reshape(shape)
            out[b] = (y, reply["sums"]) if cell_sums else y
        return [out[b] for b in indices]

    def spmm(self, x: np.ndarray) -> np.ndarray:
        # The combine is inherited; this class keeps its own attribute
        # because perfbench/spans.py times ProcessShardedSpMV.spmm by name.
        return super().spmm(x)

    def _adopt_values(self, data: np.ndarray) -> "ProcessShardedSpMV":
        super()._adopt_values(data)
        sup = self._supervisor
        if sup is None:
            return self
        # Stream each block's new values to its live worker.  A worker
        # lost mid-update is respawned from the refreshed wire, which
        # already holds the new values.
        for b, (lo, hi) in enumerate(self._block_nnz):
            vals = data[lo:hi]
            seg = sup.ensure_x(max(vals.nbytes, 8))
            view = np.ndarray((vals.size,), dtype=np.float64, buffer=seg.buf)
            view[: vals.size] = vals
            self._count_shm(vals.nbytes)
            cmd = {"op": "update_values", "x_seg": seg.name, "count": int(vals.size)}
            sup.run([(b, cmd)])
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        sup = getattr(self, "_supervisor", None)
        self._supervisor = None
        if sup is not None:
            sup.close()
        super().close()

    def __del__(self) -> None:
        try:
            sup = getattr(self, "_supervisor", None)
            if sup is not None:
                sup.close()
        except Exception:
            pass
        super().__del__()

    # -- accounting --------------------------------------------------------

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """Thread-backend pricing plus the process backend's own costs.

        Worker spawns and respawns are charged serially (they gate the
        first/replayed execution), and the per-call x/y traffic is
        priced as cross-socket shared-memory transfers at
        ``ProcessConfig.shm_gbps``.  Retry backoff is the recovery
        ladder's to price (``retry_backoff_s``).  Both terms default to
        zero in :class:`~repro.gpu.costmodel.MultiDeviceRunCost`, so
        thread-backend prices are untouched.
        """
        mdc = super().multi_device_cost(links=links)
        sup = self._supervisor
        if sup is not None:
            mdc.spawn_s = sup.counters["spawns"] * self._pcfg.spawn_cost_s
        mdc.shm_bytes = float(sum(mdc.halo_bytes) + sum(mdc.y_bytes))
        mdc.shm_gbps = self._pcfg.shm_gbps
        mdc.label += "@process"
        return mdc

    def describe(self) -> str:
        lines = [super().describe()]
        if self._supervisor is not None:
            st = self._supervisor.stats()
            lines.append(
                f"process backend: workers={st['healthy']}/{st['workers']} "
                f"spawns={st['spawns']} respawns={st['respawns']} "
                f"crashes={st['crashes']} hangs={st['hangs']} "
                f"shm_traffic={self._shm_traffic_bytes / 1e3:.1f} kB"
            )
        return "\n".join(lines)

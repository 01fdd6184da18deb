"""Wall-clock benchmark of the TileSpMV reproduction.

    python3 perfbench/run.py --workload {solve,serve,shard} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` for why each exists):

* ``solve`` -- ``update_values`` with fresh values, then CG to rtol 1e-8;
* ``serve`` -- a bursty trace through the coalescing, ABFT-verified
  ``ServingRuntime``;
* ``shard`` -- 4-column block CG on a (1, 2) process-backend grid.

Each run builds what the workload serves from ``SETUP_REPEATS`` times
(``setup_s`` is the median), warms up untimed, then runs operations for
``--seconds``, checking each result outside the timers.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer ledger
and writes every span to ``.perfbench/spans-<workload>-<seed>.json``.
The last line of output is one JSON object; the exit code is 1 if any
result was wrong and 2 if the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "serve", "shard"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import Phase, end_to_end, measure, min_samples
    from spans import Recorder, instrument
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    rec = Recorder() if args.trace else None
    setup_s, engine = [], None
    for i in range(SETUP_REPEATS):
        if engine is not None:
            wl.close(engine)
        with (instrument(rec) if rec else nullcontext()), \
                (rec.operation(f"setup{i}") if rec else nullcontext()):
            t0 = time.perf_counter()
            engine = wl.build()
            setup_s.append(time.perf_counter() - t0)
    try:
        warm = Phase()
        for _ in range(wl.WARMUP_STEPS):
            warm.add(*wl.step(engine, None))
        if rec is None:
            phase = measure(lambda: wl.step(engine, None), args.seconds,
                            min_samples(0.95))
            metrics = end_to_end(setup_s, phase)
        else:
            from ledger import traced_run

            metrics, phase = traced_run(wl, engine, rec, args.seconds, args.seed)
            out = Path(".perfbench")
            out.mkdir(exist_ok=True)
            rec.write(out / f"spans-{args.workload}-{args.seed}.json")
    finally:
        wl.close(engine)
        # The process backend's shared memory starts multiprocessing's
        # resource tracker; end it here rather than leave it to outlive
        # the benchmark (a no-op when it never started).
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    correct = warm.ledger.correct and phase.ledger.correct
    print(json.dumps({
        "correct": correct,
        "attempted": phase.ledger.attempted,
        "failed": phase.ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Multi-GPU scaling demo (modelled): when does sharded SpMV pay?

Shards two matrices — a banded FEM-style matrix (each shard's x window
is its own slice plus a halo) and a power-law graph (each shard's
window spans nearly all of x) —
across 1-8 model-A100s over NVLink and PCIe links, printing the
modelled step times, speedups and communication share of
``ShardedSpMV.multi_device_cost`` through ``modelled_shard_sweep``.

Run:  python examples/multi_gpu.py
"""

from dataclasses import replace

import numpy as np

from repro import A100
from repro.dist import ShardedSpMV, modelled_shard_sweep
from repro.matrices import banded, power_law

LINKS = {
    "NVLink3": replace(A100, link_bandwidth_gbps=300.0, link_latency_us=5.0),
    "PCIe4 x16": replace(A100, link_bandwidth_gbps=16.0, link_latency_us=10.0),
}


def sweep(name: str, matrix, link: str) -> None:
    print(f"\n--- {name} ({matrix.nnz} nnz) over {link} ---")
    print(f"{'GPUs':>5s} {'step us':>9s} {'speedup':>8s} {'comm %':>7s}")
    for r in modelled_shard_sweep(matrix, counts=(1, 2, 4, 8), device=LINKS[link]):
        comm = 1.0 - r["compute_s"] / r["makespan_s"]
        print(f"{r['shards']:5d} {r['makespan_s'] * 1e6:9.2f} "
              f"{r['speedup']:8.2f} {100 * comm:6.1f}%")


def main() -> None:
    band = banded(300_000, half_bandwidth=16, seed=0)
    graph = power_law(150_000, avg_degree=8, seed=1)
    for p in (2, 8):
        # The sharded products are exact at every count.
        x = np.ones(graph.shape[1])
        with ShardedSpMV(graph, shards=p) as engine:
            assert np.allclose(engine.spmv(x), graph @ x)
    for link in LINKS:
        sweep("banded (own slice + halo)", band, link)
        sweep("power-law graph (all of x)", graph, link)
    print(
        "\nReading: over NVLink the banded matrix strong-scales (a shard's x"
        "\nwindow shrinks with its row block); the graph barely scales — every"
        "\nwindow spans nearly all of x, the textbook distributed-SpMV wall."
        "\nOver PCIe the shipped windows dominate both matrices: only the"
        "\nbanded matrix at 8 GPUs beats one device."
    )


if __name__ == "__main__":
    main()

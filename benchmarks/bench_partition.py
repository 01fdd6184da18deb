"""Multi-GPU sharding bench (modelled strong scaling).

Sweeps 1-8 model-A100s over NVLink and PCIe links for a banded matrix
(x window = own slice + halo) and a power-law graph (x window = nearly
all of x) through ``ShardedSpMV.multi_device_cost``, asserting the
textbook shapes: the banded matrix strong-scales over NVLink, the graph
goes backwards over PCIe, and the faster link always helps the
communication-bound case.
"""

from dataclasses import replace

from repro import A100
from repro.analysis.tables import format_table
from repro.dist import ShardedSpMV
from repro.matrices import banded, power_law

LINKS = {
    "NVLink3": replace(A100, link_bandwidth_gbps=300.0, link_latency_us=5.0),
    "PCIe4 x16": replace(A100, link_bandwidth_gbps=16.0, link_latency_us=10.0),
}


def sweep():
    band = banded(300_000, half_bandwidth=16, seed=0)
    graph = power_law(150_000, avg_degree=8, seed=1)
    rows = []
    for name, mat in (("banded", band), ("graph", graph)):
        costs = {}
        for k in (1, 2, 4, 8):
            with ShardedSpMV(mat, shards=k) as engine:
                costs[k] = engine.multi_device_cost()
        for link, device in LINKS.items():
            t1 = costs[1].time(device)
            for k, mdc in costs.items():
                t = mdc.time(device)
                rows.append(
                    (name, link, k, t * 1e6, t1 / t,
                     1.0 - mdc.compute_time(device) / t)
                )
    return rows


def test_partition_scaling(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    def speedup(name, link, k):
        return next(r[4] for r in rows if r[0] == name and r[1] == link and r[2] == k)

    assert speedup("banded", "NVLink3", 8) > 3.0, "banded must strong-scale on NVLink"
    assert speedup("graph", "PCIe4 x16", 4) < 1.0, "graph must go backwards on PCIe"
    assert speedup("graph", "NVLink3", 8) > speedup("graph", "PCIe4 x16", 8)
    print("\n" + format_table(
        ["Matrix", "Link", "GPUs", "Step us", "Speedup", "Comm frac"],
        rows,
        title="Modelled multi-GPU strong scaling (A100s)",
    ))

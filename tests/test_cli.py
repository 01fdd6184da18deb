"""CLI behaviour tests."""

import os
import re

import numpy as np
import pytest

from repro.cli import main
from repro.matrices import random_uniform
from repro.matrices.io import write_matrix_market

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "A100" in out and "table1" in out


def test_scale_flag(capsys):
    assert main(["fig7", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out and "scale=tiny" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_unknown_scale_rejected():
    with pytest.raises(SystemExit):
        main(["table1", "--scale", "huge"])


@pytest.fixture
def mtx_file(tmp_path):
    path = tmp_path / "demo.mtx"
    write_matrix_market(path, random_uniform(120, 120, 5, seed=3))
    return str(path)


def test_spmv_command(capsys, mtx_file):
    assert main(["spmv", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "matches scipy: True" in out
    assert "TileSpMV" in out and "Merge-SpMV" in out and "CSR5" in out and "BSR" in out


def test_spmv_device_and_method_flags(capsys, mtx_file):
    assert main(["spmv", mtx_file, "--method", "adpt", "--device", "titanrtx"]) == 0
    out = capsys.readouterr().out
    assert "Titan RTX" in out and "method resolved: adpt" in out


def test_shard_command(capsys, mtx_file):
    assert main(["shard", mtx_file, "--shards", "1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "bit-exact" in out
    assert "modelled strong scaling" in out
    assert "best modelled shard count" in out
    assert "verification: OK" in out


def test_shard_command_auto_is_bit_exact(capsys, mtx_file):
    # `auto` may arbitrate per shard and must still match the
    # single-device bits; there is no allclose grade.
    for grid in ([], ["--grid", "auto"]):
        assert main(["shard", mtx_file, "--method", "auto",
                     "--shards", "1,2,4", *grid]) == 0
        out = capsys.readouterr().out
        assert out.count("bit-exact") == 3
        assert "allclose" not in out and "MISMATCH" not in out


def test_shard_command_rejects_bad_counts(mtx_file, capsys):
    assert main(["shard", mtx_file, "--shards", "0"]) == 2
    assert main(["shard", mtx_file, "--shards", ","]) == 2
    capsys.readouterr()


def test_inspect_command(capsys, mtx_file):
    assert main(["inspect", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "occupied 16x16 tiles" in out
    assert "nnz %" in out


def test_missing_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["spmv", str(tmp_path / "nope.mtx")])


def test_report_generation(tmp_path):
    # Restrict to the cheap sections; the full report is exercised by the
    # benchmark harness.
    from repro.experiments.report import generate_report

    out_file = tmp_path / "report.md"
    text = generate_report(scale="tiny", output=out_file, sections=["table1", "fig7"])
    assert out_file.read_text() == text
    assert "# TileSpMV reproduction report" in text
    assert "## table1" in text and "## fig7" in text
    assert "## fig9" not in text


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "ALL GOOD" in out
    assert "lane-accurate == vectorised" in out


def test_experiment_csv_export(tmp_path, capsys):
    assert main(["fig6", "--scale", "tiny", "--csv", str(tmp_path)]) == 0
    csv_file = tmp_path / "fig6_tiny.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert "gflops_adpt" in header and "speedup_adpt_over_csr" in header


@pytest.mark.parametrize("command", [["spmv"], ["batch", "--k", "4"]])
def test_reported_preprocessing_is_the_build(capsys, tmp_path, command):
    # The timing readers build the plan: a reader that returned 0
    # without building would print 0.0 ms here.
    path = tmp_path / "big.mtx"
    write_matrix_market(path, random_uniform(3000, 3000, 8, seed=4))
    assert main([command[0], str(path), "--method", "adpt", *command[1:]]) == 0
    out = capsys.readouterr().out
    found = re.search(r"preprocessing: ([0-9.]+) ms", out)
    assert found and float(found.group(1)) > 0, out
    build = re.search(r"\(build ([0-9.]+) ms", out)
    assert build is None or float(build.group(1)) > 0, out


def test_batch_command(capsys, mtx_file):
    assert main(["batch", mtx_file, "--k", "8"]) == 0
    out = capsys.readouterr().out
    assert "spmm(k=8) matches scipy: True" in out
    assert "batching speedup" in out
    assert "PlanCache" in out and "hits=1" in out


def test_tile_spmv_propagates_shape_error():
    import numpy as np

    from repro.core.tilespmv import tile_spmv
    from repro.matrices import random_uniform

    a = random_uniform(60, 90, 4, seed=1)
    with pytest.raises(ValueError, match=r"\(90,\)"):
        tile_spmv(a, np.ones(60))


def test_serve_sim_smoke(capsys):
    assert main(["serve-sim", "--requests", "20", "--matrices", "2"]) == 0
    out = capsys.readouterr().out
    assert "ServingRuntime" in out
    assert "unverified results returned: 0" in out


def test_serve_sim_overload_with_faults_and_json(tmp_path, capsys):
    import json

    path = tmp_path / "serve.json"
    assert main([
        "serve-sim", "--requests", "40", "--matrices", "3", "--overload",
        "--faults", "4", "--json", str(path),
    ]) == 0
    payload = json.loads(path.read_text())
    assert payload["unverified"] == 0
    assert payload["stats"]["submitted"] == 40
    assert payload["stats"]["served"] + payload["stats"]["shed"] == 40
    out = capsys.readouterr().out
    assert "fault campaign" in out


def test_check_sharded_fault_drill(capsys, mtx_file):
    assert main(["check", mtx_file, "--faults", "--shards", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified spmv matches reference: True" in out
    assert "shard drill" in out
    assert "contained below engine ladder: True" in out
    assert "recovered result correct: True" in out


@pytest.mark.parametrize(
    "backend", ["thread", pytest.param("process", marks=pytest.mark.faults)]
)
def test_check_grid_fault_drill(capsys, mtx_file, backend):
    # A grid's row blocks run in the workers too, so the process
    # backend's worker-kill drill really kills one.
    assert main(["check", mtx_file, "--faults", "--grid", "2x2",
                 "--backend", backend, "--seed", str(FAULT_SEED)]) == 0
    out = capsys.readouterr().out
    assert "shard drill" in out
    assert "contained below engine ladder: True" in out
    if backend == "process":
        kills = re.search(r"worker-kill drill \(seed=\d+\): injected=(\d+)", out)
        assert kills is not None and int(kills.group(1)) >= 1
        assert out.count("contained below engine ladder: True") == 2


def test_check_rejects_malformed_grid(capsys, mtx_file):
    assert main(["check", mtx_file, "--grid", "nope"]) == 2
    err = capsys.readouterr().err
    assert "--grid must be RxC" in err


def test_shard_process_backend(capsys, mtx_file):
    assert main(["shard", mtx_file, "--shards", "1,2",
                 "--backend", "process"]) == 0
    out = capsys.readouterr().out
    assert "execution backend: process" in out
    assert "workers=1/1" in out
    assert "workers=2/2" in out
    assert "verification: OK" in out


def test_check_process_backend_worker_kill_drill(capsys, mtx_file):
    assert main(["check", mtx_file, "--faults", "--shards", "2",
                 "--backend", "process"]) == 0
    out = capsys.readouterr().out
    assert "worker-kill drill" in out
    assert "respawns=1" in out
    # One ladder on both backends: the shard drill runs here too, and
    # the killed worker's shard is contained by the same ladder.
    assert "shard drill" in out
    assert out.count("contained below engine ladder: True") == 2
    assert "recovered result correct: False" not in out


def test_check_drill_persistent_structured_failure(capsys, mtx_file):
    import json

    assert main(["check", mtx_file, "--shards", "2",
                 "--drill-persistent"]) == 3
    out = capsys.readouterr().out
    assert "RECOVERY IMPOSSIBLE" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["outcome"] == "recovery_impossible"
    assert payload["quarantined"] == [0, 1]
    assert payload["counters"]["device_quarantine"] == 2
    assert payload["injected"] > 0


def test_check_drill_persistent_needs_recovery_ladder(capsys, mtx_file):
    # Unsharded: no ladder to exhaust.
    assert main(["check", mtx_file, "--drill-persistent"]) == 2
    assert "--drill-persistent needs" in capsys.readouterr().err


def test_check_drill_persistent_process_backend(capsys, mtx_file):
    import json

    assert main(["check", mtx_file, "--shards", "2", "--backend", "process",
                 "--drill-persistent"]) == 3
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["outcome"] == "recovery_impossible"
    assert payload["quarantined"] == [0, 1]

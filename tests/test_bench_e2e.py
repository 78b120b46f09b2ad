"""benchmarks/bench_e2e.py reaches into hreb by module and function name; a
rename under src/ must fail here, not only when the script is next run."""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_an_aa_run_of_the_repository_tree_reports_both_sides(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "bench_e2e", os.path.join(ROOT, "benchmarks", "bench_e2e.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    # the n = 4 row, the ragged row and a smaller skewed row, one timed
    # pass each
    bench.LENGTHS = (4,)
    bench.SKEWED = [24] + [3] * 5
    bench.REPEATS = 1
    try:
        rows = bench.measure(os.path.join(ROOT, "src"))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "hreb_parent"]:
            del sys.modules[name]
    assert [row["n"] for row in rows] == [4, 0, -1]
    for row in rows:
        assert row["same_paths"] is True
        for timing in (row["decode_ms"], row["train_ms_per_sentence"]):
            assert timing["parent"]["median"] > 0 and timing["change"]["median"] > 0
            assert timing["ratio"] > 0
        batch, decode = row["record_ops_per_batch"], row["record_ops_per_decode"]
        assert batch["parent"] == batch["change"] > 0
        assert decode["parent"] == decode["change"]
        assert decode["change"]["first"] > decode["change"]["later"] > 0
        assert row["train_peak_mb"]["parent"] > 0 and row["train_peak_mb"]["change"] > 0

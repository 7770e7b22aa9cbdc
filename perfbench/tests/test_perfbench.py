"""Harness tests: every workload at the tiny size, a second seed, the tracer.

    python3 -m pytest perfbench/tests -q

The pipeline passes run in subprocesses exactly as the benchmark runs them;
the whole file takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results(workload: str, seed: str, trace: int) -> dict:
    name = f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return json.loads((ROOT / ".perfbench" / "results" / name).read_text())


def test_benchmark_json_names_what_the_harness_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_names = set(tr.layer_metrics([])) | {"cli.bytes_written",
                                               "trace_overhead_pct"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names
    for module in tr.MODULES:
        assert f"{module}.self_s" in layer_names
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_tiny_traced_and_second_seed(workload):
    traced = last_json(run_bench("--workload", workload, "--size", "tiny",
                                 "--seconds", "1", "--trace", "1"))
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] > 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["cli.bytes_written"]["value"] > 0
    forest = traced["metrics"]["signal_forest.fit_calls"]["value"]
    assert (forest == 0) == (workload == "retrain")

    plain = last_json(run_bench("--workload", workload, "--size", "tiny",
                                "--seconds", "1", "--trace", "0", "--seed", "2"))
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for name, m in plain["metrics"].items()
               if name != "frontier_gain_pct")

    first = results(workload, "none", 1)["passes"][0]["digests"]
    second = results(workload, "2", 0)["passes"][0]["digests"]
    assert first["paths.ehfp"] != second["paths.ehfp"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_frontiers_match_a_plain_cli_run(workload, tmp_path):
    """The benchmark's in-process run writes the same CSVs as `ehf` itself."""
    wl = WORKLOADS[workload]
    bench_dir, plain_dir = tmp_path / "bench", tmp_path / "plain"
    bench_dir.mkdir()
    plain_dir.mkdir()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                    workload, "--size", "tiny", "--seed", "5", "--spawned-at", "0"],
                   cwd=bench_dir, check=True, capture_output=True, timeout=170)
    for name in wl.configs:
        shutil.copy(bench_dir / f"{name}.ini", plain_dir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cmd, name in wl.steps:
        subprocess.run([sys.executable, "-m", "ehf.cli", cmd, "--config",
                        f"{name}.ini", "--jobs", str(wl.jobs), "--seed", "5"],
                       cwd=plain_dir, env=env, check=True, capture_output=True,
                       timeout=170)
    from ehf import cli
    configs = {name: str(bench_dir / f"{name}.ini") for name in wl.configs}
    expected = {f for f, cfg, mode in worker.expected_frontiers(cli, wl, configs)}
    frontiers = {p.name for p in (bench_dir / "out").glob("frontier_*.csv")}
    assert frontiers == expected
    for name in frontiers:
        assert (bench_dir / "out" / name).read_bytes() == \
            (plain_dir / "out" / name).read_bytes()


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "desk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_rebinds_from_imports_and_restores():
    import ehf.cli
    import ehf.frontier
    original = ehf.frontier.sweep_alpha
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert ehf.cli.sweep_alpha is ehf.frontier.sweep_alpha
        assert ehf.cli.sweep_alpha is not original
        assert ehf.cli.sweep_alpha.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert ehf.cli.sweep_alpha is original and ehf.frontier.sweep_alpha is original


def test_tracer_fails_loudly_on_a_missing_target(monkeypatch):
    import ehf.cli  # noqa: F401
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + (("cli", "cmd_renamed", None),))
    tracer = tr.Tracer()
    with pytest.raises(tr.TracerError, match="cmd_renamed"):
        tracer.install()
    tracer.uninstall()


def test_pool_thread_spans_nest_under_the_installing_thread():
    """Self time subtracts the union of child spans, including pool threads."""
    tracer = tr.Tracer()
    tracer.install()
    try:
        child = tracer._wrap("hedging_engine.train_policy", time.sleep, None)

        def sweep():
            threads = [threading.Thread(target=child, args=(0.05,))
                       for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()

        tracer._wrap("frontier.sweep_alpha", sweep, None)()
    finally:
        tracer.uninstall()
    parent = next(s for s in tracer.spans if s.name == "frontier.sweep_alpha")
    children = [s for s in tracer.spans if s.name == "hedging_engine.train_policy"]
    assert len(children) == 2 and all(c.parent == parent.id for c in children)
    own = tr.self_times(tracer.spans)[parent.id]
    assert 0 <= own < parent.duration - 0.04


def test_covered_merges_overlaps_and_clips():
    assert tr._covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tr._covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert tr._covered([], 0, 1) == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tr.tail_percentile(10000) == 99.9
    assert tr.tail_percentile(288) == 95.0
    assert tr.tail_percentile(1000) == 99.0
    assert tr.tail_percentile(3) == 50.0

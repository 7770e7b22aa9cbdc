"""Pipeline benchmark for `ehf`: run one workload for a fixed time, check it, report.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Runs whole `simulate ... report` pipeline passes of the workload (see
workloads.py), each in a fresh `worker.py` process, until `--seconds` would be
exceeded (at least MIN_PASSES passes). With `--trace 0` every pass is
untraced and the last stdout line carries the end-to-end metrics (median over
passes); with `--trace 1` traced and untraced passes alternate and it carries
the per-layer metrics (median over traced passes) plus the tracing overhead.
Every command's exit code, every frontier CSV, report.csv and the byte
identity of all artifacts between passes are checked; each such check is one
operation in `attempted`/`failed`. Without `--seed` the configs run with the
seeds they state; with one, it is passed to every command as `--seed N`.

Raw per-pass data and the machine description go to
`.perfbench/results/<workload>-<size>-seed<N>-trace<T>.json` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from worker import RESULT_FILE  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

MIN_PASSES = 3          # untraced passes; a traced run adds as many traced ones
HARD_LIMIT_S = 150.0    # never start a pass after this, whatever --seconds says
PASS_TIMEOUT_S = 170.0


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def run_pass(args, index: int, trace: bool) -> dict:
    """One pipeline pass in a fresh worker process; returns its result dict."""
    pass_dir = STATE / "work" / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--size", args.size, "--trace", str(int(trace))]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    with open(pass_dir / "worker.log", "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=pass_dir, stdout=log, stderr=subprocess.STDOUT,
                              timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (pass_dir / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    result = json.loads((pass_dir / RESULT_FILE).read_text())
    result["traced"] = trace
    shutil.rmtree(pass_dir)
    return result


def run_passes(args) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    per_round = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - start
        rounds = len(passes) // per_round
        if rounds >= MIN_PASSES:
            mean_round = elapsed / rounds
            if elapsed + mean_round > args.seconds:
                break
        if passes and elapsed > HARD_LIMIT_S:
            break
        passes.append(run_pass(args, len(passes), trace=False))
        if args.trace:
            passes.append(run_pass(args, len(passes), trace=True))
    return passes


def determinism_checks(passes: list[dict]) -> list[tuple[str, bool]]:
    """Every pass must write the same files, byte for byte, as the first."""
    reference = passes[0]["digests"]
    checks = []
    for p in passes[1:]:
        checks.append(("artifact set", sorted(p["digests"]) == sorted(reference)))
        checks += [(f"identical:{name}", p["digests"].get(name) == digest)
                   for name, digest in reference.items()]
    return checks


def summarize(args, passes: list[dict], end_to_end: dict[str, str]) -> dict:
    checks = [tuple(c) for p in passes for c in p["checks"]]
    checks += determinism_checks(passes)
    failed = [name for name, ok in checks if not ok]
    plain = [p for p in passes if not p["traced"]]
    e2e = {}
    for name in end_to_end:
        # a pass that could not compute frontier_gain_pct has failed a check
        values = [p[name] for p in plain if p[name] is not None]
        e2e[name] = statistics.median(values) if values else 0.0
    summary = {"correct": not failed, "attempted": len(checks),
               "failed": len(failed), "failed_checks": failed, "end_to_end": e2e}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        # passes alternate untraced, traced: compare each pair, which keeps
        # slow drifts of the machine's speed out of the ratio
        ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(plain, traced)]
        layers["trace_overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
        summary["per_layer"] = layers
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="input size (default: bench)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/ehf/cli.py", "configs/desk.ini", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an ehf checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units()

    try:
        passes = run_passes(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args, passes, end_to_end)
    if args.trace and set(summary["per_layer"]) != set(per_layer):
        print("error: traced metrics do not match BENCHMARK.json per_layer: "
              f"{sorted(set(summary['per_layer']) ^ set(per_layer))}", file=sys.stderr)
        return 1

    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "machine": passes[0]["machine"],
              "summary": summary, "passes": passes}
    seed_tag = "none" if args.seed is None else args.seed
    results_file = (results_dir / f"{args.workload}-{args.size}-seed{seed_tag}"
                                  f"-trace{args.trace}.json")
    results_file.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} (size {args.size}, seed {seed_tag}): "
          f"{len(passes)} passes")
    print("machine " + json.dumps(passes[0]["machine"], sort_keys=True))
    for name, unit in end_to_end.items():
        print(f"{name:<20} {summary['end_to_end'][name]:>14.6f} {unit}")
    print(f"{'error_rate':<20} {summary['failed'] / summary['attempted']:>14.6f} "
          f"ratio ({summary['failed']}/{summary['attempted']})")
    for name in summary["failed_checks"]:
        print(f"FAILED check {name}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit in per_layer.items()}
        for name, unit in per_layer.items():
            print(f"{name:<40} {summary['per_layer'][name]:>16.6f} {unit}")
    else:
        metrics = {name: {"value": summary["end_to_end"][name], "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

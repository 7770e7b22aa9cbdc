"""One pipeline pass of a benchmark workload, in a fresh process.

Run by `run.py`, one process per pass, from inside the pass's own directory:

    python3 perfbench/worker.py --workload desk --size bench --seed 3 \
        --trace 0 --spawned-at <CLOCK_MONOTONIC>

It imports `ehf` from the checkout's `src/`, writes the workload's configs,
drives the real CLI in-process through `ehf.cli.main([...])`, then checks the
artifacts and writes timings, check results and artifact digests as JSON to
`result.json`.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = "out"
RESULT_FILE = "result.json"

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS  # noqa: E402


def _snapshot(out: str) -> dict[str, tuple[int, int]]:
    """name -> (size, mtime) of the files in out, to count bytes written."""
    if not os.path.isdir(out):
        return {}
    stats = {e.name: e.stat() for e in os.scandir(out) if e.is_file()}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


def _digests(out: str) -> dict[str, str]:
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def blas_info() -> dict:
    """BLAS library, version and its thread count as the process sees it."""
    import numpy as np
    info = {"env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    return info


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_info()}


def expected_frontiers(cli, wl, configs: dict[str, str]) -> list[tuple]:
    """(file name, config, mode) of each frontier CSV the sweeps should write."""
    frontiers = []
    for cmd, name in wl.steps:
        if cmd != "sweep":
            continue
        cfg = cli.load_config(configs[name])
        for cost in cfg.cost_rates:
            for lam in cfg.risk_aversions:
                for policy, rf, mode in (("bsm", False, "fast"),
                                         (cfg.policy.arch, cfg.rf, cfg.mode)):
                    filename = (f"frontier_{policy}{'_rf' if rf else ''}"
                                f"_c{cost:g}_l{lam:g}.csv")
                    frontiers.append((filename, cfg, mode))
    return frontiers


def _frontier_checks(cli, wl, configs: dict[str, str]) -> list[tuple[str, bool]]:
    """One check per frontier CSV the sweeps should have written."""
    from ehf import EHFError
    from ehf.frontier import read_frontier_csv
    checks = []
    for filename, cfg, mode in expected_frontiers(cli, wl, configs):
        try:
            points = read_frontier_csv(os.path.join(OUT_DIR, filename))
            ok = (len(points) == len(cfg.alphas)
                  and all(p.n_test_paths == cfg.n_test and p.mode == mode
                          for p in points)
                  and all(math.isclose(p.alpha, a, abs_tol=1e-12)
                          for p, a in zip(points, cfg.alphas)))
        except (OSError, ValueError, EHFError) as exc:
            print(f"check {filename}: {exc}", file=sys.stderr)
            ok = False
        checks.append((f"frontier:{filename}", ok))
    return checks


def _report_check(wl) -> tuple[str, bool]:
    try:
        with open(os.path.join(OUT_DIR, "report.csv"), newline="") as fh:
            rows = [r["config"] for r in csv.DictReader(fh)]
    except (OSError, KeyError) as exc:
        print(f"check report.csv: {exc}", file=sys.stderr)
        rows = None
    return "report_rows", rows == list(wl.report_rows)


def frontier_gain_pct(cli, wl, config: str) -> float:
    """Policy's average mean loss over [alpha_lo, alpha_hi] vs the BSM frontier."""
    from ehf.frontier import read_frontier_csv, summarize_range
    cfg = cli.load_config(config)
    policy, base = (summarize_range(read_frontier_csv(os.path.join(OUT_DIR, f)),
                                    cfg.alpha_lo, cfg.alpha_hi)[0]
                    for f in wl.gain)
    return (policy - base) / abs(base) * 100.0


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics, span_counts
    sys.path.insert(0, str(ROOT / "src"))
    import ehf
    from ehf import cli
    if Path(ehf.__file__).resolve().parent != ROOT / "src" / "ehf":
        raise SystemExit(f"imported ehf from {ehf.__file__}, not from this checkout")
    base_ini = (ROOT / "configs" / "desk.ini").read_text()
    configs = {}
    for name in wl.configs:
        configs[name] = f"{name}.ini"
        Path(configs[name]).write_text(wl.config_text(base_ini, name, args.size))
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        tracer = Tracer()
        tracer.install()

    commands = []
    bytes_written = 0
    first = time.monotonic()
    for cmd, name in wl.steps:
        argv = [cmd, "--config", configs[name], "--jobs", str(wl.jobs)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        before = _snapshot(OUT_DIR)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejected the command line
            code = exc.code
        except Exception as exc:           # a traceback is a failed operation
            print(f"{cmd}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = f"{type(exc).__name__}"
        elapsed = time.perf_counter() - start
        after = _snapshot(OUT_DIR)
        bytes_written += sum(size for f, (size, mtime) in after.items()
                             if before.get(f) != (size, mtime))
        commands.append({"cmd": cmd, "config": name, "exit": code, "s": elapsed})
    last = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    checks = [(f"exit:{c['cmd']}:{c['config']}", c["exit"] == 0) for c in commands]
    checks += _frontier_checks(cli, wl, configs)
    checks.append(_report_check(wl))
    try:
        gain = frontier_gain_pct(cli, wl, configs[wl.steps[-1][1]])
    except (OSError, ValueError, ehf.EHFError) as exc:
        print(f"frontier gain: {exc}", file=sys.stderr)
        gain = float("nan")
    checks.append(("frontier_gain_finite", math.isfinite(gain)))
    if tracer is not None:
        counts = span_counts(tracer.spans)
        checks += [(f"span fired:{s}", counts.get(s, 0) > 0) for s in wl.expect_spans]
        checks += [(f"span absent:{s}", counts.get(s, 0) == 0) for s in wl.forbid_spans]

    result = {
        "setup_s": first - args.spawned_at,
        "wall_s": last - first,
        "sweep_s": sum(c["s"] for c in commands if c["cmd"] == "sweep"),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "frontier_gain_pct": gain if math.isfinite(gain) else None,
        "commands": commands,
        "checks": checks,
        "digests": _digests(OUT_DIR),
        "machine": machine_info(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        layers["cli.bytes_written"] = bytes_written
        result["layers"] = layers
        result["span_counts"] = counts
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", choices=SIZES, default="bench")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(RESULT_FILE, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the wall time and peak resident set size after each stage of a pipeline.

    python tools/stage_rss.py CONFIG [CONFIG ...] [--jobs N]

Runs `ehf simulate` and `label` on the first CONFIG, `train` and `sweep` on
each CONFIG in turn, and `report` on the last, in this one process, through
`ehf.cli.main` (it imports `ehf` from the `src/` next to it), into a
temporary directory that is removed afterwards. A forest-gated pipeline
passes its dense base config, then its gated one. After the import and
after each command it prints one line: the stage (command:config), its wall
time, and `ru_maxrss` in MB of this process and of its largest reaped child
(the forked `--jobs` workers). `ru_maxrss` only rises, so the stage whose
line first shows a process's final value is the one that sets its peak;
`perfbench/worker.py` reports the same `RUSAGE_SELF` value as `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import resource
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def steps(configs: list[str]):
    """(command, config) in pipeline order."""
    yield from (("simulate", configs[0]), ("label", configs[0]))
    for config in configs:
        yield from (("train", config), ("sweep", config))
    yield "report", configs[-1]


def maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def line(stage: str, wall: float) -> str:
    return (f"{stage:<24} {wall:8.3f} {maxrss_mb(resource.RUSAGE_SELF):10.1f} "
            f"{maxrss_mb(resource.RUSAGE_CHILDREN):12.1f}")


def main_stages(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/stage_rss.py", description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG", help="INI config file")
    parser.add_argument("--jobs", type=int, default=1, help="passed to every command")
    args = parser.parse_args(argv)
    print(f"{'stage':<24} {'wall_s':>8} {'maxrss_mb':>10} {'child_rss_mb':>12}")
    start = time.perf_counter()
    from ehf.cli import main
    print(line("import", time.perf_counter() - start))
    with tempfile.TemporaryDirectory() as out:
        for command, config in steps(args.configs):
            cmd = [command, "--config", config, "--out", out, "--jobs", str(args.jobs)]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(cmd)
            if code:
                print(f"ehf {' '.join(cmd)} exited {code}", file=sys.stderr)
                return code
            print(line(f"{command}:{pathlib.Path(config).stem}",
                       time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main_stages(sys.argv[1:]))

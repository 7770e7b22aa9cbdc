"""Print the sha256 of every artifact and record of four small reference pipelines.

    python tools/artifact_digests.py OUTDIR

Each pipeline writes its config (configs/desk.ini plus a few overrides: 900
paths, two epochs, and beta 0.02, at which the forest votes 0 on some days)
and runs `ehf` commands through `ehf.cli.main` into
OUTDIR/<pipeline>/<jobs>, once with `--jobs 1` and once with `--jobs 2`:

* dense   - the dense fast-sweep pipeline, `label` included;
* gated   - a dense base, then a GRU swept under the forecast gate;
* oracle  - a dense base, then a dense policy swept under the oracle gate
            that also reads the gate label as an input;
* retrain - `mode = retrain` on an 8-point grid.

The output opens with `#` lines that name what the bytes depend on besides
the source: the Python and numpy versions and numpy's BLAS build. Then comes
one sorted `sha256  pipeline/jobs/file` line per file. Two trees give the
same output when their artifacts are byte-identical, so running this script
on two checkouts (it imports `ehf` from the `src/` next to it) checks that a
change kept every artifact, and comparing the two jobs values of one output
checks that `--jobs` changes none. `tests/test_artifact_digests.py` compares
the output with `tests/golden/artifact_digests.txt`; a change that moves
artifacts on purpose regenerates that file:

    python tools/artifact_digests.py "$(mktemp -d)" > tests/golden/artifact_digests.txt
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ehf.cli import main  # noqa: E402

SHARED = {"simulation": {"n_paths": "900", "n_train": "600", "n_test": "300"},
          "labels": {"fit_rows": "600", "beta": "0.02"},
          "training": {"epochs": "2"}}
DENSE = {"policy": {"arch": "dense"}}
# pipeline -> ((command, {section: {key: value}} over SHARED), ...)
PIPELINES = {
    "dense": tuple((cmd, DENSE) for cmd in
                   ("simulate", "label", "train", "sweep", "report")),
    "gated": (("simulate", DENSE), ("label", DENSE), ("train", DENSE),
              ("sweep", DENSE),
              *((cmd, {"policy": {"arch": "gru"},
                       "labels": {"gate": "forecast"}, "sweep": {"rf": "true"}})
                for cmd in ("train", "sweep", "report"))),
    "oracle": (("simulate", DENSE), ("train", DENSE), ("sweep", DENSE),
               *((cmd, {"policy": {"arch": "dense", "use_label": "true"},
                        "labels": {"gate": "oracle"}, "sweep": {"rf": "true"}})
                 for cmd in ("train", "sweep", "report"))),
    "retrain": tuple((cmd, {"sweep": {"mode": "retrain", "alphas": "0:0.14:8",
                                      "cost_rates": "0.05"}})
                     for cmd in ("simulate", "sweep", "report")),
}


def write_config(filename: pathlib.Path, overrides: dict) -> None:
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    ini.read(ROOT / "configs" / "desk.ini")
    for layer in (SHARED, overrides):
        for section, values in layer.items():
            for key, value in values.items():
                ini.set(section, key, value)
    with open(filename, "w") as fh:
        ini.write(fh)


def run(out: pathlib.Path, pipeline: str, jobs: int) -> None:
    work = out / pipeline / str(jobs)
    work.mkdir(parents=True)
    config = out / pipeline / f"{jobs}.ini"
    for command, overrides in PIPELINES[pipeline]:
        write_config(config, overrides)
        argv = [command, "--config", str(config), "--out", str(work),
                "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code:
            raise SystemExit(f"ehf {' '.join(argv)} exited {code}")


def header_lines() -> list[str]:
    """The `#` lines naming the Python, numpy and BLAS builds."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = " ".join(str(blas.get(key, "?"))
                     for key in ("name", "version", "openblas configuration"))
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {build}"]


def digest_lines(out: pathlib.Path) -> list[str]:
    files = sorted(f for f in out.glob("*/*/*") if f.is_file())
    return [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  "
            f"{f.relative_to(out).as_posix()}" for f in files]


def main_digests(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digests.py OUTDIR", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    for pipeline in PIPELINES:
        for jobs in (1, 2):
            run(out, pipeline, jobs)
    print("\n".join(header_lines() + digest_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main_digests(sys.argv[1:]))

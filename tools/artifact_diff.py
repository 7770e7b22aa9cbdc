"""Print how far apart the numbers of two artifact trees are, file by file.

    python tools/artifact_diff.py DIR_A DIR_B

DIR_A and DIR_B are OUTDIRs of tools/artifact_digests.py, typically written
by two checkouts. For every file of the two trees whose bytes differ, one
line gives its path and:

* a CSV - the max absolute and max relative difference over the cells that
  are numbers in both files (matched by row and column), and the count of
  other cells that differ;
* a container file (.ehfm checkpoints, .ehfp paths, .ehff forests, .ehfl
  labels, told apart by their magic) - the same over all blocks, matched by
  name, and the blocks whose names or shapes differ, of files of any version
  (both versions when they differ);
* a JSON manifest - its top-level keys whose values differ;
* anything else - only that it differs.

The relative difference of two numbers a and b is |a - b| / max(|a|, |b|),
0 when both are 0. A last line counts the files that differ and the files
that only one tree has.
"""

from __future__ import annotations

import csv
import itertools
import json
import pathlib
import struct
import sys
from unittest import mock

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ehf import container  # noqa: E402

KINDS = {magic: kind for kind, (magic, _) in container.FORMATS.items()}


def _differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(max |a - b|, max |a - b| / max(|a|, |b|)) of equal-shape arrays;
    NaN in both is no difference."""
    both_nan = np.isnan(a) & np.isnan(b)
    a, b = np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b)
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
    return (float(gap.max(initial=0.0)), float(rel.max(initial=0.0)))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_line(file_a: pathlib.Path, file_b: pathlib.Path) -> str:
    with open(file_a, newline="") as fa, open(file_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "CSV shape differs"
    pairs, other = [], 0
    cells = itertools.chain.from_iterable
    for cell_a, cell_b in zip(cells(rows_a), cells(rows_b)):
        x, y = _number(cell_a), _number(cell_b)
        if x is not None and y is not None:
            pairs.append((x, y))
        elif cell_a != cell_b:
            other += 1
    gap, rel = _differences(*np.array(pairs, dtype=np.float64).reshape(-1, 2).T)
    return f"max abs {gap:.3g}  max rel {rel:.3g}  other cells differing {other}"


def _load_any_version(file: pathlib.Path, kind: str) -> tuple[int, tuple]:
    """(version, container.load's result) of a file of `kind` in whatever
    version its header names; container.load itself reads only this
    checkout's version, so it is asked for the file's own."""
    version = struct.unpack_from("<I", file.read_bytes(), 4)[0]
    with mock.patch.dict(container.FORMATS, {kind: (container.FORMATS[kind][0], version)}):
        return version, container.load(file, kind)


def _container_line(file_a: pathlib.Path, file_b: pathlib.Path, kind: str) -> str:
    (version_a, (tag_a, meta_a, blocks_a)), (version_b, (tag_b, meta_b, blocks_b)) = (
        _load_any_version(f, kind) for f in (file_a, file_b))
    same = sorted(k for k in blocks_a.keys() & blocks_b.keys()
                  if blocks_a[k].shape == blocks_b[k].shape)
    gap, rel = _differences(
        np.concatenate([blocks_a[k].ravel() for k in same] or [np.zeros(0)]),
        np.concatenate([blocks_b[k].ravel() for k in same] or [np.zeros(0)]))
    line = f"max abs {gap:.3g}  max rel {rel:.3g} over {len(same)} blocks"
    if version_a != version_b:
        line += f"  versions {version_a} and {version_b}"
    unmatched = sorted((blocks_a.keys() | blocks_b.keys()) - set(same))
    if unmatched:
        line += f"  unmatched blocks {unmatched}"
    if (tag_a, meta_a) != (tag_b, meta_b):
        line += "  header differs"
    return line


def diff_line(file_a: pathlib.Path, file_b: pathlib.Path) -> str:
    """What differs between two files whose bytes differ."""
    with open(file_a, "rb") as fh:
        magic = fh.read(4)
    if magic in KINDS:
        return _container_line(file_a, file_b, KINDS[magic])
    if file_a.suffix == ".csv":
        return _csv_line(file_a, file_b)
    if file_a.suffix == ".json":
        a, b = (json.loads(f.read_text()) for f in (file_a, file_b))
        if isinstance(a, dict) and isinstance(b, dict):
            keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            return f"keys differing {keys}"
    return "differs"


def _files(tree: pathlib.Path) -> set[str]:
    return {f.relative_to(tree).as_posix() for f in tree.rglob("*") if f.is_file()}


def main_diff(argv: list[str]) -> int:
    if len(argv) != 2 or not all(pathlib.Path(d).is_dir() for d in argv):
        print("usage: python tools/artifact_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    tree_a, tree_b = map(pathlib.Path, argv)
    files_a, files_b = _files(tree_a), _files(tree_b)
    differing = 0
    for name in sorted(files_a & files_b):
        file_a, file_b = tree_a / name, tree_b / name
        if file_a.read_bytes() != file_b.read_bytes():
            differing += 1
            print(f"{name}  {diff_line(file_a, file_b)}")
    only = sorted(files_a ^ files_b)
    for name in only:
        print(f"{name}  only in {tree_a if name in files_a else tree_b}")
    print(f"{differing} of {len(files_a & files_b)} common files differ; "
          f"{len(only)} files are in one tree only")
    return 0


if __name__ == "__main__":
    sys.exit(main_diff(sys.argv[1:]))

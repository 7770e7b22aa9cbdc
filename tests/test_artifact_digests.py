"""Every artifact of the four reference pipelines keeps its bytes.

`tools/artifact_digests.py` runs four small pipelines and prints the sha256
of every file they write. `tests/golden/artifact_digests.txt` holds its
output as committed: this test reruns the pipelines and requires the same
digests, so a change that moves bits by accident fails tier-1. A change that
moves them on purpose regenerates the golden file (the tool's docstring
gives the command) and names every moved file and why.

The bytes also depend on the build the golden file names in its `#` lines
(Python, numpy, numpy's BLAS): the BLAS kernels a product takes set some
last bits. On any other build the test is skipped, never passed.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digests.py"
GOLDEN = ROOT / "tests" / "golden" / "artifact_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _by_file(lines):
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_reference_pipelines_write_the_golden_artifacts(tmp_path):
    tool = _tool()
    golden = GOLDEN.read_text().splitlines()
    want_header = [line for line in golden if line.startswith("#")]
    header = tool.header_lines()
    if header != want_header:
        differ = [f"{here!r} here, {there!r} in the golden file"
                  for here, there in zip(header, want_header) if here != there]
        pytest.skip(f"{GOLDEN.name} was taken on another build: " + "; ".join(
            differ or [f"{len(header)} header lines against {len(want_header)}"]))
    for pipeline in tool.PIPELINES:
        for jobs in (1, 2):
            tool.run(tmp_path, pipeline, jobs)
    got = _by_file(tool.digest_lines(tmp_path))
    want = _by_file(line for line in golden if not line.startswith("#"))
    moved = sorted(name for name in got.keys() & want.keys() if got[name] != want[name])
    differ = [f"{kind:8} {name}" for kind, names in (
        ("moved", moved), ("missing", sorted(want.keys() - got.keys())),
        ("extra", sorted(got.keys() - want.keys()))) for name in names]
    if differ:   # pytest.fail, unlike an assert message, is never truncated
        pytest.fail("\n".join([
            f"the artifacts differ from {GOLDEN.relative_to(ROOT)}:", *differ,
            "To see by how much, run `python tools/artifact_digests.py DIR` on this "
            "tree and on the parent's, then `python tools/artifact_diff.py DIR_PARENT DIR`."]),
            pytrace=False)

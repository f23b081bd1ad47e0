"""Every fenced ``python`` block of README.md runs as written, and the quick
start prints the figures its comments state."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _run(block: str) -> list[str]:
    """The lines the block prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(block):
    _run(block)


def test_quick_start_prints_the_figures_in_its_comment():
    block = BLOCKS[0]
    claim = re.search(r"^print\(star\.r_b, star\.mass, star\.f\(0\.0\)\)\s+# (.+)$", block, re.M)
    assert claim is not None
    figures = [s.strip() for s in claim.group(1).split(",")]
    assert figures == ["8.7404", "2.7969", "0.4000"]
    printed = _run(block)[0].split()
    assert [f"{float(x):.4f}" for x in printed] == figures


def test_catalog_quick_start_passes():
    (block,) = [b for b in BLOCKS if "catalog.build" in b]
    assert _run(block) == ["True"]

"""tools/ab_pass.py: two checkouts side by side in one interpreter."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_PASS = os.path.join(ROOT, "tools", "ab_pass.py")


def _ab_pass(*args):
    return subprocess.run([sys.executable, AB_PASS, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)


def _edited_copy(tmp_path, module: str, old: str, new: str) -> str:
    """A checkout holding a copy of this one's src/ with ``old`` replaced by
    ``new`` in ``staticstar/module``."""
    other = tmp_path / "other"
    shutil.copytree(os.path.join(ROOT, "src"), other / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = other / "src" / "staticstar" / module
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(other)


def test_a_checkout_against_itself_gives_the_same_bytes():
    proc = _ab_pass(ROOT, ROOT, "--passes", "2", "--workload", "conformal_build")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert line.startswith("conformal_build seed=1 requests=13 pairs=2 change/parent CPU median=")


def test_a_checkout_whose_outputs_differ_exits_1(tmp_path):
    """A step-size safety factor of 0.8 for scipy's 0.9: other steps, other floats."""
    other = _edited_copy(tmp_path, "numerics.py", "_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9,",
                         "_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.8,")
    proc = _ab_pass(ROOT, other, "--passes", "1", "--workload", "tov_stars")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "tov_stars: the outputs differ at\nstaticstar tov " in proc.stderr


def test_a_checkout_whose_stderr_alone_differs_exits_1(tmp_path):
    """One more space in the usage-error line: same exit codes, same stdout."""
    other = _edited_copy(tmp_path, "cli.py", 'print(f"error: {exc}", file=sys.stderr)',
                         'print(f"error:  {exc}", file=sys.stderr)')
    proc = _ab_pass(ROOT, other, "--passes", "1", "--workload", "catalog_verify")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "catalog_verify: the outputs differ at\nstaticstar verify no_such_model" in proc.stderr

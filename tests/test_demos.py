"""Each demo script, and the README's library example, must run to
completion against the source tree."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

CASES = [
    ("reproduce_reference_table.py", "checked: p_1 + p_(n-1) = 1"),
    ("four_methods_one_cell.py", "all four pipelines agree: p = 7/17"),
    ("limits_and_rates.py", "holds exactly for every n up to 30"),
]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


@pytest.mark.parametrize("script,marker", CASES, ids=[c[0] for c in CASES])
def test_demo_runs(script: str, marker: str) -> None:
    proc = _run_python(str(DEMOS / script))
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout


def test_readme_library_example_runs() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    proc = _run_python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr

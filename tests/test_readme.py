"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                    flags=re.DOTALL | re.MULTILINE)


def test_every_python_block_of_the_readme_runs():
    assert BLOCKS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    for block in BLOCKS:
        done = subprocess.run([sys.executable, "-c", block], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, block + done.stderr


def test_every_test_the_fast_path_ledger_names_exists():
    ledger = (REPO / "README.md").read_text().partition(
        "### Fast-path ledger")[2].partition("\n## ")[0]
    named = re.findall(r"`(tests/\w+\.py)::(\w+)`", ledger)
    assert len(named) == 14
    for path, name in named:
        assert re.search(rf"^def {name}\(", (REPO / path).read_text(),
                         flags=re.MULTILINE), (path, name)

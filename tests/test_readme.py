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

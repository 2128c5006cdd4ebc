"""Smoke test of the benchmark tracer (perfbench/tracer.py).

The tracer wraps lienil's public functions and methods by name from
outside the package, so a rename in src/ silently drops a layer from the
per-layer metrics.  This runs four CLI invocations under it in a fresh
interpreter and checks that the names it relies on still record calls.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from lienil.catalog import DATA_DIR

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
from tracer import Tracer
import lienil.cli
from lienil import catalog, subgroups

tracer = Tracer()
tracer.install()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(lienil.cli.main(["verify-tables", sys.argv[1]]))
    codes.append(lienil.cli.main(["index", "--builder", "dihedral:16"]))
    codes.append(lienil.cli.main(["oracle", "--builder", "dihedral:16"]))
    # G' of this group passes a row's derived-subgroup test, so clauses run
    codes.append(lienil.cli.main(["classify", "--builder", "free_class2:5", "-p", "2"]))
# no run enumerates a subgroup's element set
subgroups.whole_group(catalog.build_dihedral(16).group).elements
print(json.dumps({"codes": codes, "calls": tracer.report()["calls"]}))
"""


def test_tracer_records_the_layers_it_wraps_by_name(tmp_path):
    shutil.copy(DATA_DIR / "s243_37.pres", tmp_path)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(REPO / "perfbench"), str(REPO / "src")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    for name in ("subgroups.enumerated", "subgroups.power_subgroup",
                 "dimension.lie_dimension_chain", "oracle.upper_lie_chain",
                 "oracle.lower_lie_chain", "oracle.bracket_with_basis",
                 "fp_linalg.add_block", "classify.match_conditions",
                 "classify.evaluate_clause"):
        assert result["calls"].get(name, 0) > 0, name

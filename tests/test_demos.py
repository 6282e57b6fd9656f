"""Smoke runs of the demos and of the README's library sketch.

The demos drive descent, the ranking spaces, concordancy, 2NRQ and the start
graph's diameter and expansion, the last under the slow mark.  The
range-query demo runs ``run_2nrq``, which verifies on a worker thread, from a
script, so a worker thread that kept the interpreter from exiting would show
up as a timeout.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable] + argv, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("script", ["descent_success_and_failure.py", "ranking_spaces_tour.py",
                                    "range_query_schedule_and_simulation.py",
                                    "concordancy_and_embeddings.py"])
def test_demo_runs_clean(script):
    done = run_python([str(ROOT / "demos" / script)])
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.slow
def test_start_graph_demo_runs_clean():
    # its diameter measurements at n = 10^4 took about 17 s on a 2-CPU host
    done = run_python([str(ROOT / "demos" / "start_graph_geometry.py")])
    assert "Traceback" not in done.stdout + done.stderr


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    recall_line, schedule_line = run_python(["-c", sketch]).stdout.splitlines()
    assert recall_line == "1.0 15287"
    tau, rate = schedule_line.split()
    assert tau == "8" and round(float(rate), 2) == 0.39

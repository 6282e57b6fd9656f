"""Smoke runs of the demos that drive descent, the ranking spaces, concordancy and 2NRQ.

The range-query demo runs a verified ``run_2nrq`` from a script, so a worker
thread that kept the interpreter from exiting would show up as a timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["descent_success_and_failure.py", "ranking_spaces_tour.py",
                                    "range_query_schedule_and_simulation.py",
                                    "concordancy_and_embeddings.py"])
def test_demo_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr

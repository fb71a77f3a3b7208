"""The scripts under tools/ against the package they time."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_stages_wrap_points_resolve():
    # importing the script sets the BLAS thread variables and sys.path, so
    # it runs in its own interpreter; a wrapped function that was renamed
    # or deleted would otherwise show only when the script is run
    code = ("import importlib, json, sys\n"
            "sys.path.insert(0, 'tools')\n"
            "import bench_stages\n"
            "points = (bench_stages.wrap_points()\n"
            "          + bench_stages.source_points())\n"
            "missing = [(m, a) for _, m, a in points\n"
            "           if not hasattr(importlib.import_module(m), a)]\n"
            "print(json.dumps([len(points), missing]))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    count, missing = json.loads(out.stdout.splitlines()[-1])
    assert count > 0
    assert missing == []


def test_heldout_imports_and_runs_known_strategies():
    # the script imports its strategy list from the acceptance suite and
    # sets environment variables and sys.path, so it is imported in its
    # own interpreter; a broken import would otherwise show only when its
    # minutes-long run is started
    code = ("import json, sys\n"
            "sys.path.insert(0, 'tools')\n"
            "import heldout\n"
            "from contda import harness\n"
            "names = [s for _, s, _ in heldout.STRATEGIES]\n"
            "print(json.dumps([len(names), [s for s in names\n"
            "                  if s not in harness.STRATEGIES]]))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    count, unknown = json.loads(out.stdout.splitlines()[-1])
    assert count > 0
    assert unknown == []

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
            "points = bench_stages.wrap_points()\n"
            "missing = [(m, a) for _, m, a in points\n"
            "           if not hasattr(importlib.import_module(m), a)]\n"
            "print(json.dumps([len(points), missing]))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    count, missing = json.loads(out.stdout.splitlines()[-1])
    assert count > 0
    assert missing == []

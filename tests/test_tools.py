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
            "import heldout, test_acceptance\n"
            "from contda import harness\n"
            "names = [s for _, s, _ in test_acceptance.STRATEGIES]\n"
            "print(json.dumps([len(names), [s for s in names\n"
            "                  if s not in harness.STRATEGIES],\n"
            "                  heldout.run_strategies\n"
            "                  is test_acceptance.run_strategies]))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    count, unknown, shared = json.loads(out.stdout.splitlines()[-1])
    assert count > 0
    assert unknown == []
    assert shared


def test_heldout_and_suite_gates_fail_a_near_tie():
    # a chain link of -3e-7, and a forgetting margin 3e-7 short of MARGIN,
    # fail the suite's gates and the held-out tool's alike: six-decimal
    # means would round both gaps away; the same means without them pass
    code = ("import json, sys\n"
            "sys.path.insert(0, 'tools')\n"
            "import heldout, test_acceptance as ta\n"
            "def runs(link, short):\n"
            "    acc = {'grcl': 0.9, 'crt_sdc': 0.85, 'crt_src': 0.85 - link,\n"
            "           'src_only': 0.8}\n"
            "    bwt = {'grcl': ta.MARGIN - short}\n"
            "    out = {lab: {'acc': 0.7, 'bwt': 0.0} for lab in ta.GRID_LABELS}\n"
            "    out.update({lab: {'acc': a, 'bwt': bwt.get(lab, 0.0)}\n"
            "                for lab, a in acc.items()})\n"
            "    return out\n"
            "verdicts = []\n"
            "for link, short in ((-3e-7, 0.0), (0.0, 3e-7), (0.0, 0.0)):\n"
            "    r = runs(link, short)\n"
            "    acc = {lab: v['acc'] for lab, v in r.items()}\n"
            "    bwt = {lab: v['bwt'] for lab, v in r.items()}\n"
            "    g = heldout.gates(r)\n"
            "    verdicts.append([ta.chain_holds(acc), g['chain']['holds'],\n"
            "                     ta.forgetting_holds(acc, bwt, ta.best_grid(acc)),\n"
            "                     g['forgetting']['holds']])\n"
            "print(json.dumps(verdicts))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    link, margin, clean = json.loads(out.stdout.splitlines()[-1])
    assert link == [False, False, True, True]
    assert margin == [True, True, False, False]
    assert clean == [True, True, True, True]

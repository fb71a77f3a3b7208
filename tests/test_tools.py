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


def test_bench_stages_source_figures_per_config_seed(tmp_path):
    # the source-only figures divide by the config's seed count: a traced
    # three-seed src_only run makes one lockstep pretrain_source call and
    # generates each seed's sequence twice; the figures of synthetic spans
    # are their sums per seed.  Importing the script sets the BLAS thread
    # variables and sys.path, so it runs in its own interpreter
    code = ("import json, sys\n"
            "sys.path.insert(0, 'tools')\n"
            "import bench_stages as bs\n"
            "from contda import cli\n"
            "cfg = cli.validate_config({\n"
            "    'preset': 'moons-4', 'strategy': 'src_only',\n"
            "    'seeds': [1, 2, 3], 'pretrain_epochs': 1,\n"
            "    'output_dir': sys.argv[1]})\n"
            "tracer = bs.tracer_mod.Tracer(points=bs.source_points())\n"
            "with tracer.installed():\n"
            "    cli.run_config(cfg)\n"
            "traced = bs.source_figures(tracer.spans, 1.0, len(cfg['seeds']))\n"
            "spans = [['datagen.generate_sequence', 0.0, 0.002, -1, None]] * 10\n"
            "spans += [['harness.pretrain_source', 1.0, 1.5, -1, None],\n"
            "          ['harness.evaluate', 2.0, 2.005, -1, None]]\n"
            "made = bs.source_figures(spans, 0.01, 5)\n"
            "print(json.dumps([traced['seeds'], traced['calls'], made]))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    seeds, calls, made = json.loads(out.stdout.splitlines()[-1])
    assert seeds == 3
    assert calls["harness.pretrain_source"] == 1
    assert calls["datagen.generate_sequence"] == 6
    assert calls["harness.evaluate"] > 0
    assert made["seeds"] == 5
    assert made["ms_per_seed"] == {"datagen.generate_sequence": 4.0,
                                   "harness.pretrain_source": 100.0,
                                   "harness.evaluate": 1.0}
    assert made["ref_per_seed"]["harness.pretrain_source"] == 10.0


def test_perfbench_plans_every_workload(tmp_path):
    # perfbench builds each workload's config with run.make_config, checks
    # it with cli.validate_config and counts its pretraining and warm-up
    # steps with run.planned_steps, which calls cli.build_plan and
    # cli.load_domains per seed; run.py sets the BLAS thread variables at
    # import, so it runs in its own interpreter, against src/, and only
    # reads: the configs' output directory stays empty
    code = ("import json, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import run\n"
            "cli = run.import_contda()\n"
            "spec = run.load_spec()\n"
            "steps = {}\n"
            "for name in spec['workloads']:\n"
            "    cfg = cli.validate_config(run.make_config(\n"
            "        spec, name, 11, sys.argv[1]))\n"
            "    seeds = cfg.get('seeds') or [cfg['seed']]\n"
            "    plan = cli.build_plan(cfg, seeds[0])\n"
            "    steps[name] = [len(seeds) * plan.pretrain_epochs,\n"
            "                   run.planned_steps(cli, cfg, seeds)]\n"
            "print(json.dumps(steps))\n")
    out_dir = tmp_path / "out"
    out = subprocess.run([sys.executable, "-c", code, str(out_dir)],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    steps = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(steps) == sorted(workloads)
    for name, (epochs, planned) in steps.items():
        # at least one step per pretraining epoch of every seed
        assert planned >= epochs > 0, name
    assert not out_dir.exists()


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


def test_perfbench_observer_reads_a_traced_run(tmp_path):
    # perfbench --trace 1 hooks cli.load_domains, datagen.generate_sequence,
    # bank.init_bank and memory.build_memory, and reads Dataset.ids and
    # EpisodicMemory.ids to score the memories' pseudo-labels; run.py sets
    # the BLAS thread variables at import, so it runs in its own interpreter
    code = ("import json, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import run\n"
            "cli = run.import_contda()\n"
            "import checks\n"
            "cfg = cli.validate_config({\n"
            "    'preset': 'rot-blobs-5', 'strategy': 'grcl', 'seed': 11,\n"
            "    'pretrain_epochs': 1, 'warm_epochs': 0,\n"
            "    'epochs_per_domain': 1, 'output_dir': sys.argv[1]})\n"
            "obs = run.Observer(1)\n"
            "with obs.tracer.installed():\n"
            "    cli.run_config(cfg)\n"
            "hooked = set(obs.tracer.on_enter) | set(obs.tracer.on_exit)\n"
            "memories = obs.labelled_memories()\n"
            "overall, _ = checks.label_precision(\n"
            "    [(d, p, y) for _, d, p, y in memories])\n"
            "print(json.dumps([sorted(hooked & set(obs.tracer.absent)),\n"
            "                  list(obs.seed_of.values()), len(obs.bank_sizes),\n"
            "                  len(memories), overall]))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    absent, seeds, banks, count, precision = json.loads(
        out.stdout.splitlines()[-1])
    assert absent == []
    assert seeds == [11]
    assert banks > 0
    assert count == 3
    assert 0.0 < precision <= 1.0

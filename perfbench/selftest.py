"""The benchmark's own tests: tracer install/restore, self-time arithmetic,
label precision, output checks, and agreement of spec.json with
BENCHMARK.json.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import shutil
import sys
import tempfile
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from contda import cli, harness  # noqa: E402

FAKE = "perfbench_selftest_fake"


def _fake_module():
    mod = types.ModuleType(FAKE)

    def leaf(x):
        return x + 1

    class Thing:
        def method(self, x):
            return mod.leaf(x) * 2

    mod.leaf, mod.Thing = leaf, Thing
    sys.modules[FAKE] = mod
    return mod


class TracerInstall(unittest.TestCase):
    def tearDown(self):
        sys.modules.pop(FAKE, None)

    def test_restores_originals_when_the_run_raises(self):
        mod = _fake_module()
        leaf, method = mod.leaf, vars(mod.Thing)["method"]
        t = tracer_mod.Tracer([
            ("fake.leaf", FAKE, "leaf"),
            ("fake.method", FAKE, "Thing.method"),
            ("fake.gone", FAKE, "gone"),
            ("fake.no_class", FAKE, "Missing.method"),
            ("fake.no_module", "perfbench_no_such_module", "leaf"),
        ])
        with self.assertRaises(RuntimeError):
            with t.installed():
                self.assertIsNot(mod.leaf, leaf)
                self.assertEqual(mod.Thing().method(1), 4)
                raise RuntimeError("run failed")
        self.assertIs(mod.leaf, leaf)
        self.assertIs(vars(mod.Thing)["method"], method)
        self.assertEqual(t.absent, ["fake.gone", "fake.no_class", "fake.no_module"])
        self.assertEqual([(s[0], s[3]) for s in t.spans],
                         [("fake.method", -1), ("fake.leaf", 0)])

    def test_contda_wrap_points_all_present_and_restored(self):
        import importlib
        before = []
        for _, module, path in tracer_mod.WRAP_POINTS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            before.append((owner, attr, vars(owner)[attr]))
        t = tracer_mod.Tracer()
        with t.installed():
            self.assertEqual(t.absent, [])
            self.assertTrue(all(vars(o)[a] is not f for o, a, f in before))
        self.assertTrue(all(vars(o)[a] is f for o, a, f in before))


class SpanArithmetic(unittest.TestCase):
    # root 0..10 with children A 1..4 (grandchild 2..3), B 3..6 overlapping A,
    # and C 9..12 running past the root's end
    SPANS = [["root", 0.0, 10.0, -1, "t"], ["A", 1.0, 4.0, 0, "t"],
             ["A.g", 2.0, 3.0, 1, "t"], ["B", 3.0, 6.0, 0, "t"],
             ["C", 9.0, 12.0, 0, "t"]]

    def test_self_time_subtracts_the_union_of_children(self):
        got = tracer_mod.self_times(self.SPANS)
        # root: children cover 1..6 and 9..10, so 10 - 6
        self.assertEqual(got, [4.0, 2.0, 1.0, 3.0, 3.0])

    def test_summarize_and_ancestry(self):
        s = tracer_mod.summarize(self.SPANS + [["A", 20.0, 21.0, -1, "u"]])
        self.assertEqual(s["A"], {"calls": 2, "total_s": 4.0, "self_s": 3.0})
        self.assertTrue(tracer_mod.has_ancestor(self.SPANS, 2, "root"))
        self.assertFalse(tracer_mod.has_ancestor(self.SPANS, 3, "A"))


class LabelPrecision(unittest.TestCase):
    def test_hand_case(self):
        overall, by_domain = checks.label_precision([
            (1, [0, 1, 2, 3], [0, 1, 2, 0]),
            (2, [1, 1], [0, 0]),
            (1, [3], [3]),
        ])
        self.assertEqual(by_domain, {1: 4 / 5, 2: 0.0})
        self.assertEqual(overall, 4 / 7)

    def test_no_memories(self):
        self.assertEqual(checks.label_precision([]), (None, {}))


class OutputChecks(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-",
                                    dir=os.path.join(ROOT, ".perfbench_out"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def _write(self, values, metrics):
        matrix = harness.AccuracyMatrix(values=values)
        cli.write_matrix_csv(matrix, os.path.join(self.dir, "rmatrix.csv"))
        cli.write_metrics_json(metrics, os.path.join(self.dir, "metrics.json"))
        cli.write_diagnostics_csv([], os.path.join(self.dir, "diagnostics.csv"))

    def _values(self, last_row):
        return [[0.9, math.nan, math.nan], [0.8, 0.7, math.nan], last_row]

    def test_consistent_seed_passes(self):
        values = self._values([0.85, 0.6, 0.75])
        metrics = harness.compute_metrics(
            harness.AccuracyMatrix(values=np.array(values)), 2)
        self._write(np.array(values), metrics)
        self.assertEqual(checks.check_seed(self.dir, "src_only"), [])

    def test_mismatched_metrics_and_bad_matrix_fail(self):
        values = np.array(self._values([0.85, 0.6, 0.75]))
        self._write(values, harness.Metrics(acc=1.0, acc_mean=0.5, bwt=0.0))
        self.assertTrue(checks.check_seed(self.dir, "src_only"))
        values[2, 1] = 1.5
        self._write(values, harness.compute_metrics(
            harness.AccuracyMatrix(values=values), 2))
        self.assertTrue(checks.check_seed(self.dir, "src_only"))


class Declarations(unittest.TestCase):
    def test_spec_agrees_with_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "spec.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {k: v["why"] for k, v in spec["workloads"].items()})
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in bench["end_to_end"] + bench["per_layer"]}
        self.assertEqual(declared, {k: (v["unit"], v["better"])
                                    for k, v in spec["metrics"].items()})
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [k for k, v in spec["metrics"].items()
                          if v["layer"] == "end_to_end"])
        for name, entry in spec["metrics"].items():
            for target, workloads in entry.get("moves", {}).items():
                self.assertIn(target, spec["metrics"], name)
                self.assertLessEqual(set(workloads), set(spec["workloads"]), name)


if __name__ == "__main__":
    unittest.main()

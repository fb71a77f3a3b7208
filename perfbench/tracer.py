"""Span-recording wrappers installed around contda's public functions.

The wrappers replace each function at the module or class attribute that
callers look up at call time (for example `contrastive.log_softmax`, the
name `contrastive` binds at import), so the package itself is not changed.
A span is `[name, start, end, parent, trace_id]`; `parent` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path inside the module)
WRAP_POINTS = (
    ("cli.run_config", "contda.cli", "run_config"),
    ("cli.load_domains", "contda.cli", "load_domains"),
    ("cli.build_plan", "contda.cli", "build_plan"),
    ("cli.write_matrix_csv", "contda.cli", "write_matrix_csv"),
    ("cli.write_metrics_json", "contda.cli", "write_metrics_json"),
    ("cli.write_diagnostics_csv", "contda.cli", "write_diagnostics_csv"),
    ("datagen.generate_sequence", "contda.datagen", "generate_sequence"),
    ("harness.run_plan", "contda.harness", "run_plan"),
    ("harness.pretrain_source", "contda.harness", "pretrain_source"),
    ("harness.warm_projector", "contda.harness", "warm_projector"),
    ("harness.adapt_domain", "contda.harness", "adapt_domain"),
    ("harness.evaluate", "contda.harness", "evaluate"),
    ("harness.compute_metrics", "contda.harness", "compute_metrics"),
    ("model.init_params", "contda.model", "init_params"),
    ("model.ce_loss_and_grad", "contda.model", "ce_loss_and_grad"),
    ("model.embedding_backward", "contda.model", "embedding_backward"),
    ("model.encode_project_batch", "contda.model", "encode_project_batch"),
    ("model.encode_batch", "contda.model", "encode_batch"),
    ("model.classify_batch", "contda.model", "classify_batch"),
    ("model.sgd_step", "contda.model", "sgd_step"),
    ("model.encode", "contda.model", "encode"),
    ("model.encode_project", "contda.model", "encode_project"),
    ("model.encode_project_raw", "contda.model", "encode_project_raw"),
    ("model.classify", "contda.model", "classify"),
    ("bank.init_bank", "contda.bank", "init_bank"),
    ("bank.momentum_update", "contda.bank", "momentum_update"),
    ("bank.draw_negatives", "contda.bank", "draw_negatives"),
    ("bank.negatives_full", "contda.bank", "negatives_full"),
    ("bank.key", "contda.bank", "FeatureBank.key"),
    ("contrastive.contrastive_grad", "contda.contrastive", "contrastive_grad"),
    ("numerics.log_softmax", "contda.contrastive", "log_softmax"),
    ("gradproject.project_two", "contda.gradproject", "project_two"),
    ("gradproject.tolerance", "contda.gradproject", "tolerance"),
    ("memory.kmeans", "contda.memory", "kmeans"),
    ("memory.class_embedding_means", "contda.memory", "class_embedding_means"),
    ("memory.align_clusters", "contda.memory", "align_clusters"),
    ("memory.assign_with_confidence", "contda.memory", "assign_with_confidence"),
    ("memory.build_memory", "contda.memory", "build_memory"),
)


class Tracer:
    """Records one span per call of each installed wrap point.

    `on_enter[name](*args, **kwargs)` runs before a span opens and
    `on_exit[name](result, *args, **kwargs)` after it closes, so observers
    can read arguments and results without their cost landing in the span.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = tuple(points)
        self.spans = []
        self.trace_id = None
        self.absent = []
        self.on_enter = {}
        self.on_exit = {}
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = tracer.on_enter.get(name)
            if enter is not None:
                enter(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.trace_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            leave = tracer.on_exit.get(name)
            if leave is not None:
                leave(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every wrap point that exists; restore the originals on exit,
        also when the body raises.  Missing points are listed in `absent`."""
        restore = []
        absent = []
        try:
            for name, module_name, path in self.points:
                owner = _resolve_owner(module_name, path)
                attr = path.rsplit(".", 1)[-1]
                raw = vars(owner).get(attr) if owner is not None else None
                if not inspect.isfunction(raw):
                    absent.append(name)
                    continue
                restore.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(name, raw))
            self.absent = absent
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


def _resolve_owner(module_name, path):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def self_times(spans):
    """Per span: duration minus the part of its interval that the union of
    its children's intervals covers."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for rec, own in zip(spans, selfs):
        entry = out[rec[0]]
        entry["calls"] += 1
        entry["total_s"] += rec[2] - rec[1]
        entry["self_s"] += own
    return dict(out)


def has_ancestor(spans, index, name):
    """True when some enclosing span of spans[index] is called `name`."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False

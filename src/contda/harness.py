"""Continual adaptation protocol: source pretraining (one model.descend_ce
call), per-domain loops that compose batches, measure the step's gradients,
choose a step direction by strategy, and maintain the feature bank;
evaluation into an accuracy matrix with the two summary metrics.
pseudo_label_memory builds the episodic memory of each target domain but the
last, whose memory no later domain would read.

Strategies mirror the ablation family: a frozen source model, fixed-weight
multitask combinations, a source-constrained projection, and GRCL, which
projects onto the source constraint plus one memory constraint per earlier
target domain.  One step loop, _train_epoch, serves the warm-up and every
adaptive strategy.  Each step runs two forward passes: one before it, whose
activations feed one model.backward call that stacks the contrastive,
source and memory gradients as the rows of one matrix J, and one after it,
whose embeddings refresh the bank; a call steps one copy of the parameters
in place, and its backward calls reuse one gradient buffer.
gradproject.gram forms J J^T once per step; the fixed-weight strategies
step along a weighted sum of J's rows, and crt_sdc and GRCL take
gradproject.project, one KKT-checked projection on that Gram matrix.  The
warm-up steps as crt_sdc on whole source batches and passes no labels, so
it projects onto the source row and a query's only positive is its own key.
A domain's bank and batch pool are built from the same parts in the same
order, so a batch's pool rows are its bank rows.
The pool is inputs and one label per row, -1 meaning unlabeled: every
target row and no other, checked once when it is built.  They are the bank
rows' classes for the contrastive loss's positives.

Each epoch draws and checks before its step loop: every step's batch rows,
laid out as [source | memory d1 | ... | target] so its cross-entropy groups
are slices, one gather of their inputs and labels, every step's negatives
(bank.negative_rows), and their checks and label plans (epoch_plans).
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bank as bank_mod
from . import contrastive as contrastive_mod
from . import gradproject
from . import memory as memory_mod
from . import model as model_mod
from .errors import ContractViolationError, DimensionError
from .model import ModelConfig

SRC_ONLY = "src_only"
MULTITASK = "multitask"
CRT_SRC = "crt_src"
CRT_SDC = "crt_sdc"
GRCL = "grcl"
STRATEGIES = (SRC_ONLY, MULTITASK, CRT_SRC, CRT_SDC, GRCL)

# every adaptive strategy builds memories and contrasts against their
# features (label-free retention); strategies differ only in whether the
# memory cross-entropy gradient enters the step as a fixed weight, a
# constraint, or not at all
_FIXED_WEIGHT = {MULTITASK, CRT_SRC}


@dataclass(frozen=True)
class AdaptationPlan:
    strategy: str
    # source replay weight sits above 1: the source CE gradient at the
    # pretrained optimum is small, so a heavier weight stabilizes replay
    # without drowning the contrastive term
    lambda_source: float = 1.5
    lambda_memory: float = 1.0
    pretrain_epochs: int = 20
    warm_epochs: int = 2
    epochs_per_domain: int = 6
    batch_size: int = 64
    ratio_source: float = 0.25
    # a batch's target share is 1 - ratio_source - ratio_memory
    ratio_memory: float = 0.25
    lr: float = 0.05
    pretrain_lr: float = 0.1
    hidden_dim: int = 64
    proj_hidden_dim: int = 64
    embed_dim: int = 16
    # softer than the common 0.07: at embed_dim 16 with 64 negatives the
    # sharp temperature saturates the softmax early
    temperature: float = 0.2
    negatives: int = 64
    bank_momentum: float = 0.5
    memory_capacity: int = 128
    seed: int = 0

    def __post_init__(self):
        # NaN and Inf slip through the range checks' comparisons below
        infinite = [f.name for f in fields(self) if f.type is float
                    and not math.isfinite(getattr(self, f.name))]
        if infinite:
            raise ContractViolationError(f"plan values must be finite: {infinite}")
        if self.strategy not in STRATEGIES:
            raise ContractViolationError(f"unknown strategy {self.strategy!r}")
        if (min(self.ratio_source, self.ratio_memory) < 0.0
                or self.ratio_source + self.ratio_memory >= 1.0):
            raise ContractViolationError(
                "source and memory ratios must be non-negative and sum below "
                "1, leaving the target its share")
        if self.lambda_source < 0.0 or self.lambda_memory < 0.0:
            raise ContractViolationError("loss weights must be non-negative")
        if self.batch_size < 4:
            raise ContractViolationError("batch size too small to compose")
        if min(self.batch_counts(m)[2] for m in (False, True)) < 1:
            raise ContractViolationError(
                "batch leaves no room for target samples")
        if self.lr <= 0.0 or self.pretrain_lr <= 0.0:
            raise ContractViolationError("learning rates must be positive")
        if not self.temperature > 0.0:
            raise ContractViolationError("temperature must be positive")
        if self.negatives < 0:
            raise ContractViolationError("negatives must be non-negative")
        if not 0.0 <= self.bank_momentum <= 1.0:
            raise ContractViolationError("bank momentum must lie in [0, 1]")
        if self.memory_capacity < 1:
            raise ContractViolationError("memory capacity must be at least 1")
        if min(self.hidden_dim, self.proj_hidden_dim, self.embed_dim) < 1:
            raise ContractViolationError("layer widths must be at least 1")
        if min(self.pretrain_epochs, self.warm_epochs,
               self.epochs_per_domain) < 0:
            raise ContractViolationError("epoch counts must be non-negative")

    def batch_counts(self, have_memory: bool):
        """Source, memory and target rows of a batch, whether or not earlier
        domains' memories are there to draw from."""
        b = self.batch_size
        if have_memory and self.ratio_memory > 0.0:
            n_s = int(round(self.ratio_source * b))
            n_m = int(round(self.ratio_memory * b))
        else:
            n_s = int(round(self.ratio_source / (1.0 - self.ratio_memory) * b))
            n_m = 0
        return n_s, n_m, b - n_s - n_m


@dataclass
class AccuracyMatrix:
    """Lower-triangular accuracies; values[t, j] is accuracy on domain j's
    holdout split after adapting through domain t.  NaN marks 'not yet'."""

    values: np.ndarray

    @classmethod
    def empty(cls, n_targets: int) -> "AccuracyMatrix":
        return cls(values=np.full((n_targets + 1, n_targets + 1), np.nan))

    def set_row(self, t: int, accs) -> None:
        accs = np.asarray(accs, dtype=np.float64)
        if accs.shape != (t + 1,):
            raise ContractViolationError(
                f"row {t} needs {t + 1} entries, got {accs.shape}")
        self.values[t, :t + 1] = accs

    def entry(self, t: int, j: int) -> float:
        v = self.values[t, j]
        if not np.isfinite(v):
            raise ContractViolationError(f"accuracy R[{t},{j}] never filled")
        return float(v)


@dataclass(frozen=True)
class Metrics:
    acc: float
    acc_mean: float
    bwt: float


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    metrics: Metrics
    diagnostics: list
    params: model_mod.ModelParams
    memories: list


def evaluate(params, holdouts) -> np.ndarray:
    """Accuracy per holdout set; argmax breaks logit ties at the lowest class."""
    accs = []
    for ds in holdouts:
        pred = model_mod.classify_batch(params, ds.X).argmax(axis=1)
        accs.append(float((pred == ds.y).mean()))
    return np.array(accs)


def compute_metrics(matrix: AccuracyMatrix, n_targets: int) -> Metrics:
    """Summary metrics from the filled matrix.

    acc sums the final row's n_targets+1 entries but divides by n_targets,
    matching the reference formula as printed; acc_mean is the plain mean of
    the same entries.  bwt averages final-minus-diagonal accuracy over
    domains 1..n_targets-1 and is NaN when that range is empty.
    """
    last = np.array([matrix.entry(n_targets, j) for j in range(n_targets + 1)])
    acc = float(last.sum() / n_targets)
    acc_mean = float(last.mean())
    if n_targets >= 2:
        terms = [matrix.entry(n_targets, t) - matrix.entry(t, t)
                 for t in range(1, n_targets)]
        bwt = float(sum(terms) / (n_targets - 1))
    else:
        bwt = float("nan")
    return Metrics(acc=acc, acc_mean=acc_mean, bwt=bwt)


def _cosine_lr(base: float, step: int, total: int) -> float:
    return base * 0.5 * (1.0 + math.cos(math.pi * step / max(total, 1)))


def pretrain_source(params, source_train, plan, rng):
    """Minibatch cross-entropy on the labeled source split, in one call."""
    n = len(source_train)
    total = plan.pretrain_epochs * math.ceil(n / plan.batch_size)
    # drawn as each epoch starts, so one order is held at a time
    orders = (rng.permutation(n) for _ in range(plan.pretrain_epochs))
    lrs = (_cosine_lr(plan.pretrain_lr, step, total) for step in range(total))
    return model_mod.descend_ce(params, source_train.X, source_train.y,
                                orders, plan.batch_size, lrs)


def warm_projector(params, source_train, plan, rng):
    """Source-side contrastive warm-up under the source constraint.

    Supervised pretraining never touches the projector (the classifier reads
    encoder features), so its normalized random output can fold classes
    together.  A short constrained contrastive phase on the source bank
    spreads the source classes apart in embedding space before any target
    arrives, while the projection keeps source cross-entropy from rising.
    """
    n = len(source_train)
    # bank row i holds source sample i, so a batch's indices are its rows
    fbank = bank_mod.init_bank(params, [source_train.X])
    iters = math.ceil(n / plan.batch_size)
    cut = range(plan.batch_size, n, plan.batch_size)
    warm = replace(plan, strategy=CRT_SDC)
    for epoch in range(plan.warm_epochs):
        order = rng.permutation(n)
        params = _train_epoch(
            params, fbank, np.split(order, cut),
            np.split(source_train.X[order], cut),
            np.split(source_train.y[order], cut), [[slice(None)]] * iters,
            None, warm, rng, epoch * iters, plan.warm_epochs * iters, [])
    return params


def _batch_pool(parts):
    """Concatenate (inputs, labels) parts, source first, then each memory,
    then the target, into the arrays a batch is gathered from; a bank built
    from the same parts holds pool row i at bank row i.  Returns them with
    the pool offset of each part and the pool's end.

    Label -1 means unlabeled: the target's rows must carry it, and every
    earlier row a class label.
    """
    if any(len(X) != len(y) for X, y in parts):
        raise DimensionError("pool parts disagree on sample count")
    pool = tuple(np.concatenate(field) for field in zip(*parts))
    offsets = np.cumsum([0] + [len(y) for _, y in parts])
    labels, target = pool[1], offsets[-2]
    if np.any(labels[:target] < 0) or np.any(labels[target:] != -1):
        raise ContractViolationError(
            "target samples must be unlabeled and all others labeled")
    return pool, offsets


def _draw_epoch(pool, offsets, counts, iters, by_domain, rng):
    """One epoch's batches: every step's pool rows (iters, batch), their
    inputs and labels with one leading row per step, and each step's
    cross-entropy groups.

    A step draws counts[i] rows of part i (source, memories, target),
    distinct when the part holds that many, in sorted order.  Parts occupy
    increasing pool ranges, so each batch reads [source | memory d1 | d2 |
    ... | target], and its groups are slices: the source rows, then the
    non-empty memory groups, one per memory domain under by_domain, else
    one over all memory rows.
    """
    edges = offsets[[0, 1, -2, -1]]
    rows = np.concatenate(
        [lo + bank_mod.distinct_rows(rng, hi - lo, count, iters)
         for lo, hi, count in zip(edges[:-1], edges[1:], counts)], axis=1)
    n_s, n_m, _ = counts
    bounds = offsets[1:-1] if by_domain else offsets[[1, -2]]
    cuts = n_s + (rows[:, n_s:n_s + n_m, None] < bounds).sum(axis=1)
    groups = [[slice(0, n_s)] + [slice(a, b) for a, b in zip(cut, cut[1:])
                                 if b > a] for cut in cuts.tolist()]
    return rows, pool[0][rows], pool[1][rows], groups


CASE_NAMES = {(): "interior", (0,): "source-active",
              (1,): "memory-active", (0, 1): "both-active"}


def _step_direction(plan, J, K, eps):
    """Strategy-resolved update direction, u_star = (source multiplier, sum
    of the memory multipliers), the case name saying which of the two are
    positive, and the slacks J[1:] w.

    J stacks the contrastive, the source and the memory gradients, the
    last being the pooled memory gradient, which the fixed-weight
    strategies weigh in, or under GRCL one row per earlier target domain
    in the batch, each a constraint, so its slacks are the KKT check's;
    crt_sdc is constrained by the source row alone.  K = J J^T and eps
    come from gradproject.gram.
    """
    if plan.strategy in _FIXED_WEIGHT:
        lam_m = plan.lambda_memory if plan.strategy != CRT_SRC else 0.0
        w = np.array([1.0, plan.lambda_source, lam_m])[:len(J)] @ J
        return w, np.zeros(2), "fixed-weight", J[1:] @ w
    if plan.strategy == GRCL:
        w, u, slacks = gradproject.project(J, K, eps)
    else:
        w, u, _ = gradproject.project(J[:2], K[:2, :2], eps)
        slacks = J[1:] @ w
    u_star = np.array([u[0], u[1:].sum()])
    case = CASE_NAMES[tuple(i for i in range(2) if u_star[i] > 0.0)]
    return w, u_star, case, slacks


def _train_epoch(params, fbank, rows, X, y, groups, labels, plan, rng, step,
                 total, log, **tag):
    """Steps on bank rows rows[i], inputs X[i], labels y[i] and groups[i]
    (source group first), with negatives drawn from rng and labels (one per
    bank row, or None) for positives; appends one diagnostics row per step,
    tagged with tag, to log and returns the new params.  It steps one copy
    of params.flat in place, read through live, read-only params whose
    blocks see each step; backward fills one zeroed buffer whose row 0 is
    always the embedding row, so the blocks no call writes stay zero."""
    negs = bank_mod.negative_rows(fbank, rows, plan.negatives, rng)
    nces = contrastive_mod.epoch_plans(fbank, rows, negs, labels)
    flat, tmp = params.flat.copy(), np.empty(params.num_params)
    live = model_mod._owning(params.config, flat.view())
    out = np.zeros((1 + max(map(len, groups), default=0), params.num_params))
    for r, neg, inputs, yb, group, nce in zip(rows, negs, X, y, groups, nces):
        fw = model_mod.forward(live, inputs)
        loss_con, dQ = contrastive_mod.contrastive_grad(
            fw, r, neg, fbank, plan.temperature, plan=nce)
        losses, J = model_mod.backward(live, fw, dQ, yb, group, out=out)
        K, eps = gradproject.gram(J)
        w, u_star, case, slacks = _step_direction(plan, J, K, eps)
        # the pooled memory loss and slack mix the groups' by their shares
        sizes = [g.stop - g.start for g in group[1:]]
        shares = np.array(sizes) / sum(sizes)
        lr = _cosine_lr(plan.lr, step, total)
        np.subtract(flat, np.multiply(w, lr, out=tmp), out=flat)
        fresh = model_mod.encode_project_batch(live, inputs)
        bank_mod.momentum_update(fbank, r, fresh, plan.bank_momentum)
        log.append({
            **tag, "iteration": step, "lr": lr,
            "loss_con": loss_con, "loss_src": float(losses[0]),
            "loss_mem": float(shares @ losses[1:]) if sizes else np.nan,
            "slack_src": float(slacks[0]),
            "slack_mem": float(shares @ slacks[1:]) if sizes else np.nan,
            "u_src": float(u_star[0]), "u_mem": float(u_star[1]),
            "case": case, "eps": eps})
        step += 1
    return model_mod._owning(params.config, flat)


def adapt_domain(params, domains, t, memories, plan, batch_rng, neg_rng,
                 diagnostics):
    """Train on target domain t from the previous parameters, replaying the
    earlier domains' memories; returns the new params."""
    target_train = domains[t].train
    parts = ([(domains[0].train.X, domains[0].train.y)]
             + [(domains[m.domain_index].train.X[m.rows], m.labels)
                for m in memories]
             + [(target_train.X, np.full(len(target_train), -1))])
    fbank = bank_mod.init_bank(params, [X for X, _ in parts])
    pool, offsets = _batch_pool(parts)
    counts = plan.batch_counts(len(memories) > 0)
    iters = math.ceil(len(target_train) / counts[2])
    total = plan.epochs_per_domain * iters
    for epoch in range(plan.epochs_per_domain):
        rows, X, y, groups = _draw_epoch(pool, offsets, counts, iters,
                                         plan.strategy == GRCL, batch_rng)
        params = _train_epoch(params, fbank, rows, X, y, groups, pool[1],
                              plan, neg_rng, epoch * iters, total,
                              diagnostics, domain=t, epoch=epoch)
    return params


def pseudo_label_memory(params, domains, t, plan, rng):
    """Episodic memory of target domain t under the adapted params: k-means
    clusters of its training samples, each named after the nearest source
    class mean, kept by confidence up to the plan's capacity."""
    source_train = domains[0].train
    target_train = domains[t].train
    # cluster in classifier feature space: cross-entropy anchors class
    # structure there, while the normalized contrastive space spreads
    # instances apart and decouples from the source class means
    feats = model_mod.encode_batch(params, target_train.X)
    src_feats = model_mod.encode_batch(params, source_train.X)
    k = domains[0].spec.n_classes
    labels, conf = memory_mod.pseudo_labels(feats, src_feats, source_train.y,
                                            k, rng)
    return memory_mod.build_memory(t, target_train.ids, labels, conf, k,
                                   plan.memory_capacity)


def check_domains(domains) -> None:
    """Raise ContractViolationError unless a run can use domains: a source
    and a target or more with domain 0's class count and train width, both
    splits of each non-empty, equally wide, finite and labelled once per row
    in the class range, every class in domain 0's train split (its class
    means name the memories' clusters) and a train row per class, k-means'
    cluster count, in every target."""
    if len(domains) < 2:
        raise ContractViolationError(f"a dataset needs a source and at least "
                                     f"one target domain, got {len(domains)}")
    width, n_classes = domains[0].train.X.shape[1], domains[0].spec.n_classes
    for i, d in enumerate(domains):
        if d.train.X.shape[1] != width:
            raise ContractViolationError(f"domain {i} has {d.train.X.shape[1]} "
                                         f"features, domain 0 has {width}")
        if d.holdout.X.shape[1] != width:
            raise ContractViolationError(f"domain {i}'s holdout split has "
                                         f"{d.holdout.X.shape[1]} features, "
                                         f"its train split {width}")
        if d.spec.n_classes != n_classes:
            raise ContractViolationError(f"domain {i} has {d.spec.n_classes} "
                                         f"classes, domain 0 has {n_classes}")
        for split, ds in (("train", d.train), ("holdout", d.holdout)):
            if ds.y.shape != ds.X.shape[:1]:
                raise ContractViolationError(
                    f"domain {i}'s {split} split has labels of shape "
                    f"{ds.y.shape} for {len(ds.X)} rows")
            if not len(ds):
                raise ContractViolationError(f"domain {i}'s {split} split is empty")
            outside = ds.y[(ds.y < 0) | (ds.y >= n_classes)]
            if outside.size:
                raise ContractViolationError(
                    f"domain {i}'s {split} split has label {outside[0]}, "
                    f"outside its {n_classes} classes")
            if not np.isfinite(ds.X).all():
                raise ContractViolationError(f"domain {i}'s {split} split has a "
                                             f"non-finite coordinate")
        if i == 0:
            absent = np.flatnonzero(np.bincount(d.train.y, minlength=n_classes) == 0)
            if absent.size:
                raise ContractViolationError(
                    f"domain 0's train split has no row of class {absent[0]}")
        elif len(d.train) < n_classes:
            raise ContractViolationError(f"domain {i}'s train split has "
                                         f"{len(d.train)} rows, fewer than "
                                         f"its {n_classes} classes")


def run_plan(domains, plan: AdaptationPlan) -> RunResult:
    """Full protocol: pretrain on domain 0, adapt through domains 1..N, fill
    the accuracy matrix row by row, and summarize."""
    check_domains(domains)
    n_targets = len(domains) - 1
    n_classes = domains[0].spec.n_classes

    ss = np.random.SeedSequence(plan.seed)
    init_seed, pretrain_seed, warm_seed, *domain_seeds = ss.spawn(3 + 3 * n_targets)

    config = ModelConfig(input_dim=domains[0].train.X.shape[1],
                         n_classes=n_classes, hidden_dim=plan.hidden_dim,
                         proj_hidden_dim=plan.proj_hidden_dim,
                         embed_dim=plan.embed_dim)
    params = model_mod.init_params(config, np.random.default_rng(init_seed))
    params = pretrain_source(params, domains[0].train, plan,
                             np.random.default_rng(pretrain_seed))
    if plan.strategy != SRC_ONLY and plan.warm_epochs > 0:
        params = warm_projector(params, domains[0].train, plan,
                                np.random.default_rng(warm_seed))

    matrix = AccuracyMatrix.empty(n_targets)
    holdouts = [d.holdout for d in domains]
    diagnostics = []
    memories = []
    accs, evaluated = [], None  # the last evaluated state's accuracies
    for t in range(n_targets + 1):
        if t and plan.strategy != SRC_ONLY:
            batch_rng, neg_rng, memory_rng = map(
                np.random.default_rng, domain_seeds[3 * (t - 1):3 * t])
            params = adapt_domain(params, domains, t, memories, plan,
                                  batch_rng, neg_rng, diagnostics)
            # only the domains after t read its memory
            if t < n_targets:
                memories.append(pseudo_label_memory(params, domains, t, plan,
                                                    memory_rng))
        # a state no domain changed is evaluated on the new holdout only
        if params is not evaluated:
            accs, evaluated = [], params
        accs.extend(evaluate(params, holdouts[len(accs):t + 1]))
        matrix.set_row(t, accs)

    metrics = compute_metrics(matrix, n_targets)
    return RunResult(matrix=matrix, metrics=metrics, diagnostics=diagnostics,
                     params=params, memories=memories)

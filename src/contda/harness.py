"""Continual adaptation protocol: source pretraining, per-domain loops that
compose batches, measure the three gradients, choose a step direction by
strategy, and maintain the feature bank and episodic memories; evaluation
into an accuracy matrix with the two summary metrics.

Strategies mirror the ablation family: a frozen source model, fixed-weight
multitask combinations, a source-constrained projection, and GRCL, which
projects onto the source constraint plus one memory constraint per earlier
target domain.  The projector warm-up, crt_sdc and GRCL all take their step
from project_step, one KKT-guarded call of gradproject.project_n.  Every
iteration runs two forward passes: one before the step, whose activations
feed the contrastive gradient and each cross-entropy gradient on its own
rows, and one after it, whose embeddings refresh the bank.  A domain's bank
and batch pool are built from the same parts in the same order, so a batch's
pool rows are its bank rows; each pool row carries an integer part code.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bank as bank_mod
from . import contrastive as contrastive_mod
from . import gradproject
from . import memory as memory_mod
from . import model as model_mod
from .errors import ContractViolationError, DegenerateInputError
from .model import Batch, ModelConfig, PART_SOURCE, PART_TARGET

SRC_ONLY = "src_only"
MULTITASK = "multitask"
CRT_SRC = "crt_src"
CRT_SRC_MEM = "crt_src_mem"
CRT_SDC = "crt_sdc"
GRCL = "grcl"
STRATEGIES = (SRC_ONLY, MULTITASK, CRT_SRC, CRT_SRC_MEM, CRT_SDC, GRCL)

# every adaptive strategy builds memories and contrasts against their
# features (label-free retention); strategies differ only in whether the
# memory cross-entropy gradient enters the step as a fixed weight, a
# constraint, or not at all
_FIXED_WEIGHT = {MULTITASK, CRT_SRC, CRT_SRC_MEM}
_PROJECTED = {CRT_SDC, GRCL}


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
    ratio_memory: float = 0.25
    ratio_target: float = 0.5
    lr: float = 0.05
    pretrain_lr: float = 0.1
    hidden_dim: int = 64
    proj_hidden_dim: int = 64
    embed_dim: int = 16
    # softer than the common 0.07: at embed_dim 16 with 64 negatives the
    # sharp temperature saturates the softmax early
    temperature: float = 0.2
    negatives: int = 64
    bank_momentum: float = bank_mod.DEFAULT_MOMENTUM
    memory_capacity: int = memory_mod.DEFAULT_CAPACITY
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractViolationError(f"unknown strategy {self.strategy!r}")
        ratios = (self.ratio_source, self.ratio_memory, self.ratio_target)
        if min(ratios) < 0.0 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ContractViolationError(
                "batch ratios must be non-negative and sum to 1")
        if self.lambda_source < 0.0 or self.lambda_memory < 0.0:
            raise ContractViolationError("loss weights must be non-negative")
        if self.batch_size < 4:
            raise ContractViolationError("batch size too small to compose")
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


def multitask_step_grad(g_t, g_s=None, g_dm=None, lambda_source: float = 0.0,
                        lambda_memory: float = 0.0) -> np.ndarray:
    """Fixed-weight combination w = g_t + l1*g_s + l2*g_dm."""
    if lambda_source < 0.0 or lambda_memory < 0.0:
        raise ContractViolationError("loss weights must be non-negative")
    w = np.asarray(g_t, dtype=np.float64).copy()
    if g_s is not None:
        w += lambda_source * np.asarray(g_s, dtype=np.float64)
    if g_dm is not None:
        w += lambda_memory * np.asarray(g_dm, dtype=np.float64)
    return w


def evaluate(params, holdouts) -> np.ndarray:
    """Accuracy per holdout set; argmax breaks logit ties at the lowest class."""
    accs = []
    for ds in holdouts:
        if len(ds) == 0:
            raise DegenerateInputError("empty holdout set")
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
    """Minibatch cross-entropy on the labeled source split."""
    n = len(source_train)
    iters = math.ceil(n / plan.batch_size)
    total = plan.pretrain_epochs * iters
    step = 0
    for _ in range(plan.pretrain_epochs):
        order = rng.permutation(n)
        for i in range(iters):
            idx = order[i * plan.batch_size:(i + 1) * plan.batch_size]
            batch = Batch(inputs=source_train.X[idx], labels=source_train.y[idx],
                          parts=np.full(idx.size, PART_SOURCE))
            _, grad = model_mod.ce_loss_and_grad(params, batch)
            params = model_mod.sgd_step(
                params, grad, _cosine_lr(plan.pretrain_lr, step, total))
            step += 1
    return params


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
    total = plan.warm_epochs * iters
    step = 0
    for _ in range(plan.warm_epochs):
        order = rng.permutation(n)
        for i in range(iters):
            idx = order[i * plan.batch_size:(i + 1) * plan.batch_size]
            fw = model_mod.forward(params, source_train.X[idx])
            _, g_t = contrastive_mod.contrastive_grad(
                params, fw, idx, fbank, plan.temperature, plan.negatives, rng)
            _, g_s = model_mod.ce_grad(params, fw, source_train.y[idx])
            w, _, _ = project_step(g_t, g_s)
            params = model_mod.sgd_step(params, w,
                                        _cosine_lr(plan.lr, step, total))
            fresh = model_mod.encode_project_batch(params, fw.X)
            bank_mod.momentum_update(fbank, idx, fresh, plan.bank_momentum)
            step += 1
    return params


def _compose_counts(plan, have_memory: bool):
    b = plan.batch_size
    if have_memory and plan.ratio_memory > 0.0:
        n_s = int(round(plan.ratio_source * b))
        n_m = int(round(plan.ratio_memory * b))
    else:
        denom = plan.ratio_source + plan.ratio_target
        if denom <= 0.0:
            raise ContractViolationError("source and target ratios both zero")
        n_s = int(round(plan.ratio_source / denom * b))
        n_m = 0
    n_t = b - n_s - n_m
    if n_t < 1:
        raise ContractViolationError("batch leaves no room for target samples")
    return n_s, n_m, n_t


def _draw(rng, pool_size, count):
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return rng.choice(pool_size, size=count, replace=count > pool_size)


def _batch_pool(parts):
    """Concatenate (inputs, labels, part code) parts, source first, then each
    memory, then the target, into the arrays a batch is gathered from; a bank
    built from the same parts holds pool row i at bank row i.  Returns them
    with the sizes of the source, all memories together and the target."""
    lengths = [len(p[0]) for p in parts]
    pool = (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.repeat([p[2] for p in parts], lengths))
    return pool, (lengths[0], sum(lengths[1:-1]), lengths[-1])


def _compose_batch(pool, sizes, counts, rng):
    """Draw counts[i] samples from part i of the pool (source, memories,
    target), in that order; returns their pool rows and the batch."""
    inputs, labels, parts = pool
    starts = np.cumsum((0,) + sizes[:-1])
    rows = np.concatenate([start + _draw(rng, size, count)
                           for start, size, count in zip(starts, sizes, counts)])
    return rows, Batch(inputs=inputs[rows], labels=labels[rows],
                       parts=parts[rows])


def _memory_grads(params, fw, batch, mem_sel):
    """Memory cross-entropy per earlier target domain in the batch, from the
    batch's forward pass fw.

    Returns the pooled loss and gradient (the size-weighted mix of the
    per-domain terms, equal to the cross-entropy over all memory rows) and
    the per-domain gradients stacked one row per domain, in domain order.
    """
    mem_rows = np.arange(len(batch))[mem_sel]
    _, group, sizes = np.unique(batch.parts[mem_rows], return_inverse=True,
                                return_counts=True)
    shares = sizes / mem_rows.size
    sels = [mem_rows[group == g] for g in range(sizes.size)]
    losses, rows = zip(*(model_mod.ce_grad(params, fw.rows(sel), batch.labels[sel])
                         for sel in sels))
    g_mem = np.stack(rows)
    return float(shares @ np.array(losses)), shares @ g_mem, g_mem


CASE_NAMES = {(): "interior", (0,): "source-active",
              (1,): "memory-active", (0, 1): "both-active"}


def project_step(g_t, g_s, g_mem=None):
    """Projection of g_t onto the source constraint g_s and one constraint
    per row of g_mem, guarded by the KKT diagnostics.

    Returns w, u_star = (source multiplier, sum of the memory multipliers)
    and the case name saying which of the two are positive.
    """
    rows = [g_s] + ([] if g_mem is None else list(g_mem))
    w, u = gradproject.project_n(g_t, rows)
    diag = gradproject.kkt_check(w, u, g_t, rows,
                                 gradproject.tolerance(g_t, rows))
    if not all(diag[k] for k in gradproject.KKT_FLAGS):
        raise ContractViolationError(
            f"projection failed KKT diagnostics: {diag}")
    u_star = np.array([u[0], u[1:].sum()])
    return w, u_star, CASE_NAMES[tuple(i for i in range(2) if u_star[i] > 0.0)]


def _step_direction(plan, g_t, g_s, g_dm, g_mem=None):
    """Strategy-resolved update direction plus projection bookkeeping.

    g_dm is the pooled memory gradient that the fixed-weight strategies
    weigh in; GRCL instead constrains the step by g_s and by each row of
    g_mem, one per earlier target domain present in the batch, and crt_sdc
    by g_s alone.
    """
    if plan.strategy in _FIXED_WEIGHT:
        lam_m = plan.lambda_memory if plan.strategy != CRT_SRC else 0.0
        w = multitask_step_grad(g_t, g_s, g_dm, plan.lambda_source, lam_m)
        return w, np.zeros(2), "fixed-weight"
    return project_step(g_t, g_s, g_mem if plan.strategy == GRCL else None)


def adapt_domain(params, domains, t, memories, plan, streams, diagnostics):
    """Train on target domain t from the previous parameters; returns new
    params, the refreshed bank, and the domain's episodic memory."""
    source_train = domains[0].train
    target_train = domains[t].train
    batch_rng, neg_rng, kmeans_rng = streams

    parts = ([(source_train.X, source_train.y, PART_SOURCE)]
             + [(m.inputs, m.labels, m.domain_index) for m in memories]
             + [(target_train.X, np.full(len(target_train), -1), PART_TARGET)])
    fbank = bank_mod.init_bank(params, [X for X, _, _ in parts])
    pool, sizes = _batch_pool(parts)
    counts = _compose_counts(plan, len(memories) > 0)
    n_s, n_m, _ = counts
    src_sel, mem_sel = slice(0, n_s), slice(n_s, n_s + n_m)
    iters = math.ceil(len(target_train) / counts[2])
    total = plan.epochs_per_domain * iters

    step = 0
    for epoch in range(plan.epochs_per_domain):
        for _ in range(iters):
            rows, batch = _compose_batch(pool, sizes, counts, batch_rng)
            fw = model_mod.forward(params, batch.inputs)
            loss_con, g_t = contrastive_mod.contrastive_grad(
                params, fw, rows, fbank, plan.temperature, plan.negatives,
                neg_rng)
            loss_src, g_s = model_mod.ce_grad(
                params, fw.rows(src_sel), batch.labels[src_sel])
            g_mem = None
            if n_m == 0:
                loss_mem, g_dm = float("nan"), None
            elif plan.strategy == GRCL:
                loss_mem, g_dm, g_mem = _memory_grads(params, fw, batch, mem_sel)
            else:
                loss_mem, g_dm = model_mod.ce_grad(
                    params, fw.rows(mem_sel), batch.labels[mem_sel])

            w, u_star, case = _step_direction(plan, g_t, g_s, g_dm, g_mem)
            refs = [g_s] + (list(g_mem) if g_mem is not None else
                            [g_dm] if g_dm is not None else [])
            eps = gradproject.tolerance(g_t, refs)
            lr = _cosine_lr(plan.lr, step, total)
            params = model_mod.sgd_step(params, w, lr)
            fresh = model_mod.encode_project_batch(params, batch.inputs)
            bank_mod.momentum_update(fbank, rows, fresh, plan.bank_momentum)

            diagnostics.append({
                "domain": t, "epoch": epoch, "iteration": step, "lr": lr,
                "loss_con": loss_con, "loss_src": loss_src, "loss_mem": loss_mem,
                "slack_src": float(w @ g_s),
                "slack_mem": float(w @ g_dm) if g_dm is not None else float("nan"),
                "u_src": float(u_star[0]), "u_mem": float(u_star[1]),
                "case": case, "eps": eps,
            })
            step += 1

    # cluster in classifier feature space: cross-entropy anchors class
    # structure there, while the normalized contrastive space spreads
    # instances apart and decouples from the source class means
    feats = model_mod.encode_batch(params, target_train.X)
    k = domains[0].spec.n_classes
    cluster = memory_mod.kmeans(feats, k, kmeans_rng)
    src_feats = model_mod.encode_batch(params, source_train.X)
    means = memory_mod.class_embedding_means(src_feats, source_train.y, k)
    mapping = memory_mod.align_clusters(cluster.centers, means)
    assign, conf = memory_mod.assign_with_confidence(feats, cluster.centers)
    pseudo = mapping[assign]
    new_memory = memory_mod.build_memory(
        t, target_train.ids, target_train.X, pseudo, conf, k,
        plan.memory_capacity)
    return params, fbank, new_memory


def run_plan(domains, plan: AdaptationPlan) -> RunResult:
    """Full protocol: pretrain on domain 0, adapt through domains 1..N, fill
    the accuracy matrix row by row, and summarize."""
    n_targets = len(domains) - 1
    if n_targets < 1:
        raise ContractViolationError("need at least one target domain")
    n_classes = domains[0].spec.n_classes
    if any(d.spec.n_classes != n_classes for d in domains):
        raise ContractViolationError("domains disagree on class count")

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
    matrix.set_row(0, evaluate(params, holdouts[:1]))

    diagnostics = []
    memories = []
    for t in range(1, n_targets + 1):
        if plan.strategy != SRC_ONLY:
            streams = [np.random.default_rng(s)
                       for s in domain_seeds[3 * (t - 1):3 * t]]
            params, _, new_memory = adapt_domain(
                params, domains, t, memories, plan, streams, diagnostics)
            memories.append(new_memory)
        matrix.set_row(t, evaluate(params, holdouts[:t + 1]))

    metrics = compute_metrics(matrix, n_targets)
    return RunResult(matrix=matrix, metrics=metrics, diagnostics=diagnostics,
                     params=params, memories=memories)

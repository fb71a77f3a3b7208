"""Continual adaptation protocol: source pretraining, per-domain loops that
compose batches, measure the step's gradients, choose a step direction by
strategy, and maintain the feature bank and episodic memories; evaluation
into an accuracy matrix with the two summary metrics.

Strategies mirror the ablation family: a frozen source model, fixed-weight
multitask combinations, a source-constrained projection, and GRCL, which
projects onto the source constraint plus one memory constraint per earlier
target domain.  Every iteration runs two forward passes: one before the
step, whose activations feed one model.backward call that stacks the
contrastive, source and memory gradients as the rows of one matrix J, and
one after it, whose embeddings refresh the bank.  gradproject.gram forms
J J^T once per step; the fixed-weight strategies step along a weighted sum
of J's rows, and the warm-up, crt_sdc and GRCL take project_step, one
KKT-guarded projection on that Gram matrix.  A domain's bank and batch pool
are built from the same parts in the same order, so a batch's pool rows are
its bank rows; each pool row carries an integer part code.

Each epoch draws its randomness before its step loop: every step's batch
rows, laid out as [source | memory d1 | ... | target] so GRCL's memory
groups are slices, one gather and one Batch check, and, when the negative
draw is sparse, every step's negatives.
"""

import math
from dataclasses import dataclass, fields

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
        # NaN and Inf slip through the range checks' comparisons below
        infinite = [f.name for f in fields(self) if f.type is float
                    and not math.isfinite(getattr(self, f.name))]
        if infinite:
            raise ContractViolationError(f"plan values must be finite: {infinite}")
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
        steps = np.split(order, range(plan.batch_size, n, plan.batch_size))
        negs = _negatives(fbank, steps, plan.negatives, rng)
        for idx, neg in zip(steps, negs):
            fw = model_mod.forward(params, source_train.X[idx])
            _, dQ = contrastive_mod.contrastive_grad(
                fw, idx, neg, fbank, plan.temperature)
            _, J = model_mod.backward(params, fw, dQ, source_train.y[idx],
                                      [slice(None)])
            w, _, _ = project_step(J, *gradproject.gram(J))
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


def _batch_pool(parts):
    """Concatenate (inputs, labels, part code) parts, source first, then each
    memory, then the target, into the arrays a batch is gathered from; a bank
    built from the same parts holds pool row i at bank row i.  Returns them
    with the pool offset of each part and the pool's end."""
    lengths = [len(p[0]) for p in parts]
    pool = (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.repeat([p[2] for p in parts], lengths))
    return pool, np.cumsum([0] + lengths)


def _draw_epoch(pool, offsets, counts, iters, by_domain, rng):
    """One epoch's batches: every step's pool rows (iters, batch), their
    Batch with one row per step, and each step's memory cut points.

    A step draws counts[i] rows of part i (source, memories, target),
    distinct when the part holds that many, in sorted order.  Parts occupy
    increasing pool ranges, so each batch reads [source | memory d1 | d2 |
    ... | target].  Memory groups run between consecutive cut points: one
    per memory domain under by_domain, else one over all memory rows.
    """
    edges = offsets[[0, 1, -2, -1]]
    rows = np.concatenate(
        [lo + bank_mod.distinct_rows(rng, hi - lo, count, iters)
         for lo, hi, count in zip(edges[:-1], edges[1:], counts)], axis=1)
    n_s, n_m, _ = counts
    bounds = offsets[1:-1] if by_domain else offsets[[1, -2]]
    cuts = n_s + (rows[:, n_s:n_s + n_m, None] < bounds).sum(axis=1)
    return rows, Batch(*(field[rows] for field in pool)), cuts.tolist()


def _negatives(fbank, steps, count, rng):
    """Each step's negative rows, one bank-row array per step: one draw for
    the epoch when sparse; the dense draw ranks a rows x bank matrix of
    uniform keys, so it draws per step, lazily."""
    if not bank_mod.is_sparse(len(fbank), count):
        return (bank_mod.negative_rows(fbank, r, count, rng) for r in steps)
    every = bank_mod.negative_rows(fbank, np.concatenate(steps), count, rng)
    return np.split(every, np.cumsum([len(r) for r in steps])[:-1])


CASE_NAMES = {(): "interior", (0,): "source-active",
              (1,): "memory-active", (0, 1): "both-active"}


def project_step(J, K, eps):
    """Projection of the update gradient J[0] onto the half-spaces of the
    source row J[1] and of any further (memory) rows, from the Gram matrix
    K = J J^T, guarded by the KKT diagnostics on the stepped w.

    Returns w, u_star = (source multiplier, sum of the memory multipliers)
    and the case name saying which of the two are positive.
    """
    w, u = gradproject.project(J, K, eps)
    diag = gradproject.kkt_check(w, u, J[0], J[1:], eps)
    if not all(diag[k] for k in gradproject.KKT_FLAGS):
        raise ContractViolationError(
            f"projection failed KKT diagnostics: {diag}")
    u_star = np.array([u[0], u[1:].sum()])
    return w, u_star, CASE_NAMES[tuple(i for i in range(2) if u_star[i] > 0.0)]


def _step_direction(plan, J, K, eps):
    """Strategy-resolved update direction plus projection bookkeeping.

    J stacks the contrastive, the source and the memory gradients, the
    last being the pooled memory gradient, which the fixed-weight
    strategies weigh in, or under GRCL one row per earlier target domain
    in the batch, each a constraint; crt_sdc is constrained by the source
    row alone.  K = J J^T and eps come from gradproject.gram.
    """
    if plan.strategy in _FIXED_WEIGHT:
        lam_m = plan.lambda_memory if plan.strategy != CRT_SRC else 0.0
        weights = np.array([1.0, plan.lambda_source, lam_m])[:len(J)]
        return weights @ J, np.zeros(2), "fixed-weight"
    m = len(J) if plan.strategy == GRCL else 2
    return project_step(J[:m], K[:m, :m], eps)


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
    pool, offsets = _batch_pool(parts)
    counts = _compose_counts(plan, len(memories) > 0)
    n_s, n_m, n_t = counts
    iters = math.ceil(len(target_train) / n_t)
    total = plan.epochs_per_domain * iters

    step = 0
    for epoch in range(plan.epochs_per_domain):
        rows, batch, cuts = _draw_epoch(pool, offsets, counts, iters,
                                        plan.strategy == GRCL, batch_rng)
        negs = _negatives(fbank, rows, plan.negatives, neg_rng)
        for r, neg, inputs, labels, cut in zip(rows, negs, batch.inputs,
                                               batch.labels, cuts):
            fw = model_mod.forward(params, inputs)
            loss_con, dQ = contrastive_mod.contrastive_grad(
                fw, r, neg, fbank, plan.temperature)
            groups = [slice(0, n_s)] + [slice(a, b) for a, b
                                        in zip(cut, cut[1:]) if b > a]
            losses, J = model_mod.backward(params, fw, dQ, labels, groups)
            K, eps = gradproject.gram(J)
            w, u_star, case = _step_direction(plan, J, K, eps)
            # the pooled memory loss and slack are the share-weighted mix
            # of the per-group ones
            shares = np.array([g.stop - g.start for g in groups[1:]]) / n_m
            slacks = J[1:] @ w
            lr = _cosine_lr(plan.lr, step, total)
            params = model_mod.sgd_step(params, w, lr)
            fresh = model_mod.encode_project_batch(params, inputs)
            bank_mod.momentum_update(fbank, r, fresh, plan.bank_momentum)

            diagnostics.append({
                "domain": t, "epoch": epoch, "iteration": step, "lr": lr,
                "loss_con": loss_con, "loss_src": float(losses[0]),
                "loss_mem": float(shares @ losses[1:]) if n_m else np.nan,
                "slack_src": float(slacks[0]),
                "slack_mem": float(shares @ slacks[1:]) if n_m else np.nan,
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

import itertools
import math

import numpy as np
import pytest

from contda import bank, contrastive, model
from contda.errors import ContractViolationError, DimensionError


def nce_direct(query, positive, negatives, tau):
    """Route through explicit exponentials with fsum, no shared code."""
    sims = [float(positive @ query) / tau] + [float(k @ query) / tau
                                              for k in negatives]
    m = max(sims)
    z = math.fsum(math.exp(s - m) for s in sims)
    return -(sims[0] - m - math.log(z))


def fw(params, batch):
    return model.forward(params, batch)


def make_setup(seed, n=5, extra=7):
    """Params, the inputs of a target batch, and a bank whose rows 0..n-1
    hold the batch and whose other rows hold further samples."""
    cfg = model.ModelConfig(input_dim=2, n_classes=3, hidden_dim=6,
                            proj_hidden_dim=5, embed_dim=4)
    params = model.init_params(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    X = rng.standard_normal((n + extra, 2))
    return params, X[:n], bank.init_bank(params, [X[:n], X[n:]])


def rows_of(batch):
    return np.arange(len(batch))


def outside(fbank, batch):
    """The count of bank rows outside the batch: every one a negative."""
    return len(fbank) - len(batch)


def nce(forward, rows, negatives, fbank, tau, labels=None):
    """contrastive_grad as one step of an epoch: its plan from epoch_plans,
    with labels, one per bank row, or none."""
    (plan,) = contrastive.epoch_plans(fbank, [rows], [negatives], labels)
    return contrastive.contrastive_grad(forward, rows, negatives, fbank, tau,
                                        plan)


def nce_grad(forward, rows, fbank, tau, count, rng):
    """nce against `count` shared negatives drawn from rng."""
    (negatives,) = bank.negative_rows(fbank, [rows], count, rng)
    return nce(forward, rows, negatives, fbank, tau)


def test_nce_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, batch, fbank = make_setup(int(rng.integers(1000)),
                                          n=int(rng.integers(1, 6)),
                                          extra=int(rng.integers(7, 75)))
        count = int(rng.integers(0, outside(fbank, batch) + 1))
        tau = float(rng.uniform(0.03, 1.0))
        draw = np.random.default_rng(int(rng.integers(1000)))
        (neg,) = bank.negative_rows(fbank, [rows_of(batch)], count, draw)
        loss, _ = nce(fw(params, batch), rows_of(batch), neg, fbank, tau)
        Q = model.encode_project_batch(params, batch)
        want = [nce_direct(Q[i], fbank[i], fbank[neg], tau)
                for i in range(len(batch))]
        assert abs(loss - math.fsum(want) / len(want)) < 1e-12


def supcon_direct(query, keys, positive, tau):
    """Loss and embedding gradient of one query whose columns hold these
    keys, its target spread evenly over the positive columns, through
    explicit exponentials with fsum."""
    sims = [float(k @ query) / tau for k in keys]
    m = max(sims)
    z = math.fsum(math.exp(v - m) for v in sims)
    p = np.array([math.exp(v - m) / z for v in sims])
    target = np.asarray(positive, dtype=float) / sum(positive)
    loss = -math.fsum(t * (v - m - math.log(z)) for t, v in zip(target, sims))
    return loss, ((p - target) @ keys) / tau


def bank_labels(rng, fbank, n_batch, classes=2):
    """One label per bank row from a few classes or -1, so a labeled query
    meets several same-label columns, with the batch's last row unlabeled."""
    labels = rng.integers(-1, classes, size=len(fbank))
    labels[n_batch - 1] = -1
    return labels


def test_contrastive_grad_matches_per_row_oracle():
    # shared negatives: the gradient w.r.t. each query is
    # (sum_j p_j k_j - mean of its positive keys) / (tau n) over its own key
    # and the step's negatives; with labels a labeled query's positives are
    # its own key and every negative of its label, without them its own key
    # alone
    tau, count = 0.2, 5
    multi = unlabeled = 0
    for seed in range(8):
        params, batch, fbank = make_setup(80 + seed, n=6)
        labels = (bank_labels(np.random.default_rng(seed), fbank, len(batch))
                  if seed % 2 else None)
        forward = fw(params, batch)
        (neg,) = bank.negative_rows(fbank, [rows_of(batch)], count,
                                    np.random.default_rng(seed))
        loss, dQ = nce(forward, rows_of(batch), neg, fbank, tau, labels)
        Q = forward.embeddings()
        n = len(batch)
        losses, want = [], np.zeros_like(Q)
        for i in range(n):
            cols = np.concatenate(([i], neg))
            positive = [True] + [labels is not None and labels[i] >= 0
                                 and labels[c] == labels[i] for c in neg]
            multi += sum(positive) > 1
            unlabeled += labels is not None and labels[i] == -1 and any(
                labels[neg] == -1)
            loss_i, grad_i = supcon_direct(Q[i], fbank[cols], positive,
                                           tau)
            losses.append(loss_i)
            want[i] = grad_i / n
        assert abs(loss - math.fsum(losses) / n) < 1e-12
        np.testing.assert_allclose(dQ, want, rtol=0, atol=1e-12)
    # labeled queries with several positives, and unlabeled queries facing
    # unlabeled columns, which stay negatives
    assert multi > 0 and unlabeled > 0


def test_labeled_row_without_same_label_column_keeps_instance_loss():
    # every batch row carries a label that no other row does, so each
    # labeled query's only positive is its own key, as without labels
    params, batch, fbank = make_setup(90, n=6)
    labels = np.arange(len(fbank)) % 3
    labels[rows_of(batch)] = 3 + rows_of(batch)
    forward = fw(params, batch)
    (neg,) = bank.negative_rows(fbank, [rows_of(batch)], 5,
                                np.random.default_rng(1))
    with_labels = nce(forward, rows_of(batch), neg, fbank, 0.2, labels)
    without = nce(forward, rows_of(batch), neg, fbank, 0.2)
    assert with_labels[0] == without[0]
    np.testing.assert_array_equal(with_labels[1], without[1])
    # the same negatives with the batch relabeled into their classes move it
    labels[rows_of(batch)] = 0
    assert nce(forward, rows_of(batch), neg, fbank, 0.2,
               labels)[0] != without[0]


def dense_setup(seed):
    """A dense step: 32 queries, 512 shared negatives from a 1,300-row bank
    labeled from two classes or -1, and one query of a third class that the
    bank holds only on rows outside the draw.  The queries come from moved
    parameters, so no query equals its own key."""
    params, batch, fbank = make_setup(seed, n=32, extra=1268)
    rng = np.random.default_rng(seed)
    params = model.ModelParams(params.config, params.flat + 0.3
                               * rng.standard_normal(params.num_params))
    (neg,) = bank.negative_rows(fbank, [rows_of(batch)], 512, rng)
    labels = rng.integers(-1, 2, size=len(fbank))
    undrawn = np.setdiff1d(np.arange(len(batch), len(fbank)), neg)
    labels[undrawn[:5]] = 2
    labels[0] = 2
    return fw(params, batch), rows_of(batch), neg, fbank, labels


def test_contrastive_grad_matches_oracle_at_dense_shapes():
    tau = 0.1
    forward, rows, neg, fbank, labels = dense_setup(5)
    loss, dQ = nce(forward, rows, neg, fbank, tau, labels)
    Q = forward.embeddings()
    n = len(rows)
    losses, want, n_pos = [], np.zeros_like(Q), []
    for i in rows:
        positive = np.concatenate(([True], (labels[i] >= 0)
                                   & (labels[neg] == labels[i])))
        n_pos.append(positive.sum())
        loss_i, grad_i = supcon_direct(
            Q[i], fbank[np.concatenate(([i], neg))], positive, tau)
        losses.append(loss_i)
        want[i] = grad_i / n
    assert abs(loss - math.fsum(losses) / n) < 1e-12
    np.testing.assert_allclose(dQ, want, rtol=0, atol=1e-12)
    # the query whose class no negative carries, labeled queries with
    # hundreds of positives, and unlabeled ones
    n_pos = np.array(n_pos)
    assert n_pos[0] == 1 and n_pos[1:][labels[1:len(rows)] >= 0].min() > 100
    assert np.any(labels[rows] == -1)


def test_relabelling_classes_leaves_loss_and_gradient():
    forward, rows, neg, fbank, labels = dense_setup(6)
    renamed = np.where(labels >= 0, np.array([2, 0, 1])[labels], -1)
    loss, dQ = nce(forward, rows, neg, fbank, 0.1, labels)
    loss2, dQ2 = nce(forward, rows, neg, fbank, 0.1, renamed)
    assert abs(loss - loss2) < 1e-12
    np.testing.assert_allclose(dQ, dQ2, rtol=0, atol=1e-12)


def test_all_unlabeled_rows_match_no_labels():
    forward, rows, neg, fbank, _ = dense_setup(7)
    unlabeled = nce(forward, rows, neg, fbank, 0.1, np.full(len(fbank), -1))
    without = nce(forward, rows, neg, fbank, 0.1)
    assert unlabeled[0] == without[0]
    np.testing.assert_array_equal(unlabeled[1], without[1])


def test_labels_must_be_integers_from_minus_one():
    forward, rows, neg, fbank, labels = dense_setup(8)
    below = labels.copy()
    below[neg[0]] = -2
    for bad in (labels.astype(float), below):
        with pytest.raises(ContractViolationError):
            nce(forward, rows, neg, fbank, 0.1, bad)


def test_nce_zero_without_negatives():
    params, batch, fbank = make_setup(1)
    loss, dQ = nce_grad(fw(params, batch), rows_of(batch),
                        fbank, 0.2, 0,
                        np.random.default_rng(0))
    assert loss == 0.0
    assert np.all(dQ == 0.0)


def test_nce_perfect_positive_bound():
    # a bank built from the same parameters holds key == query, so the loss
    # is positive and at most log(1 + negatives)
    params, batch, fbank = make_setup(2)
    loss, _ = nce_grad(fw(params, batch), rows_of(batch),
                       fbank, 0.07, 6,
                       np.random.default_rng(0))
    assert 0.0 < loss < math.log(7.0)


def test_nce_temperature_sharpens():
    # the positive (key == query) beats every negative, so a smaller tau
    # concentrates mass on it
    params, batch, fbank = make_setup(3)
    losses = [nce_grad(
        fw(params, batch), rows_of(batch), fbank, t, outside(fbank, batch),
        np.random.default_rng(0))[0] for t in (0.5, 0.2, 0.05)]
    assert losses[0] > losses[1] > losses[2]


def test_nce_validates_shapes():
    params, batch, fbank = make_setup(4)
    # a bank narrower than the embeddings, or not a matrix
    for bad in (fbank[:, :3], fbank[:, 0]):
        with pytest.raises(DimensionError):
            nce_grad(fw(params, batch), rows_of(batch),
                     bad, 0.2, 3, np.random.default_rng(0))
    (neg,) = bank.negative_rows(fbank, [rows_of(batch)], 3,
                                np.random.default_rng(0))
    for rows, negatives in ((rows_of(batch) + len(fbank), neg),
                            (rows_of(batch), neg + len(fbank)),
                            (rows_of(batch), neg[None])):
        with pytest.raises(DimensionError):
            nce(fw(params, batch), rows, negatives, fbank, 0.2)
    with pytest.raises(DimensionError):
        nce(fw(params, batch), rows_of(batch), neg, fbank, 0.2,
            np.zeros(len(fbank) - 1))
    # a negative on a row of the batch, repeated or not, breaks the draw's
    # contract
    for row in (0, len(batch) - 1):
        with pytest.raises(ContractViolationError):
            nce(fw(params, batch), rows_of(batch), np.append(neg, row),
                fbank, 0.2)


def test_contrastive_loss_matches_per_sample_mean():
    # with every row outside the batch a negative, each sample's loss is
    # the softmax over its own key and all of them
    params, batch, fbank = make_setup(10)
    loss, _ = nce_grad(fw(params, batch), rows_of(batch),
                       fbank, 0.2, outside(fbank, batch),
                       np.random.default_rng(0))
    Q = model.encode_project_batch(params, batch)
    want = 0.0
    for row in rows_of(batch):
        want += nce_direct(Q[row], fbank[row],
                           fbank[len(batch):], 0.2)
    np.testing.assert_allclose(loss, want / len(batch), atol=1e-12)


def test_contrastive_grad_matches_finite_differences():
    # every row outside the batch as a negative makes the loss a
    # deterministic function of params, up to the order in which the draw
    # lists them; the parameter gradient is the embedding row of
    # model.backward.  Odd trials label the bank, so labeled queries have
    # several positives
    for trial in range(4):
        params, batch, fbank = make_setup(20 + trial, n=4)
        labels = (bank_labels(np.random.default_rng(trial), fbank, len(batch))
                  if trial % 2 else None)
        (neg,) = bank.negative_rows(fbank, [rows_of(batch)],
                                    outside(fbank, batch),
                                    np.random.default_rng(99))

        def grad_at(p):
            forward = model.forward(p, batch)
            return forward, nce(forward, rows_of(batch), neg, fbank, 0.15,
                                labels)

        def loss_at(flat):
            return grad_at(model.ModelParams(params.config, flat))[1][0]

        forward, (_, dQ) = grad_at(params)
        g = model.backward(params, forward, dQ)[1][0]
        flat = params.flat.copy()
        coords = np.random.default_rng(trial).choice(params.num_params,
                                                     size=40, replace=False)
        h = 1e-6
        for j in coords:
            up = flat.copy(); up[j] += h
            dn = flat.copy(); dn[j] -= h
            fd = (loss_at(up) - loss_at(dn)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd)), (trial, j)


def test_contrastive_grad_classifier_blocks_zero():
    params, batch, fbank = make_setup(30)
    forward = fw(params, batch)
    _, dQ = nce_grad(forward, rows_of(batch), fbank, 0.07,
                     outside(fbank, batch),
                     np.random.default_rng(0))
    g = model.backward(params, forward, dQ)[1][0]
    slices = {name: s for name, (s, _)
              in model._layout(params.config).items()}
    assert np.all(g[slices["cls_w"]] == 0.0)
    assert np.all(g[slices["cls_b"]] == 0.0)
    assert np.any(g[slices["proj1_w"]] != 0.0)


def test_bank_keys_receive_no_gradient():
    # mutating the bank after the call must not have been influenced by it:
    # the gradient only depends on keys as constants, so two calls with
    # identical keys but different array objects agree exactly
    params, batch, fbank = make_setup(40)
    _, g1 = nce_grad(fw(params, batch), rows_of(batch),
                     fbank, 0.07, outside(fbank, batch),
                     np.random.default_rng(0))
    clone = fbank.copy()
    _, g2 = nce_grad(fw(params, batch), rows_of(batch),
                     clone, 0.07, outside(clone, batch),
                     np.random.default_rng(0))
    np.testing.assert_array_equal(g1, g2)


def test_sampled_negatives_use_rng_stream():
    params, batch, fbank = make_setup(50)
    l1, g1 = nce_grad(fw(params, batch), rows_of(batch),
                      fbank, 0.2, 5, np.random.default_rng(7))
    l2, g2 = nce_grad(fw(params, batch), rows_of(batch),
                      fbank, 0.2, 5, np.random.default_rng(7))
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
    l3, _ = nce_grad(fw(params, batch), rows_of(batch),
                     fbank, 0.2, 5, np.random.default_rng(8))
    assert l1 != l3


def test_empty_batch_rejected():
    params, batch, fbank = make_setup(60)
    with pytest.raises(DimensionError):
        nce(model.forward(params, np.zeros((0, 2))), [],
            np.zeros(5, dtype=np.int32), fbank, 0.2)


def test_rows_must_match_forward_rows():
    params, batch, fbank = make_setup(70)
    rows = rows_of(batch)[:-1]
    (neg,) = bank.negative_rows(fbank, [rows], 5, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        nce(fw(params, batch), rows, neg, fbank, 0.2)


def drawn_epoch(seed, steps=5, b=6, count=10, n=60):
    """Params, inputs and a bank holding them row for row, and one drawn
    epoch: each step's b rows and its `count` shared negatives."""
    params, X, fbank = make_setup(seed, n=n, extra=0)
    rng = np.random.default_rng(seed)
    rows = bank.distinct_rows(rng, n, b, steps).astype(np.int64)
    return params, X, fbank, rows, bank.negative_rows(fbank, rows, count, rng)


def test_epoch_plans_reject_one_bad_step():
    # a fault in one step of the epoch raises before any step runs, while
    # a negative that is a row of another step's batch is allowed
    params, X, fbank, rows, negs = drawn_epoch(10)
    labels = np.random.default_rng(0).integers(-1, 3, size=len(fbank))
    other = [x.copy() for x in negs]
    other[1][0] = rows[2][0]
    assert rows[2][0] not in rows[1]
    assert len(contrastive.epoch_plans(fbank, rows, other, labels)) == 5
    own = [x.copy() for x in negs]
    own[3][-1] = rows[3][2]
    with pytest.raises(ContractViolationError):
        contrastive.epoch_plans(fbank, rows, own, labels)
    beyond = rows.copy()
    beyond[4, -1] = len(fbank)
    with pytest.raises(DimensionError):
        contrastive.epoch_plans(fbank, beyond, negs, labels)
    below = labels.copy()
    below[negs[2][0]] = -2
    for bad in (labels.astype(float), below):
        with pytest.raises(ContractViolationError):
            contrastive.epoch_plans(fbank, rows, negs, bad)


def test_epoch_plans_equal_single_step_plans():
    # each step's entry of an epoch's plans gives what a plan of that step
    # alone gives
    params, X, fbank, rows, negs = drawn_epoch(11)
    labels = np.random.default_rng(1).integers(-1, 3, size=len(fbank))
    # rows 0..9 unlabeled, so unlabeled queries occur too
    labels[:10] = -1
    # and an epoch whose last step is shorter, as the warm-up's can be
    short = list(rows[:-1]) + [rows[-1][:3]]
    epochs = [(rows, negs), (short, bank.negative_rows(
        fbank, short, 10, np.random.default_rng(2)))]
    for (steps, drawn), lab in itertools.product(epochs, (labels, None)):
        plans = contrastive.epoch_plans(fbank, steps, drawn, lab)
        assert len(plans) == len(steps)
        for r, neg, plan in zip(steps, drawn, plans):
            forward = fw(params, X[r])
            loss, dQ = contrastive.contrastive_grad(forward, r, neg, fbank,
                                                    0.2, plan)
            want_loss, want = nce(forward, r, neg, fbank, 0.2, lab)
            assert loss == want_loss
            np.testing.assert_array_equal(dQ, want)

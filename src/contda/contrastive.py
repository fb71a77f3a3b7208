"""Instance-discrimination contrastive loss against the feature bank.

Each query embedding is pulled toward its own stored key and pushed away from
sampled (or all) other keys, with similarities scaled by a temperature.  Bank
keys are treated as constants: no gradient flows into the bank.
"""

from dataclasses import dataclass

import numpy as np

from . import bank as bank_mod
from . import model as model_mod
from .errors import DimensionError
from .numerics import log_softmax

DEFAULT_TEMPERATURE = 0.07
DEFAULT_NEGATIVES = 64


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = DEFAULT_TEMPERATURE
    negatives: int = DEFAULT_NEGATIVES
    use_full_bank: bool = False


def nce_loss(query, positive, negatives, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """-log softmax probability of the positive among positive + negatives.

    Exactly zero when there are no negatives.
    """
    query = np.asarray(query, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if negatives.size == 0:
        negatives = negatives.reshape(0, query.shape[0])
    if query.ndim != 1 or positive.shape != query.shape:
        raise DimensionError("query and positive must be vectors of equal length")
    if negatives.ndim != 2 or negatives.shape[1] != query.shape[0]:
        raise DimensionError(f"negatives have shape {negatives.shape}")
    if temperature <= 0.0:
        raise DimensionError(f"temperature must be positive, got {temperature}")
    sims = np.concatenate(([positive @ query], negatives @ query)) / temperature
    return float(-log_softmax(sims)[0])


def _loss_and_query_grad(query, positive, negatives, temperature):
    keys = np.concatenate((positive[None, :], negatives), axis=0)
    sims = keys @ query / temperature
    logp = log_softmax(sims)
    probs = np.exp(logp)
    coeff = probs.copy()
    coeff[0] -= 1.0
    return float(-logp[0]), (coeff @ keys) / temperature


def contrastive_grad(params, fw, ids, bank, config: ContrastiveConfig,
                     rng: np.random.Generator):
    """Mean contrastive loss over the rows of a forward pass and its flat
    parameter gradient.

    fw holds the activations of the samples with these ids, in order.
    Positives come from each sample's own bank entry; negatives are drawn
    fresh per sample from the rest of the bank (all of it when
    use_full_bank is set).  Classifier blocks of the gradient are zero.
    """
    n = len(ids)
    if n == 0:
        raise DimensionError("empty batch")
    if fw.X.shape[0] != n:
        raise DimensionError(f"{n} ids for {fw.X.shape[0]} rows")
    Q = fw.embeddings()
    dQ = np.zeros_like(Q)
    total = 0.0
    for i, sid in enumerate(ids):
        positive = bank.key(sid)
        if config.use_full_bank:
            negatives = bank_mod.negatives_full(bank, sid)
        else:
            negatives = bank_mod.draw_negatives(bank, sid, config.negatives, rng)
        loss_i, g_q = _loss_and_query_grad(Q[i], positive, negatives,
                                           config.temperature)
        total += loss_i
        dQ[i] = g_q / n
    return total / n, model_mod.embedding_grad(params, fw, dQ)

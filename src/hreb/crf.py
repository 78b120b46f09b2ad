"""Linear-chain CRF scoring, partition and decoding, and the token head.

The transition table covers C tag classes plus synthetic start/stop states
(row C = leaving start, column C+1 = entering stop). Entries into start and
out of stop are -inf and never receive gradient; everything else is learned.
token_nll, the CRF-less ablation loss (loss_head=token), is one tape op
with a hand-written backward: a per-token softmax cross entropy that reads
no transitions.
"""

import warnings

import numpy as np

from . import autodiff as ad
from . import kernels
from .errors import NumericsError

PROB_FLOOR = 1e-12


class CrfParams(ad.Module):
    """Transition parameters over C classes plus start/stop."""

    def __init__(self, n_classes, tags=None, strict=False):
        super().__init__("crf.")
        self.n_classes = n_classes
        self.start = n_classes
        self.stop = n_classes + 1
        data = np.zeros((n_classes + 2, n_classes + 2))
        data[:, self.start] = -np.inf
        data[self.stop, :] = -np.inf
        self.trans = self.param("trans", data)
        self.strict_mask = None
        if strict:
            if tags is None:
                raise ValueError("strict transition masking needs the tag names")
            self.strict_mask = build_strict_mask(tags)


def build_strict_mask(tags):
    """Additive mask forbidding label bigrams that break BIO well-formedness.

    I-X may only follow B-X or I-X; every other entry is left at zero.
    """
    c = len(tags)
    mask = np.zeros((c + 2, c + 2))
    for j, tag in enumerate(tags):
        if not tag.startswith("I-"):
            continue
        body = tag[2:]
        legal = {"B-" + body, "I-" + body}
        for i, prev in enumerate(tags):
            if prev not in legal:
                mask[i, j] = -np.inf
        mask[c, j] = -np.inf  # start cannot enter a continuation
    return mask


def sequence_score(tape, emissions, tags, params, pack):
    """Unnormalized log score of one tag path (per sentence of a pack)."""
    return ad.crf_path_score(tape, emissions, params.trans, tags,
                             params.n_classes, params.strict_mask, pack)


def log_partition(tape, emissions, params, pack):
    """Log of the path-sum, via the forward algorithm: scaled probability
    space within kernels' bound, log space past it (kernels.crf_forward)."""
    return ad.crf_log_z(tape, emissions, params.trans,
                        params.n_classes, params.strict_mask, pack=pack)


def crf_nll(tape, emissions, tags, params, pack):
    """Negative log conditional likelihood of the gold path (per sentence)."""
    return ad.sub(tape, log_partition(tape, emissions, params, pack),
                  sequence_score(tape, emissions, tags, params, pack))


def viterbi(emissions, params):
    """Exact best path and its score.

    Ties break toward the lower class index at every backtracking step, so
    the result is deterministic.
    """
    if isinstance(emissions, ad.Tensor):
        emissions = emissions.data
    core, start, stop = ad.split_transitions(params.trans.data, params.n_classes,
                                             params.strict_mask)
    path, score = kernels.viterbi(emissions, core, start, stop)
    if not np.isfinite(score):
        raise NumericsError("no admissible tag path has finite score")
    return path, float(score)


def token_nll(tape, emissions, tags, pack):
    """Per-token cross entropy of the emission rows' softmax at the gold
    tags, summed per sentence: the no-decoder ablation loss, as one op.

    Gold-label probabilities below PROB_FLOOR are clamped there; each such
    batch trips a warning naming how many were. A sentence's terms are
    added in row order. The backward keeps the order of its primitive-op
    form (negate, repeat per row, pick the gold entries, divide by the
    clamped probabilities, gate on the clamp, softmax backward), so seeded
    runs keep their bits.
    """
    rows = np.arange(emissions.data.shape[0])
    probs, softmax_bw = ad._softmax(emissions.data, None)
    n_low = int((probs[rows, tags] < PROB_FLOOR).sum())
    if n_low:
        warnings.warn(
            f"{n_low} gold-label probabilities fell below {PROB_FLOOR}; clamped")
    onehot = np.zeros(probs.shape)
    onehot[rows, tags] = 1.0
    keep = probs > PROB_FLOOR
    clamped = np.maximum(probs, PROB_FLOOR)
    sums = pack.sums(np.log(clamped) * onehot).sum(-1)

    def bw(g):
        per_row = pack.per_row(np.reshape(g * -1.0, pack.b))
        return (softmax_bw(per_row[:, None] * onehot / clamped * keep),)
    return ad.record_op(tape, "token_nll", (emissions,),
                        pack.per_sentence(sums) * -1.0, bw)

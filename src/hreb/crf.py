"""Linear-chain CRF scoring, partition and decoding.

The transition table covers C tag classes plus synthetic start/stop states
(row C = leaving start, column C+1 = entering stop). Entries into start and
out of stop are -inf and never receive gradient; everything else is learned.
The CRF-less ablation (loss_head=token) is this CRF with every other
transition held at zero: log Z then splits into one log-sum-exp per
position, so crf_nll is the per-token softmax cross entropy and viterbi a
per-position argmax.
"""

import numpy as np

from . import autodiff as ad
from . import kernels
from .errors import NumericsError


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

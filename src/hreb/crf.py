"""Linear-chain CRF scoring, partition and decoding.

The transition table covers C tag classes plus synthetic start/stop states,
laid out as autodiff.split_transitions reads it. Entries into start and out
of stop are -inf and never receive gradient; everything else is learned.
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
    """Transition parameters over C classes plus start/stop. Given the C tag
    names as strict_tags, strict_mask is build_strict_mask(strict_tags)."""

    def __init__(self, n_classes, strict_tags=None):
        super().__init__("crf.")
        self.n_classes = n_classes
        data = np.zeros((n_classes + 2, n_classes + 2))
        data[:, n_classes] = -np.inf  # into start
        data[n_classes + 1, :] = -np.inf  # out of stop
        self.trans = self.param("trans", data)
        self.strict_mask = (None if strict_tags is None
                            else build_strict_mask(strict_tags))


def build_strict_mask(tags):
    """Additive mask forbidding label bigrams that break BIO well-formedness.

    I-X may only follow B-X or I-X, never start; every other entry is left
    at zero.
    """
    c = len(tags)
    mask = np.zeros((c + 2, c + 2))
    core, start, _ = ad.split_transitions(mask, c)
    for j, tag in enumerate(tags):
        if tag.startswith("I-"):
            core[[prev not in ("B" + tag[1:], tag) for prev in tags], j] = -np.inf
            start[j] = -np.inf
    return mask


def forbidden_step(params, path):
    """The first position of a tag-id path that params' strict mask forbids
    entering (from start or from the tag before), else None: exactly the
    paths the mask scores -inf."""
    core, start, _ = ad.split_transitions(params.strict_mask, params.n_classes)
    for t, j in enumerate(path):
        if (start[j] if t == 0 else core[path[t - 1], j]) == -np.inf:
            return t
    return None


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

"""Brute-force references that `hreb verify` runs; the test suite uses
them too.

crf_enumerate and crf_enumerate_marginals score every tag path of a
linear-chain CRF explicitly; ema_closed_form sums the EMA scan directly.
Everything here is deliberately naive, and the enumerations are only
feasible at small sizes. The fast implementations must agree with these
within the documented tolerances. The references that only the tests
use are in tests/references.py.
"""

import itertools
import math

import numpy as np


def _scored_paths(emissions, trans, start, stop):
    """Every tag path of a linear-chain CRF, scored explicitly: (paths,
    their scores, log_z)."""
    n, c = emissions.shape
    paths = list(itertools.product(range(c), repeat=n))
    scores = []
    for path in paths:
        s = start[path[0]] + stop[path[-1]]
        for t in range(n):
            s += emissions[t, path[t]]
        for t in range(n - 1):
            s += trans[path[t], path[t + 1]]
        scores.append(s)
    scores = np.array(scores)
    return paths, scores, float(np.logaddexp.reduce(scores))


def crf_enumerate(emissions, trans, start, stop):
    """Score every tag path of a linear-chain CRF explicitly.

    Returns (log_z, best_path, best_score). Among paths with the maximal
    score, the winner is the one whose tag sequence is smallest when compared
    from the last position backwards, matching a lowest-index argmax at each
    backtracking step of the fast decoder.
    """
    paths, scores, log_z = _scored_paths(
        np.asarray(emissions, dtype=np.float64), trans, start, stop)
    best_score = scores.max()
    winners = [p for p, s in zip(paths, scores) if s == best_score]
    best = min(winners, key=lambda p: tuple(reversed(p)))
    return log_z, np.array(best, dtype=np.int64), float(best_score)


def crf_enumerate_marginals(emissions, trans, start, stop):
    """Posterior statistics by explicit enumeration.

    Returns (unary (n, c), pairwise (c, c) summed over adjacent positions,
    first-tag marginal (c,), last-tag marginal (c,)).
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n, c = emissions.shape
    paths, scores, log_z = _scored_paths(emissions, trans, start, stop)
    unary = np.zeros((n, c))
    pair = np.zeros((c, c))
    first = np.zeros(c)
    last = np.zeros(c)
    for path, s in zip(paths, scores):
        p = math.exp(s - log_z)
        for t in range(n):
            unary[t, path[t]] += p
        for t in range(n - 1):
            pair[path[t], path[t + 1]] += p
        first[path[0]] += p
        last[path[-1]] += p
    return unary, pair, first, last


def ema_closed_form(x, alpha, h0):
    """h_t = (1-a)^(t+1) h0 + a * sum_k (1-a)^(t-k) x_k, summed directly."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    out = np.empty((n, d))
    for j in range(d):
        a = alpha[j]
        for t in range(n):
            acc = (1.0 - a) ** (t + 1) * h0[j]
            for k in range(t + 1):
                acc += a * (1.0 - a) ** (t - k) * x[k, j]
            out[t, j] = acc
    return out

"""Brute-force references used by the self-check command and the test suite.

Everything here is deliberately naive (path enumeration, closed-form sums,
one scalar per statement) and the enumerations are only feasible at small
sizes. The fast implementations must agree with these within the
documented tolerances. KERNELS maps each kernel name in hreb.kernels to its
scalar-loop reference, which takes the same arguments and returns the same
results. Given a batch axis, a reference runs each sequence on its own and
sums the parameter gradients.
"""

import itertools
import math

import numpy as np

_NEG_INF = -np.inf


def crf_enumerate(emissions, trans, start, stop):
    """Score every tag path of a linear-chain CRF explicitly.

    Returns (log_z, best_path, best_score). Among paths with the maximal
    score, the winner is the one whose tag sequence is smallest when compared
    from the last position backwards, matching a lowest-index argmax at each
    backtracking step of the fast decoder.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n, c = emissions.shape
    scores = []
    paths = []
    for path in itertools.product(range(c), repeat=n):
        s = start[path[0]] + stop[path[-1]]
        for t in range(n):
            s += emissions[t, path[t]]
        for t in range(n - 1):
            s += trans[path[t], path[t + 1]]
        scores.append(s)
        paths.append(path)
    scores = np.array(scores)
    log_z = float(np.logaddexp.reduce(scores))
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
    log_z, _, _ = crf_enumerate(emissions, trans, start, stop)
    unary = np.zeros((n, c))
    pair = np.zeros((c, c))
    first = np.zeros(c)
    last = np.zeros(c)
    for path in itertools.product(range(c), repeat=n):
        s = start[path[0]] + stop[path[-1]]
        for t in range(n):
            s += emissions[t, path[t]]
        for t in range(n - 1):
            s += trans[path[t], path[t + 1]]
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


# ---------------------------------------------------------------------------
# EMA scan: h_t = a * x_t + (1 - a) * h_{t-1}, per dimension.
# ---------------------------------------------------------------------------

def _ema_forward(x, alpha, h0):
    n, d = x.shape
    out = np.empty((n, d))
    h = h0.copy()
    for t in range(n):
        for j in range(d):
            h[j] = alpha[j] * x[t, j] + (1.0 - alpha[j]) * h[j]
            out[t, j] = h[j]
    return out


def _ema_backward(x, alpha, h0, hist, dout):
    # hist is the forward output; hist[t-1] (or h0) is the carried state.
    n, d = x.shape
    dx = np.empty((n, d))
    dalpha = np.zeros(d)
    carry = np.zeros(d)
    for t in range(n - 1, -1, -1):
        for j in range(d):
            g = dout[t, j] + carry[j]
            prev = hist[t - 1, j] if t > 0 else h0[j]
            dx[t, j] = alpha[j] * g
            dalpha[j] += g * (x[t, j] - prev)
            carry[j] = (1.0 - alpha[j]) * g
    return dx, dalpha, carry  # carry is now d(loss)/d(h0)


# ---------------------------------------------------------------------------
# Single-direction LSTM over a pre-projected input (xw = x @ W, one row per
# step). Gate order in the width-4h axis: input, forget, cell, output.
# ---------------------------------------------------------------------------

def _lstm_forward(xw, u, b):
    n = xw.shape[0]
    h_dim = u.shape[0]
    gates = np.empty((n, 4 * h_dim))
    cells = np.empty((n, h_dim))
    hidden = np.empty((n, h_dim))
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for t in range(n):
        a = xw[t] + np.dot(h, u) + b
        for j in range(h_dim):
            i_g = 1.0 / (1.0 + np.exp(-a[j]))
            f_g = 1.0 / (1.0 + np.exp(-a[h_dim + j]))
            c_g = np.tanh(a[2 * h_dim + j])
            o_g = 1.0 / (1.0 + np.exp(-a[3 * h_dim + j]))
            c[j] = f_g * c[j] + i_g * c_g
            h[j] = o_g * np.tanh(c[j])
            gates[t, j] = i_g
            gates[t, h_dim + j] = f_g
            gates[t, 2 * h_dim + j] = c_g
            gates[t, 3 * h_dim + j] = o_g
            cells[t, j] = c[j]
            hidden[t, j] = h[j]
    return hidden, gates, cells


def _lstm_backward(gates, cells, hidden, u, dout):
    n, h_dim = dout.shape
    dxw = np.empty((n, 4 * h_dim))
    du = np.zeros((h_dim, 4 * h_dim))
    db = np.zeros(4 * h_dim)
    dh = np.zeros(h_dim)
    dc = np.zeros(h_dim)
    da = np.empty(4 * h_dim)
    for t in range(n - 1, -1, -1):
        for j in range(h_dim):
            g = dout[t, j] + dh[j]
            i_g = gates[t, j]
            f_g = gates[t, h_dim + j]
            c_g = gates[t, 2 * h_dim + j]
            o_g = gates[t, 3 * h_dim + j]
            tc = np.tanh(cells[t, j])
            c_prev = cells[t - 1, j] if t > 0 else 0.0
            dcj = dc[j] + g * o_g * (1.0 - tc * tc)
            da[j] = dcj * c_g * i_g * (1.0 - i_g)
            da[h_dim + j] = dcj * c_prev * f_g * (1.0 - f_g)
            da[2 * h_dim + j] = dcj * i_g * (1.0 - c_g * c_g)
            da[3 * h_dim + j] = g * tc * o_g * (1.0 - o_g)
            dc[j] = dcj * f_g
        for k in range(4 * h_dim):
            dxw[t, k] = da[k]
            db[k] += da[k]
        if t > 0:
            for j in range(h_dim):
                h_prev = hidden[t - 1, j]
                for k in range(4 * h_dim):
                    du[j, k] += h_prev * da[k]
        dh = np.dot(u, da)
    return dxw, du, db


# ---------------------------------------------------------------------------
# Linear-chain CRF. "trans" is class->class, "start"/"stop" are the boundary
# potentials. All dynamic programs run in log space.
# ---------------------------------------------------------------------------

def _logsumexp_row(row):
    m = row[0]
    for j in range(1, row.shape[0]):
        if row[j] > m:
            m = row[j]
    if m == _NEG_INF:
        return _NEG_INF
    s = 0.0
    for j in range(row.shape[0]):
        s += np.exp(row[j] - m)
    return m + np.log(s)


def _crf_forward(emissions, trans, start, stop):
    n, c = emissions.shape
    alpha = np.empty((n, c))
    for j in range(c):
        alpha[0, j] = start[j] + emissions[0, j]
    scratch = np.empty(c)
    for t in range(1, n):
        for j in range(c):
            for i in range(c):
                scratch[i] = alpha[t - 1, i] + trans[i, j]
            alpha[t, j] = _logsumexp_row(scratch) + emissions[t, j]
    final = np.empty(c)
    for j in range(c):
        final[j] = alpha[n - 1, j] + stop[j]
    return _logsumexp_row(final), alpha


def _crf_backward(emissions, trans, start, stop, alpha, log_z, gscale):
    # Forward-backward: emission grads are posterior unaries, transition
    # grads are summed pairwise posteriors, all scaled by the upstream grad.
    n, c = emissions.shape
    beta = np.empty((n, c))
    for j in range(c):
        beta[n - 1, j] = stop[j]
    scratch = np.empty(c)
    for t in range(n - 2, -1, -1):
        for i in range(c):
            for j in range(c):
                scratch[j] = trans[i, j] + emissions[t + 1, j] + beta[t + 1, j]
            beta[t, i] = _logsumexp_row(scratch)
    demis = np.empty((n, c))
    for t in range(n):
        for j in range(c):
            demis[t, j] = gscale * np.exp(alpha[t, j] + beta[t, j] - log_z)
    dtrans = np.zeros((c, c))
    for t in range(n - 1):
        for i in range(c):
            for j in range(c):
                v = alpha[t, i] + trans[i, j] + emissions[t + 1, j] + beta[t + 1, j] - log_z
                dtrans[i, j] += gscale * np.exp(v)
    dstart = np.empty(c)
    dstop = np.empty(c)
    for j in range(c):
        dstart[j] = demis[0, j]
        dstop[j] = gscale * np.exp(alpha[n - 1, j] + stop[j] - log_z)
    return demis, dtrans, dstart, dstop


def _viterbi(emissions, trans, start, stop):
    # Ties pick the lowest class index at every argmax, including the final
    # state, so the decoded path is the colexicographically smallest
    # maximizer.
    n, c = emissions.shape
    delta = np.empty((n, c))
    back = np.zeros((n, c), dtype=np.int64)
    for j in range(c):
        delta[0, j] = start[j] + emissions[0, j]
    for t in range(1, n):
        for j in range(c):
            best = delta[t - 1, 0] + trans[0, j]
            arg = 0
            for i in range(1, c):
                v = delta[t - 1, i] + trans[i, j]
                if v > best:
                    best = v
                    arg = i
            delta[t, j] = best + emissions[t, j]
            back[t, j] = arg
    best = delta[n - 1, 0] + stop[0]
    arg = 0
    for j in range(1, c):
        v = delta[n - 1, j] + stop[j]
        if v > best:
            best = v
            arg = j
    path = np.empty(n, dtype=np.int64)
    path[n - 1] = arg
    for t in range(n - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best


# ---------------------------------------------------------------------------
# Batches: a (T, B, ...) first argument runs B sequences, one at a time.
# ---------------------------------------------------------------------------

def _over_lanes(fn, lane_args, lane_outs):
    """fn run on each lane b of a batch: the arguments in lane_args are cut
    to [:, b], the results in lane_outs are stacked on axis 1, and the
    other results (parameter gradients) are summed over the lanes."""
    def run(*args):
        if args[0].ndim == 2:
            return fn(*args)
        per = [fn(*(a[:, b] if i in lane_args else a for i, a in enumerate(args)))
               for b in range(args[0].shape[1])]
        if not isinstance(per[0], tuple):
            return np.stack(per, axis=1)
        return tuple(np.stack(out, axis=1) if i in lane_outs else sum(out)
                     for i, out in enumerate(zip(*per)))
    return run


def _crf_lengths(emissions, lengths):
    n, nb = emissions.shape[:2]
    return [n] * nb if lengths is None else [int(x) for x in lengths]


def _crf_forward_lanes(emissions, trans, start, stop, lengths=None):
    # steps past a lane's length read -inf, as the kernel leaves them
    if emissions.ndim == 2:
        return _crf_forward(emissions, trans, start, stop)
    alpha = np.full(emissions.shape, _NEG_INF)
    log_z = np.empty(emissions.shape[1])
    for b, n in enumerate(_crf_lengths(emissions, lengths)):
        log_z[b], alpha[:n, b] = _crf_forward(emissions[:n, b], trans, start, stop)
    return log_z, alpha


def _crf_backward_lanes(emissions, trans, start, stop, alpha, log_z, gscale,
                        lengths=None):
    if emissions.ndim == 2:
        return _crf_backward(emissions, trans, start, stop, alpha, log_z, gscale)
    c = emissions.shape[-1]
    demis = np.zeros(emissions.shape)
    dtrans, dstart, dstop = np.zeros((c, c)), np.zeros(c), np.zeros(c)
    for b, n in enumerate(_crf_lengths(emissions, lengths)):
        demis[:n, b], dt, ds, dst = _crf_backward(
            emissions[:n, b], trans, start, stop, alpha[:n, b], log_z[b], gscale[b])
        dtrans += dt
        dstart += ds
        dstop += dst
    return demis, dtrans, dstart, dstop


KERNELS = {
    "ema_forward": _over_lanes(_ema_forward, {0}, ()),
    "ema_backward": _over_lanes(_ema_backward, {0, 3, 4}, {0}),
    "lstm_forward": _over_lanes(_lstm_forward, {0}, {0, 1, 2}),
    "lstm_backward": _over_lanes(_lstm_backward, {0, 1, 2, 4}, {0}),
    "crf_forward": _crf_forward_lanes,
    "crf_backward": _crf_backward_lanes,
    "viterbi": _viterbi,
}

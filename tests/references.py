"""Scalar references that only the test suite checks the package against.

dense_attention is one sentence's attention stage on its full (n, n)
scores, for the banded attention op. KERNELS maps each kernel name in
hreb.kernels to its scalar-loop reference for one sequence: the same
arguments without the batch axis and the lengths, one element per
statement. A kernel's lane b, cut to its length, must match the reference
run on that lane alone, and its parameter gradients the sum of the lanes'
references.
"""

import math

import numpy as np
from scipy.special import erf

_NEG_INF = -np.inf


def dense_attention(q, k, v, bias, mu, sigma_raw, scale, chunk, attn_fn):
    """One sentence's attention stage on its full (n, n) scores, chunks of
    `chunk` rows (0: the whole sentence) as a mask: (output, scores,
    weights, mask).

    Every step is analytic, so complex inputs work too: a complex step
    through it gives derivatives to the last bits (scipy's erf accepts
    complex arguments).
    """
    n = q.shape[0]
    blocks = np.arange(n) // (chunk or n)
    mask = blocks[:, None] == blocks[None, :]
    w = (len(bias) - 1) // 2
    offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
    scores = scale * (q @ k.T) + bias[np.clip(offsets, -w, w) + w]
    if attn_fn == "softmax":
        top = np.where(mask, scores.real, _NEG_INF).max(axis=1, keepdims=True)
        e = np.where(mask, np.exp(scores - top), 0.0)
        weights = e / e.sum(axis=1, keepdims=True)
    else:
        sigma = np.log1p(np.exp(sigma_raw))
        squash = 0.5 * (1.0 + erf((scores - mu) / (sigma * math.sqrt(2.0))))
        weights = np.where(mask, squash, 0.0)
        if attn_fn == "reduced_laplace":
            weights = np.where(mask, weights + scores, 0.0)
            weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ v, scores, weights, mask


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


def _crf_backward(emissions, trans, stop, alpha, log_z, gscale):
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


KERNELS = {
    "ema_forward": _ema_forward,
    "ema_backward": _ema_backward,
    "lstm_forward": _lstm_forward,
    "lstm_backward": _lstm_backward,
    "crf_forward": _crf_forward,
    "crf_backward": _crf_backward,
    "viterbi": _viterbi,
}

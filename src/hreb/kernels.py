"""Hot recurrence kernels: EMA scan, LSTM, and linear-chain CRF dynamic programs.

Every kernel is written twice. The scalar loops are the reference: they are
what numba's @njit compiles, and the parity tests check the other table
against them. The vectorized versions run each time step (or each CRF
position) as whole-array numpy code, with the matrix products hoisted out
of the time loop where the recurrence allows.

Selection happens at import: the jitted loops when numba imports, otherwise
the vectorized table (with a warning naming the import error).
HREB_BACKEND=numpy forces the vectorized table. All paths are float64;
callers cast at the boundary.
"""

import os
import warnings

import numpy as np

_BACKEND = os.environ.get("HREB_BACKEND", "numba").strip().lower()
if _BACKEND not in ("numba", "numpy"):
    raise RuntimeError(
        f"HREB_BACKEND must be 'numba' or 'numpy', got {_BACKEND!r}"
    )

USE_NUMBA = _BACKEND == "numba"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError as exc:
        warnings.warn(
            f"numba unavailable ({exc}); falling back to pure-numpy kernels"
        )
        USE_NUMBA = False

_NEG_INF = -np.inf


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


_REF_KERNELS = {
    "ema_forward": _ema_forward,
    "ema_backward": _ema_backward,
    "lstm_forward": _lstm_forward,
    "lstm_backward": _lstm_backward,
    "crf_forward": _crf_forward,
    "crf_backward": _crf_backward,
    "viterbi": _viterbi,
}


# ---------------------------------------------------------------------------
# Vectorized versions of the loops above, same signatures and results (up
# to float rounding; Viterbi paths are exact).
# ---------------------------------------------------------------------------

def _ema_forward_vec(x, alpha, h0):
    ax = alpha * x
    keep = 1.0 - alpha
    out = np.empty(x.shape)
    h = h0
    for t in range(x.shape[0]):
        h = np.multiply(keep, h, out=out[t])
        h += ax[t]
    return out


def _ema_backward_vec(x, alpha, h0, hist, dout):
    n, d = x.shape
    keep = 1.0 - alpha
    g = np.empty((n, d))
    carry = np.zeros(d)
    for t in range(n - 1, -1, -1):
        carry = np.add(dout[t], carry, out=g[t]) * keep
    prev = np.empty((n, d))
    prev[0] = h0
    prev[1:] = hist[:-1]
    return alpha * g, (g * (x - prev)).sum(0), carry


def _lstm_forward_vec(xw, u, b):
    n = xw.shape[0]
    h_dim = u.shape[0]
    xwb = xw + b
    gates = np.empty((n, 4 * h_dim))
    cells = np.empty((n, h_dim))
    hidden = np.empty((n, h_dim))
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    cs = slice(2 * h_dim, 3 * h_dim)
    for t in range(n):
        a = xwb[t] + h @ u
        g = gates[t]
        # sigmoid on all four slices, then tanh overwrites the cell slice
        np.negative(a, out=g)
        np.exp(g, out=g)
        g += 1.0
        np.reciprocal(g, out=g)
        np.tanh(a[cs], out=g[cs])
        c = g[h_dim:2 * h_dim] * c + g[:h_dim] * g[cs]
        h = g[3 * h_dim:] * np.tanh(c)
        cells[t] = c
        hidden[t] = h
    return hidden, gates, cells


def _lstm_backward_vec(gates, cells, hidden, u, dout):
    n, h_dim = dout.shape
    g4 = gates.reshape(n, 4, h_dim)
    i_g, f_g, c_g, o_g = g4[:, 0], g4[:, 1], g4[:, 2], g4[:, 3]
    tc = np.tanh(cells)
    c_prev = np.zeros((n, h_dim))
    c_prev[1:] = cells[:-1]
    # da[:, :3] = dc_t * k3[t] and da[:, 3] = g_t * k_o[t], where
    # dc_t = dc_{t+1} * f_{t+1} + g_t * k_c[t] and g_t = dout[t] + u @ da_{t+1}.
    k3 = np.empty((n, 3, h_dim))
    k3[:, 0] = c_g * i_g * (1.0 - i_g)
    k3[:, 1] = c_prev * f_g * (1.0 - f_g)
    k3[:, 2] = i_g * (1.0 - c_g * c_g)
    k_o = tc * o_g * (1.0 - o_g)
    k_c = o_g * (1.0 - tc * tc)
    dxw = np.empty((n, 4, h_dim))
    dh = np.zeros(h_dim)
    dc = np.zeros(h_dim)
    for t in range(n - 1, -1, -1):
        g = dout[t] + dh
        dct = dc + g * k_c[t]
        np.multiply(k3[t], dct, out=dxw[t, :3])
        np.multiply(k_o[t], g, out=dxw[t, 3])
        dc = dct * f_g[t]
        dh = u @ dxw[t].reshape(-1)
    dxw = dxw.reshape(n, 4 * h_dim)
    return dxw, hidden[:-1].T @ dxw[1:], dxw.sum(0)


def _logsumexp(s, axis):
    # Shifted by the max along `axis`; an all -inf slice gives -inf (the
    # caller silences numpy's divide warning for log(0)).
    m = s.max(axis, keepdims=True)
    m = np.where(m == _NEG_INF, 0.0, m)
    return np.log(np.exp(s - m).sum(axis)) + m.squeeze(axis)


def _crf_forward_vec(emissions, trans, start, stop):
    n, c = emissions.shape
    alpha = np.empty((n, c))
    alpha[0] = start + emissions[0]
    with np.errstate(divide="ignore"):
        for t in range(1, n):
            alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, 0) + emissions[t]
        log_z = _logsumexp(alpha[n - 1] + stop, 0)
    return log_z, alpha


def _crf_backward_vec(emissions, trans, start, stop, alpha, log_z, gscale):
    n, c = emissions.shape
    beta = np.empty((n, c))
    beta[n - 1] = stop
    with np.errstate(divide="ignore"):
        for t in range(n - 2, -1, -1):
            beta[t] = _logsumexp(trans + emissions[t + 1] + beta[t + 1], 1)
    demis = gscale * np.exp(alpha + beta - log_z)
    # pairwise posteriors of (y_t = i, y_{t+1} = j), all t at once
    pair = alpha[:-1, :, None] + trans + emissions[1:, None] + beta[1:, None] - log_z
    dtrans = gscale * np.exp(pair).sum(0)
    dstop = gscale * np.exp(alpha[n - 1] + stop - log_z)
    return demis, dtrans, demis[0].copy(), dstop


def _viterbi_vec(emissions, trans, start, stop):
    # argmax returns the first maximum, so ties pick the lowest class index
    # exactly as the reference loop's strict comparison does.
    n, c = emissions.shape
    delta = start + emissions[0]
    back = np.zeros((n, c), dtype=np.int64)
    for t in range(1, n):
        s = delta[:, None] + trans
        back[t] = s.argmax(0)
        delta = s.max(0) + emissions[t]
    final = delta + stop
    last = int(final.argmax())
    path = np.empty(n, dtype=np.int64)
    path[n - 1] = last
    for t in range(n - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, final[last]


_VEC_KERNELS = {
    "ema_forward": _ema_forward_vec,
    "ema_backward": _ema_backward_vec,
    "lstm_forward": _lstm_forward_vec,
    "lstm_backward": _lstm_backward_vec,
    "crf_forward": _crf_forward_vec,
    "crf_backward": _crf_backward_vec,
    "viterbi": _viterbi_vec,
}

if USE_NUMBA:
    _logsumexp_row = njit(cache=True)(_logsumexp_row)
    _JIT_KERNELS = {name: njit(cache=True)(fn) for name, fn in _REF_KERNELS.items()}
else:
    _JIT_KERNELS = {}

_ACTIVE = _JIT_KERNELS if USE_NUMBA else _VEC_KERNELS

ema_forward = _ACTIVE["ema_forward"]
ema_backward = _ACTIVE["ema_backward"]
lstm_forward = _ACTIVE["lstm_forward"]
lstm_backward = _ACTIVE["lstm_backward"]
crf_forward = _ACTIVE["crf_forward"]
crf_backward = _ACTIVE["crf_backward"]
viterbi = _ACTIVE["viterbi"]


def backend_name():
    return "numba" if USE_NUMBA else "numpy"


def kernel_impls():
    """Every kernel table, for parity tests and the benchmark.

    "reference" holds the scalar loops, "numpy" the vectorized versions and
    "numba" the jitted loops. The numba table is empty unless the numba
    backend is active: it is also empty under HREB_BACKEND=numpy when numba
    is installed.
    """
    return {"reference": _REF_KERNELS, "numpy": _VEC_KERNELS,
            "numba": _JIT_KERNELS}


def as_f64(arr):
    """Contiguous float64 view/copy for kernel consumption."""
    return np.ascontiguousarray(arr, dtype=np.float64)

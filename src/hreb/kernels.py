"""Hot kernels: EMA scan, LSTM, linear-chain CRF dynamic programs, sigmoid
and erf.

Each kernel runs one time step (or one CRF position) as whole-array numpy
code, with the matrix products hoisted out of the time loop where the
recurrence allows. Time is axis 0 of the first argument. The EMA and LSTM
kernels take an optional batch axis after it, and the CRF forward and
backward always take one, with each lane's length: (T, B, ...) runs B
sequences side by side, each padded at its end, and the parameter
gradients sum over them. One sentence (hreb.pack's Pack(n)) is B = 1.
Viterbi decodes one (T, C) sequence. The scalar-loop references the tests
compare against are KERNELS in tests/references.py: the same signatures for
one sequence, and each lane's results (up to float rounding; Viterbi paths
are exact). sigmoid and erf are elementwise; their oracles are
scipy.special's expit and erf, which only the tests import: no hreb command
loads scipy. All arrays are float64.
"""

import numpy as np

_NEG_INF = -np.inf


def sigmoid(a, out=None):
    """1 / (1 + exp(-a)) elementwise, into out if given; a 0-d input gives
    a 0-d array. exp(-a) may overflow to inf, which reads exactly 0.0 and
    warns of nothing."""
    with np.errstate(over="ignore"):
        return _sigmoid(a, out)


def _sigmoid(a, out):
    # sigmoid's arithmetic, for a caller that already ignores overflow: the
    # LSTM loop enters np.errstate once, as a guard per step cost ~10% of it
    y = np.asarray(np.negative(a, out=out))
    np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


# ---------------------------------------------------------------------------
# erf, after Cephes' ndtr.c (Moshier, "Methods and Programs for Mathematical
# Functions", 1989): x T(x^2) / U(x^2) for |x| <= 1, and
# 1 - exp(-x^2) P(x) / Q(x) above, with the same coefficients and the same
# Horner order, so most values have scipy.special.erf's bits.
# ---------------------------------------------------------------------------

# erf(x) rounds to exactly 1.0 in float64 from x ~ 5.9216 on
ERF_SATURATION = 6.0
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
# (9, 4, 1): step k's coefficient of T, U, P and Q, highest power first,
# each padded with leading zeros to degree 8 (0 * x + 0 stays exactly 0)
_ERF_COEF = np.array([(0.0,) * (9 - len(c)) + c
                      for c in (_ERF_T, _ERF_U, _ERF_P, _ERF_Q)]).T[:, :, None].copy()


def erf(u):
    """The error function, elementwise; a 0-d input gives a 0-d result.

    Entries with |u| >= ERF_SATURATION read sign(u), which is erf's
    rounded value there (inf gives 1, NaN stays NaN); only the others are
    gathered and evaluated. Each value depends on its own entry alone.
    """
    u = np.asarray(u, dtype=np.float64)
    a = np.abs(u)
    live = a < ERF_SATURATION
    x = a[live]
    out = np.sign(u, out=np.empty(u.shape))
    if x.size:
        out[live] = np.copysign(_erf_abs(x), u[live])
    return out


def _erf_abs(x):
    """erf of a 1-d array 0 <= x < ERF_SATURATION: the four polynomials in
    one Horner loop over a (4, L) array, then each entry's branch."""
    arg = np.empty((4, x.size))
    z = np.multiply(x, x, out=arg[0])
    arg[1] = z
    arg[2:] = x
    acc = np.multiply(_ERF_COEF[0], arg)
    for c in _ERF_COEF[1:-1]:
        acc += c
        acc *= arg
    acc += _ERF_COEF[-1]
    t, u, p, q = acc
    t *= x
    t /= u
    big = np.exp(np.negative(z, out=u), out=u)
    big *= p
    big /= q
    np.subtract(1.0, big, out=big)
    np.copyto(big, t, where=x <= 1.0)
    return big


# ---------------------------------------------------------------------------
# EMA scan: h_t = a * x_t + (1 - a) * h_{t-1}, per dimension.
# ---------------------------------------------------------------------------

def _flat_step(v, x):
    """v repeated across one time step of x, flat. The EMA loops run each
    step as one flat row, so a batch axis costs them nothing per step."""
    reps = x[0].size // v.size
    return v if reps == 1 else np.tile(v, reps)


def ema_forward(x, alpha, h0):
    alpha = _flat_step(alpha, x)
    ax = alpha * x.reshape(x.shape[0], -1)
    keep = 1.0 - alpha
    out = np.empty(ax.shape)
    h = _flat_step(h0, x)
    for t in range(x.shape[0]):
        h = np.multiply(keep, h, out=out[t])
        h += ax[t]
    return out.reshape(x.shape)


def ema_backward(x, alpha, h0, hist, dout):
    n, d = x.shape[0], x.shape[-1]
    keep = _flat_step(1.0 - alpha, x)
    rows = dout.reshape(n, -1)
    g = np.empty(rows.shape)
    carry = np.zeros(keep.shape)
    for t in range(n - 1, -1, -1):
        carry = np.add(rows[t], carry, out=g[t]) * keep
    g = g.reshape(x.shape)
    prev = np.empty(x.shape)
    prev[0] = h0
    prev[1:] = hist[:-1]
    return (alpha * g, (g * (x - prev)).reshape(-1, d).sum(0),
            carry.reshape(-1, d).sum(0))


# ---------------------------------------------------------------------------
# Single-direction LSTM over a pre-projected input (xw = x @ W, one row per
# step). Gate order in the width-4h axis: input, forget, cell, output.
# ---------------------------------------------------------------------------

def lstm_forward(xw, u, b):
    h_dim = u.shape[0]
    xwb = xw + b
    gates = np.empty(xw.shape)
    cells = np.empty(xw.shape[:-1] + (h_dim,))
    hidden = np.empty(cells.shape)
    # (n, ..., h) views of each gate's columns
    i_g, f_g, c_g, o_g = np.moveaxis(gates.reshape(cells.shape[:-1] + (4, h_dim)), -2, 0)
    cs = (Ellipsis, slice(2 * h_dim, 3 * h_dim))
    h = np.zeros(cells.shape[1:])
    c = np.zeros(h.shape)
    steps = zip(xwb, gates, i_g, f_g, c_g, o_g, cells, hidden)
    with np.errstate(over="ignore"):
        for xwb_t, g_t, i_t, f_t, c_g_t, o_t, c_t, h_t in steps:
            a = h @ u
            a += xwb_t
            # sigmoid on all four slices, then tanh overwrites the cell slice
            _sigmoid(a, out=g_t)
            np.tanh(a[cs], out=c_g_t)
            # c and h are written in place, as this step's rows
            c = np.multiply(f_t, c, out=c_t)
            c += i_t * c_g_t
            h = np.tanh(c, out=h_t)
            h *= o_t
    return hidden, gates, cells


def lstm_backward(gates, cells, hidden, u, dout):
    n, h_dim = dout.shape[0], dout.shape[-1]
    g4 = gates.reshape(gates.shape[:-1] + (4, h_dim))
    i_g, f_g, c_g, o_g = (g4[..., k, :] for k in range(4))
    tc = np.tanh(cells)
    c_prev = np.zeros(cells.shape)
    c_prev[1:] = cells[:-1]
    # da[.., :3] = dc_t * k3[t] and da[.., 3] = g_t * k_o[t], where
    # dc_t = dc_{t+1} * f_{t+1} + g_t * k_c[t] and g_t = dout[t] + u @ da_{t+1}.
    k3 = np.empty(g4.shape[:-2] + (3, h_dim))
    k3[..., 0, :] = c_g * i_g * (1.0 - i_g)
    k3[..., 1, :] = c_prev * f_g * (1.0 - f_g)
    k3[..., 2, :] = i_g * (1.0 - c_g * c_g)
    k_o = tc * o_g * (1.0 - o_g)
    k_c = o_g * (1.0 - tc * tc)
    dxw = np.empty(g4.shape)
    dh = np.zeros(dout.shape[1:])
    dc = np.zeros(dout.shape[1:])
    u_t = u.T
    for t in range(n - 1, -1, -1):
        g = dout[t] + dh
        dct = dc + g * k_c[t]
        np.multiply(k3[t], dct[..., None, :], out=dxw[t, ..., :3, :])
        np.multiply(k_o[t], g, out=dxw[t, ..., 3, :])
        dc = dct * f_g[t]
        dh = dxw[t].reshape(dout.shape[1:-1] + (-1,)) @ u_t
    dxw = dxw.reshape(gates.shape)
    flat = dxw.reshape(n, -1, 4 * h_dim)
    return (dxw, hidden[:-1].reshape(-1, h_dim).T @ flat[1:].reshape(-1, 4 * h_dim),
            flat.reshape(-1, 4 * h_dim).sum(0))


# ---------------------------------------------------------------------------
# Linear-chain CRF. "trans" is class->class, "start"/"stop" are the boundary
# potentials. All dynamic programs run in log space.
# ---------------------------------------------------------------------------

def _logsumexp(s, axis):
    # Shifted by the max along `axis`; an all -inf slice gives -inf (the
    # caller silences numpy's divide warning for log(0)).
    m = s.max(axis, keepdims=True)
    m = np.where(m == _NEG_INF, 0.0, m)
    return np.log(np.exp(s - m).sum(axis)) + m.squeeze(axis)


def _last(alpha, lengths):
    """Each lane's row at its final step: alpha[lengths - 1] per lane."""
    return alpha[lengths - 1, np.arange(lengths.size)]


def crf_forward(emissions, trans, start, stop, lengths):
    # (T, B, C) emissions; lengths (B,) gives each lane's true length, and
    # steps past it read -inf.
    n = emissions.shape[0]
    alpha = np.empty(emissions.shape)
    alpha[0] = start + emissions[0]
    with np.errstate(divide="ignore"):
        for t in range(1, n):
            alpha[t] = _logsumexp(alpha[t - 1][..., :, None] + trans, -2) + emissions[t]
        alpha[np.arange(n)[:, None] >= lengths] = _NEG_INF
        log_z = _logsumexp(_last(alpha, lengths) + stop, -1)
    return log_z, alpha


def crf_backward(emissions, trans, stop, alpha, log_z, gscale, lengths):
    n, c = emissions.shape[0], emissions.shape[-1]
    beta = np.empty(emissions.shape)
    beta[n - 1] = stop
    # a lane's beta is stop at its last step and -inf past it
    ends = np.arange(n)[:, None] == lengths - 1
    beta[n - 1][~ends[n - 1]] = _NEG_INF
    with np.errstate(divide="ignore"):
        for t in range(n - 2, -1, -1):
            beta[t] = _logsumexp(trans + (emissions[t + 1] + beta[t + 1])[..., None, :], -1)
            beta[t][ends[t]] = stop
    lz = np.expand_dims(log_z, -1)
    gs = np.expand_dims(gscale, -1)
    demis = gs * np.exp(alpha + beta - lz)
    # pairwise posteriors of (y_t = i, y_{t+1} = j), all t at once
    pair = (alpha[:-1, ..., :, None] + trans
            + (emissions[1:] + beta[1:])[..., None, :] - lz[..., None])
    dtrans = (gs[..., None] * np.exp(pair).sum(0)).reshape(-1, c, c).sum(0)
    dstop = gs * np.exp(_last(alpha, lengths) + stop - lz)
    return (demis, dtrans, demis[0].reshape(-1, c).sum(0),
            dstop.reshape(-1, c).sum(0))


def viterbi(emissions, trans, start, stop):
    # argmax returns the first maximum, so ties pick the lowest class index
    # exactly as the reference loop's strict comparison does. Each step's
    # max is read at its argmax rather than reduced a second time.
    n, c = emissions.shape
    delta = start + emissions[0]
    back = np.zeros((n, c), dtype=np.int64)
    cols = np.arange(c)
    for t in range(1, n):
        s = delta[:, None] + trans
        best = s.argmax(0)
        back[t] = best
        delta = s[best, cols] + emissions[t]
    final = delta + stop
    last = int(final.argmax())
    path = np.empty(n, dtype=np.int64)
    path[n - 1] = last
    for t in range(n - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, final[last]


def backend_name():
    """Name of the kernel implementation, for benchmark environment records."""
    return "numpy"

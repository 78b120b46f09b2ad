"""Hot kernels: EMA scan, LSTM, linear-chain CRF dynamic programs, sigmoid
and erf.

Each kernel runs one time step (or one CRF position) as whole-array numpy
code, with the matrix products hoisted out of the time loop where the
recurrence allows. Time is axis 0 of the first argument. The EMA and LSTM
kernels take an optional batch axis after it, and the CRF forward and
backward always take one, with each lane's length: (T, B, ...) runs B
sequences side by side, each padded at its end, and the parameter
gradients sum over them. One sentence (hreb.pack's Pack(n)) is B = 1.
The CRF forward and backward share one scan, which runs in scaled
probability space, four numpy calls a step, whenever a bound on the inputs
(_scaled_inputs) keeps every entry a normal float; past it (gaps of
hundreds of nats) the scan runs in log space. Viterbi decodes one (T, C)
sequence with a max-plus loop. The scalar-loop references the tests
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
# potentials. The forward and backward scans are one scan, _alpha: the
# backward runs it over the transposed table from stop, on each lane read
# back from its last step. _alpha runs in scaled probability space (Rabiner
# 1989, Proc. IEEE 77(2)) when _scaled_inputs proves that no entry can leave
# float64's normal range, and otherwise runs the log-space loop _alpha_log.
# Viterbi stays a max-plus loop.
# ---------------------------------------------------------------------------

# exp(-SCALED_LIMIT) is float64's smallest normal number
SCALED_LIMIT = float(-np.log(np.finfo(np.float64).tiny))


def _logsumexp(s, axis):
    # Shifted by the max along `axis`; an all -inf slice gives -inf (the
    # caller silences numpy's divide warning for log(0)).
    m = s.max(axis, keepdims=True)
    m = np.where(m == _NEG_INF, 0.0, m)
    return np.log(np.exp(s - m).sum(axis)) + m.squeeze(axis)


def _last(alpha, lengths):
    """Each lane's row at its final step: alpha[lengths - 1] per lane."""
    return alpha[lengths - 1, np.arange(lengths.size)]


def _scaled_inputs(emissions, trans, edge):
    """The scaled scan's factors, each with the log offset it was scaled by:
    (exp(emissions - row max), row max), (exp(trans - max), max) and
    (exp(edge - max), max), and the live classes (those with a finite
    transition out). None when the bound below does not hold.

    The scan keeps row t as p_t = q_t / s_t, with q_t = (p_{t-1} @ K) * E_t
    (q_0 = exp(edge) * E_0, all scaled as above) and s_t the sum of q_t over
    the live classes, the only ones the next step reads. alpha_t is then
    log p_t plus the sum of the log scales so far. No entry of K or E_t
    exceeds 1 and the live part of a row sums to 1, so no q exceeds 1 and
    no s exceeds C. Each finite entry of K (and of the scaled edge) is at
    least exp(-span), span being the wider range of the finite entries of
    trans and of edge, and each entry of E_t at least exp(-gap_t), gap_t
    being row t's range. Let k be the least count for which every live
    class that can hold mass (it is entered, or the edge enters it) reaches
    every entered class in exactly k transitions. From row k on, q_t is the
    live part of p_{t-k} times k steps' products, divided by the k - 1
    scales between, so each entry that log space keeps finite is at least
    exp(-X), X = k (span + log C) + the largest sum of gaps over k
    consecutive rows. Before row k, one path from row 0 has no more
    factors. A class with no transition out reads q / s <= 1 / s <= exp(X).
    So with X <= SCALED_LIMIT every finite entry is a normal number, with
    full relative precision, and an entry is 0 exactly where log space
    reads -inf. Past the bound (a gap or span of hundreds of nats, no such
    k up to C, as when a class decays through a chain that no other class
    enters, or NaN) the caller runs the log-space loop.
    """
    n, c = emissions.shape[0], emissions.shape[-1]
    # NaN or +inf in the table or the edge: the log loop runs
    if not ((trans < np.inf).all() and (edge < np.inf).all()):
        return None
    fin, from_edge = np.isfinite(trans), np.isfinite(edge)
    live, entered = fin.any(1), fin.any(0)
    if not ((live & from_edge).any() and (live & entered).any()):
        return None
    reach = fin[live & (entered | from_edge)]
    for k in range(1, c + 1):
        if reach[:, entered].all():
            break
        reach = reach @ fin
    else:
        return None
    t_fin, e_fin = trans[fin], edge[from_edge]
    t_max, e_max = t_fin.max(), e_fin.max()
    span = max(t_max - t_fin.min(), e_max - e_fin.min())
    # class-major, as numpy reduces a short last axis one row at a time
    cols = np.moveaxis(emissions, -1, 0).copy()
    em = cols.max(0)
    # a non-finite emission row reads NaN (or inf) here, failing the bound
    with np.errstate(invalid="ignore"):
        gaps = np.zeros((n + 1,) + em.shape[1:])
        np.cumsum(em - cols.min(0), 0, out=gaps[1:])
        w = min(k, n)
        x = k * (span + np.log(c)) + (gaps[w:] - gaps[:n + 1 - w]).max()
    if not x <= SCALED_LIMIT:
        return None
    return ((np.exp(emissions - em[..., None]), em), (np.exp(trans - t_max), t_max),
            (np.exp(edge - e_max), e_max), live.astype(np.float64)[:, None])


def _alpha(emissions, trans, edge):
    """alpha[t, b, j]: log of the summed scores of the paths that leave the
    boundary through edge and reach class j at step t, every lane run to T.
    Scaled when _scaled_inputs allows it: four numpy calls a step."""
    scaled = _scaled_inputs(emissions, trans, edge)
    if scaled is None:
        return _alpha_log(emissions, trans, edge)
    (ex, em), (kx, t_max), (bx, e_max), live = scaled
    p = np.empty(ex.shape)
    scales = np.empty(ex.shape[:-1] + (1,))
    np.multiply(bx, ex[0], out=p[0])
    np.dot(p[0], live, out=scales[0])
    p[0] /= scales[0]
    # np.dot, as it costs less per call than matmul at these sizes
    for prev, cur, e_t, s_t in zip(p[:-1], p[1:], ex[1:], scales[1:]):
        np.dot(prev, kx, out=cur)
        cur *= e_t
        np.dot(cur, live, out=s_t)
        cur /= s_t
    logs = np.log(scales[..., 0])
    logs += em
    logs[0] += e_max
    logs[1:] += t_max
    with np.errstate(divide="ignore"):
        alpha = np.log(p)
    alpha += np.cumsum(logs, 0)[..., None]
    return alpha


def _alpha_log(emissions, trans, edge):
    """_alpha in log space: the fallback past the scaled bound."""
    alpha = np.empty(emissions.shape)
    alpha[0] = edge + emissions[0]
    with np.errstate(divide="ignore"):
        for t in range(1, emissions.shape[0]):
            alpha[t] = _logsumexp(alpha[t - 1][..., :, None] + trans, -2) + emissions[t]
    return alpha


def crf_forward(emissions, trans, start, stop, lengths):
    # (T, B, C) emissions; lengths (B,) gives each lane's true length, and
    # steps past it read -inf.
    n = emissions.shape[0]
    alpha = _alpha(emissions, trans, start)
    alpha[np.arange(n)[:, None] >= lengths] = _NEG_INF
    with np.errstate(divide="ignore"):
        log_z = _logsumexp(_last(alpha, lengths) + stop, -1)
    return log_z, alpha


def crf_backward(emissions, trans, stop, alpha, log_z, gscale, lengths):
    n, c = emissions.shape[0], emissions.shape[-1]
    # emissions + beta is _alpha over the transposed table from stop, with
    # row t of each lane read from its step lengths - 1 - t; negative steps
    # (past the lane's first) wrap around, and are masked after
    back = lengths - 1 - np.arange(n)[:, None]
    lanes = np.arange(lengths.size)
    e_beta = _alpha(emissions[back, lanes], trans.T, stop)[back, lanes]
    e_beta[back < 0] = _NEG_INF
    gs = np.expand_dims(gscale, -1)
    alpha_z = alpha - np.expand_dims(log_z, -1)
    demis = gs * np.exp(alpha_z + e_beta - emissions)
    # pairwise posteriors of (y_t = i, y_{t+1} = j), all t at once
    pair = alpha_z[:-1, ..., :, None] + trans
    pair += e_beta[1:, ..., None, :]
    dtrans = (gs[..., None] * np.exp(pair, out=pair).sum(0)).reshape(-1, c, c).sum(0)
    dstop = gs * np.exp(_last(alpha_z, lengths) + stop)
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

"""Minimal reverse-mode autodiff on an explicit tape.

Tensors wrap float64 numpy arrays. Every op appends one record to a Tape;
records are topologically ordered by construction, so a single reverse sweep
computes all gradients; it takes each record off the tape as it goes, so a
tape is swept once. Each op checks its output for NaN/inf and fails fast.
Fused ops record a chain as one record with a hand-written backward:
linear_silu, weighted_sum, gated_merge, and band_attention, the whole
attention core (scores, relative bias, squash, row sums and value mix).
"""

import itertools

import numpy as np

from .errors import DegenerateRowError, NumericsError
from . import kernels
from .pack import one

_ids = itertools.count()

_SQRT2 = float(np.sqrt(2.0))
_SQRT_PI = float(np.sqrt(np.pi))
# added to the variance before the square root in both norms
_NORM_EPS = 1e-5


class Tensor:
    __slots__ = ("data", "requires_grad", "name", "id")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name
        self.id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = self.name or f"t{self.id}"
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"


class Module:
    """A part of the model: its trainable tensors and child modules, each
    declared once, in the order params() lists them. That order is the
    seeded draw order and the checkpoint's payload order.
    """

    def __init__(self, prefix=""):
        self.prefix = prefix
        self._members = []

    def param(self, name, data):
        """A trainable Tensor named prefix + name, recorded in order."""
        t = Tensor(data, requires_grad=True, name=self.prefix + name)
        self._members.append(t)
        return t

    def sub(self, module):
        """Record a child module; its params() follow in order."""
        self._members.append(module)
        return module

    def params(self):
        return [t for m in self._members
                for t in (m.params() if isinstance(m, Module) else [m])]

    def modules(self):
        """This module and every module below it, in declaration order."""
        return [self] + [d for m in self._members if isinstance(m, Module)
                         for d in m.modules()]


def glorot(rng, shape):
    """A seeded (fan_in, fan_out) weight, uniform within +-sqrt(6 / (fan_in
    + fan_out)) (Glorot and Bengio 2010)."""
    s = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-s, s, shape)


class Tape:
    """Ordered op records: (op name, input tensors, output tensor, backward fn).

    memo holds values per_tape built once for this tape. A tape made with
    record=False records no op: it serves forward-only passes that share
    its memo across calls (HrebModel.decode). traces, when a list,
    collects the rhema.AttentionTrace of each attention block run on this
    tape, in order (hreb inspect).
    """

    def __init__(self, record=True, traces=None):
        self.record = record
        self.records = []
        self.memo = {}
        self.traces = traces


def record_op(tape, name, inputs, out_data, backward_fn):
    """The op's output, recorded on tape when it needs a gradient. An input
    may be None, an operand the op was not given; backward_fn returns None
    as its gradient, as for any input that gets none."""
    out_data = np.asarray(out_data, dtype=np.float64)
    if not np.isfinite(out_data).all():
        raise NumericsError(f"op {name!r} produced non-finite values")
    out = Tensor(out_data, requires_grad=any(
        t is not None and t.requires_grad for t in inputs))
    if tape is not None and tape.record and out.requires_grad:
        tape.records.append((name, inputs, out, backward_fn))
    return out


def per_tape(tape, key, build):
    """build() once per tape under key, or on every call when tape is None.

    It serves values that depend only on parameters and caches. A
    recording tape runs one forward (one pack per optimizer step), so the
    memo pays only on the non-recording decode tape, which outlives many
    calls; its owner replaces that tape once a parameter or cache array it
    was built from is replaced.
    """
    if tape is None:
        return build()
    if key not in tape.memo:
        tape.memo[key] = build()
    return tape.memo[key]


def backward(tape, loss, keep=()):
    """Run the reverse sweep from a scalar loss, emptying the tape.

    Returns {tensor id: gradient}. Each record leaves the tape before its
    backward runs, so what only it holds (its output, what its backward
    saved) is freed once its gradients are out: a tape is swept once.
    Intermediate gradients are dropped once consumed unless the tensor id
    is listed in keep.
    """
    if loss.data.shape != ():
        raise ValueError("backward expects a scalar loss")
    keep = frozenset(keep)
    grads = {loss.id: np.ones(())}
    records = tape.records
    while records:
        name, inputs, out, backward_fn = records.pop()
        if out.id in keep:
            g = grads.get(out.id)
        else:
            g = grads.pop(out.id, None)
        if g is None:
            continue
        in_grads = backward_fn(g)
        for t, ig in zip(inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            ig = np.asarray(ig, dtype=np.float64)
            if t.id in grads:
                grads[t.id] = grads[t.id] + ig
            else:
                grads[t.id] = ig
    return grads


def _unbroadcast(g, shape):
    # Reduce a broadcasted gradient back to the operand's shape.
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting rules apply).
# ---------------------------------------------------------------------------

def add(tape, a, b):
    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    return record_op(tape, "add", (a, b), a.data + b.data, bw)


def sub(tape, a, b):
    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)
    return record_op(tape, "sub", (a, b), a.data - b.data, bw)


def mul(tape, a, b):
    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)
    return record_op(tape, "mul", (a, b), a.data * b.data, bw)


def scale(tape, a, c):
    c = float(c)
    return record_op(tape, "scale", (a,), a.data * c, lambda g: (g * c,))


# ---------------------------------------------------------------------------
# Linear algebra and shape ops.
# ---------------------------------------------------------------------------

def matmul(tape, a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")

    def bw(g):
        return g @ b.data.T, a.data.T @ g
    return record_op(tape, "matmul", (a, b), a.data @ b.data, bw)


def linear(tape, x, w, b):
    """x @ w + b: a matmul and a bias add recorded as one op."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shapes incompatible: {x.data.shape} x {w.data.shape}")

    def bw(g):
        return g @ w.data.T, x.data.T @ g, _unbroadcast(g, b.shape)
    return record_op(tape, "linear", (x, w, b), x.data @ w.data + b.data, bw)


def linear_silu(tape, x, w, b, variant):
    """silu(x @ w + b) as one op, in either silu variant. Backward keeps
    what _silu keeps, besides x and w."""
    out_data, silu_bw = _silu(x.data @ w.data + b.data, variant,
                              tape is not None and tape.record)

    def bw(g):
        da = silu_bw(g)
        return da @ w.data.T, x.data.T @ da, _unbroadcast(da, b.shape)
    return record_op(tape, "linear_silu", (x, w, b), out_data, bw)


def weighted_sum(tape, a, f, b, x):
    """a * f + b * x elementwise (numpy broadcasting): a residual's weighted
    branch and skip as one op. Constant weights get no gradient."""
    def bw(g):
        return (_unbroadcast(g * f.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, f.shape),
                _unbroadcast(g * x.data, b.shape) if b.requires_grad else None,
                _unbroadcast(g * b.data, x.shape))
    return record_op(tape, "weighted_sum", (a, f, b, x),
                     a.data * f.data + b.data * x.data, bw)


def affine(tape, x, s, m):
    """x * s + m elementwise: a mul and an add recorded as one op."""
    def bw(g):
        return (_unbroadcast(g * s.data, x.shape), _unbroadcast(g * x.data, s.shape),
                _unbroadcast(g, m.shape))
    return record_op(tape, "affine", (x, s, m), x.data * s.data + m.data, bw)


def repeat_entries(tape, a, reps):
    """Tile each entry of a 1-D tensor `reps` times (head -> per-dim layout)."""
    reps = int(reps)

    def bw(g):
        return (g.reshape(-1, reps).sum(axis=1),)
    return record_op(tape, "repeat_entries", (a,), np.repeat(a.data, reps), bw)


def sum_all(tape, a):
    def bw(g):
        return (np.full(a.shape, float(g)),)
    return record_op(tape, "sum_all", (a,), a.data.sum(), bw)


# ---------------------------------------------------------------------------
# Pointwise nonlinearities.
# ---------------------------------------------------------------------------

def sigmoid(tape, a):
    y = kernels.sigmoid(a.data)

    def bw(g):
        return (g * y * (1.0 - y),)
    return record_op(tape, "sigmoid", (a,), y, bw)


def _silu(a, variant, record):
    """(silu(a), g -> g * silu'(a)) for pre-activation a: the standard
    a * s, or the paper's s + a * s * (1 - s) (the standard one's
    derivative), with s = sigmoid(a). Without record the backward is None.

    Each backward keeps two arrays. The standard one keeps a and s. The
    paper's keeps sp = s * (1 - s) and k = 2 + a * (1 - 2s), built in the
    forward: g * sp * k is evaluated as g * sp * (2 + a * (1 - 2s)) would
    be in backward, so it has the same bits."""
    s = kernels.sigmoid(a)
    if variant == "standard":
        return a * s, (lambda g: g * s * (1.0 + a * (1.0 - s))) if record else None
    if variant != "paper":
        raise ValueError(f"unknown silu variant {variant!r}")
    sp = 1.0 - s
    sp *= s
    out = a * sp
    out += s
    if not record:
        return out, None
    k = 2.0 + a * (1.0 - 2.0 * s)
    return out, lambda g: g * sp * k


def gated_merge(tape, x, z, o, w_gamma, b_gamma, w_phi, b_phi, w_h, u_h, b_h,
                variant):
    """GRU-style merge of attended values o into x, as one op: y = phi *
    silu(z @ w_h + (gamma * o) @ u_h + b_h) + (1 - phi) * x, with reset gate
    gamma = sigmoid(z @ w_gamma + b_gamma) and update gate phi = sigmoid(z @
    w_phi + b_phi). Returns (y, gamma, phi), the gates as arrays. The gates'
    pre-activations are checked too: a sigmoid squashes an inf to a finite
    value. Backward keeps the gates, what _silu keeps and the silu's
    output; it recomputes gamma * o."""
    gamma = z.data @ w_gamma.data + b_gamma.data
    phi = z.data @ w_phi.data + b_phi.data
    if not (np.isfinite(gamma).all() and np.isfinite(phi).all()):
        raise NumericsError("op 'gated_merge' produced non-finite gate pre-activations")
    kernels.sigmoid(gamma, out=gamma)
    kernels.sigmoid(phi, out=phi)
    y_hat, silu_bw = _silu(
        z.data @ w_h.data + ((gamma * o.data) @ u_h.data + b_h.data), variant,
        tape is not None and tape.record)

    def bw(g):
        d_inner = silu_bw(g * phi)
        d_go = d_inner @ u_h.data.T
        d_gamma = d_go * o.data * gamma * (1.0 - gamma)
        d_phi = (g * y_hat - g * x.data) * phi * (1.0 - phi)
        return (g * (1.0 - phi),
                d_inner @ w_h.data.T + d_phi @ w_phi.data.T + d_gamma @ w_gamma.data.T,
                d_go * gamma,
                z.data.T @ d_gamma, _unbroadcast(d_gamma, b_gamma.shape),
                z.data.T @ d_phi, _unbroadcast(d_phi, b_phi.shape),
                z.data.T @ d_inner, (gamma * o.data).T @ d_inner,
                _unbroadcast(d_inner, b_h.shape))
    y = record_op(tape, "gated_merge",
                  (x, z, o, w_gamma, b_gamma, w_phi, b_phi, w_h, u_h, b_h),
                  phi * y_hat + (1.0 - phi) * x.data, bw)
    return y, gamma, phi


# ---------------------------------------------------------------------------
# Row-wise normalizations.
# ---------------------------------------------------------------------------

def _standardize(x, gain, bias, sums, counts):
    """(output, backward) of x standardized over `counts` entries, then
    affine; sums(a) is a's sum over those entries, broadcast back to a."""
    xc = x.data - sums(x.data) / counts
    inv = 1.0 / np.sqrt(sums(xc * xc) / counts + _NORM_EPS)
    xhat = xc * inv

    def bw(g):
        dxhat = g * gain.data
        dx = (inv / counts) * (
            counts * dxhat - sums(dxhat) - xhat * sums(dxhat * xhat))
        return dx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)
    return xhat * gain.data + bias.data, bw


def layer_norm(tape, x, gain, bias):
    """Per-row standardization over features (Ba et al. 2016), then affine."""
    out_data, bw = _standardize(
        x, gain, bias, lambda a: np.add.reduce(a, axis=-1, keepdims=True),
        x.data.shape[-1])
    return record_op(tape, "layer_norm", (x, gain, bias), out_data, bw)


def feature_norm(tape, x, gain, bias, pack):
    """Standardize each feature over its sentence's positions, then affine.

    This is the batch-statistics alternative to layer_norm; each sentence
    of a pack keeps its own statistics.
    """
    out_data, bw = _standardize(
        x, gain, bias, lambda a: pack.per_row(pack.sums(a)),
        pack.per_row(pack.lengths)[:, None])
    return record_op(tape, "feature_norm", (x, gain, bias), out_data, bw)


def _softmax(scores, allowed, band):
    """(softmax of each row of band, a pack.Band, over its allowed entries
    of scores, its backward)."""
    def by_row(ufunc, x, reduce, y):
        """ufunc of each entry of x and the reduction of its row of y."""
        return band.by_row(ufunc, x, band.reduce_rows(reduce, y))
    shifted = _masked(allowed, scores, -np.inf)
    shifted = by_row(np.subtract, shifted, np.maximum, shifted)
    e = np.exp(shifted)
    w = by_row(np.divide, e, np.add, e)
    return w, lambda g: w * by_row(np.subtract, g, np.add, g * w)


def _masked(allowed, x, fill):
    return x if allowed is None else np.where(allowed, x, fill)


# ---------------------------------------------------------------------------
# Attention over a band of keys.
# ---------------------------------------------------------------------------

def _laplace(scores, mu, sigma_raw, allowed):
    """(Laplace squash of scores, its backward), after Mega (Ma et al. 2022):
    the Gaussian CDF 0.5 * (1 + erf(u)), u = (scores - mu) / (sigma *
    sqrt(2)), sigma = softplus(sigma_raw) so it stays positive. erf is
    kernels.erf, a numpy port of Cephes' that scipy.special.erf checks in
    the tests; it evaluates only the entries with |u| < 6, where erf is
    not yet exactly +-1. Entries outside allowed read 0. The backward maps
    the output's gradient to (d scores, d mu, d sigma_raw); it keeps u and
    recomputes no erf."""
    sig = float(np.logaddexp(0.0, sigma_raw.data))
    u = (scores - float(mu.data)) / (sig * _SQRT2)
    out = _masked(allowed, 0.5 * (1.0 + kernels.erf(u)), 0.0)

    def bw(g):
        gm = _masked(allowed, g, 0.0)
        dw_du = np.exp(-u * u) / _SQRT_PI
        ds = gm * dw_du / (sig * _SQRT2)
        dsig = (gm * dw_du * (-u)).sum() / sig
        return (ds, np.float64(-ds.sum()),
                np.float64(dsig * float(kernels.sigmoid(sigma_raw.data))))
    return out, bw


def band_attention(tape, q, k, v, bias, mu, sigma_raw, scale, width, attn_fn, pack):
    """Attention of each row over the keys of its band, as one op.

    Row i's band is its chunk of `width` consecutive rows of its sentence;
    entry (i, r) scores the key that Pack.band_keys(m) places there, m =
    min(width, longest sentence). With width None (the global stage) the
    band is the whole sentence, and pack.band(None) splits the pack into
    length buckets (pack.length_buckets), each with m = its longest
    sentence, so no row is padded to twice its sentence's length. Both
    bands are one layout, a pack.Band. The score is scale * q_i . k_j,
    plus, given a bias of odd length 2w+1, the bucket of the key's offset
    j - i clipped into [-w, w] (in a pack, positions within the
    sentence). attn_fn makes each row's weights:
    "softmax"; "laplace", the _laplace squash, not renormalized; or
    "reduced_laplace", the squash plus the scores over their row sum,
    which must be positive (else DegenerateRowError, which names the
    first such row in pack order as Pack.row_name does). Keys past a
    sentence's end weigh 0. out_i = sum_r w[i, r] * v[key r]: for one
    sentence and width None, weights @ v.

    The scores are checked finite before the squash, which would map an
    inf to a finite weight. Backward keeps the weights, the squash's
    argument and the row sums; it gathers the chunks of q, k and v again.
    Inputs that do not enter (bias None; mu and sigma_raw under softmax)
    get no gradient. Returns (out, scores, weights). When the band is one
    bucket (a width, one sentence, or sentences of near lengths), scores
    and weights are (N, m) band arrays. With more buckets they are the
    Band's flat buffer: each bucket's (N_b, m_b) band in turn, longest
    bucket first, its rows in pack order.
    """
    if q.data.shape != k.data.shape or q.data.ndim != 2 or v.data.ndim != 2 \
            or v.data.shape[0] != q.data.shape[0]:
        raise ValueError(f"band_attention needs 2-D q and k of one shape and v "
                         f"of their rows, got {q.data.shape}, {k.data.shape} "
                         f"and {v.data.shape}")
    if attn_fn not in ("softmax", "laplace", "reduced_laplace"):
        raise ValueError(f"unknown attn_fn {attn_fn!r}")
    scale = float(scale)
    band = pack.band(width)
    scores = band.band_product(band.chunks(q.data), band.chunks(k.data))
    scores *= scale
    if bias is not None:
        half = (bias.data.shape[0] - 1) // 2
        scores = scores + band.bias_index(half, bias.data)
    if not np.isfinite(scores).all():
        raise NumericsError("op 'band_attention' produced non-finite scores")
    mask = band.mask
    if attn_fn == "softmax":
        weights, softmax_bw = _softmax(scores, mask, band)
    else:
        weights, laplace_bw = _laplace(scores, mu, sigma_raw, mask)
    if attn_fn == "reduced_laplace":
        a = _masked(mask, weights + scores, 0.0)
        sums = band.reduce_rows(np.add, a)
        bad = np.flatnonzero(sums <= 0.0)
        if bad.size:
            # the bad row that comes first in the pack
            rows = bad if band.rows is None else band.rows[bad]
            j = int(np.argmin(rows))
            raise DegenerateRowError(f"{pack.row_name(int(rows[j]))} sums to "
                                     f"{float(sums[bad[j], 0])}; cannot normalize")
        weights = band.by_row(np.divide, a, sums)

    def bw(g):
        # Each step keeps the order of its primitive-op form (scale after
        # the product, the squash's gradient added to the normalization's),
        # so seeded runs keep their bits.
        gc = band.chunks(g)
        dw = band.band_product(gc, band.chunks(v.data))
        dv = band.row_product([c.transpose(0, 2, 1) for c in band.band_chunks(weights)],
                              gc)
        dmu = dsig_raw = None
        if attn_fn == "softmax":
            ds = softmax_bw(dw)
        elif attn_fn == "laplace":
            ds, dmu, dsig_raw = laplace_bw(dw)
        else:
            dw = _masked(mask, dw, 0.0)
            da = _masked(mask, band.by_row(np.divide, band.by_row(
                np.subtract, dw, band.reduce_rows(np.add, dw * weights)), sums), 0.0)
            ds_l, dmu, dsig_raw = laplace_bw(da)
            ds = da + ds_l
        dbias = None if bias is None else np.bincount(
            band.bias_index(half).ravel(), weights=ds.ravel(), minlength=bias.shape[0])
        dc = band.band_chunks(ds * scale)
        return (band.row_product(dc, band.chunks(k.data)),
                band.row_product([c.transpose(0, 2, 1) for c in dc], band.chunks(q.data)),
                dv, dbias, dmu, dsig_raw)
    out = record_op(tape, "band_attention", (q, k, v, bias, mu, sigma_raw),
                    band.row_product(band.band_chunks(weights), band.chunks(v.data)),
                    bw)
    return out, scores, weights


# ---------------------------------------------------------------------------
# Recurrence ops backed by the kernels module.
# ---------------------------------------------------------------------------

def ema_scan(tape, x, alpha, h0, pack):
    """h_t = alpha * x_t + (1 - alpha) * h_{t-1}, elementwise over features.

    Each sentence of a pack starts from h0.
    """
    hist = kernels.ema_forward(pack.padded(x.data), alpha.data, h0.data)

    def bw(g):
        dx, dalpha, dh0 = kernels.ema_backward(pack.padded(x.data), alpha.data,
                                               h0.data, hist, pack.padded(g))
        return pack.unpadded(dx), dalpha, dh0
    return record_op(tape, "ema_scan", (x, alpha, h0), pack.unpadded(hist), bw)


def _lanes(a_f, a_b):
    """Interleave two (..., 4h) gate arrays as (..., 8h): [i_f i_b f_f f_b ...]."""
    lead, h = a_f.shape[:-1], a_f.shape[-1] // 4
    return np.stack((a_f.reshape(*lead, 4, h), a_b.reshape(*lead, 4, h)),
                    axis=-2).reshape(*lead, 8 * h)


def _lane(a, k):
    """Lane k's (..., 4h) gate columns of an interleaved (..., 8h) array."""
    lead, h = a.shape[:-1], a.shape[-1] // 8
    return a.reshape(*lead, 4, 2, h)[..., k, :].reshape(*lead, 4 * h)


def _block_diagonal(u_f, u_b):
    """The lanes' (2h, 8h) recurrent matrix: u_f and u_b on its diagonal blocks."""
    h = u_f.shape[0]
    u = np.zeros((2, h, 4, 2, h))
    u[0, :, :, 0] = u_f.reshape(h, 4, h)
    u[1, :, :, 1] = u_b.reshape(h, 4, h)
    return u.reshape(2 * h, 8 * h)


def _lane_steps(pack, a, h):
    """(n, 2h) rows as the lanes' time steps: lane 1 runs each sentence back
    to front."""
    return np.concatenate((pack.padded(a[:, :h]), pack.padded(a[:, h:], True)),
                          axis=-1)


def _lane_rows(pack, a, h):
    """The (n, 2h) rows of the lanes' time steps (inverse of _lane_steps)."""
    return np.concatenate((pack.unpadded(a[..., :h]),
                           pack.unpadded(a[..., h:], True)), axis=1)


def bilstm_seq(tape, x, w_f, u_f, b_f, w_b, u_b, b_b, pack):
    """Bidirectional LSTM over x (n, d_in) -> (n, 2h): [forward | backward].

    Both directions run as one LSTM of width 2h. Lane 0 reads each
    sentence's rows in order and lane 1 in reverse, so a pack of B
    sentences runs 2B lanes whose padding always trails. Gate columns are
    gate-major with the lanes interleaved, [i_f i_b f_f f_b c_f c_b o_f
    o_b], and the recurrent matrix is block-diagonal, so no state crosses
    between lanes.
    """
    h = u_f.data.shape[0]
    u = per_tape(tape, (u_f, u_b), lambda: _block_diagonal(u_f.data, u_b.data))
    hidden, gates, cells = kernels.lstm_forward(
        _lanes(pack.padded(x.data @ w_f.data), pack.padded(x.data @ w_b.data, True)),
        u, _lanes(b_f.data, b_b.data))

    def bw(g):
        dxw, du, db = kernels.lstm_backward(gates, cells, hidden, u,
                                            _lane_steps(pack, g, h))
        g_f, g_b = pack.unpadded(_lane(dxw, 0)), pack.unpadded(_lane(dxw, 1), True)
        du = du.reshape(2, h, 4, 2, h)
        return (g_f @ w_f.data.T + g_b @ w_b.data.T,
                x.data.T @ g_f, du[0, :, :, 0].reshape(h, 4 * h), _lane(db, 0),
                x.data.T @ g_b, du[1, :, :, 1].reshape(h, 4 * h), _lane(db, 1))
    return record_op(tape, "bilstm_seq", (x, w_f, u_f, b_f, w_b, u_b, b_b),
                     _lane_rows(pack, hidden, h), bw)


def split_transitions(trans_data, n_classes, extra_mask=None):
    """(core, start, stop) views of a (C+2, C+2) transition table.

    core[i, j] scores class i -> class j, start[j] leaving the start state
    (row C) into j, stop[i] leaving i into the stop state (column C+1).
    extra_mask, if given, is added to the table first.
    """
    t = trans_data if extra_mask is None else trans_data + extra_mask
    c = n_classes
    return t[:c, :c], t[c, :c], t[:c, c + 1]


def crf_log_z(tape, emissions, trans, n_classes, extra_mask=None, *, pack):
    """Log partition of a linear-chain CRF, per sentence of a pack.

    trans is (C+2, C+2) with the start state at row C and the stop state at
    column C+1; entries into start and out of stop are never read.
    extra_mask, if given, is added to the transition table before the scan
    (use -inf entries to forbid transitions without touching the parameters).
    Each sentence of a pack starts and stops at its own ends.
    """
    core, start, stop = split_transitions(trans.data, n_classes, extra_mask)
    steps = pack.padded(emissions.data)
    log_z, alpha = kernels.crf_forward(steps, core, start, stop, pack.lengths)
    c = n_classes

    def bw(g):
        demis, dcore, dstart, dstop = kernels.crf_backward(
            steps, core, stop, alpha, log_z, np.reshape(g, pack.b), pack.lengths)
        dt = np.zeros_like(trans.data)
        dt[:c, :c] = dcore
        dt[c, :c] = dstart
        dt[:c, c + 1] = dstop
        return pack.unpadded(demis), dt
    return record_op(tape, "crf_log_z", (emissions, trans),
                     pack.per_sentence(log_z), bw)


def crf_path_score(tape, emissions, trans, path, n_classes, extra_mask=None,
                   pack=None):
    """Unnormalized log score of a tag path under the same CRF layout: one
    path per sentence of a pack, laid out as its rows.

    It is the one op whose pack may be left out, meaning one sentence,
    because callers outside this package score a path positionally without
    one."""
    path = np.asarray(path, dtype=np.int64)
    n = emissions.data.shape[0]
    if path.shape != (n,):
        raise ValueError(f"path length {path.shape} != sequence length {n}")
    core, start, stop = split_transitions(trans.data, n_classes, extra_mask)
    pack = one(n) if pack is None else pack
    first, last, nxt = path[pack.starts], path[pack.lasts], pack.follows
    rows = emissions.data[np.arange(n), path]
    rows[nxt] += core[path[nxt - 1], path[nxt]]
    s = start[first] + stop[last] + pack.sums(rows)
    c = n_classes

    def bw(g):
        g = np.reshape(g, pack.b)
        per_row = pack.per_row(g)
        demis = np.zeros_like(emissions.data)
        demis[np.arange(n), path] = per_row
        dt = np.zeros_like(trans.data)
        np.add.at(dt, (c, first), g)
        np.add.at(dt, (last, c + 1), g)
        np.add.at(dt, (path[nxt - 1], path[nxt]), per_row[nxt])
        return demis, dt
    return record_op(tape, "crf_path_score", (emissions, trans),
                     pack.per_sentence(s), bw)

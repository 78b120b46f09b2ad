"""EMA-gated single-head attention blocks and their two-stage composition.

A block is two pre-normalized sublayers, each wrapped in a configurable
residual (module residual): first the gated attention path, then a
position-wise feed-forward. The attention path runs a multi-head EMA over
the input, projects a shared representation Z, derives queries and keys
from Z by per-dimension affines, values from the input by a widening
projection, squashes scores with one of three attention functions, and
merges the attended values back through GRU-style reset/update gates.

The hierarchical encoder stacks a chunk-local block, whose scores cover
only each query's chunk, and a global block. The naive encoder, kept for
ablations, shares the block scaffold and swaps only the attention path for
plain scaled-dot softmax attention.
"""

import numpy as np

from . import autodiff as ad
from . import residual
from .errors import DegenerateRowError
from .moving_average import EmaState, multihead_ema
from .pack import Pack

# Starting point for the learnable score-squash location/scale: mean and
# standard deviation of a softmax weight under unit-normal scores.
LAPLACE_MU_INIT = 0.707107
LAPLACE_SIGMA_INIT = 0.282095


class RhemaConfig:
    """One attention stage's view of a RunConfig.

    Carries every setting of the run, which validated it, with the 0
    sentinels of v_dim and n_ema_head replaced by their defaults; adds the
    attention scale and the stage's chunk length (0 means global).
    """

    def __init__(self, run, chunk_size):
        vars(self).update(vars(run))
        self.chunk_size = chunk_size
        self.v_dim = run.v_dim or 2 * run.d_model
        self.n_ema_head = run.n_ema_head or run.d_model
        self.attn_scale = float(np.sqrt(run.d_model))


class AttentionTrace:
    """Numpy snapshots of one block's attention internals, for inspection."""

    FIELDS = ("z", "q", "k", "v", "scores", "weights", "gamma", "phi")

    def __init__(self, label):
        self.label = label
        for f in self.FIELDS:
            setattr(self, f, None)

    def lines(self):
        """Line-delimited text dump: one 'label field i j value' per entry."""
        out = []
        for f in self.FIELDS:
            arr = getattr(self, f)
            if arr is None:
                continue
            arr = np.atleast_2d(arr)
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    out.append(f"{self.label} {f} {i} {j} {arr[i, j]:.10g}")
        return out


class BlockParams(ad.Module):
    """The scaffold every encoder block shares: the two pre-norms, the
    feed-forward sublayer, and one residual gate per sublayer.

    Subclasses declare their attention tensors in attention_params, which
    runs first.
    """

    def __init__(self, config, rng, prefix=""):
        super().__init__(prefix)
        self.attention_params(config, rng)
        d = config.d_model
        self.norm1_gain = self.param("norm1_gain", np.ones(d))
        self.norm1_bias = self.param("norm1_bias", np.zeros(d))
        self.norm2_gain = self.param("norm2_gain", np.ones(d))
        self.norm2_bias = self.param("norm2_bias", np.zeros(d))
        self.ffn_w1 = self.param("ffn_w1", ad.glorot(rng, (d, 2 * d)))
        self.ffn_b1 = self.param("ffn_b1", np.zeros(2 * d))
        self.ffn_w2 = self.param("ffn_w2", ad.glorot(rng, (2 * d, d)))
        self.ffn_b2 = self.param("ffn_b2", np.zeros(d))
        self.rb_attn, self.rb_ffn = (self.sub(residual.GateState(
            d, config.reduced_bias, config.rb_alpha, config.rb_beta,
            prefix=prefix + sublayer)) for sublayer in ("attn.", "ffn."))


class RhemaParams(BlockParams):
    """All learnable tensors of one gated-attention block."""

    def attention_params(self, config, rng):
        # Z is d_model wide: it is added to the input elementwise
        d, z, v = config.d_model, config.d_model, config.v_dim
        self.ema = self.sub(EmaState(d, config.n_ema_head, rng, prefix=self.prefix))
        self.w_z = self.param("w_z", ad.glorot(rng, (d, z)))
        self.b_z = self.param("b_z", np.zeros(z))
        self.kappa_q = self.param("kappa_q", np.ones(z))
        self.mu_q = self.param("mu_q", np.zeros(z))
        self.kappa_k = self.param("kappa_k", np.ones(z))
        self.mu_k = self.param("mu_k", np.zeros(z))
        self.w_v = self.param("w_v", ad.glorot(rng, (d, v)))
        self.b_v = self.param("b_v", np.zeros(v))
        self.b_rel = self.param("b_rel", np.zeros(2 * config.rel_bias_window + 1))
        self.w_h = self.param("w_h", ad.glorot(rng, (z, d)))
        self.u_h = self.param("u_h", ad.glorot(rng, (v, d)))
        self.b_h = self.param("b_h", np.zeros(d))
        self.w_gamma = self.param("w_gamma", ad.glorot(rng, (z, v)))
        self.b_gamma = self.param("b_gamma", np.zeros(v))
        self.w_phi = self.param("w_phi", ad.glorot(rng, (z, d)))
        self.b_phi = self.param("b_phi", np.zeros(d))
        self.lap_mu = self.param("lap_mu", LAPLACE_MU_INIT)
        # softplus(raw) == the intended starting scale
        self.lap_sigma_raw = self.param(
            "lap_sigma_raw", np.log(np.expm1(LAPLACE_SIGMA_INIT)))


def shared_rep(tape, x, params, config, pack):
    """Z = silu(EMA(x) @ W_z + b_z) + x."""
    smoothed = multihead_ema(tape, x, params.ema, pack)
    return ad.add(tape, ad.linear_silu(tape, smoothed, params.w_z, params.b_z,
                                       config.silu_variant), x)


def qk_transform(tape, z, params):
    """Per-dimension affine views of Z: cheap extra degrees of freedom."""
    q = ad.affine(tape, z, params.kappa_q, params.mu_q)
    k = ad.affine(tape, z, params.kappa_k, params.mu_k)
    return q, k


def attention(tape, q, k, v, params, config, pack):
    """O = f(Q K^T / scale + b_rel) V with the configured score squash, as
    ad.band_attention's (out, scores, weights).

    Scores live in the (n, m) band layout of ad.band_attention: m is the
    chunk size for the local stage and, for the global one, the longest
    sentence of each length bucket, so the local stage costs
    O(n * chunk_size) and no sentence of a pack attends to another. Only
    keys past a chunk's sentence end are masked.
    """
    return ad.band_attention(
        tape, q, k, v, params.b_rel, params.lap_mu, params.lap_sigma_raw,
        1.0 / config.attn_scale, config.chunk_size or None, config.attn_fn, pack)


def gated_output(tape, x, z, o, params, config):
    """GRU-style merge: reset-gate the attended values, update-gate the mix.
    Returns ad.gated_merge's (y, gamma, phi)."""
    p = params
    return ad.gated_merge(tape, x, z, o, p.w_gamma, p.b_gamma, p.w_phi,
                          p.b_phi, p.w_h, p.u_h, p.b_h, config.silu_variant)


def trace_attention(tape, label, pack, scores, weights, **fields):
    """Append one block's AttentionTrace to tape.traces, if the tape
    collects them: its band scores and weights as (n, n) matrices, and a
    copy of each of fields (arrays named as AttentionTrace.FIELDS)."""
    if tape is None or tape.traces is None:
        return
    if pack.shape:
        raise ValueError("attention traces need one id sequence, not a list")
    trace = AttentionTrace(label)
    trace.scores = band_to_dense(scores, -np.inf)
    trace.weights = band_to_dense(weights, 0.0)
    for name, value in fields.items():
        setattr(trace, name, np.array(value))
    tape.traces.append(trace)


def band_to_dense(band, fill):
    """The (n, n) query-key matrix of one sentence's (n, m) band, each entry
    at its key in Pack(n).band_keys(m); out-of-band entries read fill."""
    n, m = band.shape
    keys = Pack(n).band_keys(m)
    live = keys < n
    dense = np.full((n, n), fill)
    dense[np.nonzero(live)[0], keys[live]] = band[live]
    return dense


def _norm(tape, x, gain, bias, config, pack):
    if config.batch_norm_fidelity:
        return ad.feature_norm(tape, x, gain, bias, pack)
    return ad.layer_norm(tape, x, gain, bias)


def _block(tape, x, p, config, attend, pack):
    """Pre-norm attention residual, then pre-norm feed-forward residual.

    attend maps the normalized input to the attention sublayer's output.
    """
    def attn_branch(xin):
        return attend(_norm(tape, xin, p.norm1_gain, p.norm1_bias, config, pack))

    def ffn_branch(xin):
        xn = _norm(tape, xin, p.norm2_gain, p.norm2_bias, config, pack)
        h = ad.linear_silu(tape, xn, p.ffn_w1, p.ffn_b1, "paper")
        return ad.linear(tape, h, p.ffn_w2, p.ffn_b2)

    mid = residual.apply(tape, x, attn_branch, p.rb_attn)
    return residual.apply(tape, mid, ffn_branch, p.rb_ffn)


def rhema_block(tape, x, params, config, pack):
    """One full block: gated-attention sublayer, then feed-forward sublayer.
    A DegenerateRowError names the block by its prefix (enc.local: row ...)."""
    def attend(xn):
        z = shared_rep(tape, xn, params, config, pack)
        q, k = qk_transform(tape, z, params)
        v = ad.linear_silu(tape, xn, params.w_v, params.b_v, config.silu_variant)
        try:
            o, scores, weights = attention(tape, q, k, v, params, config, pack)
        except DegenerateRowError as e:
            raise DegenerateRowError(f"{params.prefix.rstrip('.')}: {e}") from None
        y, gamma, phi = gated_output(tape, xn, z, o, params, config)
        trace_attention(tape, "local" if config.chunk_size else "global", pack,
                        scores, weights, z=z.data, q=q.data, k=k.data, v=v.data,
                        gamma=gamma, phi=phi)
        return y

    return _block(tape, x, params, config, attend, pack)


class HierarchicalEncoder(ad.Module):
    """Chunk-local block feeding a global block."""

    def __init__(self, run, rng, prefix="enc."):
        super().__init__(prefix)
        self.local_config = RhemaConfig(run, run.chunk_size)
        self.global_config = RhemaConfig(run, 0)
        self.local = self.sub(RhemaParams(self.local_config, rng, prefix + "local."))
        self.global_ = self.sub(RhemaParams(self.global_config, rng, prefix + "global."))

    def forward(self, tape, x, pack):
        mid = rhema_block(tape, x, self.local, self.local_config, pack)
        return rhema_block(tape, mid, self.global_, self.global_config, pack)


class NaiveEncoder(BlockParams):
    """Single global scaled-dot softmax block, same residual scaffolding."""

    def __init__(self, run, rng, prefix="naive."):
        self.config = run
        super().__init__(run, rng, prefix)

    def attention_params(self, config, rng):
        d = config.d_model
        self.w_q, self.w_k, self.w_v, self.w_o = (
            self.param(n, ad.glorot(rng, (d, d))) for n in ("w_q", "w_k", "w_v", "w_o"))

    def forward(self, tape, x, pack):
        c = self.config

        def attend(xn):
            q = ad.matmul(tape, xn, self.w_q)
            k = ad.matmul(tape, xn, self.w_k)
            v = ad.matmul(tape, xn, self.w_v)
            o, scores, weights = ad.band_attention(
                tape, q, k, v, None, None, None, 1.0 / np.sqrt(c.d_model), None,
                "softmax", pack)
            trace_attention(tape, "naive", pack, scores, weights,
                            q=q.data, k=k.data, v=v.data)
            return ad.matmul(tape, o, self.w_o)

        return _block(tape, x, self, c, attend, pack)

"""Moving-average operators and the multi-head EMA layer.

ema is the plain (non-tape) reference recurrence. multihead_ema is a
differentiable tape op; the EMA decay is learned through a sigmoid
reparameterization so each head's effective alpha stays in (0,1).
"""

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


def ema(x, alpha, h0=None):
    """Plain (non-tape) EMA recurrence; alpha is per-dimension in (0,1]."""
    x = np.asarray(x, dtype=np.float64)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), x.shape[1:]).copy()
    if np.any(alpha <= 0) or np.any(alpha > 1):
        raise ValueError("alpha must lie in (0, 1]")
    if h0 is None:
        h0 = np.zeros(x.shape[1:])
    out = np.empty_like(x)
    h = np.asarray(h0, dtype=np.float64).copy()
    for t in range(x.shape[0]):
        h = alpha * x[t] + (1.0 - alpha) * h
        out[t] = h
    return out


class EmaState:
    """Multi-head EMA parameters.

    Each head projects the full d-dim input down to d/n_head dims, runs its
    own scan with its own decay, and the concatenated head outputs are
    projected back to d. Per-head projections are packed into two (d, d)
    matrices so the scan runs once over all head dims. alpha_raw holds one
    unconstrained decay per head; h0 concatenates the per-head initial
    states.
    """

    def __init__(self, d_model, n_head, rng, prefix=""):
        if d_model % n_head != 0:
            raise ConfigError(
                f"d_model {d_model} not divisible by n_head {n_head}")
        self.d_model = d_model
        self.n_head = n_head
        self.head_dim = d_model // n_head
        # Decays spread geometrically so heads start at distinct timescales.
        eff = np.geomspace(0.05, 0.95, n_head)
        raw = np.log(eff / (1.0 - eff))
        s = np.sqrt(6.0 / (2.0 * d_model))
        self.alpha_raw = ad.Tensor(raw, requires_grad=True, name=prefix + "ema.alpha_raw")
        self.h0 = ad.Tensor(np.zeros(d_model), requires_grad=True, name=prefix + "ema.h0")
        self.w_down = ad.Tensor(rng.uniform(-s, s, (d_model, d_model)),
                                requires_grad=True, name=prefix + "ema.w_down")
        self.w_up = ad.Tensor(rng.uniform(-s, s, (d_model, d_model)),
                              requires_grad=True, name=prefix + "ema.w_up")

    def params(self):
        return [self.alpha_raw, self.h0, self.w_down, self.w_up]


def multihead_ema(tape, x, state):
    """Project to heads, scan each with its own decay, project back to d."""
    if x.data.shape[1] != state.d_model:
        raise ConfigError(
            f"input width {x.data.shape[1]} != state d_model {state.d_model}")
    alpha_head = ad.sigmoid(tape, state.alpha_raw)
    alpha = ad.repeat_entries(tape, alpha_head, state.head_dim)
    down = ad.matmul(tape, x, state.w_down)
    scanned = ad.ema_scan(tape, down, alpha, state.h0)
    return ad.matmul(tape, scanned, state.w_up)

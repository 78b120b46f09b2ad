"""The multi-head EMA layer.

multihead_ema is a differentiable tape op over autodiff.ema_scan; the EMA
decay is learned through a sigmoid reparameterization so each head's
effective alpha stays in (0,1).
"""

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


class EmaState(ad.Module):
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
        super().__init__(prefix + "ema.")
        self.d_model = d_model
        self.head_dim = d_model // n_head
        # Decays spread geometrically so heads start at distinct timescales.
        eff = np.geomspace(0.05, 0.95, n_head)
        raw = np.log(eff / (1.0 - eff))
        self.alpha_raw = self.param("alpha_raw", raw)
        self.h0 = self.param("h0", np.zeros(d_model))
        self.w_down = self.param("w_down", ad.glorot(rng, (d_model, d_model)))
        self.w_up = self.param("w_up", ad.glorot(rng, (d_model, d_model)))


def multihead_ema(tape, x, state, pack):
    """Project to heads, scan each with its own decay, project back to d.

    Each sentence of a pack is scanned from h0. The per-dimension decay
    depends only on alpha_raw, so it is built once per tape.
    """
    if x.data.shape[1] != state.d_model:
        raise ConfigError(
            f"input width {x.data.shape[1]} != state d_model {state.d_model}")
    alpha = ad.per_tape(tape, state, lambda: ad.repeat_entries(
        tape, ad.sigmoid(tape, state.alpha_raw), state.head_dim))
    down = ad.matmul(tape, x, state.w_down)
    scanned = ad.ema_scan(tape, down, alpha, state.h0, pack)
    return ad.matmul(tape, scanned, state.w_up)

"""Residual connections with configurable branch/skip weighting.

Three modes, named as RunConfig's reduced_bias values:
  off      -> F(x) + x, run as static at unit weights
  static   -> a * F(x) + b * x with fixed scalars
  dynamic  -> sigmoid-gated per-feature mixing, where the gates are driven by
              gradient statistics cached from the previous optimizer step
              (the current step's gradients do not exist at forward time).
The caches are plain arrays, never tape tensors: gradients are not
differentiated through. Each dynamic pass records (gate, branch output,
skip input) in one list on the tape that recorded it; commit_gate_caches
folds the gradients of each gate's pairs into that gate, so a tape dropped
without a commit takes its pairs with it.
"""

import numpy as np

from . import autodiff as ad
from .config import CHOICES
from .errors import DivergenceError


class GateState(ad.Module):
    """Mode, static weights, gradient caches, and the gate parameters,
    which exist only in dynamic mode, the one mode that reads them. Under
    off the static weights are 1.0 whatever alpha and beta say."""

    def __init__(self, d_model, mode, alpha=1.0, beta=1.0, prefix=""):
        if mode not in CHOICES["reduced_bias"]:
            raise ValueError(f"unknown residual mode {mode!r}")
        super().__init__(prefix + "rb.")
        self.d_model = d_model
        self.mode = mode
        if mode == "off":
            alpha = beta = 1.0
        self.alpha = float(alpha)
        self.beta = float(beta)
        if mode == "dynamic":
            self.w_alpha = self.param("w_alpha", np.zeros((d_model, d_model)))
            self.b_alpha = self.param("b_alpha", np.zeros(d_model))
            self.w_beta = self.param("w_beta", np.zeros((d_model, d_model)))
            self.b_beta = self.param("b_beta", np.zeros(d_model))
        # Previous-step mean gradients of the branch output and the skip
        # input; zero before the first optimizer step.
        self.cache_f = np.zeros(d_model)
        self.cache_x = np.zeros(d_model)


def pending(tape):
    """The (gate, branch output, skip input) triples the dynamic passes run
    on tape recorded, in pass order; commit_gate_caches reads their
    gradients."""
    return tape.memo.setdefault("pending", [])


def pending_ids(tape):
    """Tensor ids to keep through autodiff.backward for commit_gate_caches."""
    return [t.id for _, f, x in pending(tape) for t in (f, x)]


def apply(tape, x, branch, state):
    """Combine branch(x) with x according to the state's mode."""
    f = branch(x)
    if f.data.shape != x.data.shape:
        raise ValueError(
            f"branch output shape {f.data.shape} != input shape {x.data.shape}")
    if state.mode != "dynamic":
        gate_f, gate_x = ad.Tensor(state.alpha), ad.Tensor(state.beta)
    else:
        if tape is not None and tape.record:
            pending(tape).append((state, f, x))
        gate_f, gate_x = ad.per_tape(tape, state, lambda: _gates(tape, state))
    return ad.weighted_sum(tape, gate_f, f, gate_x, x)


def _gates(tape, state):
    """(gate_f, gate_x), each (1, d): sigmoid(cache @ W + b).

    Only parameters and caches enter, so apply builds them once per tape.
    The caches are replaced, never written into, so a decode tape built
    from them can tell when they change.
    """
    gf = ad.Tensor(state.cache_f.reshape(1, -1), name="rb.cache_f")
    gx = ad.Tensor(state.cache_x.reshape(1, -1), name="rb.cache_x")
    return (ad.sigmoid(tape, ad.linear(tape, gf, state.w_alpha, state.b_alpha)),
            ad.sigmoid(tape, ad.linear(tape, gx, state.w_beta, state.b_beta)))


def update_gate_cache(state, grad_f, grad_x, momentum):
    """Fold a step's branch/skip gradients into the caches.

    grad_f / grad_x are (seq, d) gradients w.r.t. the branch output and the
    skip input; the cached statistic is a running mean over positions.
    """
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    grad_f = np.asarray(grad_f, dtype=np.float64)
    grad_x = np.asarray(grad_x, dtype=np.float64)
    if not (np.all(np.isfinite(grad_f)) and np.all(np.isfinite(grad_x))):
        raise DivergenceError("non-finite gradient entering residual gate cache")
    state.cache_f = momentum * state.cache_f + (1.0 - momentum) * grad_f.mean(axis=0)
    state.cache_x = momentum * state.cache_x + (1.0 - momentum) * grad_x.mean(axis=0)
    return state


def commit_gate_caches(tape, grads, momentum):
    """Fold the just-computed gradients of every (branch, skip) pair the
    tape holds into its gate's cache, and take the pairs off it.

    grads is the tensor-id map returned by autodiff.backward (run with
    pending_ids in keep). A gate's rows stack in pass order. Pairs whose
    gradients never materialized (branch not on the loss path) contribute
    zeros.
    """
    rows = {}
    for state, f, x in tape.memo.pop("pending", []):
        gf_rows, gx_rows = rows.setdefault(state, ([], []))
        gf_rows.append(np.asarray(grads.get(f.id, np.zeros_like(f.data))))
        gx_rows.append(np.asarray(grads.get(x.id, np.zeros_like(x.data))))
    for state, (gf_rows, gx_rows) in rows.items():
        update_gate_cache(state, np.vstack(gf_rows), np.vstack(gx_rows), momentum)

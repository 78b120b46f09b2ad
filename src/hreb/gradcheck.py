"""Central-difference gradient verification."""

import numpy as np

from .autodiff import backward
from .errors import VerificationError

# each central difference steps a parameter this far along a direction
# whose entries have unit variance
STEP = 1e-5
# seeded directions each parameter is checked along
DIRECTIONS = 2


def finite_diff_params(build_loss, params):
    """Check analytic parameter gradients of a rebuildable scalar loss.

    build_loss() must rerun the forward pass from current parameter values
    and return (loss tensor, tape). Each parameter is checked along
    DIRECTIONS standard-normal directions u of its shape, drawn from a
    generator seeded by its name alone: the analytic g . u against
    (L(p + STEP u) - L(p - STEP u)) / (2 STEP). Every entry takes part in
    every direction, so a fault in one entry shows at its full size. The
    parameter is written in place and restored afterwards. Returns
    {param name: worst |g . u - numeric| / max(1, |g . u|)}.
    """
    if not all(p.name for p in params):
        raise ValueError("finite_diff_params needs named tensors: "
                         "a tensor's name seeds its directions")
    loss, tape = build_loss()
    base = float(loss.data)
    again, _ = build_loss()
    if float(again.data) != base:
        raise VerificationError("loss is not deterministic across rebuilds")
    grads = backward(tape, loss)

    results = {}
    for p in params:
        g = grads.get(p.id, 0.0)
        rng = np.random.default_rng(list(p.name.encode()))
        orig = p.data.copy()
        rels = []
        for _ in range(DIRECTIONS):
            u = rng.standard_normal(orig.shape)
            p.data[...] = orig + STEP * u
            lp = float(build_loss()[0].data)
            p.data[...] = orig - STEP * u
            lm = float(build_loss()[0].data)
            p.data[...] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            analytic = float(np.sum(g * u))
            rels.append(abs(analytic - numeric) / max(1.0, abs(analytic)))
        # np.max keeps a NaN, which fails every tolerance
        results[p.name] = float(np.max(rels))
    return results

"""Central-difference gradient verification."""

import numpy as np

from .autodiff import Tape, backward
from .errors import VerificationError

# each central difference steps a parameter this far along a direction
# whose entries are +-1
STEP = 1e-5
# seeded directions each parameter is checked along
DIRECTIONS = 2


def finite_diff_params(build, params):
    """Check analytic parameter gradients of a rebuildable scalar loss.

    build(tape) must rerun the forward pass from current parameter values
    on tape and return the loss tensor. It gets a recording Tape once, for
    the gradient, and None for every other build: a rebuild that must give
    the same loss to the bit, and each difference. Each parameter is
    checked along DIRECTIONS directions u of its shape whose entries are
    +-1 (Rademacher), drawn from a generator seeded by its name alone: the
    analytic g . u against (L(p + STEP u) - L(p - STEP u)) / (2 STEP).
    Every entry, a 0-d parameter's too, moves by STEP in every direction,
    so a fault in one entry shows at its full size. The parameter is
    written in place and restored afterwards. Returns
    {param name: worst |g . u - numeric| / max(1, |g . u|)}.
    """
    if not all(p.name for p in params):
        raise ValueError("finite_diff_params needs named tensors: "
                         "a tensor's name seeds its directions")
    tape = Tape()
    loss = build(tape)
    if float(build(None).data) != float(loss.data):
        raise VerificationError("loss is not deterministic across rebuilds")
    grads = backward(tape, loss)

    results = {}
    for p in params:
        g = grads.get(p.id, 0.0)
        rng = np.random.default_rng(list(p.name.encode()))
        orig = p.data.copy()
        rels = []
        for _ in range(DIRECTIONS):
            u = rng.integers(0, 2, orig.shape) * 2.0 - 1.0
            p.data[...] = orig + STEP * u
            lp = float(build(None).data)
            p.data[...] = orig - STEP * u
            lm = float(build(None).data)
            p.data[...] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            analytic = float(np.sum(g * u))
            rels.append(abs(analytic - numeric) / max(1.0, abs(analytic)))
        # np.max keeps a NaN, which fails every tolerance
        results[p.name] = float(np.max(rels))
    return results

"""Central-difference gradient verification."""

import numpy as np

from .autodiff import backward
from .errors import VerificationError

# each central difference steps a parameter entry this far either way
STEP = 1e-5


def finite_diff_params(build_loss, params, max_entries=None, rng=None):
    """Check analytic parameter gradients of a rebuildable scalar loss.

    build_loss() must rerun the forward pass from current parameter values
    and return (loss tensor, tape). Perturbs each parameter entry in place
    (restoring it afterwards). max_entries caps the per-parameter probe count;
    entries are then sampled with rng. Returns {param name: max rel error}.
    """
    loss, tape = build_loss()
    base = float(loss.data)
    again, _ = build_loss()
    if float(again.data) != base:
        raise VerificationError("loss is not deterministic across rebuilds")
    grads = backward(tape, loss)

    results = {}
    for p in params:
        g = grads.get(p.id)
        if g is None:
            g = np.zeros_like(p.data)
        n = p.data.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(n, size=max_entries, replace=False)
        else:
            idxs = range(n)
        worst = 0.0
        for i in idxs:
            orig = p.data.flat[i]
            p.data.flat[i] = orig + STEP
            lp = float(build_loss()[0].data)
            p.data.flat[i] = orig - STEP
            lm = float(build_loss()[0].data)
            p.data.flat[i] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            analytic = g.flat[i]
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            if rel > worst:
                worst = rel
        results[p.name or f"t{p.id}"] = worst
    return results

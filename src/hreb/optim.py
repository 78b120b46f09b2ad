"""Adam with standard bias correction, keyed by tensor identity."""

import numpy as np

from .errors import DivergenceError


class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count.

    The buffers of every parameter given here are allocated, as zeros, by
    the first step, after its finite check: until then m and v are None.
    A training step's tape has been swept by then, so the buffers reuse
    memory that its backward has freed instead of adding to its peak.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0 or eps <= 0:
            raise ValueError("lr and eps must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._params = list(params)
        self.m = self.v = None

    def step(self, grads):
        """Update the held params; those absent from grads are left untouched.

        Each updated p.data is a new array, so a memo built from the old
        one (HrebModel's decode tape) sees the change. asarray keeps a 0-d
        parameter an array: numpy arithmetic on 0-d arrays yields scalars.
        """
        for p in self._params:
            g = grads.get(p.id)
            if g is not None and not np.all(np.isfinite(g)):
                raise DivergenceError(
                    f"non-finite gradient for parameter {p.name or p.id}")
        if self.m is None:
            self.m = {p.id: np.zeros_like(p.data) for p in self._params}
            self.v = {p.id: np.zeros_like(p.data) for p in self._params}
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p in self._params:
            g = grads.get(p.id)
            if g is None:
                continue
            m = self.m[p.id]
            v = self.v[p.id]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p.data = np.asarray(
                p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps))

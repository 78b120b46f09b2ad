"""Per-layer tracing from outside the program.

The tracer replaces public functions with timing wrappers at the place the
caller looks them up (a module attribute or a class attribute), records one
span per call (name, start, end, parent) in memory, and puts the originals
back on `uninstall`. Nothing under src/ changes. `record_op` is counted, not
timed: it runs ~140 times per training sentence, and timing each call would
distort what it measures.
"""

import json
import time

import hreb.autodiff
import hreb.checkpoint
import hreb.crf
import hreb.encoders
import hreb.kernels
import hreb.model
import hreb.optim
import hreb.residual
import hreb.rhema
import hreb.training

from spec import KERNELS


def _kernel_steps(args, kwargs):
    # Every kernel's first argument has one row per sequence step.
    return int(args[0].shape[0])


def _block_name(args, kwargs):
    # rhema_block(tape, x, params, config, ...): chunk_size 0 is the global stage.
    return "rhema.local" if args[3].chunk_size > 0 else "rhema.global"


def targets():
    """(owner, attribute, span name or namer, steps function) per wrapped call."""
    out = [(hreb.kernels, k, f"kernels.{k}", _kernel_steps) for k in KERNELS]
    out += [
        (hreb.autodiff, "backward", "autodiff.backward", None),
        (hreb.rhema, "rhema_block", _block_name, None),
        (hreb.rhema, "multihead_ema", "moving_average.multihead_ema", None),
        (hreb.model, "embed_tokens", "encoders.embed", None),
        (hreb.encoders.BiLstm, "forward", "encoders.bilstm", None),
        (hreb.crf, "crf_nll", "crf.nll", None),
        (hreb.crf, "viterbi", "crf.viterbi", None),
        (hreb.optim.AdamState, "step", "optim.step", None),
        (hreb.residual, "commit_gate_caches", "residual.commit", None),
        (hreb.model.HrebModel, "sentence_nll", "training.forward", None),
        (hreb.training, "evaluate", "training.evaluate", None),
        (hreb.training, "make_batches", "data.make_batches", None),
        (hreb.training, "train", "training.train", None),
        (hreb.checkpoint, "save_checkpoint", "checkpoint.save", None),
        (hreb.checkpoint, "load_model", "checkpoint.load", None),
    ]
    return out


class Tracer:
    """Span recorder plus the record_op counter."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, steps,
        # record_op calls made while it was the innermost span].
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, steps):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            n = steps(args, kwargs) if steps is not None else 0
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, n, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def _count_record_op(self, fn):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, steps in targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, steps))
        fn = hreb.autodiff.__dict__["record_op"]
        self._saved.append((hreb.autodiff, "record_op", fn))
        hreb.autodiff.record_op = self._count_record_op(fn)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def self_times(self, durations):
        """Each span's duration minus its child spans' durations."""
        own = list(durations)
        for s, d in zip(self.spans, durations):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def ops_under(self, name, start=0):
        """record_op calls made inside spans called name, descendants included.

        Only spans from index `start` on count.
        """
        owner = []
        total = 0
        for i, s in enumerate(self.spans):
            top = i if s[0] == name else (owner[s[3]] if s[3] >= 0 else -1)
            owner.append(top)
            if top >= 0 and i >= start:
                total += s[5]
        return total

    def write(self, path):
        """One JSON object per span, then a per-name summary line."""
        durations = [s[2] - s[1] for s in self.spans]
        own = self.self_times(durations)
        summary = {}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, steps, ops) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "steps": steps, "record_ops": ops}) + "\n")
                agg = summary.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                agg["calls"] += 1
                agg["s"] += durations[i]
                agg["self_s"] += own[i]
            fh.write(json.dumps({"summary": summary}) + "\n")

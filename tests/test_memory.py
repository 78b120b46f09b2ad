"""What a training step holds, measured with tracemalloc on the default
model and one pack of two 64-token sentences: the arrays a recording
forward keeps for backward, and Adam's moments before its first step."""

import tracemalloc

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import training
from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.model import HrebModel
from hreb.optim import AdamState

MIB = 2 ** 20


@pytest.fixture(scope="module")
def model_and_batch():
    model = HrebModel(RunConfig(), Vocab.from_corpus(synth_corpus(0, 64, 3)))
    rng = np.random.default_rng(0)
    batch = [(rng.integers(1, len(model.vocab.tokens), 64), np.zeros(64, dtype=np.int64))
             for _ in range(2)]
    # one step first, so module-level caches are built outside the measurement
    tape = ad.Tape()
    ad.backward(tape, training.batch_loss(model, tape, batch)[0])
    return model, batch


def held_bytes(call):
    """(call(), the bytes it allocated that are still allocated after it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_recording_forward_holds_only_what_backward_reads(model_and_batch):
    # 5.60 MiB: op outputs, and each backward's saved arrays. It was 6.60
    # MiB when the paper silu kept its pre-activation, sigmoid and s(1 - s),
    # and gated_merge kept gamma * o.
    model, batch = model_and_batch
    tape = ad.Tape()
    (loss, _), held = held_bytes(lambda: training.batch_loss(model, tape, batch))
    assert tape.records and loss.data.shape == ()
    assert held < 6.1 * MIB


def test_adam_allocates_no_moments_before_its_first_step(model_and_batch):
    # two moments per parameter entry would be 2.8 MiB here
    model, _ = model_and_batch
    opt, held = held_bytes(lambda: AdamState(model.params()))
    assert held < 64 * 1024
    assert opt.m is None and opt.v is None

"""perfbench wraps public functions by name from outside src/; a rename
under src/ must fail here, not only in the benchmark's own self-test."""

import importlib
import os

import hreb.autodiff
import hreb.kernels
from hreb import training
from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.model import HrebModel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_perfbench_trace_target_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    # the tracer also counts record_op calls, looked up the same way
    wrapped = [(owner, attr) for owner, attr, _, _ in spans.targets()]
    wrapped.append((hreb.autodiff, "record_op"))
    names = {f"{owner.__name__}.{attr}" for owner, attr in wrapped}
    assert {"hreb.rhema.rhema_block", "hreb.training.make_batches"} <= names
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wrapped
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_environment_record_names_the_kernel_implementation():
    # perfbench's environment() records kernels.backend_name()
    assert hreb.kernels.backend_name() == "numpy"


def test_tracer_labels_the_local_and_global_attention_stages(monkeypatch):
    # spans._block_name reads the stage's chunk_size off rhema_block's config
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    corpus = synth_corpus(0, n_sentences=4)
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(RunConfig(), vocab)
    tracer = spans.Tracer()
    tracer.install()
    try:
        model.emissions(None, vocab.encode_tokens(corpus.train[0].tokens))
    finally:
        tracer.uninstall()
    stages = [s[0] for s in tracer.spans if s[0].startswith("rhema.")]
    assert stages == ["rhema.local", "rhema.global"]


def test_perfbench_output_checks_pass_on_a_trained_model(monkeypatch):
    # run.decode_problems and run.gradient_problems read the model through
    # params(), gate_states(), crf and emissions(None, ...)
    monkeypatch.syspath_prepend(PERFBENCH)
    run = importlib.import_module("run")
    inputs = importlib.import_module("inputs")
    w = inputs.tiny_workload("train_short", 3)
    result = training.train(run.run_config(3), w.corpus)
    assert not result.diverged
    model = result.model
    for sent in w.decode:
        assert run.decode_problems(model, sent, model.predict_tags(sent.tokens)) == []
    assert run.gradient_problems(model, w.decode[0], 3) == []


def test_a_traced_training_run_records_the_optimizer_and_gate_commit_spans(monkeypatch):
    # perfbench's traced rounds wrap AdamState.step and commit_gate_caches
    # by name; a training run under the tracer must still pass through them
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    inputs = importlib.import_module("inputs")
    w = inputs.tiny_workload("train_short", 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = training.train(run.run_config(3), w.corpus)
    finally:
        tracer.uninstall()
    assert not result.diverged
    names = {s[0] for s in tracer.spans}
    assert {"optim.step", "residual.commit"} <= names

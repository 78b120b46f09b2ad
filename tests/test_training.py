"""Training loop behavior: freezing, progress, early stop, divergence."""

import gc
import re
import weakref

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import residual, training
from hreb.config import RunConfig
from hreb.data import Corpus, Vocab, make_batches, synth_corpus
from hreb.errors import ConfigError, NumericsError
from hreb.model import HrebModel
from hreb.optim import AdamState

EPOCH_RE = re.compile(
    r"^epoch (\d+) P (\d\.\d{6}) R (\d\.\d{6}) F1 (\d\.\d{6}) loss (-?\d+\.\d{6})$")


def tiny_config(**kw):
    base = dict(d_model=8, n_ema_head=2, chunk_size=2, rel_bias_window=4,
                h_lstm=4, batch_size=4, max_epochs=2, patience=10,
                attn_fn="softmax", lr=1e-3, seed=0)
    base.update(kw)
    return RunConfig(**base)


def tiny_corpus(seed=0):
    return synth_corpus(seed, n_sentences=8, entity_types=2)


def param_blob(model):
    return {p.name: p.data.copy() for p in model.params()}


def test_zero_lr_freezes_everything_and_loss_is_constant():
    cfg = tiny_config(lr=0.0, max_epochs=3, reduced_bias="dynamic")
    corpus = tiny_corpus()
    result = training.train(cfg, corpus)
    losses = [h["loss"] for h in result.history]
    assert len(losses) == 3
    # batch order changes per epoch but the weights never move, so the mean
    # per-sentence loss is identical up to summation order
    assert max(losses) - min(losses) < 1e-12
    # parameters are bitwise initial: retrain with one epoch and compare
    again = training.train(tiny_config(lr=0.0, max_epochs=1,
                                       reduced_bias="dynamic"), corpus)
    b1 = param_blob(result.model)
    b2 = param_blob(again.model)
    assert set(b1) == set(b2)
    for name in b1:
        assert np.array_equal(b1[name], b2[name]), name
    # gate caches never committed either
    for gs in result.model.gate_states():
        assert np.all(gs.cache_f == 0.0) and np.all(gs.cache_x == 0.0)


def test_a_tape_dropped_without_a_commit_leaves_the_next_step_alone():
    # an aborted run drops its last tape uncommitted; its (branch, skip)
    # pairs must not reach the next step's gate caches
    cfg = tiny_config(reduced_bias="dynamic")
    corpus = tiny_corpus()
    vocab = Vocab.from_corpus(corpus)
    batches = make_batches(corpus.train, cfg.batch_size, cfg.seed, vocab)[:1]
    caches = []
    for dropped in (False, True):
        model = HrebModel(cfg, vocab)
        if dropped:
            ids, tag_ids = batches[0][0]
            model.sentence_nll(ad.Tape(), ids, tag_ids)
        opt = AdamState(model.params(), lr=cfg.lr)
        training._epoch_pass(model, batches, opt, cfg.gate_momentum)
        caches.append([(gs.cache_f, gs.cache_x) for gs in model.gate_states()])
    for (fresh_f, fresh_x), (f, x) in zip(*caches):
        assert np.any(fresh_f != 0.0)
        assert np.array_equal(f, fresh_f) and np.array_equal(x, fresh_x)


def test_training_reduces_loss_and_emits_wellformed_lines():
    cfg = tiny_config(max_epochs=8, lr=3e-3)
    result = training.train(cfg, tiny_corpus())
    assert not result.diverged
    losses = [h["loss"] for h in result.history]
    assert losses[-1] < losses[0]
    for line in result.lines:
        m = EPOCH_RE.match(line)
        assert m, line
    assert [int(EPOCH_RE.match(l).group(1)) for l in result.lines] == \
        list(range(1, len(result.lines) + 1))


def test_dev_falls_back_to_test_when_dev_is_empty():
    cfg = tiny_config(max_epochs=1)
    base = tiny_corpus()
    no_dev = Corpus(base.train, [], base.test)
    result = training.train(cfg, no_dev)
    assert len(result.history) == 1  # evaluation ran against the test split


def test_stop_f1_halts_immediately_at_threshold():
    cfg = tiny_config(max_epochs=50, stop_f1=1e-9)
    # any nonnegative dev F1 >= 1e-9 stops after epoch 1 only if f1 > 0;
    # use a tiny bar and confirm the loop never outlives an epoch whose F1
    # clears it
    result = training.train(cfg, tiny_corpus())
    if result.stop_reason == "stop_f1":
        assert result.history[-1]["F1"] >= 1e-9
        for h in result.history[:-1]:
            assert h["F1"] < 1e-9
    else:
        assert all(h["F1"] < 1e-9 for h in result.history)


def test_patience_stops_after_no_improvement():
    cfg = tiny_config(lr=0.0, max_epochs=50, patience=3)
    result = training.train(cfg, tiny_corpus())
    # frozen weights: epoch 1 sets best, then 3 non-improving epochs
    assert result.stop_reason == "patience"
    assert len(result.history) == 4
    assert result.best_epoch == 1


def test_best_state_survives_later_decline():
    cfg = tiny_config(max_epochs=6, lr=5e-3)
    result = training.train(cfg, tiny_corpus())
    best = max(result.history, key=lambda h: h["F1"])
    assert result.best_f1 == best["F1"]
    assert result.best_epoch <= len(result.history)
    # the returned model carries the best snapshot, not the final one
    for p in result.model.params():
        assert np.array_equal(p.data, result.best_state["params"][p.name])


def test_divergence_aborts_and_keeps_best_weights(monkeypatch):
    # the numeric triggers (non-finite loss, degenerate attention rows) are
    # exercised at op level; here the loss explodes on cue so the loop's
    # abort path is deterministic
    from hreb.errors import DivergenceError

    real = training._epoch_pass
    calls = {"n": 0}

    def explode_at_three(*args, **kw):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise DivergenceError("non-finite training loss")
        return real(*args, **kw)

    monkeypatch.setattr(training, "_epoch_pass", explode_at_three)
    cfg = tiny_config(max_epochs=30, lr=1e-3)
    result = training.train(cfg, tiny_corpus())
    assert result.diverged
    assert result.stop_reason == "diverged"
    assert len(result.history) == 2
    assert result.lines[-1] == "diverged at epoch 3: non-finite training loss"
    for p in result.model.params():
        assert not np.any(np.isnan(p.data))
        assert np.array_equal(p.data, result.best_state["params"][p.name])


def test_degenerate_attention_abort_has_its_own_stop_reason(monkeypatch):
    # reduced_laplace's row normalization raises on a recording tape from
    # the second epoch on; decoding (no recording tape) is left alone
    from hreb import autodiff as ad
    from hreb.errors import DegenerateRowError

    real = ad.band_attention
    epochs = {"n": 0}
    real_pass = training._epoch_pass

    def count_epochs(*args, **kw):
        epochs["n"] += 1
        return real_pass(*args, **kw)

    def degenerate(tape, *args):
        if tape is not None and tape.record and epochs["n"] >= 2:
            raise DegenerateRowError("row 0 sums to -1.0; cannot normalize")
        return real(tape, *args)

    monkeypatch.setattr(training, "_epoch_pass", count_epochs)
    monkeypatch.setattr(ad, "band_attention", degenerate)
    cfg = tiny_config(max_epochs=5, attn_fn="reduced_laplace")
    result = training.train(cfg, tiny_corpus())
    assert result.diverged
    assert result.stop_reason == "degenerate_attention"
    assert result.summary()["stop_reason"] == "degenerate_attention"
    assert len(result.history) == 1
    assert result.lines[-1] == ("diverged at epoch 2: "
                                "row 0 sums to -1.0; cannot normalize")


def test_duplicate_parameter_names_are_refused():
    cfg = tiny_config()
    corpus = tiny_corpus()
    from hreb import model as model_mod

    original = model_mod.HrebModel.param_names

    def clashing(self):
        names = original(self)
        names[0] = names[1]
        return names

    model_mod.HrebModel.param_names = clashing
    try:
        with pytest.raises(RuntimeError):
            training.train(cfg, corpus)
    finally:
        model_mod.HrebModel.param_names = original


def test_snapshot_restore_roundtrip():
    cfg = tiny_config(max_epochs=1, reduced_bias="dynamic")
    result = training.train(cfg, tiny_corpus())
    model = result.model
    saved = training.snapshot(model)
    for p in model.params():
        p.data += 1.0
    for gs in model.gate_states():
        gs.cache_f += 2.0
    training.restore(model, saved)
    for p in model.params():
        assert np.array_equal(p.data, saved["params"][p.name])
    for gs, (cf, cx) in zip(model.gate_states(), saved["caches"]):
        assert np.array_equal(gs.cache_f, cf)


def test_gate_caches_move_during_dynamic_training():
    cfg = tiny_config(max_epochs=2, reduced_bias="dynamic", lr=1e-3)
    result = training.train(cfg, tiny_corpus())
    moved = any(np.any(gs.cache_f != 0.0) for gs in result.model.gate_states())
    assert moved


def test_default_config_sentence_records_at_most_95_ops():
    # Gates and EMA decays are built once per tape (one optimizer step), so
    # from the second sentence on a sentence records only its own ops.
    from hreb import autodiff as ad
    from hreb.data import Vocab
    from hreb.model import HrebModel

    corpus = tiny_corpus()
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(RunConfig(), vocab)
    tape = ad.Tape()
    counts = []
    for s in corpus.train[:3]:
        before = len(tape.records)
        model.sentence_nll(tape, vocab.encode_tokens(s.tokens),
                           vocab.encode_tags(s.tags))
        counts.append(len(tape.records) - before)
    assert counts[1] <= 95, counts
    assert counts[1] == counts[2] < counts[0], counts


def decode_model():
    corpus = tiny_corpus()
    cfg = tiny_config(reduced_bias="dynamic")
    vocab = Vocab.from_corpus(corpus)
    docs = [vocab.encode_tokens(s.tokens) for s in corpus.train + corpus.test]
    return cfg, corpus, vocab, HrebModel(cfg, vocab), docs


def test_decode_memo_follows_every_change_of_the_parameters():
    # decode keeps the gates, EMA decays and BiLSTM matrix between calls;
    # after each change below it must equal a fresh model restored from
    # the same snapshot, and the change must show in the emissions.
    cfg, corpus, vocab, model, docs = decode_model()
    rng = np.random.default_rng(0)
    for p in (p for gs in model.gate_states() for p in gs.params()):
        p.data = rng.standard_normal(p.data.shape)  # zero gate weights hide the caches
    opt = AdamState(model.params(), lr=0.05)
    seen = [[model.emissions(model.decode_tape(), ids).data for ids in docs]]

    def check():
        fresh = HrebModel(cfg, vocab)
        training.restore(fresh, training.snapshot(model))
        now = []
        for ids in docs:
            assert np.array_equal(model.decode(ids), fresh.decode(ids))
            e = model.emissions(model.decode_tape(), ids).data
            assert np.array_equal(e, fresh.emissions(None, ids).data)
            now.append(e)
        assert not all(np.array_equal(a, b) for a, b in zip(now, seen[-1]))
        seen.append(now)

    batches = make_batches(corpus.train, cfg.batch_size, 1, vocab)
    training._epoch_pass(model, batches[:1], opt, cfg.gate_momentum)
    check()
    stepped = training.snapshot(model)

    tape = ad.Tape()
    ids, tags = batches[1][0]
    loss = model.sentence_nll(tape, ids, tags)
    grads = ad.backward(tape, loss, keep=residual.pending_ids(tape))
    residual.commit_gate_caches(tape, grads, cfg.gate_momentum)
    check()
    opt.step(grads)  # an optimizer step alone, caches kept
    check()

    training.restore(model, stepped)
    check()

    block = model.encoder.local
    for p in (block.ema.alpha_raw, model.lstm.bwd.u, block.rb_ffn.w_alpha):
        p.data = p.data + 0.5
        check()


def test_decode_memo_frees_the_arrays_a_step_replaces():
    cfg, corpus, vocab, model, docs = decode_model()
    model.decode(docs[0])
    old_table = weakref.ref(model.embed.table.data)
    opt = AdamState(model.params(), lr=0.05)
    batches = make_batches(corpus.train, cfg.batch_size, 1, vocab)
    training._epoch_pass(model, batches[:1], opt, cfg.gate_momentum)
    gc.collect()
    assert old_table() is None


def test_a_step_keeps_every_parameter_an_array_of_its_shape():
    # numpy arithmetic turns a 0-d array into a scalar, which refuses an
    # in-place write (finite_diff_params' p.data[...] = ...);
    # the laplace squash trains the four 0-d parameters
    cfg = tiny_config(attn_fn="laplace")
    corpus = tiny_corpus()
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(cfg, vocab)
    shapes = [p.data.shape for p in model.params()]
    assert () in shapes
    opt = AdamState(model.params(), lr=0.05)
    batches = make_batches(corpus.train, cfg.batch_size, 1, vocab)
    training._epoch_pass(model, batches[:1], opt, cfg.gate_momentum)
    for p, shape in zip(model.params(), shapes):
        assert type(p.data) is np.ndarray and p.data.shape == shape, p.name


def test_decode_tape_stays_empty_and_checks_every_op():
    cfg, corpus, vocab, model, docs = decode_model()
    for i in range(200):
        model.decode(docs[i % len(docs)])
    tape = model.decode_tape()
    assert tape.records == []
    assert "pending" not in tape.memo
    assert len(tape.memo) == 4 + 2 + 1  # gates, EMA decays, BiLSTM matrix
    w = model.encoder.global_.w_z
    w.data = np.full(w.data.shape, np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as tape_free:
        model.emissions(None, docs[0])
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as decoded:
        model.decode(docs[0])
    assert str(decoded.value) == str(tape_free.value)
    assert "op 'linear_silu'" in str(decoded.value)


def test_ablate_covers_the_grid_and_isolates_switches():
    cfg = tiny_config(max_epochs=2)
    corpus = tiny_corpus()
    rows = training.ablate(cfg, corpus,
                           {"attention_mode": ("naive", "hema"),
                            "reduced_bias": ("off", "dynamic")})
    assert len(rows) == 4
    combos = {(r["switches"]["attention_mode"], r["switches"]["reduced_bias"])
              for r in rows}
    assert combos == {("naive", "off"), ("naive", "dynamic"),
                      ("hema", "off"), ("hema", "dynamic")}
    for r in rows:
        # census: the architecture switches visibly change the param set
        names = r["param_names"]
        if r["switches"]["attention_mode"] == "naive":
            assert "naive.w_q" in names
            assert not any("ema.alpha_raw" in n for n in names)
        else:
            assert any(n.endswith("ema.alpha_raw") for n in names)
            assert "naive.w_q" not in names
        has_gates = any(n.endswith("rb.w_alpha") for n in names)
        assert has_gates == (r["switches"]["reduced_bias"] == "dynamic")
        assert 0.0 <= r["F1"] <= 1.0
        assert r["epochs"] >= 1
        # every non-switch key matches the base config
        for key, val in cfg.to_dict().items():
            if key in ("attention_mode", "reduced_bias"):
                continue
            assert r["config"][key] == val


def test_ablate_sweeps_any_config_key():
    rows = training.ablate(tiny_config(max_epochs=1), tiny_corpus(),
                           {"silu_variant": ("paper", "standard"),
                            "attn_fn": ("laplace",)})
    assert [r["switches"] for r in rows] == [
        {"attn_fn": "laplace", "silu_variant": "paper"},
        {"attn_fn": "laplace", "silu_variant": "standard"}]
    for r in rows:
        assert {k: r["config"][k] for k in r["switches"]} == r["switches"]


def test_ablate_rejects_unknown_switch():
    logged = []
    with pytest.raises(ConfigError, match="'optimizer'"):
        training.ablate(tiny_config(), tiny_corpus(), {"optimizer": ("a",)},
                        log=logged.append)
    assert logged == []


def test_ablate_validates_every_combination_before_training():
    # the "off" row cannot keep the base's rb_alpha=0.5; the "static" row
    # before it must not train first
    logged = []
    with pytest.raises(ConfigError, match="rb_alpha"):
        training.ablate(tiny_config(reduced_bias="static", rb_alpha=0.5),
                        tiny_corpus(), {"reduced_bias": ("static", "off")},
                        log=logged.append)
    assert logged == []


def test_ablation_table_is_fixed_width():
    rows = [{"switches": {"attention_mode": "hema", "batch_norm_fidelity": True},
             "P": 0.5, "R": 0.25, "F1": 1 / 3},
            {"switches": {"attention_mode": "naive", "batch_norm_fidelity": False},
             "P": 1.0, "R": 1.0, "F1": 1.0}]
    lines = training.ablation_table(rows)
    assert len(lines) == 4
    assert lines[0].split() == ["attention_mode", "batch_norm_fidelity",
                                "P", "R", "F1"]
    assert lines[1] == "-" * len(lines[0])
    assert len({len(line) for line in lines}) == 1
    assert lines[2].split() == ["hema", "True", "0.5000", "0.2500", "0.3333"]
    assert lines[3].split() == ["naive", "False", "1.0000", "1.0000", "1.0000"]


def test_validation_falls_back_to_test_then_train(monkeypatch):
    scored = []
    real_evaluate = training.evaluate

    def recording_evaluate(model, sentences):
        scored.append(sentences)
        return real_evaluate(model, sentences)

    monkeypatch.setattr(training, "evaluate", recording_evaluate)
    train, dev, test = (tiny_corpus(0).train, tiny_corpus(1).dev,
                        tiny_corpus(2).test)
    for corpus, want in ((Corpus(train, dev, test), dev),
                         (Corpus(train, [], test), test),
                         (Corpus(train, [], []), train)):
        scored.clear()
        result = training.train(tiny_config(max_epochs=1), corpus)
        assert len(scored) == 1 and scored[0] is want
        assert len(result.history) == 1


def test_an_empty_train_split_is_a_config_error():
    corpus = tiny_corpus()
    with pytest.raises(ConfigError, match="train split is empty"):
        training.train(tiny_config(), Corpus([], corpus.dev, corpus.test))


# ROADMAP item 1: reduced_laplace's degenerate-row abort. The fix makes this
# pass; strict=True then fails tier-1 until the marker goes.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="aborts in epoch 1: row 6 of sentence 7 sums to -1.39")
def test_standard_silu_trains_past_its_first_epoch():
    result = training.train(
        RunConfig(seed=0, silu_variant="standard", max_epochs=15),
        synth_corpus(0, 48, 3))
    assert result.stop_reason != "degenerate_attention", result.lines[-1]
    assert result.history

"""Shipping gate: one test per acceptance criterion.

Every test registers its verdict with conftest.record_criterion so the
terminal summary ends with one PASS/FAIL line per criterion. Oracles here
are deliberately local (path enumeration, closed-form sums) rather than
the package's own verify suites wherever a criterion states a number.

Criterion 8 compares against the published statistics of three standard
CNER benchmarks and needs the (licensed) corpora on disk; it reports SKIP
unless HREB_MSRA_DIR / HREB_WEIBO_DIR / HREB_RESUME_DIR are set.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import record_criterion
from hreb import autodiff as ad
from hreb import cli
from hreb import crf as crf_mod
from hreb import residual, rhema, verify
from hreb.checkpoint import load_model, save_checkpoint
from hreb.config import RunConfig
from hreb.data import Corpus, synth_corpus
from hreb.errors import ConfigError, DegenerateRowError
from hreb.moving_average import EmaState, multihead_ema
from hreb.pack import one
from hreb.training import ablate, ablation_table, evaluate, snapshot, train


def random_crf(rng, n_max=6, c_max=4):
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(1, c_max + 1))
    emissions = rng.standard_normal((n, c))
    params = crf_mod.CrfParams(c)
    for view in ad.split_transitions(params.trans.data, c):
        view[...] = rng.standard_normal(view.shape)
    return emissions, params


def crf_paths_brute(emissions, trans, n_classes):
    """Score every tag path explicitly.

    Paths are enumerated colexicographically (later positions vary slowest)
    so argmax's first-hit rule resolves ties the way the decoder's backtrack
    does: minimize the last position first.
    """
    n, c = emissions.shape
    core, start, stop = ad.split_transitions(trans, c)
    paths = np.array(list(itertools.product(range(c), repeat=n)),
                     dtype=np.int64)[:, ::-1]
    scores = emissions[np.arange(n), paths].sum(axis=1)
    scores += start[paths[:, 0]] + stop[paths[:, -1]]
    if n > 1:
        scores += core[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return float(logsumexp(scores)), paths[int(np.argmax(scores))]


def test_criterion_1_crf_matches_enumeration():
    ok = False
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            emissions, params = random_crf(rng)
            want_z, want_path = crf_paths_brute(emissions, params.trans.data,
                                                params.n_classes)
            got_z = float(crf_mod.log_partition(None, ad.Tensor(emissions),
                                                params, one(len(emissions))).data)
            worst = max(worst, abs(got_z - want_z))
            path, _ = crf_mod.viterbi(emissions, params)
            assert np.array_equal(path, want_path)
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8, worst
        assert elapsed < 5.0, elapsed

        # exact tie between (0,1) and (1,0): both sides must pick (1,0)
        params = crf_mod.CrfParams(2)
        params.trans.data[:2, :2] = np.array([[-1.0, 0.0], [0.0, -1.0]])
        params.trans.data[2, :2] = 0.0
        params.trans.data[:2, 3] = 0.0
        emissions = np.zeros((2, 2))
        _, want_path = crf_paths_brute(emissions, params.trans.data, 2)
        path, _ = crf_mod.viterbi(emissions, params)
        assert np.array_equal(want_path, [1, 0])
        assert np.array_equal(path, want_path)
        ok = True
    finally:
        record_criterion(1, "CRF log partition and Viterbi match enumeration",
                         ok)


def test_criterion_2_gradient_suite():
    # op-level checks probe every input of every differentiable op; the
    # model-level sweep runs the attn_fn x reduced_bias product, then one row
    # per other value of silu_variant, batch_norm_fidelity,
    # strict_transitions and attention_mode, at fixed small dims
    # (loss_head=token: tests/test_crf.py)
    ok = False
    try:
        t0 = time.perf_counter()
        results = verify.op_grad_checks()
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed
        sweep = [dict(attn_fn=attn_fn, reduced_bias=mode)
                 for attn_fn in ("softmax", "laplace", "reduced_laplace")
                 for mode in ("off", "static", "dynamic")]
        sweep += [dict(silu_variant="standard"), dict(batch_norm_fidelity=True),
                  dict(strict_transitions=True), dict(attention_mode="naive")]
        for switches in sweep:
            worst, _ = verify.model_grad_check(**switches)
            assert worst <= 1e-4, (switches, worst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed
        ok = True
    finally:
        record_criterion(
            2, "finite differences pass for every op and the full model", ok)


# ROADMAP item 1: a freshly built tiny model already has a non-positive
# reduced_laplace row. The fix makes this pass; strict=True then fails
# tier-1 until the marker goes.
@pytest.mark.xfail(strict=True, raises=DegenerateRowError,
                   reason="row 0 of sentence 0 sums to -0.0489 before any step")
def test_batch_norm_fidelity_passes_the_model_gradient_check_at_seed_1():
    worst, _ = verify.model_grad_check(seed=1, batch_norm_fidelity=True)
    assert worst <= 1e-4


def test_model_grad_check_takes_config_keys():
    worst, errs = verify.model_grad_check(attention_mode="naive",
                                          strict_transitions=True)
    assert worst <= 1e-4
    assert "naive.w_q" in errs
    with pytest.raises(ConfigError, match="'optimizer'"):
        verify.model_grad_check(optimizer="sgd")


def ema_closed_form(x, alpha, h0):
    """Direct weighted sum h_t = (1-a)^(t+1) h0 + sum_s a (1-a)^(t-s) x_s."""
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        acc = (1.0 - alpha) ** (t + 1) * h0
        for s in range(t + 1):
            acc = acc + alpha * (1.0 - alpha) ** (t - s) * x[s]
        out[t] = acc
    return out


def test_criterion_3_ema_algebra():
    ok = False
    try:
        rng = np.random.default_rng(103)
        worst = 0.0
        for n in (1, 5, 33, 64):
            x = rng.standard_normal((n, 3))
            alpha = rng.uniform(0.05, 0.95, 3)
            h0 = rng.standard_normal(3)
            got = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(alpha),
                              ad.Tensor(h0), one(n)).data
            worst = max(worst,
                        float(np.abs(got - ema_closed_form(x, alpha, h0)).max()))
        assert worst <= 1e-12, worst

        x = rng.standard_normal((9, 4))
        kept = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(np.ones(4)),
                           ad.Tensor(rng.standard_normal(4)), one(9)).data
        assert np.array_equal(kept, x)

        d, alpha = 4, 0.37
        state = EmaState(d, 1, np.random.default_rng(7))
        state.w_down.data = np.eye(d)
        state.w_up.data = np.eye(d)
        state.alpha_raw.data = np.array([np.log(alpha / (1.0 - alpha))])
        x = rng.standard_normal((11, d))
        got = multihead_ema(None, ad.Tensor(x), state, one(11)).data
        want = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(np.full(d, alpha)),
                           ad.Tensor(np.zeros(d)), one(11)).data
        assert float(np.abs(got - want).max()) <= 1e-12
        ok = True
    finally:
        record_criterion(3, "EMA scan equals closed form; identity reductions",
                         ok)


def test_criterion_4_gate_identities():
    ok = False
    try:
        rng = np.random.default_rng(104)
        cfg = rhema.RhemaConfig(RunConfig(d_model=6, v_dim=8, n_ema_head=2,
                                          rel_bias_window=3), 0)
        params = rhema.RhemaParams(cfg, rng)
        n = 5
        x = ad.Tensor(rng.standard_normal((n, 6)))
        x_other = ad.Tensor(rng.standard_normal((n, 6)))
        z = ad.Tensor(rng.standard_normal((n, 6)))
        o = ad.Tensor(rng.standard_normal((n, 8)))

        # update gate saturated to exactly 1: the output is the candidate
        # activation alone, independent of the skip input
        params.w_phi.data[:] = 0.0
        params.b_phi.data[:] = 1000.0
        y_full = rhema.gated_output(None, x, z, o, params, cfg)[0]
        y_swap = rhema.gated_output(None, x_other, z, o, params, cfg)[0]
        assert np.array_equal(y_full.data, y_swap.data)
        gamma = ad.sigmoid(None, ad.add(None, ad.matmul(None, z, params.w_gamma),
                                        params.b_gamma))
        inner = ad.add(None, ad.matmul(None, z, params.w_h),
                       ad.add(None,
                              ad.matmul(None, ad.mul(None, gamma, o), params.u_h),
                              params.b_h))
        # silu of inner: through the identity, the linear step is exact
        y_hat = ad.linear_silu(None, inner, ad.Tensor(np.eye(6)),
                               ad.Tensor(np.zeros(6)), cfg.silu_variant)
        assert np.array_equal(y_full.data, y_hat.data)

        # saturated to exactly 0: the input passes through untouched
        params.b_phi.data[:] = -1000.0
        y_skip = rhema.gated_output(None, x, z, o, params, cfg)[0]
        assert np.array_equal(y_skip.data, x.data)

        # plain residual mode is branch + input, nothing else
        d = 6
        x_res = ad.Tensor(rng.standard_normal((n, d)))
        f_out = ad.Tensor(rng.standard_normal((n, d)))
        branch = lambda _x: f_out
        off = residual.GateState(d, "off")
        y_off = residual.apply(None, x_res, branch, off)
        assert np.array_equal(y_off.data, f_out.data + x_res.data)

        # unit static weights collapse onto the plain mode bitwise
        static = residual.GateState(d, "static", alpha=1.0, beta=1.0)
        y_static = residual.apply(None, x_res, branch, static)
        assert np.array_equal(y_static.data, y_off.data)
        ok = True
    finally:
        record_criterion(4, "output-gate and residual-weight identities hold",
                         ok)


def test_criterion_5_nll_shift_invariance():
    ok = False
    try:
        rng = np.random.default_rng(105)
        worst_shift = 0.0
        worst_rowsum = 0.0
        for _ in range(30):
            emissions, params = random_crf(rng)
            n, c = emissions.shape
            gold = rng.integers(0, c, n)
            base = float(crf_mod.crf_nll(None, ad.Tensor(emissions), gold,
                                         params, one(n)).data)
            shifted = emissions + rng.standard_normal((n, 1))
            moved = float(crf_mod.crf_nll(None, ad.Tensor(shifted), gold,
                                          params, one(n)).data)
            worst_shift = max(worst_shift, abs(moved - base))
            tape = ad.Tape()
            e = ad.Tensor(emissions, requires_grad=True)
            grads = ad.backward(tape, crf_mod.crf_nll(tape, e, gold, params, one(n)))
            worst_rowsum = max(worst_rowsum,
                               float(np.abs(grads[e.id].sum(axis=1)).max()))
        assert worst_shift <= 1e-9, worst_shift
        assert worst_rowsum <= 1e-9, worst_rowsum
        ok = True
    finally:
        record_criterion(
            5, "per-position emission shifts leave the NLL unchanged", ok)


def test_criterion_6_overfit_capacity():
    ok = False
    try:
        t0 = time.perf_counter()
        corpus = synth_corpus(1, 64, 3)
        # validation aliases the training split so the logged F1 measures fit
        fit_corpus = Corpus(corpus.train, corpus.train, corpus.test)
        cfg = RunConfig(d_model=32, h_lstm=32, chunk_size=8, batch_size=16,
                        attn_fn="laplace", lr=2e-3, stop_f1=0.995,
                        patience=1000, max_epochs=300, seed=1)
        result = train(cfg, fit_corpus)
        elapsed = time.perf_counter() - t0
        assert not result.diverged
        assert len(result.history) <= 300
        assert result.best_f1 >= 0.99, result.best_f1
        assert len(corpus.test) == 64
        held_out = evaluate(result.model, corpus.test)
        assert held_out.f1 >= 0.80, held_out.f1
        assert elapsed < 300.0, elapsed
        ok = True
    finally:
        record_criterion(
            6, "overfits the synthetic corpus and holds up out of sample", ok)


def test_criterion_7_ablation_matrix():
    ok = False
    try:
        corpus = synth_corpus(3, 16, 2)
        cfg = RunConfig(d_model=16, chunk_size=4, rel_bias_window=4, h_lstm=8,
                        batch_size=8, max_epochs=12, lr=5e-3, seed=5,
                        attn_fn="softmax")
        rows = ablate(cfg, corpus, {"attention_mode": ("hema", "naive"),
                                    "reduced_bias": ("off", "dynamic")})
        assert len(rows) == 4
        combos = {(r["switches"]["attention_mode"], r["switches"]["reduced_bias"])
                  for r in rows}
        assert combos == {("hema", "off"), ("hema", "dynamic"),
                          ("naive", "off"), ("naive", "dynamic")}
        swept = ("attention_mode", "reduced_bias")
        shared = {k: v for k, v in rows[0]["config"].items() if k not in swept}
        for row in rows:
            assert row["config"]["seed"] == 5
            assert 0.0 <= row["F1"] <= 1.0
            assert row["epochs"] <= 12
            assert {k: v for k, v in row["config"].items()
                    if k not in swept} == shared
            names = row["param_names"]
            has_gates = any(n.endswith("rb.w_alpha") for n in names)
            assert has_gates == (row["switches"]["reduced_bias"] == "dynamic")
            has_stages = (any(".local." in n for n in names)
                          and any(".global." in n for n in names))
            assert has_stages == (row["switches"]["attention_mode"] == "hema")

        lines = ablation_table(rows)
        assert len(lines) == 6
        assert lines[0].split() == ["attention_mode", "reduced_bias",
                                    "P", "R", "F1"]
        for row, line in zip(rows, lines[2:]):
            fields = line.split()
            assert fields[0] == row["switches"]["attention_mode"]
            assert fields[1] == row["switches"]["reduced_bias"]
            got = [float(f) for f in fields[2:]]
            assert got == pytest.approx([row["P"], row["R"], row["F1"]],
                                        abs=5e-5)
        ranked = sorted(rows, key=lambda r: -r["F1"])
        print("ablation F1 ordering: " + " >= ".join(
            f"{r['switches']['attention_mode']}/{r['switches']['reduced_bias']}"
            f"({r['F1']:.4f})"
            for r in ranked))
        ok = True
    finally:
        record_criterion(7, "four-row ablation completes; score table emitted",
                         ok)


# split sizes and length statistics of the three standard CNER benchmarks
BENCHMARK_STATS = {
    "msra": {"classes": 3, "train": 46364, "dev": 4365, "test": 4365,
             "avg_len": 46.80, "max_len": 581, "min_len": 5},
    "weibo": {"classes": 8, "train": 1350, "dev": 269, "test": 270,
              "avg_len": 54.61, "max_len": 175, "min_len": 7},
    "resume": {"classes": 8, "train": 3821, "dev": 463, "test": 477,
               "avg_len": 32.47, "max_len": 178, "min_len": 3},
}


def _find_split_file(root, stems):
    for stem in stems:
        for ext in ("", ".txt", ".conll", ".bio", ".bmes", ".char.bmes",
                    ".ner"):
            p = os.path.join(root, stem + ext)
            if os.path.isfile(p):
                return p
    return None


def test_criterion_8_benchmark_corpus_stats(capsys):
    supplied = {}
    for name in BENCHMARK_STATS:
        root = os.environ.get(f"HREB_{name.upper()}_DIR")
        if root:
            supplied[name] = root
    if not supplied:
        record_criterion(
            8, "benchmark corpus statistics (no corpora supplied)", None)
        pytest.skip("set HREB_MSRA_DIR / HREB_WEIBO_DIR / HREB_RESUME_DIR to "
                    "directories with train/dev/test files to enable")
    ok = False
    try:
        for name, root in sorted(supplied.items()):
            train_p = _find_split_file(root, ("train",))
            dev_p = _find_split_file(root, ("dev", "valid"))
            test_p = _find_split_file(root, ("test",))
            assert train_p and dev_p and test_p, \
                f"{name}: no train/dev/test files under {root}"
            rc = cli.main(["stats", "--corpus", train_p, dev_p, test_p])
            assert rc == 0
            got = {}
            for line in capsys.readouterr().out.strip().splitlines():
                key, value = line.split()
                got[key] = float(value) if key == "avg_len" else int(value)
            want = BENCHMARK_STATS[name]
            for key in ("classes", "train", "dev", "test", "max_len",
                        "min_len"):
                assert got[key] == want[key], (name, key, got[key], want[key])
            assert abs(got["avg_len"] - want["avg_len"]) <= 0.01, \
                (name, got["avg_len"])
        ok = True
    finally:
        record_criterion(
            8,
            "benchmark corpus statistics (" + ", ".join(sorted(supplied)) + ")",
            ok)


def test_criterion_9_determinism_and_roundtrip(tmp_path):
    ok = False
    try:
        corpus = synth_corpus(7, 12, 2)
        base = dict(d_model=8, chunk_size=2, rel_bias_window=4, h_lstm=4,
                    batch_size=4, max_epochs=3, lr=1e-3, seed=9,
                    attn_fn="softmax")
        first = train(RunConfig(**base), corpus)
        second = train(RunConfig(**base), corpus)
        assert len(first.lines) == 3
        assert first.lines == second.lines

        model = first.model
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model.config, model.vocab, snapshot(model))
        loaded, _ = load_model(path)
        for sent in corpus.test:
            ids = model.vocab.encode_tokens(sent.tokens)
            assert np.array_equal(model.emissions(None, ids).data,
                                  loaded.emissions(None, ids).data)
            assert np.array_equal(model.decode(ids), loaded.decode(ids))
        ok = True
    finally:
        record_criterion(
            9, "seeded reruns and checkpoint round-trips are bit-identical",
            ok)

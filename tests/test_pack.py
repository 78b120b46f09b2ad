"""Packed batches: the layout, and a pack against separate per-sentence tapes.

A pack runs B sentences as one sequence of rows on one tape. Each
sentence's loss, the parameter gradients and the dynamic-gate caches must
equal those of per-sentence tapes, and no sentence may see another.
"""

import ast
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import residual, rhema, training
from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.errors import DegenerateRowError
from hreb.model import HrebModel, pack_ids
from hreb.pack import Pack, length_buckets, one

CONFIGS = {
    "default": {},
    "naive": {"attention_mode": "naive"},
    "batch_norm_fidelity": {"batch_norm_fidelity": True},
    "token_head": {"loss_head": "token"},
    "strict": {"strict_transitions": True},
    "rb_off": {"reduced_bias": "off"},
    "rb_static": {"reduced_bias": "static", "rb_alpha": 0.7, "rb_beta": 1.2},
    "rb_dynamic": {"reduced_bias": "dynamic"},
}
# one token, below chunk_size (8), ragged, and 26 (the longest train_short
# sentence: four chunks and a ragged one)
LENGTHS = {"one": [1], "below_chunk": [5, 3], "ragged": [7, 1, 12, 9],
           "long": [26, 4, 26]}
# the global band in three length buckets, [64, 33], [9] and [2]
SKEWED = [64, 2, 9, 33]


def assert_rel(got, want, what, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    err = np.abs(got - want).max(initial=0.0)
    assert err <= tol * max(1.0, np.abs(want).max(initial=0.0)), f"{what}: {err:.3g}"


def small_model(**kw):
    corpus = synth_corpus(2, n_sentences=16, entity_types=2)
    vocab = Vocab.from_corpus(corpus)
    cfg = RunConfig(d_model=16, n_ema_head=4, h_lstm=8, rel_bias_window=6,
                    seed=3, **kw)
    model = HrebModel(cfg, vocab)
    rng = np.random.default_rng(5)
    # off the zero-gradient fixed point: nonzero caches, gates and CRF
    for gs in model.gate_states():
        gs.cache_f = rng.normal(0.0, 0.1, gs.cache_f.shape)
        gs.cache_x = rng.normal(0.0, 0.1, gs.cache_x.shape)
        for p in gs.params():
            p.data = rng.normal(0.0, 0.3, p.data.shape)
    if kw.get("loss_head") == "token":
        return model, corpus  # the token head's transitions stay at zero
    crf = model.crf.trans.data
    c = model.vocab.n_classes
    crf[:c, :c] = rng.normal(0.0, 0.5, (c, c))
    crf[c, :c] = rng.normal(0.0, 0.5, c)
    crf[:c, c + 1] = rng.normal(0.0, 0.5, c)
    return model, corpus


def sentences(model, corpus, lengths, seed=0):
    """(ids, tag ids) windows of the given lengths from the corpus stream."""
    rng = np.random.default_rng(seed)
    toks = [t for s in corpus.train for t in s.tokens]
    tags = [t for s in corpus.train for t in s.tags]
    out = []
    for n in lengths:
        at = int(rng.integers(0, len(toks) - n))
        tag = tags[at:at + n]
        if tag[0].startswith("I-"):
            tag[0] = "B-" + tag[0][2:]
        out.append((model.vocab.encode_tokens(toks[at:at + n]), model.vocab.encode_tags(tag)))
    return out


def grads_of(model, tape, loss):
    grads = ad.backward(tape, loss)
    return [grads.get(p.id, np.zeros_like(p.data)) for p in model.params()]


def caches_after_commit(model, build):
    """Each gate's (cache_f, cache_x) after one commit of the tape whose
    loss build(tape) returns; the model's caches are left as they were."""
    states = model.gate_states()
    saved = [(gs.cache_f, gs.cache_x) for gs in states]
    tape = ad.Tape()
    loss = build(tape)
    grads = ad.backward(tape, loss, keep=residual.pending_ids(tape))
    residual.commit_gate_caches(tape, grads, 0.9)
    out = [(gs.cache_f, gs.cache_x) for gs in states]
    for gs, (f, x) in zip(states, saved):
        gs.cache_f, gs.cache_x = f, x
    return out


@pytest.mark.parametrize("lengths", LENGTHS.values(), ids=LENGTHS.keys())
@pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
def test_pack_equals_separate_sentence_tapes(kw, lengths):
    model, corpus = small_model(**kw)
    batch = sentences(model, corpus, lengths)
    ids, tags = [i for i, _ in batch], [t for _, t in batch]
    tape = ad.Tape()
    nlls = model.sentence_nll(tape, ids, tags)
    assert nlls.data.shape == (len(batch),)
    grads = grads_of(model, tape, ad.sum_all(tape, nlls))

    want = [np.zeros_like(p.data) for p in model.params()]
    for b, (i, t) in enumerate(batch):
        tape = ad.Tape()
        nll = model.sentence_nll(tape, i, t)
        assert_rel(nlls.data[b], nll.data, f"sentence {b} nll")
        want = [w + g for w, g in zip(want, grads_of(model, tape, nll))]
    for p, g, w in zip(model.params(), grads, want):
        assert_rel(g, w, p.name)

    # the caches fold in every row of the batch once, as they did when each
    # sentence ran its own forward pass on the step's tape
    def one_pass_each(tape):
        total = ad.Tensor(0.0)
        for i, t in batch:
            total = ad.add(tape, total, model.sentence_nll(tape, i, t))
        return total
    packed = caches_after_commit(
        model, lambda tape: ad.sum_all(tape, model.sentence_nll(tape, ids, tags)))
    for (f, x), (wf, wx) in zip(packed, caches_after_commit(model, one_pass_each)):
        assert_rel(f, wf, "cache_f")
        assert_rel(x, wx, "cache_x")


@pytest.mark.parametrize("kw", [
    pytest.param(kw, marks=pytest.mark.xfail(
        raises=DegenerateRowError, strict=True,
        reason="the 64-token sentence alone has a reduced_laplace row that sums "
               "below zero under batch_norm_fidelity (ROADMAP item 1)"))
    if name == "batch_norm_fidelity" else kw
    for name, kw in CONFIGS.items()], ids=CONFIGS.keys())
def test_a_skewed_pack_equals_separate_sentence_tapes(kw):
    test_pack_equals_separate_sentence_tapes(kw, SKEWED)


@pytest.mark.parametrize("kw", CONFIGS.values(), ids=CONFIGS.keys())
def test_a_sentence_is_blind_to_the_rest_of_its_pack(kw):
    model, corpus = small_model(**kw)
    lengths = [9, 1, 26, 4]
    batch = sentences(model, corpus, lengths)
    other = sentences(model, corpus, lengths, seed=7)
    ids = [i for i, _ in batch]
    tags = [t for _, t in batch]
    base_e = model.emissions(None, ids).data
    base_nll = model.sentence_nll(None, ids, tags).data
    ids[2], tags[2] = other[2]
    assert not np.array_equal(ids[2], batch[2][0])
    e = model.emissions(None, ids).data
    nll = model.sentence_nll(None, ids, tags).data
    rest = np.r_[0:10, 36:40]
    assert np.array_equal(e[rest], base_e[rest])
    assert np.array_equal(nll[[0, 1, 3]], base_nll[[0, 1, 3]])
    assert nll[2] != base_nll[2]


def test_a_pack_of_one_runs_todays_arrays():
    model, corpus = small_model()
    (ids, tags), = sentences(model, corpus, [11])
    single = model.sentence_nll(None, ids, tags)
    assert single.data.shape == ()
    packed = model.sentence_nll(None, [ids], [tags])
    assert packed.data.shape == (1,)
    assert_rel(packed.data[0], single.data, "nll")
    assert np.array_equal(model.decode([ids])[0], model.decode(ids))


def test_a_pack_records_as_many_ops_as_one_sentence():
    # ops run once per pack, not once per sentence
    model, corpus = small_model()
    batch = sentences(model, corpus, [6, 1, 14, 26, 9])
    counts = []
    for group in (batch[:1], batch):
        tape = ad.Tape()
        model.sentence_nll(tape, [i for i, _ in group], [t for _, t in group])
        counts.append(len(tape.records))
    assert counts[0] == counts[1] <= 100, counts


def test_the_token_head_records_the_crf_heads_ops():
    model, corpus = small_model(loss_head="token")
    batch = sentences(model, corpus, [6, 1, 14])
    ids, tags = [i for i, _ in batch], [t for _, t in batch]
    forward, loss = ad.Tape(), ad.Tape()
    model.emissions(forward, ids)
    model.sentence_nll(loss, ids, tags)
    assert [r[0] for r in loss.records] == [r[0] for r in forward.records] + [
        "crf_log_z", "crf_path_score", "sub"]


@pytest.mark.parametrize("kw, labels", [({}, ["local", "global"]),
                                        ({"attention_mode": "naive"}, ["naive"])],
                         ids=["hema", "naive"])
def test_a_tracing_tape_needs_one_id_sequence(kw, labels):
    model, corpus = small_model(**kw)
    (a, _), (b, _) = sentences(model, corpus, [4, 6])
    with pytest.raises(ValueError,
                       match="^attention traces need one id sequence, not a list$"):
        model.emissions(ad.Tape(record=False, traces=[]), [a, b])
    # one sequence is traced, once per attention block
    tape = ad.Tape(record=False, traces=[])
    assert np.array_equal(model.decode(a, tape), model.decode(a))
    assert [t.label for t in tape.traces] == labels
    assert all(t.weights.shape == (4, 4) for t in tape.traces)


def test_evaluate_in_packs_matches_one_decode_per_sentence():
    model, corpus = small_model(batch_size=3)
    paths = model.decode([model.vocab.encode_tokens(s.tokens) for s in corpus.dev])
    for s, path in zip(corpus.dev, paths):
        assert np.array_equal(path, model.decode(model.vocab.encode_tokens(s.tokens)))
    report = training.evaluate(model, corpus.dev)
    model.config.batch_size = 1
    assert training.evaluate(model, corpus.dev).lines() == report.lines()


def test_pack_layout_roundtrips():
    pack = Pack([3, 1, 5])
    a = np.arange(9.0 * 2).reshape(9, 2)
    steps = pack.padded(a)
    assert steps.shape == (5, 3, 2)
    assert np.array_equal(steps[:3, 0], a[:3]) and np.array_equal(steps[0, 1], a[3])
    assert not steps[1:, 1].any() and not steps[3:, 0].any()
    back = pack.padded(a, reverse=True)
    assert np.array_equal(back[:3, 0], a[2::-1]) and np.array_equal(back[:5, 2], a[8:3:-1])
    for rev in (False, True):
        assert np.array_equal(pack.unpadded(pack.padded(a, rev), rev), a)
    for m in (1, 2, 3, 5):
        band = pack.band(m)
        [c] = band.chunks(a)
        # identity chunks map the chunks back to their rows
        eye = np.broadcast_to(np.eye(m), (c.shape[0], m, m))
        assert np.array_equal(band.row_product([eye], [c]), a)
        # every chunk holds rows of one sentence only
        [sent] = band.chunks(pack.sentence[:, None] + 1.0)
        assert all(len(set(row[row > 0])) <= 1 for row in sent[..., 0])
    assert pack.band(5).mask[:3].sum(1).tolist() == [3, 3, 3]
    assert np.array_equal(pack.sums(a), [a[:3].sum(0), a[3], a[4:].sum(0)])
    assert np.array_equal(pack.per_row(np.arange(3)), pack.sentence)
    assert list(pack.spans()) == [(0, 3), (3, 1), (4, 5)]
    with pytest.raises(ValueError, match="non-empty"):
        Pack([2, 0])
    ids, single = pack_ids([4, 2, 7])
    assert single.shape == () and single.n == 3


def test_a_pack_of_one_steps_through_views_of_its_rows():
    # one sentence's time steps are its rows: no gather, no scatter
    single = Pack(9)
    a = np.arange(9.0 * 2).reshape(9, 2)
    for rev in (False, True):
        steps = single.padded(a, rev)
        assert steps.shape == (9, 1, 2) and np.shares_memory(steps, a)
        assert np.array_equal(steps[:, 0], a[::-1] if rev else a)
        back = single.unpadded(steps, rev)
        assert np.shares_memory(back, a) and np.array_equal(back, a)


def test_pack_key_mask_matches_each_sentence_alone():
    # a sentence shorter than the band sees its own keys, then masked ones
    pack = Pack([5, 1, 8, 3])
    assert Pack(5).band_keys(2).tolist() == [[0, 1], [0, 1], [2, 3], [2, 3],
                                             [4, 5]]
    for m in (2, 3, 8):
        got = pack.band(m).mask
        keys = pack.band_keys(m)
        assert np.array_equal(got, keys < pack.per_row(pack.lengths)[:, None])
        for start, n in pack.spans():
            # each sentence's band keys are its own, counted from its start
            assert np.array_equal(keys[start:start + n], Pack(n).band_keys(m))
            w = min(m, n)
            alone = Pack(n).band(w).mask
            rows = got[start:start + n]
            assert np.array_equal(rows[:, :w], np.ones((n, w), bool)
                                  if alone is None else alone)
            assert not rows[:, w:].any()


def degenerate_inputs(lengths, bad):
    """q, k, v whose reduced_laplace weights have a negative row sum in
    sentence `bad` only."""
    cfg = rhema.RhemaConfig(RunConfig(d_model=4, n_ema_head=2, rel_bias_window=3,
                                      reduced_bias="off"), 0)
    params = rhema.RhemaParams(cfg, np.random.default_rng(0))
    n = sum(lengths)
    pack = Pack(lengths) if len(lengths) > 1 else one(n)
    q = np.zeros((n, 4))
    start = sum(lengths[:bad])
    q[start + 1:start + lengths[bad]] = -10.0
    return [ad.Tensor(a) for a in (q, np.ones((n, 4)), np.ones((n, 8)))], params, cfg, pack


def test_degenerate_row_names_its_sentence_in_a_pack():
    (q, k, v), params, cfg, pack = degenerate_inputs([2, 3, 4], bad=1)
    with pytest.raises(DegenerateRowError, match=r"^row 1 of sentence 1 sums to -"):
        rhema.attention(None, q, k, v, params, cfg, pack=pack)
    # a pack of one keeps the plain row number
    (q, k, v), params, cfg, pack = degenerate_inputs([3], bad=0)
    with pytest.raises(DegenerateRowError, match=r"^row 1 sums to -"):
        rhema.attention(None, q, k, v, params, cfg, pack=pack)
    with pytest.raises(DegenerateRowError, match=r"^row 1 sums to -"):
        rhema.attention(None, q, k, v, params, cfg, pack=Pack([3]))


def test_length_buckets_pad_no_sentence_to_twice_its_length():
    assert length_buckets(np.array([64, 2, 9, 33])) == [[0, 3], [2], [1]]
    assert length_buckets(np.array([17, 34, 68, 136])) == [[3], [2], [1], [0]]
    assert length_buckets(np.array([5, 3])) == [[0, 1]]
    assert length_buckets(np.array([256, 256])) == [[0, 1]]
    rng = np.random.default_rng(3)
    for _ in range(50):
        lengths = rng.integers(1, 40, rng.integers(1, 17))
        groups = length_buckets(lengths)
        assert sorted(b for g in groups for b in g) == list(range(lengths.size))
        tops = [lengths[g].max() for g in groups]
        assert tops == sorted(tops, reverse=True)
        for g, top in zip(groups, tops):
            assert g == sorted(g) and (2 * lengths[g] > top).all()


def test_a_packs_global_band_holds_each_sentences_band_alone():
    # each bucket's band rows are its sentences' rows in pack order, each
    # as wide as the bucket's longest sentence; the rows of a sentence are
    # those of its band alone, then masked keys
    pack = Pack([64, 2, 9, 33])
    band = pack.band(None)
    assert [(bk.m, bk.n) for bk in band.buckets] == [(64, 97), (9, 9), (2, 2)]
    assert band.shape == (97 * 64 + 9 * 9 + 2 * 2,)
    assert band.rows.tolist() == list(range(64)) + list(range(75, 108)) + \
        list(range(66, 75)) + [64, 65]
    n = pack.n
    rng = np.random.default_rng(4)
    q, k = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    scores = band.band_product(band.chunks(q), band.chunks(k))
    for bk, s, live in zip(band.buckets, band.views(scores), band.views(band.mask)):
        rows = band.rows[bk.rows]
        for sent in np.unique(pack.sentence[rows]):
            a, m = int(pack.starts[sent]), int(pack.lengths[sent])
            mine = np.isin(rows, np.arange(a, a + m))
            assert np.allclose(s[mine][:, :m], q[a:a + m] @ k[a:a + m].T)
            assert live[mine][:, :m].all() and not live[mine][:, m:].any()


@pytest.mark.parametrize("lengths, width", [([64, 2, 9, 33], None), ([5, 3], None),
                                            ([5, 1, 8, 3], 2), (7, None)])
def test_a_band_outlives_its_pack_without_a_cycle(lengths, width):
    # the pack keeps its band; a band that kept its pack would make a
    # cycle, and the pack's arrays would wait for the cycle collector
    pack = Pack(lengths)
    band = pack.band(width)
    ref = weakref.ref(pack)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del pack
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert band.reduce_rows(np.add, np.ones(band.shape)).shape == (np.sum(lengths), 1)


def attention_and_grads(lengths, width):
    """band_attention's out, scores, weights and six gradients over a
    pack of lengths."""
    rng = np.random.default_rng(5)
    n = sum(lengths)
    ins = [ad.Tensor(rng.uniform(-0.2, 0.2, (n, 4)), requires_grad=True)] + \
        [ad.Tensor(rng.uniform(-1.0, 1.0, (n, d)), requires_grad=True) for d in (4, 6)] + \
        [ad.Tensor(rng.uniform(0.5, 1.0, 7), requires_grad=True)] + \
        [ad.Tensor(np.float64(x), requires_grad=True) for x in (0.3, -0.8)]
    tape = ad.Tape()
    out, scores, weights = ad.band_attention(tape, *ins, 0.5, width, "reduced_laplace",
                                             Pack(lengths))
    grads = ad.backward(tape, ad.sum_all(tape, ad.mul(
        tape, out, ad.Tensor(rng.standard_normal((n, 6))))))
    return [out.data, scores, weights] + [grads[t.id] for t in ins]


def test_a_one_bucket_global_band_is_the_band_of_a_width():
    # Pack([5, 3]) is one length bucket, so its global band is the band
    # of any width at or past its longest sentence
    pack = Pack([5, 3])
    wide, glob = pack.band(8), pack.band(None)
    assert wide is not glob and wide.shape == glob.shape == (8, 5)
    assert np.array_equal(wide.mask, glob.mask)
    assert np.array_equal(wide.bias_index(3), glob.bias_index(3))
    a = np.arange(16.0).reshape(8, 2)
    for x, y in zip(wide.chunks(a), glob.chunks(a)):
        assert np.array_equal(x, y)
    for x, y in zip(attention_and_grads([5, 3], 8), attention_and_grads([5, 3], None)):
        assert x.tobytes() == y.tobytes()


def global_attention_peak(lengths):
    """The tracemalloc peak (bytes) of one reduced_laplace global
    band_attention, forward and backward, over a pack of lengths."""
    rng = np.random.default_rng(0)
    n, d = sum(lengths), 16
    q = ad.Tensor(rng.uniform(-0.2, 0.2, (n, d)), requires_grad=True)
    k, v = (ad.Tensor(rng.uniform(-1.0, 1.0, (n, d)), requires_grad=True)
            for _ in range(2))
    bias = ad.Tensor(rng.uniform(0.5, 1.0, 33), requires_grad=True)
    mu, sigma = (ad.Tensor(np.float64(x), requires_grad=True) for x in (0.3, -0.8))
    tracemalloc.start()
    try:
        tape = ad.Tape()
        out, _, _ = ad.band_attention(tape, q, k, v, bias, mu, sigma, 0.1, None,
                                      "reduced_laplace", Pack(lengths))
        ad.backward(tape, ad.sum_all(tape, out))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_short_sentences_beside_a_long_one_add_little_to_the_global_peak():
    # one (256, 256) band and a (120, 8) one: padding the 8-token sentences
    # to 256 tokens would multiply the (256, 256) chunk products by 16
    alone = global_attention_peak([256])
    skewed = global_attention_peak([256] + [8] * 15)
    assert skewed <= 1.25 * alone, (skewed, alone)


def test_degenerate_row_names_the_first_bad_row_in_pack_order():
    # buckets [9, 8], [3, 4] and [2]: sentence 3 is in the second bucket,
    # second within it
    lengths = [9, 3, 8, 4, 2]
    assert length_buckets(np.array(lengths)) == [[0, 2], [1, 3], [4]]
    (q, k, v), params, cfg, pack = degenerate_inputs(lengths, bad=3)
    with pytest.raises(DegenerateRowError, match=r"^row 1 of sentence 3 sums to -"):
        rhema.attention(None, q, k, v, params, cfg, pack=pack)
    # bad rows in two buckets: sentence 2's bucket comes first in the band,
    # sentence 1 first in the pack
    (q2, _, _), *_ = degenerate_inputs(lengths, bad=2)
    (q1, _, _), *_ = degenerate_inputs(lengths, bad=1)
    both = ad.Tensor(np.minimum(q1.data, q2.data))
    with pytest.raises(DegenerateRowError, match=r"^row 1 of sentence 1 sums to -"):
        rhema.attention(None, both, k, v, params, cfg, pack=pack)


RAGGED = [5, 17, 9, 40]


def crf_op_inputs(rng, n, c=4):
    """Emissions, a (c+2, c+2) transition table and a tag path of n rows."""
    trans = rng.standard_normal((c + 2, c + 2))
    return (ad.Tensor(rng.standard_normal((n, c)), requires_grad=True),
            ad.Tensor(trans, requires_grad=True), rng.integers(0, c, n))


def test_a_packs_sums_have_the_bits_of_each_sentence_alone():
    # a sentence's statistics, summed rows and path score come out the
    # same to the last bit whichever pack it runs in
    rng = np.random.default_rng(13)
    pack, n = Pack(RAGGED), sum(RAGGED)
    spans = list(pack.spans())
    x = rng.standard_normal((n, 16)) * 3 + 1
    gain, bias = ad.Tensor(rng.standard_normal(16)), ad.Tensor(rng.standard_normal(16))
    g = rng.standard_normal((n, 16))

    def norm(rows, grad, p):
        """feature_norm's output and its input gradient under grad."""
        tape = ad.Tape()
        out = ad.feature_norm(tape, ad.Tensor(rows, requires_grad=True), gain, bias, p)
        return out.data, tape.records[-1][3](grad)[0]

    out, dx = norm(x, g, pack)
    for a, m in spans:
        alone, dx_alone = norm(x[a:a + m], g[a:a + m], one(m))
        assert np.array_equal(out[a:a + m], alone)
        assert np.array_equal(dx[a:a + m], dx_alone)

    for width in (3, 1):
        rows = rng.standard_normal((n, width))
        sums = pack.sums(rows)
        assert sums.shape == (pack.b, width)
        for b, (a, m) in enumerate(spans):
            assert np.array_equal(sums[b], one(m).sums(rows[a:a + m])[0])

    e, trans, path = crf_op_inputs(rng, n)
    scores = ad.crf_path_score(None, e, trans, path, 4, pack=pack).data
    for b, (a, m) in enumerate(spans):
        alone = ad.crf_path_score(None, ad.Tensor(e.data[a:a + m]), trans,
                                  path[a:a + m], 4, pack=one(m))
        assert scores[b] == alone.data


@pytest.mark.parametrize("op", ["crf_log_z", "crf_path_score"])
def test_pack_of_n_is_pack_of_n_listed_with_0d_results(op):
    rng = np.random.default_rng(14)
    n, c = 11, 4
    e, trans, path = crf_op_inputs(rng, n, c)
    run = {
        "crf_log_z": lambda tape, p: ad.crf_log_z(tape, e, trans, c, pack=p),
        "crf_path_score": lambda tape, p: ad.crf_path_score(tape, e, trans, path, c,
                                                            pack=p),
    }[op]
    results, grads = [], []
    for pack in (Pack(n), Pack([n])):
        tape = ad.Tape()
        out = run(tape, pack)
        results.append(out.data)
        # the 0-d result takes a 0-d upstream gradient
        loss = out if out.data.shape == () else ad.sum_all(tape, out)
        got = ad.backward(tape, ad.scale(tape, loss, 0.7))
        grads.append([got.get(t.id) for t in (e, trans)])
    assert results[0].shape == () and results[1].shape == (1,)
    assert results[0] == results[1][0]
    for single, listed in zip(*grads):
        assert (single is None) == (listed is None)
        assert single is None or np.array_equal(single, listed)
    if op == "crf_path_score":
        # the one op whose pack may be left out runs Pack(n) without one
        assert np.array_equal(run(None, None).data, results[0])


def test_only_crf_path_score_lets_its_pack_be_left_out():
    # Every op that mixes positions, and every function that passes a pack
    # on, is told its sentences: one sentence is one(n). crf_path_score
    # keeps a default for callers that score a path positionally.
    defaulted = []
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            with_default = pos[len(pos) - len(a.defaults):] + [
                k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if any(p.arg == "pack" for p in with_default):
                defaulted.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert defaulted == ["autodiff.crf_path_score"]

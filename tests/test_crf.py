"""CRF scoring, decoding, strict transitions, and the ablation losses."""

import math

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import crf
from hreb import oracles, verify
from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.errors import NumericsError
from hreb.model import HrebModel
from hreb.pack import one


def split_trans(params):
    t = params.trans.data
    if params.strict_mask is not None:
        t = t + params.strict_mask
    c = params.n_classes
    return t[:c, :c], t[c, :c], t[:c, c + 1]


def random_params(rng, c):
    p = crf.CrfParams(c)
    block = rng.standard_normal((c + 2, c + 2))
    live = np.isfinite(p.trans.data)
    p.trans.data[live] = block[live]
    return p


def test_transition_storage_boundaries():
    p = crf.CrfParams(3)
    d = p.trans.data
    assert d.shape == (5, 5)
    assert np.all(np.isneginf(d[:, p.start]))  # nothing re-enters start
    assert np.all(np.isneginf(d[p.stop, :]))  # nothing leaves stop
    live = np.ones((5, 5), dtype=bool)
    live[:, p.start] = False
    live[p.stop, :] = False
    assert np.all(d[live] == 0.0)
    assert p.params() == [p.trans]


def test_strict_mask_structure():
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    m = crf.build_strict_mask(tags)
    ia, ib = tags.index("I-A"), tags.index("I-B")
    # I-A reachable only from B-A / I-A
    for i, prev in enumerate(tags):
        want_blocked = prev not in ("B-A", "I-A")
        assert np.isneginf(m[i, ia]) == want_blocked
    assert np.isneginf(m[len(tags), ia])  # start cannot open a continuation
    assert np.isneginf(m[0, ib])
    # non-continuation columns are untouched
    for j, tag in enumerate(tags):
        if not tag.startswith("I-"):
            assert np.all(m[:, j] == 0.0)


def test_strict_needs_tag_names():
    with pytest.raises(ValueError):
        crf.CrfParams(3, strict=True)


def test_uniform_potentials_give_log_path_count():
    # 2 classes, 3 steps, all-zero scores: Z = 2^3
    p = crf.CrfParams(2)
    emissions = ad.Tensor(np.zeros((3, 2)))
    lz = crf.log_partition(None, emissions, p, one(3))
    assert abs(float(lz.data) - math.log(8)) < 1e-12


def test_log_partition_and_viterbi_match_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(40):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        p = random_params(rng, c)
        emissions = rng.standard_normal((n, c))
        core, start, stop = split_trans(p)
        want_lz, want_path, want_score = oracles.crf_enumerate(
            emissions, core, start, stop)
        lz = crf.log_partition(None, ad.Tensor(emissions), p, one(n))
        assert abs(float(lz.data) - want_lz) < 1e-8
        path, score = crf.viterbi(emissions, p)
        assert list(path) == list(want_path)
        assert abs(score - want_score) < 1e-8


def test_viterbi_breaks_total_tie_toward_lowest_indices():
    p = crf.CrfParams(3)
    path, score = crf.viterbi(np.zeros((4, 3)), p)
    assert list(path) == [0, 0, 0, 0]
    assert score == 0.0


def test_sequence_score_is_the_path_sum():
    rng = np.random.default_rng(1)
    c, n = 3, 4
    p = random_params(rng, c)
    emissions = rng.standard_normal((n, c))
    tags = rng.integers(0, c, n)
    core, start, stop = split_trans(p)
    want = start[tags[0]] + emissions[0, tags[0]]
    for t in range(1, n):
        want += core[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    want += stop[tags[-1]]
    got = crf.sequence_score(None, ad.Tensor(emissions), tags, p, one(n))
    assert abs(float(got.data) - want) < 1e-10


def test_nll_normalizes_over_all_paths():
    import itertools

    rng = np.random.default_rng(2)
    c, n = 2, 3
    p = random_params(rng, c)
    emissions = ad.Tensor(rng.standard_normal((n, c)))
    total = 0.0
    for tags in itertools.product(range(c), repeat=n):
        nll = crf.crf_nll(None, emissions, np.array(tags), p, one(n))
        assert float(nll.data) > 0.0
        total += math.exp(-float(nll.data))
    assert abs(total - 1.0) < 1e-10


def test_emission_row_shift_leaves_nll_unchanged():
    rng = np.random.default_rng(3)
    c, n = 3, 5
    p = random_params(rng, c)
    emissions = rng.standard_normal((n, c))
    tags = rng.integers(0, c, n)
    base = float(crf.crf_nll(None, ad.Tensor(emissions), tags, p, one(n)).data)
    shifted = emissions.copy()
    shifted[2] += 7.25  # same constant across every class at one position
    after = float(crf.crf_nll(None, ad.Tensor(shifted), tags, p, one(n)).data)
    assert abs(base - after) < 1e-9


def test_strict_decoding_never_emits_orphan_continuations():
    from hreb.data import decode_spans

    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    rng = np.random.default_rng(4)
    p = crf.CrfParams(len(tags), tags=tags, strict=True)
    live = np.isfinite(p.trans.data)
    p.trans.data[live] = rng.standard_normal(int(live.sum()))
    for _ in range(25):
        emissions = rng.standard_normal((int(rng.integers(1, 8)), len(tags))) * 3
        path, _ = crf.viterbi(emissions, p)
        decode_spans([tags[i] for i in path], mode="strict")  # must not raise


def test_strict_partition_drops_illegal_paths():
    tags = ["O", "B-A", "I-A"]
    rng = np.random.default_rng(5)
    strict = crf.CrfParams(len(tags), tags=tags, strict=True)
    emissions = rng.standard_normal((4, 3))
    core, start, stop = split_trans(strict)
    want_lz, _, _ = oracles.crf_enumerate(emissions, core, start, stop)
    lz = crf.log_partition(None, ad.Tensor(emissions), strict, one(4))
    assert abs(float(lz.data) - want_lz) < 1e-8
    # and the strict partition is strictly below the unrestricted one
    loose = crf.CrfParams(len(tags))
    lz_loose = crf.log_partition(None, ad.Tensor(emissions), loose, one(4))
    assert float(lz.data) < float(lz_loose.data)


def test_no_admissible_path_raises():
    p = crf.CrfParams(1, tags=["I-A"], strict=True)
    with pytest.raises(NumericsError):
        crf.viterbi(np.zeros((2, 1)), p)


def test_crf_gradients_match_finite_differences():
    from hreb.gradcheck import finite_diff_params

    rng = np.random.default_rng(6)
    c, n = 3, 4
    p = random_params(rng, c)
    tags = rng.integers(0, c, n)
    e = ad.Tensor(rng.standard_normal((n, c)), requires_grad=True, name="e")

    def build(tape):
        return crf.crf_nll(tape, e, tags, p, one(n))

    assert finite_diff_params(build, [e])["e"] < 1e-7


def token_head_batch():
    """A loss_head=token model and a ragged pack of three sentences:
    (model, ids, tag ids, the pack's emission rows, per-sentence spans)."""
    corpus = synth_corpus(0, n_sentences=24, entity_types=2)
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(RunConfig(d_model=8, n_ema_head=2, chunk_size=2,
                                rel_bias_window=4, h_lstm=4, seed=0,
                                loss_head="token"), vocab)
    # larger emissions than at init, so the softmax rows are far from uniform
    model.w_out.data = model.w_out.data * 8.0
    by_len = {len(s.tokens): s for s in corpus.train}
    batch = [by_len[n] for n in sorted(by_len)[-3:]]
    ids = [vocab.encode_tokens(s.tokens) for s in batch]
    tags = [vocab.encode_tags(s.tags) for s in batch]
    rows = model.emissions(None, ids).data
    ends = np.cumsum([len(i) for i in ids])
    return model, ids, tags, rows, list(zip(np.r_[0, ends[:-1]], ends))


def softmax_rows(rows):
    z = np.exp(rows - rows.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def test_the_token_head_loss_is_a_softmax_cross_entropy_per_row():
    model, ids, tags, rows, spans = token_head_batch()
    assert len({b - a for a, b in spans}) == 3
    assert "crf.trans" not in model.param_names()
    losses = model.sentence_nll(None, ids, tags).data
    gold = np.concatenate(tags)
    per_row = -np.log(softmax_rows(rows)[np.arange(len(gold)), gold])
    want = np.array([per_row[a:b].sum() for a, b in spans])
    assert np.abs(losses - want).max() <= 1e-12 * np.abs(want).max()


def test_the_token_head_gradient_is_softmax_minus_one_hot():
    model, ids, tags, rows, _ = token_head_batch()
    tape = ad.Tape()
    losses = model.sentence_nll(tape, ids, tags)
    e = next(r[1][0] for r in tape.records if r[0] == "crf_log_z")
    g = ad.backward(tape, ad.sum_all(tape, losses), keep=[e.id])[e.id]
    gold = np.concatenate(tags)
    want = softmax_rows(rows)
    want[np.arange(len(gold)), gold] -= 1.0
    assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


def test_the_token_head_decodes_each_rows_argmax():
    model, ids, _, rows, spans = token_head_batch()
    paths = model.decode(ids)
    for path, (a, b) in zip(paths, spans):
        assert np.array_equal(path, np.argmax(rows[a:b], axis=1))


def test_the_token_head_passes_the_full_model_gradient_check():
    worst, _ = verify.model_grad_check(loss_head="token")
    assert worst <= verify.GRAD_TOL


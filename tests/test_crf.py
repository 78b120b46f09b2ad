"""CRF scoring, decoding, strict transitions, and the ablation losses."""

import itertools
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
from hreb.pack import Pack, one


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
    live = np.zeros((5, 5), dtype=bool)
    for view in ad.split_transitions(live, 3):
        view[...] = True
    assert np.all(d[live] == 0.0)
    # the dead entries, row by row: the nine into start (column 3) or out of
    # stop (row 4) are -inf; start -> stop, which no path reads, is 0
    assert np.array_equal(d[~live], [-np.inf] * 4 + [0.0] + [-np.inf] * 5)
    assert p.params() == [p.trans]


def test_strict_mask_structure():
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    m = crf.build_strict_mask(tags)
    core, start, _ = ad.split_transitions(m, len(tags))
    ia, ib = tags.index("I-A"), tags.index("I-B")
    # I-A reachable only from B-A / I-A
    for i, prev in enumerate(tags):
        want_blocked = prev not in ("B-A", "I-A")
        assert np.isneginf(core[i, ia]) == want_blocked
    assert np.isneginf(start[ia])  # start cannot open a continuation
    assert np.isneginf(core[0, ib])
    # non-continuation columns are untouched
    for j, tag in enumerate(tags):
        if not tag.startswith("I-"):
            assert np.all(m[:, j] == 0.0)


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
        core, start, stop = ad.split_transitions(p.trans.data, c)
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
    core, start, stop = ad.split_transitions(p.trans.data, c)
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
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    rng = np.random.default_rng(4)
    p = crf.CrfParams(len(tags), strict_tags=tags)
    live = np.isfinite(p.trans.data)
    p.trans.data[live] = rng.standard_normal(int(live.sum()))
    for _ in range(25):
        emissions = rng.standard_normal((int(rng.integers(1, 8)), len(tags))) * 3
        path, _ = crf.viterbi(emissions, p)
        assert crf.forbidden_step(p, path) is None


def test_strict_partition_drops_illegal_paths():
    tags = ["O", "B-A", "I-A"]
    rng = np.random.default_rng(5)
    strict = crf.CrfParams(len(tags), strict_tags=tags)
    emissions = rng.standard_normal((4, 3))
    core, start, stop = ad.split_transitions(strict.trans.data, 3, strict.strict_mask)
    want_lz, _, _ = oracles.crf_enumerate(emissions, core, start, stop)
    lz = crf.log_partition(None, ad.Tensor(emissions), strict, one(4))
    assert abs(float(lz.data) - want_lz) < 1e-8
    # and the strict partition is strictly below the unrestricted one
    loose = crf.CrfParams(len(tags))
    lz_loose = crf.log_partition(None, ad.Tensor(emissions), loose, one(4))
    assert float(lz.data) < float(lz_loose.data)


def test_forbidden_step_flags_exactly_the_paths_the_strict_mask_scores_minus_inf():
    # the two statements of BIO legality, the refusal of a gold path and
    # the mask's -inf score, cannot drift apart
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    p = crf.CrfParams(len(tags), strict_tags=tags)

    def minus_inf(path):
        e = ad.Tensor(np.zeros((len(path), len(tags))))
        try:
            ad.crf_path_score(None, e, p.trans, path, p.n_classes, p.strict_mask)
        except NumericsError:
            return True
        return False

    flagged = 0
    for n in range(1, 5):
        for path in itertools.product(range(len(tags)), repeat=n):
            t = crf.forbidden_step(p, path)
            assert (t is not None) == minus_inf(path), path
            if t is not None:  # and t is the first forbidden step
                assert minus_inf(path[:t + 1])
                assert t == 0 or not minus_inf(path[:t])
                flagged += 1
    assert 0 < flagged < 5 + 5 ** 2 + 5 ** 3 + 5 ** 4


@pytest.mark.parametrize("strict", [False, True])
def test_crf_nll_moves_no_dead_or_masked_transition(strict):
    # so Adam, whose step is 0 where every gradient was, never moves them
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    rng = np.random.default_rng(7)
    p = crf.CrfParams(len(tags), strict_tags=tags if strict else None)
    live = np.isfinite(p.trans.data)
    p.trans.data[live] = rng.standard_normal(int(live.sum()))
    pack = Pack([3, 1, 4])
    gold = np.array([1, 2, 0, 3, 0, 3, 4, 4])  # BIO-legal in each sentence
    e = ad.Tensor(rng.standard_normal((pack.n, len(tags))), requires_grad=True)
    tape = ad.Tape()
    loss = ad.sum_all(tape, crf.crf_nll(tape, e, gold, p, pack))
    dt = ad.backward(tape, loss)[p.trans.id]
    read = np.zeros(dt.shape, dtype=bool)
    for view in ad.split_transitions(read, len(tags)):
        view[...] = True
    masked = np.isneginf(p.strict_mask) if strict else np.zeros_like(read)
    assert np.all(dt[~read] == 0.0)
    assert np.all(dt[masked] == 0.0)
    assert np.all(dt[read & ~masked] != 0.0)  # every entry a path takes moves


def test_no_admissible_path_raises():
    p = crf.CrfParams(1, strict_tags=["I-A"])
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


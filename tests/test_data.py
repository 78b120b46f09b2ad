"""Corpus I/O, span decoding, scoring, batching, and the synthetic data."""

import numpy as np
import pytest

from hreb import crf, data
from hreb.data import Corpus, Sentence, Vocab
from hreb.errors import ConfigError


def test_sentence_validates_aligned_lengths():
    with pytest.raises(ValueError):
        Sentence(["a", "b"], ["O"])
    s = Sentence(["a"], ["O"])
    assert len(s) == 1
    assert s == Sentence(["a"], ["O"])
    assert s != Sentence(["a"], ["B-X"])


def test_parse_conll_lines_and_blank_separation():
    lines = ["a O", "b B-X", "", "", "c I-X", "d O", ""]
    sents = data.parse_conll(lines)
    assert len(sents) == 2
    assert sents[0] == Sentence(["a", "b"], ["O", "B-X"])
    assert sents[1] == Sentence(["c", "d"], ["I-X", "O"])


def test_parse_conll_accepts_tabs_and_crlf():
    sents = data.parse_conll(["a\tO\r\n", "b\tB-X\r\n"])
    assert sents[0].tokens == ["a", "b"]


def test_parse_conll_errors_carry_line_numbers():
    with pytest.raises(ValueError) as e:
        data.parse_conll(["a O", "b O extra"])
    assert "line 2" in str(e.value)
    with pytest.raises(ValueError) as e:
        data.parse_conll(["   ", ""])
    assert "empty corpus" in str(e.value)


def test_parse_conll_refuses_a_tag_outside_its_scheme():
    lines = ["a S-X", "", "b B-X", "c E-X"]
    with pytest.raises(ValueError, match=r"line 1: tag 'S-X' is not a BIO tag"):
        data.parse_conll(lines)
    got = data.parse_conll(lines, bio=False)
    assert [s.tags for s in got] == [["S-X"], ["B-X", "E-X"]]
    for tag in ("PER", "B-", "1-X"):
        with pytest.raises(ValueError, match=f"line 2: tag '{tag}' is not O or an X"):
            data.parse_conll(["a O", f"b {tag}"], bio=False)


def test_conll_roundtrip(tmp_path):
    sents = [Sentence(["a", "b"], ["B-X", "I-X"]), Sentence(["c"], ["O"])]
    p = tmp_path / "c.txt"
    data.write_conll(p, sents)
    assert data.parse_conll(p) == sents


def test_vocab_ordering_and_reserved_ids():
    v = Vocab([Sentence(["b", "a", "b"], ["O", "B-X", "O"])])
    assert v.tokens == ["<pad>", "<unk>", "b", "a"]
    assert v.pad_id == 0 and v.unk_id == 1
    assert v.tags == ["O", "B-X"]
    assert v.n_classes == 2
    assert v.encode_tokens(["a", "zzz"]).tolist() == [3, 1]
    with pytest.raises(ConfigError):
        v.encode_tags(["B-Y"])


def test_vocab_from_corpus_collects_tags_from_every_split():
    corpus = Corpus([Sentence(["a"], ["O"])],
                    [Sentence(["b"], ["B-X"])],
                    [Sentence(["c"], ["I-X"])])
    v = Vocab.from_corpus(corpus)
    assert "b" not in v.token_to_id  # tokens come from train only
    assert v.tags == ["O", "B-X", "I-X"]


def test_decode_spans_maximal_runs():
    tags = ["O", "B-A", "I-A", "B-A", "O", "B-B"]
    assert data.decode_spans(tags) == [(1, 3, "A"), (3, 4, "A"), (5, 6, "B")]
    assert data.decode_spans(["B-A", "I-A", "I-A"]) == [(0, 3, "A")]
    assert data.decode_spans(["O", "O"]) == []


def test_decode_spans_type_change_splits_span():
    spans = data.decode_spans(["B-A", "I-B"])
    assert spans == [(0, 1, "A"), (1, 2, "B")]


def test_decode_spans_lenient_promotes_stray_continuation():
    assert data.decode_spans(["I-A", "I-A", "O"]) == [(0, 2, "A")]


def test_decode_spans_rejects_malformed_tags():
    with pytest.raises(ValueError):
        data.decode_spans(["B"])
    with pytest.raises(ValueError):
        data.decode_spans(["X-A"])


def test_span_prf_counts_exact_matches_only():
    gold = [[(0, 2, "A"), (3, 4, "B")], [(1, 2, "A")]]
    pred = [[(0, 2, "A"), (3, 5, "B")], []]
    rep = data.span_prf(gold, pred)
    assert rep.n_gold == 3 and rep.n_pred == 2 and rep.n_correct == 1
    assert rep.precision == pytest.approx(1 / 2)
    assert rep.recall == pytest.approx(1 / 3)
    assert rep.f1 == pytest.approx(2 * (1 / 2) * (1 / 3) / (1 / 2 + 1 / 3))
    assert rep.per_type["A"][3:] == (2, 1, 1)
    assert rep.per_type["B"][3:] == (1, 1, 0)


def test_span_prf_zero_denominators_score_zero():
    rep = data.span_prf([[]], [[]])
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    with pytest.raises(ValueError):
        data.span_prf([[], []], [[]])


def test_eval_report_lines_format():
    rep = data.span_prf([[(0, 1, "B"), (2, 3, "A")]], [[(0, 1, "B")]])
    lines = rep.lines()
    assert lines[0].startswith("micro P=1.0000 R=0.5000")
    assert "gold=2 pred=1 correct=1" in lines[0]
    # per-type lines sorted by type name
    assert lines[1].startswith("type A ")
    assert lines[2].startswith("type B ")


def test_corpus_stats_dedupes_aliased_splits():
    train = [Sentence(list("abc"), ["O", "B-X", "I-X"]),
             Sentence(list("a"), ["O"])]
    test = [Sentence(list("ab"), ["B-Y", "O"])]
    aliased = Corpus(train, test, test)  # dev IS test
    st = data.corpus_stats(aliased)
    assert st.n_classes == 2
    assert st.sizes == {"train": 2, "dev": 1, "test": 1}
    assert st.avg_len == round((3 + 1 + 2) / 3, 2)
    assert st.max_len == 3 and st.min_len == 1
    # same sentences as a distinct list: counted twice
    copied = Corpus(train, list(test), test)
    assert data.corpus_stats(copied).avg_len == round((3 + 1 + 2 + 2) / 4, 2)


def test_make_batches_shapes_and_padding():
    sents = [Sentence(list("ab"), ["O", "O"]),
             Sentence(list("abcd"), ["O", "O", "O", "O"]),
             Sentence(list("a"), ["O"])]
    v = Vocab(sents)
    batches = data.make_batches(sents, 2, seed=0, vocab=v)
    assert [len(b) for b in batches] == [2, 1]
    by_length = {len(s): s for s in sents}
    seen = []
    for b in batches:
        for ids, tags in b:
            assert len(ids) == len(tags)
            s = by_length[len(ids)]
            assert list(ids) == list(v.encode_tokens(s.tokens))
            assert list(tags) == list(v.encode_tags(s.tags))
            assert v.pad_id not in ids
            seen.append(len(ids))
    assert sorted(seen) == [1, 2, 4]


def test_make_batches_seeded_shuffle_is_reproducible():
    sents = [Sentence([c], ["O"]) for c in "abcdefgh"]
    v = Vocab(sents)
    a = data.make_batches(sents, 3, seed=5, vocab=v)
    b = data.make_batches(sents, 3, seed=5, vocab=v)
    c = data.make_batches(sents, 3, seed=6, vocab=v)
    flat = lambda bs: [int(x) for batch in bs for ids, _ in batch for x in ids]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)
    with pytest.raises(ValueError):
        data.make_batches(sents, 0, seed=0, vocab=v)


def test_synth_corpus_is_deterministic_and_well_formed():
    c1 = data.synth_corpus(3, n_sentences=16, entity_types=2)
    c2 = data.synth_corpus(3, n_sentences=16, entity_types=2)
    assert c1.train == c2.train and c1.dev == c2.dev and c1.test == c2.test
    assert len(c1.train) == 16 and len(c1.dev) == 4 and len(c1.test) == 16
    vocab = Vocab.from_corpus(c1)
    bio = crf.CrfParams(vocab.n_classes, strict_tags=vocab.tags)
    kinds = set()
    for split in c1.splits().values():
        for s in split:
            assert crf.forbidden_step(bio, vocab.encode_tags(s.tags)) is None
            for start, end, kind in data.decode_spans(s.tags):
                kinds.add(kind)
                assert 2 <= end - start <= 4
    assert kinds == {"T0", "T1"}
    assert data.synth_corpus(4, 16, 2).train != c1.train


def test_synth_corpus_validates_entity_types():
    with pytest.raises(ValueError):
        data.synth_corpus(0, entity_types=0)
    with pytest.raises(ValueError):
        data.synth_corpus(0, entity_types=99)

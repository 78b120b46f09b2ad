"""Corpus ingestion, vocabulary, span metrics, batching, synthetic data.

Corpora are tagged sentences in CoNLL shape: one "token tag" line per token
(tab or space separated), blank line between sentences, UTF-8. Training and
scoring need BIO tags; corpus statistics read any one-letter X-TYPE scheme.
"""

import os

import numpy as np

from .errors import ConfigError, read_lines
from .encoders import PAD_TOKEN, UNK_TOKEN


class Sentence:
    __slots__ = ("tokens", "tags")

    def __init__(self, tokens, tags):
        if len(tokens) != len(tags):
            raise ValueError(
                f"{len(tokens)} tokens vs {len(tags)} tags in one sentence")
        self.tokens = list(tokens)
        self.tags = list(tags)

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return self.tokens == other.tokens and self.tags == other.tags


class Corpus:
    """Train/dev/test splits. Splits may alias the same list."""

    def __init__(self, train, dev, test):
        self.train = train
        self.dev = dev
        self.test = test

    def splits(self):
        return {"train": self.train, "dev": self.dev, "test": self.test}


class Vocab:
    """Token and tag index maps, first-occurrence ordering.

    Tokens come from the training split (unseen tokens map to UNK at use
    time); tags are collected from every provided split so evaluation can
    always map gold labels.
    """

    def __init__(self, sentences, tag_sentences=None):
        self.tokens = [PAD_TOKEN, UNK_TOKEN]
        self.token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        self.pad_id = 0
        self.unk_id = 1
        for s in sentences:
            for tok in s.tokens:
                if tok not in self.token_to_id:
                    self.token_to_id[tok] = len(self.tokens)
                    self.tokens.append(tok)
        self.tags = []
        self.tag_to_id = {}
        for s in (tag_sentences if tag_sentences is not None else sentences):
            for tag in s.tags:
                if tag not in self.tag_to_id:
                    self.tag_to_id[tag] = len(self.tags)
                    self.tags.append(tag)

    @classmethod
    def from_corpus(cls, corpus):
        all_sents = list(corpus.train) + list(corpus.dev) + list(corpus.test)
        return cls(corpus.train, tag_sentences=all_sents)

    @classmethod
    def from_maps(cls, tokens, tags):
        v = cls.__new__(cls)
        v.tokens = list(tokens)
        v.token_to_id = {t: i for i, t in enumerate(v.tokens)}
        v.pad_id = v.token_to_id[PAD_TOKEN]
        v.unk_id = v.token_to_id[UNK_TOKEN]
        v.tags = list(tags)
        v.tag_to_id = {t: i for i, t in enumerate(v.tags)}
        return v

    @property
    def n_classes(self):
        return len(self.tags)

    def encode_tokens(self, tokens):
        return np.array([self.token_to_id.get(t, self.unk_id) for t in tokens],
                        dtype=np.int64)

    def encode_tags(self, tags):
        try:
            return np.array([self.tag_to_id[t] for t in tags], dtype=np.int64)
        except KeyError as e:
            raise ConfigError(f"tag {e.args[0]!r} not in the training tag set")


def _is_tag(tag, bio=True):
    """Whether tag is O or a one-letter head, '-' and a type: the head B or
    I when bio is set, any letter (BMES, BIOES) otherwise."""
    return tag == "O" or (len(tag) > 2 and tag[1] == "-"
                          and (tag[0] in "BI" if bio else tag[0].isalpha()))


def parse_conll(source, bio=True):
    """Read tagged sentences from a path or an iterable of lines.

    Each non-blank line is "token tag" (tab or space separated); a blank
    line closes the current sentence. Raises on malformed lines and on tags
    that fail _is_tag(tag, bio) (with the line number), and on an empty
    corpus.
    """
    if isinstance(source, (str, os.PathLike)):
        return parse_conll(read_lines(source, "corpus file"), bio)
    sentences = []
    toks, tags = [], []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if toks:
                sentences.append(Sentence(toks, tags))
                toks, tags = [], []
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected 'token tag', got {len(fields)} fields")
        if not _is_tag(fields[1], bio):
            raise ValueError(f"line {lineno}: tag {fields[1]!r} is not "
                             + ("a BIO tag" if bio else "O or an X-TYPE tag"))
        toks.append(fields[0])
        tags.append(fields[1])
    if toks:
        sentences.append(Sentence(toks, tags))
    if not sentences:
        raise ValueError("empty corpus: no sentences found")
    return sentences


def write_conll(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            for tok, tag in zip(s.tokens, s.tags):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")


def decode_spans(tags, mode="strict"):
    """Turn a BIO tag sequence into (start, end, type) spans.

    A span is a maximal B-X (I-X)* run, end exclusive. In lenient mode a
    stray I-X (one not continuing a same-type span) opens a new span, the
    conlleval repair convention; strict mode raises instead.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown decode mode {mode!r}")
    spans = []
    start = None
    kind = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.append((start, i, kind))
                start, kind = None, None
            continue
        if not _is_tag(tag):
            raise ValueError(f"position {i}: {tag!r} is not a BIO tag")
        head, body = tag[0], tag[2:]
        if head == "B":
            if start is not None:
                spans.append((start, i, kind))
            start, kind = i, body
        else:
            if start is not None and kind == body:
                continue
            if mode == "strict":
                raise ValueError(
                    f"position {i}: {tag!r} does not continue a {body} span")
            if start is not None:
                spans.append((start, i, kind))
            start, kind = i, body
    if start is not None:
        spans.append((start, len(tags), kind))
    return spans


class EvalReport:
    """Micro-averaged and per-type exact-span-match precision/recall/F1."""

    def __init__(self, n_gold, n_pred, n_correct, per_type):
        self.n_gold = n_gold
        self.n_pred = n_pred
        self.n_correct = n_correct
        self.per_type = per_type
        self.precision = _safe_div(n_correct, n_pred)
        self.recall = _safe_div(n_correct, n_gold)
        self.f1 = _f1(self.precision, self.recall)

    def lines(self):
        out = [f"micro P={self.precision:.4f} R={self.recall:.4f} "
               f"F1={self.f1:.4f} gold={self.n_gold} pred={self.n_pred} "
               f"correct={self.n_correct}"]
        for kind in sorted(self.per_type):
            p, r, f, g, pr, c = self.per_type[kind]
            out.append(f"type {kind} P={p:.4f} R={r:.4f} F1={f:.4f} "
                       f"gold={g} pred={pr} correct={c}")
        return out


def _safe_div(num, den):
    return num / den if den else 0.0


def _f1(p, r):
    return 2 * p * r / (p + r) if (p + r) else 0.0


def span_prf(gold, pred):
    """Exact-match span scoring over aligned per-sentence span lists."""
    if len(gold) != len(pred):
        raise ValueError(
            f"{len(gold)} gold sentences vs {len(pred)} predicted")
    n_gold = n_pred = n_correct = 0
    by_type = {}
    for g_spans, p_spans in zip(gold, pred):
        g_set, p_set = set(g_spans), set(p_spans)
        n_gold += len(g_set)
        n_pred += len(p_set)
        n_correct += len(g_set & p_set)
        for kinds, slot in ((g_set, 0), (p_set, 1)):
            for s in kinds:
                by_type.setdefault(s[2], [0, 0, 0])[slot] += 1
        for s in g_set & p_set:
            by_type[s[2]][2] += 1
    per_type = {}
    for kind, (g, p, c) in by_type.items():
        prec = _safe_div(c, p)
        rec = _safe_div(c, g)
        per_type[kind] = (prec, rec, _f1(prec, rec), g, p, c)
    return EvalReport(n_gold, n_pred, n_correct, per_type)


class CorpusStats:
    __slots__ = ("n_classes", "sizes", "avg_len", "max_len", "min_len")

    def __init__(self, n_classes, sizes, avg_len, max_len, min_len):
        self.n_classes = n_classes
        self.sizes = sizes
        self.avg_len = avg_len
        self.max_len = max_len
        self.min_len = min_len


def corpus_stats(corpus):
    """Class count, split sizes, and length stats over the distinct splits.

    Splits aliasing the same list (a dev split reusing test) are counted
    once in the length statistics; the average is rounded to 2 decimals.
    """
    sizes = {name: len(split) for name, split in corpus.splits().items()}
    seen = []
    distinct = []
    for split in corpus.splits().values():
        if any(split is s for s in seen):
            continue
        seen.append(split)
        distinct.extend(split)
    types = set()
    for s in distinct:
        for tag in s.tags:
            if tag != "O":
                types.add(tag[2:])
    lengths = [len(s) for s in distinct]
    return CorpusStats(len(types), sizes, round(float(np.mean(lengths)), 2),
                       int(max(lengths)), int(min(lengths)))


def make_batches(sentences, batch_size, seed, vocab):
    """Seeded shuffle, then consecutive groups of (token ids, tag ids) pairs,
    each pair at its sentence's true length."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(len(sentences))
    batches = []
    for lo in range(0, len(sentences), batch_size):
        group = [sentences[i] for i in order[lo:lo + batch_size]]
        batches.append([(vocab.encode_tokens(s.tokens), vocab.encode_tags(s.tags))
                        for s in group])
    return batches


# Character pools for the synthetic corpus. Entity types draw mostly from
# their own pool, with occasional confuser characters shared across types
# and with the filler text, so context (not characters alone) decides.
_FILLER = list("abcdefgh")
_CONFUSERS = list("xyz")
_TYPE_POOLS = [list(p) for p in
               ("ABCDE", "FGHIJ", "KLMNO", "PQRST", "UVW12", "34567")]


def synth_corpus(seed, n_sentences=64, entity_types=3):
    """Deterministic template-grammar corpus with planted entities.

    Generates n_sentences train, n_sentences//4 dev, and n_sentences test
    sentences from one seeded stream. Tags are exact by construction and
    always strict-decodable.
    """
    if entity_types < 1:
        raise ValueError("need at least one entity type")
    if entity_types > len(_TYPE_POOLS):
        raise ValueError(f"at most {len(_TYPE_POOLS)} entity types supported")
    rng = np.random.default_rng(seed)

    def draw(pool, confuse_p):
        if rng.random() < confuse_p:
            return _CONFUSERS[rng.integers(len(_CONFUSERS))]
        return pool[rng.integers(len(pool))]

    def sentence():
        toks, tags = [], []
        for _ in range(rng.integers(1, 6)):
            toks.append(draw(_FILLER, 0.03))
            tags.append("O")
        for _ in range(rng.integers(1, 4)):
            kind = int(rng.integers(entity_types))
            length = int(rng.integers(2, 5))
            for j in range(length):
                toks.append(draw(_TYPE_POOLS[kind], 0.06))
                tags.append(("B-" if j == 0 else "I-") + f"T{kind}")
            for _ in range(rng.integers(1, 6)):
                toks.append(draw(_FILLER, 0.03))
                tags.append("O")
        return Sentence(toks, tags)

    train = [sentence() for _ in range(n_sentences)]
    dev = [sentence() for _ in range(max(4, n_sentences // 4))]
    test = [sentence() for _ in range(n_sentences)]
    return Corpus(train, dev, test)

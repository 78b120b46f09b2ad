"""Seeded workload inputs.

All text comes from `hreb.data.synth_corpus(seed, ...)`, read as one token
stream (train, dev and test sentences back to back) and cut into documents
of fixed lengths. Fixing the lengths makes every seed do the same amount
of work, so run-to-run spread measures the program, not the draw; the
seed still decides the tokens, the tags, the model's initial weights and
the batch order. A cut can open inside an entity; such a document starts
with B- instead of I-, so every document stays well-formed BIO.
"""

from hreb.data import Corpus, Sentence, synth_corpus

# 24 evenly spaced quantiles (and 6 for dev) of synth_corpus's natural
# sentence length (4-31 tokens, mean 15), from 10,000 sentences.
SHORT_LENGTHS = [6, 7, 8, 9, 9, 10, 11, 11, 12, 13, 14, 14,
                 15, 16, 17, 17, 18, 19, 20, 21, 22, 23, 24, 26]
SHORT_DEV = [7, 10, 13, 16, 19, 23]

LONG_DOC = 256

# decode_mixed documents join k sentences of ~17 tokens, k from 1 to 16,
# with short ones most frequent so that p50 reflects per-call overhead
# and p90 the long documents.
MIXED_K = [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 8,
           10, 12, 14, 16]
MIXED_DOCS = [17 * k for k in MIXED_K] * 2
MIXED_TRAIN = [17, 34, 68, 136]
MIXED_DEV = [17]

# Set-up trains the decode model for one epoch (one optimizer step) on four
# 16-token documents, so that its checkpoint has non-zero CRF transitions.
CKPT_DOCS = [16] * 4


class Workload:
    """One workload's inputs.

    corpus: train/dev/test for `training.train` (dev is scored every epoch).
    decode: sentences decoded once per round by the checkpoint-loaded model.
    ckpt: the corpus set-up trains the decode model on.
    """

    def __init__(self, name, corpus, decode, ckpt):
        self.name = name
        self.corpus = corpus
        self.decode = decode
        self.ckpt = ckpt

    def train_tokens(self):
        return sum(len(s) for s in self.corpus.train)


def _stream(seed, n_tokens):
    """At least n_tokens (token, tag) pairs from one seeded synth corpus."""
    n_sentences = 64
    while True:
        c = synth_corpus(seed, n_sentences=n_sentences, entity_types=3)
        pairs = [(tok, tag) for s in c.train + c.dev + c.test
                 for tok, tag in zip(s.tokens, s.tags)]
        if len(pairs) >= n_tokens:
            return pairs
        n_sentences *= 2


def _cut(pairs, lengths, pos):
    docs = []
    for n in lengths:
        chunk = pairs[pos:pos + n]
        pos += n
        tokens = [tok for tok, _ in chunk]
        tags = [tag for _, tag in chunk]
        if tags[0].startswith("I-"):
            tags[0] = "B-" + tags[0][2:]
        docs.append(Sentence(tokens, tags))
    return docs, pos


def _workload(name, seed, train, dev, test):
    """Cut train, dev, test and the set-up documents from one token stream."""
    pairs = _stream(seed, sum(train) + sum(dev) + sum(test) + sum(CKPT_DOCS))
    train_docs, pos = _cut(pairs, train, 0)
    dev_docs, pos = _cut(pairs, dev, pos)
    test_docs, pos = _cut(pairs, test, pos)
    ckpt_docs, _ = _cut(pairs, CKPT_DOCS, pos)
    corpus = Corpus(train_docs, dev_docs, test_docs)
    return Workload(name, corpus, corpus.test,
                    Corpus(ckpt_docs, ckpt_docs[:1], test_docs))


def make_workload(name, seed):
    """Inputs for one named workload; the same seed gives the same inputs."""
    if name == "train_short":
        return _workload(name, seed, SHORT_LENGTHS, SHORT_DEV, SHORT_LENGTHS)
    if name == "train_long":
        return _workload(name, seed, [LONG_DOC] * 2, [LONG_DOC], [LONG_DOC] * 4)
    if name == "decode_mixed":
        return _workload(name, seed, MIXED_TRAIN, MIXED_DEV, MIXED_DOCS)
    raise ValueError(f"unknown workload {name!r}")


def tiny_workload(name, seed):
    """A few-second version of a workload, for the self-test."""
    w = make_workload(name, seed)
    c = w.corpus
    small = Corpus(c.train[:2], c.dev[:1], c.test[:2])
    return Workload(name, small, small.test, w.ckpt)

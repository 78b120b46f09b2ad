"""The full tagger: embeddings, attention encoder, BiLSTM, projection, CRF."""

import weakref

import numpy as np

from . import autodiff as ad
from . import crf as crf_mod
from .encoders import BiLstm, EmbeddingTable, embed_tokens, load_embedding_file
from .pack import Pack, one
from .residual import GateState
from .rhema import HierarchicalEncoder, NaiveEncoder


def pack_ids(ids):
    """(row ids, pack) of one id sequence, whose pack is Pack(n), or of a
    list of them laid end to end."""
    if len(ids) and np.ndim(ids[0]) == 1:
        seqs = [np.asarray(s, dtype=np.int64) for s in ids]
        return np.concatenate(seqs), Pack([s.size for s in seqs])
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("expected a non-empty 1-d id sequence")
    return ids, one(ids.size)


class HrebModel(ad.Module):
    """Forward pass producing class emissions and losses.

    It runs one sentence, or a batch of them packed end to end as one
    sequence of rows (hreb.pack), each at its true length. All floats are
    64-bit. The parameter and gate lists are fixed at construction.
    vectors, if read already from the config's embedding_path, spare
    reading it again.
    """

    def __init__(self, config, vocab, vectors=None):
        super().__init__()
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        n_classes = vocab.n_classes
        if n_classes < 1:
            raise ValueError("vocab carries no tags")

        if config.embeddings == "file":
            self.embed = self.sub(load_embedding_file(
                config.embedding_path, vocab, d, seed=config.seed, vectors=vectors))
        else:
            self.embed = self.sub(EmbeddingTable(len(vocab.tokens), d, vocab.pad_id, rng))
        encoder = HierarchicalEncoder if config.attention_mode == "hema" else NaiveEncoder
        self.encoder = self.sub(encoder(config, rng))
        self.lstm = self.sub(BiLstm(d, config.h_lstm, rng))
        self.w_out = self.param("proj.w", ad.glorot(rng, (2 * config.h_lstm, n_classes)))
        self.b_out = self.param("proj.b", np.zeros(n_classes))
        # loss_head=token is this CRF with its transitions held at zero:
        # not registered, so never trained or saved, and never masked
        crf_head = config.loss_head == "crf"
        self.crf = crf_mod.CrfParams(
            n_classes, vocab.tags if config.strict_transitions and crf_head else None)
        if crf_head:
            self.sub(self.crf)
        self._params = super().params()
        self._gates = [m for m in self.modules() if isinstance(m, GateState)]
        self._decode_arrays = []
        self._decode_tape = None

    def params(self):
        return list(self._params)

    def param_names(self):
        return [p.name for p in self.params()]

    def gate_states(self):
        """The residual gates in declaration order, the checkpoint's cache order."""
        return list(self._gates)

    def emissions(self, tape, ids):
        """(n, C) class scores: one true-length id sequence's rows, or a
        list of sequences' rows end to end. A tape that collects attention
        traces needs one sequence."""
        return self._emissions(tape, *pack_ids(ids))

    def _emissions(self, tape, ids, pack):
        x = embed_tokens(tape, ids, self.embed)
        h = self.encoder.forward(tape, x, pack)
        ctx = self.lstm.forward(tape, h, pack)
        return ad.linear(tape, ctx, self.w_out, self.b_out)

    def sentence_nll(self, tape, ids, tag_ids):
        """Training loss, a sum over positions: a scalar for one id
        sequence, and (B,) per-sentence losses for a list of B, run as one
        pack."""
        ids, pack = pack_ids(ids)
        e = self._emissions(tape, ids, pack)
        tag_ids = np.asarray(np.hstack(tag_ids), dtype=np.int64)
        return crf_mod.crf_nll(tape, e, tag_ids, self.crf, pack)

    def decode_tape(self):
        """The non-recording tape decode runs on.

        Its memo keeps the values per_tape builds from parameters and gate
        caches (the gates, the EMA decays, the BiLSTM's recurrent matrix)
        from one call to the next. It is replaced once any parameter or
        cache array is not the object it was built from, so every writer
        replaces those arrays instead of writing into them. They are held
        by weak reference, so a replaced one is freed at once.
        """
        arrays = [p.data for p in self._params]
        for gs in self.gate_states():
            arrays += (gs.cache_f, gs.cache_x)
        if (len(arrays) != len(self._decode_arrays)
                or not all(r() is a for r, a in zip(self._decode_arrays, arrays))):
            self._decode_arrays = [weakref.ref(a) for a in arrays]
            self._decode_tape = ad.Tape(record=False)
        return self._decode_tape

    def decode(self, ids, tape=None):
        """Best tag-id path for one true-length id sequence; for a list of
        them, one pass over their pack and a list of paths. Runs on tape,
        by default decode_tape()."""
        ids, pack = pack_ids(ids)
        e = self._emissions(self.decode_tape() if tape is None else tape, ids, pack).data
        paths = [np.asarray(crf_mod.viterbi(e[a:a + n], self.crf)[0], dtype=np.int64)
                 for a, n in pack.spans()]
        return paths if pack.shape else paths[0]

    def predict_tags(self, tokens):
        """Tag names for one tokenized sentence."""
        ids = self.vocab.encode_tokens(tokens)
        path = self.decode(ids)
        return [self.vocab.tags[i] for i in path]

    def tag_sentences(self, sentences):
        """Tag names for each of a list of tokenized sentences, in their
        order: predict_tags of each, decoded in packs of batch_size,
        shortest first, since a pack's recurrences step every sentence to
        its longest, and sentences of near lengths share one length bucket
        of the global attention band (pack.length_buckets)."""
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        tags = [None] * len(sentences)
        size = self.config.batch_size
        for lo in range(0, len(order), size):
            group = order[lo:lo + size]
            paths = self.decode([self.vocab.encode_tokens(sentences[i]) for i in group])
            for i, path in zip(group, paths):
                tags[i] = [self.vocab.tags[t] for t in path]
        return tags

"""The full tagger: embeddings, attention encoder, BiLSTM, projection, CRF."""

import weakref

import numpy as np

from . import autodiff as ad
from . import crf as crf_mod
from .encoders import BiLstm, EmbeddingTable, embed_tokens, load_embedding_file
from .rhema import HierarchicalEncoder, NaiveEncoder, _glorot


def _ref(a):
    """A weak reference to array a. A numpy scalar (what an update of a 0-d
    parameter yields) takes no weak reference; it is held as it is."""
    try:
        return weakref.ref(a)
    except TypeError:
        return lambda: a


class HrebModel:
    """Per-sentence forward pass producing class emissions and losses.

    Sentences are processed one at a time at their true length. All floats
    are 64-bit.
    """

    def __init__(self, config, vocab):
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        n_classes = vocab.n_classes
        if n_classes < 1:
            raise ValueError("vocab carries no tags")

        if config.embeddings == "file":
            self.embed = load_embedding_file(config.embedding_path, vocab, d,
                                             seed=config.seed)
        else:
            self.embed = EmbeddingTable(len(vocab.tokens), d, vocab.pad_id,
                                        vocab.unk_id, rng)
        if config.attention_mode == "hema":
            self.encoder = HierarchicalEncoder(config, rng)
        else:
            self.encoder = NaiveEncoder(config, rng)
        self.lstm = BiLstm(d, config.h_lstm, rng)
        self.w_out = ad.Tensor(_glorot(rng, (2 * config.h_lstm, n_classes)),
                               requires_grad=True, name="proj.w")
        self.b_out = ad.Tensor(np.zeros(n_classes), requires_grad=True,
                               name="proj.b")
        self.crf = crf_mod.CrfParams(n_classes, tags=vocab.tags,
                                     strict=config.strict_transitions)
        self._decode_arrays = []
        self._decode_tape = None

    def params(self):
        out = (self.embed.params() + self.encoder.params() + self.lstm.params()
               + [self.w_out, self.b_out])
        if self.config.loss_head == "crf":
            out = out + self.crf.params()
        return out

    def param_names(self):
        return [p.name for p in self.params()]

    def gate_states(self):
        return self.encoder.gate_states()

    def emissions(self, tape, ids, traces=None):
        """(n, C) class scores for one true-length id sequence."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("expected a non-empty 1-d id sequence")
        x = embed_tokens(tape, ids, self.embed)
        h = self.encoder.forward(tape, x, traces=traces)
        ctx = self.lstm.forward(tape, h)
        return ad.linear(tape, ctx, self.w_out, self.b_out)

    def sentence_nll(self, tape, ids, tag_ids):
        """Training loss for one sentence (a sum over its positions)."""
        e = self.emissions(tape, ids)
        tag_ids = np.asarray(tag_ids, dtype=np.int64)
        if self.config.loss_head == "crf":
            return crf_mod.crf_nll(tape, e, tag_ids, self.crf)
        probs = ad.softmax_rows(tape, e)
        onehot = np.zeros(e.data.shape)
        onehot[np.arange(tag_ids.size), tag_ids] = 1.0
        return crf_mod.token_nll(tape, probs, onehot)

    def decode_tape(self):
        """The non-recording tape decode runs on.

        Its memo keeps the values per_tape builds from parameters and gate
        caches (the gates, the EMA decays, the BiLSTM's recurrent matrix)
        from one call to the next. It is replaced once any parameter or
        cache array is not the object it was built from, so every writer
        replaces those arrays instead of writing into them. They are held
        by weak reference (_ref), so a replaced one is freed at once.
        """
        arrays = [p.data for p in self.params()]
        for gs in self.gate_states():
            arrays += (gs.cache_f, gs.cache_x)
        if (len(arrays) != len(self._decode_arrays)
                or not all(r() is a for r, a in zip(self._decode_arrays, arrays))):
            self._decode_arrays = [_ref(a) for a in arrays]
            self._decode_tape = ad.Tape(record=False)
        return self._decode_tape

    def decode(self, ids, traces=None):
        """Best tag-id path for one true-length id sequence."""
        e = self.emissions(self.decode_tape(), ids, traces=traces)
        if self.config.loss_head == "crf":
            path, _ = crf_mod.viterbi(e, self.crf)
            return np.asarray(path, dtype=np.int64)
        return np.argmax(e.data, axis=1).astype(np.int64)

    def predict_tags(self, tokens):
        """Tag names for one tokenized sentence."""
        ids = self.vocab.encode_tokens(tokens)
        path = self.decode(ids)
        return [self.vocab.tags[i] for i in path]

"""Token embeddings and the bidirectional LSTM context encoder."""

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, read_lines

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class EmbeddingTable(ad.Module):
    """vocab_size x d_model lookup matrix with reserved padding/unknown rows."""

    def __init__(self, vocab_size, d_model, pad_id, rng):
        super().__init__("embed.")
        self.pad_id = pad_id
        self.coverage = None
        data = rng.uniform(-0.1, 0.1, (vocab_size, d_model))
        data[pad_id] = 0.0
        self.table = self.param("table", data)


def embed_tokens(tape, ids, table):
    """Row lookup. The padding row never accumulates gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    live = ids != table.pad_id
    t = table.table

    def bw(g):
        dt = np.zeros_like(t.data)
        np.add.at(dt, ids[live], g[live])
        return (dt,)
    return ad.record_op(tape, "embed_tokens", (t,), t.data[ids], bw)


def read_embedding_file(path, d_model):
    """{token: vector} from a UTF-8 file of pretrained vectors: a header line
    "count dim", then one "token v1 ... v_dim" line per token."""
    vectors, line_of = {}, {}
    lines = read_lines(path, "embedding file")
    header = lines[0] if lines else ""
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:1: header must be 'count dim', got {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}:1: header must be two integers, got {header!r}")
    if dim != d_model:
        raise ConfigError(
            f"embedding file dim {dim} does not match configured d_model {d_model}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        # word2vec's text writer ends each line with a space
        cols = line.rstrip().split(" ")
        if len(cols) != dim + 1:
            raise ValueError(
                f"{path}:{lineno}: expected token plus {dim} values, got "
                f"{len(cols)} fields")
        if cols[0] in line_of:
            raise ValueError(
                f"{path}:{lineno}: token {cols[0]!r} repeats the vector "
                f"of line {line_of[cols[0]]}")
        line_of[cols[0]] = lineno
        try:
            vec = np.array([float(c) for c in cols[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric vector component")
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{lineno}: non-finite vector component")
        vectors[cols[0]] = vec
    if len(vectors) != count:
        raise ValueError(
            f"{path}: header promised {count} vectors, file held {len(vectors)}")
    return vectors


def load_embedding_file(path, vocab, d_model, seed=0, vectors=None):
    """An EmbeddingTable of read_embedding_file's vectors, or of vectors it
    already returned for path, which are then not read again. Vocab tokens
    missing from the file get seeded uniform(-0.1, 0.1) rows; the hit
    fraction lands in table.coverage."""
    if vectors is None:
        vectors = read_embedding_file(path, d_model)
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(len(vocab.tokens), d_model, vocab.pad_id, rng)
    hits = 0
    # Iterate in id order so missing-token rows are drawn in a reproducible
    # sequence regardless of file order.
    for tid, tok in enumerate(vocab.tokens):
        vec = vectors.get(tok)
        if vec is not None:
            table.table.data[tid] = vec
            hits += 1
        else:
            table.table.data[tid] = rng.uniform(-0.1, 0.1, d_model)
    table.table.data[vocab.pad_id] = 0.0
    table.coverage = hits / len(vocab.tokens)
    return table


class LstmParams(ad.Module):
    """One direction's input/recurrent/bias weights, gate order i,f,c,o."""

    def __init__(self, d_in, h, rng, prefix):
        super().__init__(prefix)
        self.w = self.param("w", ad.glorot(rng, (d_in, 4 * h)))
        self.u = self.param("u", ad.glorot(rng, (h, 4 * h)))
        self.b = self.param("b", np.zeros(4 * h))


class BiLstm(ad.Module):
    """Left-to-right and right-to-left LSTM passes, concatenated per position.

    Both run as the two lanes of one recurrence (autodiff.bilstm_seq).
    """

    def __init__(self, d_in, h, rng, prefix="lstm."):
        super().__init__(prefix)
        self.fwd = self.sub(LstmParams(d_in, h, rng, prefix + "fwd."))
        self.bwd = self.sub(LstmParams(d_in, h, rng, prefix + "bwd."))

    def forward(self, tape, x, pack):
        """Encode x (seq, d_in) -> (seq, 2h), each sentence of a pack alone."""
        f, b = self.fwd, self.bwd
        return ad.bilstm_seq(tape, x, f.w, f.u, f.b, b.w, b.u, b.b, pack)

"""Packed batches: B sentences laid end to end as N rows.

The layout is FlashAttention-2's varlen packing (cu_seqlens; Dao 2023,
arXiv:2307.08691): sentence b holds rows starts[b] to starts[b] +
lengths[b] - 1, and its position p is row starts[b] + p. Position-wise ops
run on the rows as they are. The ops that mix positions (the EMA scan, the
attention bands, the BiLSTM, the CRF and feature_norm) read the sentence
boundaries from a Pack, so no sentence sees another.

One sentence is Pack(n) with an int n. Per-sentence results take the
shape of the lengths, as numpy's do for a 0-d input: () for Pack(n) and
(B,) for Pack([a, b, ...]). The time steps of a pack of one are views of
its rows, and one() keeps the one-sentence packs of recent lengths, so a
decode builds no layout that an earlier one of the same length built.
"""

from functools import lru_cache, wraps

import numpy as np


def _kept(layout):
    """A layout method whose result each pack keeps, per argument."""
    @wraps(layout)
    def kept(self, arg):
        key = (layout.__name__, arg)
        if key not in self._memo:
            self._memo[key] = layout(self, arg)
        return self._memo[key]
    return kept


class Pack:
    """Sentences of the given lengths: one int, or a list of B >= 1."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim > 1 or lengths.size == 0 or (lengths < 1).any():
            raise ValueError(f"a pack needs one or more non-empty sentences, "
                             f"got lengths {np.atleast_1d(lengths).tolist()}")
        self.shape = lengths.shape
        self.lengths = lengths.reshape(-1)
        self.b = self.lengths.size
        self.n = int(self.lengths.sum())
        self.n_max = int(self.lengths.max())
        self.starts = np.cumsum(self.lengths) - self.lengths
        # each row's sentence, and its position within it
        self.sentence = np.repeat(np.arange(self.b), self.lengths)
        self.pos = np.arange(self.n) - self.starts[self.sentence]
        self.lasts = self.starts + self.lengths - 1
        self.follows = np.flatnonzero(self.pos > 0)
        self._memo = {}

    @_kept
    def _cells(self, reverse):
        """Each row's cell of the (T * B) time steps."""
        p = self.lengths[self.sentence] - 1 - self.pos if reverse else self.pos
        return p * self.b + self.sentence

    def padded(self, a, reverse=False):
        """a's rows as (T, B, ...) time steps, T = n_max, zero past each
        sentence's end. reverse runs each sentence back to front, so its
        padding trails too. For one sentence this is a view of a."""
        if self.b == 1:
            return a[::-1, None] if reverse else a[:, None]
        out = np.zeros((self.n_max * self.b,) + a.shape[1:])
        out[self._cells(reverse)] = a
        return out.reshape((self.n_max, self.b) + a.shape[1:])

    def unpadded(self, p, reverse=False):
        """The (N, ...) rows of (T, B, ...) time steps laid out as padded does."""
        if self.b == 1:
            return p[::-1, 0] if reverse else p[:, 0]
        return p.reshape((self.n_max * self.b,) + p.shape[2:])[self._cells(reverse)]

    @_kept
    def _slots(self, m):
        """Each row's place in the chunks of width m, or None when no
        sentence needs padding and the rows are the chunks as they are."""
        if not (self.lengths % m).any():
            return None
        per = -(-self.lengths // m)
        first = np.cumsum(per) - per
        return first[self.sentence] * m + self.pos, int(per.sum())

    def chunks(self, a, m):
        """a's rows as (n_chunks, m, ...) chunks: each sentence starts a
        chunk and is zero-padded to whole chunks."""
        slots = self._slots(m)
        if slots is None:
            return a.reshape((-1, m) + a.shape[1:])
        out = np.zeros((slots[1] * m,) + a.shape[1:])
        out[slots[0]] = a
        return out.reshape((slots[1], m) + a.shape[1:])

    def unchunked(self, c, m):
        """The (N, ...) rows of chunks laid out as chunks does."""
        rows = c.reshape((-1,) + c.shape[2:])
        slots = self._slots(m)
        return rows if slots is None else rows[slots[0]]

    def band_keys(self, m):
        """Entry (i, r) of the (N, m) band: the position within row i's
        sentence of key r of its width-m chunk, chunks counted from the
        sentence's first row. Keys at or past the sentence's end are padding."""
        return (self.pos // m * m)[:, None] + np.arange(m)

    @_kept
    def key_mask(self, m):
        """Live keys of an (N, m) band, or None when every key is live."""
        if not (self.lengths % m).any():
            return None
        return self.band_keys(m) < self.lengths[self.sentence][:, None]

    def at_positions(self, table):
        """table's rows at each row's position within its sentence: for one
        sentence, table itself."""
        return table if self.b == 1 else table[self.pos]

    def sums(self, a):
        """Each sentence's sum of a's rows, (B, ...), added in row order, so
        a sentence's sum has the bits it has alone."""
        steps = self.padded(a)
        if steps[0].size == 1:
            # numpy sums a single column pairwise; accumulate keeps row order
            return np.add.accumulate(steps, axis=0)[-1]
        return np.add.reduce(steps, axis=0)

    def per_row(self, v):
        """Per-sentence values (B, ...) repeated for each row of the sentence."""
        return v[self.sentence]

    def per_sentence(self, v):
        """(B,) per-sentence values in the shape of lengths: 0-d for Pack(n)."""
        return v.reshape(self.shape)

    def spans(self):
        """(first row, length) of each sentence."""
        return zip(self.starts.tolist(), self.lengths.tolist())

    def row_name(self, row):
        """Row `row` as an error message names it: within its sentence once
        the pack holds more than one."""
        if self.b == 1:
            return f"row {row}"
        return f"row {self.pos[row]} of sentence {self.sentence[row]}"


@lru_cache(maxsize=256)
def one(n):
    """Pack(n), kept for each of the last 256 lengths asked for, so that
    one-sentence calls (decoding) build each length's layout once. Callers
    share it, so none may write into its arrays."""
    return Pack(n)

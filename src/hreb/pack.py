"""Packed batches: B sentences laid end to end as N rows.

The layout is FlashAttention-2's varlen packing (cu_seqlens; Dao 2023,
arXiv:2307.08691): sentence b holds rows starts[b] to starts[b] +
lengths[b] - 1, and its position p is row starts[b] + p. Position-wise ops
run on the rows as they are. The ops that mix positions (the EMA scan, the
attention bands, the BiLSTM, the CRF and feature_norm) read the sentence
boundaries from a Pack, so no sentence sees another.

A SinglePack is one sentence with no batch axis: every array passes
through as it is, and per-sentence results are scalars. An op given no
pack treats its rows as one.
"""

import numpy as np


class Pack:
    """B >= 1 sentences of the given lengths; per-sentence results are (B,)."""

    batched = True

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or (lengths < 1).any():
            raise ValueError(f"a pack needs one or more non-empty sentences, "
                             f"got lengths {np.atleast_1d(lengths).tolist()}")
        self.lengths = lengths
        self.b = lengths.size
        self.n = int(lengths.sum())
        self.n_max = int(lengths.max())
        self.starts = np.cumsum(lengths) - lengths
        # each row's sentence, and its position within it
        self.sentence = np.repeat(np.arange(self.b), lengths)
        self.pos = np.arange(self.n) - self.starts[self.sentence]
        self.lasts = self.starts + lengths - 1
        self.follows = np.flatnonzero(self.pos > 0)
        self._memo = {}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _cells(self, reverse):
        def build():
            p = self.lengths[self.sentence] - 1 - self.pos if reverse else self.pos
            return p * self.b + self.sentence
        return self._cached(("cells", reverse), build)

    def padded(self, a, reverse=False):
        """a's rows as (T, B, ...) time steps, T = n_max, zero past each
        sentence's end. reverse runs each sentence back to front, so its
        padding trails too."""
        out = np.zeros((self.n_max * self.b,) + a.shape[1:])
        out[self._cells(reverse)] = a
        return out.reshape((self.n_max, self.b) + a.shape[1:])

    def unpadded(self, p, reverse=False):
        """The (N, ...) rows of (T, B, ...) time steps laid out as padded does."""
        return p.reshape((self.n_max * self.b,) + p.shape[2:])[self._cells(reverse)]

    def _slots(self, m):
        """Each row's place in the chunks of width m, or None when no
        sentence needs padding and the rows are the chunks as they are."""
        def build():
            if not (self.lengths % m).any():
                return None
            per = -(-self.lengths // m)
            first = np.cumsum(per) - per
            return first[self.sentence] * m + self.pos, int(per.sum())
        return self._cached(("slots", m), build)

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

    def key_mask(self, m):
        """Live keys of an (N, m) band, or None when every key is live.

        Entry (i, r) is key r of row i's chunk, which exists iff it falls
        before the end of row i's sentence.
        """
        def build():
            if not (self.lengths % m).any():
                return None
            return ((self.pos // m * m)[:, None] + np.arange(m)
                    < self.lengths[self.sentence][:, None])
        return self._cached(("keys", m), build)

    def at_positions(self, table):
        """table's rows at each row's position within its sentence."""
        return table[self.pos]

    def sums(self, a):
        """Each sentence's sum of a's rows: (B, ...)."""
        return np.add.reduceat(a, self.starts, axis=0)

    def per_row(self, v):
        """Per-sentence values (B, ...) repeated for each row of the sentence."""
        return v[self.sentence]

    def means(self, a):
        """Each row's sentence mean of a's rows, one row per row of a."""
        return self.per_row(self.sums(a) / self.lengths.reshape(
            (-1,) + (1,) * (a.ndim - 1)))

    def spans(self):
        """(first row, length) of each sentence."""
        return zip(self.starts.tolist(), self.lengths.tolist())

    def row_name(self, row):
        """Row `row` as an error message names it: within its sentence once
        the pack holds more than one."""
        if self.b == 1:
            return f"row {row}"
        return f"row {self.pos[row]} of sentence {self.sentence[row]}"


class SinglePack(Pack):
    """One sentence of n rows, with no batch axis."""

    batched = False
    lengths = None

    def __init__(self, n):
        self.b = 1
        self.n = self.n_max = n
        self.starts = 0
        self.lasts = n - 1
        self.follows = np.arange(1, n)

    def padded(self, a, reverse=False):
        return a[::-1] if reverse else a

    def unpadded(self, p, reverse=False):
        return p[::-1] if reverse else p

    def chunks(self, a, m):
        pad = -a.shape[0] % m
        if pad:
            a = np.concatenate([a, np.zeros((pad,) + a.shape[1:])])
        return a.reshape((-1, m) + a.shape[1:])

    def unchunked(self, c, m):
        return c.reshape((-1,) + c.shape[2:])[:self.n]

    def key_mask(self, m):
        if self.n % m == 0:
            return None
        rows = np.arange(self.n)[:, None]
        return rows // m * m + np.arange(m)[None, :] < self.n

    def at_positions(self, table):
        return table

    def sums(self, a):
        return np.add.reduce(a, axis=0)

    def per_row(self, v):
        return v

    def means(self, a):
        return np.add.reduce(a, axis=0) / self.n

    def spans(self):
        return [(0, self.n)]

    def row_name(self, row):
        return f"row {row}"


def resolve(pack, n):
    """pack, or the SinglePack of n rows when it is None."""
    return SinglePack(n) if pack is None else pack

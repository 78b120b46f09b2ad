"""Packed batches: B sentences laid end to end as N rows.

The layout is FlashAttention-2's varlen packing (cu_seqlens; Dao 2023,
arXiv:2307.08691): sentence b holds rows starts[b] to starts[b] +
lengths[b] - 1, and its position p is row starts[b] + p. Position-wise ops
run on the rows as they are. The ops that mix positions (the EMA scan, the
attention bands, the BiLSTM, the CRF and feature_norm) read the sentence
boundaries from a Pack, so no sentence sees another.

Both attention bands are laid out as Bands. A Band is one bucket of
sentences, each cut into chunks of the bucket's width (Mega's chunked
attention, Ma et al. 2022, arXiv:2209.10655), and band_attention runs
once per Band. The local band (band_attention with a width) is one Band
of every sentence. The global band (no width) is one Band per length
bucket, the usual cure for padded batches (Khomenko et al., IEEE DSMP
2016): taken longest first, a sentence joins the current bucket while
twice its length exceeds the bucket's longest, and else starts the next
one (length_buckets). Bucket b's band is (N_b, m_b), m_b its longest
sentence, so no row is padded to twice its length or more. The layout
depends on the lengths alone and each pack keeps it. On an Intel Xeon,
one BLAS thread, band_attention's forward and backward (reduced_laplace;
64-wide q and k, 128-wide v) took about 120 us longer per extra bucket
at near-constant band cells (a 256-row pack in 3 to 7 buckets: 3.6 to
4.1 ms), and 0.09-0.25 us less per band cell saved, so a bucket costs
as much as 500-1300 cells. perfbench's train_short packs save 700-1000
cells in 2-3 buckets, about what their extra buckets cost, so no bucket
is merged back.

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

    def band_keys(self, m):
        """Entry (i, r) of the (N, m) band: the position within row i's
        sentence of key r of its width-m chunk, chunks counted from the
        sentence's first row. Keys at or past the sentence's end are padding."""
        return _band_keys(self.pos, m)

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

    @_kept
    def bands(self, width):
        """band_attention's layout of this pack, a list of Bands: given a
        width, one Band of every sentence in chunks of min(width, n_max)
        rows; with width None the global band, one Band per length_buckets
        group, longest first, each in one chunk of its longest sentence."""
        if width is not None:
            return [Band(self, np.arange(self.b), min(int(width), self.n_max))]
        return [Band(self, g, int(self.lengths[g].max()))
                for g in length_buckets(self.lengths)]

    def row_name(self, row):
        """Row `row` as an error message names it: within its sentence once
        the pack holds more than one."""
        if self.b == 1:
            return f"row {row}"
        return f"row {self.pos[row]} of sentence {self.sentence[row]}"


def length_buckets(lengths):
    """The global band's buckets of sentences, as lists of their indices
    in pack order, the bucket of the longest sentence first.

    Taken longest first, a sentence joins the current bucket while twice
    its length exceeds the bucket's longest, and else starts the next one,
    so no sentence is padded to twice its length or more."""
    groups, top, n = [], 0, lengths.tolist()
    for b in np.argsort(-lengths, kind="stable").tolist():
        if groups and 2 * n[b] > top:
            groups[-1].append(b)
        else:
            groups.append([b])
            top = n[b]
    return [sorted(g) for g in groups]


def _band_keys(pos, m):
    """Pack.band_keys for rows at positions pos within their sentences."""
    return (pos // m * m)[:, None] + np.arange(m)


def _zero_padded(a, at, n):
    """a's rows placed at rows `at` of n zero rows; a itself when at is None."""
    if at is None:
        return a
    out = np.zeros((n,) + a.shape[1:])
    out[at] = a
    return out


_rel_bias_indexes = {}


def _rel_bias_index(n, m, w):
    """The (n, m) bias bucket index of Band.bias_index over the positions
    0..n-1 of one sentence, a slice of one array per layout.

    The m = n layout (offset j - i) and the fixed-chunk one (m < n) of
    Pack.band_keys are each a prefix of the same layout at a larger n, so
    each is kept at the longest n seen and rebuilt only for a longer one.
    The m = n array holds n * n entries, as many as the scores it indexes.
    """
    key = (0 if m == n else m, w)
    idx = _rel_bias_indexes.get(key)
    if idx is None or idx.shape[0] < n:
        pos = np.arange(n)
        offs = _band_keys(pos, m) - pos[:, None]
        idx = _rel_bias_indexes[key] = np.clip(offs + w, 0, 2 * w)
    return idx[:n, :m]


class Band:
    """One bucket of a pack's sentences, as band_attention lays out its
    key band.

    Each sentence of the bucket is cut into chunks of m rows, the first
    starting at its first row, so it spans ceil(length / m) chunks. Row
    i's band is its chunk's keys (_band_keys), and the band is an (N_b, m)
    array over the bucket's rows in pack order: the pack rows `rows`, None
    when the bucket holds every sentence. The chunks are zero-padded rows:
    band row i is padded row slots[i], and slots is None when no row is
    padded. mask marks a band's live keys and is None when no row is
    padded; pos holds each row's position in its sentence, None for one
    sentence. A Band keeps no reference to its pack, which keeps it.
    """

    def __init__(self, pack, sentences, m):
        lengths = pack.lengths[sentences]
        self.m, self.top = m, int(lengths.max())
        self.rows, pos = None, pack.pos
        if lengths.size < pack.b:
            self.rows = np.flatnonzero(np.isin(pack.sentence, sentences))
            pos = pos[self.rows]
        self.pos = None if lengths.size == 1 else pos
        padded = -(-lengths // m) * m
        self.n_padded = int(padded.sum())
        self.slots = self.mask = None
        if self.n_padded > pos.size:
            # each band row's sentence, counted within the bucket
            sentence = np.repeat(np.arange(lengths.size), lengths)
            self.slots = (np.cumsum(padded) - padded)[sentence] + pos
            self.mask = _band_keys(pos, m) < lengths[sentence, None]

    def rows_of(self, a):
        """The band's rows of a pack's (N, ...) rows a."""
        return a if self.rows is None else a[self.rows]

    def chunks(self, a):
        """The band's (N_b, d) rows a, or a band, as (chunks, m, d) chunks."""
        return _zero_padded(a, self.slots, self.n_padded).reshape(-1, self.m, a.shape[1])

    def band_product(self, x, y):
        """The (N_b, m) band of x @ y^T for chunks x and y."""
        band = (x @ y.transpose(0, 2, 1)).reshape(-1, self.m)
        return band if self.slots is None else band[self.slots]

    def row_product(self, x, y):
        """The (N_b, d) rows of x @ y for chunks x, (chunks, m, m), and y,
        (chunks, m, d)."""
        rows = (x @ y).reshape(self.n_padded, -1)
        return rows if self.slots is None else rows[self.slots]

    def bias_index(self, w, values=None):
        """The band's relative-position bias buckets: the key's offset from
        the row, within their sentence, clipped into [-w, w], plus w; given
        values, the values at those buckets."""
        t = _rel_bias_index(self.top, self.m, w)
        if values is not None:
            t = values[t]
        return t if self.pos is None else t[self.pos]


@lru_cache(maxsize=256)
def one(n):
    """Pack(n), kept for each of the last 256 lengths asked for, so that
    one-sentence calls (decoding) build each length's layout once. Callers
    share it, so none may write into its arrays."""
    return Pack(n)

"""Packed batches: B sentences laid end to end as N rows.

The layout is FlashAttention-2's varlen packing (cu_seqlens; Dao 2023,
arXiv:2307.08691): sentence b holds rows starts[b] to starts[b] +
lengths[b] - 1, and its position p is row starts[b] + p. Position-wise ops
run on the rows as they are. The ops that mix positions (the EMA scan, the
attention bands, the BiLSTM, the CRF and feature_norm) read the sentence
boundaries from a Pack, so no sentence sees another.

The global attention band of a pack (band_attention with no width) runs
in length buckets, the usual cure for padded batches (Khomenko et al.,
IEEE DSMP 2016): taken longest first, a sentence joins the current bucket
while twice its length exceeds the bucket's longest, and else starts the
next one (length_buckets). Bucket b's band is (N_b, m_b), m_b its longest
sentence, so no row is padded to twice its length or more; a pack of one
bucket keeps the plain (N, n_max) band (Band), and several share one
buffer (Buckets). The layout depends on the lengths alone and each pack
keeps it. A bucket costs about as much as 200-350 band cells: on an
Intel Xeon, one BLAS thread, band_attention's forward and backward
(64-wide q and k, 128-wide v) took 50-100 us longer per extra bucket and
0.26 us less per band cell saved. perfbench's train_short packs save
700-1000 cells in 2-3 buckets and train as fast as unbucketed ones, so
no bucket is merged back.

One sentence is Pack(n) with an int n. Per-sentence results take the
shape of the lengths, as numpy's do for a 0-d input: () for Pack(n) and
(B,) for Pack([a, b, ...]). The time steps of a pack of one are views of
its rows, and one() keeps the one-sentence packs of recent lengths, so a
decode builds no layout that an earlier one of the same length built.
"""

from collections import namedtuple
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
    def _band(self, m):
        return Band(self, m)

    def chunks(self, a, m):
        """a's rows as (n_chunks, m, ...) chunks: each sentence starts a
        chunk and is zero-padded to whole chunks."""
        return self._band(m).chunk(a)

    def unchunked(self, c, m):
        """The (N, ...) rows of chunks laid out as chunks does."""
        return self._band(m).unchunked(c)

    def band_keys(self, m):
        """Entry (i, r) of the (N, m) band: the position within row i's
        sentence of key r of its width-m chunk, chunks counted from the
        sentence's first row. Keys at or past the sentence's end are padding."""
        return (self.pos // m * m)[:, None] + np.arange(m)

    def key_mask(self, m):
        """Live keys of an (N, m) band, or None when every key is live."""
        return self._band(m).mask

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
    def band(self, width):
        """band_attention's layout of this pack: a Band of chunks of `width`
        rows; with width None the global band, a Band of the longest
        sentence when every sentence falls in one length bucket, and else
        Buckets."""
        if width is not None:
            return self._band(min(int(width), self.n_max))
        groups = length_buckets(self.lengths)
        return self._band(self.n_max) if len(groups) == 1 else Buckets(self, groups)

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
        offs = Pack(n).band_keys(m) - np.arange(n)[:, None]
        idx = _rel_bias_indexes[key] = np.clip(offs + w, 0, 2 * w)
    return idx[:n, :m]


class Band:
    """The key bands of a pack's rows in chunks of m rows, each sentence
    starting a chunk, as band_attention lays them out.

    Row i's band is row i of an (N, m) array (Pack.band_keys). The rows
    are zero-padded to whole chunks: row i is row live[i] of the padded
    rows, or live is None when no sentence needs padding. The methods
    band_attention calls take and return one entry per bucket, here one,
    so that it runs Band and Buckets alike. A Band keeps no reference to
    its pack, which keeps it. Called on the class, the row methods act on
    the rows of any 2-D array.
    """

    rows = None  # band row i is pack row i

    def __init__(self, pack, m):
        self.m, self.shape, self.n_max = m, (pack.n, m), pack.n_max
        self.pos = None if pack.b == 1 else pack.pos
        self.live = self.mask = None
        self.n_chunks = pack.n // m
        if (pack.lengths % m).any():
            per = -(-pack.lengths // m)
            first = np.cumsum(per) - per
            self.live = first[pack.sentence] * m + pack.pos
            self.n_chunks = int(per.sum())
            self.mask = pack.band_keys(m) < pack.lengths[pack.sentence][:, None]

    def chunk(self, a):
        """a's (N, ...) rows as (n_chunks, m, ...) chunks."""
        return _zero_padded(a, self.live, self.n_chunks * self.m).reshape(
            (self.n_chunks, self.m) + a.shape[1:])

    def unchunked(self, c):
        """The (N, ...) rows of chunks laid out as chunk does."""
        rows = c.reshape((-1,) + c.shape[2:])
        return rows if self.live is None else rows[self.live]

    def chunks(self, a):
        """[a's (N, ...) rows, or a band's, as chunks]."""
        return [self.chunk(a)]

    band_chunks = chunks

    def band_product(self, xs, ys):
        """The band of x @ y^T for the chunks x, y of xs and ys."""
        return self.unchunked(xs[0] @ ys[0].transpose(0, 2, 1))

    def row_product(self, xs, ys):
        """The (N, d) rows of x @ y for the chunks x, (n_chunks, m, m), of
        xs and y, (n_chunks, m, d), of ys."""
        return self.unchunked(xs[0] @ ys[0])

    @staticmethod
    def reduce_rows(ufunc, band):
        """(N, 1): ufunc's reduction of each band row."""
        return ufunc.reduce(band, axis=-1, keepdims=True)

    @staticmethod
    def by_row(ufunc, band, r):
        """ufunc of each band entry and its row's value in r, (N, 1)."""
        return ufunc(band, r)

    def bias_index(self, w, values=None):
        """The band's relative-position bias buckets: the key's offset from
        the row, within their sentence, clipped into [-w, w], plus w; given
        values, the values at those buckets."""
        t = _rel_bias_index(self.n_max, self.m, w)
        if values is not None:
            t = values[t]
        return t if self.pos is None else t[self.pos]


_Bucket = namedtuple("_Bucket", "m n chunks live rows padded flat")


class Buckets:
    """A pack's global band in length buckets (length_buckets), with Band's
    methods.

    Each sentence of bucket b is one (m_b, m_b) chunk. The bands lie in
    one flat (S,) buffer, S = sum N_b * m_b, bucket after bucket, each an
    (N_b, m_b) view with its rows in pack order, so the elementwise work
    runs once over the buffer and only products, chunk scatters and
    gathers, and row reductions run once per bucket. One scatter zero-pads
    the rows of every bucket into one buffer whose slices are the chunks.
    """

    def __init__(self, pack, groups):
        lengths = pack.lengths.tolist()
        # each sentence's bucket, and its first row in the padded buffer
        bucket_of, first, tops, at = [0] * pack.b, [0] * pack.b, [], 0
        for i, g in enumerate(groups):
            m = max(lengths[b] for b in g)
            for j, b in enumerate(g):
                bucket_of[b], first[b] = i, at + m * j
            tops.append(m)
            at += m * len(g)
        # band row -> pack row, and pack row -> padded row
        self.rows = np.argsort(np.array(bucket_of)[pack.sentence], kind="stable")
        self.slots = np.array(first)[pack.sentence] + pack.pos
        self.pos = pack.pos[self.rows]
        self.n_padded = at
        self.buckets = []
        r = p = f = 0
        for g, m in zip(groups, tops):
            n = sum(lengths[b] for b in g)
            rows = slice(r, r + n)
            live = None
            if any(lengths[b] < m for b in g):
                live = self.slots[self.rows[rows]] - p
            self.buckets.append(_Bucket(m, n, len(g), live, rows,
                                        slice(p, p + len(g) * m), slice(f, f + n * m)))
            r, p, f = r + n, p + len(g) * m, f + n * m
        self.shape = (f,)
        self.mask = None
        if any(bk.live is not None for bk in self.buckets):
            row_lengths = pack.lengths[pack.sentence][self.rows]
            self.mask = np.concatenate([(np.arange(bk.m) < row_lengths[bk.rows, None]).ravel()
                                        for bk in self.buckets])

    def views(self, band):
        """Each bucket's (N_b, m_b) view of a band buffer."""
        return [band[bk.flat].reshape(bk.n, bk.m) for bk in self.buckets]

    def chunks(self, a):
        buf = _zero_padded(a, self.slots, self.n_padded)
        return [buf[bk.padded].reshape((bk.chunks, bk.m) + a.shape[1:])
                for bk in self.buckets]

    def band_chunks(self, band):
        return [_zero_padded(x, bk.live, bk.chunks * bk.m).reshape(bk.chunks, bk.m, bk.m)
                for bk, x in zip(self.buckets, self.views(band))]

    def band_product(self, xs, ys):
        band = np.empty(self.shape)
        for bk, x, y, out in zip(self.buckets, xs, ys, self.views(band)):
            if bk.live is None:
                np.matmul(x, y.transpose(0, 2, 1), out=out.reshape(bk.chunks, bk.m, bk.m))
            else:
                np.take((x @ y.transpose(0, 2, 1)).reshape(-1, bk.m), bk.live, axis=0,
                        out=out)
        return band

    def row_product(self, xs, ys):
        buf = np.empty((self.n_padded, ys[0].shape[2]))
        for bk, x, y in zip(self.buckets, xs, ys):
            np.matmul(x, y, out=buf[bk.padded].reshape(y.shape))
        return buf[self.slots]

    def reduce_rows(self, ufunc, band):
        return np.concatenate([Band.reduce_rows(ufunc, x) for x in self.views(band)])

    def by_row(self, ufunc, band, r):
        out = np.empty(self.shape)
        for bk, x, o in zip(self.buckets, self.views(band), self.views(out)):
            ufunc(x, r[bk.rows], out=o)
        return out

    def bias_index(self, w, values=None):
        tables = [_rel_bias_index(bk.m, bk.m, w) for bk in self.buckets]
        if values is not None:
            tables = [values[t] for t in tables]
        return np.concatenate([t[self.pos[bk.rows]].ravel()
                               for t, bk in zip(tables, self.buckets)])


@lru_cache(maxsize=256)
def one(n):
    """Pack(n), kept for each of the last 256 lengths asked for, so that
    one-sentence calls (decoding) build each length's layout once. Callers
    share it, so none may write into its arrays."""
    return Pack(n)

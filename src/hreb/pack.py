"""Packed batches: B sentences laid end to end as N rows.

The layout is FlashAttention-2's varlen packing (cu_seqlens; Dao 2023,
arXiv:2307.08691): sentence b holds rows starts[b] to starts[b] +
lengths[b] - 1, and its position p is row starts[b] + p. Position-wise ops
run on the rows as they are. The ops that mix positions (the EMA scan, the
attention bands, the BiLSTM, the CRF and feature_norm) read the sentence
boundaries from a Pack, so no sentence sees another.

Both attention bands are one layout, a Band: buckets of sentences, each
cut into chunks of its bucket's width (Mega's chunked attention, Ma et
al. 2022, arXiv:2209.10655). The local band (band_attention with a
width) is one bucket of every sentence. The global band (no width) runs
in length buckets, the usual cure for padded batches (Khomenko et al.,
IEEE DSMP 2016): taken longest first, a sentence joins the current bucket
while twice its length exceeds the bucket's longest, and else starts the
next one (length_buckets). Bucket b's band is (N_b, m_b), m_b its longest
sentence, so no row is padded to twice its length or more; a band of one
bucket is a plain (N, m) array, and several share one flat buffer. The
layout depends on the lengths alone and each pack keeps it. A bucket
costs about as much as 200-350 band cells: on an Intel Xeon, one BLAS
thread, band_attention's forward and backward (64-wide q and k, 128-wide
v) took 50-100 us longer per extra bucket and 0.26 us less per band cell
saved. perfbench's train_short packs save 700-1000 cells in 2-3 buckets
and train as fast as unbucketed ones, so no bucket is merged back.

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
    def band(self, width):
        """band_attention's layout of this pack, a Band: given a width, one
        bucket of every sentence in chunks of min(width, n_max) rows; with
        width None the global band, length_buckets' groups, each in one
        chunk of its longest sentence."""
        if width is not None:
            return Band(self, [range(self.b)], [min(int(width), self.n_max)])
        groups = length_buckets(self.lengths)
        n = self.lengths.tolist()
        return Band(self, groups, [max(n[s] for s in g) for g in groups])

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


_Bucket = namedtuple("_Bucket", "m top n chunks live rows padded flat")


class Band:
    """The key bands of a pack's rows, as band_attention lays them out.

    The pack's sentences fall into buckets (groups, lists of sentence
    indices in pack order), and bucket b cuts each of its sentences into
    chunks of m_b = widths[b] rows, so a sentence spans ceil(length / m_b)
    chunks, the first starting at its first row. Row i's band is its
    chunk's keys (_band_keys). The local band is one bucket of every
    sentence; the global band is length_buckets' groups, each at its
    longest sentence.

    A bucket's band rows are its sentences' rows in pack order, an
    (N_b, m_b) array. One bucket's band is that array; several lie in one
    flat (S,) buffer, S = sum N_b * m_b, bucket after bucket, so the
    elementwise work runs once over the buffer and only the products, the
    chunk gathers and scatters and the row reductions run once per bucket.
    The chunks are zero-padded rows, bucket after bucket: pack row i is
    padded row slots[i], and slots is None when those are the pack's rows
    (one bucket and no padding). Band row j is pack row rows[j], and rows
    is None for one bucket; pos holds each band row's position in its
    sentence, None for one sentence. mask marks the live keys of a band,
    and is None when no row is padded. A Band keeps no reference to its
    pack, which keeps it.
    """

    def __init__(self, pack, groups, widths):
        lengths = pack.lengths.tolist()
        # each sentence's bucket and first padded row; each bucket's
        # longest sentence, rows and padded rows
        bucket_of, first, sizes, at = [0] * pack.b, [0] * pack.b, [], 0
        for i, (g, m) in enumerate(zip(groups, widths)):
            n, top, start = 0, 0, at
            for s in g:
                bucket_of[s], first[s] = i, at
                at += -(-lengths[s] // m) * m
                n, top = n + lengths[s], max(top, lengths[s])
            sizes.append((top, n, at - start))
        padded = at > pack.n
        self.n_padded = at
        self.rows = self.slots = self.mask = None
        if len(groups) > 1:
            self.rows = np.argsort(np.array(bucket_of)[pack.sentence], kind="stable")
        if padded or self.rows is not None:
            self.slots = np.array(first)[pack.sentence] + pack.pos
        pos = pack.pos if self.rows is None else pack.pos[self.rows]
        self.pos = None if pack.b == 1 else pos
        band_slots = self.slots if self.rows is None else self.slots[self.rows]
        self.buckets = []
        r = p = f = 0
        for m, (top, n, size) in zip(widths, sizes):
            live = None if size == n else band_slots[r:r + n] - p
            self.buckets.append(_Bucket(m, top, n, size // m, live, slice(r, r + n),
                                        slice(p, p + size), slice(f, f + n * m)))
            r, p, f = r + n, p + size, f + n * m
        self.shape = (pack.n, widths[0]) if len(groups) == 1 else (f,)
        if padded:
            row_lengths = pack.lengths[pack.sentence]
            if self.rows is not None:
                row_lengths = row_lengths[self.rows]
            self.mask = self._joined([_band_keys(pos[bk.rows], bk.m) < row_lengths[bk.rows, None]
                                      for bk in self.buckets])

    def _joined(self, bands):
        """One band array of each bucket's (N_b, m_b) band."""
        if len(bands) == 1:
            return bands[0]
        return np.concatenate([x.ravel() for x in bands])

    def views(self, band):
        """Each bucket's (N_b, m_b) view of a band array."""
        if self.rows is None:
            return [band]
        return [band[bk.flat].reshape(bk.n, bk.m) for bk in self.buckets]

    def chunks(self, a):
        """a's (N, d) rows as each bucket's (chunks, m_b, d) chunks."""
        buf = _zero_padded(a, self.slots, self.n_padded)
        return [buf[bk.padded].reshape(bk.chunks, bk.m, -1) for bk in self.buckets]

    def band_chunks(self, band):
        """A band's rows as each bucket's (chunks, m_b, m_b) chunks."""
        return [_zero_padded(x, bk.live, bk.chunks * bk.m).reshape(bk.chunks, bk.m, bk.m)
                for bk, x in zip(self.buckets, self.views(band))]

    def band_product(self, xs, ys):
        """The band of x @ y^T for the chunks x, y of xs and ys."""
        if self.rows is None:
            [bk] = self.buckets
            band = (xs[0] @ ys[0].transpose(0, 2, 1)).reshape(-1, bk.m)
            return band if bk.live is None else band[bk.live]
        band = np.empty(self.shape)
        for bk, x, y, out in zip(self.buckets, xs, ys, self.views(band)):
            if bk.live is None:
                np.matmul(x, y.transpose(0, 2, 1), out=out.reshape(bk.chunks, bk.m, bk.m))
            else:
                np.take((x @ y.transpose(0, 2, 1)).reshape(-1, bk.m), bk.live, axis=0,
                        out=out)
        return band

    def row_product(self, xs, ys):
        """The (N, d) rows of x @ y for the chunks x, (chunks, m_b, m_b),
        of xs and y, (chunks, m_b, d), of ys."""
        if self.rows is None:
            buf = (xs[0] @ ys[0]).reshape(self.n_padded, -1)
        else:
            buf = np.empty((self.n_padded, ys[0].shape[2]))
            for bk, x, y in zip(self.buckets, xs, ys):
                np.matmul(x, y, out=buf[bk.padded].reshape(y.shape))
        return buf if self.slots is None else buf[self.slots]

    def reduce_rows(self, ufunc, band):
        """(N, 1): ufunc's reduction of each band row, in band row order."""
        sums = [ufunc.reduce(x, axis=-1, keepdims=True) for x in self.views(band)]
        return sums[0] if len(sums) == 1 else np.concatenate(sums)

    def by_row(self, ufunc, band, r):
        """ufunc of each band entry and its row's value in r, (N, 1)."""
        if self.rows is None:
            return ufunc(band, r)
        out = np.empty(self.shape)
        for bk, x, o in zip(self.buckets, self.views(band), self.views(out)):
            ufunc(x, r[bk.rows], out=o)
        return out

    def bias_index(self, w, values=None):
        """The band's relative-position bias buckets: the key's offset from
        the row, within their sentence, clipped into [-w, w], plus w; given
        values, the values at those buckets."""
        bands = []
        for bk in self.buckets:
            t = _rel_bias_index(bk.top, bk.m, w)
            if values is not None:
                t = values[t]
            bands.append(t if self.pos is None else t[self.pos[bk.rows]])
        return self._joined(bands)


@lru_cache(maxsize=256)
def one(n):
    """Pack(n), kept for each of the last 256 lengths asked for, so that
    one-sentence calls (decoding) build each length's layout once. Callers
    share it, so none may write into its arrays."""
    return Pack(n)

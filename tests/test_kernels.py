"""Kernel parity against the scalar reference loops in references.KERNELS.

A reference takes one sequence; a batched kernel is checked lane by lane.
"""

import warnings

import numpy as np
import pytest
from scipy.special import erf, expit

from hreb import kernels
from references import KERNELS as REF

# looked up by name: every kernel must stay a module attribute
KERNELS = {name: getattr(kernels, name) for name in REF}


def assert_same(a, b, tol=1e-12):
    """Equal shapes; integers exactly, floats within tol, with matching
    infinities."""
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y, tol)
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    if a.dtype.kind == "i":
        assert np.array_equal(a, b)
        return
    finite = np.isfinite(a)
    assert np.array_equal(finite, np.isfinite(b))
    assert np.array_equal(a[~finite], b[~finite])
    if finite.any():
        assert np.abs(a[finite] - b[finite]).max() < tol


def ema_inputs(rng, n=7, d=3):
    x = rng.standard_normal((n, d))
    alpha = rng.uniform(0.05, 0.95, d)
    h0 = rng.standard_normal(d)
    return x, alpha, h0


def test_ema_forward_parity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, alpha, h0 = ema_inputs(rng)
        assert_same(REF["ema_forward"](x, alpha, h0),
                    KERNELS["ema_forward"](x, alpha, h0))


def check_ema_backward(x, alpha, h0, dout):
    hist = REF["ema_forward"](x, alpha, h0)
    assert_same(REF["ema_backward"](x, alpha, h0, hist, dout),
                KERNELS["ema_backward"](x, alpha, h0, hist, dout))


def test_ema_backward_parity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, alpha, h0 = ema_inputs(rng)
        check_ema_backward(x, alpha, h0, rng.standard_normal(x.shape))


def lstm_inputs(rng, n=6, h=4):
    xw = rng.standard_normal((n, 4 * h))
    u = rng.standard_normal((h, 4 * h)) * 0.3
    b = rng.standard_normal(4 * h) * 0.1
    return xw, u, b


def test_lstm_forward_parity():
    rng = np.random.default_rng(2)
    for _ in range(3):
        xw, u, b = lstm_inputs(rng)
        assert_same(REF["lstm_forward"](xw, u, b), KERNELS["lstm_forward"](xw, u, b))


def check_lstm_backward(xw, u, b, dout, tol=1e-12):
    hidden, gates, cells = REF["lstm_forward"](xw, u, b)
    got = KERNELS["lstm_backward"](gates, cells, hidden, u, dout)
    assert_same(REF["lstm_backward"](gates, cells, hidden, u, dout), got, tol)
    return got


def test_lstm_backward_parity():
    rng = np.random.default_rng(3)
    for _ in range(3):
        xw, u, b = lstm_inputs(rng)
        check_lstm_backward(xw, u, b, rng.standard_normal((xw.shape[0], u.shape[0])))


def crf_inputs(rng, n=5, c=3):
    emissions = rng.standard_normal((n, c))
    trans = rng.standard_normal((c, c))
    start = rng.standard_normal(c)
    stop = rng.standard_normal(c)
    return emissions, trans, start, stop


def one_lane(emissions):
    """One (n, c) sequence as the CRF forward and backward kernels take it:
    (n, 1, c) emissions, and its lengths [n]."""
    return emissions[:, None], np.array([emissions.shape[0]])


def lane_forward(args):
    """crf_forward's (log_z, alpha) for one sequence run as a lane."""
    emissions, trans, start, stop = args
    lane, lengths = one_lane(emissions)
    log_z, alpha = KERNELS["crf_forward"](lane, trans, start, stop, lengths)
    return log_z[0], alpha[:, 0]


def test_crf_forward_parity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        args = crf_inputs(rng)
        assert_same(REF["crf_forward"](*args), lane_forward(args))


def check_crf(args, tol=1e-12):
    """Forward, backward (from the reference's alpha) and Viterbi parity:
    the reference on the (n, c) sequence, the kernels on it as one lane.

    Returns the kernel's gradients, with demis as (n, c)."""
    emissions, trans, start, stop = args
    log_z, alpha = REF["crf_forward"](*args)
    assert_same((log_z, alpha), lane_forward(args), tol)
    lane, lengths = one_lane(emissions)
    demis, *dparams = KERNELS["crf_backward"](
        lane, trans, stop, alpha[:, None], np.array([log_z]), np.array([0.7]), lengths)
    got = (demis[:, 0], *dparams)
    assert_same(REF["crf_backward"](emissions, trans, stop, alpha, log_z, 0.7),
                got, tol)
    assert_same(REF["viterbi"](*args), KERNELS["viterbi"](*args), tol)
    return got


def test_crf_backward_parity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        check_crf(crf_inputs(rng))


def test_viterbi_parity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        args = crf_inputs(rng, n=int(rng.integers(1, 7)), c=int(rng.integers(1, 5)))
        path_r, score_r = REF["viterbi"](*args)
        path_i, score_i = KERNELS["viterbi"](*args)
        assert np.array_equal(path_r, path_i)
        assert abs(score_r - score_i) < 1e-12


def test_single_step_parity():
    # n = 1: no CRF transition pairs and no LSTM recurrence, so dtrans and
    # du must come out exactly zero
    rng = np.random.default_rng(8)
    x, alpha, h0 = ema_inputs(rng, n=1)
    assert_same(REF["ema_forward"](x, alpha, h0), KERNELS["ema_forward"](x, alpha, h0))
    check_ema_backward(x, alpha, h0, rng.standard_normal(x.shape))
    xw, u, b = lstm_inputs(rng, n=1)
    _, du, _ = check_lstm_backward(xw, u, b, rng.standard_normal((1, 4)))
    assert not du.any()
    _, dtrans, _, _ = check_crf(crf_inputs(rng, n=1))
    assert not dtrans.any()


def test_width_one_parity():
    # one class (c = 1), one LSTM unit (h = 1), one EMA feature (d = 1)
    rng = np.random.default_rng(9)
    x, alpha, h0 = ema_inputs(rng, n=6, d=1)
    assert_same(REF["ema_forward"](x, alpha, h0), KERNELS["ema_forward"](x, alpha, h0))
    check_ema_backward(x, alpha, h0, rng.standard_normal(x.shape))
    xw, u, b = lstm_inputs(rng, n=6, h=1)
    assert_same(REF["lstm_forward"](xw, u, b), KERNELS["lstm_forward"](xw, u, b))
    check_lstm_backward(xw, u, b, rng.standard_normal((6, 1)))
    path, _ = KERNELS["viterbi"](*crf_inputs(rng, n=6, c=1))
    assert not path.any()
    check_crf(crf_inputs(rng, n=6, c=1))


def test_viterbi_ties_pick_the_lowest_class():
    # all-zero potentials make every path a maximizer; the kernel and its
    # reference must both return the all-zeros path
    zeros = (np.zeros((5, 4)), np.zeros((4, 4)), np.zeros(4), np.zeros(4))
    for table in (REF, KERNELS):
        path, score = table["viterbi"](*zeros)
        assert np.array_equal(path, np.zeros(5, dtype=np.int64))
        assert score == 0.0


def test_strict_mask_parity():
    # -inf rows and columns as the strict BIO mask writes them: class 1 can
    # follow no class and class 2 can be followed by none, and the start
    # state cannot reach class 3
    rng = np.random.default_rng(10)
    emissions, trans, start, stop = crf_inputs(rng, n=6, c=5)
    trans[:, 1] = -np.inf
    trans[2, :] = -np.inf
    start[3] = -np.inf
    demis, dtrans, dstart, _ = check_crf((emissions, trans, start, stop))
    assert not dtrans[:, 1].any() and not dtrans[2].any()
    assert dstart[3] == 0.0 and not demis[1:, 1].any()
    path, _ = KERNELS["viterbi"](emissions, trans, start, stop)
    assert path[0] != 3 and 1 not in path[1:] and 2 not in path[:-1]


def test_long_document_parity():
    """n = 272, the length of the longest document perfbench decodes.

    Every pairwise posterior is exp of a sum of terms as large as |log_z|
    (hundreds at this length), and dtrans sums n - 1 of them in a different
    order from the loop, so the CRF tolerance scales with |log_z|: an
    absolute 1e-12 would reject correct code (3.7e-12 absolute was measured
    here with another valid grouping of the additions).
    """
    n = 272
    rng = np.random.default_rng(11)
    x, alpha, h0 = ema_inputs(rng, n=n, d=16)
    check_ema_backward(x, alpha, h0, rng.standard_normal(x.shape))
    xw, u, b = lstm_inputs(rng, n=n, h=16)
    check_lstm_backward(xw, u, b, rng.standard_normal((n, 16)))
    args = crf_inputs(rng, n=n, c=7)
    log_z, _ = REF["crf_forward"](*args)
    assert abs(log_z) > 100
    check_crf(args, tol=1e-12 * max(1.0, abs(log_z)))


def test_crf_forward_tolerates_minus_inf_transitions():
    # forbidden transitions carry -inf potentials; the log-space scan must
    # route mass around them without producing NaN
    args = (np.zeros((3, 2)), np.array([[0.0, -np.inf], [0.0, 0.0]]),
            np.zeros(2), np.zeros(2))
    trans = args[1]
    assert np.isfinite(REF["crf_forward"](*args)[0])
    assert np.isfinite(lane_forward(args)[0])
    for table in (REF, KERNELS):
        path, score = table["viterbi"](*args)
        assert np.isfinite(score)
        assert not any(trans[path[t], path[t + 1]] == -np.inf
                       for t in range(len(path) - 1))


@pytest.fixture
def log_space_runs(monkeypatch):
    """The emission shapes of each run of the CRF scans' log-space fallback
    (kernels._alpha_log); the scaled scan runs everywhere else."""
    runs = []
    fallback = kernels._alpha_log

    def counted(emissions, trans, edge):
        runs.append(emissions.shape)
        return fallback(emissions, trans, edge)
    monkeypatch.setattr(kernels, "_alpha_log", counted)
    return runs


def bound_inputs(rng, gap=0.0, span=0.0):
    """n = 6, c = 3 CRF inputs with a -inf strict-mask column. Row 3's
    emissions span gap nats, the others under 2. With span, class 1 is
    entered only from class 0, at -span."""
    emissions, trans, start, stop = crf_inputs(rng, n=6, c=3)
    emissions = np.clip(emissions, -1.0, 1.0)
    trans = np.clip(trans, -1.0, 1.0)
    start, stop = np.clip(start, -1.0, 1.0), np.clip(stop, -1.0, 1.0)
    emissions[3] = [0.0, 0.5, -gap]
    trans[:, 1] = -np.inf
    if span:
        trans[0, 1] = -span
    return emissions, trans, start, stop


def test_crf_parity_on_either_side_of_the_scaled_bound(log_space_runs):
    # beyond the bound the scaled scan would underflow entries that log
    # space keeps finite, so both kernels run the log-space loop there;
    # just inside it they run scaled, with an entry ~e^-706 below its row
    rng = np.random.default_rng(25)
    beyond = [bound_inputs(rng, gap=800.0), bound_inputs(rng, span=750.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in beyond:
            check_crf(args)
        assert len(log_space_runs) == 2 * len(beyond)
        # k = 1 here, so the bound is span + log 3 + the widest row's
        # range: row 3's is set 1 nat inside it
        args = bound_inputs(rng)
        emissions, trans, start, stop = args
        span = max(np.ptp(trans[np.isfinite(trans)]), np.ptp(start), np.ptp(stop))
        emissions[3, 2] = 0.5 - (kernels.SCALED_LIMIT - 1.0 - span - np.log(3.0))
        check_crf(args)
    assert len(log_space_runs) == 2 * len(beyond)
    alpha = lane_forward(args)[1]
    assert alpha[3, 2] - alpha[3].max() < -700.0


def lane_sums(per_lane):
    """The parameter gradients (every result after the first) of each lane's
    reference run, summed over the lanes."""
    return tuple(sum(r[i] for r in per_lane) for i in range(1, len(per_lane[0])))


def test_batched_kernels_match_each_lane_run_alone(log_space_runs):
    # a (T, B, ...) batch with ragged lengths, one lane a single step: each
    # lane [:, b], cut to [:n] for the CRF, equals the reference run on it
    # alone, and parameter gradients are the sum of the lanes'
    T, lengths = 9, np.array([9, 1, 5, 8])
    B = lengths.size
    rng = np.random.default_rng(12)
    x = rng.standard_normal((T, B, 3))
    alpha, h0 = rng.uniform(0.05, 0.95, 3), rng.standard_normal(3)
    hist = KERNELS["ema_forward"](x, alpha, h0)
    dout = rng.standard_normal(x.shape)
    dx, *dparams = KERNELS["ema_backward"](x, alpha, h0, hist, dout)
    want = [REF["ema_backward"](x[:, lane], alpha, h0, hist[:, lane], dout[:, lane])
            for lane in range(B)]
    for lane in range(B):
        assert_same(REF["ema_forward"](x[:, lane], alpha, h0), hist[:, lane])
        assert_same(want[lane][0], dx[:, lane])
    assert_same(lane_sums(want), tuple(dparams))

    xw = rng.standard_normal((T, B, 16))
    u, b = rng.standard_normal((4, 16)) * 0.3, rng.standard_normal(16) * 0.1
    hidden, gates, cells = KERNELS["lstm_forward"](xw, u, b)
    dout = rng.standard_normal((T, B, 4))
    dxw, *dparams = KERNELS["lstm_backward"](gates, cells, hidden, u, dout)
    want = [REF["lstm_backward"](gates[:, lane], cells[:, lane], hidden[:, lane], u,
                                 dout[:, lane]) for lane in range(B)]
    for lane in range(B):
        assert_same(REF["lstm_forward"](xw[:, lane], u, b),
                    (hidden[:, lane], gates[:, lane], cells[:, lane]))
        assert_same(want[lane][0], dxw[:, lane])
    assert_same(lane_sums(want), tuple(dparams))

    check_crf_lanes(rng, lengths)
    # long ragged lanes, at test_long_document_parity's tolerance: each lane
    # of the backward scan starts from its own last step
    check_crf_lanes(rng, np.array([256, 136, 17, 1]), log_z_tol=True)
    assert not log_space_runs


def check_crf_lanes(rng, lengths, log_z_tol=False):
    """The CRF kernels on a (T, B, 4) batch with ragged lengths and a
    strict-mask column: each lane [:n] equals the reference run on it alone,
    and the parameter gradients are the sum of the lanes'. The tolerance is
    1e-12, or with log_z_tol 1e-12 * max(1, |log_z|) over the lanes."""
    T, B = lengths.max(), lengths.size
    emissions, trans, start, stop = crf_inputs(rng, n=T * B, c=4)
    emissions = emissions.reshape(T, B, 4)
    trans[:, 1] = -np.inf  # a strict-mask column
    log_z, alpha_c = KERNELS["crf_forward"](emissions, trans, start, stop, lengths)
    tol = 1e-12 * max(1.0, np.abs(log_z).max()) if log_z_tol else 1e-12
    gscale = rng.standard_normal(B)
    demis, *dparams = KERNELS["crf_backward"](
        emissions, trans, stop, alpha_c, log_z, gscale, lengths)
    want = [REF["crf_backward"](emissions[:n, lane], trans, stop, alpha_c[:n, lane],
                                log_z[lane], gscale[lane])
            for lane, n in enumerate(lengths)]
    for lane, n in enumerate(lengths):
        assert_same(REF["crf_forward"](emissions[:n, lane], trans, start, stop),
                    (log_z[lane], alpha_c[:n, lane]), tol)
        assert_same(want[lane][0], demis[:n, lane], tol)
        assert np.all(alpha_c[n:, lane] == -np.inf) and not demis[n:, lane].any()
    assert_same(lane_sums(want), tuple(dparams), tol)


def test_sigmoid_is_exact_and_quiet_at_the_edges_and_takes_0d_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = kernels.sigmoid(np.array([1000.0, -1000.0]))
    assert edges[0] == 1.0 and edges[1] == 0.0
    # a 0-d input (the Laplace squash's scale parameter) gives a 0-d array
    y = kernels.sigmoid(np.array(0.3))
    assert isinstance(y, np.ndarray) and y.shape == ()
    assert abs(float(y) - expit(0.3)) <= 2.3e-16
    out = np.empty(3)
    assert kernels.sigmoid(np.array([-1.0, 0.0, 1.0]), out=out) is out


def test_sigmoid_matches_scipy_expit():
    xs = np.random.default_rng(19).standard_normal(100_000) * 12.0
    assert np.abs(kernels.sigmoid(xs) - expit(xs)).max() <= 2.3e-16


# erf against scipy.special.erf, which evaluates the same Cephes
# polynomials; one ulp below 1 is 1.1e-16, so a bound of 1.2e-16 allows a
# last-bit difference (numpy's exp against libm's) and nothing more: a
# mistyped coefficient shows as an error above 1e-15.
ERF_TOL = 1.2e-16
ERF_GRID = np.linspace(-10.0, 10.0, 2_000_001)


def assert_erf_close(u):
    got, want = kernels.erf(u), erf(u)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    if np.size(want):
        assert np.nanmax(np.abs(np.asarray(got) - want)) <= ERF_TOL


def test_erf_matches_scipy_on_a_dense_grid():
    assert_erf_close(ERF_GRID)
    # for |u| <= 1 no exp enters, so a coefficient typo down to the last
    # bit shows: there the kernel has scipy's bits exactly
    inner = ERF_GRID[np.abs(ERF_GRID) <= 1.0]
    assert np.array_equal(kernels.erf(inner), erf(inner))


def test_erf_keeps_the_sign_of_zero_and_reads_the_limits_at_infinity():
    got = kernels.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert got[1] == 0.0 and np.signbit(got[1])
    assert got[2] == 1.0 and got[3] == -1.0
    assert np.isnan(got[4])


def test_erf_of_subnormals_has_scipys_bits():
    tiny = np.array([5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308])
    got, want = kernels.erf(tiny), erf(tiny)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_erf_on_either_side_of_where_it_rounds_to_one_and_of_its_cutoff():
    steps = np.arange(-50, 51)
    u = np.concatenate([v + steps * np.spacing(v)
                        for v in (5.9216, kernels.ERF_SATURATION)])
    assert_erf_close(np.concatenate([u, -u]))
    past = u[u >= kernels.ERF_SATURATION]
    assert np.all(kernels.erf(past) == 1.0) and np.all(kernels.erf(-past) == -1.0)


def test_scipys_erf_is_exactly_one_past_the_kernels_cutoff():
    # the entries the kernel never evaluates must be ones erf rounds to +-1
    past = ERF_GRID[np.abs(ERF_GRID) >= kernels.ERF_SATURATION]
    assert past.size > 0
    assert np.array_equal(erf(past), np.sign(past))


def test_erf_takes_any_shape_and_layout():
    rng = np.random.default_rng(24)
    block = rng.normal(0.0, 4.0, (6, 9))
    for u in (np.array(0.3), np.array(-7.5), block[0], block, block.T,
              block[::2, ::3], np.empty(0), np.empty((0, 4))):
        assert_erf_close(u)
    assert np.ndim(kernels.erf(np.array(0.3))) == 0

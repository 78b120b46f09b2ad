"""Built-in correctness suites: gradients, CRF inference, EMA algebra.

Each suite returns CheckResult rows; the verify CLI command prints them and
fails if any check fails. Failing numeric checks embed their inputs at full
precision so a case can be replayed in isolation.
"""

from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import crf as crf_mod
from . import oracles
from .config import CHOICES, RunConfig
from .data import Vocab, Sentence
from .encoders import embed_tokens
from .gradcheck import finite_diff_params
from .model import HrebModel
from .moving_average import EmaState, multihead_ema
from .pack import Pack, one

SUITES = ("grad", "crf", "ema")
# the largest relative gradient error a finite-difference check passes
GRAD_TOL = 1e-4
# random CRFs that crf_suite checks against enumeration
CRF_INSTANCES = 200


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = passed
        self.detail = detail


def _dump(**arrays):
    parts = []
    for name, arr in arrays.items():
        parts.append(f"{name}={np.array_repr(np.asarray(arr), precision=17)}")
    return "; replay with " + ", ".join(parts)


# ----------------------------------------------------------------- gradients

def op_grad_cases():
    """(op, {input name: spec}, build), and for band_attention also the
    attn_fn, and for its global-band rows "global band", that its entries'
    details name, per differentiable op.

    A spec is a shape, drawn standard normal, or a function of the case's
    generator. build(tape, *tensors) returns the op output in the inputs'
    order. The ops that see sentence boundaries run on a ragged pack of
    three sentences, one of them a single token.
    """
    n, d, h, n_classes = 3, 4, 3, 3
    # the ops that see sentence boundaries run on this ragged pack; with
    # band width 2 its first sentence ends in a one-key chunk, and its
    # second is a single token
    rag = Pack([3, 1, 4])
    band_m = 2
    nd, rd = (n, d), (rag.n, d)

    def uniform(lo, hi, shape):
        return lambda rng: rng.uniform(lo, hi, shape)

    def crf_trans(rng):
        t = crf_mod.CrfParams(n_classes).trans.data
        finite = np.isfinite(t)
        t[finite] = rng.standard_normal(t.shape)[finite]
        return t

    # band offsets run from -1 to 1: every bucket of a width-1 bias. At
    # scale 0.5, |scale * q . k| <= 0.4 stays below every bias, so every
    # score, and with it every reduced_laplace row sum, is positive at any
    # seed.
    attn = {"q": uniform(-0.2, 0.2, rd), "k": uniform(-1.0, 1.0, rd), "v": rd,
            "bias": uniform(0.5, 1.0, 3), "mu": lambda rng: 0.3,
            "sigma": lambda rng: -0.8}
    crf_in = {"emissions": (rag.n, n_classes), "trans": crf_trans}
    path = np.array([1, 0, 2, 2, 0, 1, 1, 2])
    # bilstm_seq's inputs in argument order: x, then each direction's w, u, b
    lstm = {"x": rd}
    for lane in ("f", "b"):
        lstm.update({"w_" + lane: (d, 4 * h), "u_" + lane: (h, 4 * h),
                     "b_" + lane: 4 * h})
    # gated_merge's values are 5 wide
    merge = dict(zip(
        ("x", "z", "o", "w_gamma", "b_gamma", "w_phi", "b_phi", "w_h", "u_h", "b_h"),
        (nd, nd, (n, 5), (d, 5), 5, (d, d), d, (d, d), (5, d), d)))

    cases = [
        ("add", {"a": nd, "bias": d}, ad.add),
        ("sub", {"a": nd, "b": nd}, ad.sub),
        ("mul", {"a": nd, "b": d}, ad.mul),
        ("scale", {"a": nd}, lambda t, x: ad.scale(t, x, 1.7)),
        ("matmul", {"a": nd, "b": (d, d)}, ad.matmul),
        ("linear", {"x": nd, "w": (d, d), "b": d}, ad.linear),
        ("linear_silu", {"x": nd, "w": (d, d), "b": d},
         lambda t, xs, w, bs: ad.linear_silu(t, xs, w, bs, "paper")),
        # the other silu variant, so each has its check
        ("gated_merge", merge, lambda t, *ts: ad.gated_merge(t, *ts, "standard")[0]),
        ("weighted_sum", {"a": uniform(0, 1, (1, d)), "f": nd,
                          "b": uniform(0, 1, (1, d)), "x": nd}, ad.weighted_sum),
        ("affine", {"x": nd, "scale": uniform(0.5, 1.5, d), "shift": d}, ad.affine),
        ("repeat_entries", {"a": d}, lambda t, x: ad.repeat_entries(t, x, 3)),
        ("sum_all", {"a": nd}, ad.sum_all),
        ("sigmoid", {"a": nd}, ad.sigmoid),
        ("layer_norm", {"x": nd, "gain": uniform(0.5, 1.5, d), "bias": d},
         ad.layer_norm),
        ("feature_norm", {"x": rd, "gain": uniform(0.5, 1.5, d), "bias": d},
         lambda t, xs, g, bs: ad.feature_norm(t, xs, g, bs, pack=rag)),
        ("ema_scan", {"x": rd, "alpha": uniform(0.1, 0.9, d), "h0": d},
         lambda t, xs, al, h0: ad.ema_scan(t, xs, al, h0, rag)),
        ("bilstm_seq", lstm, lambda t, *ts: ad.bilstm_seq(t, *ts, pack=rag)),
        ("crf_log_z", crf_in,
         lambda t, e, tr: ad.crf_log_z(t, e, tr, n_classes, pack=rag)),
        ("crf_path_score", crf_in,
         lambda t, e, tr: ad.crf_path_score(t, e, tr, path, n_classes, pack=rag)),
        # id 3 repeats, so its row's gradient must accumulate
        ("embed_tokens", {"table": (5, d)},
         lambda t, tb: embed_tokens(t, [3, 2, 3], SimpleNamespace(table=tb, pad_id=0))),
    ]
    # band_attention under each attn_fn; mu and sigma enter no softmax, so
    # there their gradients must be zero
    cases += [("band_attention", attn,
               lambda t, *ts, f=f: ad.band_attention(t, *ts, 0.5, band_m, f, rag)[0], f)
              for f in CHOICES["attn_fn"]]
    # and over the global band of a pack in three length buckets, none in
    # pack order: [7, 5], whose 5 is padded, [3] and the single token [1].
    # sigma_raw is held fixed: its gradient is one sum over the whole band,
    # which the rows above check.
    skew = Pack([3, 1, 7, 5])
    sd = (skew.n, d)
    sigma = ad.Tensor(-0.8)
    attn_global = dict(attn, q=uniform(-0.2, 0.2, sd), k=uniform(-1.0, 1.0, sd), v=sd)
    del attn_global["sigma"]
    cases += [("band_attention", attn_global,
               lambda t, q, k, v, b, mu, f=f: ad.band_attention(
                   t, q, k, v, b, mu, sigma, 0.5, None, f, skew)[0], f, "global band")
              for f in CHOICES["attn_fn"]]
    return cases


def op_grad_inputs(seed, case):
    """{input name: array} of one op_grad_cases case, drawn from its own
    generator, seeded by seed and the case's name (op and attn_fn): adding
    or removing a case leaves every other case's inputs as they were."""
    op, specs, _, *under = case
    rng = np.random.default_rng([seed, *" ".join([op, *under]).encode()])
    return {k: spec(rng) if callable(spec) else rng.standard_normal(spec)
            for k, spec in specs.items()}


def op_grad_checks(seed=0):
    """Finite-difference check of every case of op_grad_cases, one entry
    per (op, input) pair, and per attn_fn and band for band_attention.

    The inputs come from op_grad_inputs, so a row's printed error does not
    change when another case is added or removed. The loss is a fixed
    random weighting of the op output, so every output entry influences
    the scalar.
    """
    results = []
    for case in op_grad_cases():
        op, _, build, *under = case
        inputs = op_grad_inputs(seed, case)
        tensors = [ad.Tensor(np.array(v, dtype=np.float64), requires_grad=True,
                             name=k) for k, v in inputs.items()]
        shape = build(None, *tensors).data.shape
        w = ad.Tensor(np.random.default_rng(seed + 1).standard_normal(shape)
                      if shape else 1.0)

        def loss(tape):
            return ad.sum_all(tape, ad.mul(tape, build(tape, *tensors), w))

        errs = finite_diff_params(loss, tensors)
        for name, err in errs.items():
            detail = f"max rel err {err:.3g} (tol {GRAD_TOL:g})"
            if under:
                detail += " under " + ", ".join(under)
            if err > GRAD_TOL:
                detail += _dump(**{name: inputs[name]})
            label = op if len(inputs) == 1 else f"{op}/{name}"
            results.append(CheckResult(f"grad {label}", err <= GRAD_TOL, detail))
    return results


def _tiny_vocab():
    sents = [Sentence(list("abcde"), ["O", "B-T0", "I-T0", "O", "O"]),
             Sentence(list("fgdba"), ["B-T0", "I-T0", "O", "B-T0", "O"])]
    return Vocab(sents), sents


def model_grad_check(seed=0, **switches):
    """Finite-difference check of the whole model's parameter gradients,
    on the summed losses of a ragged pack of two sentences.

    switches are RunConfig keys set next to the fixed small dims; every
    other key keeps its default. Returns (worst rel err, {param: rel err}).
    """
    cfg = RunConfig(d_model=8, v_dim=16, n_ema_head=2, chunk_size=2,
                    rel_bias_window=4, h_lstm=5, seed=seed, **switches)
    vocab, sents = _tiny_vocab()
    model = HrebModel(cfg, vocab)
    rng = np.random.default_rng(seed + 7)
    # nonzero caches so the dynamic-gate path is exercised off its fixed point
    for gs in model.gate_states():
        gs.cache_f = rng.normal(0.0, 0.1, gs.cache_f.shape)
        gs.cache_x = rng.normal(0.0, 0.1, gs.cache_x.shape)
    # both sentences as one ragged pack: the second cut to 3 tokens
    ids = [vocab.encode_tokens(sents[0].tokens), vocab.encode_tokens(sents[1].tokens[:3])]
    tag_ids = [vocab.encode_tags(sents[0].tags), vocab.encode_tags(sents[1].tags[:3])]

    def build(tape):
        return ad.sum_all(tape, model.sentence_nll(tape, ids, tag_ids))

    errs = finite_diff_params(build, model.params())
    return max(errs.values()), errs


def grad_suite(seed=0):
    results = op_grad_checks(seed=seed)
    worst, errs = model_grad_check(seed=seed)
    name = max(errs, key=errs.get)
    results.append(CheckResult(
        "grad full model", worst <= GRAD_TOL,
        f"worst param {name}: rel err {worst:.3g} (tol {GRAD_TOL:g})"))
    return results


# ----------------------------------------------------------------------- crf

def _random_crf(rng):
    n = int(rng.integers(1, 7))
    c = int(rng.integers(1, 5))
    emissions = rng.standard_normal((n, c))
    params = crf_mod.CrfParams(c)
    for view in ad.split_transitions(params.trans.data, c):
        view[...] = rng.standard_normal(view.shape)
    return emissions, params


def crf_suite(seed=0):
    """Exact-inference agreement with brute-force path enumeration."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    path_fail = None
    for i in range(CRF_INSTANCES):
        emissions, params = _random_crf(rng)
        core, start, stop = ad.split_transitions(params.trans.data, params.n_classes)
        log_z_ref, best_ref, _ = oracles.crf_enumerate(emissions, core, start, stop)
        log_z = float(crf_mod.log_partition(None, ad.Tensor(emissions), params,
                                            one(len(emissions))).data)
        worst_z = max(worst_z, abs(log_z - log_z_ref))
        path, _ = crf_mod.viterbi(emissions, params)
        if path_fail is None and not np.array_equal(path, best_ref):
            path_fail = (i, emissions, params.trans.data, path, best_ref)
    results = [CheckResult(
        "crf log partition vs enumeration", worst_z <= 1e-8,
        f"max |dlogZ| {worst_z:.3g} over {CRF_INSTANCES} instances (tol 1e-08)")]
    if path_fail is None:
        results.append(CheckResult(
            "crf viterbi vs enumeration", True,
            f"paths identical on {CRF_INSTANCES} instances"))
    else:
        i, emissions, trans, got, want = path_fail
        results.append(CheckResult(
            "crf viterbi vs enumeration", False,
            f"instance {i}: got {got.tolist()}, want {want.tolist()}"
            + _dump(emissions=emissions, trans=trans)))

    # posterior marginals = gradient of logZ
    worst_m = 0.0
    for i in range(30):
        emissions, params = _random_crf(rng)
        core, start, stop = ad.split_transitions(params.trans.data, params.n_classes)
        unary, pair, first, last = oracles.crf_enumerate_marginals(
            emissions, core, start, stop)
        tape = ad.Tape()
        e = ad.Tensor(emissions, requires_grad=True, name="e")
        lz = crf_mod.log_partition(tape, e, params, one(len(emissions)))
        grads = ad.backward(tape, lz)
        dcore, dstart, dstop = ad.split_transitions(grads[params.trans.id],
                                                    params.n_classes)
        worst_m = max(worst_m,
                      float(np.abs(grads[e.id] - unary).max()),
                      float(np.abs(dcore - pair).max()),
                      float(np.abs(dstart - first).max()),
                      float(np.abs(dstop - last).max()))
    results.append(CheckResult(
        "crf marginals vs enumeration", worst_m <= 1e-8,
        f"max marginal err {worst_m:.3g} over 30 instances (tol 1e-08)"))

    # per-position emission shifts cancel in the conditional likelihood
    worst_shift = 0.0
    worst_rowsum = 0.0
    for i in range(30):
        emissions, params = _random_crf(rng)
        n, c = emissions.shape
        gold = rng.integers(0, c, n)
        nll0 = float(crf_mod.crf_nll(None, ad.Tensor(emissions), gold, params,
                                     one(n)).data)
        shifted = emissions + rng.standard_normal((n, 1))
        nll1 = float(crf_mod.crf_nll(None, ad.Tensor(shifted), gold, params,
                                     one(n)).data)
        worst_shift = max(worst_shift, abs(nll1 - nll0))
        tape = ad.Tape()
        e = ad.Tensor(emissions, requires_grad=True, name="e")
        nll = crf_mod.crf_nll(tape, e, gold, params, one(n))
        grads = ad.backward(tape, nll)
        worst_rowsum = max(worst_rowsum,
                           float(np.abs(grads[e.id].sum(axis=1)).max()))
    results.append(CheckResult(
        "crf nll emission-shift invariance", worst_shift <= 1e-9,
        f"max |dnll| {worst_shift:.3g} over 30 instances (tol 1e-09)"))
    results.append(CheckResult(
        "crf nll emission grad row sums", worst_rowsum <= 1e-9,
        f"max |row sum| {worst_rowsum:.3g} over 30 instances (tol 1e-09)"))
    return results


# ----------------------------------------------------------------------- ema

def ema_suite(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 7, 33, 64):
        x = rng.standard_normal((n, 3))
        alpha = rng.uniform(0.05, 0.95, 3)
        h0 = rng.standard_normal(3)
        got = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(alpha), ad.Tensor(h0),
                          one(n)).data
        ref = oracles.ema_closed_form(x, alpha, h0)
        worst = max(worst, float(np.abs(got - ref).max()))
    results = [CheckResult(
        "ema scan vs closed form", worst <= 1e-12,
        f"max abs err {worst:.3g} up to t=64 (tol 1e-12)")]

    x = rng.standard_normal((9, 4))
    got = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(np.ones(4)),
                      ad.Tensor(rng.standard_normal(4)), one(9)).data
    exact = bool(np.array_equal(got, x))
    results.append(CheckResult(
        "ema alpha=1 pass-through", exact,
        "output is bitwise the input" if exact else "output differs from input"))

    d = 4
    state = EmaState(d, 1, np.random.default_rng(seed + 1))
    state.w_down.data = np.eye(d)
    state.w_up.data = np.eye(d)
    alpha = 0.37
    state.alpha_raw.data = np.array([np.log(alpha / (1 - alpha))])
    x = rng.standard_normal((11, d))
    got = multihead_ema(None, ad.Tensor(x), state, one(11)).data
    ref = ad.ema_scan(None, ad.Tensor(x), ad.Tensor(np.full(d, alpha)),
                      ad.Tensor(np.zeros(d)), one(11)).data
    err = float(np.abs(got - ref).max())
    results.append(CheckResult(
        "ema one-head identity reduction", err <= 1e-12,
        f"max abs err {err:.3g} vs plain scan (tol 1e-12)"))
    return results


def run_suites(which="all"):
    """Run the requested suites; returns (all_passed, results)."""
    if which == "all":
        names = SUITES
    elif which in SUITES:
        names = (which,)
    else:
        raise ValueError(f"unknown suite {which!r}: pick from {('all',) + SUITES}")
    results = []
    for name in names:
        results.extend({"grad": grad_suite, "crf": crf_suite,
                        "ema": ema_suite}[name]())
    return all(r.passed for r in results), results

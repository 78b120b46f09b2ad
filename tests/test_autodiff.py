"""Tape, ops, and backward semantics."""

import ast
import math
import pathlib
import re
import weakref

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import crf, verify
from hreb.errors import DegenerateRowError, NumericsError, VerificationError
from hreb.gradcheck import DIRECTIONS, finite_diff_params
from hreb.pack import one


def erf_series(x, terms=40):
    """Maclaurin series for erf, accurate to well under 1e-12 for |x| <= 3."""
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


def scalar(x, requires_grad=False):
    return ad.Tensor(np.float64(x), requires_grad=requires_grad)


def test_tensor_coerces_to_float64():
    t = ad.Tensor(np.array([1, 2, 3], dtype=np.int32))
    assert t.data.dtype == np.float64


def test_tensor_ids_are_unique_and_increasing():
    a, b, c = ad.Tensor(1.0), ad.Tensor(2.0), ad.Tensor(3.0)
    assert a.id < b.id < c.id


def test_record_op_rejects_nonfinite_output_naming_the_op():
    tape = ad.Tape()
    x = ad.Tensor(np.array([1e200]), requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError) as e:
            ad.mul(tape, x, x)
    assert str(e.value) == "op 'mul' produced non-finite values"


def test_constant_inputs_may_carry_minus_inf():
    # -inf is legal in data (masks, forbidden transitions); only op OUTPUTS
    # must stay finite: class 0 may not follow class 0, so three of the
    # four paths over two all-zero rows are left
    params = crf.CrfParams(2)
    params.trans.data[0, 0] = -np.inf
    out = crf.log_partition(None, ad.Tensor(np.zeros((2, 2))), params, one(2))
    assert abs(float(out.data) - math.log(3.0)) < 1e-12


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.mul(tape, x, x)
    with pytest.raises(ValueError):
        ad.backward(tape, y)


def test_backward_accumulates_grad_oncem_per_tensor():
    # x feeds two ops; its gradient must equal the true total, not double-count
    tape = ad.Tape()
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(tape, ad.mul(tape, x, x), x)  # x^2 + x -> dy/dx = 2x + 1
    loss = ad.sum_all(tape, y)
    grads = ad.backward(tape, loss)
    assert np.allclose(grads[x.id], [5.0])


def test_backward_keep_retains_intermediate_gradients():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    grads = []
    for keep in (True, False):
        # a tape is swept once, so each sweep records its own
        tape = ad.Tape()
        mid = ad.mul(tape, x, x)
        loss = ad.sum_all(tape, mid)
        grads.append((mid.id, ad.backward(tape, loss, keep=(mid.id,) if keep else ())))
    (kept_id, kept), (dropped_id, dropped) = grads
    assert np.allclose(kept[kept_id], [1.0, 1.0])
    assert dropped_id not in dropped
    assert np.array_equal(kept[x.id], dropped[x.id])


def test_backward_frees_each_record_once_swept():
    # The sweep runs the later record first. By the time the earlier one's
    # backward runs, the array that only the later one's closure held is
    # gone, and the tape ends empty.
    tape = ad.Tape()
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    seen = []

    def times(c):
        def bw(g):
            seen.append(held() is None)
            return (g * c,)
        return bw

    first = ad.record_op(tape, "first", (x,), x.data * 2.0, times(2.0))
    saved = np.full(2, 3.0)
    held = weakref.ref(saved)
    second = ad.record_op(tape, "second", (first,), first.data * saved, times(saved))
    del saved
    assert held() is not None
    grads = ad.backward(tape, ad.sum_all(tape, second))
    assert seen == [False, True]
    assert tape.records == []
    assert held() is None
    assert np.array_equal(grads[x.id], [6.0, 6.0])


def test_broadcast_gradients_unbroadcast_correctly():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 4))
    b = ad.Tensor(rng.standard_normal(4), requires_grad=True, name="b")

    def build(tape):
        out = ad.add(tape, ad.Tensor(a0), b)
        return ad.sum_all(tape, ad.mul(tape, out, out))

    assert finite_diff_params(build, [b])["b"] < 1e-8


def test_matmul_rejects_bad_shapes_naming_them():
    with pytest.raises(ValueError) as e:
        ad.matmul(None, ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_sigmoid_saturates_exactly_at_large_inputs():
    out = ad.sigmoid(None, ad.Tensor(np.array([1000.0, -1000.0])))
    assert out.data[0] == 1.0
    assert out.data[1] == 0.0


def silu(xs, variant):
    """silu of each entry of xs, through linear_silu's one-feature identity."""
    col = ad.Tensor(np.reshape(xs, (-1, 1)))
    return ad.linear_silu(None, col, ad.Tensor(np.ones((1, 1))),
                          ad.Tensor(np.zeros(1)), variant).data[:, 0]


def test_frozen_activation_values():
    assert abs(silu(1.0, "standard")[0] - 0.7310585786300049) < 1e-15
    assert abs(silu(1.0, "paper")[0] - 0.9276705118714868) < 1e-15


def test_silu_paper_is_derivative_of_standard_silu():
    # d/dx [x*sigmoid(x)] = sigmoid(x) + x*sigmoid(x)*(1-sigmoid(x))
    xs = np.linspace(-4, 4, 33)
    eps = 1e-6
    up = silu(xs + eps, "standard")
    dn = silu(xs - eps, "standard")
    assert np.abs((up - dn) / (2 * eps) - silu(xs, "paper")).max() < 1e-8


def test_silu_dispatcher_rejects_unknown_variant():
    with pytest.raises(ValueError):
        silu(1.0, "fast")


def band_weights(scores, attn_fn="laplace", mu=0.0, sigma_raw=0.0):
    """band_attention's weights over one sentence whose (n, n) scores are
    the given ones: the queries are the scores' rows and the keys the unit
    vectors."""
    n = scores.shape[0]
    _, got, w = ad.band_attention(
        None, ad.Tensor(scores), ad.Tensor(np.eye(n)), ad.Tensor(np.zeros((n, 1))),
        None, scalar(mu), scalar(sigma_raw), 1.0, None, attn_fn, one(n))
    assert np.array_equal(got, scores)
    return w


def band_scores(n, width, bias):
    """band_attention's (n, m) scores of zero queries and keys under bias."""
    zero = ad.Tensor(np.zeros((n, 1)))
    return ad.band_attention(None, zero, zero, zero, bias, None, None, 1.0, width,
                             "softmax", one(n))[1]


def test_erf_matches_series_oracle():
    # the Laplace squash with mu=0 and scale 1/sqrt(2) is (1 + erf(s)) / 2
    xs = np.linspace(-2.5, 2.5, 21)
    sigma_raw = np.log(np.expm1(1.0 / math.sqrt(2.0)))  # softplus^-1
    w = band_weights(np.tile(xs, (xs.size, 1)), sigma_raw=sigma_raw)
    got = 2.0 * w[0] - 1.0
    want = np.array([erf_series(float(x)) for x in xs])
    assert np.abs(got - want).max() < 1e-12


def test_layer_norm_standardizes_each_row():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8)) * 3 + 1
    out = ad.layer_norm(None, ad.Tensor(x), ad.Tensor(np.ones(8)),
                        ad.Tensor(np.zeros(8))).data
    assert np.abs(out.mean(axis=1)).max() < 1e-12
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4  # eps shrinks it slightly


def test_feature_norm_standardizes_each_feature():
    x = np.array([[1.0, 10.0], [3.0, 30.0], [100.0, -100.0]])
    out = ad.feature_norm(None, ad.Tensor(x), ad.Tensor(np.ones(2)),
                          ad.Tensor(np.zeros(2)), one(3)).data
    mu = x.mean(axis=0)
    sd = np.sqrt(x.var(axis=0) + 1e-5)
    assert np.allclose(out, (x - mu) / sd)


def test_feature_norm_of_a_sentence_is_layer_norm_of_its_transpose():
    # both standardize with one body; only the axis of their sums differs
    rng = np.random.default_rng(3)
    n, d = 7, 5
    x = rng.standard_normal((n, d)) * 2 + 0.5
    w = rng.standard_normal((n, d))
    results = []
    for op, xin, win, pack in ((ad.feature_norm, x, w, (one(n),)),
                               (ad.layer_norm, x.T, w.T, ())):
        tape = ad.Tape()
        xt = ad.Tensor(xin, requires_grad=True)
        out = op(tape, xt, ad.Tensor(np.ones(xin.shape[1])),
                 ad.Tensor(np.zeros(xin.shape[1])), *pack)
        grads = ad.backward(tape, ad.sum_all(tape, ad.mul(tape, out, ad.Tensor(win))))
        results.append((out.data, grads[xt.id]))
    (f_out, f_dx), (l_out, l_dx) = results
    assert np.abs(f_out - l_out.T).max() < 1e-12
    assert np.abs(f_dx - l_dx.T).max() < 1e-12


@pytest.mark.parametrize("n", [1, 17, 256])
def test_norms_center_once_with_the_bits_of_mean_and_var(n):
    # One centering pass runs the reductions np.mean and np.var run, in
    # the same order, so the output keeps every bit.
    rng = np.random.default_rng(n)
    d = 16
    x = rng.standard_normal((n, d)) * 3 + 1
    gain, bias = rng.standard_normal(d), rng.standard_normal(d)
    for op, axis, pack in ((ad.layer_norm, -1, ()), (ad.feature_norm, 0, (one(n),))):
        mu = x.mean(axis=axis, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=axis, keepdims=True) + 1e-5)
        out = op(None, ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias), *pack)
        assert np.array_equal(out.data, (x - mu) * inv * gain + bias), op.__name__


def test_softmax_rows_are_simplexes():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 5))
    w = band_weights(s, "softmax")
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    assert (w >= 0).all()


def test_softmax_identity_scores_frozen_weights():
    w = band_weights(np.eye(2), "softmax")
    e = math.e
    assert np.allclose(w, [[e / (e + 1), 1 / (e + 1)],
                           [1 / (e + 1), e / (e + 1)]], atol=1e-15)


def test_laplace_frozen_value_and_range():
    sigma_raw = np.log(np.expm1(1.0))  # softplus^-1(1)
    w = band_weights(np.array([[1.0]]), sigma_raw=sigma_raw)
    assert abs(w[0, 0] - 0.8413447460685429) < 1e-12
    rng = np.random.default_rng(3)
    big = band_weights(rng.standard_normal((6, 6)) * 4, sigma_raw=sigma_raw)
    assert (big >= 0).all() and (big <= 1).all()
    # strictly interior while the erf argument stays unsaturated
    mid = band_weights(rng.uniform(-2, 2, (6, 6)), sigma_raw=sigma_raw)
    assert (mid > 0).all() and (mid < 1).all()


def test_laplace_rows_are_not_renormalized():
    w = band_weights(np.full((3, 3), 2.0))
    assert w.sum(axis=1).max() > 1.5


def test_normalize_rows_sums_to_one_and_errors_on_nonpositive():
    # reduced_laplace divides the squash plus the scores by the row's sum
    rng = np.random.default_rng(4)
    w = band_weights(rng.uniform(0.5, 2.0, (4, 4)), "reduced_laplace")
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    with pytest.raises(DegenerateRowError) as e:
        band_weights(np.array([[1.0, 1.0], [-4.0, 0.5]]), "reduced_laplace")
    assert str(e.value).startswith("row 1 sums to -")


def test_add_rel_bias_bucket_structure():
    n, w = 4, 1
    bias = np.array([10.0, 20.0, 30.0])
    out = band_scores(n, None, ad.Tensor(bias))
    offs = np.arange(n)[None, :] - np.arange(n)[:, None]
    want = bias[np.clip(offs + w, 0, 2 * w)]
    assert np.array_equal(out, want)
    assert out[0, 3] == 30.0  # clipped far-right offset
    assert out[3, 0] == 10.0  # clipped far-left offset


@pytest.mark.parametrize("m", [None, 3])
def test_add_rel_bias_index_is_a_slice_of_the_longest_seen(m):
    # The index is kept per layout at the longest n seen; shorter and
    # longer calls in any order read what a fresh build would give.
    w = 2
    bias = ad.Tensor(np.arange(2.0 * w + 1))
    for n in (5, 11, 2, 7, 13, 1):
        mm = n if m is None else min(m, n)
        rows = np.arange(n)[:, None]
        offs = rows // mm * mm + np.arange(mm)[None, :] - rows
        want = bias.data[np.clip(offs + w, 0, 2 * w)]
        out = band_scores(n, m, bias)
        assert np.array_equal(out, want), n


def test_repeat_entries_tiles_and_sums_back():
    tape = ad.Tape()
    v = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = ad.repeat_entries(tape, v, 3)
    assert np.array_equal(out.data, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    loss = ad.sum_all(tape, ad.mul(tape, out, ad.Tensor(np.arange(6.0))))
    grads = ad.backward(tape, loss)
    assert np.array_equal(grads[v.id], [0.0 + 1 + 2, 3.0 + 4 + 5])


def test_tape_records_only_gradient_relevant_ops():
    tape = ad.Tape()
    const = ad.Tensor(np.ones(3))
    ad.sigmoid(tape, const)
    assert len(tape.records) == 0
    live = ad.Tensor(np.ones(3), requires_grad=True)
    ad.sigmoid(tape, live)
    assert len(tape.records) == 1


def test_finite_diff_params_flags_nondeterministic_loss():
    state = {"n": 0}
    x = ad.Tensor(np.zeros(2), requires_grad=True, name="x")

    def build(tape):
        state["n"] += 1
        return ad.add(tape, ad.sum_all(tape, x), ad.Tensor(state["n"]))

    with pytest.raises(VerificationError):
        finite_diff_params(build, [x])


def test_finite_diff_params_reports_per_parameter_errors():
    rng = np.random.default_rng(6)
    w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True, name="w")
    b = ad.Tensor(rng.standard_normal(3), requires_grad=True, name="b")
    x = rng.standard_normal((2, 3))

    def build(tape):
        out = ad.add(tape, ad.matmul(tape, ad.Tensor(x), w), b)
        return ad.sum_all(tape, ad.mul(tape, out, out))

    errs = finite_diff_params(build, [w, b])
    assert set(errs) == {"w", "b"}
    assert max(errs.values()) < 1e-7


def test_finite_diff_params_records_one_build_and_runs_the_rest_tape_free():
    x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True, name="x")
    tapes = []

    def build(tape):
        tapes.append(tape)
        return ad.sum_all(tape, ad.mul(tape, ad.sigmoid(tape, x), x))

    assert finite_diff_params(build, [x])["x"] < 1e-8
    # the gradient build, the determinism rebuild, two per direction
    assert len(tapes) == 2 + 2 * DIRECTIONS
    assert isinstance(tapes[0], ad.Tape) and tapes[0].record
    assert tapes[1:] == [None] * (len(tapes) - 1)


def test_finite_diff_directions_depend_only_on_the_parameter_name():
    rng = np.random.default_rng(8)
    w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True, name="w")
    b = ad.Tensor(rng.standard_normal(3), requires_grad=True, name="b")
    x = rng.standard_normal((2, 3))

    def build(tape):
        out = ad.add(tape, ad.matmul(tape, ad.Tensor(x), w), b)
        return ad.sum_all(tape, ad.mul(tape, ad.sigmoid(tape, out), out))

    assert finite_diff_params(build, [w, b]) == finite_diff_params(build, [b, w])
    with pytest.raises(ValueError, match="named tensors"):
        finite_diff_params(build, [w, ad.Tensor(np.zeros(3), requires_grad=True)])


def test_the_model_check_catches_one_zeroed_embedding_row(monkeypatch):
    # the model's embed_tokens drops the first live token's row from its
    # gradient; verify's own copy stays intact, so only the model row fails
    from hreb import model

    def faulty(tape, ids, table):
        ids = np.asarray(ids, dtype=np.int64)
        live = ids != table.pad_id
        t = table.table

        def bw(g):
            dt = np.zeros_like(t.data)
            np.add.at(dt, ids[live], g[live])
            dt[ids[live][0]] = 0.0
            return (dt,)
        return ad.record_op(tape, "embed_tokens", (t,), t.data[ids], bw)

    monkeypatch.setattr(model, "embed_tokens", faulty)
    rows = {r.name: r for r in verify.grad_suite(0)}
    assert rows["grad embed_tokens"].passed
    assert not rows["grad full model"].passed, rows["grad full model"].detail


def test_the_op_check_catches_a_one_percent_error_in_the_sigma_gradient(monkeypatch):
    # sigma_raw is 0-d: each +-1 direction probes it at its full size, so
    # a 1% fault in laplace's d sigma_raw fails both attn_fns that squash
    laplace = ad._laplace

    def faulty(*args):
        out, bw = laplace(*args)

        def scaled(g):
            ds, dmu, dsig = bw(g)
            return ds, dmu, dsig * 1.01
        return out, scaled

    monkeypatch.setattr(ad, "_laplace", faulty)
    rows = [r for r in verify.op_grad_checks(0)
            if r.name == "grad band_attention/sigma"]
    failed = [re.search(r"under (\w+)", r.detail)[1] for r in rows if not r.passed]
    assert failed == ["laplace", "reduced_laplace"], [r.detail for r in rows]


def recorded_ops():
    """{op name: number of tape inputs} for every record_op call site in
    the package."""
    ops = {}
    for path in sorted(pathlib.Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if getattr(fn, "attr", getattr(fn, "id", None)) == "record_op":
                name, inputs = node.args[1], node.args[2]
                ops[name.value] = len(inputs.elts)
    return ops


def test_dropping_an_op_grad_case_leaves_every_other_row_as_it_was(monkeypatch):
    rows = [(r.name, r.detail) for r in verify.op_grad_checks()]
    cases = verify.op_grad_cases()
    assert cases[0][0] == "add"
    monkeypatch.setattr(verify, "op_grad_cases", lambda: cases[1:])
    rest = [(r.name, r.detail) for r in verify.op_grad_checks()]
    assert rest == [row for row in rows if not row[0].startswith("grad add/")]


def test_op_grad_attention_inputs_keep_reduced_laplace_rows_positive_at_any_seed():
    case = next(c for c in verify.op_grad_cases() if c[3:] == ("reduced_laplace",))
    for seed in range(100):
        inputs = verify.op_grad_inputs(seed, case)
        case[2](None, *(ad.Tensor(np.asarray(v, dtype=np.float64))
                        for v in inputs.values()))


def test_op_grad_global_band_rows_keep_reduced_laplace_rows_positive_at_any_seed():
    # one global-band row per attn_fn and input, sigma_raw held fixed
    details = [r.detail for r in verify.op_grad_checks()
               if r.name.startswith("grad band_attention/")]
    assert sum(d.endswith(", global band") for d in details) == 3 * 5
    case = next(c for c in verify.op_grad_cases()
                if c[3:] == ("reduced_laplace", "global band"))
    for seed in range(100):
        inputs = verify.op_grad_inputs(seed, case)
        case[2](None, *(ad.Tensor(np.asarray(v, dtype=np.float64))
                        for v in inputs.values()))


def test_op_grad_checks_cover_every_input_of_every_recorded_op():
    ops = recorded_ops()
    assert {"embed_tokens", "crf_path_score"} <= set(ops)
    cases = {}
    for r in verify.op_grad_checks():
        assert r.passed, f"{r.name}: {r.detail}"
        op = r.name[len("grad "):].split("/")[0]
        cases.setdefault(op, []).append(r.name)
    assert sorted(set(ops) - set(cases)) == [], "ops without a gradient check"
    assert sorted(set(cases) - set(ops)) == [], "checks naming no recorded op"
    short = {op: cases[op] for op, n in ops.items() if len(set(cases[op])) != n}
    assert short == {}, "ops whose checks do not probe each input exactly once"

"""The fused block ops against the unfused chains of primitive ops they
replace: forward values and every input's gradient, plus their checks.

The inputs have the rows of verify.op_grad_checks' ragged pack,
Pack([3, 1, 4]); the fused ops are row-wise, so the pack's sentence
boundaries do not enter.
"""

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import kernels
from hreb import residual
from hreb.config import RunConfig
from hreb.data import Vocab, synth_corpus
from hreb.errors import NumericsError
from hreb.model import HrebModel
from hreb.pack import Pack

N = Pack([3, 1, 4]).n
D, V = 4, 5
ONE = ad.Tensor(1.0)


def draw(seed, **shapes):
    rng = np.random.default_rng(seed)
    return {k: rng.standard_normal(s) for k, s in shapes.items()}


def trainable(inputs):
    return [ad.Tensor(v, requires_grad=True) for v in inputs.values()]


def out_weights(shape):
    """run's fixed weighting of an op's output: the gradient that reaches it."""
    return np.random.default_rng(100).standard_normal(shape)


def run(build, tensors):
    """(output, [each tensor's gradient]) of build(tape, *tensors) under a
    fixed random weighting of its output."""
    tape = ad.Tape()
    out = build(tape, *tensors)
    w = ad.Tensor(out_weights(out.shape))
    grads = ad.backward(tape, ad.sum_all(tape, ad.mul(tape, out, w)))
    return out.data, [grads[t.id] for t in tensors]


def assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def assert_same_run(fused, chain, tensors):
    out, grads = run(fused, tensors)
    want_out, want_grads = run(chain, tensors)
    assert_close(out, want_out)
    for got, want in zip(grads, want_grads, strict=True):
        assert_close(got, want)


def silu_chain(tape, a, variant):
    s = ad.sigmoid(tape, a)
    if variant == "standard":
        return ad.mul(tape, a, s)
    sp = ad.mul(tape, s, ad.sub(tape, ONE, s))
    return ad.add(tape, s, ad.mul(tape, a, sp))


@pytest.mark.parametrize("variant", ["paper", "standard"])
def test_linear_silu_matches_its_chain(variant):
    inputs = draw(1, x=(N, D), w=(D, V), b=V)
    assert_same_run(
        lambda t, x, w, b: ad.linear_silu(t, x, w, b, variant),
        lambda t, x, w, b: silu_chain(t, ad.linear(t, x, w, b), variant),
        trainable(inputs))


MERGE = dict(x=(N, D), z=(N, D), o=(N, V), w_gamma=(D, V), b_gamma=V,
             w_phi=(D, D), b_phi=D, w_h=(D, D), u_h=(V, D), b_h=D)


def merge_chain(t, x, z, o, w_gamma, b_gamma, w_phi, b_phi, w_h, u_h, b_h,
                variant):
    gamma = ad.sigmoid(t, ad.linear(t, z, w_gamma, b_gamma))
    phi = ad.sigmoid(t, ad.linear(t, z, w_phi, b_phi))
    inner = ad.add(t, ad.matmul(t, z, w_h), ad.linear(t, ad.mul(t, gamma, o), u_h, b_h))
    y_hat = silu_chain(t, inner, variant)
    return ad.add(t, ad.mul(t, phi, y_hat), ad.mul(t, ad.sub(t, ONE, phi), x)), gamma, phi


@pytest.mark.parametrize("variant", ["paper", "standard"])
def test_gated_merge_matches_its_chain_and_returns_its_gates(variant):
    inputs = draw(2, **MERGE)
    assert_same_run(lambda t, *ts: ad.gated_merge(t, *ts, variant)[0],
                    lambda t, *ts: merge_chain(t, *ts, variant)[0], trainable(inputs))
    tensors = [ad.Tensor(v) for v in inputs.values()]
    _, gamma, phi = ad.gated_merge(None, *tensors, variant)
    _, want_gamma, want_phi = merge_chain(None, *tensors, variant)
    assert_close(gamma, want_gamma.data)
    assert_close(phi, want_phi.data)


def paper_silu_grad(a, g):
    """g * silu'(a) for the paper silu, built from the pre-activation a
    alone, as its backward once did: s * (1 - s) * (2 + a * (1 - 2s))."""
    s = kernels.sigmoid(a)
    return g * ((1.0 - s) * s) * (2.0 + a * (1.0 - 2.0 * s))


def assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


def test_linear_silu_paper_gradients_have_the_bits_of_the_backward_built_factor():
    v = draw(1, x=(N, D), w=(D, V), b=V)
    _, grads = run(lambda t, x, w, b: ad.linear_silu(t, x, w, b, "paper"),
                   trainable(v))
    da = paper_silu_grad(v["x"] @ v["w"] + v["b"], out_weights((N, V)))
    assert_bitwise(grads, [da @ v["w"].T, v["x"].T @ da, da.sum(axis=0)])


def test_gated_merge_paper_gradients_have_the_bits_of_the_backward_built_factor():
    # gated_merge's backward as it was when it kept gamma * o and built the
    # silu factor from the pre-activation
    v = draw(2, **MERGE)
    _, grads = run(lambda t, *ts: ad.gated_merge(t, *ts, "paper")[0], trainable(v))
    g = out_weights((N, D))
    gamma = kernels.sigmoid(v["z"] @ v["w_gamma"] + v["b_gamma"])
    phi = kernels.sigmoid(v["z"] @ v["w_phi"] + v["b_phi"])
    go = gamma * v["o"]
    inner = v["z"] @ v["w_h"] + (go @ v["u_h"] + v["b_h"])
    s = kernels.sigmoid(inner)
    y_hat = inner * ((1.0 - s) * s) + s
    d_inner = paper_silu_grad(inner, g * phi)
    d_go = d_inner @ v["u_h"].T
    d_gamma = d_go * v["o"] * gamma * (1.0 - gamma)
    d_phi = (g * y_hat - g * v["x"]) * phi * (1.0 - phi)
    assert_bitwise(grads, [
        g * (1.0 - phi),
        d_inner @ v["w_h"].T + d_phi @ v["w_phi"].T + d_gamma @ v["w_gamma"].T,
        d_go * gamma,
        v["z"].T @ d_gamma, d_gamma.sum(axis=0),
        v["z"].T @ d_phi, d_phi.sum(axis=0),
        v["z"].T @ d_inner, go.T @ d_inner, d_inner.sum(axis=0)])


@pytest.mark.parametrize("variant", ["paper", "standard"])
def test_a_decode_builds_no_silu_backward(monkeypatch, variant):
    silu, built = ad._silu, []

    def spy(a, variant, record):
        out, bw = silu(a, variant, record)
        built.append(bw)
        return out, bw

    monkeypatch.setattr(ad, "_silu", spy)
    corpus = synth_corpus(0, 8, 3)
    model = HrebModel(RunConfig(silu_variant=variant), Vocab.from_corpus(corpus))
    ids = model.vocab.encode_tokens(corpus.train[0].tokens)
    model.decode(ids)
    assert built and all(bw is None for bw in built)
    built.clear()
    model.emissions(ad.Tape(), ids)
    assert built and all(bw is not None for bw in built)


def residual_chain(tape, f, x, state):
    if state.mode == "off":
        return ad.add(tape, f, x)
    if state.mode == "static":
        return ad.add(tape, ad.scale(tape, f, state.alpha), ad.scale(tape, x, state.beta))
    gate_f = ad.sigmoid(tape, ad.linear(tape, ad.Tensor(state.cache_f[None]),
                                        state.w_alpha, state.b_alpha))
    gate_x = ad.sigmoid(tape, ad.linear(tape, ad.Tensor(state.cache_x[None]),
                                        state.w_beta, state.b_beta))
    return ad.add(tape, ad.mul(tape, gate_f, f), ad.mul(tape, gate_x, x))


@pytest.mark.parametrize("mode", ["off", "static", "dynamic"])
def test_residual_apply_matches_its_chain(mode):
    rng = np.random.default_rng(3)
    state = residual.GateState(D, mode, alpha=0.7, beta=1.3)
    state.cache_f, state.cache_x = rng.standard_normal((2, D)) * 0.5
    for p in state.params():
        p.data = rng.standard_normal(p.data.shape) * 0.3

    def build(combine):
        # the branch is a linear map of x; the gate tensors enter through state
        return lambda t, x, w, b, *gates: combine(t, ad.linear(t, x, w, b), x)

    assert_same_run(build(lambda t, f, x: residual.apply(t, x, lambda _: f, state)),
                    build(lambda t, f, x: residual_chain(t, f, x, state)),
                    trainable(draw(4, x=(N, D), w=(D, D), b=D)) + state.params())


def fused_cases():
    """(op name, build, inputs, the weight made inf) per fused op; build
    takes no tape. gated_merge's weight is past its gates."""
    return [
        ("linear_silu", lambda x, w, b: ad.linear_silu(None, x, w, b, "paper"),
         draw(6, x=(N, D), w=(D, V), b=V), "w"),
        ("gated_merge", lambda *ts: ad.gated_merge(None, *ts, "paper")[0],
         draw(5, **MERGE), "w_h"),
        ("weighted_sum", lambda a, f, b, x: ad.weighted_sum(None, a, f, b, x),
         draw(7, a=(1, D), f=(N, D), b=(1, D), x=(N, D)), "a"),
    ]


@pytest.mark.parametrize("op, build, inputs, weight", fused_cases(),
                         ids=[c[0] for c in fused_cases()])
def test_an_inf_weight_makes_each_fused_op_name_itself(op, build, inputs, weight):
    inputs[weight][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as e:
        build(*(ad.Tensor(v) for v in inputs.values()))
    assert str(e.value) == f"op {op!r} produced non-finite values"


@pytest.mark.parametrize("gate, value", [("b_phi", np.inf), ("b_gamma", -np.inf)])
def test_gated_merge_checks_gate_pre_activations_a_sigmoid_would_hide(gate, value):
    v = draw(8, **MERGE)
    v[gate][:] = value
    # the sigmoid squashes the inf (phi = 1 or gamma = 0 exactly), and every
    # value after it, the output too, is finite
    gamma = kernels.sigmoid(v["z"] @ v["w_gamma"] + v["b_gamma"])
    phi = kernels.sigmoid(v["z"] @ v["w_phi"] + v["b_phi"])
    inner = v["z"] @ v["w_h"] + ((gamma * v["o"]) @ v["u_h"] + v["b_h"])
    s = kernels.sigmoid(inner)
    assert np.isfinite(phi * (s + inner * s * (1 - s)) + (1 - phi) * v["x"]).all()
    with pytest.raises(NumericsError) as e:
        ad.gated_merge(None, *(ad.Tensor(a) for a in v.values()), "paper")
    assert "op 'gated_merge'" in str(e.value) and "pre-activation" in str(e.value)

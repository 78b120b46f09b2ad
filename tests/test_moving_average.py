"""The EMA recurrence and the EMA layer against brute-force references."""

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb.errors import ConfigError
from hreb.moving_average import EmaState, multihead_ema
from hreb.oracles import ema_closed_form
from hreb.pack import one


def ema_brute(x, alpha, h0):
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h0, dtype=np.float64).copy()
    out = np.empty_like(x)
    for t in range(len(x)):
        h = alpha * x[t] + (1 - alpha) * h
        out[t] = h
    return out


def scan(x, alpha, h0):
    return ad.ema_scan(None, ad.Tensor(x), ad.Tensor(alpha), ad.Tensor(h0),
                       one(len(x))).data


def test_ema_frozen_example():
    got = scan(np.array([[1.0], [1.0], [1.0]]), np.array([0.5]), np.zeros(1))
    assert np.allclose(got[:, 0], [0.5, 0.75, 0.875], atol=1e-15)


def test_ema_alpha_one_passthrough():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 3))
    assert np.array_equal(scan(x, np.ones(3), rng.standard_normal(3)), x)


def test_ema_matches_brute_and_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 64))
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        alpha = rng.uniform(0.05, 1.0, d)
        h0 = rng.standard_normal(d)
        ref = ema_brute(x, alpha, h0)
        assert np.allclose(scan(x, alpha, h0), ref, atol=1e-12)
        assert np.abs(ema_closed_form(x, alpha, h0) - ref).max() < 1e-10


def test_ema_scan_gradcheck():
    from hreb.gradcheck import finite_diff_params
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True, name="x")
    alpha = rng.uniform(0.2, 0.8, 3)
    h0 = rng.standard_normal(3)
    w = rng.standard_normal((5, 3))

    def build(tape):
        out = ad.ema_scan(tape, x, ad.Tensor(alpha), ad.Tensor(h0), one(5))
        return ad.sum_all(tape, ad.mul(tape, out, ad.Tensor(w)))

    assert finite_diff_params(build, [x])["x"] < 1e-6


def test_multihead_state_geometric_decay_init():
    state = EmaState(8, 4, np.random.default_rng(7))
    eff = 1.0 / (1.0 + np.exp(-state.alpha_raw.data))
    assert np.allclose(eff, np.geomspace(0.05, 0.95, 4), atol=1e-12)
    assert state.h0.data.shape == (8,)


def test_multihead_head_count_must_divide():
    with pytest.raises(ConfigError):
        EmaState(10, 4, np.random.default_rng(8))


def test_multihead_single_head_identity_reduces_to_scan():
    rng = np.random.default_rng(9)
    d = 6
    state = EmaState(d, 1, np.random.default_rng(10))
    state.w_down.data = np.eye(d)
    state.w_up.data = np.eye(d)
    alpha = 0.42
    state.alpha_raw.data = np.array([np.log(alpha / (1 - alpha))])
    x = rng.standard_normal((12, d))
    got = multihead_ema(None, ad.Tensor(x), state, one(12)).data
    want = ema_brute(x, np.full(d, alpha), np.zeros(d))
    assert np.abs(got - want).max() < 1e-12


def test_multihead_per_head_decays_are_blockwise():
    # two heads, different decays: each half of the (identity-projected)
    # output must follow its own head's recurrence
    d, heads = 4, 2
    state = EmaState(d, heads, np.random.default_rng(11))
    state.w_down.data = np.eye(d)
    state.w_up.data = np.eye(d)
    a0, a1 = 0.2, 0.9
    state.alpha_raw.data = np.array(
        [np.log(a0 / (1 - a0)), np.log(a1 / (1 - a1))])
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, d))
    got = multihead_ema(None, ad.Tensor(x), state, one(7)).data
    assert np.abs(got[:, :2] - ema_brute(x[:, :2], np.full(2, a0), np.zeros(2))).max() < 1e-12
    assert np.abs(got[:, 2:] - ema_brute(x[:, 2:], np.full(2, a1), np.zeros(2))).max() < 1e-12


def random_multihead_state(seed, d=4, heads=2):
    rng = np.random.default_rng(seed)
    state = EmaState(d, heads, rng)
    state.alpha_raw.data[:] = rng.standard_normal(heads)
    state.h0.data[:] = rng.standard_normal(d)
    return state, rng


def sentence_loss(tape, state, x_data):
    out = multihead_ema(tape, ad.Tensor(x_data, requires_grad=True), state,
                        one(len(x_data)))
    return ad.sum_all(tape, ad.mul(tape, out, out))


def test_decay_is_recorded_once_per_tape():
    state, rng = random_multihead_state(13)
    tape = ad.Tape()
    sentence_loss(tape, state, rng.standard_normal((3, 4)))
    first = len(tape.records)
    sentence_loss(tape, state, rng.standard_normal((6, 4)))
    names = [r[0] for r in tape.records]
    assert names.count("sigmoid") == 1 and names.count("repeat_entries") == 1
    assert sum(state.alpha_raw in r[1] for r in tape.records) == 1
    assert len(tape.records) - first == first - 2


def test_hoisted_decay_gradient_equals_the_per_sentence_sum():
    state, rng = random_multihead_state(14)
    xs = [rng.standard_normal((n, 4)) for n in (2, 7, 4)]
    shared = ad.Tape()
    total = sentence_loss(shared, state, xs[0])
    for x_data in xs[1:]:
        total = ad.add(shared, total, sentence_loss(shared, state, x_data))
    got = ad.backward(shared, total)
    want = {p.id: 0.0 for p in state.params()}
    for x_data in xs:
        tape = ad.Tape()
        grads = ad.backward(tape, sentence_loss(tape, state, x_data))
        for p in state.params():
            want[p.id] = want[p.id] + grads[p.id]
    for p in state.params():
        assert np.abs(got[p.id] - want[p.id]).max() <= 1e-12, p.name


def test_decay_follows_in_place_changes_on_a_new_tape_and_without_one():
    state, rng = random_multihead_state(15)
    x = ad.Tensor(rng.standard_normal((5, 4)))
    saved = state.alpha_raw.data.copy()
    tape = ad.Tape()
    before = multihead_ema(tape, x, state, one(5)).data
    state.alpha_raw.data += 1.0  # in place, as the optimizer updates
    assert np.array_equal(multihead_ema(tape, x, state, one(5)).data, before)
    fresh = multihead_ema(None, x, state, one(5)).data
    assert not np.array_equal(fresh, before)
    assert np.array_equal(multihead_ema(ad.Tape(), x, state, one(5)).data, fresh)
    state.alpha_raw.data[:] = saved
    assert np.array_equal(multihead_ema(None, x, state, one(5)).data, before)

"""Residual modes: plain sum (off), static scaling, gradient-gated dynamic mix."""

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import residual
from hreb.errors import DivergenceError


def double_branch(x):
    return ad.scale(None, x, 2.0)


def silu(tape, x):
    """The standard silu of each entry of a (n, 3) tensor, as a branch."""
    return ad.linear_silu(tape, x, ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)),
                          "standard")


def make_state(mode, d=3, **kw):
    return residual.GateState(d, mode, **kw)


def test_classic_is_bitwise_branch_plus_skip():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((4, 3)))
    state = make_state("off")
    out = residual.apply(None, x, double_branch, state)
    assert np.array_equal(out.data, 2.0 * x.data + x.data)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        make_state("adaptive")


def test_static_scales_each_side():
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.standard_normal((4, 3)))
    state = make_state("static", alpha=0.25, beta=2.0)
    out = residual.apply(None, x, double_branch, state)
    assert np.array_equal(out.data, 0.25 * (2.0 * x.data) + 2.0 * x.data)


def test_static_unit_weights_match_classic_bitwise():
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.standard_normal((5, 3)))
    a = residual.apply(None, x, double_branch, make_state("off"))
    b = residual.apply(None, x, double_branch, make_state("static"))
    assert np.array_equal(a.data, b.data)


def test_dynamic_with_zero_caches_and_zero_params_halves_both_sides():
    # zero caches through zero weights give sigmoid(0) = 0.5 on every feature
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal((4, 3)))
    state = make_state("dynamic")
    out = residual.apply(None, x, double_branch, state)
    assert np.abs(out.data - 0.5 * (2.0 * x.data) - 0.5 * x.data).max() < 1e-15


def test_dynamic_gates_respond_to_cached_gradients():
    state = make_state("dynamic", d=2)
    state.b_alpha.data[:] = 0.0
    state.w_alpha.data[:] = np.eye(2) * 1000.0
    state.cache_f = np.array([1.0, -1.0])  # drives gate_f to sigmoid(+-1000)
    x = ad.Tensor(np.ones((1, 2)))
    out = residual.apply(None, x, double_branch, state)
    # gate_f saturates exactly; gate_x stays at 0.5
    assert np.array_equal(out.data, [[2.0 * 1.0 + 0.5, 2.0 * 0.0 + 0.5]])


def test_dynamic_records_pending_only_under_a_tape():
    state = make_state("dynamic")
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    residual.apply(None, x, double_branch, state)
    tape = ad.Tape()
    assert residual.pending(tape) == []
    out = residual.apply(tape, x, lambda t: ad.scale(tape, t, 2.0), state)
    assert len(residual.pending(tape)) == 1
    gate, f, skip = residual.pending(tape)[0]
    assert gate is state and skip is x
    assert np.array_equal(f.data, 2.0 * x.data)
    assert residual.pending_ids(tape) == [f.id, x.id]
    assert residual.pending(ad.Tape()) == []
    assert out.data.shape == x.data.shape


def test_params_exposed_only_in_dynamic_mode():
    assert make_state("off").params() == []
    assert make_state("static").params() == []
    names = [p.name for p in make_state("dynamic", prefix="L.").params()]
    assert names == ["L.rb.w_alpha", "L.rb.b_alpha", "L.rb.w_beta", "L.rb.b_beta"]


def test_update_gate_cache_is_momentum_mean():
    state = make_state("dynamic", d=2)
    g1f = np.array([[1.0, 2.0], [3.0, 4.0]])
    g1x = np.array([[10.0, 20.0]])
    residual.update_gate_cache(state, g1f, g1x, 0.9)
    assert np.allclose(state.cache_f, 0.1 * np.array([2.0, 3.0]))
    assert np.allclose(state.cache_x, 0.1 * np.array([10.0, 20.0]))
    residual.update_gate_cache(state, np.zeros((1, 2)), np.zeros((1, 2)), 0.9)
    assert np.allclose(state.cache_f, 0.09 * np.array([2.0, 3.0]))


def test_update_gate_cache_validates_inputs():
    state = make_state("dynamic", d=2)
    with pytest.raises(ValueError):
        residual.update_gate_cache(state, np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
    with pytest.raises(DivergenceError):
        residual.update_gate_cache(state, np.array([[np.inf, 0.0]]),
                                   np.zeros((1, 2)), 0.9)


def test_commit_folds_backward_gradients_and_clears_pending():
    state = make_state("dynamic", d=2)
    tape = ad.Tape()
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = residual.apply(tape, x, lambda t: ad.mul(tape, t, t), state)
    loss = ad.sum_all(tape, out)
    grads = ad.backward(tape, loss, keep=residual.pending_ids(tape))
    _, f, skip = residual.pending(tape)[0]
    gf = grads[f.id]
    gx = grads[skip.id]
    residual.commit_gate_caches(tape, grads, 0.9)
    assert residual.pending(tape) == []
    assert np.allclose(state.cache_f, 0.1 * gf.mean(axis=0))
    assert np.allclose(state.cache_x, 0.1 * gx.mean(axis=0))


def test_commit_uses_zeros_for_absent_gradients():
    state = make_state("dynamic", d=2)
    tape = ad.Tape()
    x = ad.Tensor(np.ones((1, 2)), requires_grad=True)
    residual.apply(tape, x, lambda t: ad.scale(tape, t, 2.0), state)
    state.cache_f[:] = 1.0
    residual.commit_gate_caches(tape, {}, 0.5)
    assert np.allclose(state.cache_f, 0.5)
    assert residual.pending(tape) == []


def test_commit_clears_pending_on_nondynamic_states_too():
    # off and static gates record no pair: commit takes the tape's list
    # off it and moves the dynamic gate's caches alone
    gates = [make_state("off"), make_state("static", alpha=0.5),
             make_state("dynamic")]
    tape = ad.Tape()
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    for gate in gates:
        x = residual.apply(tape, x, lambda t: ad.scale(tape, t, 2.0), gate)
    assert [gate for gate, _, _ in residual.pending(tape)] == gates[2:]
    caches = [(gate.cache_f, gate.cache_x) for gate in gates]
    gates[2].cache_f = np.ones(3)
    residual.commit_gate_caches(tape, {}, 0.5)
    assert "pending" not in tape.memo
    for gate, (f, skip) in zip(gates[:2], caches):
        assert gate.cache_f is f and gate.cache_x is skip
    assert np.array_equal(gates[2].cache_f, np.full(3, 0.5))


def test_commit_folds_both_passes_of_one_tape_into_each_gate_in_pass_order():
    # two sentences, each through gate a then gate b, on one tape: each
    # gate folds its two passes' rows, stacked in pass order, in one update
    rng = np.random.default_rng(3)
    a, b = make_state("dynamic"), make_state("dynamic")
    tape = ad.Tape()
    losses = []
    for n in (1, 3):
        x = ad.Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        mid = residual.apply(tape, x, lambda t: ad.mul(tape, t, t), a)
        out = residual.apply(tape, mid, lambda t: silu(tape, t), b)
        losses.append(ad.sum_all(tape, ad.mul(tape, out, out)))
    pairs = list(residual.pending(tape))
    assert [gate for gate, _, _ in pairs] == [a, b, a, b]
    grads = ad.backward(tape, ad.add(tape, *losses),
                        keep=residual.pending_ids(tape))
    residual.commit_gate_caches(tape, grads, 0.9)
    for gate in (a, b):
        want = make_state("dynamic")
        rows = [(grads[f.id], grads[x.id]) for g, f, x in pairs if g is gate]
        residual.update_gate_cache(want, np.vstack([f for f, _ in rows]),
                                   np.vstack([x for _, x in rows]), 0.9)
        assert np.array_equal(gate.cache_f, want.cache_f)
        assert np.array_equal(gate.cache_x, want.cache_x)


def test_dynamic_gate_gradcheck():
    from hreb.gradcheck import finite_diff_params

    rng = np.random.default_rng(4)
    state = make_state("dynamic", d=3)
    state.cache_f = rng.standard_normal(3) * 0.5
    state.cache_x = rng.standard_normal(3) * 0.5
    state.w_alpha.data[:] = rng.standard_normal((3, 3)) * 0.3
    state.w_beta.data[:] = rng.standard_normal((3, 3)) * 0.3
    x_data = rng.standard_normal((4, 3))

    def build(tape):
        x = ad.Tensor(x_data, requires_grad=True)
        out = residual.apply(tape, x, lambda t: silu(tape, t), state)
        return ad.sum_all(tape, ad.mul(tape, out, out))

    errs = finite_diff_params(build, state.params())
    assert max(errs.values()) < 1e-6


def random_dynamic_state(seed):
    rng = np.random.default_rng(seed)
    state = make_state("dynamic", d=3)
    state.cache_f = rng.standard_normal(3) * 0.5
    state.cache_x = rng.standard_normal(3) * 0.5
    for p in state.params():
        p.data[...] = rng.standard_normal(p.data.shape) * 0.3
    return state, rng


def sentence_loss(tape, state, x_data):
    x = ad.Tensor(x_data, requires_grad=True)
    out = residual.apply(tape, x, lambda t: silu(tape, t), state)
    return ad.sum_all(tape, ad.mul(tape, out, out))


def test_dynamic_gates_are_recorded_once_per_tape():
    state, rng = random_dynamic_state(5)
    tape = ad.Tape()
    sentence_loss(tape, state, rng.standard_normal((2, 3)))
    first = len(tape.records)
    sentence_loss(tape, state, rng.standard_normal((4, 3)))
    for p in state.params():
        assert sum(p in inputs for _, inputs, _, _ in tape.records) == 1, p.name
    assert [r[0] for r in tape.records].count("sigmoid") == 2
    # the second sentence records only its branch, the mix and its loss
    assert len(tape.records) - first == first - 4


def test_hoisted_gate_gradients_equal_the_per_sentence_sum():
    state, rng = random_dynamic_state(6)
    xs = [rng.standard_normal((n, 3)) for n in (2, 5, 3)]
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


def test_a_new_tape_sees_in_place_parameter_changes():
    state = make_state("dynamic", d=2)
    x = ad.Tensor(np.ones((1, 2)))
    tape = ad.Tape()
    before = residual.apply(tape, x, double_branch, state).data
    state.b_alpha.data += 1000.0  # in place, as the optimizer updates
    # the tape keeps the gates it built ...
    assert np.array_equal(residual.apply(tape, x, double_branch, state).data, before)
    # ... and the next tape builds them from the new values
    after = residual.apply(ad.Tape(), x, double_branch, state).data
    assert np.array_equal(after, [[2.0 + 0.5, 2.0 + 0.5]])


def test_without_a_tape_the_gates_are_rebuilt_on_every_call():
    state = make_state("dynamic", d=2)
    x = ad.Tensor(np.ones((1, 2)))
    assert np.array_equal(residual.apply(None, x, double_branch, state).data,
                          [[1.0 + 0.5, 1.0 + 0.5]])
    state.b_alpha.data += 1000.0
    assert np.array_equal(residual.apply(None, x, double_branch, state).data,
                          [[2.0 + 0.5, 2.0 + 0.5]])

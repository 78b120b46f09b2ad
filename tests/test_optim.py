"""Adam update math and its guard rails."""

import numpy as np
import pytest

from hreb.autodiff import Tensor
from hreb.errors import DivergenceError
from hreb.optim import AdamState


def adam_brute(x0, grads_seq, lr, b1, b2, eps):
    """Reference Adam: fresh numpy arithmetic, no shared code with the impl."""
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads_seq, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def test_single_step_matches_hand_computation():
    # lr=0.1, b1=0.9, b2=0.999, g=[1, -2]: after one step every entry moves
    # by lr * g/|g| / (1 + eps/|g|) ~= lr * sign(g)
    p = Tensor(np.array([10.0, 20.0]), requires_grad=True, name="p")
    opt = AdamState([p], lr=0.1)
    opt.step({p.id: np.array([1.0, -2.0])})
    m_hat = np.array([0.1, -0.2]) / (1 - 0.9)
    v_hat = np.array([1.0, 4.0]) * 0.001 / (1 - 0.999)
    want = np.array([10.0, 20.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.abs(p.data - want).max() < 1e-15


def test_multi_step_matches_reference_loop():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 2))
    grads_seq = [rng.standard_normal((3, 2)) for _ in range(7)]
    p = Tensor(x0.copy(), requires_grad=True)
    opt = AdamState([p], lr=0.01, beta1=0.8, beta2=0.95, eps=1e-6)
    for g in grads_seq:
        opt.step({p.id: g})
    want = adam_brute(x0, grads_seq, 0.01, 0.8, 0.95, 1e-6)
    assert np.abs(p.data - want).max() < 1e-12


def test_zero_betas_reduce_to_scaled_sign_descent():
    # b1=b2=0 makes m=g and v=g^2, so the update is lr*sign(g) up to eps
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = AdamState([p], lr=0.5, beta1=0.0, beta2=0.0, eps=1e-12)
    opt.step({p.id: np.array([3.0, -0.001])})
    assert np.abs(p.data - [-0.5, 0.5]).max() < 1e-8


def test_constructor_validation():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        AdamState([p], lr=0.0)
    with pytest.raises(ValueError):
        AdamState([p], lr=-1e-3)
    with pytest.raises(ValueError):
        AdamState([p], eps=0.0)
    with pytest.raises(ValueError):
        AdamState([p], beta1=1.0)
    with pytest.raises(ValueError):
        AdamState([p], beta2=-0.1)
    AdamState([p], beta1=0.0, beta2=0.0)  # closed at zero


def test_nonfinite_gradient_raises_before_any_update():
    a = Tensor(np.array([1.0]), requires_grad=True, name="a")
    b = Tensor(np.array([2.0]), requires_grad=True, name="b")
    opt = AdamState([a, b], lr=0.1)
    with pytest.raises(DivergenceError) as e:
        opt.step({a.id: np.array([1.0]), b.id: np.array([np.nan])})
    assert "b" in str(e.value)
    # the check runs before mutation: a must be untouched and the step
    # counter unmoved
    assert a.data[0] == 1.0
    assert opt.step_count == 0


def test_params_missing_from_grads_are_skipped():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamState([a, b], lr=0.1)
    opt.step({a.id: np.array([1.0])})
    assert a.data[0] != 1.0
    assert b.data[0] == 2.0
    # skipped params keep zero moments, so a later step treats them as fresh
    assert np.all(opt.m[b.id] == 0.0)
    assert np.all(opt.v[b.id] == 0.0)


def test_step_moves_only_the_params_it_was_built_with():
    # a held param absent from grads keeps its very array, and a gradient
    # for a param the optimizer does not hold moves nothing
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    c = Tensor(np.array([3.0]), requires_grad=True)
    opt = AdamState([a, b], lr=0.1)
    arrays = [a.data, b.data, c.data]
    opt.step({a.id: np.array([1.0]), c.id: np.array([1.0])})
    assert a.data is not arrays[0]
    assert b.data is arrays[1] and c.data is arrays[2]


def test_moments_are_allocated_by_the_first_step_past_its_finite_check():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = AdamState([a], lr=0.1)
    with pytest.raises(DivergenceError):
        opt.step({a.id: np.array([np.inf, 0.0])})
    assert opt.m is None and opt.v is None
    opt.step({a.id: np.array([1.0, 0.0])})
    assert opt.m[a.id].shape == opt.v[a.id].shape == (2,)


def test_step_count_shared_across_params():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    opt = AdamState([a, b], lr=0.1)
    opt.step({a.id: np.ones(1)})
    opt.step({b.id: np.ones(1)})
    assert opt.step_count == 2
    # b's first real update used t=2 bias correction; replicate by hand
    m_hat = (0.1 * 1.0) / (1 - 0.9 ** 2)
    v_hat = (0.001 * 1.0) / (1 - 0.999 ** 2)
    want = -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(b.data[0] - want) < 1e-15

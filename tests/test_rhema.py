"""Attention blocks: masks, gates, hierarchy, and the ablation baseline."""

import tracemalloc

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import rhema
from hreb.config import CHOICES, RunConfig
from hreb.errors import ConfigError
from hreb.pack import Pack, one
from references import dense_attention


def make_run(**kw):
    kw.setdefault("d_model", 4)
    kw.setdefault("n_ema_head", 2)
    kw.setdefault("rel_bias_window", 3)
    kw.setdefault("reduced_bias", "off")
    return RunConfig(**kw)


def make_config(chunk_size=0, **kw):
    return rhema.RhemaConfig(make_run(**kw), chunk_size)


def make_block(seed=0, **kw):
    config = make_config(**kw)
    params = rhema.RhemaParams(config, np.random.default_rng(seed))
    return config, params


def test_config_validation():
    # the stage view adds no check: RunConfig rejects a bad setting first
    with pytest.raises(ConfigError, match="n_ema_head 3 does not divide"):
        make_config(n_ema_head=3)
    c = make_config()
    assert c.chunk_size == 0
    assert c.v_dim == 2 * c.d_model
    assert c.n_ema_head == 2
    assert make_config(n_ema_head=0).n_ema_head == c.d_model
    assert c.attn_scale == np.sqrt(c.d_model)


def in_band(n, m):
    """(n, n) bool: key j is one of query i's Pack(n).band_keys(m)."""
    return (Pack(n).band_keys(m)[:, :, None] == np.arange(n)).any(axis=1)


def test_band_to_dense_places_each_band_entry_at_its_key():
    # n = 5, m = 2: chunks {0, 1}, {2, 3} and the ragged {4}, whose second
    # band entry is padding and is dropped
    band = np.arange(10.0).reshape(5, 2) + 1.0
    dense = rhema.band_to_dense(band, -7.0)
    want = np.full((5, 5), -7.0)
    want[0, :2], want[1, :2] = band[0], band[1]
    want[2, 2:4], want[3, 2:4] = band[2], band[3]
    want[4, 4] = band[4, 0]
    assert np.array_equal(dense, want)
    assert np.array_equal(dense != -7.0, in_band(5, 2))
    # a band as wide as the sentence is the dense matrix itself; a wider
    # one keeps its live keys, the first n
    wide = np.arange(15.0).reshape(5, 3)
    assert np.array_equal(rhema.band_to_dense(wide[:3], 0.0), wide[:3])
    assert np.array_equal(rhema.band_to_dense(wide[:2], 0.0), wide[:2, :2])
    assert not np.shares_memory(rhema.band_to_dense(wide[:3], 0.0), wide)


def test_glorot_bound():
    rng = np.random.default_rng(0)
    w = ad.glorot(rng, (40, 60))
    assert np.abs(w).max() <= np.sqrt(6.0 / 100)


def test_laplace_parameters_start_at_documented_values():
    _, params = make_block()
    assert float(params.lap_mu.data) == 0.707107
    sig = np.logaddexp(0.0, float(params.lap_sigma_raw.data))
    assert abs(sig - 0.282095) < 1e-12


def test_block_output_shape_for_every_attention_fn():
    rng = np.random.default_rng(1)
    x_data = rng.standard_normal((6, 4)) * 0.5
    for fn in CHOICES["attn_fn"]:
        config, params = make_block(attn_fn=fn, chunk_size=2)
        out = rhema.rhema_block(None, ad.Tensor(x_data), params, config, one(6))
        assert out.data.shape == (6, 4)
        assert np.all(np.isfinite(out.data))


def test_update_gate_saturation_passes_candidate_through_bitwise():
    config, params = make_block()
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.standard_normal((3, 4)))
    z = ad.Tensor(rng.standard_normal((3, 4)))
    o = ad.Tensor(rng.standard_normal((3, 8)))
    params.w_phi.data[:] = 0.0

    params.b_phi.data[:] = 1000.0  # phi saturates to exactly 1
    y = rhema.gated_output(None, x, z, o, params, config)[0]
    # the skip input is fully gated out: a different x gives a bitwise
    # identical output
    x2 = ad.Tensor(rng.standard_normal((3, 4)) * 9.0)
    y_other = rhema.gated_output(None, x2, z, o, params, config)[0]
    assert np.array_equal(y.data, y_other.data)
    # and the candidate matches the hand-written formula
    gamma = 1.0 / (1.0 + np.exp(-(z.data @ params.w_gamma.data)))
    inner = z.data @ params.w_h.data + (gamma * o.data) @ params.u_h.data
    s = 1.0 / (1.0 + np.exp(-inner))
    y_hat = s + inner * s * (1.0 - s)
    assert np.abs(y.data - y_hat).max() < 1e-12

    params.b_phi.data[:] = -1000.0  # phi saturates to exactly 0
    y = rhema.gated_output(None, x, z, o, params, config)[0]
    assert np.array_equal(y.data, x.data)


def test_reset_gate_saturation_blocks_attended_values():
    config, params = make_block()
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal((3, 4)))
    z = ad.Tensor(rng.standard_normal((3, 4)))
    params.w_gamma.data[:] = 0.0
    params.b_gamma.data[:] = -1000.0  # gamma == 0: o cannot reach the output
    o1 = ad.Tensor(rng.standard_normal((3, 8)))
    o2 = ad.Tensor(rng.standard_normal((3, 8)))
    y1 = rhema.gated_output(None, x, z, o1, params, config)[0]
    y2 = rhema.gated_output(None, x, z, o2, params, config)[0]
    assert np.array_equal(y1.data, y2.data)


def test_cross_chunk_gradient_is_exactly_zero():
    # alpha pinned at 1 makes the EMA position-local, layer norm and the
    # FFN are row-local, so the chunk mask is the only cross-position path
    config, params = make_block(chunk_size=2, attn_fn="softmax")
    params.ema.alpha_raw.data[:] = 1000.0  # sigmoid saturates to exactly 1
    rng = np.random.default_rng(4)
    tape = ad.Tape()
    x = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    y = rhema.rhema_block(tape, x, params, config, one(4))
    rows = ad.Tensor(np.array([[1.0], [1.0], [0.0], [0.0]]))  # rows 0,1 only
    loss = ad.sum_all(tape, ad.mul(tape, y, rows))
    grads = ad.backward(tape, loss)
    gx = grads[x.id]
    assert np.all(gx[2:] == 0.0)
    assert np.any(gx[:2] != 0.0)


def test_removing_alpha_pin_restores_cross_chunk_flow():
    config, params = make_block(chunk_size=2, attn_fn="softmax")
    rng = np.random.default_rng(4)
    tape = ad.Tape()
    x = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    y = rhema.rhema_block(tape, x, params, config, one(4))
    # rows 2,3 feed the EMA history of nothing earlier, but rows 0,1 feed
    # rows 2,3 through the scan; check the direction that must be nonzero
    rows = ad.Tensor(np.array([[0.0], [0.0], [1.0], [1.0]]))  # rows 2,3 only
    loss = ad.sum_all(tape, ad.mul(tape, y, rows))
    grads = ad.backward(tape, loss)
    assert np.any(grads[x.id][:2] != 0.0)


def test_softmax_weights_respect_chunk_mask():
    config, params = make_block(chunk_size=2, attn_fn="softmax")
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.standard_normal((4, 4)))
    tape = ad.Tape(record=False, traces=[])
    rhema.rhema_block(tape, x, params, config, one(4))
    (trace,) = tape.traces
    w = trace.weights
    assert np.all(w[~in_band(4, 2)] == 0.0)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_reduced_laplace_weights_are_row_normalized():
    config, params = make_block(attn_fn="reduced_laplace")
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.standard_normal((5, 4)) * 0.3)
    tape = ad.Tape(record=False, traces=[])
    rhema.rhema_block(tape, x, params, config, one(5))
    (trace,) = tape.traces
    assert np.abs(trace.weights.sum(axis=1) - 1.0).max() < 1e-12


def test_trace_lines_format():
    # a chunk as long as the sentence: the local stage's numbers are the
    # global one's
    config, params = make_block(chunk_size=3, attn_fn="softmax")
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.standard_normal((3, 4)))
    tape = ad.Tape(record=False, traces=[])
    rhema.rhema_block(tape, x, params, config, one(3))
    (trace,) = tape.traces
    lines = trace.lines()
    n_expect = 0
    for f in trace.FIELDS:
        arr = np.atleast_2d(getattr(trace, f))
        n_expect += arr.size
    assert len(lines) == n_expect
    for ln in lines:
        label, field, i, j, val = ln.split()
        assert label == "local"
        assert field in trace.FIELDS
        int(i), int(j), float(val)


def test_hierarchical_encoder_stages_and_traces():
    run = make_run(chunk_size=2, attn_fn="softmax")
    enc = rhema.HierarchicalEncoder(run, np.random.default_rng(9))
    assert enc.local_config.chunk_size == 2
    assert enc.global_config.chunk_size == 0
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.standard_normal((6, 4)))
    tape = ad.Tape(record=False, traces=[])
    out = enc.forward(tape, x, one(6))
    traces = tape.traces
    assert out.data.shape == (6, 4)
    assert [t.label for t in traces] == ["local", "global"]
    local_w, global_w = traces[0].weights, traces[1].weights
    assert np.all(local_w[~in_band(6, 2)] == 0.0)
    assert np.all(global_w > 0.0)


def test_hierarchical_param_names_are_stage_prefixed():
    enc = rhema.HierarchicalEncoder(make_run(chunk_size=2),
                                    np.random.default_rng(0))
    names = [p.name for p in enc.params()]
    assert len(names) == len(set(names))
    assert any(n.startswith("enc.local.") for n in names)
    assert any(n.startswith("enc.global.") for n in names)
    assert "enc.local.ema.alpha_raw" in names
    assert "enc.global.w_gamma" in names


def test_naive_encoder_census_and_forward():
    enc = rhema.NaiveEncoder(make_run(reduced_bias="dynamic"),
                             np.random.default_rng(11))
    names = [p.name for p in enc.params()]
    assert "naive.w_q" in names
    assert not any("ema" in n or "kappa" in n or "w_gamma" in n for n in names)
    assert any(n.endswith("rb.w_alpha") for n in names)
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.standard_normal((5, 4)))
    tape = ad.Tape(record=False, traces=[])
    out = enc.forward(tape, x, one(5))
    traces = tape.traces
    assert out.data.shape == (5, 4)
    assert traces[0].label == "naive"
    assert np.abs(traces[0].weights.sum(axis=1) - 1.0).max() < 1e-12
    assert traces[0].z is None  # no shared representation in the baseline


def test_block_parameter_gradients_spot_check():
    from hreb.gradcheck import finite_diff_params

    config, params = make_block(chunk_size=2, attn_fn="reduced_laplace",
                                reduced_bias="dynamic", seed=13)
    rng = np.random.default_rng(14)
    x_data = rng.standard_normal((4, 4)) * 0.3
    for st in (params.rb_attn, params.rb_ffn):
        st.cache_f = rng.standard_normal(4) * 0.1
        st.cache_x = rng.standard_normal(4) * 0.1

    def build(tape):
        x = ad.Tensor(x_data, requires_grad=True)
        y = rhema.rhema_block(tape, x, params, config, one(4))
        return ad.sum_all(tape, ad.mul(tape, y, y))

    errs = finite_diff_params(build, params.params())
    assert max(errs.values()) < 1e-5


def assert_close(got, want, what):
    err = np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0)
    assert err <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0)), f"{what}: {err:.3g}"


@pytest.mark.parametrize("attn_fn", CHOICES["attn_fn"])
@pytest.mark.parametrize("chunk", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("n", [1, 5, 8, 13, 17, 256])
def test_band_attention_matches_dense_masked_reference(n, chunk, attn_fn):
    # The reference is plain numpy on (n, n) scores under a chunk mask. Its
    # derivatives, taken by a complex step, are exact to rounding, so the
    # tape's gradients must match them within 1e-12 as the output does:
    # entry by entry, or along one random direction for the inputs too
    # large to step through each entry.
    seed = n * 31 + chunk
    config, params = make_block(seed=seed, chunk_size=chunk, attn_fn=attn_fn)
    rng = np.random.default_rng(seed)
    # positive relative biases keep every reduced_laplace row sum positive
    params.b_rel.data[:] = rng.uniform(0.5, 1.0, params.b_rel.data.shape)
    q, k = (ad.Tensor(rng.standard_normal((n, 4)) * 0.3, requires_grad=True)
            for _ in range(2))
    v = ad.Tensor(rng.standard_normal((n, 8)), requires_grad=True)
    loss_w = rng.standard_normal((n, 8))
    tape = ad.Tape()
    out, band_scores, band_weights = rhema.attention(tape, q, k, v, params, config,
                                                     one(n))
    grads = ad.backward(tape, ad.sum_all(tape, ad.mul(tape, out, ad.Tensor(loss_w))))

    wrt = (q, k, v, params.b_rel, params.lap_mu, params.lap_sigma_raw)
    names = ("q", "k", "v", "b_rel", "lap_mu", "lap_sigma_raw")
    inputs = [t.data for t in wrt]

    def reference(*xs):
        return dense_attention(*xs, 1.0 / config.attn_scale,
                               config.chunk_size, attn_fn)

    ref, scores, weights, mask = reference(*inputs)
    assert_close(out.data, ref, "output")
    h = 1e-30
    for i, (name, t) in enumerate(zip(names, wrt)):
        size = t.data.size
        dirs = np.eye(size) if size <= 17 * 8 else rng.standard_normal((1, size))
        want = [np.sum(reference(*inputs[:i], inputs[i] + 1j * h * d.reshape(t.shape),
                                 *inputs[i + 1:])[0] * loss_w).imag / h for d in dirs]
        assert_close(dirs @ np.ravel(grads.get(t.id, np.zeros(size))), want, f"d{name}")
    # the bands' (n, n) layout, as traces keep it: out-of-chunk weights
    # are 0 and out-of-chunk scores are never computed
    dense_weights = rhema.band_to_dense(band_weights, 0.0)
    dense_scores = rhema.band_to_dense(band_scores, -np.inf)
    assert_close(dense_weights, weights, "dense weights")
    assert np.all(dense_weights[~mask] == 0.0)
    assert_close(dense_scores[mask], scores[mask], "dense scores")
    assert np.all(dense_scores[~mask] == -np.inf)


def test_local_stage_scores_are_a_band_on_the_tape(monkeypatch):
    # Each stage's scores are an (n, m) band; the local stage's peak
    # allocation stays below one (n, n) array of float64.
    n = 256
    enc = rhema.HierarchicalEncoder(make_run(chunk_size=8, attn_fn="softmax"),
                                    np.random.default_rng(16))
    real = ad.band_attention
    stages = []

    def measured(*args, **kw):
        tracemalloc.start()
        try:
            result = real(*args, **kw)
            stages.append((result[1].shape, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(ad, "band_attention", measured)
    tape = ad.Tape()
    x = ad.Tensor(np.random.default_rng(17).standard_normal((n, 4)) * 0.3)
    enc.forward(tape, x, one(n))
    assert [shape for shape, _ in stages] == [(n, 8), (n, n)]  # local, then global
    assert stages[0][1] < n * n * 8
    assert [name for name, *_ in tape.records].count("band_attention") == 2

"""Embedding lookup, pretrained vector loading, and the BiLSTM."""

import numpy as np
import pytest

from hreb import autodiff as ad
from hreb import encoders
from hreb.data import Sentence, Vocab
from hreb.errors import ConfigError
from hreb.pack import one
from references import KERNELS


def small_vocab():
    return Vocab([Sentence(["cat", "dog", "eel"], ["O", "O", "O"])])


def test_embedding_table_reserves_zero_pad_row():
    rng = np.random.default_rng(0)
    t = encoders.EmbeddingTable(5, 3, pad_id=0, rng=rng)
    assert np.all(t.table.data[0] == 0.0)
    assert np.abs(t.table.data[1:]).max() <= 0.1
    assert t.params() == [t.table]


def test_embed_tokens_looks_up_rows_and_blocks_pad_gradient():
    rng = np.random.default_rng(1)
    t = encoders.EmbeddingTable(4, 2, pad_id=0, rng=rng)
    tape = ad.Tape()
    ids = np.array([2, 0, 2, 3])
    out = encoders.embed_tokens(tape, ids, t)
    assert np.array_equal(out.data, t.table.data[ids])
    loss = ad.sum_all(tape, out)
    grads = ad.backward(tape, loss)
    g = grads[t.table.id]
    assert np.all(g[0] == 0.0)  # pad row untouched even though id 0 was used
    assert np.all(g[2] == 2.0)  # repeated id accumulates
    assert np.all(g[3] == 1.0)


def write_vectors(path, rows, dim):
    lines = [f"{len(rows)} {dim}"]
    for tok, vec in rows:
        lines.append(tok + " " + " ".join(f"{v:.6f}" for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_embedding_file_hits_misses_and_coverage(tmp_path):
    vocab = small_vocab()
    p = tmp_path / "vecs.txt"
    write_vectors(p, [("cat", [1.0, 2.0]), ("owl", [9.0, 9.0])], 2)
    t1 = encoders.load_embedding_file(p, vocab, 2, seed=7)
    t2 = encoders.load_embedding_file(p, vocab, 2, seed=7)
    cat_id = vocab.token_to_id["cat"]
    assert np.allclose(t1.table.data[cat_id], [1.0, 2.0])
    assert np.all(t1.table.data[vocab.pad_id] == 0.0)
    # 1 hit ("cat") out of 5 vocab entries (pad, unk, cat, dog, eel)
    assert t1.coverage == pytest.approx(1 / 5)
    # missing rows are seeded: same seed, same table
    assert np.array_equal(t1.table.data, t2.table.data)
    t3 = encoders.load_embedding_file(p, vocab, 2, seed=8)
    dog_id = vocab.token_to_id["dog"]
    assert not np.array_equal(t2.table.data[dog_id], t3.table.data[dog_id])


@pytest.mark.parametrize("ending", [" \n", "\r\n", " \r\n"])
def test_load_embedding_file_accepts_trailing_space_and_crlf(tmp_path, ending):
    # word2vec's text writer ends every vector line with a space
    p = tmp_path / "vecs.txt"
    p.write_bytes(f"1 2{ending}cat 1.5 -2.0{ending}".encode("utf-8"))
    t = encoders.load_embedding_file(p, small_vocab(), 2)
    assert np.array_equal(t.table.data[small_vocab().token_to_id["cat"]], [1.5, -2.0])
    assert t.coverage == pytest.approx(1 / 5)


def test_load_embedding_file_error_positions(tmp_path):
    vocab = small_vocab()
    p = tmp_path / "bad.txt"

    p.write_text("just-one-field\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, vocab, 2)
    assert f"{p}:1" in str(e.value)

    p.write_text("two 2\ncat 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, vocab, 2)
    assert "two integers" in str(e.value)

    p.write_text("1 2\ncat 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, vocab, 2)
    assert f"{p}:2" in str(e.value)

    p.write_text("1 2\ncat 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, vocab, 2)
    assert "non-numeric" in str(e.value)

    p.write_text("3 2\ncat 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, vocab, 2)
    assert "promised 3" in str(e.value)

    p.write_text("1 4\ncat 1.0 2.0 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        encoders.load_embedding_file(p, vocab, 2)


def test_load_embedding_file_names_a_repeated_token(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("2 2\ncat 1.0 2.0\n\ncat 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as e:
        encoders.load_embedding_file(p, small_vocab(), 2)
    assert str(e.value) == f"{p}:4: token 'cat' repeats the vector of line 2"


def lstm_brute(x, w, u, b):
    """Step-by-step single-direction LSTM, gate order i,f,c,o."""
    n = x.shape[0]
    h_dim = u.shape[0]
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    out = np.zeros((n, h_dim))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for t in range(n):
        a = x[t] @ w + h @ u + b
        i_g = sig(a[:h_dim])
        f_g = sig(a[h_dim:2 * h_dim])
        c_g = np.tanh(a[2 * h_dim:3 * h_dim])
        o_g = sig(a[3 * h_dim:])
        c = f_g * c + i_g * c_g
        h = o_g * np.tanh(c)
        out[t] = h
    return out


def test_bilstm_matches_brute_force():
    rng = np.random.default_rng(2)
    net = encoders.BiLstm(3, 2, rng)
    x = rng.standard_normal((5, 3))
    got = net.forward(None, ad.Tensor(x), one(5)).data
    fwd = lstm_brute(x, net.fwd.w.data, net.fwd.u.data, net.fwd.b.data)
    bwd = lstm_brute(x[::-1], net.bwd.w.data, net.bwd.u.data, net.bwd.b.data)[::-1]
    want = np.concatenate([fwd, bwd], axis=1)
    assert got.shape == (5, 4)
    assert np.abs(got - want).max() < 1e-12


def test_bilstm_parameter_gradcheck():
    from hreb.gradcheck import finite_diff_params

    rng = np.random.default_rng(5)
    net = encoders.BiLstm(3, 2, rng)
    x_data = rng.standard_normal((4, 3))

    def build(tape):
        out = net.forward(tape, ad.Tensor(x_data), one(4))
        return ad.sum_all(tape, ad.mul(tape, out, out))

    errs = finite_diff_params(build, net.params())
    assert max(errs.values()) < 1e-6


def bilstm_inputs(rng, n, h, d=3):
    """x and each direction's w, u, b, in bilstm_seq's argument order."""
    x = rng.standard_normal((n, d))
    lanes = [(rng.standard_normal((d, 4 * h)), rng.standard_normal((h, 4 * h)) * 0.5,
              rng.standard_normal(4 * h) * 0.1) for _ in range(2)]
    return [x, *lanes[0], *lanes[1]]


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("h", [1, 4])
def test_bilstm_seq_matches_two_reference_lstms(n, h):
    # one reference LSTM per direction, the backward one on reversed rows
    fwd, bwd = KERNELS["lstm_forward"], KERNELS["lstm_backward"]
    rng = np.random.default_rng(10 * n + h)
    x, w_f, u_f, b_f, w_b, u_b, b_b = args = bilstm_inputs(rng, n, h)
    dout = rng.standard_normal((n, 2 * h))
    x_rev = x[::-1]
    hid_f, gates_f, cells_f = fwd(x @ w_f, u_f, b_f)
    hid_b, gates_b, cells_b = fwd(x_rev @ w_b, u_b, b_b)
    dxw_f, du_f, db_f = bwd(gates_f, cells_f, hid_f, u_f, dout[:, :h])
    dxw_b, du_b, db_b = bwd(gates_b, cells_b, hid_b, u_b, dout[::-1, h:])
    want_out = np.concatenate([hid_f, hid_b[::-1]], axis=1)
    want_grads = [dxw_f @ w_f.T + (dxw_b @ w_b.T)[::-1],
                  x.T @ dxw_f, du_f, db_f, x_rev.T @ dxw_b, du_b, db_b]

    tape = ad.Tape()
    ts = [ad.Tensor(a, requires_grad=True) for a in args]
    out = ad.bilstm_seq(tape, *ts, one(n))
    loss = ad.sum_all(tape, ad.mul(tape, out, ad.Tensor(dout)))
    grads = ad.backward(tape, loss)
    assert out.data.shape == (n, 2 * h)
    assert np.abs(out.data - want_out).max() < 1e-12
    for t, want in zip(ts, want_grads):
        assert grads[t.id].shape == want.shape
        assert np.abs(grads[t.id] - want).max() < 1e-12


def test_bilstm_seq_lanes_share_no_state():
    # a different backward recurrent matrix must leave the forward half
    # bit-identical: the block-diagonal packing carries nothing across lanes
    rng = np.random.default_rng(4)
    args = bilstm_inputs(rng, 9, 4)
    before = ad.bilstm_seq(None, *map(ad.Tensor, args), one(9)).data
    args[5] = args[5] + rng.standard_normal(args[5].shape)
    after = ad.bilstm_seq(None, *map(ad.Tensor, args), one(9)).data
    assert np.array_equal(before[:, :4], after[:, :4])
    assert not np.array_equal(before[:, 4:], after[:, 4:])

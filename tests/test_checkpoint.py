"""Checkpoint round trips and rejection of foreign or damaged files."""

import json
import math
import re
import struct

import numpy as np
import pytest

from conftest import rewrite_checkpoint_header
from hreb import checkpoint, training
from hreb.config import RunConfig
from hreb.data import synth_corpus
from hreb.errors import CheckpointError


def trained(tmp_path, **kw):
    cfg_kw = dict(d_model=8, n_ema_head=2, chunk_size=2, rel_bias_window=4,
                  h_lstm=4, batch_size=4, max_epochs=1, lr=1e-3,
                  attn_fn="softmax", reduced_bias="dynamic", seed=0)
    cfg_kw.update(kw)
    cfg = RunConfig(**cfg_kw)
    corpus = synth_corpus(1, n_sentences=8, entity_types=2)
    result = training.train(cfg, corpus)
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, cfg, result.model.vocab,
                               training.snapshot(result.model))
    return cfg, result, path


def test_roundtrip_is_bit_identical(tmp_path):
    cfg, result, path = trained(tmp_path)
    model, loaded_cfg = checkpoint.load_model(path)
    assert loaded_cfg.to_dict() == cfg.to_dict()
    assert model.vocab.tokens == result.model.vocab.tokens
    assert model.vocab.tags == result.model.vocab.tags
    old = {p.name: p.data for p in result.model.params()}
    for p in model.params():
        # array_equal treats -inf == -inf as equal, which the transition
        # table boundaries rely on
        assert np.array_equal(p.data, old[p.name]), p.name
    for gs_old, gs_new in zip(result.model.gate_states(), model.gate_states()):
        assert np.array_equal(gs_old.cache_f, gs_new.cache_f)
        assert np.array_equal(gs_old.cache_x, gs_new.cache_x)


def test_roundtrip_preserves_predictions(tmp_path):
    cfg, result, path = trained(tmp_path)
    model, _ = checkpoint.load_model(path)
    corpus = synth_corpus(2, n_sentences=6, entity_types=2)
    for s in corpus.test[:6]:
        ids = result.model.vocab.encode_tokens(s.tokens)
        assert list(result.model.decode(ids)) == list(model.decode(ids))


def test_load_checkpoint_returns_raw_state(tmp_path):
    cfg, result, path = trained(tmp_path)
    loaded_cfg, vocab, state = checkpoint.load_checkpoint(path)
    snap = training.snapshot(result.model)
    assert set(state["params"]) == set(snap["params"])
    for name, arr in snap["params"].items():
        assert np.array_equal(state["params"][name], arr)
    assert len(state["caches"]) == len(snap["caches"])


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        checkpoint.load_checkpoint(tmp_path / "nope.ckpt")


def test_bad_magic_is_rejected(tmp_path):
    p = tmp_path / "fake.ckpt"
    p.write_bytes(b"ELF\x7f" + b"\x00" * 64)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(p)
    assert "magic" in str(e.value)


def test_newer_version_is_refused_with_both_versions_named(tmp_path):
    cfg, result, path = trained(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(path)
    assert "version 2" in str(e.value)
    assert "reads 1" in str(e.value)


def test_truncated_payload_is_detected(tmp_path):
    cfg, result, path = trained(tmp_path)
    blob = path.read_bytes()
    (tmp_path / "short.ckpt").write_bytes(blob[:len(blob) - 40])
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(tmp_path / "short.ckpt")
    assert "truncated" in str(e.value)


def test_corrupt_header_json_is_detected(tmp_path):
    cfg, result, path = trained(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[16] = 0xFF  # first header byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(path)
    assert "header" in str(e.value)


@pytest.mark.parametrize("header, named", [
    (b'{"x": 1}', "lacks config, tokens, tags, params, cache_dims"),
    (b"[1, 2]", "not a JSON object"),
], ids=["keyless_object", "list"])
def test_header_without_the_required_keys_is_refused(tmp_path, header, named):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION)
                  + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(p)
    assert named in str(e.value)


@pytest.mark.parametrize("hlen", [1 << 62, (1 << 63) + 5])
def test_a_header_length_past_the_end_of_the_file_is_refused(tmp_path, hlen):
    p = tmp_path / "long.ckpt"
    p.write_bytes(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION)
                  + struct.pack("<Q", hlen) + b'{"x": 1}')
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(p)
    assert str(e.value) == (f"{p}: header length {hlen} runs past the end of "
                            "the file (8 bytes left)")


def _drop_pad(header):
    header["tokens"].remove("<pad>")


@pytest.mark.parametrize("edit, field", [
    (lambda h: h["params"][0].pop("shape"), "params"),
    (lambda h: h.update(cache_dims=[str(d) for d in h["cache_dims"]]), "cache_dims"),
    (lambda h: h.update(config=list(h["config"].items())), "config"),
    (lambda h: h["config"].update(d_modle=8), "config"),
    (_drop_pad, "tokens"),
], ids=["param_without_shape", "string_cache_dims", "config_as_list",
        "unknown_config_key", "tokens_without_pad"])
def test_malformed_header_field_is_refused_by_name(tmp_path, edit, field):
    cfg, result, path = trained(tmp_path)
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(path, bad, edit)
    with pytest.raises(CheckpointError, match=f"checkpoint field '{field}'"):
        checkpoint.load_checkpoint(bad)


def _with_z_dim(z_dim):
    """A header edit that stores z_dim after d_model, as files written
    before the key was deleted do."""
    def edit(header):
        config = header.pop("config")
        header["config"] = {}
        for key, value in config.items():
            header["config"][key] = value
            if key == "d_model":
                header["config"]["z_dim"] = z_dim
    return edit


def test_a_stored_z_dim_of_0_or_d_model_is_dropped_on_load(tmp_path):
    cfg, result, path = trained(tmp_path)
    want = [p.data for p in checkpoint.load_model(path)[0].params()]
    for z_dim in (0, cfg.d_model):
        old = tmp_path / f"z{z_dim}.ckpt"
        rewrite_checkpoint_header(path, old, _with_z_dim(z_dim))
        model, loaded_cfg = checkpoint.load_model(old)
        assert loaded_cfg.to_dict() == cfg.to_dict()
        for p, w in zip(model.params(), want):
            assert np.array_equal(p.data, w), p.name


def test_a_stored_z_dim_that_never_built_a_model_is_refused(tmp_path):
    cfg, result, path = trained(tmp_path)
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(path, bad, _with_z_dim(cfg.d_model + 1))
    with pytest.raises(CheckpointError,
                       match="checkpoint field 'config' has z_dim 9"):
        checkpoint.load_checkpoint(bad)


def test_a_parameter_named_twice_is_refused(tmp_path):
    # embed.table's entry repeated, with zeros as the repeat's payload: a
    # later copy overwrote the earlier one, so the table loaded as zeros
    cfg, result, path = trained(tmp_path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    params = header["params"]
    i = [e["name"] for e in params].index("embed.table")
    end = 16 + hlen + 8 * sum(math.prod(e["shape"]) for e in params[:i + 1])
    params.insert(i + 1, dict(params[i]))
    new = json.dumps(header).encode("utf-8")
    twice = tmp_path / "twice.ckpt"
    twice.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new
                      + blob[16 + hlen:end] + bytes(8 * math.prod(params[i]["shape"]))
                      + blob[end:])
    with pytest.raises(CheckpointError, match="checkpoint field 'params' names "
                                              "parameter 'embed.table' twice"):
        checkpoint.load_checkpoint(twice)


@pytest.mark.parametrize("field", ["tokens", "tags"])
def test_a_token_or_tag_named_twice_is_refused(tmp_path, field):
    # the list keeps its length, so every size check still passes: a
    # repeated token's first row was unreachable, and a repeated tag read
    # as its later class id
    cfg, result, path = trained(tmp_path)
    repeated = getattr(result.model.vocab, field)[-2]

    def repeat(header):
        header[field][-1] = header[field][-2]

    twice = tmp_path / "twice.ckpt"
    rewrite_checkpoint_header(path, twice, repeat)
    with pytest.raises(CheckpointError, match=re.escape(
            f"checkpoint field '{field}' names {field[:-1]} {repeated!r} twice")):
        checkpoint.load_checkpoint(twice)


def test_trailing_bytes_after_payload_are_detected(tmp_path):
    cfg, result, path = trained(tmp_path)
    long = tmp_path / "long.ckpt"
    long.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_checkpoint(long)
    assert "after the last gate cache" in str(e.value)


def test_architecture_mismatch_is_refused(tmp_path):
    cfg, result, path = trained(tmp_path)
    loaded_cfg, vocab, state = checkpoint.load_checkpoint(path)
    # drop one parameter and rewrite: the rebuilt model must notice
    name = sorted(state["params"])[0]
    del state["params"][name]
    p2 = tmp_path / "mangled.ckpt"
    checkpoint.save_checkpoint(p2, loaded_cfg, vocab, state)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_model(p2)
    assert name in str(e.value)


@pytest.mark.parametrize("name, at, value", [
    ("embed.table", (1, 0), np.nan),
    # a core entry, and one in the start column, where the built table
    # holds -inf
    ("crf.trans", (0, 1), np.inf),
    ("crf.trans", (1, -2), np.inf),
])
def test_a_non_finite_parameter_is_refused_by_name(tmp_path, name, at, value):
    cfg, result, path = trained(tmp_path)
    loaded_cfg, vocab, state = checkpoint.load_checkpoint(path)
    arr = state["params"][name]
    arr[at] = value
    p2 = tmp_path / "non_finite.ckpt"
    checkpoint.save_checkpoint(p2, loaded_cfg, vocab, state)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_model(p2)
    at = tuple(i % n for i, n in zip(at, arr.shape))
    assert str(e.value) == (f"parameter {name}: stored value {value} at {at} "
                            "is not finite")


def test_a_non_finite_gate_cache_is_refused_by_name(tmp_path):
    cfg, result, path = trained(tmp_path)
    loaded_cfg, vocab, state = checkpoint.load_checkpoint(path)
    state["caches"][1][1][2] = -np.inf
    p2 = tmp_path / "non_finite_cache.ckpt"
    checkpoint.save_checkpoint(p2, loaded_cfg, vocab, state)
    with pytest.raises(CheckpointError, match=r"^gate enc\.local\.ffn\.rb "
                       r"cache_x: stored value -inf at \(2,\) is not finite$"):
        checkpoint.load_model(p2)


@pytest.mark.parametrize("reduced_bias", ["dynamic", "static"])
def test_gate_cache_of_the_wrong_length_is_refused(tmp_path, reduced_bias):
    # static mode never reads the caches, so a bad one would go unnoticed
    # until the model met a dynamic-mode config
    cfg, result, path = trained(tmp_path, reduced_bias=reduced_bias)
    loaded_cfg, vocab, state = checkpoint.load_checkpoint(path)
    d = cfg.d_model
    state["caches"][1] = (np.zeros(d + 1), np.zeros(d + 1))
    p2 = tmp_path / "long_cache.ckpt"
    checkpoint.save_checkpoint(p2, loaded_cfg, vocab, state)
    with pytest.raises(CheckpointError) as e:
        checkpoint.load_model(p2)
    assert "gate enc.local.ffn.rb" in str(e.value)
    assert f"length {d + 1} != d_model {d}" in str(e.value)


def test_load_model_never_reads_embedding_files(tmp_path):
    # a config trained with embeddings=file must reload from the payload
    # alone, even when the vector file is long gone
    vec = tmp_path / "vecs.txt"
    vec.write_text("1 8\n" + "a " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
    cfg, result, path = trained(tmp_path, embeddings="file",
                                embedding_path=str(vec))
    vec.unlink()
    model, loaded_cfg = checkpoint.load_model(path)
    assert loaded_cfg.embeddings == "file"
    old = {p.name: p.data for p in result.model.params()}
    for p in model.params():
        assert np.array_equal(p.data, old[p.name])

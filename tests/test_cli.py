"""Command-line behavior: artifacts, formats, exit codes."""

import builtins
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

from conftest import rewrite_checkpoint_header
from hreb import autodiff as ad
from hreb import cli
from hreb.checkpoint import load_checkpoint, load_model, save_checkpoint
from hreb.config import RunConfig
from hreb.data import Vocab, parse_conll, synth_corpus, write_conll
from hreb.model import HrebModel
from hreb.training import snapshot

CONFIG = """\
# compact model for test runs
d_model=8
n_ema_head=2
chunk_size=2
rel_bias_window=4
h_lstm=4
batch_size=4
max_epochs=2
lr=0.001          # one thousandth
attn_fn=softmax
seed=0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One trained run shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synth_corpus(5, n_sentences=8, entity_types=2)
    write_conll(root / "train.txt", corpus.train)
    write_conll(root / "test.txt", corpus.test)
    cfg = CONFIG + f"train_path={root / 'train.txt'}\n" \
                   f"test_path={root / 'test.txt'}\n"
    (root / "run.cfg").write_text(cfg, encoding="utf-8")
    out = root / "run1"
    rc = cli.main(["train", "--config", str(root / "run.cfg"),
                   "--out", str(out)])
    assert rc == 0
    return root


def test_train_writes_artifacts_and_logs(workspace, capsys):
    out2 = workspace / "run2"
    rc = cli.main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out2)])
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("best.ckpt", "final.ckpt", "metrics.log", "summary.json"):
        assert (out2 / name).exists(), name
    stdout = captured.out.splitlines()
    assert stdout[0] == "d_model=8"
    assert any(l.startswith("epoch 1 P ") for l in stdout)
    assert stdout[-1].startswith("best epoch ")
    # metrics.log is the config echo plus the epoch lines
    log = (out2 / "metrics.log").read_text(encoding="utf-8").splitlines()
    assert log[0] == "d_model=8"
    assert sum(l.startswith("epoch ") for l in log) == 2
    import json
    summary = json.loads((out2 / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["d_model"] == 8
    assert len(summary["history"]) == 2


def test_repeat_training_run_is_byte_identical(workspace):
    log1 = (workspace / "run1" / "metrics.log").read_bytes()
    log2 = (workspace / "run2" / "metrics.log").read_bytes()
    assert log1 == log2
    ck1 = (workspace / "run1" / "best.ckpt").read_bytes()
    ck2 = (workspace / "run2" / "best.ckpt").read_bytes()
    assert ck1 == ck2


def test_train_requires_train_path(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("d_model=8\nn_ema_head=2\n",
                                      encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "train_path" in err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("d_modle=8\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "d_modle" in err and "line 1" in err
    assert "Traceback" not in err


def test_a_config_key_set_twice_is_a_config_error(workspace, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text(
        f"lr=0.1\nd_model=16\ntrain_path={workspace / 'train.txt'}\nlr=0.002\n",
        encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: config line 4: key 'lr' is already set "
                            "on line 1\n")
    assert not (tmp_path / "o").exists()


def test_reduced_bias_off_with_nonunit_weights_is_a_config_error(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("reduced_bias=off\nrb_beta=2\n",
                                      encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""  # rejected before the config echo
    for named in ("rb_alpha", "rb_beta", "reduced_bias=off"):
        assert named in captured.err


@pytest.mark.parametrize("line, key", [
    ("lr=nan", "lr"), ("adam_eps=inf", "adam_eps"), ("seed=-1", "seed"),
])
def test_a_non_finite_float_or_negative_seed_is_rejected_before_any_output(
        workspace, tmp_path, capsys, line, key):
    (tmp_path / "bad.cfg").write_text(
        f"train_path={workspace / 'train.txt'}\n{line}\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: key {key!r}")
    assert not (tmp_path / "o").exists()


def test_the_deleted_z_dim_key_is_rejected_before_any_output(
        workspace, tmp_path, capsys):
    # 64 is d_model, a value the key once accepted
    (tmp_path / "bad.cfg").write_text(
        f"train_path={workspace / 'train.txt'}\nz_dim=64\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "z_dim" in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_corpus_whose_tags_are_not_bio_is_refused_before_any_output(
        workspace, tmp_path, capsys, command):
    # BMES (the Resume corpus's scheme) for train, a bare type for eval
    bad = tmp_path / "bad.txt"
    bad.write_text({"train": "a S-NAME\n\nb B-NAME\nc M-NAME\nd E-NAME\n",
                    "eval": "a O\nb PER\n"}[command], encoding="utf-8")
    (tmp_path / "run.cfg").write_text(CONFIG + f"train_path={bad}\n", encoding="utf-8")
    argv = {"train": ["train", "--config", str(tmp_path / "run.cfg"),
                      "--out", str(tmp_path / "o")],
            "eval": ["eval", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                     "--corpus", str(bad)]}[command]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    line, tag = {"train": ("line 1", "'S-NAME'"), "eval": ("line 2", "'PER'")}[command]
    assert str(bad) in captured.err and line in captured.err and tag in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("which", ["config", "embedding", "predict", "corpus"])
def test_a_file_that_is_not_utf8_is_a_config_error_naming_it(
        workspace, tmp_path, capsys, which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"d_model=8\n\xff\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text((workspace / "run.cfg").read_text(encoding="utf-8")
                   + f"embeddings=file\nembedding_path={bad}\n", encoding="utf-8")
    ckpt = str(workspace / "run1" / "best.ckpt")
    rc = cli.main({
        "config": ["train", "--config", str(bad), "--out", str(tmp_path / "o")],
        "embedding": ["train", "--config", str(cfg), "--out", str(tmp_path / "o")],
        "predict": ["predict", "--ckpt", ckpt, "--in", str(bad),
                    "--out", str(tmp_path / "o.txt")],
        "corpus": ["eval", "--ckpt", ckpt, "--corpus", str(bad)],
    }[which])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("path_line, named", [
    ("", "embedding_path"),
    ("embedding_path=nope.vec\n", "nope.vec"),
], ids=["no_path", "missing_file"])
def test_unusable_embedding_file_is_a_config_error(workspace, tmp_path, capsys,
                                                   path_line, named):
    cfg = (workspace / "run.cfg").read_text(encoding="utf-8")
    (tmp_path / "emb.cfg").write_text(cfg + "embeddings=file\n" + path_line,
                                      encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "emb.cfg"),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("spelling", ["nan", "inf", "1e400"])
def test_a_non_finite_pretrained_vector_stops_train_before_any_output(
        workspace, tmp_path, capsys, spelling):
    vec = tmp_path / "vecs.txt"
    vec.write_text("1 8\na " + " ".join(["0.5"] * 7 + [spelling]) + "\n",
                   encoding="utf-8")
    cfg = (workspace / "run.cfg").read_text(encoding="utf-8")
    (tmp_path / "emb.cfg").write_text(
        cfg + f"embeddings=file\nembedding_path={vec}\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "emb.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {vec}:2: non-finite vector component\n"
    assert not (tmp_path / "o").exists()


def test_train_with_embedding_file_prints_coverage(workspace, tmp_path, capsys,
                                                   monkeypatch):
    train_split = parse_conll(workspace / "train.txt")
    n_tokens = len(Vocab(train_split).tokens)
    vec = tmp_path / "vecs.txt"
    vec.write_text(f"1 8\n{train_split[0].tokens[0]} " + " ".join(["0.5"] * 8)
                   + "\n", encoding="utf-8")
    cfg = (workspace / "run.cfg").read_text(encoding="utf-8")
    (tmp_path / "emb.cfg").write_text(
        cfg + f"embeddings=file\nembedding_path={vec}\n", encoding="utf-8")
    out = tmp_path / "o"
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(vec):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rc = cli.main(["train", "--config", str(tmp_path / "emb.cfg"),
                   "--out", str(out)])
    monkeypatch.undo()
    stdout = capsys.readouterr().out.splitlines()
    assert rc == 0
    # the check before the config echo is the model's one read
    assert len(opened) == 1
    assert stdout.count(f"embedding coverage {1 / n_tokens:.6f}") == 1
    assert "coverage" not in (out / "metrics.log").read_text(encoding="utf-8")


def test_failed_model_build_leaves_no_output_directory(workspace, tmp_path,
                                                       capsys):
    cfg = (workspace / "run.cfg").read_text(encoding="utf-8")
    (tmp_path / "emb.cfg").write_text(
        cfg + "embeddings=file\nembedding_path=nope.vec\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "emb.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.vec" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_path_that_is_a_file_is_a_config_error(workspace, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep me\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(afile)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(afile) in captured.err
    assert not any(l.startswith("epoch ") for l in captured.out.splitlines())
    assert afile.read_text(encoding="utf-8") == "keep me\n"


def test_diverged_training_exits_4_but_keeps_artifacts(workspace, capsys,
                                                       monkeypatch):
    from hreb import training
    from hreb.errors import DivergenceError

    def explode(*a, **kw):
        raise DivergenceError("non-finite training loss")

    monkeypatch.setattr(training, "_epoch_pass", explode)
    out = workspace / "run_div"
    rc = cli.main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "diverged" in captured.err
    assert (out / "best.ckpt").exists()


def test_degenerate_attention_abort_names_its_reason(workspace, capsys,
                                                     monkeypatch):
    import json

    from hreb import training
    from hreb.errors import DegenerateRowError

    def degenerate(*a, **kw):
        raise DegenerateRowError("row 6 sums to -3.34; cannot normalize")

    monkeypatch.setattr(training, "_epoch_pass", degenerate)
    out = workspace / "run_degenerate"
    rc = cli.main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "training aborted (degenerate_attention)" in captured.err
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["stop_reason"] == "degenerate_attention"
    assert summary["diverged"] is True


def test_eval_prints_span_report(workspace, capsys):
    rc = cli.main(["eval", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--corpus", str(workspace / "test.txt")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith("micro P=")
    assert "gold=" in out[0]


def test_eval_rejects_foreign_version_with_exit_3(workspace, tmp_path, capsys):
    blob = bytearray((workspace / "run1" / "best.ckpt").read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    newer = tmp_path / "newer.ckpt"
    newer.write_bytes(bytes(blob))
    rc = cli.main(["eval", "--ckpt", str(newer),
                   "--corpus", str(workspace / "test.txt")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "version 99" in err


def test_eval_rejects_malformed_header_with_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(workspace / "run1" / "best.ckpt", bad,
                              lambda h: h["params"][0].pop("shape"))
    rc = cli.main(["eval", "--ckpt", str(bad),
                   "--corpus", str(workspace / "test.txt")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'params'" in err


@pytest.mark.parametrize("edit, named", [
    (lambda h: h["params"][0].update(shape=[1 << 20, 1 << 20]), ("'params'", "truncated")),
    (lambda h: h["config"].update(d_model=8.0), ("'config'", "'d_model'")),
    (lambda h: h["config"].update(h_lstm=True), ("'config'", "'h_lstm'")),
    (lambda h: h["config"].update(chunk_size=2.5), ("'config'", "'chunk_size'")),
    (lambda h: h.update(tags=[]), ("'tags'", "empty")),
], ids=["payload_larger_than_file", "float_d_model", "bool_h_lstm", "float_chunk_size",
        "no_tags"])
def test_eval_rejects_a_header_it_cannot_load_with_exit_3(
        workspace, tmp_path, capsys, edit, named):
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(workspace / "run1" / "best.ckpt", bad, edit)
    rc = cli.main(["eval", "--ckpt", str(bad),
                   "--corpus", str(workspace / "test.txt")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(word in err for word in named), err


@pytest.mark.parametrize("hlen", [1 << 62, (1 << 63) + 5])
def test_eval_refuses_a_header_length_past_the_end_of_the_file_with_exit_3(
        workspace, tmp_path, capsys, hlen):
    blob = bytearray((workspace / "run1" / "best.ckpt").read_bytes())
    blob[8:16] = struct.pack("<Q", hlen)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["eval", "--ckpt", str(bad),
                   "--corpus", str(workspace / "test.txt")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and f"header length {hlen}" in err


def test_predict_writes_conll_and_warns_on_empty_lines(workspace, tmp_path,
                                                       capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("a b c d\n\nA B e\n   \n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--in", str(raw), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "skipped 2 empty input line(s)" in captured.err
    sents = parse_conll(str(out))
    assert [s.tokens for s in sents] == [["a", "b", "c", "d"], ["A", "B", "e"]]
    body = out.read_text(encoding="utf-8")
    assert "\t" in body.splitlines()[0]

    out2 = tmp_path / "pred2.txt"
    cli.main(["predict", "--ckpt", str(workspace / "run1" / "best.ckpt"),
              "--in", str(raw), "--out", str(out2)])
    capsys.readouterr()
    assert out.read_bytes() == out2.read_bytes()


def test_predict_decodes_in_packs_with_the_tags_of_each_sentence_alone(tmp_path,
                                                                     capsys,
                                                                     monkeypatch):
    # a fresh default-config model (reduced_laplace attention) in packs of 4
    corpus = synth_corpus(3, n_sentences=24, entity_types=3)
    config = RunConfig(batch_size=4)
    vocab = Vocab.from_corpus(corpus)
    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(str(ckpt), config, vocab,
                    snapshot(HrebModel(config, vocab)))
    sentences = [s.tokens for s in corpus.train]
    lines = [" ".join(tokens) for tokens in sentences]
    lines[3:3] = [""]
    lines[9:9] = ["  "]
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    decode, calls = HrebModel.decode, []
    monkeypatch.setattr(HrebModel, "decode",
                        lambda self, ids: calls.append(len(ids)) or decode(self, ids))
    rc = cli.main(["predict", "--ckpt", str(ckpt), "--in", str(raw),
                   "--out", str(out)])
    assert rc == 0
    # one call per pack of 4 id sequences, the last one possibly short
    assert len(calls) == -(-len(sentences) // 4) and calls[0] == 4
    assert "skipped 2 empty input line(s)" in capsys.readouterr().err
    model, _ = load_model(str(ckpt))
    want = "".join("".join(f"{tok}\t{tag}\n"
                           for tok, tag in zip(tokens, model.predict_tags(tokens)))
                   + "\n" for tokens in sentences)
    assert len({len(tokens) for tokens in sentences}) > 4
    assert out.read_text(encoding="utf-8") == want


def test_no_command_loads_scipy():
    # a fresh interpreter, so that no test module's scipy import counts
    p = subprocess.run(
        [sys.executable, "-c",
         "import sys; import hreb.cli; from hreb import verify; "
         "print(verify.run_suites('all')[0]); "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["True", "[]"]


def test_predict_refuses_a_nan_parameter_with_exit_3(workspace, tmp_path,
                                                    capsys):
    # the NaN sits in a row the sentence never reads, so decoding alone
    # would not show it
    sentence = "a b c d"
    config, vocab, state = load_checkpoint(workspace / "run1" / "best.ckpt")
    read = set(vocab.encode_tokens(sentence.split())) | {vocab.pad_id}
    row = max(set(range(len(vocab.tokens))) - read)
    state["params"]["embed.table"][row] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, config, vocab, state)
    raw = tmp_path / "raw.txt"
    raw.write_text(sentence + "\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--ckpt", str(bad), "--in", str(raw),
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (f"error: parameter embed.table: stored value nan at ({row}, 0) "
                   "is not finite\n")
    assert not out.exists()


def test_predict_to_an_unwritable_out_path_is_a_config_error(workspace, tmp_path,
                                                             capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("a b c d\n", encoding="utf-8")
    out = tmp_path / "nodir" / "pred.txt"
    rc = cli.main(["predict", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--in", str(raw), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err
    assert not out.parent.exists()


def test_inspect_dumps_traces_and_decodes(workspace, capsys):
    rc = cli.main(["inspect", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--sentence", "a b c d"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    labels = {l.split()[0] for l in out if not l.startswith(("tokens", "tags", "span"))}
    assert labels == {"local", "global"}

    def matrix(label, field, n):
        m = np.zeros((n, n))
        for l in out:
            parts = l.split()
            if parts[:2] == [label, field]:
                m[int(parts[2]), int(parts[3])] = float(parts[4])
        return m

    local_w = matrix("local", "weights", 4)
    global_w = matrix("global", "weights", 4)
    # chunk_size=2: the local stage cannot look across the chunk border
    assert np.all(local_w[:2, 2:] == 0.0) and np.all(local_w[2:, :2] == 0.0)
    assert np.abs(local_w.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(global_w.sum(axis=1) - 1.0).max() < 1e-9
    phi = [float(l.split()[4]) for l in out if l.split()[1:2] == ["phi"]]
    assert phi and all(0.0 < v < 1.0 for v in phi)
    tok_line = [l for l in out if l.startswith("tokens ")]
    tag_line = [l for l in out if l.startswith("tags ")]
    assert tok_line == ["tokens a b c d"]
    assert len(tag_line[0].split()) == 5
    for l in out:
        if l.startswith("span "):
            _, start, end, kind = l.split()
            assert 0 <= int(start) < int(end) <= 4


def test_inspect_splits_unsegmented_text_into_characters(workspace, capsys):
    rc = cli.main(["inspect", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--sentence", "abcd"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "tokens a b c d" in out


def test_inspect_splits_on_any_whitespace_as_predict_does(workspace, capsys):
    rc = cli.main(["inspect", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--sentence", "ab\tc"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "tokens ab c" in out
    assert len([l for l in out if l.startswith("tags ")][0].split()) == 3


def test_inspect_on_a_naive_model_prints_its_one_stage(tmp_path, capsys):
    corpus = synth_corpus(5, n_sentences=8, entity_types=2)
    config = RunConfig(d_model=8, n_ema_head=2, h_lstm=4, attention_mode="naive")
    vocab = Vocab.from_corpus(corpus)
    ckpt = tmp_path / "naive.ckpt"
    save_checkpoint(str(ckpt), config, vocab, snapshot(HrebModel(config, vocab)))
    rc = cli.main(["inspect", "--ckpt", str(ckpt), "--sentence", "a b c d"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    traced = [l.split() for l in out if not l.startswith(("tokens", "tags", "span"))]
    assert {t[0] for t in traced} == {"naive"}
    # no shared representation and no gates in the baseline
    assert {t[1] for t in traced} == {"q", "k", "v", "scores", "weights"}
    weights = np.zeros((4, 4))
    for _, field, i, j, value in traced:
        if field == "weights":
            weights[int(i), int(j)] = float(value)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9


def test_verify_command_reports_each_check(capsys):
    rc = cli.main(["verify", "--suite", "ema"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert all(l.startswith("PASS") for l in out[:-1])
    n = len(out) - 1
    assert out[-1] == f"{n}/{n} checks passed"


def test_verify_crf_suite_passes(capsys):
    rc = cli.main(["verify", "--suite", "crf"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1].endswith("checks passed")


def test_verify_detects_an_injected_gradient_fault(monkeypatch, capsys):
    # corrupting the sigmoid backward rule must fail the gradient suite and
    # flip the exit code
    def faulty(tape, a):
        y = expit(a.data)

        def bw(g):
            return (0.9 * g * y * (1.0 - y),)
        return ad.record_op(tape, "sigmoid", (a,), y, bw)

    monkeypatch.setattr(ad, "sigmoid", faulty)
    rc = cli.main(["verify", "--suite", "grad"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    lines = [l for l in out.splitlines() if l.endswith("checks passed")]
    passed, total = lines[0].split()[0].split("/")
    assert int(passed) < int(total)


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_pins_one_blas_thread_unless_the_user_set_a_count(preset):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    # the setting only takes effect if numpy has not loaded yet
    p = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; import hreb; early = 'numpy' in sys.modules; "
         "from hreb import cli; "
         "print(early, os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    want = preset or "1"
    assert p.stdout.split() == ["False", want, want]


def test_stats_three_files(workspace, tmp_path, capsys):
    corpus = synth_corpus(9, n_sentences=6, entity_types=2)
    paths = []
    for name, split in (("tr", corpus.train), ("dv", corpus.dev),
                        ("te", corpus.test)):
        p = tmp_path / f"{name}.txt"
        write_conll(p, split)
        paths.append(str(p))
    rc = cli.main(["stats", "--corpus"] + paths)
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    got = dict(l.split() for l in out)
    assert got["classes"] == "2"
    assert got["train"] == "6"
    assert got["dev"] == str(len(corpus.dev))
    assert got["test"] == "6"
    lengths = [len(s) for split in corpus.splits().values() for s in split]
    assert got["avg_len"] == f"{round(float(np.mean(lengths)), 2):.2f}"
    assert got["max_len"] == str(max(lengths))
    assert got["min_len"] == str(min(lengths))


def test_stats_two_files_alias_dev_to_test(workspace, capsys):
    rc = cli.main(["stats", "--corpus", str(workspace / "train.txt"),
                   str(workspace / "test.txt")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    got = dict(l.split() for l in out)
    assert got["dev"] == got["test"]


def test_stats_reads_any_typed_scheme_but_refuses_an_untyped_tag(tmp_path, capsys):
    bmes = tmp_path / "bmes.txt"
    bmes.write_text("a S-X\n\nb B-Y\nc M-Y\nd E-Y\ne O\n", encoding="utf-8")
    rc = cli.main(["stats", "--corpus", str(bmes)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "classes 2"
    # a bare PER used to count as a second type, 'R'
    bare = tmp_path / "bare.txt"
    bare.write_text("a B-X\nb PER\n", encoding="utf-8")
    rc = cli.main(["stats", "--corpus", str(bare)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert str(bare) in captured.err and "line 2" in captured.err
    assert "'PER'" in captured.err


def test_stats_rejects_more_than_three_files(workspace, capsys):
    p = str(workspace / "train.txt")
    rc = cli.main(["stats", "--corpus", p, p, p, p])
    assert rc == 2
    assert "1-3" in capsys.readouterr().err


def test_missing_corpus_file_is_a_config_error(workspace, capsys):
    rc = cli.main(["eval", "--ckpt", str(workspace / "run1" / "best.ckpt"),
                   "--corpus", "/nonexistent/x.txt"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_malformed_corpus_is_a_config_error_naming_the_file(
        workspace, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("a O\nb O extra\n", encoding="utf-8")
    argv = {"eval": ["eval", "--ckpt", str(workspace / "run1" / "best.ckpt")],
            "stats": ["stats"]}[command]
    rc = cli.main(argv + ["--corpus", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "line 2" in err


def test_a_bad_embedding_file_is_refused_before_any_output(workspace, tmp_path,
                                                           capsys):
    bad = tmp_path / "vecs.txt"
    bad.write_bytes(b"2 8\n\xff\n")
    cfg = (workspace / "run.cfg").read_text(encoding="utf-8")
    (tmp_path / "emb.cfg").write_text(
        cfg + f"embeddings=file\nembedding_path={bad}\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(tmp_path / "emb.cfg"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert str(bad) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()

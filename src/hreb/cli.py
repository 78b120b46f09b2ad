"""Command line: train, eval, predict, inspect, verify, stats.

Exit codes: 0 success, 1 verification failure, 2 config or data error,
3 checkpoint incompatibility, 4 numeric divergence. User errors print a
one-line message, never a traceback.
"""

import argparse
import json
import os
import sys

# One BLAS thread unless the user set a count; this must run before numpy
# loads. On a 2-vCPU machine threaded OpenBLAS intermittently made hreb's
# small matrix products several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import autodiff as ad
from . import verify as verify_mod
from .checkpoint import load_model, save_checkpoint
from .config import parse_config
from .data import Corpus, corpus_stats, decode_spans, parse_conll
from .encoders import read_embedding_file
from .errors import CheckpointError, ConfigError, NumericsError, read_lines
from .training import evaluate, train

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CKPT = 3
EXIT_DIVERGED = 4


def _read_corpus_file(path, source="--corpus", bio=True):
    """parse_conll(path, bio), failing with a ConfigError that names the file."""
    try:
        return parse_conll(path, bio)
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}")
    except ValueError as e:
        raise ConfigError(f"{source}: {path}: {e}")


def _load_corpus(cfg):
    if not cfg.train_path:
        raise ConfigError("config key 'train_path' is required for this command")

    def read(key):
        path = getattr(cfg, key)
        return _read_corpus_file(path, f"config key {key!r}") if path else []

    train_split, test_split, dev_split = map(
        read, ("train_path", "test_path", "dev_path"))
    return Corpus(train_split, dev_split, test_split)


def cmd_train(args):
    cfg = parse_config(args.config)
    corpus = _load_corpus(cfg)
    vectors = None
    if cfg.embeddings == "file":
        # refuse a bad file before any output
        vectors = read_embedding_file(cfg.embedding_path, cfg.d_model)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} exists and is not a directory")
    for line in cfg.lines():
        print(line)
    result = train(cfg, corpus, log=lambda s: print(s, flush=True), vectors=vectors)
    if cfg.embeddings == "file":
        print(f"embedding coverage {result.model.embed.coverage:.6f}")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {args.out}: {e.strerror}")
    vocab = result.model.vocab
    save_checkpoint(os.path.join(args.out, "best.ckpt"), cfg, vocab,
                    result.best_state)
    save_checkpoint(os.path.join(args.out, "final.ckpt"), cfg, vocab,
                    result.final_state)
    with open(os.path.join(args.out, "metrics.log"), "w", encoding="utf-8") as fh:
        fh.write("".join(cl + "\n" for cl in cfg.lines()))
        fh.write("".join(line + "\n" for line in result.lines))
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(result.summary(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"best epoch {result.best_epoch} F1 {result.best_f1:.6f} "
          f"({result.stop_reason})")
    if result.diverged:
        print(f"training aborted ({result.stop_reason}); best checkpoint retained",
              file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_eval(args):
    model, _ = load_model(args.ckpt)
    report = evaluate(model, _read_corpus_file(args.corpus))
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_predict(args):
    model, _ = load_model(args.ckpt)
    lines = [raw.split() for raw in read_lines(args.infile, "input")]
    sentences = [tokens for tokens in lines if tokens]
    skipped = len(lines) - len(sentences)
    out_lines = []
    for tokens, tags in zip(sentences, model.tag_sentences(sentences)):
        out_lines += [f"{tok}\t{tag}\n" for tok, tag in zip(tokens, tags)]
        out_lines.append("\n")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(out_lines))
    except OSError as e:
        raise ConfigError(f"cannot write output {args.out}: {e.strerror}")
    if skipped:
        print(f"warning: skipped {skipped} empty input line(s)", file=sys.stderr)
    return EXIT_OK


def cmd_inspect(args):
    model, _ = load_model(args.ckpt)
    text = args.sentence
    tokens = text.split() if any(c.isspace() for c in text) else list(text)
    if not tokens:
        raise ConfigError("empty sentence")
    ids = model.vocab.encode_tokens(tokens)
    tape = ad.Tape(record=False, traces=[])
    path = model.decode(ids, tape)
    for trace in tape.traces:
        for line in trace.lines():
            print(line)
    tags = [model.vocab.tags[i] for i in path]
    print("tokens " + " ".join(tokens))
    print("tags " + " ".join(tags))
    for start, end, kind in decode_spans(tags):
        print(f"span {start} {end} {kind}")
    return EXIT_OK


def cmd_verify(args):
    ok, results = verify_mod.run_suites(args.suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_stats(args):
    splits = [_read_corpus_file(p, bio=False) for p in args.corpus]
    if len(splits) == 1:
        corpus = Corpus(splits[0], [], [])
    elif len(splits) == 2:
        # train + test; validation aliases the test split
        corpus = Corpus(splits[0], splits[1], splits[1])
    elif len(splits) == 3:
        corpus = Corpus(splits[0], splits[1], splits[2])
    else:
        raise ConfigError("pass 1-3 corpus files: train [dev] test")
    st = corpus_stats(corpus)
    print(f"classes {st.n_classes}")
    print(f"train {st.sizes['train']}")
    print(f"dev {st.sizes['dev']}")
    print(f"test {st.sizes['test']}")
    print(f"avg_len {st.avg_len:.2f}")
    print(f"max_len {st.max_len}")
    print(f"min_len {st.min_len}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hreb",
        description="EMA-gated hierarchical attention sequence tagger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="tag raw tokenized sentences")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="one space-separated sentence per line")
    p.add_argument("--out", required=True, help="CoNLL-format output file")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("inspect", help="dump attention internals for one sentence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sentence", required=True,
                   help="space-separated tokens, or an unsegmented string")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("verify", help="run the built-in correctness suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + verify_mod.SUITES)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--corpus", nargs="+", required=True,
                   help="train [dev] test corpus files")
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CKPT
    except NumericsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

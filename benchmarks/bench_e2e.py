"""Per-sentence cost of training and decoding, two trees in one process.

Times, for 16 documents of n tokens (n in LENGTHS: 4, 16, 64 and 256), for
a ragged row of documents at the 24 training lengths of perfbench's
train_short workload (6 to 26 tokens; n is reported as 0), and for a
skewed row, one 256-token document and fifteen 8-token ones in one batch
(SKEWED; n is reported as -1):

- train: forward plus backward of each optimizer step's batch, through
  `training.batch_loss` as `training` runs it (one pack of up to 16
  documents on one tape), reported per sentence; the Adam step and the
  gate-cache commit are not included;
- decode: `HrebModel.decode` of the same documents, one call each,
  reported per call.

The two sides are the hreb package of this checkout (the change) and the
one under the src directory passed as --parent, imported as a second
package, `hreb_parent`. One freshly initialized model is saved as a
checkpoint and loaded into both. For each row, each document's decode and
each batch's training pass run on both sides back to back, the side that
goes first alternating. Rows taken in separate processes cannot resolve a
few percent; rows taken this way can. A row reports each side's median
and quartiles over REPEATS passes after two warm-up passes, their ratio
(change over parent), and whether the two sides decoded the same paths.
It also counts each side's `autodiff.record_op` calls: in one batch's
forward pass on a fresh tape (what perfbench traces as
`training.forward`), and in the first and the last decode call of a
freshly loaded model. And it takes each side's per-step memory,
`train_peak_mb`: the `tracemalloc` peak (MiB) over one untimed pass of
the row's training batches, each on a fresh tape. Unlike perfbench's
`peak_rss_mb`, it counts only what the step allocates, with no process
or interpreter baseline.

The workload is fixed: the default `RunConfig` (seed 0), a vocabulary from
`synth_corpus(0, 64, 3)`, and documents cut from that corpus's token stream.
BLAS is pinned to one thread before numpy loads, as perfbench does, and
the environment record is perfbench's.

Run from the repository root. To measure one tree, pass its own src (an
A/A run); to compare it with another checkout, pass that one's:

    python3 benchmarks/bench_e2e.py --parent src --label "aa 1" --out BENCH_21.json
    python3 benchmarks/bench_e2e.py --parent ../parent/src --label "ab 1" \
        --out BENCH_21.json

The file keeps one entry per label; a rerun replaces that label's entry.
The script refuses to add to a file whose recorded workload differs from
its own.
"""

import os
import sys

# Pins BLAS to one thread (before numpy loads) and puts src/ on the path;
# its environment() is the record perfbench writes.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import environment  # noqa: E402
from inputs import SHORT_LENGTHS  # noqa: E402

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from hreb import training  # noqa: E402
from hreb.checkpoint import save_checkpoint  # noqa: E402
from hreb.config import RunConfig  # noqa: E402
from hreb.data import Vocab, synth_corpus  # noqa: E402
from hreb.model import HrebModel  # noqa: E402

BATCH = 16
CORPUS = (0, 64, 3)
LENGTHS = (4, 16, 64, 256)
SKEWED = [256] + [8] * 15
REPEATS = 15
SIDES = ("parent", "change")
WORKLOAD = {
    "config": "RunConfig() defaults",
    "vocab": f"synth_corpus{CORPUS}",
    "batch": BATCH,
    "lengths": list(LENGTHS),
    "ragged": SHORT_LENGTHS,
    "skewed": SKEWED,
    "repeats": REPEATS,
    "train": "forward + backward of each batch on one tape "
             "(training.batch_loss), per sentence",
    "decode": "HrebModel.decode of the same documents, per call",
    "record_ops": "autodiff.record_op calls in one batch's forward pass "
                  "on a fresh tape",
    "decode_record_ops": "autodiff.record_op calls in one HrebModel.decode "
                         "call of a fresh model: the first call and the last",
    "train_peak_mb": "tracemalloc peak (MiB) over one untimed pass of the "
                     "row's training batches, each on a fresh tape",
    "ab": "both trees in one process, one checkpoint of a fresh model; per "
          "document (decode) or batch (train), the two sides run back to "
          "back, alternating which goes first",
}


def documents(corpus, vocab, lengths):
    """(ids, tag ids) windows of the given lengths from the corpus token stream."""
    sents = corpus.train + corpus.dev + corpus.test
    tokens = [t for s in sents for t in s.tokens]
    tags = [t for s in sents for t in s.tags]
    reps = -(-sum(lengths) // len(tokens))
    tokens, tags = tokens * reps, tags * reps
    out = []
    at = 0
    for n in lengths:
        tok, tag = tokens[at:at + n], tags[at:at + n]
        at += n
        if tag[0].startswith("I-"):
            tag = ["B-" + tag[0][2:]] + tag[1:]
        out.append((vocab.encode_tokens(tok), vocab.encode_tags(tag)))
    return out


def record_op_counts(autodiff, calls_of):
    """The autodiff.record_op calls made by each of calls_of's zero-argument
    calls."""
    record_op = autodiff.record_op
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return record_op(*args, **kwargs)

    autodiff.record_op = counting
    try:
        counts = []
        for call in calls_of:
            before = calls[0]
            call()
            counts.append(calls[0] - before)
    finally:
        autodiff.record_op = record_op
    return counts


def load_tree(src, name):
    """The hreb package under the src directory, imported as package name."""
    init = os.path.join(os.path.abspath(src), "hreb", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no hreb package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)


def side(package, ckpt):
    """One package copy's modules and its model loaded from ckpt."""
    mods = {m: importlib.import_module(f"{package}.{m}")
            for m in ("autodiff", "checkpoint", "training")}
    ns = SimpleNamespace(**mods, load=lambda: mods["checkpoint"].load_model(ckpt)[0])
    ns.model = ns.load()
    return ns


def train_forward(s, batch):
    """Side s's training loss of one batch, on a fresh tape."""
    tape = s.autodiff.Tape()
    return tape, s.training.batch_loss(s.model, tape, batch)[0]


def train_pass(s, batch):
    """Forward and backward of one batch on a tape, on side s."""
    s.autodiff.backward(*train_forward(s, batch))


def train_peak_mb(s, batches):
    """Side s's tracemalloc peak, in MiB, over one forward and backward
    pass of each batch."""
    tracemalloc.start()
    try:
        for batch in batches:
            train_pass(s, batch)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def ab_timed(pairs, per):
    """Each side's median and quartiles, over REPEATS passes after two
    warm-up ones, of a pass's time divided by per. A pass runs each
    (parent call, change call) pair back to back; which side goes first
    alternates from pair to pair and pass to pass."""
    totals = np.zeros((REPEATS + 2, 2))
    for r in range(REPEATS + 2):
        for i, pair in enumerate(pairs):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                pair[k]()
                totals[r, k] += time.perf_counter() - t0
    out = {}
    for k, label in enumerate(SIDES):
        q1, med, q3 = np.percentile(totals[2:, k] * 1e3 / per, [25, 50, 75])
        out[label] = {"median": med, "q1": q1, "q3": q3}
    out["ratio"] = out["change"]["median"] / out["parent"]["median"]
    return out


def measure(parent_src):
    """One row per document length, then the ragged and the skewed row:
    both sides' timings and counts."""
    load_tree(parent_src, "hreb_parent")
    corpus = synth_corpus(*CORPUS)
    vocab = Vocab.from_corpus(corpus)
    config = RunConfig()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "ab.ckpt")
        save_checkpoint(ckpt, config, vocab, training.snapshot(HrebModel(config, vocab)))
        sides = [side("hreb_parent", ckpt), side("hreb", ckpt)]
        for n, lengths in [(n, [n] * BATCH) for n in LENGTHS] + [
                (0, SHORT_LENGTHS), (-1, SKEWED)]:
            docs = documents(corpus, vocab, lengths)
            batches = [docs[i:i + BATCH] for i in range(0, len(docs), BATCH)]
            decode = ab_timed([[lambda s=s, ids=ids: s.model.decode(ids) for s in sides]
                               for ids, _ in docs], len(docs))
            train = ab_timed([[lambda s=s, b=b: train_pass(s, b) for s in sides]
                              for b in batches], len(docs))
            per_batch, per_decode, peak = {}, {}, {}
            for label, s in zip(SIDES, sides):
                peak[label] = train_peak_mb(s, batches)
                [per_batch[label]] = record_op_counts(
                    s.autodiff, [lambda: train_forward(s, batches[0])])
                fresh = s.load()
                counts = record_op_counts(
                    s.autodiff, [lambda ids=ids: fresh.decode(ids) for ids, _ in docs])
                per_decode[label] = {"first": counts[0], "later": counts[-1]}
            rows.append({
                "n": n,
                "decode_ms": decode,
                "train_ms_per_sentence": train,
                "same_paths": all(np.array_equal(*(s.model.decode(ids) for s in sides))
                                  for ids, _ in docs),
                "record_ops_per_batch": per_batch,
                "record_ops_per_decode": per_decode,
                "train_peak_mb": peak,
            })
            print(f"n={n:4d}  decode x{decode['ratio']:.4f}  train x{train['ratio']:.4f}"
                  f"  same paths {rows[-1]['same_paths']}"
                  f"  train peak MiB {peak['parent']:.2f} -> {peak['change']:.2f}"
                  f"  record_ops per batch {per_batch}  per decode {per_decode}",
                  flush=True)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of this entry in the output file, e.g. 'ab 1'")
    parser.add_argument("--out", required=True, help="BENCH_<pr>.json to update")
    parser.add_argument("--parent", metavar="SRC", required=True,
                        help="src directory of the tree to compare against, in "
                             "this process; this checkout's own src for an A/A run")
    args = parser.parse_args()

    doc = {"workload": WORKLOAD, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("workload") != WORKLOAD:
            sys.exit(f"error: {args.out} holds runs of another workload: "
                     f"{doc.get('workload')}")
    env = environment()
    print(json.dumps(env))
    rows = measure(args.parent)
    doc["runs"][args.label] = {"environment": env, "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

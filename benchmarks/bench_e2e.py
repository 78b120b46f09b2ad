"""Per-sentence cost of training and decoding on a fixed workload.

Times, for documents of n tokens (n in LENGTHS: 4, 16, 64 and 256):

- train: forward plus backward of one optimizer step's batch (16 documents
  on one tape, as `training` runs it), reported per sentence; the Adam
  step and the gate-cache commit are not included;
- decode: `HrebModel.decode` of the same 16 documents, reported per call;
- bilstm: `model.lstm.forward` on a tape plus its backward, fed each
  document's encoder output, reported per sentence (the BiLSTM's share of
  train).

It also counts the `autodiff.record_op` calls of a training sentence's
forward pass: the first sentence on a tape, a later one, and the mean over
the batch. The mean is the quantity perfbench traces as
`autodiff.record_op.per_sentence`, there averaged over its own batches.
And it counts the `record_op` calls of one `HrebModel.decode` call: the
first call of a fresh model and a later one.
Each timing is the median and quartiles of REPEATS runs after two warm-up
runs.

The workload is fixed: the default `RunConfig` (seed 0), a vocabulary from
`synth_corpus(0, 64, 3)`, and documents cut from that corpus's token stream.
BLAS is pinned to one thread before numpy loads, as perfbench does, and
the environment record is perfbench's.

Run from the repository root of each commit being compared (copy this
script into a checkout that lacks it), with the same output file,
alternating the two sides over several numbered labels:

    python3 benchmarks/bench_e2e.py --label "parent 1" --out BENCH_11.json
    python3 benchmarks/bench_e2e.py --label "change 1" --out BENCH_11.json

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

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from hreb import autodiff as ad  # noqa: E402
from hreb.config import RunConfig  # noqa: E402
from hreb.data import Vocab, synth_corpus  # noqa: E402
from hreb.encoders import embed_tokens  # noqa: E402
from hreb.model import HrebModel  # noqa: E402

BATCH = 16
CORPUS = (0, 64, 3)
LENGTHS = (4, 16, 64, 256)
REPEATS = 15
WORKLOAD = {
    "config": "RunConfig() defaults",
    "vocab": f"synth_corpus{CORPUS}",
    "batch": BATCH,
    "lengths": list(LENGTHS),
    "repeats": REPEATS,
    "train": "forward + backward of one batch on one tape, per sentence",
    "decode": "HrebModel.decode of the same documents, per call",
    "bilstm": "model.lstm.forward on a tape plus its backward, per sentence",
    "record_ops": "autodiff.record_op calls in one sentence's forward pass",
    "decode_record_ops": "autodiff.record_op calls in one HrebModel.decode "
                         "call of a fresh model: the first call and the last",
}


def documents(corpus, vocab, n, count):
    """count (ids, tag ids) windows of n tokens from the corpus token stream."""
    sents = corpus.train + corpus.dev + corpus.test
    tokens = [t for s in sents for t in s.tokens]
    tags = [t for s in sents for t in s.tags]
    reps = -(-n * count // len(tokens))
    tokens, tags = tokens * reps, tags * reps
    out = []
    for i in range(count):
        tok, tag = tokens[i * n:(i + 1) * n], tags[i * n:(i + 1) * n]
        if tag[0].startswith("I-"):
            tag = ["B-" + tag[0][2:]] + tag[1:]
        out.append((vocab.encode_tokens(tok), vocab.encode_tags(tag)))
    return out


def train_step(model, batch):
    """Forward and backward of one batch on one tape."""
    tape = ad.Tape()
    loss = None
    for ids, tag_ids in batch:
        nll = model.sentence_nll(tape, ids, tag_ids)
        loss = nll if loss is None else ad.add(tape, loss, nll)
    loss = ad.scale(tape, loss, 1.0 / len(batch))
    ad.backward(tape, loss)


def encoder_output(model, ids):
    """The BiLSTM's input for one document: its tape-free encoder output."""
    x = model.encoder.forward(None, embed_tokens(None, ids, model.embed))
    return ad.Tensor(x.data, requires_grad=True)


def bilstm_step(model, inputs, weights):
    """BiLSTM forward on a tape plus its backward, for each input."""
    for x, w in zip(inputs, weights):
        tape = ad.Tape()
        out = model.lstm.forward(tape, x)
        ad.backward(tape, ad.sum_all(tape, ad.mul(tape, out, w)))


def timed(fn):
    for _ in range(2):
        fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3}


def record_op_counts(calls_of):
    """The record_op calls made by each of calls_of's zero-argument calls."""
    record_op = ad.record_op
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return record_op(*args, **kwargs)

    ad.record_op = counting
    try:
        counts = []
        for call in calls_of:
            before = calls[0]
            call()
            counts.append(calls[0] - before)
    finally:
        ad.record_op = record_op
    return counts


def record_ops_per_sentence(model, batch):
    """record_op calls of each sentence's forward pass on one tape."""
    tape = ad.Tape()
    counts = record_op_counts(
        [lambda ids=ids, tag_ids=tag_ids: model.sentence_nll(tape, ids, tag_ids)
         for ids, tag_ids in batch])
    return {"first": counts[0], "later": counts[-1],
            "batch_mean": sum(counts) / len(counts)}


def record_ops_per_decode(config, vocab, batch):
    """record_op calls of each decode call of a fresh model."""
    model = HrebModel(config, vocab)
    counts = record_op_counts(
        [lambda ids=ids: model.decode(ids) for ids, _ in batch])
    return {"first": counts[0], "later": counts[-1]}


def measure():
    corpus = synth_corpus(*CORPUS)
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(RunConfig(), vocab)
    rng = np.random.default_rng(0)
    rows = []
    for n in LENGTHS:
        batch = documents(corpus, vocab, n, BATCH)
        train = timed(lambda: train_step(model, batch))
        decode = timed(lambda: [model.decode(ids) for ids, _ in batch])
        inputs = [encoder_output(model, ids) for ids, _ in batch]
        weights = [ad.Tensor(rng.standard_normal((n, 2 * model.lstm.h))) for _ in batch]
        bilstm = timed(lambda: bilstm_step(model, inputs, weights))
        rows.append({
            "n": n,
            "train_ms_per_sentence": {k: v * 1e3 / BATCH for k, v in train.items()},
            "decode_ms": {k: v * 1e3 / BATCH for k, v in decode.items()},
            "bilstm_ms": {k: v * 1e3 / BATCH for k, v in bilstm.items()},
            "record_ops_per_sentence": record_ops_per_sentence(model, batch),
            "record_ops_per_decode": record_ops_per_decode(model.config, vocab, batch),
        })
        print(f"n={n:4d}  train {rows[-1]['train_ms_per_sentence']['median']:8.3f} ms/sent"
              f"  decode {rows[-1]['decode_ms']['median']:8.3f} ms"
              f"  bilstm {rows[-1]['bilstm_ms']['median']:8.3f} ms"
              f"  record_ops {rows[-1]['record_ops_per_sentence']}"
              f"  decode record_ops {rows[-1]['record_ops_per_decode']}", flush=True)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of this entry in the output file, e.g. parent")
    parser.add_argument("--out", required=True, help="BENCH_<pr>.json to update")
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
    doc["runs"][args.label] = {"environment": env, "rows": measure()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

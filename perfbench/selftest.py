"""Quick self-test of the benchmark itself (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that each workload's inputs are a pure function of the seed and
have the fixed lengths the spec promises, that the decode and gradient
checks reject corrupted results, that a training abort is counted and
reported, and that tiny versions of all three workloads, untraced and
traced, pass their output checks and emit every BENCHMARK.json metric with
its unit. Exits 1 on the first failure.
"""

import sys

import run  # sets up sys.path and pins BLAS before numpy loads
import inputs
import spec

from hreb import autodiff as ad
from hreb.errors import DegenerateRowError


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest FAILED: {msg}")


def docs(sentences):
    return [(s.tokens, s.tags) for s in sentences]


def check_inputs(name):
    a = inputs.make_workload(name, 7)
    b = inputs.make_workload(name, 7)
    c = inputs.make_workload(name, 8)
    for split in ("train", "dev", "test"):
        sa = getattr(a.corpus, split)
        check(docs(sa) == docs(getattr(b.corpus, split)),
              f"{name}: seed 7 gave two different {split} splits")
        check([len(s) for s in sa] == [len(s) for s in getattr(c.corpus, split)],
              f"{name}: {split} lengths depend on the seed")
    check(docs(a.corpus.train) != docs(c.corpus.train),
          f"{name}: seeds 7 and 8 gave the same training text")
    for s in a.corpus.train + a.corpus.dev + a.decode:
        check(not s.tags[0].startswith("I-"), f"{name}: a document opens with I-")


def check_output_checks():
    """The decode and gradient checks accept real results, reject corrupted ones."""
    w = inputs.tiny_workload("train_short", 3)
    _, model = run.prepare(w, 3)
    n = model.crf.n_classes
    check(float(abs(model.crf.trans.data[:n, :n]).min()) > 0.0,
          "the set-up checkpoint has zero CRF transitions")
    sent = w.decode[0]
    tags = model.predict_tags(sent.tokens)
    check(not run.decode_problems(model, sent, tags), "a real decode was rejected")
    check(run.decode_problems(model, sent, tags[:-1]), "a short path was accepted")
    other = next(t for t in model.vocab.tags if t != tags[0])
    check(run.decode_problems(model, sent, [other] + tags[1:]),
          "a non-Viterbi path was accepted")

    check(not run.gradient_problems(model, sent, 3), "a real gradient was rejected")
    backward = ad.backward

    def wrong_backward(tape, loss, keep=()):
        grads = backward(tape, loss, keep)
        p = model.lstm.params()[0]
        grads[p.id] = grads[p.id] * 1.01
        return grads
    ad.backward = wrong_backward
    try:
        check(run.gradient_problems(model, sent, 3),
              "a 1% error in one LSTM gradient was accepted")
    finally:
        ad.backward = backward


def check_abort_accounting():
    """A training abort is a counted failure with its reason, not a crash.

    From the first timed round on, `normalize_rows` (the reduced_laplace row
    normalization) is made to raise DegenerateRowError on the tape, as
    ROADMAP's degenerate-row abort does; decoding (no tape) is left alone.
    """
    normalize_rows, train_round = ad.normalize_rows, run.train_round
    for first_only in (True, False):
        armed = []

        def degenerate(tape, a, mask=None):
            if tape is not None and armed and (not first_only or armed[-1]):
                armed.append(False)
                raise DegenerateRowError("row 0 sums to -1.0; cannot normalize")
            return normalize_rows(tape, a, mask)

        def arm_then_train(*args):
            if not armed:
                armed.append(True)
            train_round(*args)
        w = inputs.tiny_workload("train_short", 3)
        ad.normalize_rows, run.train_round = degenerate, arm_then_train
        try:
            rec, metrics, samples, _ = run.run(w, 3, 0.0, False)
        finally:
            ad.normalize_rows, run.train_round = normalize_rows, train_round
        result, missing = run.build_result(rec, metrics, False)
        rounds = samples["rounds"]
        label = "abort in the first round" if first_only else "abort in every round"
        aborts = 1 if first_only else rounds
        check(len(rec.aborts) == aborts and rec.failed == aborts,
              f"{label}: {rec.failed} failed, aborts {rec.aborts}")
        check(all("sums to -1.0" in a for a in rec.aborts),
              f"{label}: reason not recorded: {rec.aborts}")
        check(result["failed"] == aborts and
              metrics["ok_frac"] == 1.0 - aborts / rec.attempted,
              f"{label}: failures not in the result")
        check(not rec.problems, f"{label}: an abort was also reported as "
                                f"a wrong output: {rec.problems}")
        train = {"epoch_s", "train_tok_per_s", "train_loss_ratio"}
        if first_only:
            check(not missing and result["correct"],
                  f"{label}: metrics missing {missing}")
        else:
            check(set(missing) == train and not result["correct"],
                  f"{label}: missing {missing}, expected {sorted(train)}")
        print(f"selftest ok: {label} ({rec.failed}/{rec.attempted} failed)")


def check_tiny_run(name, trace):
    w = inputs.tiny_workload(name, 3)
    rec, metrics, samples, _ = run.run(w, 3, 0.0, trace)
    result, missing = run.build_result(rec, metrics, trace)
    label = f"{name} trace={int(trace)}"
    rounds = samples["rounds"]
    check(rounds >= 2, f"{label}: fewer than two rounds")
    check(not missing, f"{label}: metrics without a value: {missing}")
    check(result["correct"], f"{label}: output checks failed: {rec.problems}")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    for m in (spec.PER_LAYER if trace else spec.END_TO_END):
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} has unit {got['unit']}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {m['name']} is not a number")
    print(f"selftest ok: {label} ({rounds} rounds, {rec.attempted} operations)")


def main():
    for w in spec.WORKLOADS:
        check_inputs(w["name"])
    check_output_checks()
    print("selftest ok: seeded inputs, output checks")
    check_abort_accounting()
    for w in spec.WORKLOADS:
        for trace in (False, True):
            check_tiny_run(w["name"], trace)
    print("selftest passed")


if __name__ == "__main__":
    main()

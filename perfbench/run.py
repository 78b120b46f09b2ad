"""End-to-end benchmark of hreb: training and decoding through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop. Set-up trains the decode model for
one epoch on a small corpus, saves it with `checkpoint.save_checkpoint` and
reads it back with `load_model`; `setup_s` times that set-up in fresh
interpreters (setup_once.py). Before the timed loop, the loaded model's
gradients are checked against a central difference. Each round then
trains a fresh model with `training.train` for one epoch, scores the dev
set once more with `training.evaluate` (to separate training time from
per-epoch evaluation time), and decodes the workload's decode set one
sentence at a time with `HrebModel.predict_tags`. Rounds repeat for about
--seconds (at least two rounds). Times are rescaled to a reference machine
speed by speed.py; raw wall times are printed next to them. Outputs are
checked; a failed check counts as a failed operation and makes `correct`
false.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics from the traced ones, plus
the tracing overhead; the spans go to .perfbench_out/. Metric names, units
and bounds are read from BENCHMARK.json (spec.py). The last stdout line is
the JSON result.
"""

import os
import sys
import time

# Pin BLAS to one thread before numpy loads: faster and steadier here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

if not os.path.isfile(os.path.join(SRC, "hreb", "__init__.py")):
    sys.exit(f"error: no hreb sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hreb import autodiff as ad  # noqa: E402
from hreb import checkpoint, crf, kernels, training  # noqa: E402
from hreb.config import RunConfig  # noqa: E402
from hreb.data import Vocab  # noqa: E402
from hreb.errors import NumericsError  # noqa: E402
from hreb.model import HrebModel  # noqa: E402

import inputs  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

clock = time.perf_counter

# The benchmark's own extra dev scoring is not part of `training.train`;
# calling the original keeps it out of the traced training.evaluate span.
_evaluate = training.evaluate

SETUP_REPEATS = 5
SCORE_TOL = 1e-9
# Gradient check: sentence prefix, central-difference step along a unit
# direction, and the largest relative error a correct backward pass shows.
GRAD_TOKENS = 32
GRAD_EPS = 1e-4
GRAD_TOL = 1e-7
LSTM_BACKWARD_SEED_SHARE = "about 74-78% (numpy backend, seed state)"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if any."""
    import ctypes
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "backend": kernels.backend_name(),
        "backend_requested": os.environ.get("HREB_BACKEND", "numba").strip().lower(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def backend_warning(env):
    if env["backend"] == env["backend_requested"]:
        return None
    return (f"WARNING: HREB_BACKEND asked for {env['backend_requested']!r} but "
            f"the {env['backend']!r} kernels are running (numba is not "
            f"importable). Every number below is a {env['backend'].upper()} "
            f"number.")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def run_config(seed):
    """The default RunConfig, one epoch per `training.train` call."""
    return RunConfig(seed=seed, max_epochs=1, patience=1)


def build_decode_model(cfg, workload, path):
    """Train on the set-up corpus, save with save_checkpoint, read back.

    One epoch is one optimizer step, enough to make the CRF transitions
    non-zero, so the decode checks exercise them. The first call also pays
    the one-time costs (first calls, any kernel compilation).
    """
    result = training.train(cfg, workload.ckpt)
    if result.diverged:
        raise RuntimeError(f"set-up training failed: {result.lines[-1]}")
    model = result.model
    checkpoint.save_checkpoint(path, cfg, model.vocab, training.snapshot(model))
    loaded, _ = checkpoint.load_model(path)
    os.remove(path)
    return loaded


def train_nll(model, sentences):
    """Mean training loss (`sentence_nll`, no tape) of a model on sentences."""
    vocab = model.vocab
    return statistics.fmean(
        float(model.sentence_nll(None, vocab.encode_tokens(s.tokens),
                                 vocab.encode_tags(s.tags)).data)
        for s in sentences)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def decode_problems(model, sent, tags):
    """Why a decoded tag list is wrong for any correct implementation."""
    vocab = model.vocab
    if len(tags) != len(sent):
        return [f"path length {len(tags)} != sentence length {len(sent)}"]
    unknown = sorted(set(tags) - set(vocab.tags))
    if unknown:
        return [f"tags outside the vocab: {unknown}"]
    e = model.emissions(None, vocab.encode_tokens(sent.tokens))
    path, score = crf.viterbi(e, model.crf)
    p = model.crf

    def path_score(ids):
        return float(ad.crf_path_score(None, e, p.trans, ids, p.n_classes,
                                       p.strict_mask).data)
    out = []
    if [vocab.tags[i] for i in path] != tags:
        out.append("decode disagrees with Viterbi on the same emissions")
    s_path = path_score(path)
    if abs(score - s_path) > SCORE_TOL:
        out.append(f"Viterbi score {score!r} != path score {s_path!r}")
    s_gold = path_score(vocab.encode_tags(sent.tags))
    if s_gold > score + SCORE_TOL:
        out.append(f"gold path scores {s_gold!r} > Viterbi best {score!r}")
    return out


def gradient_problems(model, sent, seed):
    """Check the training-loss gradient along one seeded random direction.

    The tape's directional derivative (`autodiff.backward`, the backward
    kernels included) must match a central difference of the tape-free
    loss. This holds for any correct backward pass.
    """
    vocab = model.vocab
    ids = vocab.encode_tokens(sent.tokens[:GRAD_TOKENS])
    tags = vocab.encode_tags(sent.tags[:GRAD_TOKENS])
    params = model.params()
    tape = ad.Tape()
    grads = ad.backward(tape, model.sentence_nll(tape, ids, tags))
    for gs in model.gate_states():
        gs.pending = []
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float((grads[p.id] * d).sum())
                   for p, d in zip(params, dirs) if p.id in grads)

    def loss_at(step):
        saved = [p.data for p in params]
        for p, d in zip(params, dirs):
            p.data = p.data + step * d
        try:
            return float(model.sentence_nll(None, ids, tags).data)
        finally:
            for p, x in zip(params, saved):
                p.data = x
    numeric = (loss_at(GRAD_EPS) - loss_at(-GRAD_EPS)) / (2 * GRAD_EPS)
    err = abs(analytic - numeric) / max(1.0, abs(analytic))
    if err > GRAD_TOL:
        return [f"directional gradient {analytic!r} != central difference "
                f"{numeric!r} (relative error {err:.3g})"]
    return []


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

class Record:
    """Operations attempted and every failure, over all rounds of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []      # failed output checks
        self.aborts = []        # training aborts (stop reason lines)
        self.errors = []        # exceptions while decoding or checking
        self.outcome = None     # first round's epoch losses and trained params
        self.base_nll = None    # training NLL of the untrained model
        self.train_nll = None   # training NLL after a completed epoch
        self.decoded = {}       # first decode's tags, by decode-set index

    def fail(self, kind, msg):
        self.failed += 1
        getattr(self, kind).append(msg)


class Timings:
    """(start, end) clock readings from the rounds of one kind.

    Every round repeats the same work: one epoch, one extra dev scoring,
    and one decode of each decode-set sentence.
    """

    def __init__(self):
        self.rounds = 0
        self.epochs = []        # training.train calls that finished their epoch
        self.evals = []         # the extra dev scoring after each of those
        self.decodes = {}       # decode-set index -> intervals


def train_round(cfg, workload, rec, tm):
    """One `training.train` call, its extra dev scoring, and its checks.

    An abort is a failed operation, and the round's only outcome. Every
    round trains from the same seed, so every completed round must end with
    the same losses and weights. The first one also measures the trained
    model's training NLL, outside the timed intervals.
    """
    marks = []
    t0 = clock()
    result = training.train(cfg, workload.corpus,
                            log=lambda line: marks.append(clock()))
    te = clock()
    _evaluate(result.model, workload.corpus.dev)
    t1 = clock()

    rec.attempted += 1
    if result.diverged:
        rec.fail("aborts", f"{result.stop_reason}: {result.lines[-1]}")
        return
    tm.epochs.append((t0, marks[0]))
    tm.evals.append((te, t1))
    losses = [h["loss"] for h in result.history]
    if not all(math.isfinite(x) for x in losses):
        rec.fail("problems", f"non-finite epoch loss in {losses}")
    params = training.snapshot(result.model)["params"]
    if rec.outcome is None:
        rec.outcome = (losses, params)
    elif losses != rec.outcome[0] or any(
            not np.array_equal(params[k], v) for k, v in rec.outcome[1].items()):
        rec.fail("problems", f"same seed, different training result: losses "
                             f"{losses} vs {rec.outcome[0]}")
    if rec.train_nll is None:
        rec.train_nll = train_nll(result.model, workload.corpus.train)
        if not rec.train_nll < rec.base_nll:
            rec.fail("problems", f"training did not lower the training NLL: "
                                 f"{rec.train_nll!r} >= {rec.base_nll!r}")


def decode_pass(model, workload, indices, rec, tm):
    """Decode the given decode-set sentences, one call each, and check them.

    A sentence's first decode gets the full check; later decodes must
    repeat it exactly.
    """
    for i in indices:
        sent = workload.decode[i]
        rec.attempted += 1
        t = clock()
        try:
            tags = model.predict_tags(sent.tokens)
        except Exception as e:  # counted and reported, the loop goes on
            rec.fail("errors", f"{type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            continue
        tm.decodes.setdefault(i, []).append((t, clock()))
        if i not in rec.decoded:
            rec.decoded[i] = tags
            for msg in decode_problems(model, sent, tags):
                rec.fail("problems", f"sentence {i}: {msg}")
        elif tags != rec.decoded[i]:
            rec.fail("problems", f"sentence {i}: decode changed between rounds")


def prepare(workload, seed, tracer=None):
    """Set-up: train, save and load the decode model (repeatedly if traced)."""
    os.makedirs(OUT, exist_ok=True)
    cfg = run_config(seed)
    ckpt = os.path.join(OUT, f"{workload.name}-seed{seed}-{os.getpid()}.ckpt")
    if tracer is None:
        return cfg, build_decode_model(cfg, workload, ckpt)
    build_decode_model(cfg, workload, ckpt)  # first-call costs stay untraced
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            model = build_decode_model(cfg, workload, ckpt)
    finally:
        tracer.uninstall()
    return cfg, model


def fresh_setup_s(name, seed):
    """Median set-up time of fresh interpreters, and the raw wall times.

    Each interpreter runs setup_once.py, which times its imports and set-up
    at the reference speed; its start-up and exit count as measured.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_once.py"), name, str(seed)]
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        t = clock()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        wall = clock() - t
        inner = json.loads(out.strip().splitlines()[-1])
        times.append(wall - inner["raw_s"] + inner["normalized_s"])
        raw.append(wall)
    return statistics.median(times), statistics.median(raw)


def run(workload, seed, seconds, trace):
    """Set up, then run rounds for about `seconds`; returns record and metrics.

    A round decodes the first half of the decode set, trains, then decodes
    the second half, so decode samples spread over the whole run. When
    tracing, odd rounds are traced and even ones are not. The speed sampler
    runs for the whole loop.
    """
    tracer = Tracer() if trace else None
    setup_s, setup_raw = (None, None) if trace else fresh_setup_s(workload.name, seed)
    cfg, model = prepare(workload, seed, tracer)
    setup_spans = len(tracer.spans) if tracer else 0

    rec = Record()
    rec.attempted += 1
    longest = max(workload.decode, key=len)
    try:
        for msg in gradient_problems(model, longest, seed):
            rec.fail("problems", f"gradient check: {msg}")
    except NumericsError as e:  # counted and reported, the run goes on
        rec.fail("errors", f"gradient check: {type(e).__name__}: {e}")
    rec.base_nll = train_nll(HrebModel(cfg, Vocab.from_corpus(workload.corpus)),
                             workload.corpus.train)
    untraced, traced = Timings(), Timings()
    half = len(workload.decode) // 2
    start = clock()
    rounds = 0
    sampler = SpeedSampler()
    sampler.start()
    try:
        # Stop at the round boundary nearest to `seconds`.
        while rounds < 2 or (clock() - start) * (1 + 0.5 / rounds) < seconds:
            on = tracer is not None and rounds % 2 == 1
            tm = traced if on else untraced
            if on:
                tracer.install()
            try:
                decode_pass(model, workload, range(half), rec, tm)
                train_round(cfg, workload, rec, tm)
                decode_pass(model, workload, range(half, len(workload.decode)),
                            rec, tm)
            finally:
                if on:
                    tracer.uninstall()
            tm.rounds += 1
            rounds += 1
    finally:
        sampler.stop()

    samples = {"rounds": rounds, "traced_rounds": traced.rounds,
               "untraced_epochs": len(untraced.epochs),
               "untraced_decodes": sum(map(len, untraced.decodes.values())),
               "probes": len(sampler.durations),
               "probe_median_s": statistics.median(sampler.durations)}
    if tracer is not None:
        metrics = per_layer(tracer, setup_spans, traced, untraced, sampler)
        return rec, metrics, samples, tracer
    metrics = end_to_end(rec, untraced, workload, sampler.normalize)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["raw"] = end_to_end(rec, untraced, workload, lambda a, b: b - a)
    samples["raw"]["setup_s"] = setup_raw
    return rec, metrics, samples, None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(rec, tm, workload, seconds):
    """The spec's end-to-end metrics other than setup_s and peak_rss_mb.

    seconds(a, b) turns a clock interval into a duration (see speed.py).
    Each round repeats the same units of work: one training epoch and one
    decode of every decode-set sentence. A unit's time is the median of its
    repeats. A metric with no sample is left out.
    """
    median = statistics.median
    v = {"ok_frac": 1.0 - rec.failed / rec.attempted}
    if rec.train_nll is not None:
        v["train_loss_ratio"] = rec.train_nll / rec.base_nll
    if tm.epochs:
        v["epoch_s"] = median([seconds(a, b) for a, b in tm.epochs])
        busy = median([seconds(a, b) - seconds(c, d)
                       for (a, b), (c, d) in zip(tm.epochs, tm.evals)])
        v["train_tok_per_s"] = workload.train_tokens() / busy
    if tm.decodes:
        ms = {i: median([seconds(a, b) * 1e3 for a, b in ivs])
              for i, ivs in tm.decodes.items()}
        busy = sum(ms.values()) / 1e3
        v["decode_sent_per_s"] = len(ms) / busy
        v["decode_tok_per_s"] = sum(len(workload.decode[i]) for i in ms) / busy
        v["decode_ms_p50"] = float(np.percentile(list(ms.values()), 50))
        v["decode_ms_p90"] = float(np.percentile(list(ms.values()), 90))
    return v


def per_layer(tracer, setup_spans, traced, untraced, sampler):
    """The spec's per-layer metrics from the traced rounds' spans.

    Durations are at the reference speed (see speed.py). A span's self time
    is its wall time minus its children's, rescaled by the span's own
    factor, so that it is never negative.
    """
    spans = tracer.spans
    seconds = sampler.normalize
    dur = [seconds(s[1], s[2]) for s in spans]
    own = [t * sampler.factor(s[1], s[2]) for s, t in zip(
        spans, tracer.self_times([sampler.unprobed(s[1], s[2]) for s in spans]))]
    rounds = traced.rounds
    total, calls, steps, self_s = {}, {}, {}, {}
    for i in range(setup_spans, len(spans)):
        name, _, _, _, n, _ = spans[i]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        steps[name] = steps.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own[i]

    v = {}
    for k in spec.KERNELS:
        name = f"kernels.{k}"
        v[f"{name}.s"] = total.get(name, 0.0) / rounds
        v[f"{name}.calls"] = calls.get(name, 0) / rounds
        if steps.get(name):
            v[f"{name}.ns_per_step"] = total[name] * 1e9 / steps[name]
    if total.get("training.train"):
        v["kernels.lstm_backward.train_share"] = (
            100.0 * total.get("kernels.lstm_backward", 0.0) / total["training.train"])
    v["autodiff.backward.self_s"] = self_s.get("autodiff.backward", 0.0) / rounds
    if calls.get("training.forward"):
        v["autodiff.record_op.per_sentence"] = (
            tracer.ops_under("training.forward", setup_spans)
            / calls["training.forward"])
    for name in ("autodiff.backward", "rhema.local", "rhema.global",
                 "moving_average.multihead_ema", "encoders.embed",
                 "encoders.bilstm", "crf.nll", "crf.viterbi", "optim.step",
                 "residual.commit", "training.forward", "training.evaluate",
                 "training.train", "data.make_batches"):
        v[f"{name}.s"] = total.get(name, 0.0) / rounds
    for name in ("checkpoint.save", "checkpoint.load"):
        per_call = [dur[i] for i in range(setup_spans) if spans[i][0] == name]
        if per_call:
            v[f"{name}.s"] = statistics.median(per_call)
    if traced.epochs and untraced.epochs:
        t, u = (statistics.median(seconds(a, b) for a, b in tm.epochs)
                for tm in (traced, untraced))
        v["trace.overhead.epoch_s"] = t / u
    both = set(traced.decodes) & set(untraced.decodes)
    if both:
        t, u = (sum(statistics.median(seconds(a, b) for a, b in tm.decodes[i])
                    for i in both)
                for tm in (traced, untraced))
        v["trace.overhead.decode_sent_per_s"] = t / u
    return v
# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_result(rec, metrics, trace):
    """The result object, and the names of spec metrics that have no value."""
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in listed if m["name"] in metrics}
    missing = [m["name"] for m in listed if m["name"] not in out]
    return {"correct": not rec.problems and not missing,
            "attempted": rec.attempted, "failed": rec.failed,
            "metrics": out}, missing


def parse_args(argv=None):
    names = [w["name"] for w in spec.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    env = environment()
    warning = backend_warning(env)
    if warning:
        print(warning, file=sys.stderr)
        print(warning)
    for key, val in env.items():
        print(f"env {key}: {val}")

    workload = inputs.make_workload(args.workload, args.seed)
    rec, metrics, samples, tracer = run(workload, args.seed, args.seconds,
                                        bool(args.trace))
    result, missing = build_result(rec, metrics, bool(args.trace))
    out = result["metrics"]

    raw = samples.get("raw", {})
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{v:.6g} {k.replace('_', ' ')}" for k, v in samples.items()
                      if k != "raw"))
    if raw:
        print(f"  {'metric':<40} {'value':>16} {'unit':<6} {'raw wall time':>16}")
    for name, m in out.items():
        extra = f"{raw[name]:>16.6g}" if name in raw else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6} {extra}")
    if "kernels.lstm_backward.train_share" in metrics:
        print(f"  lstm_backward share of training.train: "
              f"{metrics['kernels.lstm_backward.train_share']:.1f}% "
              f"(reference: {LSTM_BACKWARD_SEED_SHARE})")
    print(f"  training NLL: untrained {rec.base_nll:.6g}, after one epoch "
          f"{rec.train_nll if rec.train_nll is None else format(rec.train_nll, '.6g')}")
    print(f"  failed_frac {rec.failed}/{rec.attempted} = "
          f"{rec.failed / rec.attempted:.6g}")
    for kind in ("aborts", "errors", "problems"):
        for msg in getattr(rec, kind)[:10]:
            print(f"  {kind[:-1]}: {msg}")
    if missing:
        print(f"  missing metrics: {missing}")

    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "warning": warning, "samples": samples,
                   "attempted": rec.attempted, "failed": rec.failed,
                   "base_nll": rec.base_nll, "train_nll": rec.train_nll,
                   "aborts": rec.aborts, "errors": rec.errors,
                   "problems": rec.problems, "metrics": out}, fh, indent=2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Training loop, span evaluation, and the ablation harness."""

import itertools

from . import autodiff as ad
from . import residual
from .config import RunConfig
from .data import Vocab, decode_spans, make_batches, span_prf
from .errors import ConfigError, DegenerateRowError, NumericsError
from .model import HrebModel
from .optim import AdamState


def evaluate(model, sentences):
    """Exact-span micro scores of the model's predictions on sentences.

    The sentences are decoded in packs (HrebModel.tag_sentences); the
    scores do not depend on the order. Both gold and predicted tags are
    decoded leniently (a stray I-X opens a span), so real-world annotation
    quirks score instead of crashing.
    """
    pred = model.tag_sentences([s.tokens for s in sentences])
    return span_prf([decode_spans(s.tags, "lenient") for s in sentences],
                    [decode_spans(tags, "lenient") for tags in pred])


def snapshot(model):
    """Copy everything a checkpoint needs: params and gate caches."""
    params = {p.name: p.data.copy() for p in model.params()}
    caches = [(gs.cache_f.copy(), gs.cache_x.copy())
              for gs in model.gate_states()]
    return {"params": params, "caches": caches}


def restore(model, state):
    """Copy a snapshot's params and gate caches into the model."""
    for p in model.params():
        p.data = state["params"][p.name].copy()
    for gs, (cf, cx) in zip(model.gate_states(), state["caches"]):
        gs.cache_f = cf.copy()
        gs.cache_x = cx.copy()


class TrainResult:
    """Trained model (best weights restored) plus the run's paper trail."""

    def __init__(self, model, history, lines, best_epoch, best_f1, best_state,
                 final_state, diverged, stop_reason):
        self.model = model
        self.history = history
        self.lines = lines
        self.best_epoch = best_epoch
        self.best_f1 = best_f1
        self.best_state = best_state
        self.final_state = final_state
        self.diverged = diverged
        self.stop_reason = stop_reason

    def summary(self):
        return {
            "config": self.model.config.to_dict(),
            "best_epoch": self.best_epoch,
            "best_f1": self.best_f1,
            "epochs_run": len(self.history),
            "diverged": self.diverged,
            "stop_reason": self.stop_reason,
            "history": self.history,
        }


def batch_loss(model, tape, batch):
    """One batch of (ids, tag ids) pairs as one pack on tape: its mean loss
    and its (B,) per-sentence losses."""
    nlls = model.sentence_nll(tape, [ids for ids, _ in batch],
                              [tag_ids for _, tag_ids in batch])
    return ad.scale(tape, ad.sum_all(tape, nlls), 1.0 / len(batch)), nlls


def _epoch_pass(model, batches, opt, momentum):
    """One pass over the batches; returns the mean per-sentence loss."""
    total = 0.0
    n_sent = 0
    for batch in batches:
        tape = ad.Tape()
        loss, nlls = batch_loss(model, tape, batch)
        for nll in nlls.data:
            total += float(nll)
        n_sent += len(batch)
        if opt is None:
            # Null optimizer: nothing may move, gate caches included.
            continue
        grads = ad.backward(tape, loss, keep=residual.pending_ids(tape))
        opt.step(grads)
        residual.commit_gate_caches(tape, grads, momentum)
    return total / n_sent


def train(config, corpus, log=None, vectors=None):
    """Full training run per the config; returns a TrainResult.

    Emits one "epoch N P x R x F1 x loss x" line per epoch (validation
    scores, training loss). Early-stops when validation F1 has not improved
    for `patience` epochs, or immediately once it reaches `stop_f1`. On
    divergence the run aborts and the best (or initial) weights survive;
    stop_reason is "degenerate_attention" when an attention row could not
    be normalized and "diverged" for any other numeric fault.
    Validation scores the dev split, else test, else train; an empty train
    split is a ConfigError. A zero learning rate turns every step into a
    no-op. vectors go to HrebModel.
    """
    if not corpus.train:
        raise ConfigError("the train split is empty: nothing to train on")
    vocab = Vocab.from_corpus(corpus)
    model = HrebModel(config, vocab, vectors)
    names = model.param_names()
    if len(set(names)) != len(names):
        raise RuntimeError("duplicate parameter names: checkpointing would alias")
    opt = None
    if config.lr > 0:
        opt = AdamState(model.params(), lr=config.lr, beta1=config.beta1,
                        beta2=config.beta2, eps=config.adam_eps)
    dev = corpus.dev or corpus.test or corpus.train

    history = []
    lines = []
    best_f1 = -1.0
    best_epoch = 0
    best_state = snapshot(model)
    bad_epochs = 0
    diverged = False
    stop_reason = "max_epochs"

    def emit(line):
        lines.append(line)
        if log is not None:
            log(line)

    for epoch in range(1, config.max_epochs + 1):
        try:
            batches = make_batches(corpus.train, config.batch_size,
                                   config.seed + epoch, vocab)
            mean_loss = _epoch_pass(model, batches, opt, config.gate_momentum)
            report = evaluate(model, dev)
        except NumericsError as e:
            diverged = True
            stop_reason = ("degenerate_attention"
                           if isinstance(e, DegenerateRowError) else "diverged")
            emit(f"diverged at epoch {epoch}: {e}")
            break
        history.append({"epoch": epoch, "P": report.precision,
                        "R": report.recall, "F1": report.f1,
                        "loss": mean_loss})
        emit(f"epoch {epoch} P {report.precision:.6f} R {report.recall:.6f} "
             f"F1 {report.f1:.6f} loss {mean_loss:.6f}")
        if report.f1 > best_f1:
            best_f1 = report.f1
            best_epoch = epoch
            best_state = snapshot(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
        if config.stop_f1 > 0 and report.f1 >= config.stop_f1:
            stop_reason = "stop_f1"
            break
        if bad_epochs >= config.patience:
            stop_reason = "patience"
            break

    final_state = snapshot(model)
    restore(model, best_state)
    return TrainResult(model, history, lines, best_epoch, best_f1, best_state,
                       final_state, diverged, stop_reason)


def ablate(config, corpus, switches, log=None):
    """Train one model per combination of the swept RunConfig values.

    switches maps RunConfig keys to the values to sweep. Every run shares
    the base config (seed and budgets included), and every combination is
    built, so validated, before the first one trains. Returns one row dict
    per combination: the swept values ("switches"), test-split scores,
    epochs run, config and parameter-name census.
    """
    keys = sorted(switches)
    configs = [RunConfig(**{**config.to_dict(), **dict(zip(keys, combo))})
               for combo in itertools.product(*(switches[k] for k in keys))]
    rows = []
    for cfg in configs:
        result = train(cfg, corpus, log=log)
        report = evaluate(result.model, corpus.test)
        rows.append({
            "switches": {k: getattr(cfg, k) for k in keys},
            "P": report.precision,
            "R": report.recall,
            "F1": report.f1,
            "epochs": len(result.history),
            "config": cfg.to_dict(),
            "param_names": result.model.param_names(),
        })
    return rows


def ablation_table(rows):
    """Fixed-width text table over the ablation rows: one column per swept
    key, then P, R and F1."""
    keys = list(rows[0]["switches"]) if rows else []
    cells = [[str(r["switches"][k]) for k in keys] for r in rows]
    widths = [max(map(len, col)) for col in zip(keys, *cells)]

    def line(texts, scores):
        return " ".join([f"{t:<{w}}" for t, w in zip(texts, widths)] + scores)

    out = [line(keys, [f"{h:>8}" for h in ("P", "R", "F1")])]
    out.append("-" * len(out[0]))
    for r, texts in zip(rows, cells):
        out.append(line(texts, [f"{r[h]:>8.4f}" for h in ("P", "R", "F1")]))
    return out

"""Run configuration: flat key=value files with typed, validated keys.

Unknown keys are rejected so a typo cannot silently fall back to a
default, and a key set twice is rejected so a later line cannot silently
override an earlier one. '#' starts a comment, full-line or trailing.
Every key has a default; a config file only states what differs.
"""

import math
import os

from .errors import ConfigError, read_lines

# key -> (default, help). Types are inferred from the default; 0 on the
# dimension sentinels means "derive from d_model".
DEFAULTS = {
    "d_model": (64, "embedding / block width"),
    "v_dim": (0, "value width; 0 means 2*d_model"),
    "n_ema_head": (0, "EMA heads (must divide d_model); 0 means d_model"),
    "chunk_size": (8, "local-stage attention chunk length"),
    "rel_bias_window": (16, "relative-position bias clip radius"),
    "h_lstm": (32, "LSTM hidden width per direction"),
    "attention_mode": ("hema", "hema (hierarchical) or naive baseline"),
    "attn_fn": ("reduced_laplace", "softmax, laplace, or reduced_laplace"),
    "silu_variant": ("paper", "paper or standard silu: shared rep, values, gated merge"),
    "batch_norm_fidelity": (False, "normalize over real tokens instead of per row"),
    "reduced_bias": ("dynamic", "off, static, or dynamic residual gating"),
    "rb_alpha": (1.0, "static residual branch weight"),
    "rb_beta": (1.0, "static residual skip weight"),
    "gate_momentum": (0.9, "EMA momentum of the dynamic-gate gradient caches"),
    "loss_head": ("crf", "crf, or token: the CRF with its transitions held at zero, "
                         "a softmax per position"),
    "strict_transitions": (False, "forbid invalid BIO transitions in the CRF"),
    "embeddings": ("scratch", "scratch (random init) or file (pretrained)"),
    "embedding_path": ("", "pretrained vector file when embeddings=file"),
    "lr": (0.001, "Adam learning rate (0 freezes all state)"),
    "beta1": (0.9, "Adam first-moment decay"),
    "beta2": (0.999, "Adam second-moment decay"),
    "adam_eps": (1e-8, "Adam denominator floor"),
    "batch_size": (16, "sentences per optimizer step"),
    "max_epochs": (100, "training epoch cap"),
    "patience": (10, "early-stop epochs without a validation F1 gain"),
    "stop_f1": (0.0, "halt once validation F1 reaches this; 0 disables"),
    "seed": (0, "seed for init, shuffling, and synthetic data"),
    "train_path": ("", "training corpus file"),
    "dev_path": ("", "validation corpus file; empty uses test_path, else train_path"),
    "test_path": ("", "test corpus file"),
}

CHOICES = {
    "attention_mode": ("hema", "naive"),
    "attn_fn": ("softmax", "laplace", "reduced_laplace"),
    "silu_variant": ("paper", "standard"),
    "reduced_bias": ("off", "static", "dynamic"),
    "loss_head": ("crf", "token"),
    "embeddings": ("scratch", "file"),
}


def _parse_value(key, default, raw):
    kind = type(default)
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {raw!r}")
    return raw


class RunConfig:
    """One attribute per key in DEFAULTS."""

    def __init__(self, **overrides):
        for key, (default, _) in DEFAULTS.items():
            setattr(self, key, default)
        for key, value in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(self, key, value)
        self.validate()

    def validate(self):
        for key, (default, _) in DEFAULTS.items():
            # a bool is never an int; an int stands for a float
            kind, value = type(default), getattr(self, key)
            if (isinstance(value, bool) is not (kind is bool) or not isinstance(
                    value, (int, float) if kind is float else kind)):
                raise ConfigError(
                    f"key {key!r}: expected {kind.__name__}, got {value!r}")
            # nan fails every comparison below, so those checks cannot catch it
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(
                    f"key {key!r}: must be one of {choices}, got {getattr(self, key)!r}")
        for key in ("d_model", "h_lstm", "chunk_size", "batch_size",
                    "max_epochs", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key {key!r}: must be >= 1")
        for key in ("v_dim", "n_ema_head", "rel_bias_window", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"key {key!r}: must be >= 0")
        if self.lr < 0:
            raise ConfigError("key 'lr': must be >= 0")
        for key in ("beta1", "beta2", "gate_momentum"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"key {key!r}: must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("key 'adam_eps': must be > 0")
        if not 0.0 <= self.stop_f1 <= 1.0:
            raise ConfigError("key 'stop_f1': must lie in [0, 1]")
        if self.reduced_bias == "off" and (self.rb_alpha != 1.0 or self.rb_beta != 1.0):
            raise ConfigError(
                f"keys 'rb_alpha' ({self.rb_alpha}) and 'rb_beta' ({self.rb_beta}) "
                "must both be 1 when reduced_bias=off")
        if self.embeddings == "file" and not self.embedding_path:
            raise ConfigError("key 'embedding_path' is required when embeddings=file")
        n_head = self.n_ema_head if self.n_ema_head else self.d_model
        if self.d_model % n_head:
            raise ConfigError(
                f"n_ema_head {n_head} does not divide d_model {self.d_model}")

    def to_dict(self):
        return {key: getattr(self, key) for key in DEFAULTS}

    def lines(self):
        """Effective config as key=value text, declaration order."""
        out = []
        for key, value in self.to_dict().items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.append(f"{key}={value}")
        return out


def parse_config(source):
    """Read a RunConfig from a path or an iterable of key=value lines."""
    if isinstance(source, (str, os.PathLike)):
        return parse_config(read_lines(source, "config file"))
    overrides = {}
    set_on = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"config line {lineno}: key {key!r} is already "
                              f"set on line {set_on[key]}")
        set_on[key] = lineno
        overrides[key] = _parse_value(key, DEFAULTS[key][0], raw_value)
    return RunConfig(**overrides)

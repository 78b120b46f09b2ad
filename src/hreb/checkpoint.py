"""Checkpoint serialization.

Layout: 4-byte magic "HREB", uint32 LE format version, uint64 LE header
length, a UTF-8 JSON header, then the payload: every array as raw
little-endian float64 in header order. The header carries the effective
config, token and tag lists, parameter names and shapes, and the residual
gate-cache dims. Weights round-trip bit-identically.
"""

import json
import math
import os
import struct

import numpy as np

from .config import DEFAULTS, RunConfig
from .data import Vocab
from .errors import CheckpointError, ConfigError
from .model import HrebModel
from .training import restore

MAGIC = b"HREB"
VERSION = 1
HEADER_KEYS = ("config", "tokens", "tags", "params", "cache_dims")


def _pack(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path, config, vocab, state):
    """Write config, vocab, and a snapshot (params plus gate caches)."""
    header = {
        "config": config.to_dict(),
        "tokens": vocab.tokens,
        "tags": vocab.tags,
        "params": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in state["params"].items()],
        "cache_dims": [int(cf.shape[0]) for cf, _ in state["caches"]],
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in state["params"].values():
            fh.write(_pack(arr))
        for cf, cx in state["caches"]:
            fh.write(_pack(cf))
            fh.write(_pack(cx))


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: short read in {what}")
    return data


def _is_dims(value):
    return isinstance(value, list) and all(
        type(d) is int and d >= 0 for d in value)


def _check_header(path, header, payload_bytes):
    """(config, vocab) from a header whose fields have the saved types and
    whose arrays fit in the payload_bytes that follow it.

    The header is outside input: a malformed field is a CheckpointError
    naming it, never a KeyError, TypeError or MemoryError from deeper down.
    """
    def bad(field, why):
        return CheckpointError(f"{path}: checkpoint field {field!r} {why}")

    if not (isinstance(header["params"], list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and _is_dims(e.get("shape")) for e in header["params"])):
        raise bad("params", "must list {name, shape} entries")
    def refuse_repeats(field, what, entries):
        seen = set()
        for e in entries:
            if e in seen:
                raise bad(field, f"names {what} {e!r} twice")
            seen.add(e)

    refuse_repeats("params", "parameter", [e["name"] for e in header["params"]])
    if not _is_dims(header["cache_dims"]):
        raise bad("cache_dims", "must be a list of sizes")
    need = 0
    for field, n in (("params", sum(math.prod(e["shape"]) for e in header["params"])),
                     ("cache_dims", 2 * sum(header["cache_dims"]))):
        need += 8 * n
        if need > payload_bytes:
            raise bad(field, f"needs {need} payload bytes but {payload_bytes} "
                      "remain (truncated checkpoint)")
    for field in ("tokens", "tags"):
        if not (isinstance(header[field], list)
                and all(isinstance(t, str) for t in header[field])):
            raise bad(field, "must be a list of strings")
        # a repeated token hides its first embedding row, and a repeated
        # tag maps to its later class id
        refuse_repeats(field, field[:-1], header[field])
    if not header["tags"]:
        raise bad("tags", "is empty: a model needs at least one tag")
    if not isinstance(header["config"], dict):
        raise bad("config", "must be a JSON object")
    stored = dict(header["config"])
    # files from before z_dim was deleted store it; 0 and d_model built the
    # model this build builds
    z_dim = stored.pop("z_dim", 0)
    if z_dim not in (0, stored.get("d_model", DEFAULTS["d_model"][0])):
        raise bad("config", f"has z_dim {z_dim!r}: only 0 or d_model was valid")
    try:
        config = RunConfig(**stored)
    except ConfigError as e:
        raise bad("config", f"is invalid: {e}")
    try:
        vocab = Vocab.from_maps(header["tokens"], header["tags"])
    except KeyError as e:
        raise bad("tokens", f"lacks {e.args[0]!r}")
    return config, vocab


def load_checkpoint(path):
    """Read (config, vocab, state) back; refuses foreign or newer files."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}")
    with fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointError(
                f"checkpoint format version {version}; this build reads {VERSION}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        size = os.fstat(fh.fileno()).st_size
        if hlen > size - fh.tell():
            raise CheckpointError(f"{path}: header length {hlen} runs past the "
                                  f"end of the file ({size - fh.tell()} bytes left)")
        try:
            header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        except ValueError:
            raise CheckpointError(f"{path}: corrupt checkpoint header")
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
        missing = [k for k in HEADER_KEYS if k not in header]
        if missing:
            raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(missing)}")
        config, vocab = _check_header(
            path, header, size - fh.tell())
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            raw = _read_exact(fh, 8 * math.prod(shape), f"parameter {entry['name']}")
            params[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        caches = []
        for d in header["cache_dims"]:
            cf = np.frombuffer(_read_exact(fh, 8 * d, "gate cache"), dtype="<f8").copy()
            cx = np.frombuffer(_read_exact(fh, 8 * d, "gate cache"), dtype="<f8").copy()
            caches.append((cf, cx))
        if fh.read(1):
            raise CheckpointError(f"{path}: unexpected bytes after the last gate cache")
    return config, vocab, {"params": params, "caches": caches}


def _refuse_non_finite(what, stored, built):
    """A stored value may be non-finite only where the freshly built array
    holds the same value, as at the CRF's -inf boundary entries."""
    finite = np.isfinite(stored)
    if finite.all():  # the common case, and a quarter of the full test's cost
        return
    bad = np.argwhere(~finite & (stored != built))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise CheckpointError(f"{what}: stored value {stored[at]} at {at} "
                              "is not finite")


def load_model(path):
    """Rebuild a ready-to-run model from a checkpoint.

    Initialization reads no external embedding file even when the stored
    config says embeddings=file; the trained rows are in the payload. A
    NaN or infinity that the built model does not hold at the same place
    is refused, naming its parameter or gate cache.
    """
    config, vocab, state = load_checkpoint(path)
    build_cfg = RunConfig(
        **{**config.to_dict(), "embeddings": "scratch", "embedding_path": ""})
    model = HrebModel(build_cfg, vocab)
    stored = set(state["params"])
    current = set(model.param_names())
    if stored != current:
        raise CheckpointError(
            "checkpoint parameters do not match this architecture: "
            f"missing {sorted(current - stored)}, extra {sorted(stored - current)}")
    for p in model.params():
        arr = state["params"][p.name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {p.name}: stored shape {arr.shape} != built {p.data.shape}")
        _refuse_non_finite(f"parameter {p.name}", arr, p.data)
    gate_states = model.gate_states()
    if len(gate_states) != len(state["caches"]):
        raise CheckpointError("gate cache count does not match this architecture")
    for gs, (cf, cx) in zip(gate_states, state["caches"]):
        if cf.shape != (gs.d_model,):
            raise CheckpointError(f"gate {gs.prefix[:-1]}: stored cache length "
                                  f"{cf.shape[0]} != d_model {gs.d_model}")
        _refuse_non_finite(f"gate {gs.prefix[:-1]} cache_f", cf, gs.cache_f)
        _refuse_non_finite(f"gate {gs.prefix[:-1]} cache_x", cx, gs.cache_x)
    restore(model, state)
    model.config = config
    return model, config

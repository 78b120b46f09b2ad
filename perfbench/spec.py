"""What the benchmark measures, read from BENCHMARK.json at the repository root.

BENCHMARK.json is the only copy of the workload and metric tables; edit it
there. Every workload runs the same closed loop (one caller, each call
waits for the previous one): train a fresh model for one epoch with
`training.train`, and decode a fixed set with the model that set-up saved
with `checkpoint.save_checkpoint` and read back with `checkpoint.load_model`.
The workloads differ in sentence lengths and in how the time splits between
training and decoding, so every end-to-end metric exists on every workload.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)

RUN_SECONDS = _SPEC["run_seconds"]
WORKLOADS = _SPEC["workloads"]
END_TO_END = _SPEC["end_to_end"]
# Per-layer metrics come from the traced run. Unless the name says
# otherwise, a value is per traced round (one training run plus one decode
# pass), so it compares across commits whatever the number of rounds.
PER_LAYER = _SPEC["per_layer"]

# The kernels timed in the traced run: every "kernels.<k>.calls" metric.
KERNELS = [m["name"].split(".")[1] for m in PER_LAYER
           if m["name"].startswith("kernels.") and m["name"].endswith(".calls")]

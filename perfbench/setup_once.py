"""Time one fresh set-up: imports plus `run.prepare`, in this interpreter.

    python3 perfbench/setup_once.py <workload> <seed>

Prints one JSON line with the seconds from this script's first line to the
end of set-up, as measured ("raw_s") and at the reference machine speed
("normalized_s", see speed.py). run.py starts it in fresh interpreters to
measure setup_s.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402  (pins BLAS, then imports numpy and hreb)
import inputs  # noqa: E402
from speed import SpeedSampler  # noqa: E402

# The probes start after the imports; their mean speed rescales the whole
# interval, imports included.
sampler = SpeedSampler()
sampler.start()

seed = int(sys.argv[2])
run.prepare(inputs.make_workload(sys.argv[1], seed), seed)
T1 = time.perf_counter()
sampler.stop()
print(json.dumps({"raw_s": T1 - T0, "normalized_s": sampler.normalize(T0, T1)}))

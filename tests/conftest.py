"""Shared test plumbing: BLAS threads, acceptance-criterion reporting and
checkpoint-header surgery."""

import json
import os
import pathlib
import struct

# The tests run with one BLAS thread, as the hreb command does, unless the
# environment sets a count. This runs before any test module loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# pyproject.toml's pythonpath puts src/ on this process's path only; the
# Python subprocesses some tests start import hreb from this checkout too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(pathlib.Path(__file__).resolve().parent.parent / "src")]
    + [p for p in (os.environ.get("PYTHONPATH"),) if p])

# test_acceptance.py records one entry per criterion; the summary hook below
# prints them as a block so a run's verdict is readable at a glance.
ACCEPTANCE = {}


def record_criterion(number, title, passed):
    ACCEPTANCE[number] = (title, passed)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(ACCEPTANCE):
        title, passed = ACCEPTANCE[number]
        # None marks a conditional check whose inputs were not supplied
        verdict = "SKIP" if passed is None else ("PASS" if passed else "FAIL")
        terminalreporter.write_line(f"criterion {number} [{verdict}] {title}")


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint src to dst with edit(header dict) applied to its JSON
    header; the payload is copied unchanged."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen:])

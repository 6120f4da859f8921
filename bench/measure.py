"""The measured process: set-up, warm-up, timed passes and the traced pass.

    python3 bench/measure.py PLAN.json SECONDS TRACE OUT.json

Run from the root of a checkout; imports `hamiso` from its `src/`.  It
touches no input generation and no checking, so its peak resident set is
the program's.  Every time is process CPU time.  Next to every set-up
repetition and every timed invocation it also times a fixed piece of
interpreter work, the reference, which tells how fast the machine ran
just then.  It writes to OUT.json the set-up times, each timed
invocation's CPU seconds, the reference time beside each of them, the
warm-up pass's exit codes and reports, the number of later reports that
differ from them, its peak RSS after the warm-up and, with TRACE=1, the
per-layer numbers.  It rewrites OUT.json after the warm-up and after
every timed pass, so a run stopped early still leaves the passes that
finished.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

# The standard-library modules `hamiso` imports, loaded before any set-up
# is timed, so that every set-up repetition measures the same work: the
# package's own import and its file loading.
import argparse, dataclasses, fractions, functools, itertools, math, pathlib, random  # noqa: E401,F401

import layers

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 2.0

# The reference: table look-ups, integer arithmetic and dict stores, the
# interpreter work hamiso's field arithmetic is made of.  A neighbour on
# the machine slows it and the program alike, so run.py divides each
# time by the reference time beside it.  Its data is a few KiB, so what
# the program leaves in the caches hardly changes its time.
REFERENCE_STEPS = 20000
REFERENCE_TABLE = [[a * b % 17 for b in range(16)] for a in range(16)]
# About the CPU seconds of the reference on a quiet 2-core x86-64 VM with
# Python 3.11: a time scaled by REFERENCE_S / (the reference time beside
# it) is CPU seconds on that machine when quiet.
REFERENCE_S = 0.0035


def reference_s():
    """CPU seconds of one run of the reference work."""
    t0 = time.process_time()
    table, store, acc = REFERENCE_TABLE, {}, 0
    for i in range(REFERENCE_STEPS):
        t = i * 7919 & 255
        acc = (acc + table[t & 15][i & 15]) ^ t
        store[t] = acc
    return time.process_time() - t0


def drop_hamiso():
    """Forget the imported CLI and free it with its caches, so that neither
    the next import's time nor the peak RSS depends on how many came before."""
    for name in [n for n in sys.modules if n == "hamiso" or n.startswith("hamiso.")]:
        del sys.modules[name]
    gc.collect()


def import_hamiso():
    """Import the CLI; after `drop_hamiso` its caches (the field cache too) are empty."""
    importlib.import_module("hamiso.cli")
    return sys.modules["hamiso.serialize"]


def load_all(serialize, plan):
    for path in plan["codes"]:
        serialize.load_code(path)
    for path in plan["maps"]:
        serialize.load_map(path)


def setup_times(plan):
    """CPU seconds of each set-up repetition, and the mean reference time
    just before and just after it."""
    times, refs = [], []
    while len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S
    ):
        drop_hamiso()
        before = reference_s()
        t0 = time.process_time()
        load_all(import_hamiso(), plan)
        times.append(time.process_time() - t0)
        refs.append((before + reference_s()) / 2)
    return times, refs


def invoke(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the run
            return None, traceback.format_exc()
    return code, buf.getvalue()


def run_pass(main, invocations):
    """One pass over the invocation list: each one's CPU seconds, the mean
    reference time just before and just after it, its exit code and report."""
    times, refs, outputs = [], [], []
    before = reference_s()
    for inv in invocations:
        t0 = time.process_time()
        code, text = invoke(main, inv["argv"])
        times.append(time.process_time() - t0)
        after = reference_s()
        refs.append((before + after) / 2)
        before = after
        outputs.append((code, text))
    return times, refs, outputs


def save(result, out_path):
    with open(out_path + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(out_path + ".tmp", out_path)


def main():
    plan_path, seconds, traced, out_path = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    with open(plan_path) as fh:
        plan = json.load(fh)
    invocations = plan["invocations"]
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    setup, setup_refs = setup_times(plan)
    cli = sys.modules["hamiso.cli"]
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hamiso was imported from {cli.__file__}, not from {src}")

    _, _, reference = run_pass(cli.main, invocations)
    # Read once every invocation has run, and before the timed passes and the
    # writes of this file, so that it does not grow with their number.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup, "setup_refs": setup_refs, "passes": [], "refs": [],
              "peak_rss_kib": peak_kib, "reference": reference, "differ": 0}
    save(result, out_path)
    while sum(map(sum, result["passes"])) < seconds:
        times, refs, outputs = run_pass(cli.main, invocations)
        result["passes"].append(times)
        result["refs"].append(refs)
        result["differ"] += sum(a != b for a, b in zip(outputs, reference))
        save(result, out_path)

    if traced:
        drop_hamiso()
        serialize = import_hamiso()
        tracer = layers.Tracer()
        tracer.install()
        load_all(serialize, plan)
        times, refs, outputs = run_pass(sys.modules["hamiso.cli"].main, invocations)
        result["traced"] = {
            "times": times,
            "refs": refs,
            "differ": sum(a != b for a, b in zip(outputs, reference)),
            "metrics": tracer.metrics(),
        }
        save(result, out_path)


if __name__ == "__main__":
    main()

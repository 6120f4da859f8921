"""CPU-timed benchmark of the hamiso CLI on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It writes the workload's inputs under
bench/_work/, runs `bench/measure.py` in a child process that imports
`hamiso` from src/ and times it, checks every report with `bench/check.py`,
removes the inputs and prints one JSON object as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from measure import REFERENCE_S  # noqa: E402

# Wall seconds from the start of a run to the end of its measuring process;
# checking the reports afterwards takes about a second more.
RUN_LIMIT_S = 170


def median_times(passes) -> list[float]:
    """Each invocation's median CPU seconds over the timed passes."""
    return [statistics.median(ts) for ts in zip(*passes)]


def scaled(times, refs) -> list[float]:
    """CPU seconds at the reference speed: each time multiplied by
    REFERENCE_S over the reference time measured beside it."""
    return [t * REFERENCE_S / r for t, r in zip(times, refs)]


def _rate(times, codes, verdict) -> float:
    picked = [t for t, c in zip(times, codes) if c == verdict]
    return len(picked) / sum(picked) if picked else 0.0


def end_to_end(result, scale=True) -> dict:
    passes, setup = result["passes"], result["setup_s"]
    if scale:
        passes = [scaled(ts, rs) for ts, rs in zip(passes, result["refs"])]
        setup = scaled(setup, result["setup_refs"])
    times = median_times(passes)
    codes = [code for code, _ in result["reference"]]
    return {
        "pos_per_s": {"value": _rate(times, codes, 0), "unit": "1/s"},
        "neg_per_s": {"value": _rate(times, codes, 2), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"},
    }


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hamiso", "cli.py")):
        print("run from the root of a hamiso checkout: src/hamiso/cli.py is missing", file=sys.stderr)
        return 1
    work = os.path.join("bench", "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        plan_path = os.path.join(work, "plan.json")
        out_path = os.path.join(work, "result.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        try:
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "measure.py"), plan_path,
                 str(args.seconds), str(args.trace), out_path],
                timeout=RUN_LIMIT_S - (time.monotonic() - start),
            )
        except subprocess.TimeoutExpired:
            # A slow program is measured on the passes that finished.
            print(f"measuring process stopped {RUN_LIMIT_S} s into the run", file=sys.stderr)
        else:
            if child.returncode != 0:
                print(f"measuring process exited with {child.returncode}", file=sys.stderr)
                return 1
        result = {"passes": []}
        if os.path.isfile(out_path):
            with open(out_path) as fh:
                result = json.load(fh)
        if not result["passes"] or (args.trace and "traced" not in result):
            n = len(plan["invocations"])
            print("no measurement finished in time", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
            return 0

        wrong = 0
        for inv, (code, text) in zip(plan["invocations"], result["reference"]):
            if code not in (0, 2):
                print(f"FAILED {' '.join(inv['argv'])}: {text.strip()[-300:]}", file=sys.stderr)
                continue
            for problem in check.problems(inv, code, text):
                wrong += 1
                print(f"WRONG {' '.join(inv['argv'])}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))

    passes = result["passes"]
    attempted = len(plan["invocations"]) * len(passes)
    failed = len(passes) * sum(code not in (0, 2) for code, _ in result["reference"])
    differ = result["differ"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} timed passes of "
          f"{len(plan['invocations'])} invocations; set-up repetitions "
          f"{', '.join(f'{t:.4f}' for t in result['setup_s'])} s CPU")
    refs = [r for rs in result["refs"] for r in rs]
    raw = end_to_end(result, scale=False)
    print(f"reference work median {statistics.median(refs) * 1e3:.3f} ms CPU "
          f"({REFERENCE_S * 1e3:.3f} ms at the reference speed); unscaled: "
          + ", ".join(f"{k} {raw[k]['value']:.5g}" for k in ("pos_per_s", "neg_per_s", "setup_s")))
    if differ:
        print(f"{differ} reports of the timed passes differ from the checked warm-up reports")
    if args.trace:
        traced = result["traced"]
        traced_s = sum(scaled(traced["times"], traced["refs"]))
        untraced_s = sum(median_times(scaled(ts, rs) for ts, rs in zip(passes, result["refs"])))
        print(f"traced pass {traced_s:.4f} s, untraced pass (median) {untraced_s:.4f} s, "
              f"both scaled CPU time; tracing overhead x{traced_s / untraced_s:.2f}")
        differ += traced["differ"]
        metrics = traced["metrics"]
    else:
        metrics = end_to_end(result)
    print(json.dumps({
        "correct": wrong == 0 and differ == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One-off (q, k, n) sweep of each workload's main verdict, CPU time beside wall clock.

    python3 bench/sweep.py

Run from the root of a checkout.  For each workload it generates one
instance per size with the benchmark's generator, runs the verdict twice
in-process through `hamiso.cli.main` and prints the CPU and wall time of
the second, warm run, after checking its report.  It shows how each
layer grows with the instance; the benchmark proper (run.py) measures
fixed sizes.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import algebra as alg  # noqa: E402
import check  # noqa: E402
import workloads as wl  # noqa: E402
from measure import invoke  # noqa: E402


def isometry(rng, w, q, k):
    F = alg.field_of_order(q)
    A, class_of = wl.classed_code(rng, F, k, wl._cycled(k + 2, (1, 2, 3)))
    B, matrix, h, omega = wl.planted_composition(rng, A, class_of, (1, 2))
    a, b = w.code(f"A{q}_{k}", A), w.code(f"B{q}_{k}", B)
    planted = {"h": h, "omega": omega}
    inv = {"argv": ["isometry", "--map", w.map(f"H{q}_{k}", a, b, matrix)], "expect": 0,
           "planted": planted}
    return inv, A.n


def decompose(rng, w, q, k, n):
    F = alg.field_of_order(q)
    A, class_of = wl.classed_code(rng, F, k, wl._even(n, n // 5))
    B, matrix, _, _ = wl.planted_composition(rng, A, class_of, (2, 5))
    a, b = w.code(f"A{n}", A), w.code(f"B{n}", B)
    return {"argv": ["decompose", "--map", w.map(f"H{n}", a, b, matrix)], "expect": 0}, n


def controllable(rng, w, q, k):
    F = alg.field_of_order(q)
    A, _ = wl.classed_code(rng, F, k, wl._even(2 * k, k))
    return {"argv": ["controllable", "--code", w.code(f"C{q}_{k}", A)], "expect": 0}, A.n


# Inequivalent binary [n, 3] codes with equal weight distributions, as
# column lists (found by exhaustive search; n = 6 is the benchmark's own
# pair); the shortened codes tell each pair apart, and monomial_search must
# try all n! permutations.
SAME_WD_COLUMNS = {
    6: wl.SAME_WD_COLUMNS,
    7: ([(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)],
        [(0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 0)]),
    8: ([(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
        [(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)]),
}


def macwilliams(rng, w, q, k, n):
    F = alg.field_of_order(q)
    C1, C2 = (wl._disguised(rng, F, cols) for cols in SAME_WD_COLUMNS[n])
    argv = ["macwilliams", "--c1", w.code(f"P{n}", C1), "--c2", w.code(f"Q{n}", C2)]
    return {"argv": argv, "expect": 2}, n


SWEEPS = [
    ("isometry", isometry, [(3, 5), (3, 6), (3, 7), (3, 8), (2, 11), (2, 12), (2, 13)]),
    ("decompose-wide", decompose, [(256, 4, 150), (256, 4, 300), (256, 4, 600), (256, 4, 1200)]),
    ("controllability", controllable, [(2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)]),
    ("equivalence", macwilliams, [(2, 3, 6), (2, 3, 7), (2, 3, 8)]),
]


def main() -> int:
    if not os.path.isfile(os.path.join("src", "hamiso", "cli.py")):
        print("run from the root of a hamiso checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath("src"))
    from hamiso.cli import main as cli_main

    work = os.path.join("bench", "_work", f"sweep-{os.getpid()}")
    ok = True
    print(f"{'workload':16} {'verdict':13} {'q':>4} {'k':>3} {'n':>5} {'cpu_s':>9} {'wall_s':>9}")
    try:
        for name, make, sizes in SWEEPS:
            rng = random.Random(f"sweep/{name}/1")
            w = wl.Writer(work)
            for size in sizes:
                inv, n = make(rng, w, *size)
                invoke(cli_main, inv["argv"])  # warm: field tables built, caches filled
                c0, w0 = time.process_time(), time.perf_counter()
                code, text = invoke(cli_main, inv["argv"])
                cpu, wall = time.process_time() - c0, time.perf_counter() - w0
                problems = check.problems(inv, code, text)
                ok &= not problems
                print(f"{name:16} {inv['argv'][0]:13} {size[0]:>4} {size[1]:>3} {n:>5} "
                      f"{cpu:9.4f} {wall:9.4f}{'  WRONG: ' + problems[0] if problems else ''}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

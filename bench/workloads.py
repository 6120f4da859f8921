"""Seeded inputs and invocation lists for the four benchmark workloads.

`generate(workload, seed, root)` writes the code and map files under
`root` and returns the plan: the files to load during set-up and the fixed
list of CLI invocations, each with its expected exit code and what the
checker needs to judge the report.  The inputs are drawn from
`random.Random(f"{workload}/{seed}")` and written with sorted keys, so one
seed always gives byte-identical files.  Sizes are fixed and only the
content is drawn, so every seed asks for the same amount of work.  A
negative map is confirmed with the benchmark's own arithmetic and drawn
again if it comes out positive; every other instance is positive or
negative by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import algebra as alg
import check
from check import Code

# Class sizes and the number of codomain points per class cycle through
# the given patterns.
#
# (q, k, classes, class sizes, codomain points per class) of the
# `isometry` subcommand instances: q^k runs from 2048 to 16384.
ISOMETRY_SIZES = [
    (2, 11, 13, (1, 2), (1, 2)),
    (3, 7, 9, (1, 2, 3), (1, 2)),
    (5, 5, 7, (1, 2, 3), (1, 2)),
    (4, 7, 8, (1, 2), (1, 2)),
]
# (q, k) of the `separating` instances; the domain is a full space with
# repeated columns (k classes), so its cozero sets are the 2^k unions of
# classes and the program's union precheck stays small.
SEPARATING_SIZES = [(2, 11), (3, 7), (5, 5)]
# (q, k, n, classes) of the wide codes.
WIDE_SIZES = [
    (256, 3, 150, 30),
    (243, 4, 300, 50),
    (256, 6, 450, 75),
    (243, 8, 600, 100),
]
# (q, k, n) of the controllable codes (k classes) and (q, k, n, classes)
# of the non-controllable ones.
CONTROLLABLE_SIZES = [(2, 7, 14), (3, 5, 12), (4, 4, 10)]
UNCONTROLLABLE_SIZES = [(2, 6, 12, 8), (3, 5, 10, 7), (3, 6, 12, 8), (4, 5, 10, 7)] * 3
# (q, n, k) of the equivalent pairs.  Where monomial_search meets the
# first monomial carrying C1 onto C2 depends on the automorphism group of
# C1, which is never trivial for codes this small, and it moves the cost
# of one pair tenfold.  So the pairs come from a fixed catalogue drawn
# from CATALOGUE_SEED, and --seed draws only each file's basis, which
# leaves the canonical generator matrices, and so every search, unchanged.
CATALOGUE_SEED = "equivalence catalogue"
EQUIVALENT_SIZES = [(2, 8, 4), (2, 7, 4), (2, 7, 3), (3, 6, 3), (3, 6, 3), (3, 5, 3), (4, 5, 3), (4, 5, 2)]
# (q, n, k, classes) of the pairs with different weight distributions:
# class sizes as even as can be against one large class.  With k = 2 the
# isometry search after the early exit stays small.
DIFFERENT_WD_SIZES = [(2, 8, 2, 3), (3, 6, 2, 4), (4, 6, 2, 4)]
# Inequivalent codes whose weight distributions agree are rare this small:
# a search over the column multisets of codes with n <= 6 (n <= 5 over
# GF(4)) found one pair, up to equivalence, that the shortened codes tell
# apart: binary [6, 3] codes with weights {0: 1, 2: 3, 4: 3, 6: 1}.  Each
# instance disguises both by a random change of basis and a random column
# permutation.
SAME_WD_COLUMNS = (
    [(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
    [(0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)],
)
SAME_WD_COUNT = 6


class Writer:
    """Writes code and map files under `root` and keeps their paths."""

    def __init__(self, root):
        self.root = root
        self.codes = []
        self.maps = []
        os.makedirs(root, exist_ok=True)

    def _write(self, name, obj):
        path = os.path.join(self.root, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def code(self, name, code):
        path = self._write(name + ".json", code.json())
        self.codes.append(path)
        return path

    def map(self, name, dom_path, cod_path, matrix):
        obj = {
            "domain": os.path.basename(dom_path),
            "codomain": os.path.basename(cod_path),
            "matrix": matrix,
        }
        path = self._write(name + ".json", obj)
        self.maps.append(path)
        return path


def _labels(n):
    return [f"x{i}" for i in range(n)]


def _nonzero(rng, F):
    return rng.randrange(1, F.q)


def _measure(rng):
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def _invertible(rng, F, k):
    while True:
        m = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        if alg.rank(F, m) == k:
            return m


def _mixed_rows(rng, F, cols):
    """Rows of the matrix with the given columns, premultiplied by a random
    invertible matrix so that the file does not hold the rref basis."""
    k = len(cols[0])
    rows = [[col[i] for col in cols] for i in range(k)]
    return [alg.combine(F, r, rows) for r in _invertible(rng, F, k)]


def class_columns(rng, F, k, c):
    """c pairwise non-proportional nonzero columns spanning F^k."""
    if not k <= c <= (F.q**k - 1) // (F.q - 1):
        raise ValueError(f"no {c} distinct projective points span GF({F.q})^{k}")
    cols, keys = [], set()
    while len(cols) < c:
        v = [rng.randrange(F.q) for _ in range(k)]
        key = alg.projective_key(F, v)
        if key is None or key in keys:
            continue
        if len(cols) < k and alg.rank(F, cols + [v]) != len(cols) + 1:
            continue
        cols.append(v)
        keys.add(key)
    return cols


def _round_robin(sizes):
    """Class ids in the order of the points: one point of each class with
    points left, in turn.  A fixed layout keeps the work of the program's
    pairwise column scans the same for every seed."""
    left, order = list(sizes), []
    while any(left):
        for cid, m in enumerate(left):
            if m:
                order.append(cid)
                left[cid] -= 1
    return order


def classed_code(rng, F, k, sizes, uniform=False, base=None):
    """A code whose columns fall into len(sizes) proportionality classes of
    the given sizes, scalar multiples of the class columns `base` (random
    ones by default).  Returns the code and each point's class id."""
    base = base or class_columns(rng, F, k, len(sizes))
    points = [(cid, alg.scale(F, _nonzero(rng, F), base[cid])) for cid in _round_robin(sizes)]
    measures = [Fraction(1) if uniform else _measure(rng) for _ in points]
    code = Code(F, _labels(len(points)), measures, _mixed_rows(rng, F, [col for _, col in points]))
    return code, [cid for cid, _ in points]


def planted_composition(rng, A, class_of, per_class):
    """A codomain B and the map Hf(y) = omega(y) f(h(y)) from A onto B.

    Class number c of A gets per_class[c % len(per_class)] points of B,
    which share the class's total measure, so H preserves every weight.
    Returns B, the map matrix in the canonical bases, h and omega.
    """
    F = A.F
    members = {}
    for x, cid in enumerate(class_of):
        members.setdefault(cid, []).append(x)
    by_class = []
    for cid in sorted(members):
        xs = members[cid]
        total = sum((A.measures[x] for x in xs), Fraction(0))
        shares = [rng.randint(1, 4) for _ in range(per_class[cid % len(per_class)])]
        by_class.append([(rng.choice(xs), _nonzero(rng, F), total * s / sum(shares))
                         for s in shares])
    points = [by_class[cid].pop() for cid in _round_robin([len(b) for b in by_class])]
    h = [x for x, _, _ in points]
    omega = [w for _, w, _ in points]
    images = [[F.mul(w, row[x]) for x, w, _ in points] for row in A.gen]
    B = Code(F, _labels(len(points)), [mu for _, _, mu in points],
             _mixed_rows(rng, F, list(zip(*images))))
    matrix = [alg.coordinates(F, B.gen, B.pivots, img) for img in images]
    return B, matrix, h, omega


def _random_map(rng, F, k, is_negative):
    while True:
        m = _invertible(rng, F, k)
        if is_negative(m):
            return m


def _map_pair(rng, w, name, A, class_of, per_class, is_negative):
    """Files for A, a planted codomain B, the planted map and a random map
    that is_negative(B, matrix) confirms; the paths and the plant."""
    B, matrix, h, omega = planted_composition(rng, A, class_of, per_class)
    a, b = w.code(f"{name}_A", A), w.code(f"{name}_B", B)
    pos = w.map(f"{name}_pos", a, b, matrix)
    neg = w.map(f"{name}_neg", a, b, _random_map(rng, A.F, A.k, lambda m: is_negative(B, m)))
    return a, b, pos, neg, {"h": h, "omega": omega}


def _weight_violation(A, B, m, limit=256):
    q, k = A.F.q, A.k
    for idx in range(1, min(limit, q**k)):
        u = alg.index_to_coeffs(idx, q, k)
        if check.weight(A, u) != check.weight(B, alg.combine(A.F, u, m)):
            return True
    return False


def _class_indicators(A, class_of):
    """For a code with exactly k classes: the codewords that are nonzero on one class only."""
    F, k = A.F, A.k
    reps = [class_of.index(cid) for cid in range(k)]
    inv = alg.inverse(F, [A.column(x) for x in reps])
    # u . col(rep_j) = delta_ij: u is row i of the inverse of the columns' matrix
    return [[inv[j][i] for j in range(k)] for i in range(k)]


def _not_separating(A, B, class_of, m):
    images = [alg.support(alg.combine(A.F, alg.combine(A.F, u, m), B.gen))
              for u in _class_indicators(A, class_of)]
    return any(a & b for a, b in itertools.combinations(images, 2))


def _cycled(c, pattern):
    return [pattern[i % len(pattern)] for i in range(c)]


def _isometry(rng, w):
    inv = []
    for i, (q, k, c, sizes, per_class) in enumerate(ISOMETRY_SIZES):
        A, class_of = classed_code(rng, alg.field_of_order(q), k, _cycled(c, sizes))
        _, _, pos, neg, planted = _map_pair(rng, w, f"iso{i}", A, class_of, per_class,
                                            lambda B, m: _weight_violation(A, B, m))
        inv.append({"argv": ["isometry", "--map", pos], "expect": 0, "planted": planted})
        inv.append({"argv": ["isometry", "--map", neg], "expect": 2})
    for i, (q, k) in enumerate(SEPARATING_SIZES):
        A, class_of = classed_code(rng, alg.field_of_order(q), k, _cycled(k, (1, 2, 3)))
        _, _, pos, neg, planted = _map_pair(rng, w, f"sep{i}", A, class_of, (1, 2),
                                            lambda B, m: _not_separating(A, B, class_of, m))
        inv.append({"argv": ["separating", "--map", pos], "expect": 0, "planted": planted})
        inv.append({"argv": ["separating", "--map", neg], "expect": 2})
    return inv


def _refuted(A, B, m):
    keys = {alg.projective_key(A.F, A.column(x)) for x in range(A.n)}
    return any(alg.projective_key(A.F, check.functional(A.F, m, B, y)) not in keys
               for y in range(B.n))


def _decompose_wide(rng, w):
    inv = []
    for i, (q, k, n, c) in enumerate(WIDE_SIZES):
        A, class_of = classed_code(rng, alg.field_of_order(q), k, _even(n, c))
        a, b, pos, neg, _ = _map_pair(rng, w, f"wide{i}", A, class_of, (n // c // 2, n // c),
                                      lambda B, m: _refuted(A, B, m))
        inv.append({"argv": ["quotient", "--code", a], "expect": 0})
        inv.append({"argv": ["quotient", "--code", b], "expect": 0})
        inv.append({"argv": ["decompose", "--map", pos], "expect": 0})
        inv.append({"argv": ["decompose", "--map", neg], "expect": 2})
    return inv


def _even(n, c):
    """c class sizes, as equal as can be, adding up to n."""
    return [n // c + (i < n % c) for i in range(c)]


def unit_and_extra_columns(rng, F, k, c):
    """The k unit vectors, then c - k columns where column m is zero in
    coordinate m + 1 only.  Every seed gets the same zero pattern, so the
    controllability scan meets its first failing witness at the same step:
    the first basis codeword is nonzero on class 0 and on every extra class,
    and no codeword matches it on class 0 while vanishing on an extra class."""
    if not 0 < c - k < k:
        raise ValueError(f"need k < c < 2k, got k = {k}, c = {c}")
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    extra = [[0 if j == m + 1 else _nonzero(rng, F) for j in range(k)] for m in range(c - k)]
    return units + extra


def _controllability(rng, w):
    inv = []
    for i, (q, k, n) in enumerate(CONTROLLABLE_SIZES):
        F = alg.field_of_order(q)
        A, _ = classed_code(rng, F, k, _even(n, k))
        path = w.code(f"full{i}", A)
        inv.append({"argv": ["controllable", "--code", path], "expect": 0})
        inv.append({"argv": ["ring", "--code", path], "expect": 0})
    for i, (q, k, n, c) in enumerate(UNCONTROLLABLE_SIZES):
        F = alg.field_of_order(q)
        A, _ = classed_code(rng, F, k, _even(n, c), base=unit_and_extra_columns(rng, F, k, c))
        path = w.code(f"rand{i}", A)
        inv.append({"argv": ["controllable", "--code", path], "expect": 2})
        inv.append({"argv": ["ring", "--code", path], "expect": 0})
    return inv


def _projective_code(rng, F, n, k):
    """A uniform-measure code with n pairwise non-proportional columns."""
    return classed_code(rng, F, k, [1] * n, uniform=True)[0]


def _monomial_image(C, sigma, weights):
    """The code T(C) for the monomial T: coordinate j reads sigma[j], scaled by weights[j]."""
    F = C.F
    return Code(F, C.labels, C.measures,
                [[F.mul(row[sigma[j]], weights[j]) for j in range(C.n)] for row in C.gen])


def _rebased(rng, C):
    """The same code written in a random basis."""
    return Code(C.F, C.labels, C.measures, _mixed_rows(rng, C.F, [C.column(x) for x in range(C.n)]))


def _disguised(rng, F, columns):
    """A uniform-measure code with the given columns in a random order and basis."""
    cols = [list(c) for c in columns]
    rng.shuffle(cols)
    return Code(F, _labels(len(cols)), [1] * len(cols), _mixed_rows(rng, F, cols))


def _macwilliams(w, name, C1, C2, expect):
    argv = ["macwilliams", "--c1", w.code(f"{name}_1", C1), "--c2", w.code(f"{name}_2", C2)]
    return {"argv": argv, "expect": expect}


def _equivalence(rng, w):
    inv = []
    catalogue = random.Random(CATALOGUE_SEED)
    for i, (q, n, k) in enumerate(EQUIVALENT_SIZES):
        F = alg.field_of_order(q)
        C1 = _projective_code(catalogue, F, n, k)
        sigma = list(range(n))
        catalogue.shuffle(sigma)
        C2 = _monomial_image(C1, sigma, [_nonzero(catalogue, F) for _ in range(n)])
        inv.append(_macwilliams(w, f"eq{i}", _rebased(rng, C1), _rebased(rng, C2), 0))
    F = alg.field_of_order(2)
    for i in range(SAME_WD_COUNT):
        C1, C2 = (_disguised(rng, F, cols) for cols in SAME_WD_COLUMNS)
        inv.append(_macwilliams(w, f"same{i}", C1, C2, 2))
    for i, (q, n, k, c) in enumerate(DIFFERENT_WD_SIZES):
        F = alg.field_of_order(q)
        while True:
            C1 = classed_code(rng, F, k, _even(n, c), uniform=True)[0]
            C2 = classed_code(rng, F, k, [n - c + 1] + [1] * (c - 1), uniform=True)[0]
            if check.weight_distribution(C1) != check.weight_distribution(C2):
                break
        inv.append(_macwilliams(w, f"diff{i}", C1, C2, 2))
    return inv


WORKLOADS = {
    "isometry": _isometry,
    "decompose-wide": _decompose_wide,
    "controllability": _controllability,
    "equivalence": _equivalence,
}


def generate(workload: str, seed: int, root: str) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    w = Writer(root)
    invocations = WORKLOADS[workload](rng, w)
    return {"codes": w.codes, "maps": w.maps, "invocations": invocations}

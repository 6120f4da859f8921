"""Independent judge of the CLI's reports.

Reads the input files with its own parser and decides with the
benchmark's own field tables and elimination (`algebra`), never with
`hamiso`.  A positive report is confirmed through a property the answer
must have; a negative report through its witness or an invariant that
separates the inputs.  `problems(...)` returns a list of what is wrong,
empty when the report is correct.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import algebra as alg


class Code:
    """A code: field, labelled measured points, the rows as written and their rref basis."""

    def __init__(self, F, labels, measures, rows):
        self.F = F
        self.labels = list(labels)
        self.measures = [Fraction(mu) for mu in measures]
        self.rows = [list(r) for r in rows]
        self.gen, self.pivots = alg.echelon(F, self.rows)
        self.k = len(self.gen)
        self.n = len(self.labels)

    def column(self, x):
        return [row[x] for row in self.gen]

    def values(self, u):
        return alg.combine(self.F, u, self.gen)

    def json(self) -> dict:
        return {
            "field": self.F.json(),
            "space": {"labels": self.labels, "measures": [str(mu) for mu in self.measures]},
            "rows": self.rows,
        }


def load_code(path) -> Code:
    with open(path) as fh:
        obj = json.load(fh)
    space = obj["space"]
    return Code(alg.field_from_json(obj["field"]), space["labels"], space["measures"], obj["rows"])


def load_map(path):
    with open(path) as fh:
        obj = json.load(fh)
    base = os.path.dirname(path)
    return (load_code(os.path.join(base, obj["domain"])),
            load_code(os.path.join(base, obj["codomain"])),
            obj["matrix"])


# -- quantities shared with the input generator ----------------------------


def weight(C, u) -> Fraction:
    return alg.measure_of(alg.support(C.values(u)), C.measures)


def functional(F, matrix, B, y) -> list[int]:
    """Coefficients of f -> Hf(y) on the domain basis."""
    col = B.column(y)
    return [alg.combine(F, row, [[c] for c in col])[0] for row in matrix]


def codewords(C):
    for idx in range(C.F.q**C.k):
        yield alg.index_to_coeffs(idx, C.F.q, C.k)


def weight_distribution(C, skip=None) -> tuple:
    """Hamming weight counts; with skip=i, of the code shortened at coordinate i."""
    dist = {}
    for u in codewords(C):
        v = C.values(u)
        if skip is not None and v[skip]:
            continue
        wt = sum(1 for x in v if x)
        dist[wt] = dist.get(wt, 0) + 1
    return tuple(sorted(dist.items()))


def shortened_invariant(C) -> tuple:
    """The multiset of the weight distributions of the n shortened codes;
    a monomial map permutes it, so codes that differ here are inequivalent."""
    return tuple(sorted(weight_distribution(C, skip=i) for i in range(C.n)))


def classes(C) -> list[frozenset]:
    """Point classes of proportional columns, by projective key."""
    by_key = {}
    for x in range(C.n):
        by_key.setdefault(alg.projective_key(C.F, C.column(x)), set()).add(x)
    return [frozenset(s) for s in by_key.values()]


def image(F, matrix, B, u):
    """Values on B's points of H applied to the domain codeword with coefficients u."""
    return B.values(alg.combine(F, u, matrix))


# -- properties -------------------------------------------------------------


def _composition_errors(A, B, matrix, h, omega) -> list[str]:
    """Does Hf(y) = omega(y) f(h(y)) hold for every basis codeword f of A?"""
    F = A.F
    for i in range(A.k):
        e = [int(i == j) for j in range(A.k)]
        got = image(F, matrix, B, e)
        want = [F.mul(omega[y], A.gen[i][h[y]]) for y in range(B.n)]
        if got != want:
            return [f"Hf(y) != omega(y) f(h(y)) for basis codeword {i}"]
    return []


def _bijective(A, B, matrix) -> bool:
    return A.k == B.k and alg.rank(A.F, matrix) == A.k


def _planted_composition(A, B, matrix, planted, measured) -> list[str]:
    """A planted weighted composition is separating; if it also carries each
    class's measure onto its preimage, it preserves every weight."""
    errs = _composition_errors(A, B, matrix, planted["h"], planted["omega"])
    if not _bijective(A, B, matrix):
        errs.append("planted map is not bijective")
    if measured:
        for cls in classes(A):
            pulled = sum((B.measures[y] for y, x in enumerate(planted["h"]) if x in cls), Fraction(0))
            if pulled != sum((A.measures[x] for x in cls), Fraction(0)):
                errs.append(f"class {sorted(cls)} does not keep its measure")
    return errs


def _label_sets(C, groups):
    index = {lab: i for i, lab in enumerate(C.labels)}
    return [frozenset(index[lab] for lab in g) for g in groups]


def _is_union_of_classes(mask, cls) -> bool:
    return all(not mask & m or mask & m == m for m in cls)


def _mask(points) -> int:
    return sum(1 << x for x in points)


def check_isometry(inv, report):
    A, B, matrix = load_map(inv["argv"][-1])
    if report.get("mode") != "exact":
        return [f"mode {report.get('mode')!r}, expected exact"]
    if report["isometry"]:
        if report["witness"] is not None or not report["bijective"]:
            return ["isometry is not bijective or carries a witness"]
        return _planted_composition(A, B, matrix, inv["planted"], measured=True)
    u = report["witness"]
    if u is None or len(u) != A.k:
        return ["negative isometry verdict without a codeword witness"]
    if weight(A, u) == weight(B, alg.combine(A.F, u, matrix)):
        return [f"witness {u} keeps its weight"]
    return []


def check_separating(inv, report):
    A, B, matrix = load_map(inv["argv"][-1])
    if report["separating"]:
        return _planted_composition(A, B, matrix, inv["planted"], measured=False)
    f, g = report["witness"]
    F = A.F
    if alg.support(A.values(f)) & alg.support(A.values(g)):
        return ["witness cozero sets meet in the domain"]
    if not alg.support(image(F, matrix, B, f)) & alg.support(image(F, matrix, B, g)):
        return ["witness images have disjoint cozero sets"]
    return []


def check_quotient(inv, report):
    C = load_code(inv["argv"][-1])
    got = _label_sets(C, report["classes"])
    if sorted(map(sorted, got)) != sorted(map(sorted, classes(C))):
        return ["classes differ from the classes of proportional columns"]
    index = {lab: i for i, lab in enumerate(C.labels)}
    for cls in report["classes"]:
        rep = C.column(index[cls[0]])
        for lab in cls[1:]:
            lam = report["lambda"][str(lab)]
            if C.column(index[lab]) != alg.scale(C.F, lam, rep):
                return [f"lambda of {lab} does not scale its class representative"]
    return []


def check_decompose(inv, report):
    A, B, matrix = load_map(inv["argv"][-1])
    xi = {lab: i for i, lab in enumerate(A.labels)}
    yi = {lab: i for i, lab in enumerate(B.labels)}
    if report["status"] == "composition":
        h = [xi[report["h"][str(lab)]] for lab in B.labels]
        omega = [report["omega"][str(lab)] for lab in B.labels]
        return _composition_errors(A, B, matrix, h, omega)
    if report["status"] != "refuted":
        return [f"unknown status {report['status']!r}"]
    y = yi[report["witness"]["point"]]
    phi = report["witness"]["functional"]
    if phi != functional(A.F, matrix, B, y):
        return ["refutation functional is not the functional at its point"]
    key = alg.projective_key(A.F, phi)
    if key is None or any(alg.projective_key(A.F, A.column(x)) == key for x in range(A.n)):
        return ["refutation functional is a multiple of a domain column"]
    return []


def check_ring(inv, report):
    C = load_code(inv["argv"][-1])
    cls = [_mask(c) for c in classes(C)]
    members = {_mask(s) for s in _label_sets(C, report["members"])}
    if len(members) != len(report["members"]) or len(members) != 2 ** len(cls):
        return [f"ring has {len(report['members'])} members, expected 2^{len(cls)}"]
    if not all(_is_union_of_classes(m, cls) for m in members):
        return ["a ring member is not a union of classes"]
    return []


def check_controllable(inv, report):
    C = load_code(inv["argv"][-1])
    cls = classes(C)
    if report["controllable"]:
        # with exactly k classes the values at the class representatives are
        # free, so f restricted to any union of classes is again a codeword
        return [] if len(cls) == C.k else [f"{len(cls)} classes > k = {C.k}, yet controllable"]
    wit = report["witness"]
    f = wit["coeffs"]
    d1 = _mask(_label_sets(C, [wit["d1"]])[0])
    d2 = _mask(_label_sets(C, [wit["d2"]])[0])
    masks = [_mask(c) for c in cls]
    if d1 & d2 or not _is_union_of_classes(d1, masks) or not _is_union_of_classes(d2, masks):
        return ["witness D1, D2 are not disjoint unions of classes"]
    vals = C.values(f)
    # the largest admissible U is the complement of D2; a smaller U only
    # adds constraints, so infeasibility here certifies the failure
    pinned = [x for x in range(C.n) if d1 >> x & 1 or d2 >> x & 1 or not vals[x]]
    targets = [vals[x] if d1 >> x & 1 else 0 for x in pinned]
    if alg.solvable(C.F, [C.column(x) for x in pinned], targets):
        return ["controllability witness is feasible"]
    return []


def _hamming_weights_kept(C1, C2, matrix) -> bool:
    F = C1.F
    for u in codewords(C1):
        if alg.support(C1.values(u)).bit_count() != alg.support(image(F, matrix, C2, u)).bit_count():
            return False
    return True


def check_macwilliams(inv, report):
    C1, C2 = load_code(inv["argv"][2]), load_code(inv["argv"][4])
    F = C1.F
    if report["equivalent"]:
        mono, matrix = report["monomial"], report["isometry_matrix"]
        sigma, w = [s - 1 for s in mono["sigma"]], mono["w"]
        moved = [[F.mul(row[sigma[j]], w[j]) for j in range(C1.n)] for row in C1.gen]
        errs = []
        if alg.echelon(F, moved)[0] != C2.gen:
            errs.append("monomial does not carry C1 onto C2")
        if alg.rank(F, matrix) != C1.k or not _hamming_weights_kept(C1, C2, matrix):
            errs.append("isometry matrix does not preserve every weight")
        if report["decompose_roundtrip"] is False:
            errs.append("decompose round trip failed")
        return errs
    if report["monomial"] is not None or report["isometry_matrix"] is not None:
        return ["inequivalent verdict carries a map"]
    if (C1.k == C2.k and weight_distribution(C1) == weight_distribution(C2)
            and shortened_invariant(C1) == shortened_invariant(C2)):
        return ["no invariant of the checker separates the pair"]
    return []


CHECKS = {
    "isometry": check_isometry,
    "separating": check_separating,
    "quotient": check_quotient,
    "decompose": check_decompose,
    "ring": check_ring,
    "controllable": check_controllable,
    "macwilliams": check_macwilliams,
}


def problems(inv, exit_code, text) -> list[str]:
    """What is wrong with one invocation's exit code and JSON report."""
    if exit_code != inv["expect"]:
        return [f"exit code {exit_code}, expected {inv['expect']}: {text.strip()[:300]}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    command = inv["argv"][0]
    if report.get("command") != command:
        return [f"report names command {report.get('command')!r}"]
    try:
        return CHECKS[command](inv, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]

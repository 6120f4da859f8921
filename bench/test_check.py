"""Hand-worked cases for the benchmark's own arithmetic and answer checker.

    python3 -m pytest bench/test_check.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import algebra as alg  # noqa: E402
import check  # noqa: E402

GF2 = alg.field_of_order(2)
GF3 = alg.field_of_order(3)
GF4 = alg.field_of_order(4)


def test_gf4_by_hand():
    # x^2 = x + 1: 2 is x, 3 is x + 1
    assert GF4.mul(2, 2) == 3
    assert GF4.mul(2, 3) == 1
    assert GF4.add(2, 3) == 1
    assert GF4.inv(3) == 2
    assert GF4.neg(3) == 3


def test_gf3_and_a_stated_modulus():
    assert (GF3.mul(2, 2), GF3.add(2, 2), GF3.neg(1), GF3.inv(2)) == (1, 1, 2, 2)
    # GF(9) from x^2 + 1: x * x = -1 = 2, and (x + 1)^2 = 2x
    F9 = alg.GF(3, [1, 0, 1])
    x, x1 = 3, 4  # digits (0, 1) and (1, 1)
    assert F9.mul(x, x) == 2
    assert F9.mul(x1, x1) == 6  # digits (0, 2)


def test_reducible_modulus_is_refused():
    try:
        alg.GF(2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2
    except ValueError:
        return
    raise AssertionError("a reducible modulus gave a field")


def test_echelon_and_solvable():
    red, piv = alg.echelon(GF2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert red == [[1, 0, 1], [0, 1, 1]] and piv == [0, 1]
    # u . (1, 0) = 1, u . (0, 1) = 1, u . (1, 1) = 1 has no solution over GF(2)
    assert not alg.solvable(GF2, [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert alg.solvable(GF2, [[1, 0], [0, 1], [1, 1]], [1, 1, 0])
    assert alg.inverse(GF3, [[1, 1], [0, 2]]) == [[1, 1], [0, 2]]


def _code(tmp_path, name, F, rows, measures=None):
    n = len(rows[0])
    code = check.Code(F, [f"x{i}" for i in range(n)], measures or [1] * n, rows)
    path = os.path.join(tmp_path, name + ".json")
    with open(path, "w") as fh:
        json.dump(code.json(), fh)
    return path


def _map(tmp_path, name, dom, cod, matrix):
    path = os.path.join(tmp_path, name + ".json")
    with open(path, "w") as fh:
        json.dump({"domain": os.path.basename(dom), "codomain": os.path.basename(cod),
                   "matrix": matrix}, fh)
    return path


def _problems(argv, expect, report, code=None, **extra):
    inv = {"argv": argv, "expect": expect, **extra}
    report = {"command": argv[0], **report}
    return check.problems(inv, expect if code is None else code, json.dumps(report))


def test_classes_and_quotient(tmp_path):
    # columns (1,0), (2,0), (0,1), (1,1) over GF(3): x0 ~ x1 with x1 = 2 x0
    path = _code(tmp_path, "c", GF3, [[1, 2, 0, 1], [0, 0, 1, 1]])
    assert sorted(map(sorted, check.classes(check.load_code(path)))) == [[0, 1], [2], [3]]
    good = {"classes": [["x0", "x1"], ["x2"], ["x3"]], "lambda": {"x1": 2}}
    assert _problems(["quotient", "--code", path], 0, good) == []
    wrong_lambda = {"classes": good["classes"], "lambda": {"x1": 1}}
    assert _problems(["quotient", "--code", path], 0, wrong_lambda)
    merged = {"classes": [["x0", "x1", "x2"], ["x3"]], "lambda": {"x1": 2, "x2": 1}}
    assert _problems(["quotient", "--code", path], 0, merged)


def test_ring(tmp_path):
    path = _code(tmp_path, "c", GF3, [[1, 2, 0], [0, 0, 1]])  # classes {x0, x1}, {x2}
    members = [[], ["x0", "x1"], ["x2"], ["x0", "x1", "x2"]]
    assert _problems(["ring", "--code", path], 0, {"members": members}) == []
    split = [[], ["x0"], ["x2"], ["x0", "x1", "x2"]]
    assert _problems(["ring", "--code", path], 0, {"members": split})
    assert _problems(["ring", "--code", path], 0, {"members": members[:3]})


def test_controllability(tmp_path):
    # the even-weight code {000, 101, 011, 110}: three classes, k = 2
    path = _code(tmp_path, "even", GF2, [[1, 0, 1], [0, 1, 1]])
    argv = ["controllable", "--code", path]
    # f = 101, D1 = {x0}, D2 = {x2}: f' = 100 would be needed, not a codeword
    bad = {"coeffs": [1, 0], "d1": ["x0"], "d2": ["x2"]}
    assert _problems(argv, 2, {"controllable": False, "witness": bad}) == []
    # D1 = {x0, x2}, D2 = {x1}: f itself works, so this is no witness
    feasible = {"coeffs": [1, 0], "d1": ["x0", "x2"], "d2": ["x1"]}
    assert _problems(argv, 2, {"controllable": False, "witness": feasible})
    assert _problems(argv, 0, {"controllable": True, "witness": None})
    full = _code(tmp_path, "full", GF2, [[1, 1, 0], [0, 0, 1]])  # two classes, k = 2
    assert _problems(["controllable", "--code", full], 0, {"controllable": True, "witness": None}) == []


def test_isometry_and_separating(tmp_path):
    # A: x0, x1 proportional (one class of measure 1 + 1), x2 alone with measure 3.
    a = _code(tmp_path, "A", GF3, [[1, 1, 0], [0, 0, 1]], [1, 1, 3])
    # B: y0 carries x2 (weight 2), y1 carries x0 (weight 1), measures 3 and 2
    b = _code(tmp_path, "B", GF3, [[0, 1], [1, 0]], [3, 2])
    # f = u0 row0 + u1 row1; Hf(y0) = 2 f(x2) = 2 u1, Hf(y1) = f(x0) = u0
    # B's rref basis is [[1, 0], [0, 1]], so H sends u to (2 u1, u0)
    pos = _map(tmp_path, "pos", a, b, [[0, 1], [2, 0]])
    planted = {"h": [2, 0], "omega": [2, 1]}
    assert _problems(["isometry", "--map", pos], 0,
                     {"isometry": True, "bijective": True, "mode": "exact", "witness": None},
                     planted=planted) == []
    assert _problems(["separating", "--map", pos], 0, {"separating": True, "witness": None},
                     planted=planted) == []
    # a wrong plant is caught
    assert _problems(["isometry", "--map", pos], 0,
                     {"isometry": True, "bijective": True, "mode": "exact", "witness": None},
                     planted={"h": [0, 2], "omega": [1, 2]})
    # H' sends u to (u0, u1): wt(1, 0) is 2 in A but 3 in B
    neg = _map(tmp_path, "neg", a, b, [[1, 0], [0, 1]])
    negative = {"isometry": False, "bijective": True, "mode": "exact", "witness": [1, 0]}
    assert _problems(["isometry", "--map", neg], 2, negative) == []
    kept = dict(negative, witness=[1, 1])  # weight 5 on both sides
    assert check.weight(check.load_code(a), [1, 1]) == Fraction(5)
    assert _problems(["isometry", "--map", neg], 2, kept)
    # f = (1, 0) and g = (0, 1) have disjoint cozero sets in A; their images
    # under H'' : u -> (u0 + u1, u1) meet at y0
    sep_neg = _map(tmp_path, "sepneg", a, b, [[1, 0], [1, 1]])
    assert _problems(["separating", "--map", sep_neg], 2,
                     {"separating": False, "witness": [[1, 0], [0, 1]]}) == []
    assert _problems(["separating", "--map", sep_neg], 2,
                     {"separating": False, "witness": [[1, 0], [1, 0]]})


def test_decompose(tmp_path):
    a = _code(tmp_path, "A", GF3, [[1, 1, 0], [0, 0, 1]])
    b = _code(tmp_path, "B", GF3, [[0, 1], [1, 0]])
    pos = _map(tmp_path, "pos", a, b, [[0, 1], [2, 0]])
    good = {"status": "composition", "h": {"x0": "x2", "x1": "x1"}, "omega": {"x0": 2, "x1": 1}}
    assert _problems(["decompose", "--map", pos], 0, good) == []
    assert _problems(["decompose", "--map", pos], 0, dict(good, omega={"x0": 1, "x1": 1}))
    # u -> (u0 + u1, u1): the functional at y0 is (1, 1), no multiple of a column of A
    neg = _map(tmp_path, "neg", a, b, [[1, 0], [1, 1]])
    refuted = {"status": "refuted", "witness": {"point": "x0", "functional": [1, 1]}}
    assert _problems(["decompose", "--map", neg], 2, refuted) == []
    # the functional at y1 is (0, 1), which is evaluation at x2
    at_y1 = {"status": "refuted", "witness": {"point": "x1", "functional": [0, 1]}}
    assert _problems(["decompose", "--map", neg], 2, at_y1)


def test_macwilliams(tmp_path):
    c1 = _code(tmp_path, "c1", GF3, [[1, 0, 1], [0, 1, 1]])  # {(a, b, a + b)}
    # T scales coordinate 0 by 2: T(C1) = {(2a, b, a + b)}, rref basis (1,0,2), (0,1,1)
    c2 = _code(tmp_path, "c2", GF3, [[2, 0, 1], [0, 1, 1]])
    argv = ["macwilliams", "--c1", c1, "--c2", c2]
    good = {"equivalent": True, "monomial": {"sigma": [1, 2, 3], "w": [2, 1, 1]},
            "isometry_matrix": [[2, 0], [0, 1]], "decompose_roundtrip": True}
    assert _problems(argv, 0, good) == []
    assert _problems(argv, 0, dict(good, monomial={"sigma": [1, 2, 3], "w": [1, 1, 1]}))
    # u -> u keeps the weight of (1, 0) (2 on both sides) but not of (1, 1): 3 vs 2
    assert _problems(argv, 0, dict(good, isometry_matrix=[[1, 0], [0, 1]]))
    # two disguised copies of the same inequivalent pair: the invariant separates
    cols_a = [[0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 0, 1], [1, 1, 1, 0, 0, 1]]
    cols_b = [[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]]
    pa, pb = _code(tmp_path, "pa", GF2, cols_a), _code(tmp_path, "pb", GF2, cols_b)
    ca, cb = check.load_code(pa), check.load_code(pb)
    assert check.weight_distribution(ca) == check.weight_distribution(cb) == ((0, 1), (2, 3), (4, 3), (6, 1))
    assert check.shortened_invariant(ca) != check.shortened_invariant(cb)
    no = {"equivalent": False, "monomial": None, "isometry_matrix": None, "decompose_roundtrip": None}
    assert _problems(["macwilliams", "--c1", pa, "--c2", pb], 2, no) == []
    assert _problems(["macwilliams", "--c1", pa, "--c2", pa], 2, no)


def test_exit_code_and_command_are_checked(tmp_path):
    path = _code(tmp_path, "c", GF2, [[1, 1]])
    report = {"members": [[], ["x0", "x1"]]}
    assert _problems(["ring", "--code", path], 0, report) == []
    assert _problems(["ring", "--code", path], 0, report, code=1)
    inv = {"argv": ["ring", "--code", path], "expect": 0}
    assert check.problems(inv, 0, json.dumps({"command": "quotient", **report}))
    assert check.problems(inv, 0, "not json")

"""End-to-end acceptance suite.

Each test records one PASS/FAIL line through the verdict fixture; the
lines are printed in the terminal summary after the run.
"""

import itertools
import json
import random
import time

import pytest

from hamiso import generate, linalg
from hamiso.cli import main as cli_main
from hamiso.decompose import (
    Decomposition,
    Refutation,
    decompose,
    functional_at,
    is_support,
    monomial_form,
    verify,
)
from hamiso.errors import TheoremViolation
from hamiso.funspace import coz_ring, is_controllable
from hamiso.gf import field_new
from hamiso.linmap import LinMap, is_isometry, is_separating
from hamiso.macwilliams import equivalence_decide
from hamiso.quotient import build_quotient, lambda_scalar, related, related_fast
from hamiso.space import PointSet
from oracles import controllable_witness_check


CORPUS_SEED = 20240824


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(CORPUS_SEED)
    codes = []
    for _ in range(50):
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(2, 8)
        k = rng.randint(1, min(4, n))
        codes.append(generate.random_code(rng, q, n, k))
    return codes


@pytest.fixture(scope="session")
def corpus_words(corpus):
    # precomputed codeword lists and weights, shared across criteria 2-4
    out = []
    for C in corpus:
        words = list(C.enumerate_codewords())
        weights = {u: C.weight(u) for u in words}
        out.append((C, words, weights))
    return out


def test_criterion_01_field_axioms(verdict):
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        field = generate.field_of_order(q) if q in generate.FIELD_ORDERS else None
        if field is None:
            p, m = {7: (7, 1), 11: (11, 1), 13: (13, 1), 16: (2, 4)}[q]
            field = field_new(p, m)
        els = field.elements()
        for a in els:
            ok &= field.add(a, 0) == a and field.mul(a, 1) == a
            ok &= field.add(a, field.neg(a)) == 0
            if a != 0:
                ok &= field.mul(a, field.inv(a)) == 1
            for b in els:
                ok &= field.add(a, b) == field.add(b, a)
                ok &= field.mul(a, b) == field.mul(b, a)
                for c in els:
                    ok &= field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                    ok &= field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                    ok &= field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    verdict(1, "field axioms, all q <= 16", ok, elapsed)
    assert ok


def test_criterion_02_metric_axioms(corpus_words, verdict):
    t0 = time.monotonic()
    ok = True
    for C, words, weights in corpus_words:
        zero = words[0]
        field = C.field
        for u in words:
            # identity of indiscernibles on the difference: wt(u)=0 iff u=0
            ok &= (weights[u] == 0) == (u == zero)
            # symmetry: wt(-u) = wt(u)
            ok &= weights[tuple(field.neg(c) for c in u)] == weights[u]
        # triangle inequality via translation invariance of the metric
        for u in words:
            wu = weights[u]
            for v in words:
                s = C.codeword_add(u, v)
                if weights[s] > wu + weights[v]:
                    ok = False
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    verdict(2, "metric axioms on 50-code corpus", ok, elapsed)
    assert ok


def test_criterion_03_quotient_oracles(corpus, verdict):
    t0 = time.monotonic()
    ok = True
    for C in corpus:
        for i in range(C.n):
            for j in range(C.n):
                if related(C, i, j) != related_fast(C, i, j):
                    ok = False
        Q = build_quotient(C)
        field = C.field
        for cls in Q.classes:
            for x1 in cls:
                for x2 in cls:
                    ok &= lambda_scalar(Q, x2, x1) == field.inv(lambda_scalar(Q, x1, x2))
                    for x in cls:
                        ok &= lambda_scalar(Q, x1, x2) == field.mul(
                            lambda_scalar(Q, x1, x), lambda_scalar(Q, x, x2)
                        )
    elapsed = time.monotonic() - t0
    verdict(3, "related vs related_fast, lambda cocycle", ok, elapsed)
    assert ok


def test_criterion_04_additivity_lemma(corpus_words, verdict):
    t0 = time.monotonic()
    ok = True
    for C, words, weights in corpus_words:
        cozs = {u: C.coz(u).mask for u in words}
        for u in words:
            wu, cu = weights[u], cozs[u]
            for v in words:
                additive = weights[C.codeword_add(u, v)] == wu + weights[v]
                disjoint = cu & cozs[v] == 0
                if additive != disjoint:
                    ok = False
    elapsed = time.monotonic() - t0
    verdict(4, "weight additive iff cozero sets disjoint", ok, elapsed)
    assert ok


def test_criterion_05_isometry_implies_separating(verdict):
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 5)
    ok = True
    for _ in range(200):
        q = rng.choice([2, 3, 4])
        n = rng.randint(2, 6)
        field = generate.field_of_order(q)
        A = generate.full_space(field, n)
        H = generate.monomial_linmap(generate.random_monomial(rng, field, n), A, A)
        ok &= is_isometry(H)[0]
        ok &= is_separating(H)[0]
    elapsed = time.monotonic() - t0
    verdict(5, "200 monomial maps: isometry and separating", ok, elapsed)
    assert ok


def test_criterion_06_decompose_on_controllable_isometries(corpus, verdict):
    t0 = time.monotonic()
    ok = True
    tested = 0
    for C in corpus:
        if not is_controllable(C)[0]:
            continue
        isoms = [generate.identity_linmap(C)]
        for c in C.field.nonzero()[1:2]:
            isoms.append(generate.scaling_linmap(C, c))
        for H in isoms:
            t1 = time.monotonic()
            D = decompose(H)
            good = isinstance(D, Decomposition) and D.verified
            good = good and verify(D, H, max_enum=2**20)
            good = good and (time.monotonic() - t1) < 1.0
            ok &= good
            tested += 1
    ok &= tested > 0
    elapsed = time.monotonic() - t0
    verdict(6, f"decompose verified on {tested} controllable isometries", ok, elapsed)
    assert ok


def test_criterion_07_monomial_roundtrip(verdict):
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 7)
    ok = True
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(2, 8)
        field = generate.field_of_order(q)
        A = generate.full_space(field, n)
        T = generate.random_monomial(rng, field, n)
        H = generate.monomial_linmap(T, A, A)
        D = decompose(H)
        if isinstance(D, Refutation):
            ok = False
            continue
        sigma, w = monomial_form(D, H)
        ok &= sigma == T.sigma and w == T.w
    elapsed = time.monotonic() - t0
    verdict(7, "200 planted monomials recovered exactly", ok, elapsed)
    assert ok


def test_criterion_08_refutation_certificate(verdict):
    t0 = time.monotonic()
    field = field_new(2)
    A = generate.full_space(field, 2)
    H = LinMap(A, A, [[1, 1], [0, 1]])
    out = decompose(H)
    ok = isinstance(out, Refutation)
    if ok:
        for x in range(A.n):
            col = A.column(x)
            for c in field.nonzero():
                if out.functional == tuple(field.mul(c, v) for v in col):
                    ok = False
    elapsed = time.monotonic() - t0
    verdict(8, "refutation functional non-proportional to all evaluations", ok, elapsed)
    assert ok


def test_criterion_09_equivalence_searches_agree(verdict):
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 9)
    codes = []
    # two comparable groups of ten so most pairs share field and length
    for q, n in ((2, 5), (3, 4)):
        for _ in range(10):
            k = rng.randint(1, 3)
            codes.append(generate.random_code(rng, q, n, k, uniform_measure=True))
    ok = True
    compared = 0
    for C1 in codes:
        for C2 in codes:
            if C1.field != C2.field or C1.n != C2.n:
                continue
            compared += 1
            try:
                equivalence_decide(C1, C2)
            except TheoremViolation:
                ok = False
    ok &= compared >= 200
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    verdict(9, "monomial and isometry search verdicts agree", ok, elapsed)
    assert ok


def test_criterion_10_controllability(corpus, verdict):
    t0 = time.monotonic()
    ok = True
    for q in (2, 3):
        field = generate.field_of_order(q)
        for n in range(1, 6):
            good, witness = is_controllable(generate.full_space(field, n))
            ok &= good and witness is None
    for C in corpus:
        good, witness = is_controllable(C)
        if not good:
            f, d1, d2 = witness
            ring = coz_ring(C)
            ok &= not controllable_witness_check(C, f, d1.mask, d2.mask, ring)
    elapsed = time.monotonic() - t0
    verdict(10, "full spaces controllable, witnesses re-verified", ok, elapsed)
    assert ok


def test_criterion_11_support_properties(corpus, verdict):
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 11)
    ok = True
    for C in corpus:
        H = generate.identity_linmap(C)
        Q = build_quotient(C)
        full = C.space.full_set()
        controllable = is_controllable(C)[0]
        for iy in range(C.n):
            # (a) the whole space supports every evaluation functional
            ok &= is_support(H, iy, full, Q)
        # (c) agreement on a support forces equal functional values
        phi_cache = {iy: functional_at(H, iy) for iy in range(C.n)}
        words = None
        for _ in range(100):
            iy = rng.randrange(C.n)
            kmask = Q.class_mask(Q.class_of[iy])
            for cid in range(Q.num_classes()):
                if cid != Q.class_of[iy] and rng.random() < 0.5:
                    kmask |= Q.class_mask(cid)
            if words is None:
                words = list(C.enumerate_codewords())
            f = rng.choice(words)
            vanish = C.vanishing_basis(kmask)
            g = f
            for v in vanish:
                c = rng.randrange(C.field.q)
                if c:
                    g = C.codeword_add(g, tuple(C.field.mul(c, a) for a in v))
            phi = phi_cache[iy]
            ok &= linalg.dot(C.field, f, phi) == linalg.dot(C.field, g, phi)
        # (d) any two supports of one functional intersect
        if controllable and Q.num_classes() <= 10:
            for iy in range(C.n):
                supports = []
                for combo in range(1, 1 << Q.num_classes()):
                    mask = 0
                    for cid in range(Q.num_classes()):
                        if combo >> cid & 1:
                            mask |= Q.class_mask(cid)
                    if is_support(H, iy, PointSet(C.space, mask), Q):
                        supports.append(mask)
                for m1, m2 in itertools.combinations(supports, 2):
                    if m1 & m2 == 0:
                        ok = False
    elapsed = time.monotonic() - t0
    verdict(11, "support properties (a), (c), (d)", ok, elapsed)
    assert ok


def test_criterion_12_deterministic_reports(tmp_path, verdict):
    t0 = time.monotonic()
    code_obj = {
        "field": {"p": 3},
        "space": {"labels": ["a", "b", "c"], "measures": ["1/2", 1, "2/3"]},
        "rows": [[1, 2, 0], [0, 1, 1]],
    }
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_obj))
    map_obj = {"domain": code_obj, "codomain": code_obj, "matrix": [[2, 0], [0, 2]]}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(map_obj))
    runs = [
        ["selftest"],
        ["--diagnostic", "selftest"],
        ["quotient", "--code", str(code_path)],
        ["ring", "--code", str(code_path)],
        ["controllable", "--code", str(code_path)],
        ["decompose", "--map", str(map_path)],
        ["macwilliams", "--c1", str(code_path), "--c2", str(code_path)],
    ]
    ok = True
    for i, argv in enumerate(runs):
        if argv[-1] == "macwilliams" or "macwilliams" in argv:
            # macwilliams requires uniform measure; use an unmeasured twin
            uni = dict(code_obj, space={"labels": ["a", "b", "c"]})
            upath = tmp_path / "uni.json"
            upath.write_text(json.dumps(uni))
            argv = ["macwilliams", "--c1", str(upath), "--c2", str(upath)]
        p1 = tmp_path / f"r{i}a.json"
        p2 = tmp_path / f"r{i}b.json"
        c1 = cli_main(["--output", str(p1)] + argv)
        c2 = cli_main(["--output", str(p2)] + argv)
        ok &= c1 == c2
        ok &= p1.read_bytes() == p2.read_bytes()
    elapsed = time.monotonic() - t0
    verdict(12, "repeated runs give byte-identical reports", ok, elapsed)
    assert ok

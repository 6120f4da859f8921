"""Seeded cross-checks of the projective-key fast paths against definitional oracles.

Every oracle here enumerates all q^k codewords itself (itertools.product in
packed-index order, u[0] least significant) and evaluates codewords column
by column, so none of them goes through the code path it checks.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hamiso import generate, linalg
from hamiso.decompose import Decomposition, decompose
from hamiso.errors import ZeroFunctional
from hamiso.funspace import FunctionSpace
from hamiso.linmap import LinMap, is_isometry, is_separating
from hamiso.quotient import build_quotient, projective_key, related
from hamiso.space import PointSpace

MEASURES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]


def words(F, k):
    for t in itertools.product(range(F.q), repeat=k):
        yield t[::-1]


def values(F, u, columns):
    out = []
    for col in columns:
        acc = 0
        for a, c in zip(u, col):
            acc = F.add(acc, F.mul(a, c))
        out.append(acc)
    return out


def columns(C):
    return list(zip(*C.gen))


def weight(C, vals):
    return sum((mu for mu, v in zip(C.space.measures, vals) if v), Fraction(0))


def space_of(measures):
    return PointSpace([f"x{i}" for i in range(len(measures))], measures)


def random_columns(rng, F, k, n):
    """n nonzero columns of length k spanning F^k."""
    while True:
        cols = [tuple(rng.randrange(F.q) for _ in range(k)) for _ in range(n)]
        if all(any(c) for c in cols) and linalg.rank(F, [list(r) for r in zip(*cols)]) == k:
            return cols


def planted_image(rng, F, A, split):
    """Columns s_y * a_{h(y)} of a codomain carrying A's measure, points permuted.

    Every domain point is used; with split, some are spread over two
    proportional codomain points whose measures add up to the original.
    """
    cols, measures = [], []
    for x, (col, mu) in enumerate(zip(columns(A), A.space.measures)):
        parts = [mu / 3, 2 * mu / 3] if split and rng.random() < 0.4 else [mu]
        for part in parts:
            s = rng.randrange(1, F.q)
            cols.append(tuple(F.mul(s, c) for c in col))
            measures.append(part)
    order = list(range(len(cols)))
    rng.shuffle(order)
    return [cols[i] for i in order], [measures[i] for i in order]


def map_onto(A, cols, measures):
    """The codomain spanned by the value vectors of cols, and the map u -> u . cols."""
    F = A.field
    rows = [list(r) for r in zip(*cols)]
    B = FunctionSpace(F, space_of(measures), rows)
    pivots = [next(j for j, c in enumerate(row) if c) for row in B.gen]
    # row i of A.gen, read in B's reduced basis, sits at B's pivot columns
    images = [values(F, e, cols) for e in linalg.identity(A.k)]
    return B, LinMap(A, B, [[img[p] for p in pivots] for img in images])


def random_invertible(rng, F, k):
    while True:
        m = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        if linalg.rank(F, m) == k:
            return m


def random_bijective_map(rng):
    F = generate.field_of_order(rng.choice([2, 3, 4, 5]))
    k = rng.randint(1, 4)
    n = rng.randint(k, k + 3)
    A = FunctionSpace(F, space_of([rng.choice(MEASURES) for _ in range(n)]), [
        list(r) for r in zip(*random_columns(rng, F, k, n))
    ])
    if rng.random() < 0.5:
        cols, measures = planted_image(rng, F, A, split=rng.random() < 0.5)
        if rng.random() < 0.2:
            measures[rng.randrange(len(measures))] *= 2
    else:
        nb = rng.randint(k, k + 3)
        cols = random_columns(rng, F, k, nb)
        measures = [rng.choice(MEASURES) for _ in range(nb)]
    B, H = map_onto(A, cols, measures)
    if rng.random() < 0.5:
        R = random_invertible(rng, F, k)
        H = LinMap(A, B, linalg.mat_mul(F, R, [list(r) for r in H.matrix]))
    return H


def isometry_oracle(H):
    """(True, None) or (False, least u with wt(u) != wt(Hu)), by enumeration."""
    A, B, F = H.domain, H.codomain, H.field
    ca, cb = columns(A), columns(B)
    for u in words(F, A.k):
        hu = linalg.vec_mat(F, list(u), [list(r) for r in H.matrix])
        if weight(A, values(F, u, ca)) != weight(B, values(F, hu, cb)):
            return False, u
    return True, None


@pytest.fixture(scope="module")
def isometry_cases():
    rng = random.Random(20150209)
    cases = []
    for _ in range(1000):
        H = random_bijective_map(rng)
        cases.append((H, isometry_oracle(H)))
    return cases


def test_projective_key():
    F = generate.field_of_order(5)
    key, lead = projective_key(F, (0, 3, 1, 4))
    assert lead == 3 and key[:2] == (0, 1)
    assert tuple(F.mul(lead, c) for c in key) == (0, 3, 1, 4)
    for s in range(1, 5):
        assert projective_key(F, (0, F.mul(s, 3), F.mul(s, 1), F.mul(s, 4)))[0] == key
    assert projective_key(F, (0, 3, 1, 3))[0] != key
    assert projective_key(F, (0, 0)) == ((0, 0), 0)


def test_structural_isometry_matches_enumeration(isometry_cases, monkeypatch):
    def no_enumeration(self, max_enum=None):
        raise AssertionError("a positive isometry verdict enumerated codewords")

    positives = 0
    for H, (expect, _) in isometry_cases:
        if expect:
            positives += 1
            with monkeypatch.context() as m:
                m.setattr(FunctionSpace, "enumerate_codewords", no_enumeration)
                assert is_isometry(H) == (True, None)
        else:
            assert is_isometry(H)[0] is False
    assert 150 <= positives <= 850


def test_negative_isometry_witness_is_least(isometry_cases):
    negatives = [(H, w) for H, (ok, w) in isometry_cases if not ok]
    assert len(negatives) >= 150
    for H, witness in negatives:
        assert is_isometry(H) == (False, witness)


def classed_code(rng):
    """A code whose columns repeat up to scalars, so classes have several members."""
    F = generate.field_of_order(rng.choice([2, 3, 4, 5]))
    k = rng.randint(1, 3)
    base = random_columns(rng, F, k, rng.randint(k, k + 2))
    cols = [tuple(F.mul(rng.randrange(1, F.q), c) for c in rng.choice(base)) for _ in range(6)]
    cols = base + cols
    rng.shuffle(cols)
    return FunctionSpace(F, space_of([1] * len(cols)), [list(r) for r in zip(*cols)])


def test_build_quotient_matches_pairwise_oracle():
    rng = random.Random(4)
    for _ in range(60):
        A = classed_code(rng)
        F, cols = A.field, columns(A)
        classes, lam = [], [None] * A.n
        for i in range(A.n):
            home = next((c for c in classes if related(A, c[0], i)), None)
            if home is None:
                classes.append([i])
                lam[i] = 1
                continue
            home.append(i)
            r = home[0]
            # f(i) = lam * f(rep) on every codeword, read off where f(rep) != 0
            ratios = {
                F.div(v[i], v[r]) for v in (values(F, u, cols) for u in words(F, A.k)) if v[r]
            }
            assert len(ratios) == 1
            lam[i] = ratios.pop()
        Q = build_quotient(A)
        assert Q.classes == tuple(map(tuple, classes))
        assert Q.lambda_to_rep == tuple(lam)
        assert all(Q.class_of[i] == c for c, cls in enumerate(Q.classes) for i in cls)


def separating_oracle(H):
    """The least pair (f, g) with disjoint cozero sets whose images meet, by enumeration."""
    A, B, F = H.domain, H.codomain, H.field
    ca, cb = columns(A), columns(B)
    ws = list(words(F, A.k))
    coz = [sum(1 << x for x, v in enumerate(values(F, u, ca)) if v) for u in ws]
    img = []
    for u in ws:
        hu = linalg.vec_mat(F, list(u), [list(r) for r in H.matrix])
        img.append(sum(1 << y for y, v in enumerate(values(F, hu, cb)) if v))
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if coz[i] & coz[j] == 0 and img[i] & img[j]:
                return False, (ws[i], ws[j])
    return True, None


def random_map(rng):
    """A map onto a planted composition (h possibly not onto) or onto a random code."""
    A = classed_code(rng)
    F, k = A.field, A.k
    if F.q ** k > 64:
        return None
    if rng.random() < 0.5:
        ca = columns(A)
        cols = [tuple(F.mul(rng.randrange(1, F.q), c) for c in rng.choice(ca)) for _ in range(4)]
    else:
        cols = [tuple(rng.randrange(F.q) for _ in range(k)) for _ in range(4)]
    cols = [c for c in cols if any(c)]
    if not cols:
        return None
    _, H = map_onto(A, cols, [1] * len(cols))
    if rng.random() < 0.3:
        m = [list(r) for r in H.matrix]
        m[rng.randrange(k)][rng.randrange(len(m[0]))] = rng.randrange(F.q)
        H = LinMap(A, H.codomain, m)
    return H


def test_decompose_certified_separating_matches_pair_scan():
    rng = random.Random(9)
    certified = refuted = 0
    while certified + refuted < 300:
        H = random_map(rng)
        if H is None:
            continue
        try:
            out = decompose(H)
        except ZeroFunctional:
            out = None
        if isinstance(out, Decomposition):
            certified += 1
        else:
            refuted += 1
        assert is_separating(H) == separating_oracle(H)
    assert certified >= 60 and refuted >= 60

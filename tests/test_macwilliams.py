import itertools
import random
import time

import pytest

from hamiso import generate, linalg, macwilliams
from hamiso.errors import SearchTooLarge, SpaceMismatch, TheoremViolation
from hamiso.funspace import FunctionSpace
from hamiso.gf import field_new
from hamiso.linmap import is_isometry
from hamiso.macwilliams import (
    MonomialMap,
    equivalence_decide,
    isometry_search,
    monomial_apply,
    monomial_search,
    weight_distribution,
)
from hamiso.space import PointSpace
from oracles import brute_monomial_search


GF2 = field_new(2)
GF3 = field_new(3)


def ucode(field, rows, n):
    space = PointSpace([f"x{i}" for i in range(n)], [1] * n)
    return FunctionSpace(field, space, rows)


def planted_pair(rng, q, n, k):
    field = generate.field_of_order(q)
    C1 = generate.random_code(rng, q, n, k, uniform_measure=True)
    T = generate.random_monomial(rng, field, n)
    rows2 = [list(T.apply(field, row)) for row in C1.gen]
    C2 = FunctionSpace(field, C1.space, rows2)
    return C1, C2, T


def test_monomial_apply():
    T = MonomialMap((1, 2, 0), (1, 2, 1))
    assert monomial_apply(GF3, T, (1, 0, 2)) == (0, 1, 1)
    ident = MonomialMap((0, 1), (1, 1))
    assert monomial_apply(GF2, ident, (1, 0)) == (1, 0)


def test_weight_distribution():
    C = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    assert weight_distribution(C) == ((0, 1), (2, 3))


def test_monomial_search_identity():
    C = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    T = monomial_search(C, C)
    assert T is not None
    # lexicographically least: the identity map works here
    assert T.sigma == (0, 1, 2) and T.w == (1, 1, 1)


def test_monomial_search_planted_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        q = rng.choice([2, 3])
        n = rng.randint(2, 5)
        k = rng.randint(1, min(3, n))
        C1, C2, _ = planted_pair(rng, q, n, k)
        T = monomial_search(C1, C2)
        assert T is not None
        field = C1.field
        image = [list(T.apply(field, row)) for row in C1.gen]
        assert tuple(tuple(r) for r in linalg.rref(field, image)) == C2.gen


def test_monomial_search_inequivalent():
    C1 = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    C2 = ucode(GF2, [[1, 1, 1]], 3)  # different dimension
    assert monomial_search(C1, C2) is None
    C3 = ucode(GF2, [[1, 0, 0], [0, 1, 1]], 3)  # different weight distribution
    assert weight_distribution(C1) != weight_distribution(C3)
    assert monomial_search(C1, C3) is None


def test_monomial_search_pair_checks():
    C1 = ucode(GF2, [[1, 1]], 2)
    C2 = ucode(GF3, [[1, 1]], 2)
    with pytest.raises(SpaceMismatch):
        monomial_search(C1, C2)
    C3 = ucode(GF2, [[1, 1, 1]], 3)
    with pytest.raises(SpaceMismatch):
        monomial_search(C1, C3)
    sp = PointSpace(["a", "b"], [1, 2])
    C4 = FunctionSpace(GF2, sp, [[1, 1]])
    with pytest.raises(SpaceMismatch):
        monomial_search(C4, C4)


def test_isometry_search_identity():
    C = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    H = isometry_search(C, C)
    assert H is not None
    assert is_isometry(H)[0]


def test_isometry_search_agrees_with_monomial_search():
    rng = random.Random(9)
    hits = 0
    for _ in range(12):
        q = rng.choice([2, 3])
        n = rng.randint(2, 4)
        k = rng.randint(1, min(3, n))
        C1 = generate.random_code(rng, q, n, k, uniform_measure=True)
        if rng.random() < 0.5:
            T0 = generate.random_monomial(rng, C1.field, n)
            C2 = FunctionSpace(
                C1.field, C1.space, [list(T0.apply(C1.field, r)) for r in C1.gen]
            )
        else:
            C2 = generate.random_code(rng, q, n, k, uniform_measure=True)
        T = monomial_search(C1, C2)
        H = isometry_search(C1, C2)
        assert (T is None) == (H is None)
        if H is not None:
            hits += 1
            assert is_isometry(H)[0]
    assert hits > 0


def test_isometry_search_inequivalent():
    C1 = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    C3 = ucode(GF2, [[1, 0, 0], [0, 1, 1]], 3)
    assert isometry_search(C1, C3) is None


def test_equivalence_decide_report():
    rng = random.Random(13)
    C1, C2, _ = planted_pair(rng, 3, 4, 2)
    report = equivalence_decide(C1, C2)
    assert report["equivalent"] is True
    assert report["monomial"] is not None
    assert report["isometry"] is not None
    assert report["decompose_roundtrip"] in (True, None)

    C3 = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    C4 = ucode(GF2, [[1, 0, 0], [0, 1, 1]], 3)
    report = equivalence_decide(C3, C4)
    assert report["equivalent"] is False
    assert report["monomial"] is None and report["isometry"] is None
    assert report["decompose_roundtrip"] is None


def test_equivalence_decide_roundtrip_true_on_distinct_columns():
    # pairwise non-proportional columns keep the quotients trivial, so the
    # roundtrip check must come back True rather than None
    C1 = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    report = equivalence_decide(C1, C1)
    assert report["decompose_roundtrip"] is True


def test_search_guards():
    C = ucode(GF3, [[1, 1, 1, 1, 1]], 5)
    with pytest.raises(SearchTooLarge):
        monomial_search(C, C, max_search=10)
    C2 = ucode(GF3, [[1, 0], [0, 1]], 2)
    with pytest.raises(SearchTooLarge):
        isometry_search(C2, C2, max_search=10)


def test_equivalence_decide_raises_on_a_non_isometry(monkeypatch):
    C = ucode(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    monkeypatch.setattr(macwilliams, "is_isometry", lambda H, max_enum: (False, (1, 0)))
    with pytest.raises(TheoremViolation, match="non-isometry"):
        equivalence_decide(C, C)


# The most n per q that keeps the oracle's walk over n! (q-1)^n monomials short.
MAX_N = {2: 6, 3: 5, 4: 4, 5: 4}
# Binary [6, 3] codes with weights {0: 1, 2: 3, 4: 3, 6: 1} that are not
# equivalent: the first has a column three times, the second none more
# than twice.
SAME_WD_COLUMNS = (
    [(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
    [(0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)],
)


def code_of_columns(field, cols):
    return ucode(field, [list(r) for r in zip(*cols)], len(cols))


def columns_with_repeats(rng, F, k, n, sparse=False):
    """n nonzero columns spanning F^k; about a third repeat an earlier column, scaled.

    With sparse, half the entries of the other columns are zero.
    """
    while True:
        cols = []
        for _ in range(n):
            if cols and rng.random() < 0.35:
                cols.append(scaled(rng, F, rng.choice(cols)))
            else:
                cols.append(tuple(
                    0 if sparse and rng.random() < 0.5 else rng.randrange(F.q) for _ in range(k)
                ))
        if all(any(c) for c in cols) and linalg.rank(F, [list(r) for r in zip(*cols)]) == k:
            return cols


def scaled(rng, F, col):
    s = rng.randrange(1, F.q)
    return tuple(F.mul(s, c) for c in col)


def monomial_image(rng, F, cols):
    sigma = list(range(len(cols)))
    rng.shuffle(sigma)
    return [scaled(rng, F, cols[x]) for x in sigma]


def random_pair(rng):
    """(C1, C2) over q in {2, 3, 4, 5}: half of the C2 planted monomial images of C1."""
    F = generate.field_of_order(rng.choice([2, 3, 4, 5]))
    n = rng.randint(MAX_N[F.q] - 2, MAX_N[F.q])
    r = rng.random()
    k = 1 if r < 0.1 else n if r < 0.2 else rng.randint(1, n)
    cols = columns_with_repeats(rng, F, k, n)
    if rng.random() < 0.5:
        other = monomial_image(rng, F, cols)
    elif rng.random() < 0.5:
        # an image with one column changed: often the same weight distribution
        other = monomial_image(rng, F, cols)
        j = rng.randrange(n)
        other[j] = scaled(rng, F, rng.choice(cols))
    else:
        other = columns_with_repeats(rng, F, k, n)
    return code_of_columns(F, cols), code_of_columns(F, other)


def same_wd_pair(rng):
    """The binary [6, 3] pair, each code disguised by a random monomial."""
    return tuple(code_of_columns(GF2, monomial_image(rng, GF2, cols)) for cols in SAME_WD_COLUMNS)


def test_monomial_search_matches_brute_force():
    rng = random.Random(2024)
    pairs = [random_pair(rng) for _ in range(340)] + [same_wd_pair(rng) for _ in range(10)]
    seen = {"equivalent": 0, "inequivalent": 0, "same_wd_inequivalent": 0, "k=1": 0, "k=n": 0,
            "shifted_pivots": 0, "repeated_columns": 0}
    seen.update({f"q={q}": 0 for q in MAX_N})
    for C1, C2 in pairs:
        expected = brute_monomial_search(C1, C2)
        assert monomial_search(C1, C2) == expected, (C1.gen, C2.gen)
        seen["equivalent" if expected else "inequivalent"] += 1
        if expected is None and weight_distribution(C1) == weight_distribution(C2):
            seen["same_wd_inequivalent"] += 1
        seen[f"q={C1.field.q}"] += 1
        seen["k=1"] += C1.k == 1
        seen["k=n"] += C1.k == C1.n
        seen["shifted_pivots"] += [row.index(1) for row in C2.gen] != list(range(C2.k))
        seen["repeated_columns"] += len({C1.column(x) for x in range(C1.n)}) < C1.n
    assert min(seen.values()) >= 10 and seen["equivalent"] >= 150, seen


def test_search_never_needs_the_weight_distribution(monkeypatch):
    # equal profile multisets imply equal weight distributions, so the
    # search decides every pair, the equal-distribution ones included,
    # without computing them
    def refuse(C, max_enum):
        raise RuntimeError("monomial_search computed a weight distribution")

    monkeypatch.setattr(macwilliams, "weight_distribution", refuse)
    rng = random.Random(5)
    for C1, C2 in [random_pair(rng) for _ in range(60)] + [same_wd_pair(rng) for _ in range(10)]:
        assert monomial_search(C1, C2) == brute_monomial_search(C1, C2), (C1.gen, C2.gen)


def test_pivot_search_alone_matches_brute_force(monkeypatch):
    # with the column profiles made blind, the pivot and ratio conditions
    # alone must reject every inequivalent pair of equal dimension and
    # still find the least monomial
    monkeypatch.setattr(macwilliams, "_column_profiles", lambda C, max_enum: [()] * C.n)
    rng = random.Random(7)
    negatives = 0
    for C1, C2 in [random_pair(rng) for _ in range(250)] + [same_wd_pair(rng) for _ in range(5)]:
        expected = brute_monomial_search(C1, C2)
        assert monomial_search(C1, C2) == expected, (C1.gen, C2.gen)
        negatives += expected is None and C1.k == C2.k
    assert negatives >= 20


def test_least_weights_on_longer_codes():
    # past the oracle's reach in sigma, but not in w: for the sigma found,
    # w must be the first weight vector in product order that works; sparse
    # columns tie the pivot weights together in several steps
    rng = random.Random(31)
    for _ in range(80):
        F = generate.field_of_order(rng.choice([3, 4, 5]))
        n = rng.randint(5, 7 if F.q == 3 else 6 if F.q == 4 else 5)
        cols = columns_with_repeats(rng, F, rng.randint(2, 4), n, sparse=True)
        C1, C2 = code_of_columns(F, cols), code_of_columns(F, monomial_image(rng, F, cols))
        found = monomial_search(C1, C2, max_search=10**9)
        rows = [[row[x] for x in found.sigma] for row in C1.gen]
        least = next(
            w
            for w in itertools.product(F.nonzero(), repeat=n)
            if tuple(
                tuple(r) for r in linalg.rref(F, [[F.mul(c, wj) for c, wj in zip(row, w)] for row in rows])
            )
            == C2.gen
        )
        assert found.w == least


def test_weights_tied_through_merged_groups():
    # columns e0, e1, e2, (a, 0, b), (0, c, d): position 3 ties pivot 2 to
    # pivot 0, and position 4 then ties pivot 1 to that group through
    # pivot 2, which is not its group's root
    rng = random.Random(17)
    for _ in range(40):
        F = generate.field_of_order(rng.choice([4, 5]))
        a, b, c, d = (rng.randrange(1, F.q) for _ in range(4))
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (a, 0, b), (0, c, d)]
        C1 = code_of_columns(F, cols)
        C2 = code_of_columns(F, [scaled(rng, F, col) for col in cols])
        found = monomial_search(C1, C2)
        assert found == brute_monomial_search(C1, C2)
        assert found.sigma == (0, 1, 2, 3, 4)


def test_monomial_search_scales_to_12_6_over_gf3():
    # the walk over all 12! 2^12 (about 2e12) monomials is out of reach
    rng = random.Random(11)
    C1, C2, T = planted_pair(rng, 3, 12, 6)
    start = time.process_time()
    found = monomial_search(C1, C2, max_search=10**15)
    assert time.process_time() - start < 1.0
    field = C1.field
    image = [list(found.apply(field, row)) for row in C1.gen]
    assert tuple(tuple(r) for r in linalg.rref(field, image)) == C2.gen
    assert found.sigma <= T.sigma

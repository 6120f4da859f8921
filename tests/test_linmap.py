import random

import pytest

from hamiso import generate, linalg
from hamiso.errors import InvalidArgument, SeedRequired, SpaceMismatch, TheoremViolation
from hamiso.funspace import FunctionSpace
from hamiso.gf import field_new
from hamiso.linmap import LinMap, disjointness_additivity, is_isometry, is_separating
from hamiso.macwilliams import MonomialMap


GF2 = field_new(2)
GF3 = field_new(3)


def full2(field, n, measures=None):
    return generate.full_space(field, n, measures)


def test_apply():
    A = full2(GF2, 2)
    H = generate.identity_linmap(A)
    for u in A.enumerate_codewords():
        assert H.apply(u) == u
    S = generate.scaling_linmap(full2(GF3, 2), 2)
    for u in S.domain.enumerate_codewords():
        img = S.apply(u)
        for x in range(2):
            assert S.codomain.evaluate(img, x) == GF3.mul(2, S.domain.evaluate(u, x))
    with pytest.raises(SpaceMismatch):
        H.apply((1, 0, 0))


def test_rank_predicates():
    A = full2(GF2, 2)
    assert generate.identity_linmap(A).is_bijective()
    zero_ish = LinMap(A, A, [[0, 0], [0, 0]])
    assert not zero_ish.is_injective()
    H = LinMap(A, A, [[1, 1], [0, 1]])
    assert H.is_bijective()


def test_isometry_examples():
    A = full2(GF2, 2)
    ok, w = is_isometry(generate.identity_linmap(A))
    assert ok and w is None

    swap = LinMap(A, A, [[0, 1], [1, 0]])
    ok, _ = is_isometry(swap)
    assert ok  # uniform measure: permutations preserve counts

    B = full2(GF2, 2, [1, 2])
    swap_b = LinMap(B, B, [[0, 1], [1, 0]])
    ok, w = is_isometry(swap_b)
    assert not ok and w == (1, 0)
    assert B.weight(w) == 1 and B.weight(swap_b.apply(w)) == 2


def test_non_bijective_not_isometry():
    A = full2(GF2, 2)
    ok, w = is_isometry(LinMap(A, A, [[1, 0], [1, 0]]))
    assert not ok and w is None


def test_separating_examples():
    A = full2(GF2, 2)
    ok, _ = is_separating(generate.identity_linmap(A))
    assert ok

    H = LinMap(A, A, [[1, 1], [0, 1]])
    ok, pair = is_separating(H)
    assert not ok
    f, g = pair
    assert A.coz(f).is_disjoint(A.coz(g))
    assert not A.coz(H.apply(f)).is_disjoint(A.coz(H.apply(g)))


def test_isometry_implies_separating():
    rng = random.Random(13)
    for _ in range(25):
        q = rng.choice([2, 3, 4])
        n = rng.randint(2, 4)
        field = generate.field_of_order(q)
        A = full2(field, n)
        T = generate.random_monomial(rng, field, n)
        H = generate.monomial_linmap(T, A, A)
        ok, _ = is_isometry(H)
        assert ok
        ok, _ = is_separating(H)
        assert ok
        assert H.is_bijective()


def test_separating_fallback_matches_pair_scan():
    # brute pair scan as oracle on small maps, including non-separating ones
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(2, 3)
        k = rng.randint(1, n)
        A = generate.random_code(rng, 2, n, k, uniform_measure=True)
        m = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
        H = LinMap(A, A, m)
        words = list(A.enumerate_codewords())
        naive = True
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                if A.coz(u).is_disjoint(A.coz(v)) and not A.coz(H.apply(u)).is_disjoint(
                    A.coz(H.apply(v))
                ):
                    naive = False
        assert is_separating(H)[0] == naive


def test_sample_mode():
    A = full2(GF2, 4, [1, 2, 3, 4])
    swap = generate.monomial_linmap(
        generate.random_monomial(random.Random(31), GF2, 4), A, A
    )
    with pytest.raises(SeedRequired):
        is_isometry(swap, sample=10)
    # a permutation moves measure around, so enough samples find a violation
    ok_exact, _ = is_isometry(swap)
    ok_sampled, _ = is_isometry(swap, sample=200, seed=1)
    assert ok_sampled == ok_exact
    ident = generate.identity_linmap(A)
    assert is_isometry(ident, sample=50, seed=1) == (True, None)
    assert is_separating(ident, sample=50, seed=1)[0]
    with pytest.raises(SeedRequired):
        is_separating(ident, sample=10)


def test_disjointness_additivity():
    A = full2(GF2, 3)
    zero = (0, 0, 0)
    f = (1, 0, 0)
    assert disjointness_additivity(A, f, zero)
    assert not disjointness_additivity(A, f, f)
    C3 = full2(GF3, 2)
    g = (1, 1)
    assert not disjointness_additivity(C3, g, g)
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(2, 4)
        C = generate.random_code(rng, rng.choice([2, 3]), n, rng.randint(1, min(3, n)))
        words = list(C.enumerate_codewords())
        for u in words:
            for v in words:
                disjointness_additivity(C, u, v)  # raises if the two sides disagree


def test_disjointness_additivity_raises_when_the_sides_disagree(monkeypatch):
    A = full2(GF2, 2)
    monkeypatch.setattr(A, "weight", lambda u: 1)
    # coz(1, 0) and coz(0, 1) are disjoint, but 1 != 1 + 1
    with pytest.raises(TheoremViolation):
        disjointness_additivity(A, (1, 0), (0, 1))


def test_monomial_linmap_rejects_an_image_outside_the_codomain():
    A = full2(GF2, 2)
    B = FunctionSpace(GF2, A.space, [[1, 1]])
    T = MonomialMap((0, 1), (1, 1))
    with pytest.raises(InvalidArgument) as info:
        generate.monomial_linmap(T, A, B)
    assert isinstance(info.value, ValueError)


def test_distance_preservation_equivalent_to_weight_preservation():
    rng = random.Random(27)
    field = generate.field_of_order(3)
    A = full2(field, 3)
    T = generate.random_monomial(rng, field, 3)
    H = generate.monomial_linmap(T, A, A)
    assert is_isometry(H)[0]
    words = list(A.enumerate_codewords())
    for u in words:
        for v in words:
            assert A.distance(u, v) == A.distance(H.apply(u), H.apply(v))


def test_compose_and_inverse_isometries():
    rng = random.Random(29)
    field = generate.field_of_order(2)
    A = full2(field, 4)
    T1 = generate.random_monomial(rng, field, 4)
    T2 = generate.random_monomial(rng, field, 4)
    H1 = generate.monomial_linmap(T1, A, A)
    H2 = generate.monomial_linmap(T2, A, A)
    assert is_isometry(H2.compose(H1))[0]
    assert is_isometry(H1.inverse())[0]
    ident = H1.compose(H1.inverse())
    assert ident.matrix == tuple(tuple(r) for r in linalg.identity(4))

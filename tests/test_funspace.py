import random
from fractions import Fraction

import pytest

from hamiso import generate
from hamiso.errors import EnumerationTooLarge, InvalidArgument, ZeroColumn, ZeroSpace
from hamiso.funspace import FunctionSpace, coz_ring, is_controllable
from hamiso.gf import field_new
from hamiso.space import PointSpace
from oracles import controllable_witness_check


GF2 = field_new(2)
GF3 = field_new(3)


def uspace(n):
    return PointSpace([f"x{i}" for i in range(n)])


def test_space_new_examples():
    A = FunctionSpace(GF2, uspace(3), [[1, 1, 0], [0, 1, 1]])
    assert A.k == 2 and A.n == 3

    B = FunctionSpace(GF2, uspace(2), [[1, 0]], normalize=True)
    assert B.n == 1 and B.k == 1 and B.space.labels == ("x0",)

    # over GF(3) the rows (1,2) and (2,1) are proportional: 2*(1,2) = (2,1)
    C = FunctionSpace(GF3, uspace(2), [[1, 2], [2, 1]])
    assert C.k == 1
    D = FunctionSpace(GF3, uspace(2), [[1, 2], [0, 1]])
    assert D.k == 2


def test_space_new_errors():
    with pytest.raises(ZeroColumn):
        FunctionSpace(GF2, uspace(2), [[1, 0]])
    with pytest.raises(ZeroSpace):
        FunctionSpace(GF2, uspace(2), [[0, 0]])


def test_evaluate():
    A = FunctionSpace(GF3, uspace(2), [[1, 2]])
    assert A.evaluate((0,), 0) == 0
    assert A.evaluate((1,), 1) == 2
    assert A.evaluate((2,), 1) == 1  # 2*2 = 4 = 1 mod 3


def test_coz_and_zero_set():
    A = FunctionSpace(GF2, uspace(3), [[1, 1, 0], [0, 0, 1]])
    assert A.coz((0, 0)).is_empty()
    assert A.zero_set((0, 0)).mask == 0b111
    assert A.coz((1, 0)).points() == ["x0", "x1"]
    # coz is scalar-invariant
    B = FunctionSpace(GF3, uspace(2), [[1, 2]])
    for u in B.enumerate_codewords():
        for c in GF3.nonzero():
            assert B.coz(u).mask == B.coz(B.codeword_scale(c, u)).mask


def test_weight_and_distance():
    sp = PointSpace(["a", "b", "c"], [Fraction(1, 2), 1, 2])
    A = FunctionSpace(GF2, sp, [[1, 0, 1], [0, 1, 0]])
    assert A.weight((0, 0)) == 0
    assert A.weight((1, 0)) == Fraction(5, 2)
    assert A.distance((1, 0), (1, 0)) == 0
    assert A.distance((1, 0), (0, 0)) == A.weight((1, 0))


def test_distance_equals_hamming_count_on_uniform():
    rng = random.Random(7)
    C = generate.random_code(rng, 2, 5, 3, uniform_measure=True)
    words = list(C.enumerate_codewords())
    for u in words:
        for v in words:
            count = sum(1 for a, b in zip(C.values(u), C.values(v)) if a != b)
            assert C.distance(u, v) == count


def test_enumerate_codewords():
    A = FunctionSpace(GF2, uspace(3), [[1, 1, 0], [0, 1, 1]])
    words = list(A.enumerate_codewords())
    assert len(words) == 4
    assert words[0] == (0, 0)
    B = FunctionSpace(GF3, uspace(2), [[1, 2], [0, 1]])
    vals = {B.values(u) for u in B.enumerate_codewords()}
    assert len(vals) == 9  # pairwise distinct by full rank
    with pytest.raises(EnumerationTooLarge):
        list(B.enumerate_codewords(max_enum=8))


def test_coz_ring_full_space():
    A = generate.full_space(GF2, 3)
    ring = coz_ring(A)
    assert set(ring.masks) == set(range(8))  # every subset incl. empty


def test_coz_ring_single_generator():
    A = FunctionSpace(GF2, uspace(2), [[1, 1]])
    ring = coz_ring(A)
    assert set(ring.masks) == {0b00, 0b11}


def test_coz_ring_closure_is_idempotent():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randint(2, 5)
        C = generate.random_code(rng, rng.choice([2, 3]), n, rng.randint(1, min(3, n)))
        ring = coz_ring(C)
        masks = set(ring.masks)
        for a in masks:
            for b in masks:
                assert a | b in masks and a & b in masks


def test_subadditivity_with_product_correction():
    rng = random.Random(11)
    for _ in range(5):
        n = rng.randint(2, 5)
        C = generate.random_code(rng, rng.choice([2, 3, 4]), n, rng.randint(1, min(3, n)))
        words = list(C.enumerate_codewords())
        for u in words:
            for v in words:
                prod_mask = C.coz(u).mask & C.coz(v).mask
                lhs = C.weight(C.codeword_add(u, v))
                rhs = C.weight(u) + C.weight(v) - C.space.measure_mask(prod_mask)
                assert lhs <= rhs


def test_controllable_full_space():
    ok, witness = is_controllable(generate.full_space(GF2, 3))
    assert ok and witness is None
    ok, _ = is_controllable(generate.full_space(GF3, 3))
    assert ok


def test_controllable_single_generator():
    A = FunctionSpace(GF2, uspace(2), [[1, 1]])
    ok, witness = is_controllable(A)
    assert ok and witness is None


def test_controllable_false_witness_fails_definition():
    rng = random.Random(5)
    found = 0
    for _ in range(30):
        n = rng.randint(3, 6)
        C = generate.random_code(rng, rng.choice([2, 3]), n, rng.randint(2, min(3, n)))
        ok, witness = is_controllable(C)
        if not ok:
            found += 1
            f, d1, d2 = witness
            ring = coz_ring(C)
            assert not controllable_witness_check(C, f, d1.mask, d2.mask, ring)
    assert found > 0  # random codes are rarely controllable


def test_controllable_matches_naive_u_scan():
    # the maximal-U shortcut must agree with scanning every U in the ring
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(2, 3)
        C = generate.random_code(rng, rng.choice([2, 3]), n, rng.randint(1, 2))
        ring = coz_ring(C)
        naive = all(
            controllable_witness_check(C, f, d1, d2, ring)
            for f in C.enumerate_codewords()
            for d1 in ring.masks
            for d2 in ring.masks
            if d1 & d2 == 0
        )
        assert is_controllable(C)[0] == naive


def test_random_code_rejects_dimension_above_length():
    with pytest.raises(InvalidArgument) as info:
        generate.random_code(random.Random(1), 2, 3, 4)
    assert isinstance(info.value, ValueError)

"""Seeded cross-checks of the structural cozero ring and controllability verdict
against the definitional oracles in oracles.py."""

import random

import pytest

from hamiso import funspace, generate, linalg
from hamiso.errors import EnumerationTooLarge, RingTooLarge
from hamiso.funspace import FunctionSpace, coz_ring, is_controllable
from hamiso.quotient import build_quotient
from hamiso.space import PointSet, PointSpace
from oracles import closure_ring, scan_controllable


def classed_code(rng, controllable):
    """A code over q in {2, 3, 4, 5}, n <= 7, whose classes repeat and scale columns.

    With controllable the k class columns are a basis of F^k; otherwise there
    are c > k classes (pairwise non-proportional columns spanning F^k).
    """
    F = generate.field_of_order(rng.choice([2, 3, 4, 5]))
    k = rng.randint(1 if controllable else 2, 3)
    points = (F.q**k - 1) // (F.q - 1)  # of the projective space, the most classes
    c = k if controllable else rng.randint(k + 1, min(k + 3, 6, points))
    while True:
        reps = [tuple(rng.randrange(F.q) for _ in range(k)) for _ in range(c)]
        keys = {lead_key(F, r) for r in reps}
        if len(keys) == c and None not in keys and linalg.rank(F, [list(r) for r in zip(*reps)]) == k:
            break
    cols = reps + [
        tuple(F.mul(s, x) for x in rng.choice(reps))
        for s in (rng.randrange(1, F.q) for _ in range(rng.randint(0, 7 - c)))
    ]
    rng.shuffle(cols)
    space = PointSpace([f"x{i}" for i in range(len(cols))])
    return FunctionSpace(F, space, [list(r) for r in zip(*cols)])


def lead_key(F, col):
    """col scaled to lead with 1, or None for the zero column."""
    lead = next((x for x in col if x), None)
    return None if lead is None else tuple(F.div(x, lead) for x in col)


@pytest.fixture(scope="module")
def codes():
    rng = random.Random(2015)
    return [classed_code(rng, controllable=i % 2 == 0) for i in range(80)]


def test_ring_is_the_closure(codes):
    for A in codes:
        assert coz_ring(A).masks == closure_ring(A)
        assert len(coz_ring(A)) == 2 ** build_quotient(A).num_classes()


def test_controllable_matches_scan(codes, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a positive verdict enumerated codewords or solved")

    positives = negatives = 0
    for A in codes:
        witness = scan_controllable(A)
        if witness is None:
            positives += 1
            with monkeypatch.context() as m:
                m.setattr(FunctionSpace, "enumerate_codewords", forbidden)
                m.setattr(funspace, "_constraint_feasible", forbidden)
                assert is_controllable(A) == (True, None)
        else:
            negatives += 1
            f, d1, d2 = witness
            assert is_controllable(A) == (False, (f, PointSet(A.space, d1), PointSet(A.space, d2)))
    assert positives == negatives == 40


def test_controllable_iff_k_classes(codes):
    for A in codes:
        assert is_controllable(A)[0] == (build_quotient(A).num_classes() == A.k)


def test_ring_guard_fires_iff_closure_fires(codes):
    for A in codes:
        c = build_quotient(A).num_classes()
        for max_ring in sorted({1, 2, 3, 2**c - 1, 2**c}):
            try:
                closure_ring(A, max_ring)
                expect = None
            except RingTooLarge as exc:
                expect = str(exc)
            assert (expect is not None) == (c > A.k and 2**c > max_ring)
            for call in (coz_ring, is_controllable):
                if expect is None:
                    call(A, max_ring=max_ring)
                else:
                    with pytest.raises(RingTooLarge) as info:
                        call(A, max_ring=max_ring)
                    assert str(info.value) == expect


def test_ring_guard_silent_when_k_classes():
    # every union of classes is already a cozero set, so the closure adds nothing
    A = generate.full_space(generate.field_of_order(2), 4)
    assert len(coz_ring(A, max_ring=3)) == 16
    assert is_controllable(A, max_ring=3) == (True, None)


def test_enumeration_guard_comes_first():
    F = generate.field_of_order(3)
    # k = 2, c = 4 classes: both guards would fire, the enumeration one wins
    A = FunctionSpace(F, PointSpace(["a", "b", "c", "d"]), [[1, 0, 1, 1], [0, 1, 1, 2]])
    assert build_quotient(A).num_classes() == 4
    for call in (coz_ring, is_controllable):
        with pytest.raises(EnumerationTooLarge):
            call(A, max_enum=8, max_ring=1)
        with pytest.raises(RingTooLarge):
            call(A, max_enum=9, max_ring=1)
    with pytest.raises(EnumerationTooLarge):
        is_controllable(generate.full_space(F, 2), max_enum=8)

from fractions import Fraction

import pytest

from hamiso.errors import InvalidArgument, SpaceMismatch
from hamiso.space import PointSet, PointSpace, measure


@pytest.fixture
def abc():
    return PointSpace(["a", "b", "c"], [Fraction(1, 2), 1, 2])


def test_measure_examples(abc):
    uniform = PointSpace(["a", "b", "c"])
    assert measure(uniform, uniform.subset(["a", "c"])) == 2
    assert measure(uniform, uniform.empty_set()) == 0
    assert measure(abc, abc.subset(["a", "c"])) == Fraction(5, 2)


def test_set_ops(abc):
    a = abc.subset(["a"])
    b = abc.subset(["b"])
    assert a.union(b).points() == ["a", "b"]
    assert a.intersection(b).is_empty()
    assert a.complement().points() == ["b", "c"]
    assert abc.full_set().difference(a).points() == ["b", "c"]
    assert a.is_subset(abc.full_set())
    assert a.is_disjoint(b)
    assert "a" in a and "b" not in a


def test_space_mismatch(abc):
    other = PointSpace(["a", "b", "c"])  # different measures
    with pytest.raises(SpaceMismatch):
        abc.subset(["a"]).union(other.subset(["b"]))


def test_additivity_and_positivity(abc):
    full = abc.full_set()
    for m1 in range(8):
        for m2 in range(8):
            if m1 & m2 == 0:
                s, t = abc.subset([i for i in range(3) if m1 >> i & 1]), abc.subset(
                    [i for i in range(3) if m2 >> i & 1]
                )
                assert measure(abc, s.union(t)) == measure(abc, s) + measure(abc, t)
    for m in range(1, 8):
        s = abc.subset([i for i in range(3) if m >> i & 1])
        assert measure(abc, s) > 0
    assert measure(abc, full) == Fraction(7, 2)


def test_invalid_spaces():
    with pytest.raises(ValueError):
        PointSpace([])
    with pytest.raises(ValueError):
        PointSpace(["a", "a"])
    with pytest.raises(ValueError):
        PointSpace(["a"], [0])
    with pytest.raises(ValueError):
        PointSpace(["a"], [Fraction(-1, 2)])


def test_point_set_rejects_a_bitmask_wider_than_its_space(abc):
    for mask in (8, -1):
        with pytest.raises(InvalidArgument) as info:
            PointSet(abc, mask)
        assert isinstance(info.value, ValueError)


def test_json():
    s = PointSpace(["a", "b"], [1, Fraction(1, 2)])
    assert s.to_json() == {"labels": ["a", "b"], "measures": [1, "1/2"]}

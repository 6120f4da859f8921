"""Finite measured point spaces and bitmask subsets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgument, SchemaViolation, SpaceMismatch, UnknownPoint


class PointSpace:
    """An ordered finite set of labelled points with strictly positive rational measure."""

    def __init__(self, labels, measures=None):
        labels = list(labels)
        if not labels:
            raise SchemaViolation("a point space needs at least one point")
        if any(isinstance(lab, (list, dict)) for lab in labels):
            raise SchemaViolation("point labels must be strings or numbers")
        if len(set(labels)) != len(labels):
            raise SchemaViolation("point labels must be pairwise distinct")
        if measures is None:
            measures = [Fraction(1)] * len(labels)
        measures = [Fraction(mu) for mu in measures]
        if len(measures) != len(labels):
            raise SchemaViolation(f"{len(measures)} measures given for {len(labels)} points")
        if any(mu <= 0 for mu in measures):
            raise SchemaViolation("measures must be strictly positive")
        self.labels = tuple(labels)
        self.measures = tuple(measures)
        self.n = len(labels)
        self._label_index = {lab: i for i, lab in enumerate(labels)}

    def index_of(self, label) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownPoint(f"unknown point {label!r}") from None

    def subset(self, points) -> "PointSet":
        """Build a PointSet from an iterable of labels or indices."""
        mask = 0
        for pt in points:
            i = pt if isinstance(pt, int) else self.index_of(pt)
            if not 0 <= i < self.n:
                raise UnknownPoint(f"point index {i} out of range")
            mask |= 1 << i
        return PointSet(self, mask)

    def full_set(self) -> "PointSet":
        return PointSet(self, (1 << self.n) - 1)

    def empty_set(self) -> "PointSet":
        return PointSet(self, 0)

    def is_uniform(self) -> bool:
        return all(mu == self.measures[0] for mu in self.measures)

    def measure_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        i = 0
        while mask:
            if mask & 1:
                total += self.measures[i]
            mask >>= 1
            i += 1
        return total

    def __eq__(self, other):
        return (
            isinstance(other, PointSpace)
            and self.labels == other.labels
            and self.measures == other.measures
        )

    def __hash__(self):
        return hash((self.labels, self.measures))

    def __repr__(self):
        return f"PointSpace({list(self.labels)})"

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "measures": [str(mu) if mu.denominator != 1 else mu.numerator for mu in self.measures],
        }


@dataclass(frozen=True)
class PointSet:
    """A subset of a PointSpace, stored as a bitmask over point indices."""

    space: PointSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.space.n):
            raise InvalidArgument("bitmask wider than the point space")

    def _check(self, other: "PointSet"):
        if self.space != other.space:
            raise SpaceMismatch("point sets over different spaces")

    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.space, self.mask | other.mask)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.space, self.mask & other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.space, ((1 << self.space.n) - 1) ^ self.mask)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.space, self.mask & ~other.mask)

    def is_subset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def is_disjoint(self, other: "PointSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def size(self) -> int:
        return bin(self.mask).count("1")

    def indices(self) -> list[int]:
        return [i for i in range(self.space.n) if self.mask >> i & 1]

    def points(self) -> list:
        return [self.space.labels[i] for i in self.indices()]

    def __contains__(self, label) -> bool:
        return self.mask >> self.space.index_of(label) & 1 == 1

    def __repr__(self):
        return "{" + ", ".join(str(p) for p in self.points()) + "}"


def measure(space: PointSpace, s: PointSet) -> Fraction:
    if s.space != space:
        raise SpaceMismatch("set belongs to a different space")
    return space.measure_mask(s.mask)

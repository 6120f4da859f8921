"""Seeded generators for small test instances (codes, monomial maps)."""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .errors import InvalidArgument
from .funspace import FunctionSpace
from .gf import Field, field_new
from .linmap import LinMap
from .macwilliams import MonomialMap
from .space import PointSpace


FIELD_ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


def field_of_order(q: int) -> Field:
    p, m = FIELD_ORDERS[q]
    return field_new(p, m)


def random_measures(rng: random.Random, n: int, uniform: bool = False):
    if uniform:
        return [Fraction(1)] * n
    return [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]


def point_space(n: int, measures=None) -> PointSpace:
    return PointSpace([f"x{i}" for i in range(n)], measures)


def full_space(field: Field, n: int, measures=None) -> FunctionSpace:
    return FunctionSpace(field, point_space(n, measures), linalg.identity(n))


def random_code(
    rng: random.Random,
    q: int,
    n: int,
    k: int,
    uniform_measure: bool = False,
) -> FunctionSpace:
    """A k-dimensional length-n code with no zero column, random positive measure."""
    if k > n:
        raise InvalidArgument(f"dimension {k} cannot exceed length {n}")
    field = field_of_order(q)
    space = point_space(n, random_measures(rng, n, uniform_measure))
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if linalg.rank(field, rows) != k:
            continue
        if any(all(row[j] == 0 for row in rows) for j in range(n)):
            continue
        return FunctionSpace(field, space, rows)


def random_monomial(rng: random.Random, field: Field, n: int) -> MonomialMap:
    sigma = list(range(n))
    rng.shuffle(sigma)
    w = tuple(rng.choice(field.nonzero()) for _ in range(n))
    return MonomialMap(tuple(sigma), w)


def monomial_linmap(T: MonomialMap, A: FunctionSpace, B: FunctionSpace) -> LinMap:
    """The map f -> T(values of f) as a LinMap A -> B.

    Requires T to carry every value vector of A into the row space of B.
    """
    field = A.field
    matrix = []
    for row in A.gen:
        img = list(T.apply(field, row))
        coords = _coordinates(field, B, img)
        matrix.append(coords)
    return LinMap(A, B, matrix)


def _coordinates(field, B: FunctionSpace, vec):
    coords = linalg.solve(field, [B.column(j) for j in range(B.n)], vec)
    if coords is None:
        raise InvalidArgument("image vector is not in the codomain")
    return coords


def scaling_linmap(A: FunctionSpace, c: int) -> LinMap:
    k = A.k
    m = [[A.field.mul(c, v) for v in row] for row in linalg.identity(k)]
    return LinMap(A, A, m)


def identity_linmap(A: FunctionSpace) -> LinMap:
    return LinMap(A, A, linalg.identity(A.k))

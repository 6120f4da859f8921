"""Linear subspaces of F^X over a measured point space.

A FunctionSpace holds a canonical (reduced row-echelon) generator matrix;
codewords are coefficient tuples u, the function being f = u . gen.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import linalg
from .errors import (
    EnumerationTooLarge,
    RingTooLarge,
    SchemaViolation,
    TheoremViolation,
    WidthMismatch,
    ZeroColumn,
    ZeroSpace,
)
from .gf import Field
from .space import PointSet, PointSpace

DEFAULT_MAX_ENUM = 2**20
DEFAULT_MAX_RING = 2**16


def field_rows(field: Field, rows) -> list[list[int]]:
    """rows as lists, or SchemaViolation unless every entry is an int in [0, q)."""
    try:
        rows = [list(r) for r in rows]
    except TypeError:
        raise SchemaViolation("rows must be a list of lists of field elements") from None
    for r in rows:
        if any(type(c) is not int or not 0 <= c < field.q for c in r):
            raise SchemaViolation(f"row entries must be field element indices in [0, {field.q})")
    return rows


class FunctionSpace:
    """A k-dimensional subspace of F^X satisfying the no-zero-column condition."""

    def __init__(self, field: Field, space: PointSpace, rows, normalize: bool = False):
        rows = field_rows(field, rows)
        for r in rows:
            if len(r) != space.n:
                raise WidthMismatch(f"row width {len(r)} != {space.n} points")
        gen = linalg.rref(field, rows)
        if not gen:
            raise ZeroSpace("all generator rows are zero")
        zero_cols = [j for j in range(space.n) if all(row[j] == 0 for row in gen)]
        if zero_cols:
            if not normalize:
                raise ZeroColumn(
                    f"columns {zero_cols} are identically zero; "
                    "pass normalize=True to restrict to the support"
                )
            keep = [j for j in range(space.n) if j not in zero_cols]
            space = PointSpace(
                [space.labels[j] for j in keep], [space.measures[j] for j in keep]
            )
            gen = linalg.rref(field, [[row[j] for j in keep] for row in gen])
        self.field = field
        self.space = space
        self.gen = tuple(tuple(row) for row in gen)
        self.k = len(gen)
        self.n = space.n

    # -- codewords -------------------------------------------------------

    def column(self, x: int) -> tuple:
        return tuple(row[x] for row in self.gen)

    def evaluate(self, u, x) -> int:
        i = x if isinstance(x, int) else self.space.index_of(x)
        return linalg.dot(self.field, u, self.column(i))

    def values(self, u) -> tuple:
        """Pointwise values of u . gen across the whole space."""
        return tuple(linalg.vec_mat(self.field, u, self.gen))

    def coz(self, u) -> PointSet:
        vals = self.values(u)
        mask = 0
        for i, v in enumerate(vals):
            if v != 0:
                mask |= 1 << i
        return PointSet(self.space, mask)

    def zero_set(self, u) -> PointSet:
        return self.coz(u).complement()

    def weight(self, u) -> Fraction:
        return self.space.measure_mask(self.coz(u).mask)

    def distance(self, u, v) -> Fraction:
        diff = tuple(self.field.sub(a, b) for a, b in zip(u, v))
        return self.weight(diff)

    def num_codewords(self) -> int:
        return self.field.q**self.k

    def check_enum(self, max_enum: int = DEFAULT_MAX_ENUM) -> int:
        """q^k, or EnumerationTooLarge when it exceeds max_enum."""
        total = self.num_codewords()
        if total > max_enum:
            raise EnumerationTooLarge(f"{total} codewords exceeds the bound {max_enum}")
        return total

    def enumerate_codewords(self, max_enum: int = DEFAULT_MAX_ENUM) -> Iterator[tuple]:
        """All q^k coefficient tuples, ordered by packed index (u[0] least significant)."""
        total = self.check_enum(max_enum)
        q = self.field.q
        for idx in range(total):
            u = []
            rem = idx
            for _ in range(self.k):
                u.append(rem % q)
                rem //= q
            yield tuple(u)

    def codeword_add(self, u, v) -> tuple:
        return tuple(self.field.add(a, b) for a, b in zip(u, v))

    def codeword_scale(self, c: int, u) -> tuple:
        return tuple(self.field.mul(c, a) for a in u)

    # -- linear systems on values ---------------------------------------

    def solve_values(self, constraints) -> list[int] | None:
        """A coefficient vector u with (u.gen)(x) = v for every (x, v), or None."""
        a_rows = [self.column(x) for x, _ in constraints]
        b = [v for _, v in constraints]
        if not a_rows:
            return [0] * self.k
        return linalg.solve(self.field, a_rows, b)

    def vanishing_basis(self, mask: int) -> list[list[int]]:
        """Basis of {u : u.gen vanishes on every point of mask}."""
        rows = [self.column(i) for i in range(self.n) if mask >> i & 1]
        if not rows:
            return linalg.identity(self.k)
        return linalg.nullspace(self.field, rows)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionSpace)
            and self.field == other.field
            and self.space == other.space
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash((self.field, self.space, self.gen))

    def __repr__(self):
        return f"FunctionSpace(k={self.k}, n={self.n}, {self.field!r})"


class CozRing:
    """The ring generated by {coz(f) : f in A} under finite unions and intersections."""

    def __init__(self, funspace: FunctionSpace, masks):
        self.funspace = funspace
        self.masks = tuple(sorted(masks))

    def __len__(self):
        return len(self.masks)


def _class_masks(A: FunctionSpace, max_enum: int, max_ring: int) -> list[int]:
    """A's point classes as bitmasks, behind the guards the ring closure had.

    EnumerationTooLarge when q^k > max_enum; then RingTooLarge iff there are
    c > k classes and 2^c > max_ring, since the closure added sets to the
    cozero sets only when c > k (see is_controllable) and raised once past
    max_ring.
    """
    from .quotient import build_quotient  # quotient imports this module

    A.check_enum(max_enum)
    Q = build_quotient(A)
    c = Q.num_classes()
    if c > A.k and 2**c > max_ring:
        raise RingTooLarge(f"ring closure exceeds the bound {max_ring}")
    return [Q.class_mask(cid) for cid in range(c)]


def coz_ring(
    A: FunctionSpace,
    max_enum: int = DEFAULT_MAX_ENUM,
    max_ring: int = DEFAULT_MAX_RING,
) -> CozRing:
    """The ring generated by the cozero sets: the 2^c unions of point classes.

    Every cozero set is saturated (f(x) = lam * f(rep) on rep's class) and
    coz(0) is empty, so the ring holds only unions of classes.  Conversely,
    for unrelated points x and y, quotient.separating_witness gives a
    codeword nonzero at x and zero at y, and some generator row is nonzero
    at x, so the cozero sets containing x intersect to exactly x's class:
    the ring holds every class, hence every union of classes.
    """
    members = [0]
    for m in _class_masks(A, max_enum, max_ring):
        members += [x | m for x in members]
    return CozRing(A, members)


def _constraint_feasible(A: FunctionSpace, d1_mask: int, zero_mask: int, fvals: tuple) -> bool:
    """Is there f' in A with f' = fvals on d1_mask and f' = 0 on zero_mask?"""
    constraints = []
    j = 0
    for i in range(A.n):
        if d1_mask >> i & 1:
            constraints.append((i, fvals[j]))
            j += 1
    for i in range(A.n):
        if zero_mask >> i & 1 and not d1_mask >> i & 1:
            constraints.append((i, 0))
    return A.solve_values(constraints) is not None


def is_controllable(
    A: FunctionSpace,
    max_enum: int = DEFAULT_MAX_ENUM,
    max_ring: int = DEFAULT_MAX_RING,
):
    """Controllability: (True, None) iff A has exactly k point classes.

    Otherwise (False, (f, D1, D2)) with the least failing witness in
    (codeword, ring, ring) enumeration order.  With c the number of classes:

    - c == k: the class representatives' columns form a basis of F^k, so
      for every codeword f and union of classes S some codeword equals f on
      S and 0 off S.  Taking U = X \\ D2 and that codeword for S = D1
      satisfies every (f, D1, D2).
    - c > k: take D1 = S and D2 = X \\ S for a union of classes S.  Then U
      must equal S, so f * 1_S would lie in A for every f and S: the image
      of A in F^c (values at the representatives) would be closed under
      every coordinate restriction.  As no column is zero that image
      contains a multiple of each unit vector, so it is all of F^c and
      c = k, a contradiction.

    A negative answer therefore scans for its witness.  Feasibility only
    improves as U grows, so U is taken as the largest ring member disjoint
    from D2, which is X \\ D2 because D2 is saturated.
    """
    c = len(_class_masks(A, max_enum, max_ring))
    if c == A.k:
        return True, None
    ring = coz_ring(A, max_enum, max_ring)
    cache: dict[tuple, bool] = {}
    for f in A.enumerate_codewords(max_enum):
        vals = A.values(f)
        zf = A.zero_set(f).mask
        for d1 in ring.masks:
            fvals = tuple(v for i, v in enumerate(vals) if d1 >> i & 1)
            for d2 in ring.masks:
                if d1 & d2:
                    continue
                zero_mask = zf | d2
                key = (d1, zero_mask, fvals)
                ok = cache.get(key)
                if ok is None:
                    ok = _constraint_feasible(A, d1, zero_mask, fvals)
                    cache[key] = ok
                if not ok:
                    return False, (
                        f,
                        PointSet(A.space, d1),
                        PointSet(A.space, d2),
                    )
    raise TheoremViolation(f"{c} classes > k = {A.k}, yet no failing witness")

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
    WidthMismatch,
    ZeroColumn,
    ZeroSpace,
)
from .gf import Field
from .space import PointSet, PointSpace

DEFAULT_MAX_ENUM = 2**20
DEFAULT_MAX_RING = 2**16


class FunctionSpace:
    """A k-dimensional subspace of F^X satisfying the no-zero-column condition."""

    def __init__(self, field: Field, space: PointSpace, rows, normalize: bool = False):
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != space.n:
                raise WidthMismatch(f"row width {len(r)} != {space.n} points")
            if any(not 0 <= c < field.q for c in r):
                raise ValueError("row entries must be field element indices")
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
        return tuple(linalg.vec_mat(self.field, list(u), [list(r) for r in self.gen]))

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
        a_rows = [list(self.column(x)) for x, _ in constraints]
        b = [v for _, v in constraints]
        if not a_rows:
            return [0] * self.k
        return linalg.solve(self.field, a_rows, b)

    def vanishing_basis(self, mask: int) -> list[list[int]]:
        """Basis of {u : u.gen vanishes on every point of mask}."""
        rows = [list(self.column(i)) for i in range(self.n) if mask >> i & 1]
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


def space_new(field, space, rows, normalize: bool = False) -> FunctionSpace:
    return FunctionSpace(field, space, rows, normalize=normalize)


class CozRing:
    """The closure of {coz(f) : f in A} under finite unions and intersections."""

    def __init__(self, funspace: FunctionSpace, masks):
        self.funspace = funspace
        self.masks = tuple(sorted(masks))

    def members(self) -> list[PointSet]:
        return [PointSet(self.funspace.space, m) for m in self.masks]

    def __contains__(self, item) -> bool:
        mask = item.mask if isinstance(item, PointSet) else item
        return mask in set(self.masks)

    def __len__(self):
        return len(self.masks)


def coz_ring(
    A: FunctionSpace,
    max_enum: int = DEFAULT_MAX_ENUM,
    max_ring: int = DEFAULT_MAX_RING,
) -> CozRing:
    """Fixpoint closure of the cozero sets under pairwise union and intersection."""
    gens = {A.coz(u).mask for u in A.enumerate_codewords(max_enum)}
    members = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for a in frontier:
            for b in members.copy():
                for c in (a | b, a & b):
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
                        if len(members) > max_ring:
                            raise RingTooLarge(
                                f"ring closure exceeds the bound {max_ring}"
                            )
        frontier = fresh
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


def controllable_witness_check(
    A: FunctionSpace,
    f: tuple,
    d1_mask: int,
    d2_mask: int,
    ring: CozRing | None = None,
    max_enum: int = DEFAULT_MAX_ENUM,
    max_ring: int = DEFAULT_MAX_RING,
) -> bool:
    """Definitional oracle: scan every U in the ring with D1 <= U <= X \\ D2.

    Returns True when some U admits f' matching f on D1 and vanishing on
    Z(f) and outside U.  A False return certifies a controllability failure
    at (f, D1, D2).
    """
    if ring is None:
        ring = coz_ring(A, max_enum, max_ring)
    full = (1 << A.n) - 1
    zf = A.zero_set(f).mask
    fvals = tuple(v for i, v in enumerate(A.values(f)) if d1_mask >> i & 1)
    allowed = full & ~d2_mask
    for u_mask in ring.masks:
        if d1_mask & ~u_mask or u_mask & ~allowed:
            continue
        if _constraint_feasible(A, d1_mask, zf | (full & ~u_mask), fvals):
            return True
    return False


def is_controllable(
    A: FunctionSpace,
    max_enum: int = DEFAULT_MAX_ENUM,
    max_ring: int = DEFAULT_MAX_RING,
):
    """Exhaustive controllability test.

    Returns (True, None) or (False, (f, D1, D2)) with the least failing
    witness in (codeword, ring, ring) enumeration order.  The search over U
    collapses to the single maximal candidate: the ring is closed under
    unions, and feasibility only improves as U grows, so U may be taken to
    be the union of every ring member disjoint from D2.
    """
    ring = coz_ring(A, max_enum, max_ring)
    full = (1 << A.n) - 1
    # maximal admissible U per D2; D1 <= U holds automatically since D1 is
    # itself a ring member disjoint from D2
    max_u = {}
    for d2 in ring.masks:
        acc = 0
        for d in ring.masks:
            if d & d2 == 0:
                acc |= d
        max_u[d2] = acc
    cache: dict[tuple, bool] = {}
    for f in A.enumerate_codewords(max_enum):
        vals = A.values(f)
        zf = A.zero_set(f).mask
        for d1 in ring.masks:
            fvals = tuple(v for i, v in enumerate(vals) if d1 >> i & 1)
            for d2 in ring.masks:
                if d1 & d2:
                    continue
                zero_mask = zf | (full & ~max_u[d2])
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
    return True, None

"""The point equivalence relation, its scaling scalars, and the quotient space.

Two points are related when no codeword vanishes at exactly one of them;
on a finite space with no zero generator column this is the same as the
generator columns being proportional by a nonzero scalar.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import NotRelated, PointsRelated
from .funspace import DEFAULT_MAX_ENUM, FunctionSpace
from .space import PointSet


def related(A: FunctionSpace, x1, x2, max_enum: int = DEFAULT_MAX_ENUM) -> bool:
    """Definitional check by full codeword enumeration (test oracle)."""
    i1 = x1 if isinstance(x1, int) else A.space.index_of(x1)
    i2 = x2 if isinstance(x2, int) else A.space.index_of(x2)
    if i1 == i2:
        return True
    for u in A.enumerate_codewords(max_enum):
        v1 = A.evaluate(u, i1)
        v2 = A.evaluate(u, i2)
        if A.field.mul(v1, v2) == 0 and (v1 != 0 or v2 != 0):
            return False
    return True


def projective_key(field, vec) -> tuple:
    """(vec / lead, lead) with lead the first nonzero entry of vec.

    Two nonzero vectors are proportional iff their keys agree, and then
    v1 = (lead1 / lead2) * v2.  The zero vector keys to itself with lead 0.
    """
    for lead in vec:
        if lead:
            inv = field.inv(lead)
            return tuple(field.mul(inv, c) for c in vec), lead
    return tuple(vec), 0


def related_fast(A: FunctionSpace, x1, x2) -> bool:
    """Production path: generator columns are proportional by a nonzero scalar."""
    i1 = x1 if isinstance(x1, int) else A.space.index_of(x1)
    i2 = x2 if isinstance(x2, int) else A.space.index_of(x2)
    return len({projective_key(A.field, A.column(i))[0] for i in (i1, i2)}) == 1


@dataclass(frozen=True)
class Quotient:
    """Partition of the points into proportionality classes.

    lambda_to_rep[x] is the scalar with f(x) = lambda_to_rep[x] * f(rep)
    for every codeword f, rep being the least-index member of x's class;
    class_of_key maps the projective key of each class's columns to its id.
    """

    funspace: FunctionSpace
    classes: tuple  # tuple of tuples of point indices, each sorted ascending
    class_of: tuple  # point index -> class id
    lambda_to_rep: tuple  # point index -> scalar relating x to its class rep
    class_of_key: dict = dataclasses.field(compare=False, repr=False)

    def rep(self, class_id: int) -> int:
        return self.classes[class_id][0]

    def num_classes(self) -> int:
        return len(self.classes)

    def class_mask(self, class_id: int) -> int:
        return sum(1 << i for i in self.classes[class_id])


def build_quotient(A: FunctionSpace) -> Quotient:
    """One pass over the columns, grouping them by projective key: O(n k)."""
    field = A.field
    class_of_key: dict = {}
    classes, class_of, lam, rep_lead = [], [], [], []
    for i, col in enumerate(zip(*A.gen)):
        key, lead = projective_key(field, col)
        cid = class_of_key.setdefault(key, len(classes))
        if cid == len(classes):
            classes.append([])
            rep_lead.append(lead)
        classes[cid].append(i)
        class_of.append(cid)
        lam.append(field.div(lead, rep_lead[cid]))
    return Quotient(A, tuple(map(tuple, classes)), tuple(class_of), tuple(lam), class_of_key)


def lambda_scalar(Q: Quotient, x1, x2) -> int:
    """The unique nonzero scalar with f(x1) = lam * f(x2) for all codewords."""
    A = Q.funspace
    i1 = x1 if isinstance(x1, int) else A.space.index_of(x1)
    i2 = x2 if isinstance(x2, int) else A.space.index_of(x2)
    if Q.class_of[i1] != Q.class_of[i2]:
        raise NotRelated(f"points {x1!r} and {x2!r} lie in different classes")
    return A.field.div(Q.lambda_to_rep[i1], Q.lambda_to_rep[i2])


def separating_witness(A: FunctionSpace, x1, x2) -> tuple:
    """A codeword nonzero at x1 and zero at x2; exists iff the points are unrelated."""
    i1 = x1 if isinstance(x1, int) else A.space.index_of(x1)
    i2 = x2 if isinstance(x2, int) else A.space.index_of(x2)
    if related_fast(A, i1, i2):
        raise PointsRelated(f"points {x1!r} and {x2!r} are related")
    for u in A.vanishing_basis(1 << i2):
        if A.evaluate(u, i1) != 0:
            return tuple(u)
    raise PointsRelated("no separating codeword found")  # unreachable for unrelated points


def is_saturated(Q: Quotient, s: PointSet) -> bool:
    """A set is saturated when it is a union of whole classes."""
    return all(len({s.mask >> i & 1 for i in cls}) == 1 for cls in Q.classes)

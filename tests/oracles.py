"""Definitional oracles for the cozero ring, controllability and monomial search.

The structural answers of hamiso.funspace are checked against these: the
fixpoint closure of the cozero sets under union and intersection, the
(codeword, D1, D2) scan whose maximal admissible U is found by a scan over
every pair of ring members, and the check of one witness against every U.
The closure and the scan enumerate all q^k codewords themselves.
hamiso.macwilliams.monomial_search is checked against the walk over all
n! (q-1)^n monomials.
"""

import itertools
from math import factorial

from hamiso import funspace, linalg
from hamiso.errors import RingTooLarge, SearchTooLarge
from hamiso.funspace import DEFAULT_MAX_ENUM, DEFAULT_MAX_RING, CozRing, FunctionSpace, coz_ring
from hamiso.macwilliams import DEFAULT_MAX_SEARCH, MonomialMap, _check_pair, weight_distribution


def cozero_masks(A):
    """coz(u) of every codeword u, packed-index order, evaluated column by column."""
    F, cols = A.field, list(zip(*A.gen))
    out = []
    for t in itertools.product(range(F.q), repeat=A.k):
        u = t[::-1]
        mask = 0
        for x, col in enumerate(cols):
            v = 0
            for a, c in zip(u, col):
                v = F.add(v, F.mul(a, c))
            if v:
                mask |= 1 << x
        out.append((u, mask))
    return out


def closure_ring(A, max_ring=DEFAULT_MAX_RING):
    """Fixpoint closure of the cozero sets under pairwise union and intersection."""
    gens = {mask for _, mask in cozero_masks(A)}
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
                            raise RingTooLarge(f"ring closure exceeds the bound {max_ring}")
        frontier = fresh
    return tuple(sorted(members))


def scan_controllable(A):
    """The least failing (f, D1, D2) in (codeword, ring, ring) order, or None.

    U is taken as the union of every ring member disjoint from D2, found by
    scanning all pairs of ring members.
    """
    ring = closure_ring(A)
    full = (1 << A.n) - 1
    max_u = {d2: 0 for d2 in ring}
    for d2 in ring:
        for d in ring:
            if d & d2 == 0:
                max_u[d2] |= d
    for f, coz in cozero_masks(A):
        vals = A.values(f)
        zf = full & ~coz
        for d1 in ring:
            fvals = tuple(v for i, v in enumerate(vals) if d1 >> i & 1)
            for d2 in ring:
                if d1 & d2:
                    continue
                if not funspace._constraint_feasible(A, d1, zf | (full & ~max_u[d2]), fvals):
                    return f, d1, d2
    return None


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
        if funspace._constraint_feasible(A, d1_mask, zf | (full & ~u_mask), fvals):
            return True
    return False


def brute_monomial_search(
    C1: FunctionSpace,
    C2: FunctionSpace,
    max_search: int = DEFAULT_MAX_SEARCH,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> MonomialMap | None:
    """First monomial T (lexicographic in sigma, then w) with T(C1) = C2.

    Returns None when the codes are not equivalent.  Tries every sigma in
    itertools.permutations order and every w in product(field.nonzero())
    order, with one rref per candidate.
    """
    _check_pair(C1, C2)
    n, q = C1.n, C1.field.q
    if factorial(n) * (q - 1) ** n > max_search:
        raise SearchTooLarge(f"{factorial(n)}*{(q - 1)**n} monomials exceed {max_search}")
    if C1.k != C2.k:
        return None
    if weight_distribution(C1, max_enum) != weight_distribution(C2, max_enum):
        return None
    field = C1.field
    target = C2.gen
    rows1 = [list(r) for r in C1.gen]
    for sigma in itertools.permutations(range(n)):
        permuted = [[row[sigma[j]] for j in range(n)] for row in rows1]
        for w in itertools.product(field.nonzero(), repeat=n):
            image = [[field.mul(row[j], w[j]) for j in range(n)] for row in permuted]
            if tuple(tuple(r) for r in linalg.rref(field, image)) == target:
                return MonomialMap(sigma, w)
    return None

"""Classical monomial equivalence over F^n with uniform measure.

Searches for monomial transformations and weight-preserving isomorphisms
between two codes, cross-validated against each other and against the
weighted-composition extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from . import linalg
from .decompose import Refutation, decompose, monomial_form
from .errors import (
    LengthMismatch,
    NotMonomial,
    SearchTooLarge,
    SpaceMismatch,
    TheoremViolation,
    ZeroFunctional,
)
from .funspace import DEFAULT_MAX_ENUM, FunctionSpace
from .linmap import LinMap, is_isometry

DEFAULT_MAX_SEARCH = 10**7


@dataclass(frozen=True)
class MonomialMap:
    """Permute-then-scale: (a_1..a_n) -> (a_sigma(1) w_1, .., a_sigma(n) w_n).

    sigma is 0-based: output coordinate j reads input coordinate sigma[j].
    """

    sigma: tuple
    w: tuple

    def apply(self, field, v) -> tuple:
        if len(v) != len(self.sigma):
            raise LengthMismatch(f"vector length {len(v)} != {len(self.sigma)}")
        return tuple(field.mul(v[self.sigma[j]], self.w[j]) for j in range(len(v)))


def monomial_apply(field, T: MonomialMap, v) -> tuple:
    return T.apply(field, v)


def _check_pair(C1: FunctionSpace, C2: FunctionSpace):
    if C1.field != C2.field:
        raise SpaceMismatch("codes over different fields")
    if C1.n != C2.n:
        raise SpaceMismatch("codes of different length")
    if not (C1.space.is_uniform() and C2.space.is_uniform()):
        raise SpaceMismatch("monomial equivalence assumes uniform measures")
    if C1.space.measures[0] != C2.space.measures[0]:
        raise SpaceMismatch("the two codes carry different uniform measures")


def weight_distribution(C: FunctionSpace, max_enum: int = DEFAULT_MAX_ENUM) -> tuple:
    dist = {}
    for u in C.enumerate_codewords(max_enum):
        wt = C.coz(u).size()
        dist[wt] = dist.get(wt, 0) + 1
    return tuple(sorted(dist.items()))


def _column_profiles(C: FunctionSpace, max_enum: int) -> list:
    """For each point x, the number of codewords of each weight nonzero at x."""
    prof = [[0] * (C.n + 1) for _ in range(C.n)]
    for u in C.enumerate_codewords(max_enum):
        support = [x for x, v in enumerate(C.values(u)) if v]
        for x in support:
            prof[x][len(support)] += 1
    return [tuple(p) for p in prof]


def monomial_search(
    C1: FunctionSpace,
    C2: FunctionSpace,
    max_search: int = DEFAULT_MAX_SEARCH,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> MonomialMap | None:
    """First monomial T (lexicographic in sigma, then w) with T(C1) = C2.

    Returns None when the codes are not equivalent.  The guard still
    counts all n! (q-1)^n monomials, but the search visits far fewer.

    Proof sketch.  Write g1_x and g2_j for the columns of C1.gen and of
    C2.gen, whose pivot columns are p_0 < .. < p_{k-1}.  T = (sigma, w)
    carries C1 onto C2 iff some invertible A has g2_j = w_j A g1_sigma(j)
    for every j.  At a pivot, g2_{p_i} = e_i, so u_i = g1_sigma(p_i) is
    sent to e_i / w_{p_i}: the u_i must be independent, and then they fix
    A = diag(1 / w_p) U^{-1}.  At any other j, g2_j[i] != 0 only where
    p_i < j, and the condition reads g1_sigma(j) = sum_i c_i u_i with
    c_i = g2_j[i] w_{p_i} / w_j: g1_sigma(j) lies in the span of the u_i
    already placed, its coordinates have the support of g2_j, and each
    ratio w_{p_i} / w_j = c_i / g2_j[i] is fixed.  Each condition speaks
    only of positions up to j, so a depth-first search over j = 0..n-1
    that tries the unused columns in increasing order, and drops a branch
    as soon as a condition fails, meets the lexicographically least sigma
    first.  The ratios tie the weights into groups that share one free
    scalar; choosing each group's scalar so that its first position gets
    weight 1 gives the least w.  One more necessary condition prunes
    before any of these: T sends a codeword nonzero at sigma(j) to one of
    the same weight nonzero at j, so column sigma(j) of C1 and column j of
    C2 have the same profile (the number of codewords of each weight
    nonzero there), and sigma(j) only ranges over such columns.  Equal
    profile multisets also give equal weight distributions: for w > 0 the
    number of weight-w codewords is the sum of the profiles' weight-w
    entries divided by w, and each code has one zero codeword.
    """
    _check_pair(C1, C2)
    n, q = C1.n, C1.field.q
    if factorial(n) * (q - 1) ** n > max_search:
        raise SearchTooLarge(f"{factorial(n)}*{(q - 1)**n} monomials exceed {max_search}")
    if C1.k != C2.k:
        return None
    prof1, prof2 = _column_profiles(C1, max_enum), _column_profiles(C2, max_enum)
    if sorted(prof1) != sorted(prof2):
        return None
    candidates = [[x for x in range(n) if prof1[x] == prof2[j]] for j in range(n)]
    field, k = C1.field, C1.k
    targets = [C2.column(j) for j in range(n)]
    pivot_of = {row.index(1): i for i, row in enumerate(C2.gen)}
    sigma = [0] * n
    used = [False] * n
    # ratio_at[j] = (i, h): w_j = h * w_{p_i} at a non-pivot position j
    ratio_at = [None] * n

    def place(j, table, ties):
        """The ties at the first complete sigma below this node, or None."""
        if j == n:
            return ties
        i = pivot_of.get(j)
        for x in candidates[j]:
            if used[x]:
                continue
            if i is not None:
                if not any(table[x][0]):
                    continue
                nxt, nties = _add_pivot(field, table, x, i), ties
            else:
                tied = _tie(field, ties, table[x], targets[j])
                if tied is None:
                    continue
                nxt = table
                nties, ratio_at[j] = tied
            used[x], sigma[j] = True, x
            found = place(j + 1, nxt, nties)
            if found is not None:
                return found
            used[x] = False
        return None

    # table[x] = (residual, coordinates): column x of C1 is the coordinates
    # applied to the pivot columns placed so far, plus the residual
    table = [(C1.column(x), (0,) * k) for x in range(n)]
    ties = place(0, table, tuple((i, 1) for i in range(k)))
    if ties is None:
        return None
    return MonomialMap(tuple(sigma), _least_weights(field, n, pivot_of, ratio_at, ties))


def _add_pivot(field, table, x, i) -> list:
    """table with column x of C1 placed as the i-th pivot column u_i.

    Its residual r, scaled to have 1 at its first nonzero entry, joins the
    basis; every residual is reduced by it, which keeps each residual zero
    at every basis lead, so a column lies in the span of the placed pivot
    columns iff its residual is zero.
    """
    r, a = table[x]
    lead = next(t for t, c in enumerate(r) if c)
    inv = field.inv(r[lead])
    b = [field.mul(inv, c) for c in r]
    # b = inv * (u_i - sum_t a_t u_t), in coordinates over the u's
    coef = [field.mul(inv, field.neg(c)) for c in a]
    coef[i] = field.add(coef[i], inv)
    out = []
    for res, co in table:
        c = res[lead]
        if c:
            res = tuple(field.sub(v, field.mul(c, bv)) for v, bv in zip(res, b))
            co = tuple(field.add(v, field.mul(c, cv)) for v, cv in zip(co, coef))
        out.append((res, co))
    return out


def _tie(field, ties, entry, g):
    """(ties, (i, h)) after placing a column with table entry `entry` at a
    non-pivot position whose target column is g, or None if it cannot go there.

    ties[i] = (root, f) says w_{p_i} = f * w_{p_root}, with root the least
    pivot index of its group.  The column must lie in the span of the
    placed pivot columns with coordinates c of the same support S as g;
    then w_{p_i} = (c_i / g_i) * w_j for every i in S, which ties the
    groups of S together, and (i, h) says w_j = h * w_{p_i}.
    """
    res, c = entry
    if any(res) or any((a == 0) != (b == 0) for a, b in zip(c, g)):
        return None
    support = [i for i, b in enumerate(g) if b]
    ratio = {i: field.div(c[i], g[i]) for i in support}
    i0 = support[0]
    ties = list(ties)
    for i in support[1:]:
        # w_{p_i} / w_{p_i0} must be ratio[i] / ratio[i0]
        want = field.div(ratio[i], ratio[i0])
        (ra, fa), (rb, fb) = ties[i], ties[i0]
        if ra == rb:
            if field.div(fa, fb) != want:
                return None
            continue
        # w_{p_ra} = s * w_{p_rb}; the group with the larger root joins the other
        s = field.div(field.mul(want, fb), fa)
        if ra < rb:
            ra, rb, s = rb, ra, field.inv(s)
        ties = [(rb, field.mul(f, s)) if r == ra else (r, f) for r, f in ties]
    return tuple(ties), (i0, field.inv(ratio[i0]))


def _least_weights(field, n, pivot_of, ratio_at, ties) -> tuple:
    """The least w in product(field.nonzero()) order that the ties allow.

    Each group's root is its least pivot index, so the group's first
    position is the root's pivot: a position tied at j comes after the
    pivots of its support.  Weight 1 there, the least element, fixes the
    rest of the group: w_{p_i} = f for ties[i] = (root, f).
    """
    w = []
    for j in range(n):
        i, h = (pivot_of[j], 1) if j in pivot_of else ratio_at[j]
        w.append(field.mul(h, ties[i][1]))
    return tuple(w)


def _isometry_matrix_count(q: int, k: int) -> int:
    total = 1
    for i in range(k):
        total *= q**k - q**i
    return total


def isometry_search(
    C1: FunctionSpace,
    C2: FunctionSpace,
    max_search: int = DEFAULT_MAX_SEARCH,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> LinMap | None:
    """First invertible coordinate-change matrix inducing a Hamming isometry.

    Rows are chosen depth-first in lexicographic order; a branch dies as
    soon as some codeword in the partial span violates weight preservation,
    which prunes inequivalent pairs quickly while still returning the
    lexicographically least isometry matrix.
    """
    _check_pair(C1, C2)
    if C1.k != C2.k:
        return None
    field = C1.field
    k, q = C1.k, field.q
    if _isometry_matrix_count(q, k) > max_search:
        raise SearchTooLarge("too many invertible matrices")
    wt1 = {}
    for u in C1.enumerate_codewords(max_enum):
        wt1[u] = C1.coz(u).size()
    candidates = list(itertools.product(range(q), repeat=k))
    rows: list[tuple] = []

    def extend(depth: int):
        if depth == k:
            return True
        for cand in candidates:
            rows.append(cand)
            if linalg.rank(field, rows) == depth + 1 and _partial_ok(depth):
                if extend(depth + 1):
                    return True
            rows.pop()
        return False

    def _partial_ok(depth: int) -> bool:
        # codewords newly determined at this depth: coefficient vectors
        # supported on rows 0..depth with a nonzero last coefficient
        for head in itertools.product(range(q), repeat=depth):
            for last in range(1, q):
                u = head + (last,)
                img = [0] * k
                for c, row in zip(u, rows):
                    if c:
                        for j in range(k):
                            img[j] = field.add(img[j], field.mul(c, row[j]))
                u_full = u + (0,) * (k - depth - 1)
                if C2.coz(tuple(img)).size() != wt1[u_full]:
                    return False
        return True

    if extend(0):
        return LinMap(C1, C2, rows)
    return None


def equivalence_decide(
    C1: FunctionSpace,
    C2: FunctionSpace,
    max_search: int = DEFAULT_MAX_SEARCH,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> dict:
    """Run both searches, check that they agree, and round-trip the isometry.

    Their agreement is the classical equivalence theorem; a disagreement,
    or a found matrix that is not an isometry, raises TheoremViolation
    and indicates a bug.
    """
    monomial = monomial_search(C1, C2, max_search, max_enum)
    isom = isometry_search(C1, C2, max_search, max_enum)
    if (monomial is None) != (isom is None):
        raise TheoremViolation(
            f"monomial search {'succeeded' if monomial else 'failed'} but "
            f"isometry search {'succeeded' if isom else 'failed'}"
        )
    roundtrip = None
    if isom is not None:
        ok, _ = is_isometry(isom, max_enum)
        if not ok:
            raise TheoremViolation("isometry search returned a non-isometry")
        roundtrip = _decompose_roundtrip(C1, C2, isom, max_enum)
    return {
        "equivalent": monomial is not None,
        "monomial": monomial,
        "isometry": isom,
        "decompose_roundtrip": roundtrip,
    }


def _decompose_roundtrip(C1, C2, isom: LinMap, max_enum: int):
    """Decompose the found isometry; on monomial-formable instances check
    that the recovered transformation carries C1 onto C2.  None when the
    preconditions for a classical monomial form are unmet."""
    try:
        D = decompose(isom)
    except ZeroFunctional:
        return None
    if isinstance(D, Refutation):
        return False
    try:
        sigma_img, w = monomial_form(D, isom)
    except NotMonomial:
        return None
    # monomial_form maps codomain coordinate j to domain coordinate
    # sigma_img[j]; as a map on vectors this is exactly the MonomialMap shape
    T = MonomialMap(tuple(sigma_img), tuple(w))
    field = C1.field
    image = [list(T.apply(field, row)) for row in C1.gen]
    return tuple(tuple(r) for r in linalg.rref(field, image)) == C2.gen

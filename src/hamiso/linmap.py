"""Linear maps between function spaces with isometry and separation predicates."""

from __future__ import annotations

import random

from . import linalg
from .errors import FieldMismatch, SeedRequired, SpaceMismatch, TheoremViolation, ZeroFunctional
from .funspace import DEFAULT_MAX_ENUM, FunctionSpace, field_rows
from .quotient import projective_key


class LinMap:
    """H: A -> B, row i of the matrix giving the coordinates of H(basis row i)."""

    def __init__(self, domain: FunctionSpace, codomain: FunctionSpace, matrix):
        if domain.field != codomain.field:
            raise FieldMismatch("domain and codomain live over different fields")
        matrix = field_rows(domain.field, matrix)
        if len(matrix) != domain.k or any(len(r) != codomain.k for r in matrix):
            raise SpaceMismatch(
                f"matrix must be {domain.k}x{codomain.k}, "
                f"got {len(matrix)}x{len(matrix[0]) if matrix else 0}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = tuple(tuple(r) for r in matrix)
        self.field = domain.field

    def apply(self, u) -> tuple:
        if len(u) != self.domain.k:
            raise SpaceMismatch(f"coefficient vector has length {len(u)}, expected {self.domain.k}")
        return tuple(linalg.vec_mat(self.field, u, self.matrix))

    def is_injective(self) -> bool:
        return linalg.rank(self.field, self.matrix) == self.domain.k

    def is_bijective(self) -> bool:
        return self.domain.k == self.codomain.k and self.is_injective()

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: (self . other)(u) = self(other(u))."""
        if other.codomain != self.domain:
            raise SpaceMismatch("composition shapes do not match")
        m = linalg.mat_mul(self.field, other.matrix, self.matrix)
        return LinMap(other.domain, self.codomain, m)

    def inverse(self) -> "LinMap":
        if not self.is_bijective():
            raise SpaceMismatch("only bijective maps invert")
        k = self.domain.k
        aug = [list(self.matrix[i]) + linalg.identity(k)[i] for i in range(k)]
        red = linalg.rref(self.field, aug)
        inv = [row[k:] for row in red]
        return LinMap(self.codomain, self.domain, inv)

    def __repr__(self):
        return f"LinMap({self.domain.k}->{self.codomain.k} over {self.field!r})"


def _sample_words(H: LinMap, sample: int, seed: int | None):
    # probabilistic modes never run on an implicit seed
    if seed is None:
        raise SeedRequired("sample mode needs an explicit seed")
    rng = random.Random(seed)
    q, k = H.field.q, H.domain.k
    return [tuple(rng.randrange(q) for _ in range(k)) for _ in range(sample)]


def _projective_measure(field, space, vectors) -> dict:
    """Projective key -> total measure of the points whose vectors share it."""
    out: dict = {}
    for mu, v in zip(space.measures, vectors):
        key = projective_key(field, v)[0]
        out[key] = out.get(key, 0) + mu
    return out


def is_isometry(
    H: LinMap,
    max_enum: int = DEFAULT_MAX_ENUM,
    sample: int | None = None,
    seed: int | None = None,
):
    """Bijective and weight-preserving on every codeword.

    Returns (True, None), (False, u) with u the least weight-violating
    codeword, or (False, None) when the map is not bijective.

    Theorem (MacWilliams extension with measures): a bijective H is an
    isometry iff m_A = m_B, where m_A gives each projective point P of F^k
    the measure of the domain points whose column a_x lies on P, and m_B
    that of the codomain points y whose pulled-back column M d_y lies on P
    (M the matrix of H, d_y the column of B at y).  Sketch: u takes the
    value u . a_x at x and u . M d_y at y, so wt(u) - wt(Hu) is the sum of
    delta = m_A - m_B off the hyperplane u-perp.  If it is 0 for every u,
    every hyperplane sum of delta equals the total; counting incidences
    makes the total 0, and the point-hyperplane incidence matrix of
    PG(k-1, q) is invertible, so delta = 0.

    Exact mode answers every positive by this O((n_A + n_B) k^2) test and
    enumerates only when the measures differ, to find the least witness.
    With sample=N only N seeded random codewords are checked, so a True
    verdict is probabilistic.
    """
    if not H.is_bijective():
        return False, None
    if sample is None:
        H.domain.check_enum(max_enum)
        pulled_back = (linalg.mat_vec(H.field, H.matrix, d) for d in zip(*H.codomain.gen))
        m_a = _projective_measure(H.field, H.domain.space, zip(*H.domain.gen))
        if m_a == _projective_measure(H.field, H.codomain.space, pulled_back):
            return True, None
        words = H.domain.enumerate_codewords(max_enum)
    else:
        words = _sample_words(H, sample, seed)
    for u in words:
        if H.domain.weight(u) != H.codomain.weight(H.apply(u)):
            return False, u
    return True, None


def is_separating(
    H: LinMap,
    max_enum: int = DEFAULT_MAX_ENUM,
    sample: int | None = None,
    seed: int | None = None,
):
    """Disjoint cozero sets map to disjoint cozero sets.

    (False, (f, g)) carries the least failing pair of codewords in
    enumeration order.  Exact mode first tries decompose: a weighted
    composition Hf(y) = w(y) f(h(y)) is nonzero at y iff f is nonzero at
    h(y), so it maps disjoint cozero sets to disjoint ones, and a
    Decomposition answers True without enumerating.  A refuted map (which
    may still be separating) falls back to the enumeration: a
    per-cozero-class union precheck certifies most positives, and the scan
    over all unordered pairs finds the least witness.  With sample=N only N
    seeded random codewords feed the precheck and the pair scan.
    """
    if sample is not None:
        words = _sample_words(H, sample, seed)
    else:
        H.domain.check_enum(max_enum)
        from .decompose import Decomposition, decompose  # decompose imports this module
        try:
            if isinstance(decompose(H), Decomposition):
                return True, None
        except ZeroFunctional:
            pass
        words = list(H.domain.enumerate_codewords(max_enum))
    doms = [H.domain.coz(u).mask for u in words]
    imgs = [H.codomain.coz(H.apply(u)).mask for u in words]
    union_img: dict[int, int] = {}
    for dm, im in zip(doms, imgs):
        union_img[dm] = union_img.get(dm, 0) | im
    masks = sorted(union_img)
    clean = all(
        union_img[a] & union_img[b] == 0
        for ai, a in enumerate(masks)
        for b in masks[ai:]
        if a & b == 0
    )
    if clean:
        return True, None
    for i, (dm_i, im_i) in enumerate(zip(doms, imgs)):
        for j in range(i + 1, len(words)):
            if dm_i & doms[j] == 0 and im_i & imgs[j] != 0:
                return False, (words[i], words[j])
    return True, None


def disjointness_additivity(A: FunctionSpace, f, g) -> bool:
    """Both sides of: coz(f) and coz(g) disjoint iff wt(f+g) = wt(f) + wt(g)."""
    disjoint = A.coz(f).mask & A.coz(g).mask == 0
    additive = A.weight(A.codeword_add(f, g)) == A.weight(f) + A.weight(g)
    if disjoint != additive:
        raise TheoremViolation("disjointness/additivity equivalence violated")
    return disjoint

"""Extraction of weighted-composition form from separating-style linear maps.

For each codomain point y, the functional f -> Hf(y) either matches a
nonzero multiple of evaluation at some point class of the domain quotient
(yielding the support map h and weight omega) or refutes the weighted
composition form at y.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import EnumerationTooLarge, NotMonomial, NotSaturated, TheoremViolation, ZeroFunctional
from .linmap import LinMap
from .quotient import Quotient, build_quotient, is_saturated, lambda_scalar, projective_key
from .space import PointSet


def functional_at(H: LinMap, y) -> tuple:
    """Coefficients of the functional f -> Hf(y) on the domain basis."""
    iy = y if isinstance(y, int) else H.codomain.space.index_of(y)
    return tuple(H.codomain.evaluate(H.apply(e), iy) for e in linalg.identity(H.domain.k))


def is_support(H: LinMap, y, s: PointSet, quotient: Quotient | None = None) -> bool:
    """Does every codeword vanishing on s get sent to zero at y?

    Decided by exact linear algebra: the vanishing subspace of s must lie
    inside the kernel of the functional at y.
    """
    if quotient is None:
        quotient = build_quotient(H.domain)
    if not is_saturated(quotient, s):
        raise NotSaturated(f"{s!r} is not a union of classes")
    phi = functional_at(H, y)
    field = H.field
    return all(
        linalg.dot(field, u, phi) == 0 for u in H.domain.vanishing_basis(s.mask)
    )


@dataclass(frozen=True)
class Refutation:
    """Certificate that no single class supports the functional at witness_y."""

    witness_y: int
    functional: tuple

    def label(self, H: LinMap):
        return H.codomain.space.labels[self.witness_y]


def _proportional_class(H: LinMap, quotient: Quotient, phi: tuple):
    """Class id and ratio with phi = ratio * (evaluation at the class rep), or None."""
    key, lead = projective_key(H.field, phi)
    cid = quotient.class_of_key.get(key)
    if cid is None:
        return None
    i0 = next(i for i, c in enumerate(phi) if c)
    return cid, H.field.div(lead, H.domain.column(quotient.rep(cid))[i0])


def minimal_support(H: LinMap, y, quotient: Quotient | None = None):
    """The single class supporting the functional at y, with its weight ratio.

    Returns (class_id, omega) or a Refutation.  Under the no-zero-column
    condition the vanishing ideal of a class has codimension 1, so a class
    supports the functional iff the functional is a nonzero multiple of
    evaluation at the class representative.
    """
    if quotient is None:
        quotient = build_quotient(H.domain)
    iy = y if isinstance(y, int) else H.codomain.space.index_of(y)
    phi = functional_at(H, iy)
    if all(c == 0 for c in phi):
        raise ZeroFunctional(
            f"every domain codeword maps to zero at point {H.codomain.space.labels[iy]!r}"
        )
    hit = _proportional_class(H, quotient, phi)
    if hit is None:
        return Refutation(iy, phi)
    return hit


def minimal_support_exhaustive(H: LinMap, y, quotient: Quotient | None = None, max_classes: int = 20):
    """Diagnostic oracle: scan all unions of classes for the minimal support."""
    if quotient is None:
        quotient = build_quotient(H.domain)
    if quotient.num_classes() > max_classes:
        raise EnumerationTooLarge("too many classes for the exhaustive support scan")
    best = None
    space = H.domain.space
    for combo in range(1, 1 << quotient.num_classes()):
        mask = 0
        for cid in range(quotient.num_classes()):
            if combo >> cid & 1:
                mask |= quotient.class_mask(cid)
        if best is not None and bin(mask).count("1") >= bin(best).count("1"):
            continue
        if is_support(H, y, PointSet(space, mask), quotient):
            best = mask
    return best


@dataclass(frozen=True)
class Decomposition:
    """Weighted-composition certificate: Hf(y) = omega[y] * f(rep of h[y])."""

    h: tuple  # codomain point index -> domain class id
    rep: tuple  # class id -> least-index representative point
    omega: tuple  # codomain point index -> nonzero scalar
    quotient_x: Quotient
    quotient_y: Quotient
    verified: bool


def decompose(H: LinMap):
    """Extract the weighted-composition form, or the first Refutation in point order."""
    qx = build_quotient(H.domain)
    h = []
    omega = []
    for iy in range(H.codomain.n):
        out = minimal_support(H, iy, qx)
        if isinstance(out, Refutation):
            return out
        cid, w = out
        h.append(cid)
        omega.append(w)
    qy = build_quotient(H.codomain)
    reps = tuple(qx.rep(cid) for cid in range(qx.num_classes()))
    D = Decomposition(tuple(h), reps, tuple(omega), qx, qy, verified=False)
    if not verify(D, H):
        # the extraction is its own proof; a failure here is a bug
        raise TheoremViolation("decomposition failed its own verification")
    return Decomposition(tuple(h), reps, tuple(omega), qx, qy, verified=True)


def verify(D: Decomposition, H: LinMap, max_enum: int | None = None) -> bool:
    """Check Hf(y) = omega[y] * f(rep(h(y))) on the basis (or all codewords)."""
    field = H.field
    if max_enum is None:
        words = list(linalg.identity(H.domain.k))
    else:
        try:
            words = list(H.domain.enumerate_codewords(max_enum))
        except EnumerationTooLarge:
            words = list(linalg.identity(H.domain.k))
    for u in words:
        img = H.apply(u)
        for iy in range(H.codomain.n):
            x = D.rep[D.h[iy]]
            lhs = H.codomain.evaluate(img, iy)
            rhs = field.mul(D.omega[iy], H.domain.evaluate(u, x))
            if lhs != rhs:
                return False
            # the one-directional corollary: Hf(y) = 0 forces f(x) = 0
            if lhs == 0 and H.domain.evaluate(u, x) != 0:
                return False
    return True


def h_properties(D: Decomposition, H: LinMap) -> dict:
    """Observational report on the support map."""
    qx, qy = D.quotient_x, D.quotient_y
    constant = all(
        len({D.h[iy] for iy in cls}) == 1 for cls in qy.classes
    )
    coz_incl = True
    for u in linalg.identity(H.domain.k):
        img = H.apply(u)
        img_coz = H.codomain.coz(img).mask
        dom_classes = {qx.class_of[i] for i in range(H.domain.n) if H.domain.evaluate(u, i) != 0}
        for iy in range(H.codomain.n):
            if img_coz >> iy & 1 and D.h[iy] not in dom_classes:
                coz_incl = False
    onto = len(set(D.h)) == qx.num_classes()
    h_tilde = {qy.class_of[iy]: D.h[iy] for iy in range(H.codomain.n)}
    bijection = onto and len(set(h_tilde.values())) == len(h_tilde)
    return {
        "constant_on_classes": constant,
        "cozero_inclusion": coz_incl,
        "onto": onto,
        "class_bijection": bijection,
    }


def omega_cocycle_check(D: Decomposition, H: LinMap) -> bool:
    """omega(x', y') = lambda_Y(y', y) * omega(x, y) * lambda_X(x, x')."""
    field = H.field
    qx, qy = D.quotient_x, D.quotient_y
    for ycls in qy.classes:
        for y in ycls:
            for yp in ycls:
                cid = D.h[y]
                rep = D.rep[cid]
                for x in qx.classes[cid]:
                    for xp in qx.classes[cid]:
                        # omega relative to a member x: Hf(y) = omega_x_y * f(x)
                        w_x_y = field.mul(D.omega[y], lambda_scalar(qx, rep, x))
                        w_xp_yp = field.mul(D.omega[yp], lambda_scalar(qx, rep, xp))
                        expect = field.mul(
                            field.mul(lambda_scalar(qy, yp, y), w_x_y),
                            lambda_scalar(qx, x, xp),
                        )
                        if w_xp_yp != expect:
                            return False
    return True


def monomial_form(D: Decomposition, H: LinMap):
    """Recover (sigma, w) with H(a_1..a_n) = (a_sigma(1) w_1, .., a_sigma(n) w_n).

    Requires trivial quotients on both sides and a bijective support map.
    sigma is returned 0-based: sigma[j] is the domain point index feeding
    codomain point j.
    """
    qx, qy = D.quotient_x, D.quotient_y
    if any(len(c) > 1 for c in qx.classes):
        raise NotMonomial("nontrivial domain quotient")
    if any(len(c) > 1 for c in qy.classes):
        raise NotMonomial("nontrivial codomain quotient")
    if H.domain.n != H.codomain.n:
        raise NotMonomial("domain and codomain have different sizes")
    if len(set(D.h)) != H.domain.n:
        raise NotMonomial("support map is not a bijection")
    sigma = tuple(D.rep[D.h[j]] for j in range(H.codomain.n))
    w = tuple(D.omega)
    return sigma, w

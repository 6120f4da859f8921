"""Exact arithmetic in GF(p^m) via precomputed lookup tables.

Elements are plain ints in [0, q): the base-p packed coefficient vector of
the residue polynomial, low degree first.  Index 0 is the additive identity
and index 1 the multiplicative identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (
    DivisionByZero,
    NonPrime,
    OrderTooLarge,
    ReduciblePolynomial,
)

DEFAULT_ORDER_BOUND = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); coefficients low degree first."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[dd], p - 2, p) if p > 2 else den[dd]
    while len(num) - 1 >= dd:
        if num[-1] == 0:
            num.pop()
            if not num:
                return [0]
            continue
        shift = len(num) - 1 - dd
        factor = (num[-1] * lead_inv) % p
        for i in range(dd + 1):
            num[shift + i] = (num[shift + i] - factor * den[i]) % p
        num.pop()
        if not num:
            return [0]
    return num


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..m//2."""
    m = len(modulus) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            rem = _poly_mod(modulus, den, p)
            if all(c == 0 for c in rem):
                return False
    return True


def _auto_modulus(p: int, m: int) -> list[int]:
    """Lexicographically least irreducible monic polynomial of degree m."""
    if m == 1:
        return [0, 1]
    for coeffs in itertools.product(range(p), repeat=m):
        cand = list(coeffs) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise ReduciblePolynomial(f"no irreducible polynomial of degree {m} over GF({p})")


class Field:
    """GF(p^m) with table-driven add/mul/neg/inv.  Immutable once built."""

    def __init__(self, p: int, m: int, modulus=None, order_bound: int = DEFAULT_ORDER_BOUND):
        if p > order_bound or m > order_bound.bit_length():
            # q > order_bound for sure: skip the costly primality test and power
            raise OrderTooLarge(f"q = {p}^{m} exceeds the enumeration bound {order_bound}")
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if m < 1:
            raise NonPrime(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > order_bound:
            raise OrderTooLarge(f"q = {q} exceeds the enumeration bound {order_bound}")
        if modulus is None or modulus == "auto":
            modulus = _auto_modulus(p, m)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[m] == 0:
                raise ReduciblePolynomial(f"modulus must have degree exactly {m}")
            if not _is_irreducible(modulus, p):
                raise ReduciblePolynomial(f"{modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    def _build_tables(self):
        """Tables indexed by the base-p packed coefficients, built in O(q^2) look-ups.

        Writing a = a0 + p * a' (a0 the constant coefficient, a' = a // p < a
        the rest, shifted down one degree), addition and negation act digit by
        digit on a0 and recurse on a', and multiplication by a is GF(p)-linear:
        a * b = b0 * a + x * (a * b').  So each row of the multiplication table
        is filled from its own earlier entries, the scalar multiples d * a for
        d in GF(p), and the table of multiplication by x.
        """
        p, m, q = self.p, self.m, self.q
        add = [tuple(range(q))]
        neg = [0]
        for a in range(1, q):
            a0, up = a % p, add[a // p]
            add.append(tuple((a0 + b % p) % p + p * up[b // p] for b in range(q)))
            neg.append(-a0 % p + p * neg[a // p])
        scal = [[0] * q]
        for _ in range(1, p):
            scal.append([add[s][e] for s, e in zip(scal[-1], range(q))])
        # x * e shifts e's coefficients up one degree and folds the top one
        # back through x^m = -(modulus[0] + ... + modulus[m-1] x^(m-1)) / modulus[m]
        top = q // p
        lead_inv = pow(self.modulus[m], p - 2, p)
        x_m = sum((-c * lead_inv) % p * p**i for i, c in enumerate(self.modulus[:m]))
        xtimes = [add[e % top * p][scal[e // top][x_m]] for e in range(q)]
        mul = []
        for a in range(q):
            row = [scal[d][a] for d in range(p)]
            for b in range(p, q):
                row.append(add[row[b % p]][xtimes[row[b // p]]])
            mul.append(tuple(row))
        self._add = add
        self._mul = mul
        self._neg = tuple(neg)
        self._inv = (0,) + tuple(mul[a].index(1) for a in range(1, q))

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by 0")
        return self._mul[a][self._inv[b]]

    def elements(self) -> list[int]:
        return list(range(self.q))

    def nonzero(self) -> list[int]:
        return list(range(1, self.q))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        if self.m == 1:
            return {"p": self.p, "m": 1}
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


@lru_cache(maxsize=None)
def _cached_field(p, m, modulus, order_bound):
    return Field(p, m, None if modulus is None else list(modulus), order_bound)


def field_new(p: int, m: int = 1, modulus="auto", order_bound: int = DEFAULT_ORDER_BOUND) -> Field:
    """Construct (or fetch a cached copy of) GF(p^m)."""
    key = None if modulus in (None, "auto") else tuple(modulus)
    return _cached_field(p, m, key, order_bound)

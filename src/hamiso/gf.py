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


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


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

    def _coeffs(self, index: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(index % self.p)
            index //= self.p
        return out

    def _index(self, coeffs: list[int]) -> int:
        idx = 0
        for c in reversed(coeffs[: self.m]):
            idx = idx * self.p + (c % self.p)
        return idx

    def _build_tables(self):
        p, q = self.p, self.q
        vecs = [self._coeffs(i) for i in range(q)]
        self._add = [
            tuple(self._index([(a + b) % p for a, b in zip(vecs[i], vecs[j])]) for j in range(q))
            for i in range(q)
        ]
        mod = list(self.modulus)
        mul = []
        for i in range(q):
            row = []
            for j in range(q):
                prod = _poly_mod(_poly_mul(vecs[i], vecs[j], p), mod, p)
                row.append(self._index(prod + [0] * self.m))
            mul.append(tuple(row))
        self._mul = mul
        self._neg = tuple(self._index([(-c) % p for c in vecs[i]]) for i in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = tuple(inv)

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
    key = None if modulus in (None, "auto") else tuple(c % p for c in modulus)
    return _cached_field(p, m, key, order_bound)

"""The benchmark's own finite-field arithmetic and elimination.

The input generator and the answer checker use this module, never
`hamiso`, so that a change to the program can change neither the inputs
nor the judgement of its answers.  Field elements use the file format's
packing: the base-p digits of an element are the coefficients of its
residue polynomial, low degree first.  Multiplication goes through
discrete-logarithm tables built from a primitive element, a different
method from the program's direct polynomial products.
"""

from __future__ import annotations

from fractions import Fraction

# Stated explicitly in every generated file.  The prime-field modulus x
# makes every element a constant; the others are Conway polynomials, none
# of which is the lexicographically least irreducible one the program
# would pick on its own for q = 256 or 243.
MODULI = {
    2: (2, (0, 1)),
    3: (3, (0, 1)),
    4: (2, (1, 1, 1)),
    5: (5, (0, 1)),
    7: (7, (0, 1)),
    243: (3, (1, 2, 0, 0, 0, 1)),
    256: (2, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
}


class GF:
    """GF(p^m) for the modulus a file states; elements are ints in [0, q)."""

    def __init__(self, p: int, modulus):
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree >= 1")
        self.p = p
        self.m = len(modulus) - 1
        self.q = p**self.m
        self.modulus = modulus
        self._exp, self._log = self._log_tables()

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def pack(self, digits) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def _polymul(self, a: int, b: int) -> int:
        """Schoolbook product reduced by the modulus; used only to build the logs."""
        p, m = self.p, self.m
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top]
            if c:
                for i in range(m + 1):
                    prod[top - m + i] = (prod[top - m + i] - c * self.modulus[i]) % p
        return self.pack(prod[:m])

    def _log_tables(self):
        q = self.q
        for g in range(1, q):
            exp = [1]
            while len(exp) < q - 1:
                nxt = self._polymul(exp[-1], g)
                if nxt in (0, 1):  # 0: the modulus is reducible
                    break
                exp.append(nxt)
            if len(set(exp)) == q - 1:
                log = [0] * q
                for i, e in enumerate(exp):
                    log[e] = i
                return exp, log
        raise ValueError(f"modulus {self.modulus} gives no field: no primitive element")

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.pack([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.pack([-x for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._exp[-self._log[a] % (self.q - 1)]

    def json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def field_of_order(q: int) -> GF:
    p, modulus = MODULI[q]
    return GF(p, modulus)


def field_from_json(obj) -> GF:
    return GF(obj["p"], obj["modulus"])


# -- vectors and matrices (lists of element ints) ---------------------------


def scale(F: GF, c: int, v) -> list[int]:
    return [F.mul(c, x) for x in v]


def axpy(F: GF, c: int, x, y) -> list[int]:
    """c*x + y."""
    return [F.add(F.mul(c, a), b) for a, b in zip(x, y)]


def combine(F: GF, coeffs, rows) -> list[int]:
    """The row vector coeffs . rows."""
    out = [0] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if c:
            out = axpy(F, c, row, out)
    return out


def projective_key(F: GF, v) -> tuple | None:
    """v scaled so that its first nonzero entry is 1; None for the zero vector."""
    for x in v:
        if x:
            return tuple(scale(F, F.inv(x), v))
    return None


def echelon(F: GF, rows):
    """Reduced row-echelon form (zero rows dropped) and its pivot columns."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    out, pivots = [], []
    for col in range(ncols):
        hit = next((r for r in m if r[col]), None)
        if hit is None:
            continue
        m.remove(hit)
        hit = scale(F, F.inv(hit[col]), hit)
        out = [axpy(F, F.neg(r[col]), hit, r) if r[col] else r for r in out]
        m = [axpy(F, F.neg(r[col]), hit, r) if r[col] else r for r in m]
        out.append(hit)
        pivots.append(col)
    return out, pivots


def rank(F: GF, rows) -> int:
    return len(echelon(F, rows)[0])


def coordinates(F: GF, basis_rref, pivots, v):
    """Coefficients c with c . basis = v for an rref basis, or None if v is outside its span."""
    c = [v[p] for p in pivots]
    return c if combine(F, c, basis_rref) == list(v) else None


def inverse(F: GF, rows) -> list[list[int]]:
    k = len(rows)
    red, pivots = echelon(F, [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)])
    if pivots[:k] != list(range(k)) or len(red) != k:
        raise ValueError("matrix is singular")
    return [r[k:] for r in red]


def solvable(F: GF, columns, targets) -> bool:
    """Is there u with u . columns[i] = targets[i] for every i?

    One equation per column: the system is inconsistent iff elimination
    on the rows [column | target] leaves a pivot in the target position.
    """
    if not columns:
        return True
    red, pivots = echelon(F, [list(col) + [t] for col, t in zip(columns, targets)])
    return len(columns[0]) not in pivots


def support(v) -> int:
    mask = 0
    for i, x in enumerate(v):
        if x:
            mask |= 1 << i
    return mask


def measure_of(mask: int, measures) -> Fraction:
    return sum((mu for i, mu in enumerate(measures) if mask >> i & 1), Fraction(0))


def index_to_coeffs(idx: int, q: int, k: int) -> tuple:
    """The program's codeword order: packed index, u[0] least significant."""
    out = []
    for _ in range(k):
        idx, d = divmod(idx, q)
        out.append(d)
    return tuple(out)

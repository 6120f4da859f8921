import pytest

from hamiso.errors import DivisionByZero, NonPrime, OrderTooLarge, ReduciblePolynomial
from hamiso.gf import Field, field_new


def residue_mul(p, m, modulus, i, j):
    """Independent oracle: multiply residue polynomials coefficient-wise."""

    def coeffs(idx):
        out = []
        for _ in range(m):
            out.append(idx % p)
            idx //= p
        return out

    a, b = coeffs(i), coeffs(j)
    prod = [0] * (2 * m - 1)
    for s, ca in enumerate(a):
        for t, cb in enumerate(b):
            prod[s + t] = (prod[s + t] + ca * cb) % p
    # reduce by the monic modulus
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c:
            for t in range(m + 1):
                prod[deg - m + t] = (prod[deg - m + t] - c * modulus[t]) % p
    idx = 0
    for c in reversed(prod[:m]):
        idx = idx * p + c
    return idx


def test_gf2_basics():
    f = field_new(2)
    assert f.add(1, 1) == 0
    assert f.neg(1) == 1


def test_gf3_basics():
    f = field_new(3)
    assert f.mul(2, 2) == 1
    assert f.elements() == [0, 1, 2]


def test_gf4_table_matches_residue_oracle():
    f = field_new(2, 2, [1, 1, 1])
    # x has index 2; x*x = x+1 has index 3
    assert f.mul(2, 2) == 3
    assert f.inv(2) == 3
    for i in range(4):
        for j in range(4):
            assert f.mul(i, j) == residue_mul(2, 2, [1, 1, 1], i, j)


def test_gf8_gf9_match_residue_oracle():
    for p, m in ((2, 3), (3, 2)):
        f = field_new(p, m)
        for i in range(f.q):
            for j in range(f.q):
                assert f.mul(i, j) == residue_mul(p, m, list(f.modulus), i, j)


def test_gf5_inverse():
    assert field_new(5).inv(2) == 3


def test_prime_subfield_is_mod_p():
    for p in (2, 3, 5, 7):
        f = field_new(p)
        for a in range(p):
            for b in range(p):
                assert f.add(a, b) == (a + b) % p
                assert f.mul(a, b) == (a * b) % p


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_exhaustive(q):
    p, m = q
    f = field_new(p, m)
    elems = f.elements()
    assert elems[0] == 0 and elems[1] == 1
    for a in elems:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_enumeration_closed():
    f = field_new(2, 2)
    elems = set(f.elements())
    for a in elems:
        for b in elems:
            assert f.add(a, b) in elems
            assert f.mul(a, b) in elems


def test_construction_errors():
    with pytest.raises(NonPrime):
        Field(4, 1)
    with pytest.raises(NonPrime):
        Field(2, 0)
    with pytest.raises(ReduciblePolynomial):
        Field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(OrderTooLarge):
        Field(2, 9)
    with pytest.raises(DivisionByZero):
        field_new(5).inv(0)
    with pytest.raises(DivisionByZero):
        field_new(5).div(3, 0)


def test_auto_modulus_deterministic():
    assert field_new(2, 2).modulus == field_new(2, 2).modulus
    assert field_new(2, 2) is field_new(2, 2)  # cached


def test_serialization_roundtrip():
    f = field_new(2, 2)
    assert f.to_json() == {"p": 2, "m": 2, "modulus": list(f.modulus)}
    assert field_new(3).to_json() == {"p": 3, "m": 1}


def polynomial_tables(p, m, modulus):
    """add, mul, neg and inv built pair by pair from residue polynomials."""
    q = p**m

    def coeffs(idx):
        return [idx // p**i % p for i in range(m)]

    def index(cs):
        return sum(c % p * p**i for i, c in enumerate(cs[:m]))

    def poly_mod(num):
        num = list(num)
        lead_inv = pow(modulus[m], p - 2, p)
        while len(num) > m:
            top = num.pop()
            if top:
                factor = top * lead_inv % p
                for i in range(m):
                    num[len(num) - m + i] = (num[len(num) - m + i] - factor * modulus[i]) % p
        return num

    vecs = [coeffs(i) for i in range(q)]
    add = [tuple(index([a + b for a, b in zip(vecs[i], vecs[j])]) for j in range(q)) for i in range(q)]
    mul = []
    for i in range(q):
        row = []
        for j in range(q):
            prod = [0] * (2 * m - 1)
            for s, a in enumerate(vecs[i]):
                for t, b in enumerate(vecs[j]):
                    prod[s + t] = (prod[s + t] + a * b) % p
            row.append(index(poly_mod(prod)))
        mul.append(tuple(row))
    neg = tuple(index([-c for c in vecs[i]]) for i in range(q))
    inv = tuple(next((b for b in range(1, q) if mul[a][b] == 1), 0) for a in range(q))
    return add, mul, neg, inv


@pytest.mark.parametrize(
    "p, m, modulus",
    [(2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None), (11, 1, None), (13, 1, None),
     (2, 2, None), (2, 2, [1, 1, 1]), (2, 3, None), (3, 2, None), (2, 4, None),
     (3, 2, [2, 0, 2]), (5, 2, [1, 0, 3]), (2, 8, None), (3, 5, None)],
)
def test_tables_match_polynomial_construction(p, m, modulus):
    f = Field(p, m, modulus)
    add, mul, neg, inv = polynomial_tables(p, m, list(f.modulus))
    assert [tuple(r) for r in f._add] == add
    assert [tuple(r) for r in f._mul] == mul
    assert tuple(f._neg) == neg
    assert tuple(f._inv) == inv

"""Arithmetic in small finite fields GF(q), q = p^k.

Elements are canonically indexed 0..q-1 by base-p encoding of their
coefficient vector, constant term least significant:

    index(c0 + c1*X + ... + c(k-1)*X^(k-1)) = c0 + c1*p + ... + c(k-1)*p^(k-1)

This index is the serialized form of points and slopes everywhere in the
package, so the modulus choice must be reproducible: field_make scans
monic degree-k polynomials by increasing base-p integer value of the
non-leading coefficient vector and takes the first irreducible one.
Irreducibility is checked exhaustively (no monic divisor of degree
1..k//2), which is fine at the supported sizes (q <= 256).

A FieldSpec builds its sum and product tables when it is made, and
every operation indexes them after one range check of its arguments.
"""

from __future__ import annotations


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1) if _is_prime(q) else None
        if q % p:
            continue
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return None


def is_prime_power(q: int) -> bool:
    return factor_prime_power(q) is not None


class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus.

    ``modulus`` lists the k non-leading coefficients of the modulus
    polynomial, constant term first (the leading X^k coefficient is 1).
    The q x q sum and product tables and the negations are built here.
    """

    __slots__ = ("q", "p", "k", "modulus", "_sum", "_prod", "_neg")

    def __init__(self, q: int, p: int, k: int, modulus: tuple[int, ...]):
        self.q, self.p, self.k, self.modulus = q, p, k, modulus
        cs = [self.coeffs(x) for x in range(q)]
        self._sum = [self._encode(list(map(int.__add__, xs, ys))) for xs in cs for ys in cs]
        self._prod = [self._product(xs, ys) for xs in cs for ys in cs]
        self._neg = [self._sum[x * q : (x + 1) * q].index(0) for x in range(q)]

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q}, p={self.p}, k={self.k}, modulus={self.modulus})"

    # -- encoding ----------------------------------------------------------

    def _index(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"field element index {x} out of range 0..{self.q - 1}")
        return x

    def coeffs(self, x: int) -> list[int]:
        x = self._index(x)
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def _encode(self, cs: list[int]) -> int:
        out = 0
        for c in reversed(cs[: self.k]):
            out = out * self.p + c % self.p
        return out

    def _product(self, xs: list[int], ys: list[int]) -> int:
        """The index of the product of two coefficient vectors."""
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    prod[i + j] = (prod[i + j] + a * b) % self.p
        # reduce X^m = -(modulus tail) * X^(m-k), highest degree first
        for deg in range(2 * self.k - 2, self.k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i, m in enumerate(self.modulus):
                    prod[deg - self.k + i] = (prod[deg - self.k + i] - c * m) % self.p
        return self._encode(prod)

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self._sum[self._index(x) * self.q + self._index(y)]

    def neg(self, x: int) -> int:
        return self._neg[self._index(x)]

    def sub(self, x: int, y: int) -> int:
        return self._sum[self._index(x) * self.q + self.neg(y)]

    def mul(self, x: int, y: int) -> int:
        return self._prod[self._index(x) * self.q + self._index(y)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(x, self.q - 2)

    def pow(self, x: int, e: int) -> int:
        if self._index(x) == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 1 if e == 0 else 0
        out, base = 1, x
        e %= self.q - 1  # multiplicative group order
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)


def _poly_divides(p: int, divisor: list[int], poly: list[int]) -> bool:
    """Whether monic ``divisor`` divides monic ``poly``, coefficients mod p."""
    rem = list(poly)
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(divisor):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return all(c == 0 for c in rem)


def _monic_polys(p: int, deg: int):
    for v in range(p**deg):
        cs = []
        x = v
        for _ in range(deg):
            cs.append(x % p)
            x //= p
        yield cs + [1]


def _is_irreducible(p: int, poly: list[int]) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_divides(p, cand, poly):
                return False
    return True


def field_make(q: int) -> FieldSpec:
    """Build GF(q) for a prime power q <= 256."""
    if q > 256:
        raise ValueError(f"fields larger than 256 are not supported, got {q}")
    pk = factor_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = pk
    # degree-k irreducibles always exist; for k = 1 the first is X itself
    modulus = next(cand[:-1] for cand in _monic_polys(p, k) if _is_irreducible(p, cand))
    return FieldSpec(q, p, k, tuple(modulus))

"""Exact matrix reduction over the integers and the rationals.

One home for the linear algebra the rest of the package needs:

  det             fraction-free Gaussian elimination (Bareiss); rational rows
                  are scaled to integers first;
  charpoly        det(xI - M) by Hessenberg reduction modulo a product of
                  primes below 2^62, one pass per product of up to about
                  640 bits, combined by the Chinese remainder theorem under
                  a Hadamard bound (Cohen, A Course in Computational
                  Algebraic Number Theory, Alg. 2.2.9);
  companion, kron_sum
                  the matrices whose characteristic polynomials are the
                  package's resultants: multiplication by x on Q[x]/(p), and
                  the Kronecker sum, whose eigenvalues are the sums
                  a_i + t b_j;
  inverse         Gauss-Jordan elimination of [M | I], None for a singular M.

Every characteristic and defining polynomial in the package is a
``charpoly`` of such a matrix, and so is every minimal polynomial but a
scheme generator's, which is read off the ``inverse`` of its Krylov basis.  The
independent oracles that check these routines (the cofactor expansion in
``tridiagonal.charpoly_by_cofactor`` and the tests' sympy calls) do not
import this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, Sequence

from .polynomials import RationalPoly


def _integer_matrix(m: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """(L M, L) for the common denominator L of the entries of M; a new list of int rows."""
    if all(type(v) is int for row in m for v in row):
        return [list(row) for row in m], 1
    scale = lcm(*(v.denominator for row in m for v in row))
    return [[int(v * scale) for v in row] for row in m], scale


def det(m: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """Exact determinant of an integer or rational square matrix.

    The argument is left unchanged.  M is scaled to the integer matrix L M,
    which Bareiss' fraction-free elimination reduces; det M is
    det(L M) / L^n, an int when L = 1 and a Fraction otherwise.
    """
    n = len(m)
    rows, scale = _integer_matrix(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                sign = 0  # a zero column below the diagonal: singular
                break
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        rowk = rows[k]
        pivot = rowk[k]
        for i in range(k + 1, n):
            rowi = rows[i]
            lik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - lik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    d = sign * rows[n - 1][n - 1] if n else 1
    return d if scale == 1 else Fraction(d, scale**n)


# -- characteristic polynomial ---------------------------------------------------------

# strong-pseudoprime tests to these bases are exact below 3.18e23
# (Sorenson and Webster, Math. Comp. 86 (2017)); primes here stay below 2^62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TOP = 1 << 62
# one Hessenberg pass takes primes until its modulus has this many bits (11 primes,
# 682 bits).  Its cost per bit is least near there: one pass on H(3,4) (n = 64)
# took 10.2/13.3/21.2/25.1/27.9/47.0/81.6 ms over 1/4/8/10/16/24/32 primes, and
# on H(9,2) (n = 512) 1.27/1.75/2.79/5.09 s over 1/6/11/17 primes (2 vCPUs,
# Python 3.11.7), so 17 primes cost less as 11 + 6 than in one pass
_PASS_BITS = 640


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test for m < 3.18e23."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# the odd primes below each top found so far, largest first; a charpoly call
# would otherwise spend most of its time in Miller-Rabin
_primes_found: dict[int, list[int]] = {}


def _primes_below(top: int) -> Iterator[int]:
    """The odd primes below top, largest first."""
    found = _primes_found.setdefault(top, [])
    i = 0
    while True:
        if i == len(found):
            c = found[-1] - 2 if found else (top - 1 if top % 2 == 0 else top - 2)
            while c > 2 and not _is_prime(c):
                c -= 2
            if c <= 2:
                return
            found.append(c)
        yield found[i]
        i += 1


def _charpoly_mod(matrix: list[list[int]], p: int) -> list[int]:
    """det(xI - M) mod p, constant term first, for M given by its columns.

    M is reduced to upper Hessenberg form H by similarity and the
    characteristic polynomial read off by the Hessenberg recurrence (Cohen,
    Alg. 2.2.9), O(n^3) operations mod p.  Columns are stored as lists, so
    both the row and the column operations of a step run over whole lists.

    p is a product of distinct primes.  Z/p is then a product of fields, and
    the elimination is valid over it while every pivot is a unit; a pivot
    that shares a factor g with p splits the work into the moduli g and
    p / g, whose results are combined by the Chinese remainder theorem.
    """
    n = len(matrix)
    cols = [[v % p for v in c] for c in matrix]
    for m in range(1, n - 1):
        pc = cols[m - 1]
        piv = next((i for i in range(m, n) if pc[i]), None)
        if piv is None:
            continue
        if piv != m:
            for c in cols:
                c[piv], c[m] = c[m], c[piv]
            cols[piv], cols[m] = cols[m], cols[piv]
            pc = cols[m - 1]
        try:
            inv = pow(pc[m], -1, p)
        except ValueError:  # the pivot is no unit: it shares a prime factor with p
            g = gcd(pc[m], p)
            return _crt(_charpoly_mod(matrix, g), g, _charpoly_mod(matrix, p // g), p // g)
        us = [x * inv % p for x in pc[m + 1 :]]
        if not any(us):
            continue
        # row i -= u_i * row m for every i > m, then column m += sum u_i * column i
        for col in cols[m - 1 :]:
            y = col[m]
            if y:
                col[m + 1 :] = [(x - u * y) % p for x, u in zip(col[m + 1 :], us)]
        cm = cols[m]
        for i, u in enumerate(us, m + 1):
            if u:
                cm = [a + u * b for a, b in zip(cm, cols[i])]
        cols[m] = [a % p for a in cm]
    # p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1),
    # with h_ij = cols[j][i] and polys[m] = p_m of the leading m x m block
    polys = [[1]]
    for m in range(n):
        col = cols[m]
        prev = polys[m]
        nxt = [0] + prev
        hm = col[m]
        if hm:
            for k, c in enumerate(prev):
                nxt[k] -= hm * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * cols[i][i + 1] % p
            if not t:
                break
            c = col[i] * t % p
            if c:
                for k, v in enumerate(polys[i]):
                    nxt[k] -= c * v
        polys.append([v % p for v in nxt])
    return polys[n]


def _crt(a: list[int], p: int, b: list[int], q: int) -> list[int]:
    """The residues mod p q of the lists a mod p and b mod q, for coprime p and q."""
    inv = pow(p, -1, q)
    return [x + p * ((y - x) * inv % q) for x, y in zip(a, b)]


def charpoly(m: Sequence[Sequence[int | Fraction]]) -> RationalPoly:
    """det(xI - M), exactly, for an integer or rational square matrix M.

    M is scaled by the common denominator L of its entries to the integer
    matrix B = L M; coefficient k of det(xI - M) is coefficient k of
    det(xI - B) divided by L^(n-k).  The latter comes from residues modulo
    a product of primes below 2^62: with R >= the largest row norm of B,
    Hadamard's inequality on the principal minors bounds the coefficient of
    x^(n-i) by C(n, i) R^i <= (1 + R)^n, so once the product of the primes
    exceeds 2 (1 + R)^n the symmetric residues are the integer coefficients.
    R is the row norm rounded up to a multiple of 2^-16, and the stop is
    decided in integers: the product times 2^(16 n) against
    2 (2^16 + 2^16 R)^n.  The primes are taken largest first, and one
    Hessenberg pass runs modulo the product of as many of them as reach
    _PASS_BITS bits; the passes are combined by the Chinese remainder
    theorem.
    """
    n = len(m)
    # det(xI - B) = det(xI - B^T): the rows of B serve as the columns of B^T
    cols, scale = _integer_matrix(m)
    norm2 = max((sum(v * v for v in c) for c in cols), default=0) << 32
    r = isqrt(norm2)  # 2^16 R, with R the row norm rounded up to a multiple of 2^-16
    if r * r < norm2:
        r += 1
    bound = 2 * ((1 << 16) + r) ** n
    primes = _primes_below(_PRIME_TOP)
    coeffs: list[int] = []
    modulus = 1
    while modulus << (16 * n) <= bound:
        batch = 1
        while batch.bit_length() < _PASS_BITS and (modulus * batch) << (16 * n) <= bound:
            batch *= next(primes)
        residues = _charpoly_mod(cols, batch)
        coeffs = _crt(coeffs, modulus, residues, batch) if coeffs else residues
        modulus *= batch
    half = modulus // 2
    ints = [c - modulus if c > half else c for c in coeffs]
    if scale == 1:
        return RationalPoly(ints)
    return RationalPoly([Fraction(c, scale ** (n - k)) for k, c in enumerate(ints)])


# -- companion and Kronecker matrices -----------------------------------------------------


def companion(p: RationalPoly) -> list[list[Fraction]]:
    """The matrix of multiplication by x on Q[x]/(p) in the basis 1, x, ..., x^(d-1).

    Column j holds the coordinates of x^(j+1); the characteristic
    polynomial is p made monic.
    """
    d = p.degree
    lead = p.leading
    c = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        c[i][i - 1] = Fraction(1)
    for i in range(d):
        c[i][d - 1] = -p[i] / lead
    return c


def kron_sum(a: Sequence[Sequence], b: Sequence[Sequence], t: int | Fraction = 1) -> list[list]:
    """A (x) I + t I (x) B; its eigenvalues are the sums a_i + t b_j."""
    na, nb = len(a), len(b)
    return [
        [(a[i][j] if k == l else 0) + (t * b[k][l] if i == j else 0) for j in range(na) for l in range(nb)]
        for i in range(na)
        for k in range(nb)
    ]


# -- inverse ------------------------------------------------------------------------------


def inverse(m: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]] | None:
    """M^-1 of an integer or rational square matrix, by Gauss-Jordan elimination of [M | I]; None when M is singular."""
    n = len(m)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        pivot_row = rows[c] = [v * inv for v in rows[c]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != c:
                rows[i] = [a - f * b for a, b in zip(row, pivot_row)]
    return [row[n:] for row in rows]

"""Nonnegative tridiagonal systems with constant row sum.

The central object is a (D+1)x(D+1) tridiagonal matrix with zero top-left
entry, unit first subdiagonal entry, positive off-diagonals and every row
summing to kappa.  Such a matrix has D+1 distinct real eigenvalues with
kappa the largest; the remaining D are the eigenvalues of a D x D reduced
matrix whose leading principal characteristic polynomials F_0, ..., F_D
satisfy a three-term recurrence, and consecutive F_i strictly interlace.
A TridiagonalSystem cannot fail this row-sum condition: construction raises
InvalidSystem, listing every failed clause, so no function below asks again.

Two eigenvalue inequalities are verified with exact equality detection:

  pair bound:   (t_1 + 1)(t_D + 1) <= -beta_1, equality exactly when D = 2;
  triple bound: for D >= 3, comparing beta_2 + gamma_3 with kappa + 1 picks
                the branch; the lower branch asserts
                (t_1+1)(t_{D-1}+1)(t_D+1) >= -beta_1(kappa+1-beta_2-gamma_3),
                the upper one the mirrored <= with t_2; equality exactly
                when D = 3.  On the boundary both branches are evaluated.

Entry indexing: alpha[i] is the diagonal entry alpha_i (0..D), beta[i] is
beta_i (0..D-1), gamma[j] is gamma_{j+1} (the stored list starts at
gamma_1).

Entries are Fractions for ordinary systems; the same checks also accept
number-field elements (FieldElement) so Krein matrices with algebraic
entries reuse every code path.  A spectrum is the roots of F_D, by one of
two functions.  spectrum isolates them (rational systems only).  It derives
the recurrence once in integers, H_i(y) = L^i F_i(y / L) with L the common
denominator of its coefficients, and reads F_0, ..., F_D as RationalPolys
off the H_i.  The positive off-diagonal products make F_0, ..., F_D a
Sturm sequence of F_D, so the same integer recurrence, evaluated at each
subdivision point, is the sign source of isolate_real_roots (Givens'
bisection): no Sturm chain and no squarefree part is built, and the
isolating intervals are the chain's.  certify_spectrum takes strictly descending
candidates on any system and certifies them as the roots of F_D,
evaluating F_D at each by the three-term recurrence on scalars, so a
system with field entries builds no polynomial.  Only interlacing_check
reads F_1 .. F_{D-1}, and it isolates no root: it decides interlacing by
Cauchy indices read off signed remainder sequences.  Every product
bound is one comparison of a shifted eigenvalue product with its
right-hand side: on F_D for isolated spectra, by field arithmetic for
certified ones.  On F_D the product is built once (shifted_subset_product),
and the comparisons and the report read that one value, in one refinement
loop when it is kept in factored form (compare_shifted_product).
charpoly_by_cofactor is the one cofactor oracle: a self-contained
expansion over any exact scalars, in Python ints once a rational matrix
is cleared of denominators, that checks the recurrence here (on
reduced_matrix) and the characteristic polynomial of the class-3 audit
(on row_sum_matrix).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import lcm, prod
from typing import Sequence

from . import algebraics
from .algebraics import (
    AlgebraicReal,
    ProductValue,
    compare,
    compare_rational,
    isolate_real_roots,
    product_enclosure,
    round_limit,
)
from .linalg import charpoly, companion, det
from .numberfield import (
    FieldElement,
    exact_sign,
    field_containing,
    scalar_as_fraction,
)
from .polynomials import RationalPoly, _scaled_int_poly, sign_variations, signed_remainder_sequence
from .serialize import rat_str, value_json


class InvalidSystem(ValueError):
    """Entries that fail the row-sum condition; violations lists every failed clause, in order."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid tridiagonal system: " + "; ".join(violations))
        self.violations = tuple(violations)


@dataclass(frozen=True)
class TridiagonalSystem:
    """A system that meets the row-sum condition; construction raises InvalidSystem otherwise."""

    d: int
    alpha: tuple
    beta: tuple
    gamma: tuple
    kappa: object

    def __post_init__(self) -> None:
        d, alpha, beta, gamma, kappa = self.d, self.alpha, self.beta, self.gamma, self.kappa
        v: list[str] = []
        if d < 2:
            v.append("D must be at least 2")
        if len(alpha) != d + 1 or len(beta) != d or len(gamma) != d:
            v.append("entry counts must be alpha: D+1, beta: D, gamma: D")
            raise InvalidSystem(v)
        if exact_sign(kappa) <= 0:
            v.append("kappa must be positive")
        if alpha[0] != 0:
            v.append("alpha_0 must equal 0")
        for i, a in enumerate(alpha):
            if exact_sign(a) < 0:
                v.append(f"alpha_{i} must be nonnegative")
        for i, b in enumerate(beta):
            if exact_sign(b) <= 0:
                v.append(f"beta_{i} must be positive")
        if d >= 1 and gamma[0] != 1:
            v.append("gamma_1 must equal 1")
        for j, g in enumerate(gamma):
            if exact_sign(g) <= 0:
                v.append(f"gamma_{j + 1} must be positive")
        for i in range(d + 1):
            total = alpha[i]
            if i < d:
                total = total + beta[i]
            if i >= 1:
                total = total + gamma[i - 1]
            if total != kappa:
                v.append(f"row {i} must sum to kappa")
        if v:
            raise InvalidSystem(v)

    @classmethod
    def from_entries(cls, alpha: Sequence, beta: Sequence, gamma: Sequence, kappa) -> "TridiagonalSystem":
        return cls(len(alpha) - 1, tuple(alpha), tuple(beta), tuple(gamma), kappa)

    @classmethod
    def from_intersection_numbers(cls, b: Sequence, c: Sequence) -> "TridiagonalSystem":
        """From b_0..b_{D-1} and c_1..c_D with row sum b_0."""
        d = len(b)
        if len(c) != d:
            raise ValueError("need as many c entries as b entries")
        bb = [Fraction(v) for v in b]
        cc = [Fraction(v) for v in c]
        k = bb[0]
        alpha = [Fraction(0)] + [k - bb[i] - cc[i - 1] for i in range(1, d)] + [k - cc[d - 1]]
        return cls(d, tuple(alpha), tuple(bb), tuple(cc), k)

    def is_rational(self) -> bool:
        vals = list(self.alpha) + list(self.beta) + list(self.gamma) + [self.kappa]
        return all(scalar_as_fraction(v) is not None for v in vals)

    def to_json_dict(self) -> dict:
        return {
            "kappa": rat_str(scalar_as_fraction(self.kappa)),
            "alpha": [rat_str(scalar_as_fraction(v)) for v in self.alpha],
            "beta": [rat_str(scalar_as_fraction(v)) for v in self.beta],
            "gamma": [rat_str(scalar_as_fraction(v)) for v in self.gamma],
        }


def valencies(system: TridiagonalSystem) -> list:
    """k_0 = 1, k_{i+1} = k_i beta_i / gamma_{i+1}: an intersection array's valencies, a Krein array's multiplicities."""
    out = [Fraction(1)]
    for b, c in zip(system.beta, system.gamma):
        out.append(out[-1] * b / c)
    return out


def row_sum_matrix(system: TridiagonalSystem) -> list[list]:
    """The (D+1) x (D+1) matrix itself: alpha on the diagonal, beta above it, gamma below."""
    d, zero = system.d, system.kappa * 0
    rows = [[zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = system.alpha[i]
    for i in range(d):
        rows[i][i + 1], rows[i + 1][i] = system.beta[i], system.gamma[i]
    return rows


def reduced_matrix(system: TridiagonalSystem) -> tuple[tuple, ...]:
    """The D x D reduced matrix carrying the non-principal eigenvalues.

    Diagonal (-gamma_1, kappa-beta_1-gamma_2, ..., kappa-beta_{D-1}-gamma_D),
    superdiagonal beta_1..beta_{D-1}, subdiagonal gamma_1..gamma_{D-1}.
    """
    d = system.d
    beta, gamma, kappa = system.beta, system.gamma, system.kappa
    zero = kappa * 0
    rows = []
    for i in range(d):
        row = [zero] * d
        row[i] = -gamma[0] if i == 0 else kappa - beta[i] - gamma[i]
        if i + 1 < d:
            row[i + 1] = beta[i + 1]
        if i >= 1:
            row[i - 1] = gamma[i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def f_polynomials(system: TridiagonalSystem) -> list[RationalPoly]:
    """F_0 = 1, F_1 = x + 1, then
    F_i = (x - kappa + beta_{i-1} + gamma_i) F_{i-1} - beta_{i-1} gamma_{i-1} F_{i-2}.

    Rational systems only; a system with field entries raises ValueError
    (certify_spectrum certifies its spectrum through _f_d_at instead).
    """
    return _f_polynomials(_integer_recurrence(system))


def _integer_recurrence(system: TridiagonalSystem) -> tuple[int, list[int], list[int]]:
    """(L, c, e) with H_i(y) = L^i F_i(y / L) = (y + c_i) H_{i-1} - e_i H_{i-2}, all in Z.

    F_i = (x + a_i) F_{i-1} - b_i F_{i-2} with a_1 = 1, b_1 = 0 and, for
    i >= 2, a_i = beta_{i-1} + gamma_i - kappa and b_i = beta_{i-1} gamma_{i-1};
    L is the least common denominator of the a_i and b_i, c_i = L a_i and
    e_i = L^2 b_i.  c[0] = c_1 and e[0] = e_1 = 0.  Each e_i with i >= 2 is
    positive, which makes F_0, ..., F_D a Sturm sequence of F_D
    (_sign_counter).  Rational systems only, else ValueError.
    """
    if not system.is_rational():
        raise ValueError("systems with algebraic entries need candidate eigenvalues")
    kappa = scalar_as_fraction(system.kappa)
    beta = [scalar_as_fraction(x) for x in system.beta]
    gamma = [scalar_as_fraction(x) for x in system.gamma]
    a = [Fraction(1)] + [beta[i - 1] + gamma[i - 1] - kappa for i in range(2, system.d + 1)]
    b = [Fraction(0)] + [beta[i - 1] * gamma[i - 2] for i in range(2, system.d + 1)]
    scale = lcm(*(x.denominator for x in a + b))
    c = [x.numerator * (scale // x.denominator) for x in a]
    e = [x.numerator * (scale // x.denominator) * scale for x in b]
    return scale, c, e


def _f_polynomials(rec: tuple[int, list[int], list[int]]) -> list[RationalPoly]:
    """F_0, ..., F_D from the integer recurrence (L, c, e) of _integer_recurrence."""
    scale, c, e = rec
    hs = [[1]]  # H_i, constant term first
    prev: list[int] = []
    for ci, ei in zip(c, e):
        cur = hs[-1]
        h = [0] + cur  # y H_{i-1}
        for j, v in enumerate(cur):
            h[j] += ci * v
        for j, v in enumerate(prev):
            h[j] -= ei * v
        prev = cur
        hs.append(h)
    return [_scaled_int_poly(h, scale) for h in hs]


def _sign_counter(rec: tuple[int, list[int], list[int]]):
    """count(n, q) for isolate_real_roots: the sign variations of F_0, ..., F_D at n / q, and the sign of F_D.

    Givens' bisection in integers (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965, ch. 5; Barth, Martin and Wilkinson 1967).  With N = L n
    and q > 0, G_i = q^i H_i(N / q) = (L q)^i F_i(n / q) runs
    G_0 = 1, G_i = (N + c_i q) G_{i-1} - e_i q^2 G_{i-2}, so it has the signs
    of the F_i.  Since every e_i (i >= 2) is positive, a zero F_i (0 < i < D)
    lies between members of opposite signs, and the variations count the
    roots of F_D above n / q: +infinity gives none, -infinity gives D.
    """
    scale, c, e = rec

    def count(n: int, q: int) -> tuple[int, int]:
        n *= scale
        q2 = q * q
        prev, cur = 0, 1
        last, changes = 1, 0  # the last nonzero sign, and the variations so far
        for ci, ei in zip(c, e):
            prev, cur = cur, (n + ci * q) * cur - ei * q2 * prev
            if cur and (cur > 0) != (last > 0):
                last = cur
                changes += 1
        return changes, (cur > 0) - (cur < 0)

    return count


def _f_d_at(system: TridiagonalSystem, x):
    """F_D(x) by the recurrence of f_polynomials, on scalars: no polynomial is built."""
    kappa, beta, gamma = system.kappa, system.beta, system.gamma
    prev, cur = 1, x + 1
    for i in range(2, system.d + 1):
        shift = x + (beta[i - 1] + gamma[i - 1] - kappa)
        prev, cur = cur, shift * cur - beta[i - 1] * gamma[i - 2] * prev
    return cur


def charpoly_by_cofactor(matrix: Sequence[Sequence[Fraction]]) -> RationalPoly | list:
    """det(xI - M) by recursive cofactor expansion along the first row.

    The independent oracle against which the recurrence (f_polynomials and
    its scalar evaluator), the Hessenberg route and the class-3 audit's
    factorization are checked: deliberately generic (no tridiagonal
    shortcuts), and its polynomial arithmetic is the two list helpers
    below, never the code it checks.  Rational input (ints and Fractions)
    is expanded over Python ints: with L the common denominator of the
    entries, det(xI - M) = L^-n det(yI - L M) at y = L x, so coefficient j
    is that of det(yI - L M) over L^(n-j), and the result is a RationalPoly.
    Any other exact scalars (number-field elements) go through the same
    expansion unscaled and give the coefficient list, constant term first.
    Zero entries are skipped.
    """
    n = len(matrix)
    if n == 0:
        return RationalPoly.one()
    rational = all(isinstance(v, (int, Fraction)) for row in matrix for v in row)
    if rational:
        scale = lcm(*(v.denominator for row in matrix for v in row))
        matrix = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    one = matrix[0][0] * 0 + 1
    cells = [
        [[-matrix[i][j], one] if i == j else ([] if matrix[i][j] == 0 else [-matrix[i][j]]) for j in range(n)]
        for i in range(n)
    ]

    def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> list:
        if len(rows) == 1:
            return cells[rows[0]][cols[0]]
        acc: list = []
        r0, rest = rows[0], rows[1:]
        for k, c in enumerate(cols):
            entry = cells[r0][c]
            if entry:
                term = _cofactor_mul(entry, expand(rest, cols[:k] + cols[k + 1 :]))
                acc = _cofactor_add(acc, term, -1 if k % 2 else 1)
        return acc

    idx = tuple(range(n))
    coeffs = expand(idx, idx)
    if rational:
        return RationalPoly([Fraction(c, scale ** (n - j)) for j, c in enumerate(coeffs)])
    return coeffs


def _cofactor_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [p[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _cofactor_add(p: list, q: list, sign: int) -> list:
    """p + sign * q."""
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] = out[i] + c if sign > 0 else out[i] - c
    return out


@dataclass(frozen=True)
class SpectrumReport:
    system: TridiagonalSystem
    eigenvalues: tuple  # theta_0 = kappa > theta_1 > ... > theta_D; the rest are F_D's roots
    f_polys: tuple  # F_0..F_D for isolated spectra, () for certified ones


def spectrum(system: TridiagonalSystem) -> SpectrumReport:
    """Exact eigenvalues of a rational system: kappa and the isolated roots of F_D."""
    d = system.d
    rec = _integer_recurrence(system)
    fs = _f_polynomials(rec)
    roots = isolate_real_roots(fs[d], _sign_counter(rec))
    # D roots, each pinned by a sign change, make F_D squarefree, as each root's poly must be
    if len(roots) != d:
        raise AssertionError(f"F_{d} must have {d} distinct real roots, found {len(roots)}")
    kappa = scalar_as_fraction(system.kappa)
    if compare_rational(roots[-1], kappa) >= 0:
        raise AssertionError("kappa must be the strictly largest eigenvalue")
    eigen = (AlgebraicReal.from_rational(kappa),) + tuple(reversed(roots))
    return SpectrumReport(system, eigen, tuple(fs))


def certify_spectrum(system: TridiagonalSystem, roots: Sequence) -> SpectrumReport:
    """Certify theta_1 > ... > theta_D (on any system) as the eigenvalues below kappa.

    F_D vanishes at each, exactly, and with kappa they are strictly
    descending.  D distinct roots of the degree-D polynomial F_D are all of
    its roots, so they are precisely the spectrum.
    """
    eigen = (system.kappa,) + tuple(roots)
    if len(eigen) != system.d + 1:
        raise ValueError(f"expected {system.d} candidate eigenvalues, got {len(eigen) - 1}")
    for cand in eigen[1:]:
        if _f_d_at(system, cand) != 0:
            raise AssertionError("candidate eigenvalue does not annihilate F_D")
    for above, below in zip(eigen, eigen[1:]):
        if exact_sign(above - below) <= 0:
            raise AssertionError("kappa and the candidate eigenvalues must be strictly descending")
    return SpectrumReport(system, eigen, ())


@dataclass(frozen=True)
class InterlacingResult:
    passed: bool


def interlacing_check(report: SpectrumReport) -> InterlacingResult:
    """Roots of consecutive F_i strictly interlace, decided by Cauchy indices; no root is isolated.

    F_{i+1} (degree i + 1) and F_i (degree i) have simple real roots that
    strictly interlace exactly when the Cauchy index of F_i / F_{i+1} over
    the reals is i + 1 (Hermite-Kakeya-Obreschkoff): every root of F_{i+1}
    is then a pole where F_i / F_{i+1} jumps from -infinity to +infinity,
    so F_i changes sign between consecutive ones.  That index is the
    sign-variation loss of the signed remainder sequence of
    (F_{i+1}, F_i) from -infinity to +infinity, read off the leading
    coefficients and degrees of its members; this settles F_1 .. F_{D-1}.
    The last row is read against the report's eigenvalues
    theta_1 > ... > theta_D, the roots of F_D (_interlaces_spectrum).  A
    certified report carries no polynomials and passes vacuously.

    Strict interlacing of consecutive F_i is also the premise on which
    spectrum counts roots by the sign variations of F_0, ..., F_D.  This
    check reads only signed remainder sequences, never that count, so it
    stays an independent test of the premise.
    """
    fs = report.f_polys
    if not fs:
        return InterlacingResult(True)
    passed = all(_interlaces(fs[i + 1], fs[i]) for i in range(1, len(fs) - 2))
    return InterlacingResult(passed and _interlaces_spectrum(fs[-1], fs[-2], report.eigenvalues[1:]))


def _interlaces(q: RationalPoly, p: RationalPoly) -> bool:
    """q and p, of degrees n and n - 1, have simple real roots that strictly interlace.

    The signed remainder sequence must end in a nonzero constant (q and p
    coprime) and lose n sign variations from -infinity to +infinity: the
    Cauchy index of p / q over the reals is n.
    """
    if p.degree != q.degree - 1:
        return False
    seq = signed_remainder_sequence(q, p)
    if seq[-1].degree != 0:
        return False
    top = [1 if s.leading > 0 else -1 for s in seq]
    bottom = [-t if s.degree % 2 else t for s, t in zip(seq, top)]
    return sign_variations(bottom) - sign_variations(top) == q.degree


def _interlaces_spectrum(fd: RationalPoly, fprev: RationalPoly, thetas: Sequence[AlgebraicReal]) -> bool:
    """F_{D-1} has sign (-1)^(j-1) at theta_j, and theta_1 > ... > theta_D are the roots of F_D.

    The eigenvalues are first made to lie in disjoint, descending regions:
    a rational theta_j is its point, an irrational one the open interior of
    its interval, refined until neither end is a root of F_D.  A rational
    theta_j must be a root of F_D, and F_{D-1} is evaluated there.  For an
    irrational one the local Cauchy index of F_{D-1} / F_D over its
    interval (lo, hi], V(lo) - V(hi) on the signed remainder sequence of
    (F_D, F_{D-1}), must be +1: F_D has a root there at which F_{D-1} has
    the sign of F_D'.  D disjoint regions then hold the D roots of F_D, one
    each, so the root in region j is the j-th largest, F_D' has sign
    (-1)^(j-1) at it, and so has F_{D-1}.  F_{D-1} changes sign between
    consecutive roots of F_D: the two strictly interlace.
    """
    thetas = list(thetas)
    if len(thetas) != fd.degree or fprev.degree != fd.degree - 1:
        return False
    for j in range(1, len(thetas)):
        lower, upper = thetas[j], thetas[j - 1]
        if not _below(lower, upper):
            if compare(lower, upper) >= 0:
                return False
            while not _below(lower, upper):
                lower, upper = lower.refine(), upper.refine()
            thetas[j - 1 : j + 1] = upper, lower
    seq = ()
    for j, theta in enumerate(thetas):
        r = theta.as_rational()
        while r is None:
            seq = seq or signed_remainder_sequence(fd, fprev)
            lo_signs, hi_signs = ([s.sign_at(t) for s in seq] for t in (theta.lo, theta.hi))
            if lo_signs[0] and hi_signs[0]:
                break
            # an end is a root of F_D; theta lies strictly inside, so it is not that root
            theta = theta.refine()
            r = theta.as_rational()
        if r is not None:
            if fd.sign_at(r) != 0 or fprev.sign_at(r) != (-1) ** j:
                return False
        elif sign_variations(lo_signs) - sign_variations(hi_signs) != 1:
            return False
    return True


def _below(a: AlgebraicReal, b: AlgebraicReal) -> bool:
    """a's region lies below b's: a rational value is its point, an irrational one its open interval."""
    ra, rb = a.as_rational(), b.as_rational()
    top = a.hi if ra is None else ra
    bottom = b.lo if rb is None else rb
    return top < bottom or (top == bottom and (ra is None or rb is None))


# -- two-point comparison lemma ------------------------------------------------------


@dataclass(frozen=True)
class LemmaResult:
    f_t: FieldElement
    g_t: FieldElement
    holds: bool
    equality: bool


def endpoint_product_bound(a, b, c, d, t) -> LemmaResult:
    """For a <= b < c <= d and t in [b, c]: (t-a)(t-d) <= (t-b)(t-c).

    Interior equality forces a = b and c = d; a breach of that implication
    raises, since it would falsify the statement rather than an input.
    """
    a, b, c, d, t = (algebraics._coerce(v) for v in (a, b, c, d, t))
    if not (compare(a, b) <= 0 and compare(b, c) < 0 and compare(c, d) <= 0):
        raise ValueError("need a <= b < c <= d")
    if not (compare(b, t) <= 0 and compare(t, c) <= 0):
        raise ValueError("need t in [b, c]")
    _, (fa, fb, fc, fd, ft) = field_containing([a, b, c, d, t])
    f_t = (ft - fa) * (ft - fd)
    g_t = (ft - fb) * (ft - fc)
    cmp = exact_sign(f_t - g_t)
    equality = cmp == 0
    if equality and compare(b, t) < 0 and compare(t, c) < 0:
        if not (compare(a, b) == 0 and compare(c, d) == 0):
            raise AssertionError("interior equality without a=b and c=d")
    return LemmaResult(f_t, g_t, cmp <= 0, equality)


# -- products of shifted roots --------------------------------------------------------


def shifted_subset_product(poly: RationalPoly, roots: Sequence[AlgebraicReal], subset: Sequence[int], s):
    """prod_{i in subset} (roots[i] + s), built once for its comparisons and its report.

    roots must be ALL real roots of the squarefree poly (which must be
    totally real), descending: the order of every spectrum.  When the
    subset or its complement carries at most one irrational root the value
    is exact: a Fraction when rational, else an AlgebraicReal, from the
    subset factors multiplied out or from the full product (poly evaluated
    at -s) divided by the complement factors.  Otherwise it is a
    ProductValue of the shifted subset factors, largest root first, that
    keeps poly and s, from which compare_shifted_product builds the
    subset-product resolvent should it need one.
    Each factor roots[i] + s is defined by its own root's polynomial
    shifted, never by poly (a root may keep a factor of poly), and each
    distinct root polynomial is shifted once per call.
    """
    s = Fraction(s)
    subset = sorted(set(subset))
    complement = [i for i in range(len(roots)) if i not in subset]
    sub_irr = [i for i in subset if roots[i].as_rational() is None]
    comp_irr = [i for i in complement if roots[i].as_rational() is None]
    shifted: dict[int, RationalPoly] = {}  # id of a root's poly -> that poly shifted by s

    def plus_s(root: AlgebraicReal) -> AlgebraicReal:
        """root + s, as add_rational builds it."""
        if root.is_rational:
            return root.add_rational(s)
        key = id(root.poly)
        if key not in shifted:
            shifted[key] = root.poly.shift(-s)
        return AlgebraicReal(shifted[key], root.lo + s, root.hi + s, True, root._sign_lo)

    if min(len(sub_irr), len(comp_irr)) > 1:
        return ProductValue([plus_s(roots[i]) for i in subset], poly, s)
    for i in subset:
        if compare_rational(roots[i], -s) == 0:
            return Fraction(0)

    if len(sub_irr) <= len(comp_irr):
        acc = prod(roots[i].as_rational() + s for i in subset if i not in sub_irr)
        irr = [plus_s(roots[i]) for i in sub_irr]
    else:
        work = poly
        rest = Fraction(1)
        for i in complement:
            r = roots[i].as_rational()
            if r is not None:
                if r == -s:
                    work = work.exact_div(RationalPoly((-r, 1)))
                else:
                    rest *= r + s
        acc = (-1) ** work.degree * work.evaluate(-s) / work.leading / rest
        irr = [plus_s(roots[i]).inverse() for i in comp_irr]
    return irr[0].mul_rational(acc) if irr else Fraction(acc)


def compare_shifted_product(value, rhs) -> int:
    """Exact sign of value - rhs, for a value of shifted_subset_product.

    An exact value compares directly.  A ProductValue is refined in one
    loop: its enclosure decides strict cases, and once the refinement budget
    runs out (``round_limit``) the loop builds the subset-product resolvent
    from the value's own poly and shift, the characteristic polynomial of a
    compound matrix whose roots are all |subset|-fold products of shifted
    roots.  The one root of it that meets the enclosure is the value; no
    high-degree resultant chain is expanded.
    """
    rhs = Fraction(rhs)
    if isinstance(value, Fraction):
        return (value > rhs) - (value < rhs)
    if isinstance(value, AlgebraicReal):
        return compare_rational(value, rhs)
    factors = list(value.factors)
    res_roots = None

    def bound():
        nonlocal res_roots
        resolvent = _subset_product_resolvent(value.poly.shift(-value.shift), len(factors))
        res_roots = isolate_real_roots(resolvent)
        # the enclosure is at most sum_i w_i prod_{j != i} max|f_j| wide; it and the resolvent's
        # intervals halve every round from now on, so W is 2^rounds times their width now
        bounds = [max(abs(f.lo), abs(f.hi)) for f in factors]
        width = sum((f.hi - f.lo) * prod(bounds[:i] + bounds[i + 1 :]) for i, f in enumerate(factors))
        width += max((r.hi - r.lo for r in res_roots), default=0)
        return resolvent, width * 2**rounds

    limit = round_limit("the shifted product is not a root of its subset-product resolvent", bound)
    lo, hi = value.lo, value.hi  # the enclosure of value.factors
    for rounds in count():
        if rhs < lo:
            return 1
        if rhs > hi:
            return -1
        limit(rounds)
        if res_roots is not None:
            hits = [r for r in res_roots if not (r.hi < lo or hi < r.lo)]
            if len(hits) == 1:
                return compare_rational(hits[0], rhs)
            res_roots = [r.refine() for r in res_roots]
        factors = [f.refine() for f in factors]
        lo, hi = product_enclosure(factors)


def _subset_product_resolvent(h: RationalPoly, k: int) -> RationalPoly:
    """Polynomial whose roots are the k-fold products of the roots of h.

    The k-th compound of the companion matrix of h (its k x k minors) has
    exactly those products as eigenvalues; the resolvent is its
    characteristic polynomial, of degree C(deg h, k).
    """
    n = h.degree
    if not 1 <= k <= n:
        raise ValueError("subset size out of range")
    c = companion(h)
    subsets = list(combinations(range(n), k))
    compound = [
        [det([[c[r][j] for j in cols] for r in rows]) for cols in subsets]
        for rows in subsets
    ]
    return charpoly(compound)


# -- the two main checks ----------------------------------------------------------------


def _shifted_product(report: SpectrumReport, indices: Sequence[int], s, rhs) -> tuple[int, object]:
    """Exact sign of prod_{i in indices}(theta_i + s) - rhs, and the product to report.

    indices count from 1 into theta_1 > ... > theta_D.  Rational spectra
    build the product on F_D once and compare it (compare_shifted_product);
    field spectra multiply their certified eigenvalues out.
    """
    if report.f_polys:
        fd = report.f_polys[-1]
        s = scalar_as_fraction(s)
        lhs = shifted_subset_product(fd, report.eigenvalues[1:], [i - 1 for i in indices], s)
        return compare_shifted_product(lhs, scalar_as_fraction(rhs)), lhs
    lhs = prod(report.eigenvalues[i] + s for i in indices)
    return exact_sign(lhs - rhs), lhs


@dataclass(frozen=True)
class BoundCheck:
    lhs: object
    rhs: object
    relation: str  # "<=" or ">="
    holds: bool
    equality: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": value_json(self.lhs),
            "rhs": value_json(self.rhs),
            "relation": self.relation,
            "holds": self.holds,
            "equality": self.equality,
        }


def pair_bound(system: TridiagonalSystem, report: SpectrumReport) -> BoundCheck:
    """(theta_1 + 1)(theta_D + 1) <= -beta_1; equality exactly when D = 2."""
    d = system.d
    rhs = -system.beta[1]
    cmp, lhs = _shifted_product(report, (1, d), 1, rhs)
    return BoundCheck(lhs, rhs, "<=", cmp <= 0, cmp == 0)


@dataclass(frozen=True)
class BranchCheck:
    branch: str  # "lower" (relation >=) or "upper" (relation <=)
    check: BoundCheck


@dataclass(frozen=True)
class TripleBoundResult:
    hypothesis_sign: int  # sign of beta_2 + gamma_3 - (kappa + 1)
    branches: tuple[BranchCheck, ...]

    @property
    def holds(self) -> bool:
        return all(b.check.holds for b in self.branches)

    @property
    def equality(self) -> bool:
        return all(b.check.equality for b in self.branches)

    def to_json_dict(self) -> dict:
        return {
            "hypothesis_sign": self.hypothesis_sign,
            "branches": [dict(branch=b.branch, **b.check.to_json_dict()) for b in self.branches],
        }


def triple_bound(system: TridiagonalSystem, report: SpectrumReport) -> TripleBoundResult:
    """The D >= 3 triple-product bound; both branches run on the boundary."""
    d = system.d
    if d < 3:
        raise ValueError("need D >= 3")
    hyp = exact_sign(system.beta[2] + system.gamma[2] - system.kappa - 1)
    rhs = -system.beta[1] * (system.kappa + 1 - system.beta[2] - system.gamma[2])
    branches = []
    if hyp >= 0:
        cmp, lhs = _shifted_product(report, (1, d - 1, d), 1, rhs)
        branches.append(BranchCheck("lower", BoundCheck(lhs, rhs, ">=", cmp >= 0, cmp == 0)))
    if hyp <= 0:
        cmp, lhs = _shifted_product(report, (1, 2, d), 1, rhs)
        branches.append(BranchCheck("upper", BoundCheck(lhs, rhs, "<=", cmp <= 0, cmp == 0)))
    return TripleBoundResult(hyp, tuple(branches))


# -- randomized generation -----------------------------------------------------------------

RANDOM_SYSTEM_TRIES = 5000  # draws random_system makes before it gives up


def random_fraction(rng: random.Random, max_num: int = 12, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_system(rng: random.Random, d: int) -> TridiagonalSystem:
    """Rejection sampling: draw kappa, beta_i, gamma_i; keep when all alpha_i >= 0."""
    for _ in range(RANDOM_SYSTEM_TRIES):
        kappa = Fraction(rng.randint(6, 28), rng.randint(1, 2))
        beta = [kappa] + [random_fraction(rng) for _ in range(d - 1)]
        gamma = [Fraction(1)] + [random_fraction(rng) for _ in range(d - 1)]
        alpha = [Fraction(0)] + [kappa - beta[i] - gamma[i - 1] for i in range(1, d)] + [kappa - gamma[d - 1]]
        if min(alpha) >= 0:  # then every clause of the row-sum condition holds
            return TridiagonalSystem(d, tuple(alpha), tuple(beta), tuple(gamma), kappa)
    raise RuntimeError("random system generation failed to satisfy constraints")

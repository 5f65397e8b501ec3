"""``qpolykit.linalg`` against sympy, and the cofactor oracle's independence.

det, charpoly and inverse are compared with sympy on random integer and
rational matrices (not symmetric, singular and empty ones included); companion and
kron_sum with sympy's companion matrix and Kronecker products.  The
cofactor oracle ``tridiagonal.charpoly_by_cofactor`` must give the right
polynomial while every routine it is meant to check raises.
"""

import copy
import importlib
import pkgutil
import random
from fractions import Fraction as F

import pytest
import sympy

import qpolykit
from qpolykit import linalg, numberfield, tridiagonal
from qpolykit.families import cycle
from qpolykit.polynomials import RationalPoly
from qpolykit.schemes import eigendata, find_q_orderings, krein, scheme_from_graph
from qpolykit.tridiagonal import charpoly_by_cofactor, random_system, reduced_matrix


def to_sympy(m):
    return sympy.Matrix(len(m), len(m), lambda i, j: sympy.Rational(m[i][j].numerator, m[i][j].denominator))


def to_fraction(r) -> F:
    r = sympy.Rational(r)
    return F(int(r.p), int(r.q))


def random_matrix(rng: random.Random, n: int, rational: bool, singular: bool = False):
    def entry():
        num = rng.choice([0, 0, rng.randint(-9, 9)])
        return F(num, rng.randint(1, 6)) if rational else num

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if singular and n >= 2:
        # last row = sum of two earlier rows
        m[-1] = [a + b for a, b in zip(m[0], m[1 % (n - 1)])]
    return m


def cases():
    rng = random.Random(20261018)
    out = []
    for n in range(0, 8):
        for rational in (False, True):
            for singular in (False, True):
                for _ in range(4):
                    out.append(random_matrix(rng, n, rational, singular))
    return out


def test_det_matches_sympy_and_leaves_argument_alone():
    for m in cases():
        before = copy.deepcopy(m)
        d = linalg.det(m)
        assert m == before
        assert d == (to_fraction(to_sympy(m).det()) if m else 1)
        if all(type(v) is int for row in m for v in row):
            assert type(d) is int


def test_det_singular_and_empty():
    assert linalg.det([]) == 1
    assert linalg.det([[0, 0], [0, 0]]) == 0
    assert linalg.det([[F(1, 2), F(1, 3)], [F(1), F(2, 3)]]) == 0
    assert linalg.det([[F(1, 2)]]) == F(1, 2)
    # a zero pivot that needs a row swap
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_charpoly_matches_sympy_and_cofactor_on_nonsymmetric_matrices(monkeypatch):
    def no_det(*a, **k):
        raise AssertionError("charpoly must not call det")

    monkeypatch.setattr(linalg, "det", no_det)
    for m in cases():
        cp = linalg.charpoly(m)
        if len(m) <= 5:
            assert cp == charpoly_by_cofactor([[F(v) for v in row] for row in m])
        if not m:
            assert cp == RationalPoly.one()
            continue
        expected = [to_fraction(c) for c in reversed(to_sympy(m).charpoly().all_coeffs())]
        assert cp == RationalPoly(expected)
        assert cp.degree == len(m) and cp.leading == 1


def test_charpoly_of_a_compound_matrix_has_the_subset_products_as_roots():
    h = RationalPoly.from_roots([1, 2, 3, F(-1, 2)])
    res = tridiagonal._subset_product_resolvent(h, 2)
    roots = [1, 2, 3, F(-1, 2)]
    products = [roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4)]
    assert res == RationalPoly.from_roots(products)


def test_companion_and_kronecker_builders_match_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(5)
    for n in range(1, 5):
        p = RationalPoly([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] + [F(rng.choice([-3, 2, 1]))])
        c = linalg.companion(p)
        assert linalg.charpoly(c) == p.monic()
        assert to_sympy(c) == sympy.Matrix.companion(sympy.Poly(list(reversed(p.monic().coeffs)), x))
        for rational in (False, True):
            a = random_matrix(rng, n, rational)
            b = random_matrix(rng, rng.randint(1, 3), rational)
            ka, kb = to_sympy(a), to_sympy(b)
            ia, ib = sympy.eye(len(a)), sympy.eye(len(b))
            t = F(rng.randint(-3, 3), 2)
            expected = sympy.kronecker_product(ka, ib) + sympy.Rational(t.numerator, t.denominator) * sympy.kronecker_product(ia, kb)
            assert to_sympy(linalg.kron_sum(a, b, t)) == expected


def test_inverse_matches_sympy_and_is_none_when_singular():
    rng = random.Random(20261021)
    seen = {True: 0, False: 0}  # singular or not
    for n in range(1, 8):
        for _ in range(12):
            m = [[F(rng.randint(-9, 9) * (rng.random() < 0.8), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.4:  # a zero row, or one the sum of two others
                m[-1] = [a + b for a, b in zip(m[0], m[1 % (n - 1)])] if n >= 3 else [F(0)] * n
            before = copy.deepcopy(m)
            got = linalg.inverse(m)
            assert m == before
            expected = to_sympy(m)
            if expected.det() == 0:
                assert got is None
            else:
                assert to_sympy(got) == expected.inv()
            seen[expected.det() == 0] += 1
    assert seen[True] >= 20 and seen[False] >= 30


# -- the cofactor oracle stays independent ----------------------------------------------


def patch_everywhere(monkeypatch, targets):
    """Replace every binding of each target function, in every qpolykit module, by one that raises."""

    def boom(*a, **k):
        raise AssertionError("the cofactor oracle called code it checks")

    mods = [qpolykit] + [importlib.import_module(f"qpolykit.{m.name}") for m in pkgutil.iter_modules(qpolykit.__path__)]
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if any(obj is t for t in targets):
                monkeypatch.setattr(mod, name, boom)


def checked_routines():
    targets = [getattr(linalg, n) for n in ("det", "charpoly", "companion", "kron_sum", "inverse", "_charpoly_mod")]
    # the recurrence, its scalar evaluator and the one gcd over a number field
    targets += [tridiagonal.f_polynomials, tridiagonal._f_d_at, numberfield._gcd_monic]
    return targets


def test_cofactor_oracle_is_independent_of_what_it_checks(monkeypatch):
    system = random_system(random.Random(11), 5)
    rational = reduced_matrix(system)
    expected_rational = tridiagonal.f_polynomials(system)[-1]

    s = scheme_from_graph(cycle(7))
    e = eigendata(s)
    table = krein(s, e)
    qs = find_q_orderings(s, e, table)[0]
    o = qs.idempotent_order
    matrix = [[table.q[o[1]][a][b] for b in o] for a in o]  # the ordered Krein matrix B1*
    assert matrix[0][0].field.degree == 3
    # det(xI - B1*) = prod (x - theta_i*) over the dual eigenvalues
    expected_field = [matrix[0][0] * 0 + 1]
    for theta in qs.dual_eigenvalues:
        shifted = [-theta * c for c in expected_field] + [expected_field[0] * 0]
        for i, c in enumerate(expected_field):
            shifted[i + 1] = shifted[i + 1] + c
        expected_field = shifted

    patch_everywhere(monkeypatch, checked_routines())
    with pytest.raises(AssertionError):
        tridiagonal.f_polynomials(system)
    assert charpoly_by_cofactor(rational) == expected_rational
    got = charpoly_by_cofactor(matrix)
    assert len(got) == len(expected_field) == 5
    assert all(a == b for a, b in zip(got, expected_field))

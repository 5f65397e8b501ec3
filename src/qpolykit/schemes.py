"""Symmetric association schemes: eigenmatrices, Krein parameters, orderings.

A scheme is its relation table; a distance scheme's table is its graph's BFS
rows.  Each p_{ij}^h = |R_i(x) & R_j(y)|, (x, y) in R_h, is the popcount of
two per-point bit masks, verified constant over every pair of the relation;
construction checks the scheme axioms on them, so nothing below asks again.

Everything else routes through the regular representation.  The intersection
matrices B_i = (p_{ij}^h)_{h,j} span a commutative semisimple algebra of
dimension class+1 that acts faithfully on e_0, with B_u e_0 = e_u.  So a
candidate g generates it exactly when its Krylov basis K = (e_0, g e_0, ...,
g^class e_0) is nonsingular; K c = g^(class+1) e_0 then gives g's squarefree
minimal polynomial, whose roots are the characters' values, and K c = e_u
gives B_u as a rational polynomial poly_u in g.  So P[j][u] =
poly_u(lambda_j), with all arithmetic in a single real number field
containing the lambda_j (built by adjoining roots on demand), and
multiplicities, the second eigenmatrix Q and the Krein parameters

    q_{ij}^h = (m_i m_j / |X|) * sum_u P_iu P_ju P_hu / k_u^2

are exact field elements.  The sum is symmetric in i, j and h, so it is
computed, and signed for the nonnegativity condition, once per unordered
index triple; the closed formula is cross-checked against a literal
expansion of E_i o E_j in the idempotent basis on the point set.

An ordering of the idempotents is polynomial when the matrix (q_{1,j}^h)
is irreducible tridiagonal; its transpose is then a row-sum tridiagonal
system with kappa = m, the Krein array {b*; c*}.  Each QPolyStructure
keeps that system, which met the row-sum condition when it was built, as
the one form of the array, beside only the facts no other object holds; a
Krein array given as parameters (structure_from_dual_parameters) is that
system, m = b_0*.
The spectral identity certifies the E_1 column of Q as the system's
spectrum (tridiagonal.certify_spectrum), evaluating F_D by its recurrence
in the ordering's number field; a system with field entries takes that
certified spectrum as its own, and a rational system isolates the roots of
F_D once, on first use (tridiagonal.spectrum).  The
pair/triple bounds, the dual fundamental bound with its tightness test,
and the class-3 dual-tight audit that pins down b2* = 1, b1* = c2* and the
antipodal conclusion all read that one spectrum.  Class-3 Krein arrays
also pass through the rational feasibility filters (class3_feasibility)
that the scanner applies.  Each check takes the facts it reads (eigendata,
Krein table, bound) as arguments and computes none of them; qpolykit.checks
sequences them, and the class-3 classification takes its orderings'
dual-tight flags from there and adds the design side from the relation
graphs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from fractions import Fraction
from typing import Sequence

from . import tridiagonal
from .algebraics import compare, isolate_real_roots  # noqa: F401  (perfbench/test_bench.py reads schemes.compare)
from .graphs import (
    Graph,
    RegularityReport,
    check_vertex_count,
    classify_regularity,
    intersection_array,
    is_vertex_pair,
)
from .linalg import inverse
from .numberfield import (
    RealAlgebraicField,
    eval_rational_poly,
    exact_sign,
    field_containing,
    scalar_as_fraction,
)
from .polynomials import RationalPoly
from .serialize import parse_rat, value_json
from .tridiagonal import BoundCheck, InvalidSystem, TridiagonalSystem, TripleBoundResult


class SchemeError(ValueError):
    pass


class SoundnessAlarm(AssertionError):
    """A verified instance violated a guaranteed statement: implementation bug."""


# -- the scheme object ---------------------------------------------------------------


@dataclass(frozen=True)
class AssociationScheme:
    """Symmetric scheme given by its relation table on the points 0..n-1.

    relation[x][y] in 0..d names the relation of (x, y), 0 the identity: n
    tuples, symmetric with a zero diagonal.  p[i][j][h] are the intersection
    numbers, counted from the table; construction raises SchemeError unless
    they meet the scheme axioms.
    """

    n: int
    d: int
    relation: tuple
    p: tuple
    # the classification of relation graph 1 when the scheme was built from it
    graph_classification: RegularityReport | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        violations = _axiom_violations(self.n, self.d, self.p)
        if violations:
            raise SchemeError("scheme axioms fail: " + "; ".join(violations))

    @property
    def valencies(self) -> tuple[int, ...]:
        return tuple(self.p[i][i][0] for i in range(self.d + 1))

    def _pairs(self, i: int) -> list[list[int]]:
        """The pairs [x, y] with x < y in relation i, in row-major order."""
        return [[x, y] for x, row in enumerate(self.relation) for y in range(x + 1, self.n) if row[y] == i]

    def relation_graph(self, i: int) -> Graph:
        if not 1 <= i <= self.d:
            raise SchemeError("relation index out of range")
        return Graph(self.n, self._pairs(i))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_relation_lists(cls, n: int, relations: Sequence[Sequence[tuple[int, int]]]) -> "AssociationScheme":
        """relations[i-1] lists the unordered pairs of relation i (identity implicit)."""
        check_vertex_count(n)
        if n < 1:
            raise SchemeError("a scheme needs at least one point")
        table = [[0] * n for _ in range(n)]
        seen = 0
        for i, pairs in enumerate(relations, start=1):
            for pair in pairs:
                x, y = int(pair[0]), int(pair[1])
                if not (0 <= x < n and 0 <= y < n):
                    raise SchemeError(f"pair ({x},{y}) out of range")
                if x == y:
                    raise SchemeError("relations must not contain diagonal pairs")
                if table[x][y]:
                    raise SchemeError(f"pair {(min(x, y), max(x, y))} appears in more than one relation")
                table[x][y] = table[y][x] = i
                seen += 1
        if seen != n * (n - 1) // 2:
            raise SchemeError("relations do not partition the off-diagonal pairs")
        for i, pairs in enumerate(relations, start=1):
            if not pairs:
                raise SchemeError(f"relation {i} is empty")
        relation = tuple(map(tuple, table))
        d = len(relations)
        return cls(n, d, relation, _intersection_numbers(d, relation))

    @classmethod
    def from_graph_distances(cls, g: Graph) -> "AssociationScheme":
        """Distance relations of a distance-regular graph: the BFS rows are the table."""
        classification = classify_regularity(g)
        if not classification.distance_regular:
            raise SchemeError("distance relations form a scheme only for distance-regular graphs")
        d = classification.diameter
        relation = tuple(q.distances for q in classification.quotients)
        return cls(g.n, d, relation, _intersection_numbers(d, relation), classification)

    # -- JSON -------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "type": "relations",
            "n": self.n,
            "relations": [self._pairs(i) for i in range(1, self.d + 1)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AssociationScheme":
        if not isinstance(obj, dict) or obj.get("type") != "relations":
            raise SchemeError("scheme JSON needs type='relations'")
        if "n" not in obj or "relations" not in obj:
            raise SchemeError("scheme JSON needs fields 'n' and 'relations'")
        n, rels = obj["n"], obj["relations"]
        if type(n) is not int:
            raise SchemeError("'n' must be an integer")
        if not (isinstance(rels, list) and all(isinstance(r, list) and all(map(is_vertex_pair, r)) for r in rels)):
            raise SchemeError("'relations' must be a list of lists of [x, y] pairs")
        return cls.from_relation_lists(n, [[tuple(pair) for pair in r] for r in rels])


def _intersection_numbers(d: int, relation) -> tuple:
    """p_{ij}^h = |R_i(x) & R_j(y)| for (x, y) in R_h; SchemeError when two such pairs disagree.

    masks[x][i] has bit y set when relation[x][y] = i.  The relations are
    symmetric, so R_j(y) = {z : (z, y) in R_j} and one AND counts p_{ij}.
    """
    size = d + 1
    masks = [[0] * size for _ in relation]
    for m, row in zip(masks, relation):
        for y, i in enumerate(row):
            m[i] |= 1 << y
    first: list[list[int] | None] = [None] * size  # counts[i * size + j] per relation h
    for row, mx in zip(relation, masks):
        for h, my in zip(row, masks):
            counts = [(a & b).bit_count() for a in mx for b in my]
            if first[h] is None:
                first[h] = counts
            elif first[h] != counts:
                i, j = divmod(next(t for t, (u, v) in enumerate(zip(first[h], counts)) if u != v), size)
                raise SchemeError(f"intersection number p[{i}][{j}]^{h} is not constant over relation {h}")
    return tuple(tuple(tuple(first[h][i * size + j] for h in range(size)) for j in range(size)) for i in range(size))


# -- axioms -------------------------------------------------------------------------


def _axiom_violations(n: int, d: int, p) -> list[str]:
    """Every scheme axiom that p fails, deduplicated, in order: a cross-check on _intersection_numbers."""
    v: list[str] = []
    if d < 1:
        return ["class must be at least 1 (identity-only input rejected)"]
    k = [p[i][i][0] for i in range(d + 1)]
    if k[0] != 1:
        v.append("valency of the identity relation must be 1")
    if 1 + sum(k[1:]) != n:
        v.append("valencies must sum to |X| - 1 plus the identity")
    for j in range(d + 1):
        for h in range(d + 1):
            if p[0][j][h] != (1 if j == h else 0):
                v.append(f"p[0][{j}]^{h} must be delta_(j=h)")
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                if p[i][j][h] < 0:
                    v.append(f"p[{i}][{j}]^{h} must be nonnegative")
                if p[i][j][h] != p[j][i][h]:
                    v.append(f"p must be symmetric in the lower indices at ({i},{j},{h})")
    for i in range(d + 1):
        for h in range(d + 1):
            total = sum(p[i][j][h] for j in range(d + 1))
            if total != k[i]:
                v.append(f"sum_j p[{i}][j]^{h} must equal k_{i}")
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                if k[h] * p[i][j][h] != k[i] * p[h][j][i]:
                    v.append(f"triangle count identity fails at ({i},{j},{h})")
    # associativity of the algebra: (B_i B_j) B_h = B_i (B_j B_h)
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                for l in range(d + 1):
                    left = sum(p[i][j][m] * p[m][h][l] for m in range(d + 1))
                    right = sum(p[j][h][m] * p[i][m][l] for m in range(d + 1))
                    if left != right:
                        v.append(f"associativity fails at ({i},{j},{h},{l})")
                        break
    return list(dict.fromkeys(v))  # deduplicated, in order


def scheme_from_graph(g: Graph) -> AssociationScheme:
    return AssociationScheme.from_graph_distances(g)


# -- eigendata --------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    field: RealAlgebraicField
    p_matrix: tuple  # P[j][u], FieldElement; row 0 = valencies
    q_matrix: tuple  # Q[u][j] = m_j P[j][u] / k_u
    multiplicities: tuple[int, ...]


def _generator_candidates(d: int):
    for i in range(1, d + 1):
        coeffs = [Fraction(0)] * (d + 1)
        coeffs[i] = Fraction(1)
        yield coeffs
    yield [Fraction(0)] + [Fraction(1)] * d
    yield [Fraction(0)] + [Fraction(i) for i in range(1, d + 1)]
    yield [Fraction(0)] + [Fraction(i * i) for i in range(1, d + 1)]
    yield [Fraction(0)] + [Fraction(3**i) for i in range(d)]


def _krylov_polynomials(g) -> tuple[RationalPoly, list[RationalPoly]] | None:
    """g's minimal polynomial (K^-1 g^size e_0) and every B_u as a polynomial in g (column u of K^-1).

    None when K is singular; one ``linalg.inverse`` serves every right-hand side.
    """
    size = len(g)
    krylov = [[Fraction(int(i == 0)) for i in range(size)]]  # e_0, g e_0, ..., g^size e_0
    for _ in range(size):
        krylov.append([sum(a * v for a, v in zip(row, krylov[-1])) for row in g])
    kinv = inverse([list(row) for row in zip(*krylov[:-1])])  # K by rows
    if kinv is None:
        return None
    mp = RationalPoly([-sum(a * v for a, v in zip(row, krylov[-1])) for row in kinv] + [1])
    return mp, [RationalPoly(col) for col in zip(*kinv)]


def eigendata(s: AssociationScheme) -> EigenData:
    """Exact first and second eigenmatrices with multiplicities.

    The generator g of the regular representation is the first
    deterministic candidate whose Krylov basis at e_0 is nonsingular.  P rows
    are ordered with the valency row first, the rest by descending
    generator eigenvalue.
    """
    d, n = s.d, s.n
    k = list(s.valencies)
    for coeffs in _generator_candidates(d):
        # g = sum_i coeffs[i] B_i, with B_i = (p_{ij}^h)_{h,j}
        g = [[sum(coeffs[i] * s.p[i][c][r] for i in range(d + 1)) for c in range(d + 1)] for r in range(d + 1)]
        krylov = _krylov_polynomials(g)
        if krylov is not None:
            break
    else:
        raise SchemeError("no generator of the regular representation found")
    mp, polys_in_g = krylov

    roots = isolate_real_roots(mp)
    if len(roots) != d + 1:
        raise AssertionError("generator minimal polynomial must be totally real and squarefree")
    principal_value = sum(coeffs[i] * k[i] for i in range(d + 1))
    principal = next(
        (r for r in roots if r.as_rational() == principal_value), None
    )
    if principal is None:
        raise AssertionError("row-sum eigenvalue not found among the generator's roots")
    others = [r for r in roots if r is not principal]
    others.sort(key=lambda r: (r.lo, r.hi), reverse=True)
    lam_order = [principal] + others  # row 0 first, rest descending

    # build one field containing every eigenvalue of g
    field, lam_elems = field_containing(lam_order)

    p_matrix = tuple(
        tuple(eval_rational_poly(polys_in_g[u].coeffs, lam_elems[j]) for u in range(d + 1))
        for j in range(d + 1)
    )
    for u in range(d + 1):
        if p_matrix[0][u] != k[u]:
            raise AssertionError("principal row of P must list the valencies")

    mults = []
    for row in p_matrix:
        # sum_u P_ju^2 / k_u = |X| / m_j; the modulus is irreducible, so a
        # rational value reduces to a constant
        norm = field.dot(row, [x * Fraction(1, k[u]) for u, x in enumerate(row)]).as_fraction()
        m_val = None if norm is None else n / norm
        if m_val is None or m_val <= 0 or m_val.denominator != 1:
            raise SchemeError("multiplicity is not a positive integer; not a genuine scheme")
        mults.append(int(m_val))
    if sum(mults) != n:
        raise AssertionError("multiplicities must sum to |X|")

    q_matrix = tuple(
        tuple(p_matrix[j][u] * Fraction(mults[j], k[u]) for j in range(d + 1))
        for u in range(d + 1)
    )
    _verify_pq_identity(field, p_matrix, q_matrix, n)
    return EigenData(field, p_matrix, q_matrix, tuple(mults))


def _verify_pq_identity(field, p_matrix, q_matrix, n) -> None:
    q_columns = list(zip(*q_matrix))
    for j, row in enumerate(p_matrix):
        for l, col in enumerate(q_columns):
            if field.dot(row, col) != (n if j == l else 0):
                raise AssertionError("PQ = |X| I fails: eigendata inconsistent")


# -- Krein parameters ------------------------------------------------------------------------


@dataclass(frozen=True)
class KreinTable:
    q: tuple  # q[i][j][h], FieldElement
    nonnegative: bool


def krein(s: AssociationScheme, e: EigenData) -> KreinTable:
    """Closed-formula Krein parameters, with the nonnegativity condition checked.

    q_ij^h = (m_i m_j / |X|) S_ijh, where S_ijh = sum_u P_iu P_ju P_hu / k_u^2
    is symmetric in i, j and h.  So S is computed once per i <= j <= h, as
    the inner product (RealAlgebraicField.dot, one reduce) of row h of P with
    w_ij[u] = P_iu P_ju / k_u^2, built once per pair i <= j.  Every q_ij^h is
    S at its sorted indices times the positive rational m_i m_j / |X|, so
    signing the C(d+3, 3) values of S decides nonnegativity.
    """
    d, n = s.d, s.n
    m = e.multiplicities
    p = e.p_matrix
    field = e.field
    inv_k2 = [Fraction(1, k * k) for k in s.valencies]
    core = {}
    for i in range(d + 1):
        for j in range(i, d + 1):
            w = [p[i][u] * p[j][u] * inv_k2[u] for u in range(d + 1)]
            for h in range(j, d + 1):
                core[i, j, h] = field.dot(w, p[h])
    table = []
    for i in range(d + 1):
        layer = []
        for j in range(d + 1):
            scale = Fraction(m[i] * m[j], n)
            layer.append(tuple(core[tuple(sorted((i, j, h)))] * scale for h in range(d + 1)))
        table.append(tuple(layer))
    for j in range(d + 1):
        for h in range(d + 1):
            expected = 1 if j == h else 0
            if table[0][j][h] != expected:
                raise AssertionError("q[0][j]^h must be delta_(j=h)")
    nonnegative = all(v.sign() >= 0 for v in core.values())
    return KreinTable(tuple(table), nonnegative)


ORACLE_MAX_POINTS = 50  # krein_oracle builds |X| x |X| idempotents; a larger scheme is refused


def krein_oracle(s: AssociationScheme, e: EigenData) -> tuple:
    """Literal expansion of E_i o E_j in the idempotent basis.

    Builds the actual idempotents as |X| x |X| matrices over the shared
    field, takes entrywise products and reads coefficients off with traces:
    q_{ij}^h = |X| tr((E_i o E_j) E_h) / m_h.  Independent of the closed
    formula.
    """
    if s.n > ORACLE_MAX_POINTS:
        raise SchemeError(f"oracle expansion capped at {ORACLE_MAX_POINTS} points")
    d, n = s.d, s.n
    field = e.field
    # E_h[x][y] = Q[relation[x][y]][h] / n
    inv_n = Fraction(1, n)
    e_mats = []
    for h in range(d + 1):
        qcol = [e.q_matrix[u][h] * inv_n for u in range(d + 1)]
        e_mats.append([[qcol[r] for r in row] for row in s.relation])
    out = []
    for i in range(d + 1):
        layer = []
        for j in range(d + 1):
            had = [[e_mats[i][x][y] * e_mats[j][x][y] for y in range(n)] for x in range(n)]
            row = []
            for h in range(d + 1):
                acc = field.constant(0)
                for x in range(n):
                    ex = e_mats[h][x]
                    hx = had[x]
                    for y in range(n):
                        acc = acc + hx[y] * ex[y]
                row.append(acc * Fraction(n, e.multiplicities[h]))
            layer.append(tuple(row))
        out.append(tuple(layer))
    return tuple(out)


# -- polynomial orderings of the idempotents ---------------------------------------------------


@dataclass(frozen=True)
class QPolyStructure:
    """One polynomial ordering of the idempotents, as its Krein array.

    system is the transposed reordered (q_{1,j}^h) matrix, a row-sum system
    with kappa = m: alpha holds a_0*..a_D*, beta b_0* = m..b_{D-1}* and
    gamma c_1* = 1..c_D*, and None at class 1, where no dual check applies
    (so d and m are fields).  q_column is the E_1 column of Q in descending order for
    scheme orderings and None for Krein arrays, whose dual eigenvalues are
    the system's spectrum.  The scheme's eigendata and Krein table stay
    with the caller, which passes them to the checks that read them.
    """

    d: int
    m: Fraction
    system: TridiagonalSystem | None
    q_column: tuple | None
    idempotent_order: tuple[int, ...] | None
    descending_matches_input: bool | None

    @property
    def provenance(self) -> str:
        return "krein_array" if self.q_column is None else "scheme"

    @cached_property
    def spectrum(self) -> tridiagonal.SpectrumReport:
        """The system's exact spectrum, computed on first use.

        Rational systems isolate the roots of F_D, which the bounds then
        report as roots of F_D; a system with field entries takes the
        certified Q column.
        """
        if self.system is None:
            raise SchemeError("the dual checks need class at least 2")
        if self.system.is_rational():
            return tridiagonal.spectrum(self.system)
        return self.certified_q_column

    @cached_property
    def certified_q_column(self) -> tridiagonal.SpectrumReport:
        """The Q column below m, certified as the system's spectrum (scheme orderings).

        Raises AssertionError when some value is no root of F_D.
        """
        return tridiagonal.certify_spectrum(self.system, self.q_column[1:])

    @property
    def dual_eigenvalues(self) -> tuple:
        """theta_0* = m > theta_1* > ... > theta_D*."""
        return self.spectrum.eigenvalues if self.q_column is None else self.q_column

    def implied_krein(self, m3) -> tuple | None:
        """(q_23^3, q_33^3) that a class-3 array with a_3* = 0 forces, given its m_3.

        With c_3* = m, q_23^3 = m(b_2*-1)/c_2* and q_33^3 = m_3 - 1 - q_23^3;
        None when a_3* != 0, where no such formula applies.
        """
        system = self.system
        if system.gamma[2] != self.m:
            return None
        q233 = self.m * (system.beta[2] - 1) / system.gamma[1]
        return q233, m3 - 1 - q233


def find_q_orderings(s: AssociationScheme, e: EigenData, table: KreinTable) -> list[QPolyStructure]:
    """Every idempotent ordering whose (q_{1,j}^h) is irreducible tridiagonal.

    Orderings are generated by the three-term chain: starting from E_0 and a
    designated E_1, the support of q_{1, last}^. must introduce exactly one
    new idempotent per step.  Full tridiagonality and positive off-diagonals
    are re-verified on the reordered matrix, and the dual eigenvalues (the
    E_1 column of Q) are arranged in strictly descending order by permuting
    the relations; the permutation is reported when it differs from the
    input order.  e and table are the scheme's eigendata and Krein table.
    """
    d = s.d
    out = []
    for e1 in range(1, d + 1):
        order = _three_term_chain(table, d, e1)
        if order is None:
            continue
        qs = _structure_from_ordering(s, e, table, order)
        if qs is not None:
            out.append(qs)
    return out


def _three_term_chain(table: KreinTable, d: int, e1: int) -> list[int] | None:
    order = [0, e1]
    used = {0, e1}
    while len(order) < d + 1:
        last = order[-1]
        prev = order[-2]
        support = {h for h in range(d + 1) if not table.q[e1][last][h].is_zero()}
        new = support - {prev, last}
        if len(new) != 1:
            return None
        nxt = new.pop()
        if nxt in used:
            return None
        order.append(nxt)
        used.add(nxt)
    last, prev = order[-1], order[-2]
    support = {h for h in range(d + 1) if not table.q[e1][last][h].is_zero()}
    if not support <= {prev, last}:
        return None
    return order


def _structure_from_ordering(s, e: EigenData, table: KreinTable, order: list[int]) -> QPolyStructure | None:
    d = s.d
    e1 = order[1]
    q = table.q
    b1 = [[q[e1][order[a]][order[b]] for b in range(d + 1)] for a in range(d + 1)]
    for a in range(d + 1):
        for b in range(d + 1):
            if abs(a - b) >= 2 and not b1[a][b].is_zero():
                return None
    for a in range(d):
        if b1[a][a + 1].sign() <= 0 or b1[a + 1][a].sign() <= 0:
            return None
    m = Fraction(e.multiplicities[e1])
    # dual eigenvalues: the E_1 column of Q, one per relation, sorted descending
    col = [e.q_matrix[u][e1] for u in range(d + 1)]
    perm = _descending_permutation(col)
    if perm is None:
        # an irreducible tridiagonal Krein matrix has distinct eigenvalues
        raise SoundnessAlarm("dual eigenvalues tie under a verified tridiagonal ordering")
    theta = tuple(col[u] for u in perm)
    if theta[0] != m:
        raise SoundnessAlarm("largest dual eigenvalue must equal the multiplicity m")
    if perm[0] != 0:
        raise SoundnessAlarm("the identity relation must carry the largest dual eigenvalue")
    return QPolyStructure(
        d=d,
        m=m,
        system=_transpose_system(e.field, m, b1) if d >= 2 else None,
        q_column=theta,
        idempotent_order=tuple(order),
        descending_matches_input=(list(perm) == list(range(d + 1))),
    )


def _transpose_system(field, m: Fraction, b1) -> TridiagonalSystem:
    """The transpose of the ordered Krein matrix b1 as a row-sum system, kappa = m.

    Entries become Fractions when all are rational.  Raises SoundnessAlarm
    when the transpose fails the row-sum condition: for a genuine
    polynomial ordering it cannot.
    """
    d = len(b1) - 1
    entries = (
        tuple(b1[j][j] for j in range(d + 1)),  # a_j*
        tuple(b1[j + 1][j] for j in range(d)),  # b_j*
        tuple(b1[j - 1][j] for j in range(1, d + 1)),  # c_j*
    )
    rational = [[scalar_as_fraction(v) for v in row] for row in entries]
    try:
        if all(v is not None for row in rational for v in row):
            return TridiagonalSystem(d, *map(tuple, rational), m)
        return TridiagonalSystem(d, *entries, field.constant(m))
    except InvalidSystem as exc:
        problems = "; ".join(exc.violations)
        raise SoundnessAlarm(f"transpose of the ordered Krein matrix violates the row-sum condition: {problems}")


def _descending_permutation(col) -> list[int] | None:
    """The indices of col by descending value, compared exactly; None on a tie (not Q-polynomial then)."""
    order = sorted(range(len(col)), key=cmp_to_key(lambda u, w: exact_sign(col[w] - col[u])))
    if any(col[u] == col[w] for u, w in zip(order, order[1:])):
        return None
    return order


# -- Krein-array ingestion -----------------------------------------------------------------------

# The Krein-array size policy: a larger class is an input error (exit 1), never a run of minutes.
# {D+1, 1, ..., 1; 1, ..., 1, D+1} took 8.8 s at D = 64 and 133 s at D = 100; at D = 64, entries of
# seven digits took 60 s.  The slowest accepted graph, J(12,4), takes 180 s (2 vCPUs, Python 3.11.7).
MAX_CLASS = 64
# The entry-size policy beside it: a numerator or denominator of more digits is an input error.
# At class 64, {65, 1, ..., 1; 1, ..., 1, 65} took 6.7 s, and b* = (m, x/7, ..., x/7),
# c* = (1, y/30, ..., y/30, m) with m = 10^(d-1) + 1 and x, y of d digits took 9.7/37/71/188 s
# for d = 4/7/10/13, while J(12,4) took 42 s (2 vCPUs, Python 3.11.7).
MAX_ENTRY_DIGITS = 7


def krein_array_structure(obj: dict) -> QPolyStructure:
    """Parameter-level structure from {"type": "krein_array", ...} JSON.

    Dual-side checks run on these; primal-side operations are unavailable
    and marked by the provenance.  This is where b_0* = m is checked: the
    structure's m is b_0*.
    """
    if not isinstance(obj, dict) or obj.get("type") != "krein_array":
        raise SchemeError("krein JSON needs type='krein_array'")
    for key in ("class", "m", "b_star", "c_star"):
        if key not in obj:
            raise SchemeError(f"krein JSON missing field {key!r}")
    d = obj["class"]
    if type(d) is not int:
        raise SchemeError("'class' must be an integer")
    if d < 2:
        raise SchemeError("class must be at least 2")
    if d > MAX_CLASS:
        raise SchemeError(f"class {d} exceeds the limit of {MAX_CLASS}")
    if not (isinstance(obj["b_star"], list) and isinstance(obj["c_star"], list)):
        raise SchemeError("b_star and c_star must be lists of rational strings")
    try:
        m = parse_rat(obj["m"])
        b = [parse_rat(v) for v in obj["b_star"]]
        c = [parse_rat(v) for v in obj["c_star"]]
    except ValueError as exc:
        raise SchemeError(f"malformed rational in krein array: {exc}") from exc
    if len(b) != d or len(c) != d:
        raise SchemeError("b_star needs D entries (b_0*..b_{D-1}*), c_star D entries (c_1*..c_D*)")
    if any(abs(v) > sys.float_info.max for v in (m, *b, *c)):
        raise SchemeError("an entry exceeds the float range of the decimal annotations")
    if any(max(abs(v.numerator), v.denominator) >= 10**MAX_ENTRY_DIGITS for v in (m, *b, *c)):
        raise SchemeError(f"an entry exceeds the limit of {MAX_ENTRY_DIGITS} digits in numerator or denominator")
    if b[0] != m:
        raise SchemeError("b_0* must equal m")
    if c[0] != 1:
        raise SchemeError("c_1* must equal 1")
    return structure_from_dual_parameters(b, c)


def structure_from_dual_parameters(b: Sequence[Fraction], c: Sequence[Fraction]) -> QPolyStructure:
    """The Krein array {b*; c*} as its row-sum system alone, m = b_0*; SchemeError when it fails the condition."""
    try:
        system = TridiagonalSystem.from_intersection_numbers(b, c)
    except InvalidSystem as exc:
        raise SchemeError("dual parameters violate the row-sum condition: " + "; ".join(exc.violations)) from None
    return QPolyStructure(system.d, system.kappa, system, None, None, None)


# -- systems and theorem hooks --------------------------------------------------------------------


def b1star_spectral_identity(qs: QPolyStructure) -> bool:
    """Eigenvalues of the transpose system equal the dual eigenvalues, as multisets.

    One route for every scheme ordering, rational or not: F_D is evaluated
    at each Q-column value in the ordering's number field and must vanish.
    The column is strictly descending by construction, and D distinct roots
    of the degree-D polynomial F_D are its whole spectrum.  Scheme orderings
    only: a Krein array has no Q column, and its dual eigenvalues are its
    spectrum by definition.
    """
    try:
        qs.certified_q_column
    except AssertionError:
        return False
    return True


@dataclass(frozen=True)
class DualBoundsResult:
    part1: BoundCheck
    part2: TripleBoundResult | None


def dual_bounds(qs: QPolyStructure) -> DualBoundsResult:
    """The pair bound and (class >= 3) triple bound on the transpose system."""
    part1 = tridiagonal.pair_bound(qs.system, qs.spectrum)
    part2 = tridiagonal.triple_bound(qs.system, qs.spectrum) if qs.d >= 3 else None
    return DualBoundsResult(part1, part2)


@dataclass(frozen=True)
class DualFundamentalBound:
    lhs: object
    rhs: object
    holds: bool
    equality: bool
    q_bipartite: bool
    dual_tight: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": value_json(self.lhs),
            "rhs": value_json(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
            "q_bipartite": self.q_bipartite,
            "dual_tight": self.dual_tight,
        }


def dual_fundamental_bound(qs: QPolyStructure) -> DualFundamentalBound:
    """(t1* + m/(a1*+1))(tD* + m/(a1*+1)) >= -m a1* b1*/(a1*+1)^2.

    dual_tight means equality in a structure that is not Q-bipartite (some
    a_i* nonzero).
    """
    report = qs.spectrum
    a1, b1 = qs.system.alpha[1], qs.system.beta[1]
    inv = 1 / (a1 + 1)
    rhs = -(inv * inv * a1 * b1 * qs.m)
    cmp, lhs = tridiagonal._shifted_product(report, (1, qs.d), inv * qs.m, rhs)
    qbip = all(a == 0 for a in qs.system.alpha)
    equality = cmp == 0
    return DualFundamentalBound(lhs, rhs, cmp >= 0, equality, qbip, equality and not qbip)


# -- class-3 dual-tight audit ----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRecord:
    name: str
    passed: bool | None  # None: not checkable for this provenance
    note: str = ""
    lhs: object = None
    rhs: object = None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.note:
            out["note"] = self.note
        if self.lhs is not None:
            out["lhs"] = value_json(self.lhs)
        if self.rhs is not None:
            out["rhs"] = value_json(self.rhs)
        return out


@dataclass(frozen=True)
class AuditReport:
    records: tuple[AuditRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None)

    @property
    def b2star_is_1(self) -> bool:
        return self.record("b2star_is_1").passed

    @property
    def b1star_eq_c2star(self) -> bool:
        return self.record("b1star_eq_c2star").passed

    @property
    def q_antipodal(self) -> bool:
        return self.record("q_antipodal").passed

    def record(self, name: str) -> AuditRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "records": [r.to_json_dict() for r in self.records],
            "b2star_is_1": self.b2star_is_1,
            "b1star_eq_c2star": self.b1star_eq_c2star,
            "q_antipodal": self.q_antipodal,
            "all_passed": self.all_passed,
        }


def class3_feasibility(qs: QPolyStructure, genuine: bool = True) -> tuple[str, str] | None:
    """The rational filters a class-3 Krein array must pass to belong to a scheme.

    multiplicity: the implied m_3 = m b_1* b_2* / (c_2* c_3*), positive as
    b* and c* are, is an integer when genuine.  krein_condition: with a_3* = 0 (c_3* = m)
    the parameters force q_23^3 and q_33^3 (QPolyStructure.implied_krein),
    and both must be nonnegative.  Returns (stage, reason) of the
    first failure, None when every filter passes.  The scanner and the
    Krein-array checks of check-scheme both call it.
    """
    m3 = tridiagonal.valencies(qs.system)[3]
    if genuine and m3.denominator != 1:
        return "multiplicity", "m_3 must be an integer for a genuine scheme"
    implied = qs.implied_krein(m3)
    if implied is not None:
        q233, q333 = implied
        if q233 < 0:
            return "krein_condition", "implied q_23^3 is negative"
        if q333 < 0:
            return "krein_condition", "implied q_33^3 is negative"
    return None


def class3_dualtight_audit(
    qs: QPolyStructure, bound: DualFundamentalBound, e: EigenData | None, table: KreinTable | None
) -> AuditReport:
    """Every identity in the class-3 dual-tight chain, checked exactly.

    Preconditions: class 3 and dual_tight, as bound (the structure's dual
    fundamental bound) records.  q_23^3, q_33^3 and m_3 are read from e and
    table, the scheme's eigendata and Krein table, for a scheme ordering;
    for a Krein array both are None and the formulas define those values.
    The cofactor oracle runs on the system's (D+1) x (D+1) row-sum matrix.
    Division guards (a_1* = 0 or m - b_1* - 1 = 0) are reported as failing
    records with a diagnostic rather than assumed away; a dual-tight
    instance with a_3* != 0 is flagged as a finding, not an internal error.
    """
    if qs.d != 3:
        raise SchemeError("audit applies to class-3 structures")
    if not bound.dual_tight:
        raise SchemeError("audit applies to dual-tight structures")
    scheme = qs.provenance == "scheme"
    if (e is not None, table is not None) != (scheme, scheme):
        raise SchemeError("the audit takes eigendata and a Krein table for a scheme ordering, neither for a Krein array")

    records: list[AuditRecord] = []
    m = qs.m
    alpha, beta, gamma = qs.system.alpha, qs.system.beta, qs.system.gamma
    a1, b1, b2, c2, c3 = alpha[1], beta[1], beta[2], gamma[1], gamma[2]
    th1, th2, th3 = qs.dual_eigenvalues[1], qs.dual_eigenvalues[2], qs.dual_eigenvalues[3]
    if not scheme:
        # the identity checks below multiply eigenvalues, which takes them
        # into one number field (AlgebraicReal only compares)
        _, (th1, th2, th3) = field_containing([th1, th2, th3])

    a1_zero = a1 == 0
    records.append(
        AuditRecord(
            "a1star_nonzero",
            not a1_zero,
            note="division guard: the chain divides by a_1* and by m - b_1* - 1",
            lhs=a1,
        )
    )

    a3 = alpha[3]
    a3_zero = a3 == 0
    records.append(
        AuditRecord(
            "a3star_zero",
            a3_zero,
            note="" if a3_zero else "research-grade finding: dual-tight with a_3* != 0",
            lhs=a3,
        )
    )

    # tightness restated: th1 th3 + (m/(m-b1))(th1 + th3) = -m(b1+1)/(m-b1);
    # holds for any dual-tight structure, no shape assumption
    inv_mb1 = 1 / (m - b1)  # m - b1 = a1 + 1 > 0
    tight_lhs = th1 * th3 + (th1 + th3) * (inv_mb1 * m)
    tight_rhs = -(inv_mb1 * m * (b1 + 1))
    records.append(AuditRecord("bound_equation", tight_lhs == tight_rhs, lhs=tight_lhs, rhs=tight_rhs))

    ratio_lhs = th1 * th3
    ratio_rhs = m * th2
    records.append(AuditRecord("ratio_relation", ratio_lhs == ratio_rhs, lhs=ratio_lhs, rhs=ratio_rhs))

    b2_is_1 = b2 == 1
    if not a3_zero:
        # every remaining identity is developed from the a_3* = 0 matrix
        # shape; computing it here would assert formulas that do not apply
        note = "not derivable: the identity chain assumes a_3* = 0"
        for name in (
            "charpoly_factorization",
            "sum_relation",
            "product_relation",
            "middle_square",
            "middle_value",
            "q233_formula",
            "q233_nonnegative",
            "m3_formula",
            "product_rule_bound",
            "multiplicity_bound",
        ):
            records.append(AuditRecord(name, None, note=note))
    else:
        # the characteristic polynomial of the row-sum matrix (that of its
        # transpose, the ordered Krein matrix) factors as
        # (x - m)(x^3 + (b1+b2+c2+1-m) x^2 + (b1 b2 + b2 + c2 - m b2 - m) x - m b2)
        phi = tridiagonal.charpoly_by_cofactor(tridiagonal.row_sum_matrix(qs.system))
        if isinstance(phi, RationalPoly):
            phi = list(phi.coeffs)
        e2 = b1 + b2 + c2 + 1 - m
        e1 = b1 * b2 + b2 + c2 - m * b2 - m
        e0 = -(m * b2)
        expected = [-m * e0, e0 - m * e1, e1 - m * e2, e2 - m, 1]  # the product, constant first
        records.append(AuditRecord("charpoly_factorization", phi == expected))

        sum_lhs = th1 + th2 + th3
        sum_rhs = m - b1 - b2 - c2 - 1
        records.append(AuditRecord("sum_relation", sum_lhs == sum_rhs, lhs=sum_lhs, rhs=sum_rhs))

        prod_lhs = th1 * th2 * th3
        prod_rhs = m * b2
        records.append(AuditRecord("product_relation", prod_lhs == prod_rhs, lhs=prod_lhs, rhs=prod_rhs))

        sq_lhs = th2 * th2
        records.append(AuditRecord("middle_square", sq_lhs == b2, lhs=sq_lhs, rhs=b2))

        if a1_zero:
            records.append(
                AuditRecord("middle_value", False, note="division guard failed: m - b_1* - 1 = 0", lhs=th2)
            )
        else:
            mv_rhs = -((m - b2 - c2) / (m - b1 - 1))
            records.append(AuditRecord("middle_value", th2 == mv_rhs, lhs=th2, rhs=mv_rhs))

        m3_formula = b1 * b2 / c2
        q233_formula, q333_formula = qs.implied_krein(m3_formula)  # a_3* = 0, so c_3* = m
        if scheme:
            o = qs.idempotent_order
            q233, q333 = table.q[o[2]][o[3]][o[3]], table.q[o[3]][o[3]][o[3]]
            m3_actual = Fraction(e.multiplicities[o[3]])
            q233_record = AuditRecord("q233_formula", q233 == q233_formula, lhs=q233, rhs=q233_formula)
            m3_record = AuditRecord("m3_formula", m3_formula == m3_actual, lhs=m3_formula, rhs=m3_actual)
        else:
            q333 = q333_formula
            q233_record = AuditRecord("q233_formula", None, note="parameter-level input: value defined by the formula", rhs=q233_formula)
            m3_record = AuditRecord("m3_formula", None, note="parameter-level input: m_3 defined by the formula", rhs=m3_formula)
        records.append(q233_record)
        records.append(AuditRecord("q233_nonnegative", exact_sign(b2 - 1) >= 0, lhs=b2))
        records.append(m3_record)

        # b2*(m - b1*) >= m - c2*, equality exactly when b2* = 1
        u_lhs = b2 * (m - b1)
        u_rhs = m - c2
        u_sign = exact_sign(u_lhs - u_rhs)
        records.append(
            AuditRecord(
                "product_rule_bound",
                u_sign >= 0 and ((u_sign == 0) == b2_is_1),
                note="equality must coincide with b_2* = 1",
                lhs=u_lhs,
                rhs=u_rhs,
            )
        )

        # m - c2* >= b2*(m - b1*), equality exactly when q_33^3 = 0
        l_sign = exact_sign(u_rhs - u_lhs)
        q333_zero = q333 == 0
        records.append(
            AuditRecord(
                "multiplicity_bound",
                l_sign >= 0 and ((l_sign == 0) == q333_zero),
                note="equality must coincide with q_33^3 = 0",
                lhs=u_rhs,
                rhs=u_lhs,
            )
        )

    records.append(AuditRecord("b2star_is_1", b2_is_1, lhs=b2))
    records.append(AuditRecord("b1star_eq_c2star", b1 == c2, lhs=b1, rhs=c2))
    note = "b_2* = 1 and c_3* = m" if a3_zero else "c_3* != m"  # a_3* = m - c_3*
    records.append(AuditRecord("q_antipodal", b2_is_1 and c3 == m, note=note, lhs=c3, rhs=m))
    return AuditReport(tuple(records))


# -- the class-3 classification ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyReport:
    orderings: int  # the number of polynomial orderings
    dual_tight: bool
    incidence_relation: int | None
    design_params: tuple[int, int, int] | None
    biconditional_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "dual_tight": self.dual_tight,
            "incidence_relation": self.incidence_relation,
            "design_params": list(self.design_params) if self.design_params else None,
            "primal_available": True,  # a classified scheme always has its point set
            "biconditional_ok": self.biconditional_ok,
            "orderings": self.orderings,
        }


def _symmetric_design_array(system: TridiagonalSystem) -> tuple[int, int, int] | None:
    """Match the intersection array {k, k-1, k-lam; 1, lam, k} for integers k > lam >= 1, nondegenerate.

    Degenerate designs with lam = k - 1 (complete designs) are excluded:
    their incidence schemes are Q-bipartite, so they can never be
    dual-tight and would falsify the classification if admitted.
    """
    if system.d != 3:
        return None
    k = int(system.kappa)
    lam = int(system.gamma[1])
    if system.beta != (k, k - 1, k - lam):
        return None
    if system.gamma != (1, lam, k):
        return None
    if not (k > lam >= 1) or k - lam < 2:
        return None
    v = 1 + k * (k - 1) // lam  # 1 + k_2, an integer by intersection_array's check
    return (v, k, lam)


def classify_class3_scheme(scheme: AssociationScheme, dual_tight: Sequence[bool]) -> ClassifyReport:
    """Dual-tightness versus the symmetric-design incidence relation.

    For a class-3 scheme: dual-tight holds exactly when some nonidentity
    relation graph is the incidence graph of a (nondegenerate) symmetric
    design.  dual_tight holds each polynomial ordering's dual-tight flag,
    from its dual fundamental bound, in ordering order; the design side is
    read from the relation graphs, independently of them.  A mismatch is
    reported as a falsification alarm via biconditional_ok = False.
    """
    if scheme.d != 3:
        raise SchemeError("classification applies to class-3 schemes")
    if not dual_tight:
        raise SchemeError("scheme has no polynomial ordering of idempotents")
    tight = any(dual_tight)

    incidence_rel = None
    params = None
    for i in range(1, scheme.d + 1):
        if i == 1 and scheme.graph_classification is not None:
            classification = scheme.graph_classification  # the graph the scheme came from
        else:
            graph = scheme.relation_graph(i)
            if not graph.is_connected():
                continue
            classification = classify_regularity(graph)
        if not classification.distance_regular:
            continue
        match = _symmetric_design_array(intersection_array(classification))
        if match is not None and 2 * match[0] == scheme.n:
            incidence_rel = i
            params = match
            break
    return ClassifyReport(len(dual_tight), tight, incidence_rel, params, tight == (incidence_rel is not None))

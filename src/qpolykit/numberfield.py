"""Arithmetic in real algebraic number fields.

This is the package's one arithmetic between irrational algebraic numbers:
values are moved into a common field (field_containing) and combined there.
A FieldElement is a number like Fraction: +, -, *, /, == and != mix it
with Fraction and int, and exact_sign signs any exact scalar.
AlgebraicReal only isolates and compares.

A RealAlgebraicField is Q[y] modulo a monic irreducible rational
polynomial, together with a certified root gamma of it (an AlgebraicReal).
It has one constructor, which takes that root; from_root builds Q(a) for
any algebraic real a on the irreducible factor of a.poly vanishing at a
(``irreducible_factors``), and rationals() is the field of the root 0.

Every element is kept as its canonical residue: Fraction coefficients of
the powers of gamma below the degree of the modulus, with no trailing zero.
One remainder loop by the monic modulus (``reduce``) builds that form for
new elements and products, so zero is the empty tuple, equality is tuple
equality, and zero tests and rational read-outs never reduce again nor
refine gamma.  Since the modulus is irreducible, every nonzero element is a
unit.  A product by an int or Fraction scales the residue's coefficients,
which keeps it canonical, so it needs no reduce; an inner product of two
sequences of elements (``RealAlgebraicField.dot``) accumulates every
coefficient product into one unreduced list and reduces once.  A report
reads an element as an AlgebraicReal (``FieldElement.to_algebraic``); the
field converts each residue once (``value_of``), keyed on the residue and
gamma's interval, since sign decisions refine gamma in place.

Several algebraic numbers are combined into one field with adjoin_root,
which finds a primitive element gamma_old + t*beta through its minimal
polynomial in the tensor ring (the squarefree part of the characteristic
polynomial of the Kronecker sum C_1 (x) I + t I (x) C_2 of the two
companion matrices, ``linalg.charpoly``), isolates it among the isolated
roots of that polynomial's irreducible factors (``algebraics.roots_in``),
builds the new field on the factor holding it and rewrites both generators
in terms of it.  That rewriting gcd (_gcd_monic) is the one polynomial with
field coefficients the package builds.  sign_coeffs and adjoin_root refine
gamma until an enclosure decides, and give up by the package's one rule,
``algebraics.round_limit``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Sequence

from .algebraics import AlgebraicReal, _defining_poly_image, _interval_eval, apply_rational_poly
from .algebraics import compare_rational, isolate_real_roots, round_limit, roots_in
from .linalg import charpoly, companion, kron_sum
from .polynomials import RationalPoly, _trim, irreducible_factors, squarefree_part


def _minimal_factor(a: AlgebraicReal) -> RationalPoly:
    """The monic irreducible factor of a.poly that vanishes at the irrational a.

    a.poly changes sign across [a.lo, a.hi] and has no other root there, so
    exactly one factor changes sign too.
    """
    hits = [g for g in irreducible_factors(a.poly) if g.sign_at(a.lo) != g.sign_at(a.hi)]
    if len(hits) != 1:
        raise AssertionError("isolating interval does not select one irreducible factor")
    return hits[0]


def _root_of(factor: RationalPoly, lo: Fraction, hi: Fraction) -> AlgebraicReal:
    """The one root of the monic irreducible factor in [lo, hi], a point when it is rational."""
    if factor.degree == 1:
        return AlgebraicReal.from_rational(-factor[0])
    return AlgebraicReal(factor, lo, hi, _checked=True)


class RealAlgebraicField:
    """Q[y]/(modulus) with a selected real root of the modulus."""

    def __init__(self, gen: AlgebraicReal):
        """The field of gen, a certified root of gen.poly, its monic irreducible modulus."""
        self._gen = gen
        self._modulus = gen.poly
        self._tail = tuple((i, c) for i, c in enumerate(gen.poly.coeffs[:-1]) if c)
        self._values: dict[tuple, AlgebraicReal] = {}  # value_of's results, keyed by residue and gen's interval

    @classmethod
    def rationals(cls) -> "RealAlgebraicField":
        return cls(AlgebraicReal.from_rational(0))

    @classmethod
    def from_root(cls, a: AlgebraicReal) -> tuple["RealAlgebraicField", "FieldElement"]:
        r = a.as_rational()
        f = cls(_root_of(RationalPoly((-r, 1)) if r is not None else _minimal_factor(a), a.lo, a.hi))
        return f, f.generator()

    # -- basic state --------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._modulus.degree

    @property
    def modulus(self) -> RationalPoly:
        return self._modulus

    def generator(self) -> "FieldElement":
        return self.element((0, 1))

    def generator_value(self) -> AlgebraicReal:
        return self._gen

    def element(self, coeffs: Sequence[Fraction | int]) -> "FieldElement":
        return FieldElement(self, self.reduce([Fraction(c) for c in coeffs]))

    def constant(self, c: Fraction | int) -> "FieldElement":
        return FieldElement(self, (Fraction(c),) if c else ())

    def __repr__(self) -> str:
        return f"RealAlgebraicField({self._modulus.to_str()} @ [{self._gen.lo}, {self._gen.hi}])"

    # -- canonical residues -------------------------------------------------------

    def reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        """The canonical residue of sum c_k y^k; consumes the list coeffs.

        One remainder loop by the monic modulus: each top coefficient above
        the degree d is cancelled by its multiple of the modulus.
        """
        d = self._modulus.degree
        for k in range(len(coeffs) - 1, d - 1, -1):
            top = coeffs.pop()
            if top:
                for i, c in self._tail:
                    coeffs[k - d + i] -= top * c
        return tuple(_trim(coeffs))

    def value_of(self, coeffs: tuple[Fraction, ...]) -> AlgebraicReal:
        """The canonical residue at gamma as an AlgebraicReal, converted once per residue.

        sign_coeffs refines gamma in place, and the conversion starts from
        gamma's interval, so the memo is keyed on that interval too: each
        result is a pure function of its key.
        """
        gen = self._gen
        key = (coeffs, gen.lo, gen.hi)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = apply_rational_poly(RationalPoly(coeffs), gen)
        return value

    def dot(self, xs: Sequence["FieldElement"], ys: Sequence["FieldElement"]) -> "FieldElement":
        """sum_u xs[u] * ys[u], with one reduce for the whole sum instead of one per term."""
        out = [Fraction(0)] * (2 * self.degree - 1)
        for x, y in zip(xs, ys, strict=True):
            if x.field is not self or y.field is not self:
                raise ValueError("elements of different fields; join them first")
            b = y.coeffs
            for i, ca in enumerate(x.coeffs):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return FieldElement(self, self.reduce(out))

    def sign_coeffs(self, coeffs: tuple[Fraction, ...]) -> int:
        """Sign of a canonical residue at gamma, refining gamma until it is decided.

        e(gamma) is a nonzero root of the characteristic polynomial of multiplication
        by e, and on gamma's [lo, hi] inside [-R, R] its enclosure is at most (hi - lo)
        sum_i i |e_i| R^(i-1) wide: 0 leaves it within the round cap (``round_limit``).
        """
        if not coeffs:
            return 0
        e = RationalPoly(coeffs)
        start = self._gen

        def bound():
            big_r = max(abs(start.lo), abs(start.hi))
            width = (start.hi - start.lo) * sum(i * abs(c) * big_r ** (i - 1) for i, c in enumerate(coeffs) if i)
            return _defining_poly_image(e, self._modulus) * RationalPoly((0, 1)), width

        limit = round_limit("field sign refined past its round cap", bound)
        for rounds in count():
            gen = self._gen
            if gen.lo == gen.hi:
                v = e.evaluate(gen.lo)
                return (v > 0) - (v < 0)
            lo, hi = _interval_eval(e, gen.lo, gen.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            limit(rounds)
            # the irreducible modulus of degree >= 2 has no rational root, so no step hits one
            self._gen = gen.refine()


def _half_ext_gcd(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """(g, u) with u*a = g mod b, g = gcd(a, b) up to normalization."""
    r0, r1 = a, b
    u0, u1 = RationalPoly.one(), RationalPoly.zero()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return r0, u0


class FieldElement:
    """A value p(gamma) in a RealAlgebraicField; supports exact field arithmetic.

    coeffs is the canonical residue of p (see the module docstring); build
    elements from any other coefficients with RealAlgebraicField.element.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RealAlgebraicField, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    # -- state ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def sign(self) -> int:
        return self.field.sign_coeffs(self.coeffs)

    def as_fraction(self) -> Fraction | None:
        c = self.coeffs
        if len(c) > 1:
            return None
        return c[0] if c else Fraction(0)

    def to_algebraic(self) -> AlgebraicReal:
        return self.field.value_of(self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({RationalPoly(self.coeffs).to_str('g')})"

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields; join them first")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.constant(other)
        raise TypeError(f"cannot mix FieldElement with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FieldElement(self.field, tuple(_trim(out)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a nonzero rational keeps every coefficient nonzero: still canonical
            if not other:
                return FieldElement(self.field, ())
            return FieldElement(self.field, tuple(c * other for c in self.coeffs))
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return FieldElement(self.field, ())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FieldElement(self.field, self.field.reduce(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero field element")
        g, u = _half_ext_gcd(RationalPoly(self.coeffs), self.field.modulus)
        if g.degree != 0:
            raise AssertionError("a nonzero element shares a factor with the irreducible modulus")
        return FieldElement(self.field, self.field.reduce(list(u.scale(1 / g[0]).coeffs)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.coeffs == self._coerce(other).coeffs
        return NotImplemented

    __hash__ = None


# -- scalar helpers shared across modules ------------------------------------------


def exact_sign(x) -> int:
    """Sign of an exact scalar (Fraction, int, FieldElement, AlgebraicReal)."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if isinstance(x, FieldElement):
        return x.sign()
    if isinstance(x, AlgebraicReal):
        return compare_rational(x, 0)
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def scalar_as_fraction(x) -> Fraction | None:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, FieldElement):
        return x.as_fraction()
    if isinstance(x, AlgebraicReal):
        return x.as_rational()
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


# -- adjoining roots -------------------------------------------------------------------


def adjoin_root(
    field: RealAlgebraicField, beta: AlgebraicReal
) -> tuple[RealAlgebraicField, FieldElement, FieldElement]:
    """Smallest common home for field's generator and beta.

    Returns (new_field, old_generator_image, beta_image).  The new field's
    generator is gamma_old + t*beta for the first t that makes the rewriting
    gcd linear; its modulus is the minimal polynomial of that sum, the
    irreducible factor of the tensor ring's polynomial that vanishes there,
    so both images are exact.  The sum is isolated among the roots of the
    irreducible factors, each factor's roots isolated once per t: the
    enclosure gen.lo + t*beta.lo .. gen.hi + t*beta.hi is narrowed until
    exactly one of those roots lies in it, and that root's factor becomes
    the new modulus.  The sum lies strictly inside the enclosure, so no root
    is then at either end.
    """
    rb = beta.as_rational()
    pb = RationalPoly((-rb, 1)) if rb is not None else _minimal_factor(beta)
    if pb.degree == 1:
        return field, field.generator(), field.constant(-pb[0])
    if field.degree == 1:
        g0 = field.generator_value().as_rational()
        assert g0 is not None
        nf, nb = RealAlgebraicField.from_root(beta)
        return nf, nf.constant(g0), nb

    m1 = field.modulus
    d1, d2 = m1.degree, pb.degree
    gen = field.generator_value()
    for t in range(1, 8 * d1 * d2 + 2):
        mpoly = _tensor_min_poly(m1, pb, t)
        factors = irreducible_factors(mpoly)
        # isolate gamma_old + t*beta among the roots of the factors of mpoly
        roots = [isolate_real_roots(f) for f in factors]
        width = (gen.hi - gen.lo) + t * (beta.hi - beta.lo)
        limit = round_limit(
            "gamma + t*beta is not isolated among the roots of its tensor polynomial", lambda: (mpoly, width)
        )
        cur_b = beta
        for rounds in count():
            lo, hi = gen.lo + t * cur_b.lo, gen.hi + t * cur_b.hi
            hits = [f for f, rs in zip(factors, roots) for _ in roots_in(rs, lo, hi)]
            if len(hits) == 1:
                break
            limit(rounds)
            gen, cur_b = gen.refine(), cur_b.refine()
        new_field = RealAlgebraicField(_root_of(hits[0], lo, hi))
        gamma = new_field.generator()
        # rewrite: beta is the unique common root of pb(x) and m1(gamma - t*x)
        f1 = [new_field.constant(c) for c in pb.coeffs]
        f2 = _compose_linear_in_x(m1, gamma, -t)
        g = _gcd_monic(f1, f2)
        if len(g) == 2:  # linear: x + g0
            beta_img = -g[0]
            gen_img = gamma - t * beta_img
            return new_field, gen_img, beta_img
    raise AssertionError("no primitive element found; adjoin_root exhausted candidates")


def field_containing(values: Sequence[AlgebraicReal]) -> tuple[RealAlgebraicField, list[FieldElement]]:
    """One field holding every given algebraic real, with their images.

    Roots are adjoined left to right; earlier images are rewritten through
    the old generator's image after every extension.  Every adjoined
    value's image must satisfy the value's defining polynomial in the final
    field, an exact check of the rewriting, made once: each join is a field
    embedding, so an image broken by one join stays broken through the
    later ones.  A rational value's image is its constant in every field.
    """
    field = RealAlgebraicField.rationals()
    elems: list[FieldElement] = []
    for val in values:
        r = val.as_rational()
        if r is not None:
            elems.append(field.constant(r))
            continue
        field, old_img, beta_img = adjoin_root(field, val)
        elems = [eval_rational_poly(el.coeffs, old_img) for el in elems]
        elems.append(beta_img)
    for v, el in zip(values, elems):
        if v.as_rational() is None and not eval_rational_poly(v.poly.coeffs, el).is_zero():
            raise AssertionError("adjoined root lost its defining relation")
    return field, elems


def eval_rational_poly(coeffs: Sequence[Fraction], el: FieldElement) -> FieldElement:
    """p(el) by Horner, for p given by its rational coefficients, constant first.

    With p an element's coefficients and el the image of its field's
    generator, this rewrites the element into the field of el.
    """
    acc = el.field.constant(0)
    for c in reversed(coeffs):
        acc = acc * el + c
    return acc


def _compose_linear_in_x(m: RationalPoly, gamma: FieldElement, s: int) -> list:
    """m(gamma + s*x) as a polynomial in x with FieldElement coefficients.

    The leading coefficient is s**deg(m), nonzero for s != 0.
    """
    field = gamma.field
    acc: list[FieldElement] = []
    for c in reversed(m.coeffs):
        # acc <- acc*(gamma + s*x) + c
        nxt = [field.constant(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] = nxt[i] + a * gamma
            nxt[i + 1] = nxt[i + 1] + a * s
        nxt[0] = nxt[0] + c
        acc = nxt
    return acc


def _gcd_monic(a: list, b: list) -> list:
    """Monic gcd of two polynomials with FieldElement coefficients, constant first.

    Euclid with b's leading coefficient nonzero.  Elements are canonical, so
    a cancelled top coefficient is exactly zero and is dropped by is_zero.
    """
    while b:
        inv_lead = b[-1].inverse()
        rem = list(a)
        for k in range(len(rem) - len(b), -1, -1):
            c = rem[k + len(b) - 1] * inv_lead
            for j, d in enumerate(b):
                rem[k + j] = rem[k + j] - c * d
        while rem and rem[-1].is_zero():
            rem.pop()
        a, b = b, rem
    inv_lead = a[-1].inverse()
    return [c * inv_lead for c in a]


def _tensor_min_poly(m1: RationalPoly, m2: RationalPoly, t: int) -> RationalPoly:
    """Squarefree monic polynomial vanishing on a + t*b in Q[a,b]/(m1(a), m2(b)).

    Multiplication by a + t*b on the tensor ring is the Kronecker sum
    C_1 (x) I + t I (x) C_2 of the companion matrices; the squarefree part of
    its characteristic polynomial has every a_i + t b_j as a simple root.
    """
    return squarefree_part(charpoly(kron_sum(companion(m1), companion(m2), t)))

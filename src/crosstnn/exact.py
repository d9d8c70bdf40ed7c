"""Exact scalar arithmetic with sign decisions on rays.

Three scalar kinds share one arithmetic surface:

* ``Rational`` -- arbitrary-precision rationals (``fractions.Fraction``),
* :class:`Poly` -- univariate polynomials over the rationals in the base
  variable ``b``, stored as integer numerators (ascending by degree) over
  one positive integer denominator,
* :class:`RatFunc` -- reduced ratios of two such polynomials.

There is one polynomial arithmetic, over the integers: the ``_int_*``
kernels on coefficient lists, which ``Poly``, ``RatFunc``, the Sturm
chains, root deflation and the elimination's row kernel all run on.
``Fraction`` values appear only where rationals enter or leave.

Everything is immutable and float-free: total-nonnegativity verdicts are
sign decisions, and a single rounding error would invalidate a
certificate.  Signs of symbolic scalars are decided on a real ray
``[beta, inf)`` by :func:`sign_on_ray`; a query that cannot be settled on
the whole ray reports the integer bound beyond which it becomes definite,
so callers can fall back to checking the finitely many remaining integer
points.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

__all__ = [
    "Rational",
    "Poly",
    "RatFunc",
    "RaySign",
    "Scalar",
    "SignUndecidedOnRay",
    "POSITIVE_ON_RAY",
    "NEGATIVE_ON_RAY",
    "ZERO_IDENTICALLY",
    "MIXED",
    "sign_on_ray",
    "scalar_sign",
    "format_scalar",
    "parse_scalar",
    "parse_int",
    "parse_doc_scalar",
    "parse_list",
    "parse_json",
    "split_scalar_tokens",
]

# Stdlib Fraction already enforces the canonical form we need:
# reduced, positive denominator, 0/1 for zero.
Rational = Fraction

POSITIVE_ON_RAY = "positive-on-ray"
NEGATIVE_ON_RAY = "negative-on-ray"
ZERO_IDENTICALLY = "zero-identically"
MIXED = "mixed"


class Poly:
    """Univariate polynomial over the rationals.

    Stored as integer numerators, ascending by degree, over one positive
    integer denominator, in canonical form: no trailing zero numerators,
    the numerators' content coprime to the denominator, and the zero
    polynomial as ``((), 1)``.  All arithmetic runs on the numerators;
    :attr:`coeffs` gives the reduced ``Fraction`` coefficients.  Instances
    are immutable and hashable, and constants compare (and hash) equal to
    the matching ``Fraction``.  Coefficients must be ``int`` or
    ``Fraction``: a float is rejected, not rounded.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError(f"polynomial coefficients must be int or Fraction, got {coeffs!r}")
        # Each coefficient is reduced, so its numerator over the lcm of the
        # denominators is already coprime to that lcm.
        nums, self.denominator = _over_common_denominator(coeffs)
        self.numerators = tuple(_int_strip(nums))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial ``b``."""
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        """The reduced ``Fraction`` coefficients, ascending by degree."""
        den = self.denominator
        return tuple(Fraction(v, den) for v in self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    @property
    def leading(self) -> Fraction:
        return Fraction(self.numerators[-1], self.denominator) if self.numerators else Fraction(0)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, do = self.denominator, o.denominator
        den = math.lcm(da, do)
        a = [v * (den // da) for v in self.numerators]
        return _poly(_int_add(a, [v * (den // do) for v in o.numerators]), den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-v for v in self.numerators], self.denominator)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _poly(_int_mul(self.numerators, o.numerators), self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Poly((1,))
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return RatFunc(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(o, self)

    # -- evaluation and structure --------------------------------------

    def eval(self, point) -> Fraction:
        """Exact value at a rational point (Horner over the integers)."""
        x = as_rational(point)
        if not self.numerators:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        # acc = sum a_k p^k q^(m-k): each numerator from the top takes one
        # more factor q than the one above it.
        acc, scale = 0, 1
        for v in reversed(self.numerators):
            acc = acc * p + v * scale
            scale *= q
        return Fraction(acc, self.denominator * (scale // q))

    __call__ = eval

    def derivative(self) -> "Poly":
        return _poly([k * v for k, v in enumerate(self.numerators) if k], self.denominator)

    def gcd(self, other: "Poly") -> "Poly":
        """Canonical gcd: primitive integer coefficients, positive leading one."""
        return _poly(_int_poly_gcd(self.numerators, _as_poly(other).numerators)[0])

    def squarefree_part(self) -> "Poly":
        if self.degree <= 1:
            return self
        _, quotient, _ = _int_poly_gcd(self.numerators, self.derivative().numerators)
        return _poly(quotient, self.denominator)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.numerators == other.numerators and self.denominator == other.denominator
        if isinstance(other, (int, Fraction)):
            if self.degree > 0:
                return False
            value = self.numerators[0] if self.numerators else 0
            return value * other.denominator == other.numerator * self.denominator
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.leading)
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.numerators)

    def __repr__(self):
        if self.is_zero:
            return "Poly('0')"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*b" if c != 1 else "b")
            else:
                terms.append(f"{c}*b^{i}" if c != 1 else f"b^{i}")
        return f"Poly('{' + '.join(terms)}')"


def _poly(nums, den: int = 1) -> Poly:
    """The Poly with coefficients nums[k] / den, for integers nums and den != 0."""
    nums, den = _numeric_reduce(_int_strip(list(nums)), den)
    p = Poly.__new__(Poly)
    p.numerators, p.denominator = tuple(nums), den
    return p


def _over_common_denominator(coeffs) -> tuple:
    """(ints, d) with coeffs[k] == ints[k] / d, d the lcm of the denominators."""
    dens = [c.denominator for c in coeffs]
    d = math.lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _numeric_reduce(nums: list, den: int) -> tuple:
    """Integers nums over den with their common factor removed and den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _symbolic_reduce(nums: list, den: list) -> tuple:
    """Polynomials in Z[x] over den with their common factor removed.

    One polynomial gcd first, g = gcd(den, C), of den and the combination
    C = sum of k * v_k over the nonzero entries v_k, k = 1, 2, ... the
    column.  The row's gcd G divides den and C, so it divides g; when the
    exact division of each entry by g succeeds, g divides G too, and
    g = G.  For a lone entry C is the entry, and the gcd's quotients are
    the reduced row.  Only when a division fails does the fold of gcds
    over the entries, from g, find G.  Then the integer content, taken so
    that den has a positive leading term.  A row with no nonzero entry
    reduces to denominator 1.
    """
    live = [(k, v) for k, v in enumerate(nums, 1) if v]
    if not live:
        return nums, [1]
    if len(den) > 1 and len(live) == 1:
        _, den, entry = _int_poly_gcd(den, live[0][1])
        nums = [entry if v else v for v in nums]
    elif len(den) > 1:
        comb = [0] * max(len(v) for _, v in live)
        for k, v in live:
            comb[: len(v)] = [c + k * x for c, x in zip(comb, v)]
        g, den_g, _ = _int_poly_gcd(den, _int_strip(comb))
        if len(g) > 1:
            try:
                nums, den = [_int_exact_div(v, g) if v else v for v in nums], den_g
            except ValueError:
                for _, v in live:
                    if len(g) > 1:
                        g = _int_poly_gcd(g, v)[0]
                nums = [_int_exact_div(v, g) if v else v for v in nums]
                den = _int_exact_div(den, g)
    content = math.gcd(*itertools.chain(den, *nums))
    if den[-1] < 0:
        content = -content
    if content == 1:
        return nums, den
    return [[x // content for x in v] for v in nums], [x // content for x in den]


def _int_strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _int_mul(a, x, b=(), y=()) -> list:
    """a*x - b*y, ascending by degree, both products summed into one list; [] if it is zero."""
    out = [0] * (max(len(a) + len(x), len(b) + len(y)) - 1)
    for p, q, sign in ((a, x, 1), (b, y, -1)):
        width = len(q)
        if width:
            for i, c in enumerate(p):
                if c:
                    c *= sign
                    out[i : i + width] = [v + c * t for v, t in zip(out[i : i + width], q)]
    return _int_strip(out)


def _int_add(a: list, b: list) -> list:
    return _int_strip([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _int_sub(a: list, b: list) -> list:
    return _int_strip([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _int_primitive(coeffs: list) -> list:
    coeffs = _int_strip(list(coeffs))
    if not coeffs:
        return []
    g = math.gcd(*coeffs)
    return [v // g for v in coeffs]


def _int_eval(a: list, x: int) -> int:
    acc = 0
    for v in reversed(a):
        acc = acc * x + v
    return acc


def _int_root_bound(a: list) -> int:
    """Integer M with every real root of a in [-M, M] (Cauchy bound); 0 below degree 1."""
    if len(a) < 2:
        return 0
    biggest = max(abs(v) for v in a[:-1])
    return 1 - (-biggest // abs(a[-1]))


def _int_taylor_shift(a: list, r: int) -> list:
    """The coefficients of a(u + r), for integer coefficients a and integer r."""
    a = list(a)
    m = len(a) - 1
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            a[j] += r * a[j + 1]
    return a


def _int_sign_on_ray(a: list, beta: int) -> int:
    """+1 or -1 if a is certified of that sign on [beta, inf), else 0.

    The test reads the shift a(u + beta): a nonzero constant term and no
    coefficient of the other sign certify the sign of that term on the
    whole ray.  0 means undecided, not zero.  For beta >= 1 a nonzero a
    with no coefficient of the other sign is already of one sign on the
    ray, as its shift would show, so it is read without shifting.
    """
    if beta > 0 and a:
        lo, hi = min(a), max(a)
        if lo >= 0 or hi <= 0:
            return (hi > 0) - (lo < 0)
    a = _int_taylor_shift(a, beta)
    if a and a[0] > 0 and min(a) >= 0:
        return 1
    if a and a[0] < 0 and max(a) <= 0:
        return -1
    return 0


def _int_pseudo_rem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a divided by b over the rationals.

    b is negated first if its leading coefficient is negative, which
    leaves the remainder unchanged, so scaling by that coefficient keeps
    signs, as Sturm chains need.
    """
    if b[-1] < 0:
        b = [-v for v in b]
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    r = list(a)
    lead = b[-1]
    for k in range(da - db, -1, -1):
        coef = r[k + db]
        if coef:
            r = [lead * v for v in r]
            for i in range(db + 1):
                r[k + i] -= coef * b[i]
        del r[k + db]
    return _int_strip(r)


def _int_exact_div(a: list, b: list) -> list:
    """Quotient of a by b in Z[x]; ValueError unless b divides a there.

    For primitive a and b with b dividing a over the rationals the
    quotient has integer coefficients (Gauss's lemma).
    """
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        coef, r = divmod(rem[k + db], lead)
        if r:
            raise ValueError(f"inexact integer polynomial division of {a} by {b}")
        quo[k] = coef
        if coef:
            for i, v in enumerate(b):
                rem[k + i] -= coef * v
    if any(rem[:db]):
        raise ValueError(f"inexact integer polynomial division of {a} by {b}")
    return quo


def _int_prs_gcd(a: list, b: list) -> list:
    """The primitive gcd of a and b by the primitive remainder sequence."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = [-v for v in a]
    return a


def _int_poly_gcd(a: list, b: list) -> tuple:
    """(g, a/g, b/g): the primitive gcd of a and b in Z[x] and their quotients.

    g has a positive leading coefficient, and the quotients are those of
    a and b as given, not of their primitive parts; a gcd of [1] returns
    the operands as they are.

    Heuristic gcd, GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989): the balanced base-xi digits of gamma = gcd(a(xi), b(xi)), made
    primitive, give a candidate h, kept only if it divides a and b.  That
    check makes the answer exact, and its two exact divisions are the
    quotients.  Every xi tried is at least 2M + 2, for M = min(|a|_inf,
    |b|_inf) over the primitive parts.  If h divides a and b, their gcd G
    is h times some k, and since G(xi) divides gamma, |k(xi)| divides the
    content of gamma's digits, which is at most xi/2.  Every root of k is
    a common root, so it lies below 1 + M <= xi/2 in absolute value, and a
    nonconstant k would have |k(xi)| > xi/2.  So h = G, and a constant h
    means G = 1.  After six misses the modular degree test
    (:func:`_coprime_mod_prime`) may prove G = 1; else the remainder
    sequence decides, and exact division gives the quotients.  Constant
    and zero operands go to it at once.
    """
    pa, pb = _int_primitive(a), _int_primitive(b)
    if len(pa) > 1 and len(pb) > 1:
        xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
        for _ in range(6):
            # gamma's balanced base-xi digits, each in (-xi/2, xi/2]; as
            # gamma is positive, so is the last one
            gamma, h = math.gcd(_int_eval(pa, xi), _int_eval(pb, xi)), []
            while gamma:
                gamma, digit = divmod(gamma, xi)
                if 2 * digit > xi:
                    digit -= xi
                    gamma += 1
                h.append(digit)
            h = _int_primitive(h)
            if len(h) == 1:
                return [1], a, b
            try:  # h is primitive, so it divides a iff it divides pa
                return h, _int_exact_div(a, h), _int_exact_div(b, h)
            except ValueError:
                xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
        if _coprime_mod_prime(pa, pb):
            return [1], a, b
    g = _int_prs_gcd(pa, pb)
    if len(g) < 2:  # [1], or [] for two zero operands
        return g, a, b
    return g, _int_exact_div(a, g), _int_exact_div(b, g)


# The prime of the modular degree test, a Mersenne prime.
_GCD_PRIME = 2**61 - 1


def _coprime_mod_prime(a: list, b: list) -> bool:
    """Whether Euclid modulo p = ``_GCD_PRIME`` proves primitive a and b coprime.

    Only when p divides neither leading coefficient: then reduction mod p
    keeps both degrees, and the gcd over Z reduces to a divisor of the gcd
    mod p, so a constant gcd mod p proves the primitive gcd is 1.  False
    proves nothing.
    """
    p = _GCD_PRIME
    if not (a[-1] % p and b[-1] % p):
        return False
    a, b = [v % p for v in a], [v % p for v in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a becomes a mod b
            c, shift = a[-1] * inv % p, len(a) - len(b)
            a[shift:] = [(v - c * w) % p for v, w in zip(a[shift:], b)]
            _int_strip(a)
        if not a:
            return False
        a, b = b, a
    return True


class RatFunc:
    """Reduced ratio of two polynomials.

    Canonical form: gcd(num, den) is constant, and den has primitive
    integer coefficients with a positive leading one.  That pins a unique
    representative per value, so ``==`` is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        # num / den = (p * dq) / (q * dp) for num = p / dp and den = q / dq.
        f = _ratfunc(
            [v * den.denominator for v in num.numerators],
            [v * num.denominator for v in den.numerators],
        )
        self.num, self.den = f.num, f.den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RatFunc(_as_poly(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("rational function division by zero")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def eval(self, point) -> Fraction:
        """Exact value at a rational point; the denominator must not vanish there."""
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self.num.eval(point) / d

    __call__ = eval

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.den.numerators == (1,):
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.den.numerators == (1,):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r}, {self.den!r})"


def _ratfunc(num: list, den: list) -> RatFunc:
    """The reduced RatFunc num/den of stripped integer coefficient lists, den nonzero."""
    (p,), q = _symbolic_reduce([num], den)
    # No common content is left, so q's content c becomes num's denominator.
    c = math.gcd(*q)
    f = RatFunc.__new__(RatFunc)
    f.num, f.den = _poly(p, c), _poly([v // c for v in q])
    return f


def as_rational(x) -> Fraction:
    """Coerce an int or ``Fraction`` to a ``Fraction``; a float is rejected, not rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational (int or Fraction): {x!r}")


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def as_ratfunc(x) -> RatFunc:
    """Coerce an exact scalar to a rational function."""
    if isinstance(x, RatFunc):
        return x
    return RatFunc(_as_poly(x))


Scalar = Union[Fraction, Poly, RatFunc]


@dataclass(frozen=True)
class RaySign:
    """Outcome of a sign query on a ray [beta, inf).

    ``witness_bound`` is present only for ``mixed`` verdicts: the floor of
    the largest real root at least beta of num*den, i.e. the last integer
    at which the sign can still be indefinite.
    """

    verdict: str
    witness_bound: int | None = None


class SignUndecidedOnRay(Exception):
    """A symbolic sign query came back mixed.

    Carries the integer bound beyond which the sign is definite, so
    callers can escalate: check the finitely many integers up to the
    bound and restart the ray just after it.
    """

    def __init__(self, witness_bound: int):
        super().__init__("sign undecided on ray; definite beyond " + _int_text(witness_bound))
        self.witness_bound = witness_bound


def _sturm_chain(p: list) -> list:
    """Sturm chain of p in Z[x], each member a positive multiple of the classical one."""
    chain = [p, _int_primitive([k * v for k, v in enumerate(p) if k])]
    while len(chain[-1]) >= 2:
        rem = _int_pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_int_primitive([-v for v in rem]))
    return chain


def _sign_variations(chain: list, x: int) -> int:
    signs = [v > 0 for v in (_int_eval(q, x) for q in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _floor_largest_root_at_least(g: Poly, beta: int) -> int | None:
    """Floor of the largest real root of g in [beta, inf), or None.

    Roots are isolated on one Sturm chain of the integer numerators a of
    g's square-free part, a positive multiple of it.  With zeros skipped,
    the count V(x) of sign variations in the chain is right-continuous:
    at an inner zero of the chain its neighbours have opposite signs
    either side, and at a root of a, where a and a' change from opposite
    to equal signs, V drops by one after x, not before.  So V(x) - V(y)
    counts the roots of a in (x, y] even when x or y is one (Sturm's
    theorem in its (x, y] form; S. Basu, R. Pollack and M.-F. Roy,
    *Algorithms in Real Algebraic Geometry*, ch. 2).  For hi the larger
    of beta and the Cauchy bound, above every root, a has a root in
    [x, hi] iff a(x) = 0 or V(x) > V(hi), and bisection on that test
    finds the floor without dividing out the roots it lands on.
    """
    a = list(g.squarefree_part().numerators)
    if len(a) < 2:
        return None
    chain = _sturm_chain(a)
    lo, hi = beta, max(beta, _int_root_bound(a))
    at_hi = _sign_variations(chain, hi)

    def rooted(x: int) -> bool:
        return _int_eval(a, x) == 0 or _sign_variations(chain, x) > at_hi

    if not rooted(lo):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rooted(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sign_on_ray(f, beta: int) -> RaySign:
    """Decide the sign of a Poly or RatFunc f over the whole real ray [beta, inf).

    Rationals are decided by :func:`scalar_sign` and never reach here.
    The sign of num/den matches the sign of num*den wherever it is
    defined, so the query reduces to one polynomial g.  Fast path: after
    the substitution u = x - beta, nonnegative coefficients with a
    positive constant term certify positivity on the ray (mirrored for
    negativity).  Otherwise the real roots of g at least beta are
    isolated exactly with Sturm sequences; any such root means the sign
    is not constant (or touches zero), reported as ``mixed`` together
    with the floor of the largest offending root.
    """
    if not isinstance(beta, int) or beta < 1:
        raise ValueError("beta must be an integer >= 1")
    if not isinstance(f, (Poly, RatFunc)):
        raise TypeError(f"not a Poly or RatFunc: {f!r}")
    if f.is_zero:
        return RaySign(ZERO_IDENTICALLY)
    # num * den times a positive constant: the same signs and roots
    g = f if isinstance(f, Poly) else _poly(_int_mul(f.num.numerators, f.den.numerators))
    # g's numerators over its positive denominator carry its sign.
    fast = _int_sign_on_ray(g.numerators, beta)
    if fast:
        return RaySign(POSITIVE_ON_RAY if fast > 0 else NEGATIVE_ON_RAY)
    bound = _floor_largest_root_at_least(g, beta)
    if bound is None:
        # No root at or above beta, so g(beta) != 0 has the ray's sign.
        return RaySign(POSITIVE_ON_RAY if _int_eval(g.numerators, beta) > 0 else NEGATIVE_ON_RAY)
    return RaySign(MIXED, witness_bound=bound)


def scalar_sign(x, ray: int | None = None) -> int:
    """Sign of an exact scalar: -1, 0 or +1.

    Rationals are decided directly.  Symbolic scalars need a ray start;
    a mixed verdict raises :class:`SignUndecidedOnRay` carrying the
    escalation bound.
    """
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if isinstance(x, (Poly, RatFunc)):
        if ray is None:
            raise ValueError("sign of a symbolic scalar needs a ray start")
        rs = sign_on_ray(x, ray)
        if rs.verdict == POSITIVE_ON_RAY:
            return 1
        if rs.verdict == NEGATIVE_ON_RAY:
            return -1
        if rs.verdict == ZERO_IDENTICALLY:
            return 0
        raise SignUndecidedOnRay(rs.witness_bound)
    raise TypeError(f"not an exact scalar: {x!r}")


# -- text syntax -------------------------------------------------------
#
# Integers: 12      Rationals: p/q      Polynomials: [c0,c1,...,cd]
# Rational functions: [n0,...]/[d0,...]      Brackets do not nest.
# Whitespace inside brackets, and around the "/" between two brackets, is
# tolerated; exponent notation (1e5) is rejected.  str() and int() refuse
# integers of more digits than sys.get_int_max_str_digits() (4300 by
# default); Decimal converts them exactly and without that limit, so such
# integers are read and written through it, and smaller ones at no extra cost.


def _int_text(v: int) -> str:
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def _ratio_text(p: int, q: int) -> str:
    # The text of Fraction(p, q), for q > 0, without building it.
    g = math.gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    return _int_text(p) if q == 1 else _int_text(p) + "/" + _int_text(q)


def _parse_rational(text: str) -> Fraction:
    # A plain rational at any length by the row rule, else Fraction's syntax.
    row = _rational_row([text]) if text else None
    if row is None:
        return Fraction(text)
    (p,), q = row
    if not q:  # Fraction(p, 0) would format p, which the digit limit refuses
        raise ZeroDivisionError
    return Fraction(p, q)


def format_scalar(x) -> str:
    """The text of an exact scalar, written from its integers.

    A rational is ``p`` or ``p/q`` in lowest terms, a polynomial the
    bracketed list of its coefficients (``[0]`` for zero), and a rational
    function ``num/den``, or just ``num`` over the unit denominator.
    """
    if isinstance(x, (int, Fraction)):
        return _ratio_text(x.numerator, x.denominator)
    if isinstance(x, Poly):
        den = x.denominator
        return "[" + (",".join(_ratio_text(v, den) for v in x.numerators) or "0") + "]"
    if isinstance(x, RatFunc):
        if x.den.numerators == (1,):
            return format_scalar(x.num)
        return format_scalar(x.num) + "/" + format_scalar(x.den)
    raise TypeError(f"not an exact scalar: {x!r}")


def _parse_poly(text: str) -> Poly:
    body = text.strip()
    inner = body[1:-1].strip()
    if not (body.startswith("[") and body.endswith("]")) or "[" in inner or "]" in inner:
        raise ValueError(f"malformed polynomial literal: {text!r}")
    parts = [part.strip() for part in inner.split(",")] if inner else []
    row = _rational_row(parts) if all(parts) else None
    if row is None:
        return Poly(tuple(map(_parse_rational, parts)))
    if not row[1]:
        raise ZeroDivisionError
    return _poly(*row)


def _rational_row(tokens: list):
    """(ints, d) with tokens[k] == ints[k] / d if every token is a plain rational, else None.

    A plain rational is an optional sign and ASCII digits, then optionally
    "/" and ASCII digits, or an optional sign and a decimal: ASCII digits,
    ".", ASCII digits, one run of which may be empty, read as its digits
    over a power of ten.  Tokens are nonempty, and one holding whitespace
    is not plain; d is the lcm of the denominators, 0 if one of them is
    zero, and nothing is reduced.  Most entries of a numeric file are
    plain, and reading them skips Fraction's regex and, past the int/str
    digit limit, its int(); a row of unsigned integers is checked at once.
    """
    text = "".join(tokens)
    if not text.isascii():
        return None
    if text.isdigit():
        return _ints(tokens), 1
    nums, dens = [], []
    for t in tokens:
        digits = t[1:] if t[0] in "+-" else t
        num, slash, den = digits.partition("/")
        if num.isdigit() and (not slash or den.isdigit()):
            nums.append(t[: len(t) - len(den) - len(slash)])  # the signed numerator
            dens.append(den or "1")
            continue
        whole, point, part = digits.partition(".")
        if not point or not (whole + part).isdigit():
            return None
        nums.append(t[: len(t) - len(digits)] + whole + part)  # the signed digits
        dens.append("1" + "0" * len(part))
    nums, dens = _ints(nums), _ints(dens)
    d = math.lcm(*dens)
    return (nums if d <= 1 else [p * (d // q) for p, q in zip(nums, dens)]), d


def _ints(texts: list) -> list:
    # Signed ASCII digit strings as ints, through Decimal past the digit limit.
    try:
        return list(map(int, texts))
    except ValueError:
        return [int(Decimal(t)) for t in texts]


def parse_scalar(text: str) -> Scalar:
    t = text.strip()
    if not t:
        raise ValueError("empty scalar")
    # Fraction(str) reads exponents, and 1e601110 builds a 601,111-digit
    # integer; the scalar syntax has none.
    if "e" in t or "E" in t:
        raise ValueError(f"exponent notation in scalar {t!r}")
    try:
        if not t.startswith("["):
            return _parse_rational(t)
        # A rational function when "/" follows the first literal's "]".
        num, _, rest = t.partition("]")
        rest = rest.lstrip()
        if not rest.startswith("/"):
            return _parse_poly(t)
        return RatFunc(_parse_poly(num + "]"), _parse_poly(rest[1:]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {t!r}") from None


def parse_int(value) -> int:
    """An integer field of a decoded JSON document; ValueError on any other shape.

    Integers, integral floats, integral JSON decimals (``2.0``) and
    decimal strings are accepted; booleans and fractional numbers are
    rejected rather than truncated.  A JSON number with an exponent is
    rejected by its token, as :func:`parse_scalar` rejects it.
    """
    if isinstance(value, _JsonDecimal):
        exact = parse_scalar(str(value))
        if exact.denominator != 1:
            raise ValueError(f"not an integer: {value}")
        return int(exact)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"not an integer: {value!r}") from None


def parse_doc_scalar(value) -> Scalar:
    """A scalar field of a decoded JSON document; ValueError on any other shape.

    Integers are read as they are, without a round trip through text that
    the int/str digit limit would refuse; booleans are rejected; anything
    else is read as the text ``str(value)``, which for a decimal that
    :func:`parse_json` decoded is the document's own token.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return parse_scalar(str(value))


def parse_list(value, name: str, item=object) -> list:
    """A list field of a decoded JSON document, of ``item`` instances; ValueError otherwise."""
    if not isinstance(value, list) or (
        item is not object and not all(isinstance(x, item) for x in value)
    ):
        raise ValueError(f"{name} must be a list" + (" of objects" if item is dict else ""))
    return value


def _json_int(token: str):
    try:
        return int(token)
    except ValueError:
        return token


class _JsonDecimal(str):
    """The text of a JSON number with a fraction part or an exponent.

    :func:`parse_json` decodes every such number to this ``str``
    subclass, so a field of a decoded document that is checked with
    ``isinstance(x, str)`` takes a JSON number for a string: a field
    check tells the two apart with ``type(x) is str``, or reads the
    field through :func:`parse_int` or :func:`parse_doc_scalar`.  Its
    repr is the token as written, so a message naming the field shows
    the number unquoted, as it shows an integer.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


def parse_json(text: str):
    """A JSON document, with number tokens that would lose their value kept as text.

    Integer tokens that int() refuses exceed the int/str digit limit;
    :func:`parse_scalar` reads the text through Decimal, so a long integer
    written as a JSON number reads as it does written as a JSON string.
    A number with a fraction part or an exponent is kept as its token, a
    ``_JsonDecimal``, not rounded to a float: :func:`parse_doc_scalar`
    reads ``0.30000000000000001`` exactly, and rejects ``1e22`` by its own
    text, as it does both written as JSON strings.
    """
    return json.loads(text, parse_int=_json_int, parse_float=_JsonDecimal)


_SCALAR_TOKEN = re.compile(r"(?:[^\s\[\]]+|\[[^\[\]]*\](?:\s*/\s*(?=\[))?)+")


def split_scalar_tokens(line: str) -> list:
    """Split on whitespace, keeping ``[...]`` and ``[...] / [...]`` intact; brackets do not nest."""
    if "[" not in line and "]" not in line:
        return line.split()
    tokens = _SCALAR_TOKEN.findall(line)
    joined = "".join(tokens)
    if joined.count("[") + joined.count("]") != line.count("[") + line.count("]"):
        raise ValueError(f"unbalanced brackets in {line!r}")
    return tokens

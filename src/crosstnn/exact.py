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
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("polynomial divided by zero scalar")
            nums = [v * other.denominator for v in self.numerators]
            return _poly(nums, self.denominator * other.numerator)
        if isinstance(other, Poly):
            return RatFunc(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(o, self)

    def divide_exact(self, other) -> "Poly":
        """Quotient when the division is exact; raises otherwise.

        With self = ca * p / da and other = cc * q / dc for primitive p and
        q, the quotient is (ca * dc) / (da * cc) times p / q, and p / q is
        in Z[x] when q divides p (Gauss's lemma).
        """
        o = _as_poly(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        if self.is_zero:
            return self
        ca, cc = _int_content(self.numerators), _int_content(o.numerators)
        quo = _int_exact_div([v // ca for v in self.numerators], [v // cc for v in o.numerators])
        return _poly([v * ca * o.denominator for v in quo], self.denominator * cc)

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

    def shift(self, offset) -> "Poly":
        """Return q with q(u) = p(u + offset), by a Taylor shift over the integers.

        With offset = r/s and p of degree m, s^m * p(w/s) has integer
        coefficients; shifting those by r and multiplying
        coefficient k by s^k puts q over the denominator s^m.
        """
        offset = as_rational(offset)
        r, s = offset.numerator, offset.denominator
        m = self.degree
        if m < 0:
            return self
        a = _int_taylor_shift([v * s ** (m - k) for k, v in enumerate(self.numerators)], r)
        return _poly([v * s**k for k, v in enumerate(a)], self.denominator * s**m)

    def derivative(self) -> "Poly":
        return _poly([k * v for k, v in enumerate(self.numerators) if k], self.denominator)

    def gcd(self, other: "Poly") -> "Poly":
        """Canonical gcd: primitive integer coefficients, positive leading one."""
        return _poly(_int_poly_gcd(self.numerators, _as_poly(other).numerators))

    def squarefree_part(self) -> "Poly":
        if self.degree <= 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divide_exact(g)

    def root_bound_int(self) -> int:
        """Integer M with every real root of self in [-M, M] (Cauchy bound)."""
        return _int_root_bound(self.numerators)

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
    nums = _int_strip(list(nums))
    if den != 1:
        nums, den = _numeric_reduce(nums, den)
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

    The polynomial gcd first, stopping once it reaches degree 0; then the
    integer content, taken so that den has a positive leading term.
    """
    g = den
    for v in nums:
        if len(g) <= 1:
            break
        if v:
            g = _int_poly_gcd(g, v)
    if len(g) > 1:
        nums = [_int_exact_div(v, g) if v else v for v in nums]
        den = _int_exact_div(den, g)
    content = _int_content(itertools.chain(den, *nums))
    if den[-1] < 0:
        content = -content
    if content == 1:
        return nums, den
    return [[x // content for x in v] for v in nums], [x // content for x in den]


def _int_strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _int_mul(a: list, b: list) -> list:
    """Product of two coefficient lists, ascending by degree; [] if either is empty."""
    if not a or not b:
        return []
    width = len(b)
    out = [0] * (len(a) + width - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + width] = [v + x * y for v, y in zip(out[i : i + width], b)]
    return out


def _int_add(a: list, b: list) -> list:
    return _int_strip([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _int_sub(a: list, b: list) -> list:
    return _int_strip([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _int_content(coeffs) -> int:
    return math.gcd(*coeffs)


def _int_primitive(coeffs: list) -> list:
    coeffs = _int_strip(list(coeffs))
    if not coeffs:
        return []
    g = _int_content(coeffs)
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
    whole ray.  0 means undecided, not zero.
    """
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


def _int_poly_gcd(a: list, b: list) -> list:
    a = _int_primitive(a)
    b = _int_primitive(b)
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = [-v for v in a]
    return a


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
        (p,), q = _symbolic_reduce(
            [[v * den.denominator for v in num.numerators]],
            [v * num.denominator for v in den.numerators],
        )
        # No common content is left, so q's content c becomes num's denominator.
        c = _int_content(q)
        self.num = _poly(p, c)
        self.den = _poly([v // c for v in q])

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
        if self.den == Poly((1,)):
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.den == Poly((1,)):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r}, {self.den!r})"


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
        super().__init__(f"sign undecided on ray; definite beyond {witness_bound}")
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

    Roots are isolated on the integer numerators of g's square-free part,
    a positive multiple of it.  Integer probe points that turn out to be
    roots are deflated exactly, so Sturm counts are only ever taken at
    non-roots.
    """
    a = list(g.squarefree_part().numerators)
    floors = []  # deflated integer roots, then the floor of the largest other root
    while len(a) >= 2:
        if _int_eval(a, beta) == 0:
            floors.append(beta)
            a = _int_exact_div(a, [-beta, 1])
            continue
        # bound is beta, no root, or the Cauchy bound, above every root.
        bound = max(beta, _int_root_bound(a))
        chain = _sturm_chain(a)
        at_bound = _sign_variations(chain, bound)
        if _sign_variations(chain, beta) - at_bound == 0:
            break
        lo, hi = beta, bound
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _int_eval(a, mid) == 0:
                floors.append(mid)
                a = _int_exact_div(a, [-mid, 1])
                break
            if _sign_variations(chain, mid) - at_bound > 0:
                lo = mid
            else:
                hi = mid
        else:
            # The remaining largest root lies strictly inside (lo, lo+1).
            floors.append(lo)
            break
    return max(floors, default=None)


def sign_on_ray(f, beta: int) -> RaySign:
    """Decide the sign of f over the whole real ray [beta, inf).

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
    if isinstance(f, int):
        f = Fraction(f)
    if isinstance(f, Fraction):
        if f > 0:
            return RaySign(POSITIVE_ON_RAY)
        if f < 0:
            return RaySign(NEGATIVE_ON_RAY)
        return RaySign(ZERO_IDENTICALLY)
    if isinstance(f, RatFunc):
        if f.is_zero:
            return RaySign(ZERO_IDENTICALLY)
        # num * den times a positive constant: the same signs and roots
        g = _poly(_int_mul(f.num.numerators, f.den.numerators))
    elif isinstance(f, Poly):
        if f.is_zero:
            return RaySign(ZERO_IDENTICALLY)
        g = f
    else:
        raise TypeError(f"not an exact scalar: {f!r}")
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
# Rational functions: [n0,...]/[d0,...]
# On input, whitespace inside brackets is tolerated; exponent notation
# (1e5) is rejected.  str() and int() refuse integers of more digits than
# sys.get_int_max_str_digits() (4300 by default); Decimal converts them
# exactly and without that limit, so such integers are read and written
# through it, and smaller ones at no extra cost.


def _long_rational_text(x: Fraction) -> str:
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else num + "/" + str(Decimal(x.denominator))


def _long_rational(text: str, error: ValueError) -> Fraction:
    # text as a rational whose integers were too long for int(); else error.
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise error
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        return _long_rational(text, exc)


def format_scalar(x) -> str:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError:
            return _long_rational_text(x)
    if isinstance(x, Poly):
        coeffs = x.coeffs or (Fraction(0),)
        return "[" + ",".join(map(format_scalar, coeffs)) + "]"
    if isinstance(x, RatFunc):
        if x.den == Poly((1,)):
            return format_scalar(x.num)
        return format_scalar(x.num) + "/" + format_scalar(x.den)
    raise TypeError(f"not an exact scalar: {x!r}")


def _parse_poly(text: str) -> Poly:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed polynomial literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return Poly()
    return Poly(tuple(_parse_rational(part.strip()) for part in inner.split(",")))


def parse_scalar(text: str) -> Scalar:
    t = text.strip()
    if not t:
        raise ValueError("empty scalar")
    # Plain integers, most entries of a numeric file, skip Fraction's regex.
    digits = t[1:] if t[0] in "+-" else t
    if digits.isascii() and digits.isdigit():
        try:
            return Fraction(int(t))
        except ValueError as exc:
            return _long_rational(t, exc)
    # Fraction(str) reads exponents, and 1e601110 builds a 601,111-digit
    # integer; the scalar syntax has none.
    if "e" in t or "E" in t:
        raise ValueError(f"exponent notation in scalar {t!r}")
    try:
        if not t.startswith("["):
            try:
                return Fraction(t)
            except ValueError as exc:
                return _long_rational(t, exc)
        depth = 0
        split_at = None
        for pos, ch in enumerate(t):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "/" and depth == 0:
                split_at = pos
                break
        if split_at is None:
            return _parse_poly(t)
        return RatFunc(_parse_poly(t[:split_at]), _parse_poly(t[split_at + 1 :]))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {t!r}") from None


def parse_int(value) -> int:
    """An integer field of a decoded JSON document; ValueError on any other shape.

    Integers, integral floats and decimal strings are accepted; booleans
    and fractional numbers are rejected rather than truncated.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"not an integer: {value!r}") from None


def parse_list(value, name: str, item=object) -> list:
    """A list field of a decoded JSON document, of ``item`` instances; ValueError otherwise."""
    if not isinstance(value, list) or not all(isinstance(x, item) for x in value):
        raise ValueError(f"{name} must be a list" + (" of objects" if item is dict else ""))
    return value


def _json_int(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_json(text: str):
    """A JSON document, with integer tokens that int() refuses kept as text.

    Such tokens exceed the int/str digit limit; :func:`parse_scalar` reads
    the text through Decimal, so a long integer written as a JSON number
    reads as it does written as a JSON string.
    """
    return json.loads(text, parse_int=_json_int)


def split_scalar_tokens(line: str) -> list:
    """Split a line on whitespace, keeping bracketed groups intact."""
    if "[" not in line and "]" not in line:
        return line.split()
    tokens = []
    current = []
    depth = 0
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {line!r}")
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {line!r}")
    if current:
        tokens.append("".join(current))
    return tokens

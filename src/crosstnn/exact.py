"""Exact scalar arithmetic with sign decisions on rays.

Three scalar kinds share one arithmetic surface:

* ``Rational`` -- arbitrary-precision rationals (``fractions.Fraction``),
* :class:`Poly` -- univariate polynomials over the rationals in the base
  variable ``b``, coefficients stored ascending by degree,
* :class:`RatFunc` -- reduced ratios of two such polynomials.

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
import math
from dataclasses import dataclass
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

    Coefficients are ascending by degree with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.  Instances are immutable
    and hashable, and constants compare (and hash) equal to the matching
    ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial ``b``."""
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

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
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

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
        # Convolve integer numerators over each operand's common denominator,
        # then reduce each output coefficient once.
        a, da = _over_common_denominator(self.coeffs)
        c, dc = _over_common_denominator(o.coeffs)
        den = da * dc
        return Poly([Fraction(v, den) for v in _int_mul(a, c)])

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
            inv = Fraction(1) / Fraction(other)
            return Poly(tuple(c * inv for c in self.coeffs))
        if isinstance(other, Poly):
            return RatFunc(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(o, self)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        ddeg = o.degree
        dlead = o.leading
        rem = list(self.coeffs)
        if len(rem) <= ddeg:
            return Poly(), Poly(rem)
        quo = [Fraction(0)] * (len(rem) - ddeg)
        for k in range(len(rem) - 1 - ddeg, -1, -1):
            coef = rem[k + ddeg] / dlead
            quo[k] = coef
            if coef:
                for i, c in enumerate(o.coeffs):
                    rem[k + i] -= c * coef
        return Poly(quo), Poly(rem[:ddeg])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divide_exact(self, other) -> "Poly":
        """Quotient when the division is exact; raises otherwise."""
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError(f"inexact polynomial division: remainder {rem!r}")
        return quo

    # -- evaluation and structure --------------------------------------

    def eval(self, point) -> Fraction:
        """Exact value at a rational point (Horner)."""
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    def shift(self, offset) -> "Poly":
        """Return q with q(u) = p(u + offset), by a Taylor shift over the integers.

        With offset = r/s and p of degree m, s^m * p(w/s) has integer
        coefficients; shifting those by r in place and dividing
        coefficient k by s^(m-k) gives q.
        """
        offset = Fraction(offset)
        r, s = offset.numerator, offset.denominator
        a, d = _over_common_denominator(self.coeffs)
        m = len(a) - 1
        a = [v * s ** (m - k) for k, v in enumerate(a)]
        for i in range(m):
            for j in range(m - 1, i - 1, -1):
                a[j] += r * a[j + 1]
        return Poly([Fraction(v, d * s ** (m - k)) for k, v in enumerate(a)])

    def derivative(self) -> "Poly":
        return Poly(tuple(Fraction(i) * c for i, c in enumerate(self.coeffs) if i))

    def primitive_int_coeffs(self) -> list:
        """Integer coefficient list with content 1, sign preserved."""
        return _int_primitive(_over_common_denominator(self.coeffs)[0])

    def gcd(self, other: "Poly") -> "Poly":
        """Canonical gcd: primitive integer coefficients, positive leading one."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("gcd needs a polynomial")
        result = _int_poly_gcd(self.primitive_int_coeffs(), o.primitive_int_coeffs())
        return Poly(result)

    def squarefree_part(self) -> "Poly":
        if self.degree <= 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divide_exact(g)

    def root_bound_int(self) -> int:
        """Integer M with every real root of self in [-M, M] (Cauchy bound)."""
        if self.degree < 1:
            return 0
        lead = abs(self.leading)
        biggest = max((abs(c) for c in self.coeffs[:-1]), default=Fraction(0))
        return math.ceil(1 + biggest / lead)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and (self.coeffs[0] if self.coeffs else Fraction(0)) == other
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

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


def _over_common_denominator(coeffs) -> tuple:
    """(ints, d) with coeffs[k] == ints[k] / d, d the lcm of the denominators."""
    d = 1
    for c in coeffs:
        d = math.lcm(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


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


def _int_pseudo_rem(a: list, b: list) -> list:
    # Pseudo-remainder over the integers; scale factors are irrelevant for gcd.
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
        if num.is_zero:
            self.num = Poly()
            self.den = Poly((1,))
            return
        # num = (cp / dp) * p and den = (cq / dq) * q with p, q primitive in Z[b].
        p, dp = _over_common_denominator(num.coeffs)
        q, dq = _over_common_denominator(den.coeffs)
        cp, cq = _int_content(p), _int_content(q)
        p = [v // cp for v in p]
        q = [v // cq for v in q]
        g = _int_poly_gcd(p, q)
        if len(g) > 1:
            p = _int_exact_div(p, g)
            q = _int_exact_div(q, g)
        if q[-1] < 0:
            q = [-v for v in q]
            cq = -cq
        scale = Fraction(cp * dq, dp * cq)
        self.num = Poly([scale * v for v in p])
        self.den = Poly(q)

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


def _sturm_chain(p: Poly) -> list:
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        # primitive_int_coeffs rescales by a positive constant, which
        # keeps the chain's sign pattern valid.
        chain.append(Poly([-v for v in rem.primitive_int_coeffs()]))
    return [q for q in chain if not q.is_zero]


def _sign_variations(chain: list, x) -> int:
    signs = []
    for q in chain:
        v = q.eval(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _floor_largest_root_at_least(g: Poly, beta: int) -> int | None:
    """Floor of the largest real root of g in [beta, inf), or None.

    Integer probe points that turn out to be roots are deflated exactly,
    so Sturm counts are only ever taken at non-roots.
    """
    g = g.squarefree_part()
    best = None
    while g.degree >= 1:
        if g.eval(beta) == 0:
            best = beta if best is None else max(best, beta)
            g = g.divide_exact(Poly((-beta, 1)))
            continue
        bound = max(beta, g.root_bound_int())
        if g.eval(bound) == 0:
            best = bound if best is None else max(best, bound)
            g = g.divide_exact(Poly((-bound, 1)))
            continue
        chain = _sturm_chain(g)
        at_bound = _sign_variations(chain, bound)
        if _sign_variations(chain, beta) - at_bound == 0:
            break
        lo, hi = beta, bound
        deflated = False
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if g.eval(mid) == 0:
                best = mid if best is None else max(best, mid)
                g = g.divide_exact(Poly((-mid, 1)))
                deflated = True
                break
            if _sign_variations(chain, mid) - at_bound > 0:
                lo = mid
            else:
                hi = mid
        if deflated:
            continue
        # The remaining largest root lies strictly inside (lo, lo+1).
        best = lo if best is None else max(best, lo)
        break
    return best


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
        g = f.num * f.den
    elif isinstance(f, Poly):
        if f.is_zero:
            return RaySign(ZERO_IDENTICALLY)
        g = f
    else:
        raise TypeError(f"not an exact scalar: {f!r}")
    shifted = g.shift(beta)
    cs = shifted.coeffs
    if cs[0] > 0 and all(c >= 0 for c in cs):
        return RaySign(POSITIVE_ON_RAY)
    if cs[0] < 0 and all(c <= 0 for c in cs):
        return RaySign(NEGATIVE_ON_RAY)
    bound = _floor_largest_root_at_least(g, beta)
    if bound is None:
        value = g.eval(beta)
        return RaySign(POSITIVE_ON_RAY if value > 0 else NEGATIVE_ON_RAY)
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
# On input, whitespace inside brackets is tolerated.


def format_scalar(x) -> str:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Poly):
        coeffs = x.coeffs or (Fraction(0),)
        return "[" + ",".join(str(c) for c in coeffs) + "]"
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
    return Poly(tuple(Fraction(part.strip()) for part in inner.split(",")))


def parse_scalar(text: str) -> Scalar:
    t = text.strip()
    if not t:
        raise ValueError("empty scalar")
    # Plain integers, most entries of a numeric file, skip Fraction's regex.
    digits = t[1:] if t[0] in "+-" else t
    if digits.isascii() and digits.isdigit():
        return Fraction(int(t))
    try:
        if not t.startswith("["):
            return Fraction(t)
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

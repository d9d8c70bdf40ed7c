"""Exact scalars: rationals, polynomials, rational functions, ray signs."""

import itertools
import math
import operator
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosstnn import (
    MIXED,
    NEGATIVE_ON_RAY,
    POSITIVE_ON_RAY,
    ZERO_IDENTICALLY,
    Matrix,
    Poly,
    RatFunc,
    RaySign,
    SignUndecidedOnRay,
    format_scalar,
    parse_scalar,
    scalar_sign,
    sign_on_ray,
)
from crosstnn import exact
from crosstnn.exact import (
    _coprime_mod_prime,
    _int_exact_div,
    _int_mul,
    _int_poly_gcd,
    _int_primitive,
    _int_prs_gcd,
    _int_pseudo_rem,
    _int_root_bound,
    _int_strip,
    _int_taylor_shift,
    _poly,
    _ratfunc,
    _sturm_chain,
    _symbolic_reduce,
    parse_doc_scalar,
    parse_int,
    parse_json,
    split_scalar_tokens,
)

B = Poly.variable()

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
# Small and large coefficients alike; empty lists give the zero polynomial.
coefficients = st.one_of(rationals, st.fractions(max_denominator=10**12))
polys = st.lists(coefficients, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
one_sign_polys = st.one_of(
    st.lists(st.integers(0, 10**30), max_size=8), st.lists(st.integers(-(10**30), 0), max_size=8)
).map(Poly)
# Integer coefficient lists, stripped, with coefficients past 2**200; the
# empty list is the zero polynomial.
int_polys = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(2**210), 2**210)), max_size=6
).map(_int_strip)


def reference_mul(p, q):
    """Schoolbook product over the rationals, one Fraction per term."""
    if p.is_zero or q.is_zero:
        return Poly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, c in enumerate(q.coeffs):
            out[i + j] += a * c
    return Poly(out)


def reference_shift(p, offset):
    """q(u) = p(u + offset) by a Horner loop of Poly products."""
    lin = Poly((Fraction(offset), Fraction(1)))
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * lin + c
    return acc


def reference_divmod(p, d):
    """(quotient, remainder) by long division over the rationals, one Fraction per step."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    ddeg = d.degree
    dlead = d.leading
    rem = list(p.coeffs)
    if len(rem) <= ddeg:
        return Poly(), Poly(rem)
    quo = [Fraction(0)] * (len(rem) - ddeg)
    for k in range(len(rem) - 1 - ddeg, -1, -1):
        coef = rem[k + ddeg] / dlead
        quo[k] = coef
        if coef:
            for i, c in enumerate(d.coeffs):
                rem[k + i] -= c * coef
    return Poly(quo), Poly(rem[:ddeg])


def reference_gcd(p, q):
    """A gcd by Euclid's algorithm over the rationals, up to a constant factor."""
    while not q.is_zero:
        p, q = q, reference_divmod(p, q)[1]
    return p


def reference_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def reference_derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs) if i])


def reference_sturm_chain(p):
    """The classical Sturm chain: p, p', then negated remainders over the rationals."""
    chain = [p, reference_derivative(p)]
    while chain[-1].degree >= 1:
        rem = reference_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def reference_variations(chain, x):
    signs = [v > 0 for v in (reference_eval(q, x) for q in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def reference_floor_largest_root(g, beta):
    """Floor of the largest real root of g in [beta, inf), by Fraction Sturm chains."""
    if g.degree > 1:
        common = reference_gcd(g, reference_derivative(g))
        if common.degree >= 1:
            g = reference_divmod(g, common)[0]
    best = None
    while g.degree >= 1:
        if reference_eval(g, beta) == 0:
            best = beta if best is None else max(best, beta)
            g = reference_divmod(g, Poly((-beta, 1)))[0]
            continue
        biggest = max(abs(c) for c in g.coeffs[:-1])
        bound = max(beta, math.ceil(1 + biggest / abs(g.leading)))
        if reference_eval(g, bound) == 0:
            best = bound if best is None else max(best, bound)
            g = reference_divmod(g, Poly((-bound, 1)))[0]
            continue
        chain = reference_sturm_chain(g)
        at_bound = reference_variations(chain, bound)
        if reference_variations(chain, beta) - at_bound == 0:
            break
        lo, hi = beta, bound
        deflated = False
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if reference_eval(g, mid) == 0:
                best = mid if best is None else max(best, mid)
                g = reference_divmod(g, Poly((-mid, 1)))[0]
                deflated = True
                break
            if reference_variations(chain, mid) - at_bound > 0:
                lo = mid
            else:
                hi = mid
        if deflated:
            continue
        best = lo if best is None else max(best, lo)
        break
    return best


def reference_sign_on_ray(f, beta):
    """sign_on_ray with the shift fast path and the Sturm search over the rationals."""
    g = reference_mul(f.num, f.den) if isinstance(f, RatFunc) else f
    if g.is_zero:
        return RaySign(ZERO_IDENTICALLY)
    cs = reference_shift(g, beta).coeffs
    if cs[0] > 0 and all(c >= 0 for c in cs):
        return RaySign(POSITIVE_ON_RAY)
    if cs[0] < 0 and all(c <= 0 for c in cs):
        return RaySign(NEGATIVE_ON_RAY)
    bound = reference_floor_largest_root(g, beta)
    if bound is None:
        return RaySign(POSITIVE_ON_RAY if reference_eval(g, beta) > 0 else NEGATIVE_ON_RAY)
    return RaySign(MIXED, witness_bound=bound)


def is_positive_multiple(ints, p):
    """Whether the integer coefficient list ints is c * p for a constant c > 0."""
    q = Poly(ints)
    if q.is_zero or p.is_zero:
        return q.is_zero and p.is_zero
    ratio = q.leading / p.leading
    return ratio > 0 and q == reference_mul(p, Poly((ratio,)))


def ray_battery():
    """500 (integer polynomial, beta) pairs, a third or so of them mixed."""
    rng = random.Random("ray-sign-battery")
    for _ in range(500):
        degree = rng.randint(0, 6)
        p = Poly([rng.randint(-10, 10) for _ in range(degree + 1)])
        yield p, rng.randint(1, 4)


def rational_battery():
    rng = random.Random("rational-ray-signs")
    for _ in range(300):
        size = rng.randint(1, 6)
        p = Poly([Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(size)])
        yield p, rng.randint(1, 5)


def pole_battery():
    """Rational functions with a denominator root on the ray [beta, inf).

    Some numerators share that root, which then cancels.
    """
    rng = random.Random("ray-sign-poles")
    for _ in range(200):
        beta = rng.randint(1, 5)
        pole = Fraction(rng.randint(3 * beta, 3 * beta + 18), rng.choice([1, 3]))
        cofactor = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [1])
        num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.4:
            num = reference_mul(num, B - pole)
        yield RatFunc(num, reference_mul(B - pole, cofactor)), beta


def repeated_root_battery():
    """Products of repeated integer and rational roots at, below and beyond beta."""
    rng = random.Random("ray-sign-repeated-roots")
    for _ in range(200):
        beta = rng.randint(1, 6)
        p = Poly((rng.choice([-3, -1, Fraction(1, 2), 2]),))
        for _ in range(rng.randint(1, 3)):
            offset = rng.choice([-2, -1, 0, 0, 1, 4])
            root = beta + offset + rng.choice([0, 0, Fraction(1, 2), Fraction(2, 3)])
            p = reference_mul(p, (B - root) ** rng.randint(1, 3))
        if rng.random() < 0.3:
            p = reference_mul(p, B * B + 1)
        yield p, beta


def reference_split_tokens(line):
    """The character loop of split_scalar_tokens, without its bracket-free fast path."""
    tokens, current, depth = [], [], 0
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def reference_primitive_ints(p):
    lcm_den = 1
    for c in p.coeffs:
        lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints]


def reference_ratfunc(num, den):
    """(num, den) of num/den normalised through a gcd, long division and a Fraction scale."""
    if num.is_zero:
        return Poly(), Poly((1,))
    g = reference_gcd(num, den)
    if g.degree >= 1:
        num = reference_divmod(num, g)[0]
        den = reference_divmod(den, g)[0]
    ints = reference_primitive_ints(den)
    if ints[-1] < 0:
        ints = [-v for v in ints]
    canonical_den = Poly(ints)
    return reference_mul(num, Poly((canonical_den.leading / den.leading,))), canonical_den


def assert_matches_reference(f, num, den):
    assert (f.num.coeffs, f.den.coeffs) == tuple(p.coeffs for p in reference_ratfunc(num, den))


class TestRationals:
    def test_addition(self):
        assert Fraction(1, 4) + Fraction(5, 4) == Fraction(3, 2)

    def test_division_from_worked_factorization(self):
        assert Fraction(45, 4) / 9 == Fraction(5, 4)

    def test_total_order(self):
        assert Fraction(3, 8) < Fraction(9, 8)

    def test_division_by_zero_is_explicit(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_always_canonical(self):
        x = Fraction(6, 4)
        assert (x.numerator, x.denominator) == (3, 2)
        assert Fraction(x.numerator, x.denominator) == x


class TestPoly:
    def test_eval_at_constructed_root(self):
        assert (B * B - 3 * B).eval(3) == 0

    def test_mul(self):
        assert (B - 1) * (B + 1) == B * B - 1

    def test_trailing_zeros_dropped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert Poly((0,)).is_zero

    def test_constant_compares_to_fraction(self):
        assert Poly((Fraction(3, 2),)) == Fraction(3, 2)
        assert hash(Poly((Fraction(3, 2),))) == hash(Fraction(3, 2))

    @pytest.mark.parametrize("r", [2, Fraction(1, 2)])
    def test_no_division_by_a_rational(self, r):
        # Only a Poly divides a Poly; a rational divides by a Poly.
        with pytest.raises(TypeError):
            (B + 1) / r
        assert r / (B + 1) == RatFunc(Poly((r,)), B + 1)

    def test_no_fraction_division_path(self):
        for name in ("__divmod__", "__floordiv__", "__mod__"):
            assert not hasattr(Poly, name)

    def test_repr(self):
        assert repr(Poly((Fraction(-1, 2), 0, 3))) == "Poly('-1/2 + 3*b^2')"

    # (b - 1)^2 is not square-free: its chain stops at a zero remainder.
    @example(Poly((-1, 1)), Poly((-1, 1)), Poly())
    @given(polys, nonzero_polys, polys)
    def test_exact_division_and_sturm_remainders_equal_reference(self, p, d, extra):
        rem = reference_divmod(p, d)[1]
        # Over the primitive numerators the division is exact in Z[x]
        # exactly when it is over the rationals (Gauss's lemma).
        pa, pd = _int_primitive(p.numerators), _int_primitive(d.numerators)
        if rem.is_zero:
            assert _int_mul(_int_exact_div(pa, pd), pd) == pa
        else:
            with pytest.raises(ValueError):
                _int_exact_div(pa, pd)
        assert _int_exact_div(_int_primitive(reference_mul(p, d).numerators), pd) == pa
        # p's numerators are p times its denominator; the divisor's scale
        # does not change the remainder.
        scaled_rem = reference_mul(rem, Poly((p.denominator,)))
        assert is_positive_multiple(_int_pseudo_rem(p.numerators, d.numerators), scaled_rem)
        q = reference_mul(p, d) + extra
        if q.degree >= 1:
            chain = _sturm_chain(list(q.numerators))
            reference = reference_sturm_chain(q)
            assert len(chain) == len(reference)
            assert all(map(is_positive_multiple, chain, reference))

    @given(
        st.lists(
            st.one_of(
                st.integers(-(10**15), 10**15),
                st.fractions(max_denominator=10**12),
                st.sampled_from([0, Fraction(0), Fraction(-1, 10**12)]),
            ),
            max_size=6,
        )
    )
    def test_storage_gives_the_reduced_fractions(self, cs):
        expected = [Fraction(c) for c in cs]
        while expected and not expected[-1]:
            expected.pop()
        p = Poly(cs)
        assert p.coeffs == tuple(expected)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert format_scalar(p) == "[" + ",".join(map(str, expected or [0])) + "]"
        # The same polynomial through the arithmetic kernels is the same value.
        built = sum((Poly((c,)) * B**k for k, c in enumerate(cs)), Poly())
        assert built == p and hash(built) == hash(p)
        assert (built.numerators, built.denominator) == (p.numerators, p.denominator)
        if len(expected) <= 1:
            value = expected[0] if expected else Fraction(0)
            assert p == value and hash(p) == hash(value)
            assert p != value + Fraction(1, 10**12)
        else:
            assert hash(p) == hash(tuple(expected))
            assert p != expected[0]
        assert p.denominator > 0 and math.gcd(p.denominator, *p.numerators) == 1
        assert not p.numerators or p.numerators[-1]

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", None, 1j])
    def test_rejects_inexact_coefficients(self, bad):
        with pytest.raises(TypeError):
            Poly((1, bad))

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", None, 1j])
    def test_eval_rejects_inexact_points(self, bad):
        with pytest.raises(TypeError):
            (B * B + 1).eval(bad)
        with pytest.raises(TypeError):
            Poly().eval(bad)

    def test_pow(self):
        assert (B + 1) ** 3 == B * B * B + 3 * B * B + 3 * B + 1

    def test_derivative(self):
        assert (B * B * B - 4 * B).derivative() == 3 * B * B - 4

    def test_gcd_is_primitive_positive(self):
        g = (2 * B * B - 2).gcd(4 * B + 4)
        assert g == B + 1

    def test_squarefree_part(self):
        p = (B - 3) * (B - 3) * (B + 1)
        assert p.squarefree_part() == (B - 3) * (B + 1)

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
    def test_ring_laws(self, a, b):
        p, q = Poly(a), Poly(b)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) - q == p


# A coprime pair of degrees 34 and 39 from the symbolic sweep at n = 40, on
# which six evaluation points of the heuristic gcd all miss.
_FALLBACK_A = [
    59968939206187425233834606592000000, 2745323559519327982956000470630400000,
    58036691335092075064161026325872640000, 757273414098871298694966838351626240000,
    6871977179541958518309089649045425356800, 46303587270941121507693611501736654274560,
    241405256223553648219714737895730017959936, 1001590577373499910382367826012877949108224,
    3374563102052035068825742144432384794381312,
    9372264519123145217402047000832795047802880,
    21702700228747935975851519122892384553682176,
    42268388917681756002475809301494496017659904,
    69704488125404935928985258365828828893192064,
    97827559389413610699570945141921799280089344,
    117288475283383687940495995781173887791811360,
    120445974292108787442448598295670842452963456,
    106118127690294037281774142086349316546513724,
    80273021015492743338610657021183326502789944,
    52129007345866009545174239501441913571308609,
    29033278566224162655133634499317366085763440,
    13842597132165376923607573461297053149505616,
    5634297637967085958022693105658020016719744,
    1950365668208524840872376579801752996100704, 571341857977169616270714781846854571505664,
    140746250746069129951313293260479962807040, 28925093677972517260312003240661071958016,
    4909527112043173737620921559306650489088, 679483568136746710435734382159660584960,
    75428253310536527076483934849721966592, 6571383608390500828229535518494556160,
    436145853302434689463220588775014400, 21127626404131060859920933847040000,
    698573166449839819355998126080000, 13974838916129508043417190400000,
    126513546505547170185216000000,
]
_FALLBACK_B = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 2, 39, 243, 486,
]

_GCD_PRIME = 2**61 - 1
# Linear factors j*b + k with small roots, as in the carries rows.
_LINEAR = st.tuples(st.integers(1, 4), st.integers(-12, 12))


def _linear_product(factors) -> list:
    out = [1]
    for j, k in factors:
        out = _int_mul(out, [k, j])
    return out


def reference_symbolic_reduce(nums, den):
    """The row reduced by the fold of gcds over every entry, then the content."""
    g = den
    for v in nums:
        if len(g) > 1 and v:
            g = _int_prs_gcd(g, v)
    if len(g) > 1:
        nums = [_int_exact_div(v, g) if v else v for v in nums]
        den = _int_exact_div(den, g)
    content = math.gcd(*itertools.chain(den, *nums))
    if den[-1] < 0:
        content = -content
    return [[x // content for x in v] for v in nums], [x // content for x in den]


class TestIntegerKernels:
    """The integer-coefficient Poly and RatFunc kernels against the Fraction references."""

    @given(polys, polys)
    def test_mul_equals_schoolbook(self, p, q):
        assert (p * q).coeffs == reference_mul(p, q).coeffs

    @given(polys, nonzero_polys, nonzero_polys)
    def test_normalisation_equals_reference(self, p, q, common):
        num, den = reference_mul(p, common), reference_mul(q, common)
        assert_matches_reference(RatFunc(num, den), num, den)
        assert_matches_reference(RatFunc(p, q), p, q)
        assert_matches_reference(RatFunc(-p, -q), -p, -q)

    @given(polys, nonzero_polys, polys, nonzero_polys)
    def test_field_operations_equal_reference(self, a, b, c, d):
        f, g = RatFunc(a, b), RatFunc(c, d)
        fn, fd, gn, gd = f.num, f.den, g.num, g.den
        cross, other, dens = reference_mul(fn, gd), reference_mul(gn, fd), reference_mul(fd, gd)
        assert_matches_reference(f + g, cross + other, dens)
        assert_matches_reference(f - g, cross - other, dens)
        assert_matches_reference(f * g, reference_mul(fn, gn), dens)
        if not g.is_zero:
            assert_matches_reference(f / g, reference_mul(fn, gd), reference_mul(fd, gn))

    @given(polys, st.integers(-20, 20))
    def test_shift_equals_horner(self, p, offset):
        shifted = _poly(_int_taylor_shift(p.numerators, offset), p.denominator)
        assert shifted.coeffs == reference_shift(p, offset).coeffs

    @given(int_polys, int_polys, int_polys, st.integers(-(2**40), 2**40).filter(bool))
    @example([], [], [], 1)
    @example([1], [0, 1], [3], -1)
    @example([-2, 1], [], [3, 0, 1], -6)
    @example([-(2**201), 1], [-5, 0, 7], [2**200, -1], 3)
    @example([1], [-1, 1], [29, 1], 1)  # the first candidate, b - 1, divides a only
    @example([], [3, 1], [], 5)
    @example([2], [0, 1], [7], -3)
    def test_heuristic_gcd_equals_remainder_sequence(self, g, p, q, content):
        # The gcd, and the quotients of the operands as given.
        a, b = [content * v for v in _int_mul(g, p)], _int_mul(g, q)
        h, qa, qb = _int_poly_gcd(a, b)
        assert h == _int_prs_gcd(a, b)
        assert (_int_mul(h, qa), _int_mul(h, qb)) == (a, b)
        if h == [1]:
            assert (qa, qb) == (a, b)
        assert _int_poly_gcd(b, a)[0] == h

    def test_heuristic_gcd_falls_back_to_remainder_sequence(self, monkeypatch):
        # GCDHEU misses six times on both pairs.  The modular degree test
        # proves the first coprime; the second shares b + 2, modulo the
        # prime too, so the remainder sequence decides.
        calls = []
        real_mod, real_prs = exact._coprime_mod_prime, exact._int_prs_gcd
        monkeypatch.setattr(
            exact, "_coprime_mod_prime", lambda a, b: calls.append("mod") or real_mod(a, b)
        )
        monkeypatch.setattr(
            exact, "_int_prs_gcd", lambda a, b: calls.append("prs") or real_prs(a, b)
        )
        assert _int_poly_gcd(_FALLBACK_A, _FALLBACK_B) == ([1], _FALLBACK_A, _FALLBACK_B)
        assert calls == ["mod"]
        calls.clear()
        a, b = _int_mul(_FALLBACK_A, [2, 1]), _int_mul(_FALLBACK_B, [2, 1])
        assert _int_poly_gcd(a, b) == ([2, 1], _FALLBACK_A, _FALLBACK_B)
        assert calls == ["mod", "prs"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_LINEAR, max_size=3),
        st.lists(_LINEAR, min_size=1, max_size=6),
        st.lists(_LINEAR, min_size=1, max_size=6),
        st.sampled_from([None, "a", "b"]),
    )
    @example([], [(1, 0)], [(1, 1)], None)
    @example([(1, 2)], [(1, 0)], [(1, 1)], "a")
    def test_modular_degree_test_agrees_with_remainder_sequence(self, common, ps, qs, lead):
        # Products of small linear factors j*b + k, coprime or not, with
        # the prime dividing a leading coefficient when lead names one.
        a, b = _linear_product(common + ps), _linear_product(common + qs)
        if lead == "a":
            a = _int_mul(a, [1, _GCD_PRIME])
        elif lead == "b":
            b = _int_mul(b, [1, _GCD_PRIME])
        expected = _int_prs_gcd(a, b)
        assert _int_poly_gcd(a, b)[0] == expected
        pa, pb = _int_primitive(a), _int_primitive(b)
        if len(pa) < 2 or len(pb) < 2:
            return
        proved = _coprime_mod_prime(pa, pb)
        if lead:
            assert not proved
        else:
            # Distinct roots -k/j of these factors stay distinct modulo the
            # prime, so the test proves every coprime pair.
            assert proved == (expected == [1])

    def test_exact_division_in_integer_polynomials(self):
        assert _int_exact_div([-1, 0, 1], [-1, 1]) == [1, 1]
        assert _int_exact_div([6, 5, 1], [3, 1]) == [2, 1]
        assert _int_exact_div([-2, 0, 2], [-1, 1]) == [2, 2]

    @pytest.mark.parametrize(
        "a, b",
        [
            pytest.param([1, 0, 1], [-1, 1], id="nonzero-remainder"),
            pytest.param([0, 1], [0, 2], id="non-integer-quotient"),
            pytest.param([1, 1], [1, 0, 1], id="divisor-of-higher-degree"),
        ],
    )
    def test_exact_division_rejects_non_divisor(self, a, b):
        with pytest.raises(ValueError):
            _int_exact_div(a, b)


_ROW_POLYS = st.lists(st.integers(-30, 30), max_size=4).map(_int_strip)


class TestOneGcdReduction:
    """_symbolic_reduce's one gcd against the fold over every entry."""

    @settings(max_examples=300, deadline=None)
    @given(
        _ROW_POLYS.filter(bool),
        st.lists(_ROW_POLYS, max_size=6),
        _ROW_POLYS.filter(bool),
        st.integers(-6, 6).filter(bool),
    )
    @example([1, 1], [[], [2, 2], [0, 1, 1]], [2], 1)
    def test_matches_the_fold(self, g, ps, d, content):
        nums = [[content * x for x in _int_mul(g, p)] for p in ps]
        den = _int_mul(g, d)
        assert _symbolic_reduce(nums, den) == reference_symbolic_reduce(nums, den)

    def _gcd_calls(self, monkeypatch, nums, den) -> int:
        calls = []
        real = exact._int_poly_gcd
        monkeypatch.setattr(exact, "_int_poly_gcd", lambda a, b: calls.append(1) or real(a, b))
        assert _symbolic_reduce(nums, den) == reference_symbolic_reduce(nums, den)
        return len(calls)

    def test_zero_row_reduces_to_denominator_one(self, monkeypatch):
        assert _symbolic_reduce([[], []], [-3, 0, 6]) == ([[], []], [1])
        assert _symbolic_reduce([[]], [-4]) == ([[]], [1])
        assert self._gcd_calls(monkeypatch, [[], []], [1, 1]) == 0

    def test_single_entry_takes_the_gcd_quotients(self, monkeypatch):
        calls = []
        for name in ("_int_poly_gcd", "_int_exact_div"):
            real = getattr(exact, name)
            monkeypatch.setattr(
                exact, name, lambda a, b, name=name, real=real: calls.append(name) or real(a, b)
            )
        # (b^2 - 1) / (2b + 2) = (b - 1) / 2 in the middle of a row: one gcd,
        # whose two check divisions give the reduced entry and denominator
        assert _symbolic_reduce([[], [-1, 0, 1], []], [2, 2]) == ([[], [-1, 1], []], [2])
        assert calls == ["_int_poly_gcd", "_int_exact_div", "_int_exact_div"]

    def test_one_gcd_when_the_combination_finds_the_row_gcd(self, monkeypatch):
        # (b + 1)(b, b + 2, 3) over (b + 1)(b - 1)
        nums = [[0, 1, 1], [2, 3, 1], [3, 3]]
        assert self._gcd_calls(monkeypatch, nums, [-1, 0, 1]) == 1

    def test_forced_fallback_row(self, monkeypatch):
        # 2 + 2b shares b + 1 with the denominator, and the entry 2 does not
        assert _symbolic_reduce([[2], [0, 1]], [1, 1]) == ([[2], [0, 1]], [1, 1])
        assert self._gcd_calls(monkeypatch, [[2], [0, 1]], [1, 1]) == 2

    @given(_ROW_POLYS, _ROW_POLYS, _ROW_POLYS, _ROW_POLYS)
    @example([], [], [], [])
    @example([], [1, 2], [3], [])
    @example([1, 1], [1, -1], [1], [1, 0, -1])
    def test_fused_update_matches_two_products(self, a, x, b, y):
        # a*x - b*y against two schoolbook products, and the one-sided a*x,
        # on lists and on tuples.
        ax = reference_mul(Poly(a), Poly(x))
        assert _int_mul(a, x, b, y) == list((ax - reference_mul(Poly(b), Poly(y))).coeffs)
        assert _int_mul(tuple(a), tuple(x), tuple(b), tuple(y)) == _int_mul(a, x, b, y)
        assert _int_mul(a, x) == _int_mul(tuple(a), tuple(x)) == list(ax.coeffs)


class TestRatFunc:
    def test_reduces_common_factor(self):
        f = RatFunc(B * B - 1, B - 1)
        assert f == RatFunc(B + 1)
        assert f.den == Poly((1,))

    def test_denominator_sign_normalized(self):
        f = RatFunc(B, 2 - B)
        assert f.den == B - 2
        assert f.num == -B

    def test_scale_canonical(self):
        assert RatFunc(2 * B, 2 * B + 2) == RatFunc(B, B + 1)

    def test_renormalizing_is_identity(self):
        f = RatFunc(3 * B * B - 3, 6 * B + 6)
        again = RatFunc(f.num, f.den)
        assert (again.num, again.den) == (f.num, f.den)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(B, Poly())

    @pytest.mark.parametrize("zero", [0, Fraction(0), Poly()])
    def test_division_by_zero_rejected(self, zero):
        with pytest.raises(ZeroDivisionError, match="^rational function division by zero$"):
            RatFunc(B) / zero

    def test_repr(self):
        assert repr(RatFunc(B, B + 1)) == "RatFunc(Poly('b'), Poly('1 + b'))"

    def test_repr_over_the_unit_denominator(self):
        assert repr(RatFunc(B)) == "RatFunc(Poly('b'))"

    def test_rejects_a_non_polynomial(self):
        with pytest.raises(TypeError, match="^cannot interpret 'x' as a polynomial$"):
            RatFunc("x")

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", None, 1j])
    def test_eval_rejects_inexact_points(self, bad):
        with pytest.raises(TypeError):
            RatFunc(B - 1, B + 1).eval(bad)

    def test_field_arithmetic(self):
        f = RatFunc(B - 1, B + 1)
        g = RatFunc(Poly((1,)), B + 1)
        assert f + g == RatFunc(B, B + 1)
        assert f * (B + 1) == B - 1
        assert (1 - f) == RatFunc(Poly((2,)), B + 1)
        assert 1 / f == RatFunc(B + 1, B - 1)

    def test_eval(self):
        f = RatFunc(B - 1, B + 1)
        assert f.eval(3) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            f.eval(-1)


_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize(
    "operation",
    [
        lambda: "x" - B,
        lambda: B**-1,
        lambda: "x" / B,
        *(lambda op=op: op(RatFunc(B), "x") for op in _ARITHMETIC),
        *(lambda op=op: op("x", RatFunc(B)) for op in _ARITHMETIC),
        lambda: Matrix([[1]]) * 2,
    ],
)
def test_unsupported_operands_raise_type_error(operation):
    # Each operator returns NotImplemented, and Python raises TypeError.
    with pytest.raises(TypeError):
        operation()


@pytest.mark.parametrize("value, other", [(B, "x"), (RatFunc(B), "x"), (Matrix([[1]]), 1)])
def test_comparison_with_another_type_is_false(value, other):
    assert (value == other) is False


def reference_kernel_scalar(num, den):
    """RatFunc(_poly(num), _poly(den)) as it was built: a one-entry row reduction, then the content."""
    num, den = _poly(num), _poly(den)
    (p,), q = _symbolic_reduce(
        [[v * den.denominator for v in num.numerators]],
        [v * num.denominator for v in den.numerators],
    )
    c = math.gcd(*q)
    f = RatFunc.__new__(RatFunc)
    f.num, f.den = _poly(p, c), _poly([v // c for v in q])
    return f


_SMALL_INT_POLYS = st.lists(st.integers(-9, 9), max_size=4).map(_int_strip)


class TestRatfuncNormalisation:
    """_ratfunc, the one normalisation of a ratio, against the two-pass route it replaced."""

    @staticmethod
    def assert_same(num, den):
        f, ref = _ratfunc(num, den), reference_kernel_scalar(num, den)
        assert (f.num.numerators, f.num.denominator) == (ref.num.numerators, ref.num.denominator)
        assert (f.den.numerators, f.den.denominator) == (ref.den.numerators, ref.den.denominator)
        assert f == ref and hash(f) == hash(ref)
        assert format_scalar(f) == format_scalar(ref)
        assert RatFunc(_poly(num), _poly(den)) == f

    @settings(max_examples=300, deadline=None)
    @given(
        int_polys,
        int_polys.filter(bool),
        _SMALL_INT_POLYS.filter(lambda f: len(f) > 1),
        st.integers(-(2**70), 2**70).filter(bool),
        st.booleans(),
    )
    def test_matches_the_two_pass_route(self, num, den, factor, content, shared):
        # Random ratios, then the same ratio times a shared factor and content.
        self.assert_same(num, den)
        if shared:
            num, den = _int_mul(num, factor), _int_mul(den, factor)
        self.assert_same([content * v for v in num], [content * v for v in den])

    @pytest.mark.parametrize(
        "num, den",
        [
            ([1, 2], [-3, 0, -1]),  # negative leading denominator
            ([], [-4, 2]),  # zero numerator
            ([], [5]),
            ([6, -4, 2], [4]),  # constant denominator
            ([6, -4, 2], [-4]),
            ([-1, 0, 1], [1, 1]),  # shared factor b + 1
            ([-2, 0, 2], [-6, -6]),  # shared factor and content, negative leading
            ([12, 18], [8, 0, 4]),  # shared content only
            ([3], [0, 0, -9]),  # constant numerator
            ([10**4400, 0, 10**4400], [0, 2 * 10**4400]),
        ],
    )
    def test_edge_ratios(self, num, den):
        self.assert_same(num, den)


class TestSignOnRay:
    def test_linear_positive(self):
        assert sign_on_ray(B - 1, 2) == RaySign(POSITIVE_ON_RAY)

    @pytest.mark.parametrize("r", [2, Fraction(-1, 2)])
    def test_rejects_rationals(self, r):
        # scalar_sign decides rationals; sign_on_ray takes Poly and RatFunc.
        with pytest.raises(TypeError, match="not a Poly or RatFunc"):
            sign_on_ray(r, 2)
        assert scalar_sign(r, 2) == (1 if r > 0 else -1)

    def test_mixed_with_root_witness(self):
        rs = sign_on_ray(B * B - 3 * B, 2)
        assert rs.verdict == MIXED
        assert rs.witness_bound == 3

    def test_roots_below_ray_are_ignored(self):
        # roots 2 and 3 lie below the ray start 4
        rs = sign_on_ray(B * B - 5 * B + 6, 4)
        assert rs.verdict == POSITIVE_ON_RAY
        # independent confirmation by exact evaluation
        p = B * B - 5 * B + 6
        assert all(p.eval(x) > 0 for x in range(4, 11))

    def test_tangency_counts_as_mixed(self):
        rs = sign_on_ray((B - 3) * (B - 3), 2)
        assert rs.verdict == MIXED
        assert rs.witness_bound == 3

    def test_negative_on_ray(self):
        assert sign_on_ray(1 - B, 2).verdict == NEGATIVE_ON_RAY

    def test_zero_identically(self):
        assert sign_on_ray(Poly(), 5).verdict == ZERO_IDENTICALLY

    def test_ratfunc_sign(self):
        assert sign_on_ray(RatFunc(B - 1, B + 1), 2).verdict == POSITIVE_ON_RAY
        assert sign_on_ray(RatFunc(B - 1, -B - 1), 2).verdict == NEGATIVE_ON_RAY

    def test_root_exactly_at_ray_start(self):
        rs = sign_on_ray(B - 2, 2)
        assert rs.verdict == MIXED
        assert rs.witness_bound == 2

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            sign_on_ray(B, 0)

    @given(st.one_of(polys, one_sign_polys), st.integers(1, 50))
    def test_one_sign_shift_test(self, p, beta):
        # The inline test it replaced, on the coefficients of p(u + beta);
        # coefficients of one sign are read without the shift.
        cs = reference_shift(p, beta).coeffs
        if cs and cs[0] > 0 and all(c >= 0 for c in cs):
            expected = 1
        elif cs and cs[0] < 0 and all(c <= 0 for c in cs):
            expected = -1
        else:
            expected = 0
        assert exact._int_sign_on_ray(list(p.numerators), beta) == expected

    def test_shift_test_at_zero_leaves_a_root_at_zero_undecided(self):
        assert exact._int_sign_on_ray([0, 1], 0) == 0
        assert exact._int_sign_on_ray([0, 1], 1) == 1

    def test_agrees_with_integer_evaluation(self):
        mixed_seen = 0
        sturm_positive_seen = 0
        for p, beta in ray_battery():
            rs = sign_on_ray(p, beta)
            samples = [p.eval(x) for x in range(beta, beta + 51)]
            if rs.verdict == POSITIVE_ON_RAY:
                assert all(v > 0 for v in samples)
                sturm_positive_seen += 1
            elif rs.verdict == NEGATIVE_ON_RAY:
                assert all(v < 0 for v in samples)
            elif rs.verdict == ZERO_IDENTICALLY:
                assert p.is_zero
            else:
                mixed_seen += 1
                assert rs.witness_bound >= beta
                tail = [p.eval(x) for x in range(rs.witness_bound + 1, rs.witness_bound + 51)]
                lead = p.leading
                assert all(v != 0 and (v > 0) == (lead > 0) for v in tail)
            if not p.is_zero:
                # beyond the Cauchy root bound the sign is the leading one
                far = max(beta, _int_root_bound(p.numerators)) + 1
                value = p.eval(far)
                assert value != 0 and (value > 0) == (p.leading > 0)
        assert mixed_seen > 50
        assert sturm_positive_seen > 50

    @pytest.mark.parametrize(
        "battery", [ray_battery, rational_battery, pole_battery, repeated_root_battery]
    )
    def test_matches_fraction_sturm_reference(self, battery):
        verdicts = []
        for f, beta in battery():
            rs = sign_on_ray(f, beta)
            assert rs == reference_sign_on_ray(f, beta), (f, beta)
            verdicts.append(rs.verdict)
        assert verdicts.count(MIXED) > 20
        assert verdicts.count(POSITIVE_ON_RAY) + verdicts.count(NEGATIVE_ON_RAY) > 20


    def test_root_isolation_builds_no_fraction(self, monkeypatch):
        cases = [(f.num * f.den if isinstance(f, RatFunc) else f, beta)
                 for battery in (pole_battery, repeated_root_battery)
                 for f, beta in battery()]
        expected = [reference_floor_largest_root(g, beta) for g, beta in cases]

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built during root isolation")

        monkeypatch.setattr(exact, "Fraction", NoFraction)
        assert [exact._floor_largest_root_at_least(g, beta) for g, beta in cases] == expected


def poly_from_roots(roots, extra=(1,)):
    """The polynomial with the given rational roots, times the factor ``extra``."""
    g = Poly(extra)
    for r in map(Fraction, roots):
        g = g * Poly((-r.numerator, r.denominator))
    return g


def largest_root_floor(roots, beta):
    """The floor of the largest chosen root at least beta, or None."""
    return max((math.floor(r) for r in map(Fraction, roots) if r >= beta), default=None)


def probed_points(g, beta):
    """The integers at which _floor_largest_root_at_least evaluates g's chain."""
    points = set()
    real = exact._int_eval
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_int_eval", lambda a, x: points.add(x) or real(a, x))
        exact._floor_largest_root_at_least(g, beta)
    return points


class TestFloorLargestRoot:
    """One Sturm chain and a plain bisection find the floor the deflating search finds."""

    @staticmethod
    def assert_floor(roots, beta, extra=(1,)):
        g = poly_from_roots(roots, extra)
        expected = largest_root_floor(roots, beta)
        assert exact._floor_largest_root_at_least(g, beta) == expected, (roots, beta)
        assert reference_floor_largest_root(g, beta) == expected, (roots, beta)

    @pytest.mark.parametrize("beta", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("others", [(), (-3,), (0, -7), (Fraction(1, 2),)])
    def test_integer_root_at_beta(self, beta, others):
        self.assert_floor((beta, *others), beta)
        self.assert_floor((beta, *others), beta, extra=(1, 0, 1))  # and b^2 + 1

    def test_integer_roots_at_bisection_midpoints(self):
        # Every root set of 1..3 roots from 1..40 with beta 1, 2 or 5: keep
        # those with a root, the largest or another, at a probe point.
        on_probe = largest_on_probe = 0
        for size in (1, 2, 3):
            for roots in itertools.combinations(range(1, 41, 3), size):
                for beta in (1, 2, 5):
                    g = poly_from_roots(roots)
                    hit = set(roots) & (probed_points(g, beta) - {beta})
                    if hit:
                        on_probe += 1
                        largest_on_probe += max(roots) in hit
                        self.assert_floor(roots, beta)
        assert on_probe > 100 and largest_on_probe > 20

    @pytest.mark.parametrize("r", [1, 2, 9, 40, 1001])
    def test_roots_just_below_the_cauchy_bound(self, r):
        for roots in ([r], [r, 0], [r, Fraction(-1, 2)]):
            g = poly_from_roots(roots)
            assert _int_root_bound(list(g.squarefree_part().numerators)) - max(roots) <= 1
            for beta in (1, r, r + 1):
                self.assert_floor(roots, beta)

    @pytest.mark.parametrize(
        "roots",
        [
            (3, 3),
            (3, 3, 7, 7, 7),
            (Fraction(5, 2),) * 2 + (6,),
            (1, 4, 4, 4, 4, Fraction(9, 2)),
            (Fraction(-1, 3),) * 3 + (11,) * 2,
        ],
    )
    @pytest.mark.parametrize("beta", [1, 3, 4, 5, 7, 8])
    def test_repeated_roots(self, roots, beta):
        self.assert_floor(roots, beta)

    def test_rational_roots_between_two_integers(self):
        for q in range(2, 6):
            for p in range(q + 1, 12 * q):
                if math.gcd(p, q) == 1:
                    for beta in {1, p // q, p // q + 1}:
                        self.assert_floor((Fraction(p, q),), beta)
                        self.assert_floor((Fraction(p, q), 2), beta)
                        self.assert_floor((Fraction(p, q), Fraction(p + 1, q), -5), beta)

    @pytest.mark.parametrize(
        "roots, extra",
        [((), (5,)), ((), (1, 0, 1)), ((2,), (1,)), ((-4, 0, Fraction(7, 2)), (2, 1, 3))],
    )
    @pytest.mark.parametrize("beta", [4, 9])
    def test_no_root_at_or_above_beta(self, roots, extra, beta):
        self.assert_floor(roots, beta, extra)

    def test_one_chain_and_one_squarefree_part_per_search(self, monkeypatch):
        chains, parts = [], []
        real_chain, real_part = exact._sturm_chain, Poly.squarefree_part
        monkeypatch.setattr(exact, "_sturm_chain", lambda a: chains.append(a) or real_chain(a))
        monkeypatch.setattr(Poly, "squarefree_part", lambda p: parts.append(p) or real_part(p))
        # roots on probe points and at beta, which the deflating search divided out
        for roots, beta in [((1,), 1), ((3, 3, 7), 3), ((1, 7, 21, 40), 1), ((2, 5, 5), 9)]:
            chains.clear()
            parts.clear()
            exact._floor_largest_root_at_least(poly_from_roots(roots), beta)
            assert (len(chains), len(parts)) == (1, 1), (roots, beta)


class TestScalarSign:
    def test_rational_signs(self):
        assert scalar_sign(Fraction(-3, 7)) == -1
        assert scalar_sign(0) == 0
        assert scalar_sign(5) == 1

    def test_symbolic_needs_ray(self):
        with pytest.raises(ValueError):
            scalar_sign(B)

    def test_mixed_raises_with_bound(self):
        with pytest.raises(SignUndecidedOnRay) as exc:
            scalar_sign(B * B - 3 * B, 2)
        assert exc.value.witness_bound == 3

    @pytest.mark.parametrize("query", [scalar_sign, format_scalar])
    def test_rejects_a_non_scalar(self, query):
        with pytest.raises(TypeError, match="^not an exact scalar: 'x'$"):
            query("x")


def fraction_without_digit_limit(text: str) -> Fraction:
    """Fraction(text), reading integers past the int/str digit limit too."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


# A 5,001-digit integer, past the int/str digit limit of 4,300 digits.
_L = "1" + "0" * 4999 + "7"

# (token, type, format_scalar bytes or exception message)
PARSE_RECORD = [
    ("7", Fraction, "7"),
    ("+0007/0008", Fraction, "7/8"),
    ("2/4", Fraction, "1/2"),
    ("1.5", Fraction, "3/2"),
    ("1_0", Fraction, "10"),
    ("٣", Fraction, "3"),
    (_L, Fraction, _L),
    (f"-{_L}/3", Fraction, f"-{_L}/3"),
    ("1/-2", ValueError, "Invalid literal for Fraction: '1/-2'"),
    (f"[{_L},0.5]", Poly, f"[{_L},1/2]"),
    (f"[1,{_L}]/[{_L},1]", RatFunc, f"[1,{_L}]/[{_L},1]"),
    ("[ 1 , 2 ]/[3]", RatFunc, "[1/3,2/3]"),
    ("[.5]", Poly, "[1/2]"),
    ("[1_000]", Poly, "[1000]"),
    ("[١,2]", Poly, "[1,2]"),
    ("[]", Poly, "[0]"),
    ("[ ]", Poly, "[0]"),
    ("[1,,2]", ValueError, "Invalid literal for Fraction: ''"),
    ("[1 2]", ValueError, "Invalid literal for Fraction: '1 2'"),
    ("[1/0]", ValueError, "zero denominator in scalar '[1/0]'"),
    ("[0.5, 1e5]", ValueError, "exponent notation in scalar '[0.5, 1e5]'"),
    ("[1,-2/-3]", ValueError, "Invalid literal for Fraction: '-2/-3'"),
    # Whitespace around a rational function's "/", unreduced coefficients,
    # Fraction's syntax inside a literal and a coefficient past the digit limit.
    ("[1, 2] / [3]", RatFunc, "[1/3,2/3]"),
    ("[1] /[2]", RatFunc, "[1/2]"),
    ("[1]/ [2]", RatFunc, "[1/2]"),
    ("[2/4]", Poly, "[1/2]"),
    ("[0.5]", Poly, "[1/2]"),
    (f"[-{_L}/3, 2/6]", Poly, f"[-{_L}/3,1/3]"),
    ("[1,2/0]", ValueError, "zero denominator in scalar '[1,2/0]'"),
    ("[1/0,0.5]", ValueError, "zero denominator in scalar '[1/0,0.5]'"),
    ("[1]/ 2", ValueError, "malformed polynomial literal: ' 2'"),
    ("[1,[2]]", ValueError, "malformed polynomial literal: '[1,[2]]'"),
    ("[[1]", ValueError, "malformed polynomial literal: '[[1]'"),
    ("[1] / [2] / [3]", ValueError, "malformed polynomial literal: ' [2] / [3]'"),
]

# Scalar literals as a matrix row writes them, with and without spaces in
# the brackets, and whitespace that str.split() and the loop both split on.
_LITERALS = st.sampled_from(
    ["12", "-3/4", "0", "[1,2]", "[ 1 , -2/3 ]", "[]", "[1]/[1,1]", "[ 0, 1 ]/[2]", "[0.5]"]
)
_GAPS = st.lists(st.sampled_from([" ", "\t", "\x1c", "\u3000"]), min_size=1, max_size=3).map(
    "".join
)


class TestTextSyntax:
    @pytest.mark.parametrize("text", ["12", "-7", "3/2", "-45/8", "0"])
    def test_rational_round_trip(self, text):
        assert format_scalar(parse_scalar(text)) == text

    def test_poly_format(self):
        assert format_scalar(Poly((0, -3, 1))) == "[0,-3,1]"
        assert format_scalar(Poly()) == "[0]"

    def test_poly_parse_tolerates_spaces(self):
        assert parse_scalar("[1, 2/3, 4]") == Poly((1, Fraction(2, 3), 4))

    # An unclosed literal, and a rational-function denominator that is not a literal.
    @pytest.mark.parametrize(
        "text, part",
        [pytest.param("[1", "[1", id="unclosed"), pytest.param("[1]/2", "2", id="denominator")],
    )
    def test_malformed_polynomial_literal(self, text, part):
        with pytest.raises(ValueError) as caught:
            parse_scalar(text)
        assert str(caught.value) == f"malformed polynomial literal: {part!r}"

    def test_ratfunc_round_trip(self):
        f = RatFunc(B - 1, B + 1)
        assert format_scalar(f) == "[-1,1]/[1,1]"
        assert parse_scalar("[-1,1]/[1,1]") == f

    def test_ratfunc_with_unit_denominator_prints_as_poly(self):
        assert format_scalar(RatFunc(B + 2)) == "[2,1]"

    def test_token_splitting(self):
        assert split_scalar_tokens("3 [1, 2] 4/5") == ["3", "[1, 2]", "4/5"]

    @pytest.mark.parametrize(
        "line, tokens",
        [
            ("[1] / [2] 3", ["[1] / [2]", "3"]),
            ("[1] /[2]", ["[1] /[2]"]),
            ("[1]/ [2]", ["[1]/ [2]"]),
            ("[1] / 2", ["[1]", "/", "2"]),
        ],
    )
    def test_slash_between_brackets_joins_one_token(self, line, tokens):
        # A "/" joins two bracket groups whatever whitespace surrounds it,
        # as parse_scalar reads a rational function in a JSON string.
        assert split_scalar_tokens(line) == tokens

    def test_unbalanced_brackets_rejected(self):
        with pytest.raises(ValueError):
            split_scalar_tokens("[1, 2")

    def test_stray_closing_bracket_rejected(self):
        with pytest.raises(ValueError, match="unbalanced brackets"):
            split_scalar_tokens("1 2] 3")

    @given(st.lists(st.tuples(_GAPS, _LITERALS)), _GAPS)
    def test_literal_lines_split_as_the_loop_does(self, pairs, tail):
        line = "".join(gap + literal for gap, literal in pairs) + tail
        assert split_scalar_tokens(line) == reference_split_tokens(line)

    @pytest.mark.parametrize(
        "line", ["[[1]]", "1 [2,[3]]", "[1]]", "][", "[1] [2", "[1, 2]/[3", "2 3]/[4]"]
    )
    def test_nested_or_unbalanced_brackets_rejected(self, line):
        with pytest.raises(ValueError, match="unbalanced brackets"):
            split_scalar_tokens(line)

    @given(st.text(alphabet=st.characters(blacklist_characters="[]")))
    def test_bracket_free_lines_split_as_the_loop_does(self, line):
        assert split_scalar_tokens(line) == reference_split_tokens(line)

    @given(st.lists(st.sampled_from(["12", "-3/4", "0", " ", "\t", "\x1f", "\u3000"])))
    def test_number_lines_split_as_the_loop_does(self, parts):
        line = "".join(parts)
        assert split_scalar_tokens(line) == reference_split_tokens(line)

    @pytest.mark.parametrize("text, kind, expected", PARSE_RECORD, ids=range(len(PARSE_RECORD)))
    def test_parse_scalar_gives_the_recorded_result(self, text, kind, expected):
        # The value's type and format_scalar bytes, or the exception's type
        # and message, for plain rationals, other non-bracket tokens,
        # polynomial and rational-function literals and malformed ones.
        if issubclass(kind, Exception):
            with pytest.raises(kind) as exc:
                parse_scalar(text)
            assert str(exc.value) == expected
        else:
            value = parse_scalar(text)
            assert type(value) is kind
            assert format_scalar(value) == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**30), 10**30),
                st.integers(0, 12),
                st.sampled_from(["{}", "{}/{}", " {}/{} ", "+{}/{}", "{}.0", "{}_0/{}0"]),
            ),
            max_size=5,
        )
    )
    def test_polynomial_literal_matches_fraction_per_coefficient(self, coefficients):
        # Plain coefficients are read by the row rule, the others by
        # Fraction's syntax; either way the literal is each coefficient's Fraction.
        parts = [form.format(p, q) for p, q, form in coefficients]
        text = "[" + ",".join(parts) + "]"
        try:
            expected = Poly(tuple(Fraction(part.strip()) for part in parts))
        except ValueError:  # "+-3": Fraction rejects it, and so must the literal
            with pytest.raises(ValueError):
                parse_scalar(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                parse_scalar(text)
        else:
            assert parse_scalar(text) == expected
            assert format_scalar(parse_scalar(text)) == format_scalar(expected)

    @given(st.text(alphabet="+-0123456789\u0663\uff17\u00b2_/.eE "))
    @example(" -0012 ")
    @example("+-1")
    @example("1_0")
    @example("\u0663")
    @example("\u00b2")
    @example("3/0")
    @example("1e601110")
    @example("2E3")
    @example("-3/4")
    @example("+0007/0008")
    @example("3/-4")
    @example("1/0")
    @example("-0/5")
    @example("1_0/3")
    @example("\u0663/4")
    @example("3" * 4400 + "/7")
    def test_parse_scalar_matches_fraction(self, text):
        # ASCII integers and p/q take a fast path; a token with an exponent
        # is rejected, and every other token is Fraction's, whose integers
        # may be longer than the int/str digit limit.
        try:
            if "e" in text or "E" in text:
                raise ValueError("exponent notation")
            expected = fraction_without_digit_limit(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                parse_scalar(text)
        else:
            assert parse_scalar(text) == expected



# JSON number tokens with a fraction part: integer digits, then up to 30
# fraction digits, more than a float holds.
_JSON_DECIMALS = st.from_regex(r"-?(0|[1-9][0-9]{0,20})\.[0-9]{1,30}", fullmatch=True)


class TestJsonNumbers:
    """parse_json keeps a decimal's token, so documents read it exactly."""

    @given(_JSON_DECIMALS)
    @example("0.30000000000000001")
    @example("-0.0")
    def test_decimals_read_exactly(self, token):
        assert parse_doc_scalar(parse_json(token)) == Fraction(token)
        assert parse_json(f"[{token}]") == [token]

    def test_a_decimal_reads_as_its_json_string(self):
        doc = parse_json('{"a": 0.30000000000000001, "b": "0.30000000000000001"}')
        assert parse_doc_scalar(doc["a"]) == parse_doc_scalar(doc["b"])
        assert parse_doc_scalar(doc["a"]) == Fraction(30000000000000001, 10**17)
        assert parse_doc_scalar(doc["a"]) != Fraction(0.30000000000000001)

    @pytest.mark.parametrize("token", ["1e22", "1E+22", "-2.5e-3", "1e601110", "0.5E0"])
    def test_exponents_are_rejected_by_their_token(self, token):
        for read in (parse_doc_scalar, parse_int):
            with pytest.raises(ValueError) as exc:
                read(parse_json(token))
            assert str(exc.value) == f"exponent notation in scalar {token!r}"

    @pytest.mark.parametrize("token, value", [("2.0", 2), ("-3.000", -3), ("0.0", 0)])
    def test_integral_decimals_are_integers(self, token, value):
        assert parse_int(parse_json(token)) == value
        assert type(parse_int(parse_json(token))) is int

    @pytest.mark.parametrize("token", ["2.5", "2.0000000000000001"])
    def test_fractional_decimals_are_not_integers(self, token):
        with pytest.raises(ValueError) as exc:
            parse_int(parse_json(token))
        assert str(exc.value) == f"not an integer: {token}"

    def test_decoded_decimal_repr_is_its_token(self):
        assert [repr(x) for x in parse_json("[1.50, 1e22, -0.0]")] == ["1.50", "1e22", "-0.0"]

    def test_python_floats_are_still_read(self):
        # Documents decoded by json.loads hold floats, which library callers
        # pass to factorization_from_doc and matrix_from_doc.
        assert parse_int(2.0) == 2 and type(parse_int(2.0)) is int
        for bad in (2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                parse_int(bad)
        assert parse_doc_scalar(0.5) == Fraction(1, 2)
        assert parse_doc_scalar(-3.0) == -3
        assert parse_doc_scalar(0.1) == Fraction(1, 10)

    def test_json_strings_and_integers_are_unchanged(self):
        # A decimal written as a JSON string is text, which parse_int refuses.
        assert parse_json('[7, "2.0", 2.0]') == [7, "2.0", "2.0"]
        assert type(parse_json('"2.0"')) is str
        with pytest.raises(ValueError):
            parse_int(parse_json('"2.0"'))

def reference_format_scalar(x) -> str:
    """format_scalar as it was: one Fraction per coefficient, Decimal past the digit limit."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError:
            num = str(Decimal(x.numerator))
            return num if x.denominator == 1 else num + "/" + str(Decimal(x.denominator))
    if isinstance(x, Poly):
        return "[" + ",".join(map(reference_format_scalar, x.coeffs or (Fraction(0),))) + "]"
    if x.den == Poly((1,)):
        return reference_format_scalar(x.num)
    return reference_format_scalar(x.num) + "/" + reference_format_scalar(x.den)


# Integers of either sign, small, large, and past the int/str digit limit.
_FORMAT_INTS = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**200), 2**200),
    st.builds(lambda k, sign: sign * (10**4400 + k), st.integers(0, 10**6), st.sampled_from([1, -1])),
)
_FORMAT_FRACTIONS = st.builds(
    Fraction, _FORMAT_INTS, st.one_of(st.integers(1, 60), _FORMAT_INTS.filter(lambda v: v > 0))
)
_FORMAT_POLYS = st.lists(st.one_of(_FORMAT_INTS, _FORMAT_FRACTIONS), max_size=4).map(Poly)


class TestFormatScalarParity:
    """format_scalar writes the bytes of the Fraction-per-coefficient formatter."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            _FORMAT_INTS,
            _FORMAT_FRACTIONS,
            _FORMAT_POLYS,
            st.builds(RatFunc, _FORMAT_POLYS, _FORMAT_POLYS.filter(bool)),
        )
    )
    def test_matches_the_fraction_formatter(self, x):
        assert format_scalar(x) == reference_format_scalar(x)

    @pytest.mark.parametrize(
        "x",
        [
            True,
            False,
            0,
            -7,
            Fraction(-3, 4),
            Fraction(10**4400 + 1, 10**4400),
            Fraction(-(10**4400) - 3, 7),
            Poly(),
            Poly((0, -3, Fraction(-1, 2))),
            Poly((Fraction(10**4400 + 1, 3), Fraction(-1, 10**4400))),
            RatFunc(Poly((2, Fraction(-1, 3)))),
            RatFunc(Poly((Fraction(-1, 6), 1)), Poly((3, 0, 1))),
            RatFunc(Poly()),
        ],
        ids=range(13),
    )
    def test_edge_values(self, x):
        assert format_scalar(x) == reference_format_scalar(x)

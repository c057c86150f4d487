import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercheck import unipoly
from hypercheck.cli import run
from hypercheck.errors import DegreeMismatch, NotRealRooted, ZeroPolynomial
from hypercheck.rationals import Q, qsign, simplest_between
from hypercheck.unipoly import (
    RealRoot,
    UniPoly,
    ZeroSumPoly,
    _fit,
    _horner,
    _int_quo,
    _prem,
    _yun_chains,
    cauchy_bound,
    count_roots_halfopen,
    dee,
    delta_n,
    discriminant,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    poly_gcd,
    resultant,
    root_counts,
    root_profile,
    same_sign_count,
    signed_remainder_sequence,
    squarefree_part,
    sturm_chain,
)

small_q = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
).map(lambda f: Q(f.numerator, f.denominator))


def rand_poly(rng, degree, lo=-9, hi=9):
    coeffs = [Q(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(degree + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Q(1)
    return UniPoly(coeffs)


def divmod_poly(a: UniPoly, b: UniPoly):
    """Exact rational polynomial division with remainder, from the
    pseudo-division lc(B)^e A = Q B + R of the numerators, e = len(A) - deg B.
    The library divides only on integer lists; this is the rational
    division the reference helpers below are written in."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    db = b.degree()
    B, A = b.nums[: db + 1], _fit(a.nums, max(a.ambient_degree, db))
    scale, R = B[-1] ** (len(A) - db), _prem(A, B)
    quo = _int_quo([scale * c - r for c, r in zip_longest(A, R, fillvalue=0)], B)
    # A / a.den = (quo b.den / (scale a.den)) (B / b.den) + R / (scale a.den)
    return (
        UniPoly.from_ints([c * b.den for c in quo], scale * a.den),
        UniPoly.from_ints(_fit(R, max(db - 1, 0)), scale * a.den),
    )


# -- structure ----------------------------------------------------------


def test_ambient_degree_and_drop():
    p = UniPoly([1, 2], 4)
    assert p.ambient_degree == 4 and p.degree() == 1 and p.degree_drop() == 3
    with pytest.raises(DegreeMismatch):
        UniPoly([1, 2, 3], 1)


def _dilate(p, c):
    """p(c t) at the same ambient degree."""
    return UniPoly([a * c**j for j, a in enumerate(p.coeffs)], p.ambient_degree)


def _reversed_coeffs(p):
    """R_n: t^n p(1/t) at the ambient degree n."""
    return UniPoly(list(reversed(p.coeffs)), p.ambient_degree)


def test_shift_dilate_reverse():
    p = UniPoly([1, 2, 1])  # (t+1)^2
    assert p.shift(Q(1)) == UniPoly([4, 4, 1])  # (t+2)^2
    assert _dilate(p, Q(2)) == UniPoly([1, 4, 4])
    assert _reversed_coeffs(UniPoly([1, 2, 3])) == UniPoly([3, 2, 1])


def test_from_roots_and_evaluate():
    p = UniPoly.from_roots([1, -2, Q(1, 2)])
    for r in (1, -2, Q(1, 2)):
        assert p.evaluate(r) == 0
    assert p.leading() == 1


def _product_from_roots(roots, ambient=None, lead=1):
    """Reference: from_roots as it was, one UniPoly product per root."""
    p = UniPoly([lead])
    for r in roots:
        p = p * UniPoly([-Q(r), Q(1)])
    return p if ambient is None else p.with_ambient(ambient)


wide_q = st.fractions(
    min_value=-50, max_value=50, max_denominator=10**6
).map(lambda f: Q(f.numerator, f.denominator))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(small_q, wide_q, st.integers(-5, 5)), max_size=7),
    st.integers(0, 3),
    st.one_of(st.just(1), st.just(0), small_q, wide_q),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_from_roots_matches_product(roots, repeat, lead, extra):
    """The integer expansion gives the coefficients of the Fraction
    product: empty and repeated roots, rational and zero leads, and an
    ambient degree above the degree."""
    roots = roots + roots[:1] * repeat
    ambient = None if extra is None else len(roots) + extra
    got = UniPoly.from_roots(roots, ambient=ambient, lead=lead)
    want = _product_from_roots(roots, ambient, lead)
    assert [(type(c), c.numerator, c.denominator) for c in got.coeffs] == [
        (type(c), c.numerator, c.denominator) for c in want.coeffs
    ]


def test_from_roots_edge_cases():
    assert UniPoly.from_roots([]).coeffs == (1,)
    assert UniPoly.from_roots([], ambient=2, lead=Q(3, 4)).coeffs == (Q(3, 4), 0, 0)
    assert UniPoly.from_roots([Q(1, 2)] * 3, lead=8) == UniPoly([-1, 6, -12, 8])
    with pytest.raises(DegreeMismatch):
        UniPoly.from_roots([1, 2, 3], ambient=2)


# -- the integer representation against a Fraction-tuple reference ------------
#
# The reference is UniPoly as it was: a tuple of Fractions, padded or cut to
# the ambient degree, with the arithmetic written out on those tuples.


def _ref_make(coeffs, ambient=None):
    cs = [Fraction(c) for c in coeffs]
    if ambient is None:
        return tuple(cs) or (Fraction(0),)
    if any(cs[ambient + 1 :]):
        raise DegreeMismatch("coefficients exceed the ambient degree")
    return tuple(cs[: ambient + 1]) + (Fraction(0),) * (ambient + 1 - len(cs))


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + (Fraction(0),) * (n - len(a)), b + (Fraction(0),) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _ref_evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_shift(a, c):
    out = [Fraction(0)] * len(a)
    for coeff in reversed(a):
        for j in range(len(out) - 1, 0, -1):
            out[j] = out[j - 1] + out[j] * c
        out[0] = out[0] * c + coeff
    return tuple(out)


def _ref_divmod(a, b):
    db = max(j for j, c in enumerate(b) if c)
    rem = list(a) + [Fraction(0)] * max(0, db - (len(a) - 1))
    quo = [Fraction(0)] * max(1, len(rem) - db)
    for j in range(len(rem) - 1, db - 1, -1):
        q = rem[j] / b[db]
        quo[j - db] = q
        for i in range(db + 1):
            rem[j - db + i] -= q * b[i]
    return tuple(quo), tuple(rem[:db] if db > 0 else [Fraction(0)])


def _exact(coeffs):
    """(type, numerator, denominator) of each coefficient."""
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


rep_q = st.one_of(
    st.just(Q(0)),
    small_q,
    wide_q,
    st.fractions(max_denominator=10**12).map(lambda f: Q(f.numerator, f.denominator)),
)


@st.composite
def rep_input(draw):
    """(coefficients as ints, Qs or "num/den" strings, ambient, reference):
    the ambient degree is absent, above the length (padding) or below it
    over trailing zeros (trimming)."""
    values = draw(st.lists(rep_q, max_size=6))
    values += [Q(0)] * draw(st.integers(0, 2))
    forms = [
        draw(st.sampled_from(["q", "str"] + (["int"] if v.denominator == 1 else [])))
        for v in values
    ]
    coeffs = [
        int(v) if f == "int" else f"{v.numerator}/{v.denominator}" if f == "str" else v
        for v, f in zip(values, forms)
    ]
    top = max((j for j, v in enumerate(values) if v), default=-1)
    ambient = draw(st.one_of(st.none(), st.integers(max(top, 0), len(values) + 2)))
    return coeffs, ambient, _ref_make(values, ambient)


@settings(max_examples=300, deadline=None)
@given(rep_input(), rep_input(), rep_q, rep_q)
def test_representation_matches_fraction_reference(spec_a, spec_b, c, x):
    """Construction, the Fraction view, equality and hashing, and the
    arithmetic of the integer representation against Fraction tuples."""
    (ca, amb_a, ra), (cb, amb_b, rb) = spec_a, spec_b
    a, b = UniPoly(ca, amb_a), UniPoly(cb, amb_b)
    for p, ref in ((a, ra), (b, rb)):
        assert _exact(p.coeffs) == _exact(ref)
        assert p.den > 0 and gcd(p.den, *p.nums) == 1
        assert p.ambient_degree == len(ref) - 1
        # round trips, and equal polynomials built by other routes
        for same in (
            UniPoly(p.coeffs, p.ambient_degree),
            UniPoly([str(v) for v in p.coeffs]),
            UniPoly.from_ints([-3 * v for v in p.nums], -3 * p.den),
            (p * c) * (1 / c) if c else p + (p * c),
            (p + b) - b,
        ):
            same = same.with_ambient(p.ambient_degree)
            assert same == p and hash(same) == hash(p)
    assert _exact((a + b).coeffs) == _exact(_ref_add(ra, rb))
    assert _exact((a - b).coeffs) == _exact(_ref_add(ra, tuple(-v for v in rb)))
    assert _exact((a * b).coeffs) == _exact(_ref_mul(ra, rb))
    assert _exact((a * c).coeffs) == _exact(tuple(v * c for v in ra))
    assert _exact((c * a).coeffs) == _exact(tuple(c * v for v in ra))
    assert _exact((-a).coeffs) == _exact(tuple(-v for v in ra))
    deriv = tuple(j * ra[j] for j in range(1, len(ra))) or (Fraction(0),)
    assert _exact(a.derivative().coeffs) == _exact(deriv)
    assert _exact(a.shift(x).coeffs) == _exact(_ref_shift(ra, x))
    assert type(a.evaluate(x)) is Q and a.evaluate(x) == _ref_evaluate(ra, x)
    if any(rb):
        q, r = divmod_poly(a, b)
        ref_q, ref_r = _ref_divmod(ra, rb)
        assert (_exact(q.coeffs), _exact(r.coeffs)) == (_exact(ref_q), _exact(ref_r))
    roots = [v for v in ra if v][:4]
    ref_roots = _ref_make([c])
    for root in roots:
        ref_roots = _ref_mul(ref_roots, (-root, Fraction(1)))
    assert _exact(UniPoly.from_roots(roots, lead=c).coeffs) == _exact(ref_roots)


def test_representation_is_checked_like_the_reference():
    with pytest.raises(DegreeMismatch):
        UniPoly(["1/2", 0, "3"], 1)
    assert UniPoly([], 2).nums == (0, 0, 0) and UniPoly([]).coeffs == (0,)
    p = UniPoly(["-4/6", 2, Q(5, 3)], 4)
    assert (p.nums, p.den) == ((-2, 6, 5, 0, 0), 3)
    assert UniPoly.from_ints([0, 0], -7) == UniPoly([0, 0]) and UniPoly([0, 0]).den == 1


def test_divmod_exact():
    rng = random.Random(0)
    for _ in range(50):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        q, r = divmod_poly(a, b)
        assert (q * b + r).trimmed() == a.trimmed()
        assert r.degree() < b.degree()


def test_gcd_and_squarefree():
    p = UniPoly.from_roots([1, 1, 2])
    dp = p.derivative()
    g = poly_gcd(p, dp)
    assert g.degree() == 1 and g.evaluate(1) == 0
    assert squarefree_part(p) == UniPoly.from_roots([1, 2])


def test_squarefree_part_is_a_positive_multiple():
    """With a negative, non-unit leading coefficient: a positive multiple
    of p / gcd(p, p')."""
    p = UniPoly.from_roots([1, 1, Q(-1, 2), 3, 3, 3], lead=Q(-6, 5))
    expected, r = divmod_poly(p, poly_gcd(p, p.derivative()))
    sf = squarefree_part(p)
    ratio = sf.leading() / expected.leading()
    assert r.is_zero() and ratio > 0 and sf == (expected * ratio).trimmed()


def test_yun_decomposition_multiplicities():
    """Each factor's chain starts with the factor and is its Sturm chain."""
    p = UniPoly.from_roots([1, 1, 2, 2, 2, -3])
    parts = dict()
    for chain, mult in _yun_chains(p.primitive()):
        parts[mult] = UniPoly.from_ints(chain[0])
        assert chain == sturm_chain(parts[mult])
    assert parts[1].evaluate(-3) == 0
    assert parts[2].evaluate(1) == 0
    assert parts[3].evaluate(2) == 0


# -- Sturm and isolation ---------------------------------------------------


def test_sturm_counts():
    p = UniPoly.from_roots([-1, 0, 2])
    chain = sturm_chain(p)
    b = cauchy_bound(p)
    assert count_roots_halfopen(chain, -b, b) == 3
    assert count_roots_halfopen(chain, 0, b) == 1  # (0, b]: only 2
    assert count_roots_halfopen(chain, -b, 0) == 2  # (-b, 0]: -1 and 0


def test_isolate_rational_roots_exactly():
    p = UniPoly.from_roots([Q(1, 3), Q(-7, 2), 5])
    roots = isolate_real_roots(p)
    assert [r.exact for r in roots] == [Q(-7, 2), Q(1, 3), Q(5)]


def test_isolate_irrational_roots():
    p = UniPoly([-2, 0, 1])  # t^2 - 2
    roots = isolate_real_roots(p)
    assert len(roots) == 2
    for r in roots:
        assert not r.is_exact()
        lo, hi = r.interval()
        assert qsign(p.evaluate(lo)) != qsign(p.evaluate(hi))
    assert roots[0].sign() == -1 and roots[1].sign() == 1


def test_real_root_compare_equal_across_polynomials():
    a = isolate_real_roots(UniPoly([-2, 0, 1]))[1]  # sqrt(2)
    b = isolate_real_roots(UniPoly([-4, 0, 0, 0, 1]))[1]  # sqrt(2) as quartic root
    assert a.compare(b) == 0
    c = isolate_real_roots(UniPoly([-3, 0, 1]))[1]  # sqrt(3)
    assert a.compare(c) == -1 and c.compare(a) == 1


def test_real_root_vs_rational():
    r = isolate_real_roots(UniPoly([-2, 0, 1]))[1]
    assert r._compare_with_rational(Q(1)) == 1
    assert r._compare_with_rational(Q(2)) == -1
    exact = RealRoot.from_rational(Q(3, 2))
    assert exact.compare(RealRoot.from_rational(Q(3, 2))) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(small_q, min_size=1, max_size=6))
def test_isolation_finds_all_planted_roots(roots):
    p = UniPoly.from_roots(roots)
    prof = root_profile(p)
    distinct = sorted(set(roots))
    assert len(prof.real_roots) == len(distinct)
    for (found, mult), planted in zip(prof.real_roots, distinct):
        assert found.is_exact() and found.exact == planted
        assert mult == roots.count(planted)


# -- root profiles -----------------------------------------------------------


def test_root_profile_counts():
    p = UniPoly([1, 0, 1])  # t^2 + 1
    prof = root_profile(p)
    assert prof.n_nonreal == 2 and prof.n_real() == 0
    p = UniPoly.from_roots([1, 1, 2, 2, -6])
    prof = root_profile(p)
    assert prof.n_positive == 4 and prof.n_negative == 1 and prof.n_nonreal == 0
    assert [(r.exact, m) for r, m in prof.real_roots] == [
        (Q(-6), 1),
        (Q(1), 2),
        (Q(2), 2),
    ]


def test_root_profile_zero_roots_and_drop():
    p = UniPoly([0, 0, 1], 5)  # t^2 with ambient degree 5
    prof = root_profile(p)
    assert prof.n_zero == 2 and prof.degree_drop == 3 and prof.n_nonreal == 0
    with pytest.raises(ZeroPolynomial):
        root_profile(UniPoly([0], 3))


def test_is_real_rooted_forgives_degree_drop():
    assert is_real_rooted(UniPoly([1, 1], 4))
    assert not is_real_rooted(UniPoly([1, 0, 1], 4))


# planted roots: rationals with multiplicity, zero roots, irreducible
# quadratics (t + b)^2 + c with c > 0, a leading coefficient, degree drop
planted_poly = st.tuples(
    st.lists(
        st.tuples(small_q.filter(lambda r: r != 0), st.integers(1, 3)),
        max_size=3,
    ),
    st.integers(0, 2),
    st.lists(
        st.tuples(small_q, small_q.filter(lambda c: c > 0)), max_size=2
    ),
    small_q.filter(lambda c: c != 0),
    st.integers(0, 2),
)


def _build_planted(spec):
    rational, zeros, quadratics, lead, drop = spec
    roots = [r for r, m in rational for _ in range(m)] + [Q(0)] * zeros
    p = UniPoly.from_roots(roots, lead=lead)
    for b, c in quadratics:
        p = p * UniPoly([b * b + c, 2 * b, 1])
    return p.with_ambient(p.degree() + drop)


@settings(max_examples=150, deadline=None)
@given(planted_poly)
def test_root_counts_match_root_profile(spec):
    p = _build_planted(spec)
    counts = root_counts(p)
    prof = root_profile(p)
    assert (
        counts.n_positive,
        counts.n_negative,
        counts.n_zero,
        counts.n_nonreal,
        counts.degree_drop,
    ) == (
        prof.n_positive,
        prof.n_negative,
        prof.n_zero,
        prof.n_nonreal,
        prof.degree_drop,
    )


def test_root_counts_examples():
    counts = root_counts(UniPoly.from_roots([0, 0, 1, 1, 2, -6]) * UniPoly([1, 0, 1]))
    assert (counts.n_positive, counts.n_negative, counts.n_zero) == (3, 1, 2)
    assert counts.n_nonreal == 2 and counts.degree_drop == 0
    assert root_counts(UniPoly([5], 3)).degree_drop == 3
    with pytest.raises(ZeroPolynomial):
        root_counts(UniPoly([0], 3))


def test_same_sign_count():
    p = UniPoly.from_roots([0, 0, 3, -1])
    assert same_sign_count(p, 3)  # zeros count toward either side
    assert not same_sign_count(p, 4)
    with pytest.raises(NotRealRooted):
        same_sign_count(UniPoly([1, 0, 1]), 1)


def _real_count_by_closed_form(p):
    """Independent oracle: number of real roots (with multiplicity is not
    needed; distinct-ness assumed via nonzero discriminant) for degrees
    up to 4 by classical discriminant classification."""
    d = p.degree()
    c = p.coeffs
    if d == 1:
        return 1
    if d == 2:
        disc = c[1] * c[1] - 4 * c[2] * c[0]
        return 2 if disc > 0 else 0
    if d == 3:
        return 3 if discriminant(p) > 0 else 1
    if d == 4:
        disc = discriminant(p)
        if disc < 0:
            return 2
        a, b, cc, dd, e = c[4], c[3], c[2], c[1], c[0]
        P = 8 * a * cc - 3 * b * b
        D = (
            64 * a**3 * e
            - 16 * a**2 * cc**2
            + 16 * a * b**2 * cc
            - 16 * a**2 * b * dd
            - 3 * b**4
        )
        return 4 if (P < 0 and D < 0) else 0
    raise AssertionError


def test_real_count_against_closed_forms():
    rng = random.Random(1)
    checked = 0
    while checked < 300:
        p = rand_poly(rng, rng.randint(1, 4))
        if p.degree() < 1:
            continue
        if p.degree() >= 2 and discriminant(p) == 0:
            continue
        prof = root_profile(p)
        assert prof.n_real() == _real_count_by_closed_form(p), p
        checked += 1


# -- resultants and discriminants -------------------------------------------


def _euclid_resultant(a, b):
    """Independent oracle: resultant by the Euclidean recursion over Q."""
    a, b = a.trimmed(), b.trimmed()
    da, db = a.degree(), b.degree()
    if da < 0 or db < 0:
        return Q(0)
    if db == 0:
        return b.coeffs[0] ** da
    if da < db:
        sign = Q(-1) ** (da * db)
        return sign * _euclid_resultant(b, a)
    _, r = divmod_poly(a, b)
    r = r.trimmed()
    if r.is_zero():
        return Q(0)
    lead = b.leading()
    return lead ** (da - r.degree()) * Q(-1) ** (da * db) * _euclid_resultant(b, r)


def test_resultant_against_euclid_oracle():
    rng = random.Random(2)
    for _ in range(150):
        a = rand_poly(rng, rng.randint(1, 5))
        b = rand_poly(rng, rng.randint(1, 5))
        assert resultant(a, b) == _euclid_resultant(a, b)


def test_resultant_of_shared_root_vanishes():
    a = UniPoly.from_roots([1, 2, 3])
    b = UniPoly.from_roots([3, 5])
    assert resultant(a, b) == 0


def test_discriminant_closed_forms():
    rng = random.Random(3)
    for _ in range(60):
        b, c = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        assert discriminant(UniPoly([c, b, 1])) == b * b - 4 * c
        p, q = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        assert discriminant(UniPoly([q, p, 0, 1])) == -4 * p**3 - 27 * q * q


def test_discriminant_detects_multiple_roots():
    assert discriminant(UniPoly.from_roots([2, 2, 5])) == 0
    assert discriminant(UniPoly.from_roots([1, 2, 3])) != 0


# -- diagonal operators ------------------------------------------------------


def test_dee_and_delta_definitions():
    p = UniPoly([Q(4), Q(3), Q(2), Q(1)])  # ambient 3
    assert dee(p) == UniPoly([12, 6, 2, 0], 3)
    d = delta_n(p)
    assert d.inner == UniPoly([-8, -3, 0, 1], 3)


def test_delta_is_p_minus_dee():
    rng = random.Random(4)
    for _ in range(50):
        p = rand_poly(rng, rng.randint(1, 7))
        assert delta_n(p).inner == (p - dee(p))


def test_zero_sum_poly_validation():
    ZeroSumPoly(UniPoly([2, -3, 0, 1], 3))
    with pytest.raises(DegreeMismatch):
        ZeroSumPoly(UniPoly([0, 0, 1, 1], 3))


# -- interlacing --------------------------------------------------------------


def test_interlaces_examples():
    p = UniPoly.from_roots([0, 2])
    q = UniPoly.from_roots([1])
    assert interlaces(q, p)
    assert not interlaces(UniPoly.from_roots([3]), p)
    with pytest.raises(DegreeMismatch):
        interlaces(UniPoly.from_roots([1, 2]), p)


def test_derivative_interlaces():
    rng = random.Random(5)
    for _ in range(40):
        roots = [Q(rng.randint(-9, 9)) for _ in range(rng.randint(2, 6))]
        p = UniPoly.from_roots(roots)
        assert interlaces(p.derivative(), p)


def test_interlaces_with_multiplicities():
    p = UniPoly.from_roots([1, 1, 2])
    q = UniPoly.from_roots([1, Q(3, 2)])
    assert interlaces(q, p)
    assert not interlaces(UniPoly.from_roots([Q(3, 2), Q(3, 2)]), p)


def _interlaces_by_isolation(q, p):
    """Reference: isolate the roots of both and compare them in order."""
    prof_p = root_profile(p)
    if prof_p.n_nonreal:
        raise NotRealRooted("p is not real rooted")
    prof_q = root_profile(q)
    if prof_q.n_nonreal:
        raise NotRealRooted("q is not real rooted")
    if q.degree() != p.degree() - 1:
        raise DegreeMismatch(
            f"deg q = {q.degree()} but deg p - 1 = {p.degree() - 1}"
        )
    r = prof_p.roots_with_multiplicity()
    s = prof_q.roots_with_multiplicity()
    for i, si in enumerate(s):
        if r[i].compare(si) > 0:
            return False
        if si.compare(r[i + 1]) > 0:
            return False
    return True


# a small shared pool, so that common and multiple roots occur often
ROOT_POOL = [Q(-2), Q(-1), Q(0), Q(1, 2), Q(1), Q(3)]
pool_root = st.sampled_from(ROOT_POOL)
nonzero_lead = st.sampled_from([Q(1), Q(-1), Q(3), Q(-1, 2)])


@st.composite
def root_pool_pair(draw):
    """(q, p) with deg q = deg p - 1 from pool roots; half of the draws
    plant q's roots between consecutive roots of p."""
    r = sorted(draw(st.lists(pool_root, min_size=1, max_size=6)))
    if draw(st.booleans()):
        s = [
            draw(st.sampled_from([x for x in ROOT_POOL if a <= x <= b]))
            for a, b in zip(r, r[1:])
        ]
    else:
        s = draw(st.lists(pool_root, min_size=len(r) - 1, max_size=len(r) - 1))
    p = UniPoly.from_roots(r, lead=draw(nonzero_lead))
    q = UniPoly.from_roots(s, lead=draw(nonzero_lead))
    return q.with_ambient(q.degree() + draw(st.integers(0, 1))), p


@settings(max_examples=300, deadline=None)
@given(root_pool_pair())
def test_interlaces_agrees_with_isolation(pair):
    q, p = pair
    assert interlaces(q, p) == _interlaces_by_isolation(q, p)


def _outcome(fn, q, p):
    try:
        return fn(q, p)
    except (NotRealRooted, DegreeMismatch, ZeroPolynomial) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(pool_root, max_size=5),
    st.lists(pool_root, max_size=5),
    st.integers(0, 3),
)
def test_interlaces_raises_like_isolation(p_roots, q_roots, nonreal):
    """Non-real factors on p, q or both, and any degrees; a non-real factor
    replaces two of q's roots, so that q can be non-real at deg p - 1."""
    quad = UniPoly([1, 0, 1])
    p = UniPoly.from_roots(p_roots)
    q = UniPoly.from_roots(q_roots)
    if nonreal & 1:
        p = p * quad
    if nonreal & 2:
        q = UniPoly.from_roots(q_roots[2:]) * quad
    assert _outcome(interlaces, q, p) == _outcome(_interlaces_by_isolation, q, p)


def test_interlaces_checks_q_when_the_index_fails():
    p = UniPoly.from_roots([1, 2, 3])
    with pytest.raises(NotRealRooted, match="q is not real rooted"):
        interlaces(UniPoly([1, 0, 1]), p)
    assert not interlaces(UniPoly.from_roots([0, 4]), p)


def test_interlaces_zero_q_raises():
    """deg 0 - 1 = deg of the zero polynomial, which has no roots to count."""
    with pytest.raises(ZeroPolynomial):
        interlaces(UniPoly([0]), UniPoly([3]))


# -- integer sign queries against the Fraction root layer ---------------------


def _int_poly(factors):
    """Ascending integer coefficients of the product of integer factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_q, min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
    st.data(),
)
def test_sign_at_matches_fraction_evaluation(roots, extra, data):
    """den^m p(num/den) by integer Horner, for planted rational roots times
    an arbitrary integer factor, at the planted roots and off them, with
    num/den in lowest terms and not."""
    ints = _int_poly([[-r.numerator, r.denominator] for r in roots] + [extra])
    x = data.draw(st.one_of(st.sampled_from(roots), small_q))
    k = data.draw(st.integers(1, 6))
    num, den = x.numerator * k, x.denominator * k
    assert _horner(ints, num, den) == UniPoly(ints).evaluate(x) * den ** (len(ints) - 1)


class _FractionRealRoot:
    """Reference: RealRoot as it was before sign queries moved to integers,
    evaluating its polynomial in Fraction arithmetic at every query."""

    def __init__(self, poly, lo=None, hi=None, exact=None):
        self.poly, self.lo, self.hi, self.exact = poly, lo, hi, exact

    def refine(self):
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        v = self.poly.evaluate(mid)
        if v == 0:
            self.exact = mid
            return
        if qsign(self.poly.evaluate(self.lo)) != qsign(v):
            self.hi = mid
        else:
            self.lo = mid

    def try_rational(self, extra_bits=24):
        if self.exact is not None:
            return True
        target = (self.hi - self.lo) / (1 << extra_bits)
        while self.exact is None and self.hi - self.lo > target:
            self.refine()
        if self.exact is not None:
            return True
        cand = simplest_between(self.lo, self.hi)
        if self.poly.evaluate(cand) == 0:
            self.exact = cand
            return True
        return False

    def compare(self, other):
        if self is other:
            return 0
        while True:
            if self.exact is not None and other.exact is not None:
                return (self.exact > other.exact) - (self.exact < other.exact)
            if self.exact is not None:
                return -other._compare_with_rational(self.exact)
            if other.exact is not None:
                return self._compare_with_rational(other.exact)
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            h = poly_gcd(self.poly, other.poly)
            a, b = max(self.lo, other.lo), min(self.hi, other.hi)
            if h.degree() >= 1 and a < b and _fraction_count(h, a, b) >= 1:
                return 0
            self.refine()
            other.refine()

    def _compare_with_rational(self, x):
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        if self.poly.evaluate(x) == 0:
            self.exact = x
            return 0
        if qsign(self.poly.evaluate(self.lo)) != qsign(self.poly.evaluate(x)):
            self.hi = x
            return -1
        self.lo = x
        return 1


def _fraction_count(p, a, b):
    """Distinct roots in (a, b] from Fraction evaluations of the chain."""
    chain = [UniPoly(q) for q in sturm_chain(p)]

    def variations(x):
        signs = [s for s in (qsign(q.evaluate(x)) for q in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def _fraction_isolate(p):
    p = p.trimmed()
    if p.degree() == 1:
        value = -p.coeffs[0] / p.coeffs[1]
        return [_FractionRealRoot(UniPoly([-value, 1]), exact=value)]
    bound = cauchy_bound(p)
    roots = []

    def recurse(a, b, count):
        if count == 1:
            roots.append(_FractionRealRoot(p, lo=a, hi=b))
        if count <= 1:
            return
        mid = (a + b) / 2
        if p.evaluate(mid) == 0:
            roots.append(_FractionRealRoot(p, exact=mid))
            eps = (b - a) / 4
            while True:
                left, right = mid - eps, mid + eps
                if (
                    p.evaluate(left) != 0
                    and p.evaluate(right) != 0
                    and _fraction_count(p, left, right) == 1
                ):
                    break
                eps /= 2
            recurse(a, left, _fraction_count(p, a, left))
            recurse(right, b, _fraction_count(p, right, b))
            return
        recurse(a, mid, _fraction_count(p, a, mid))
        recurse(mid, b, _fraction_count(p, mid, b))

    recurse(-bound, bound, _fraction_count(p, -bound, bound))
    for r in roots:
        r.try_rational()
    return sorted(roots, key=cmp_to_key(lambda x, y: x.compare(y)))


def _states(roots):
    return [(r.lo, r.hi, r.exact) for r in roots]


# square-free products of distinct rational roots and t^2 - c, c not a
# rational square, so that irrational roots occur; t^4 - 4 shares sqrt(2)
# with t^2 - 2, so that equal roots of different polynomials are compared
NON_SQUARES = [Q(2), Q(3), Q(5), Q(1, 2), Q(3, 4), Q(7, 9)]
isolation_poly = st.tuples(
    st.lists(small_q, max_size=4, unique=True),
    st.lists(st.sampled_from(NON_SQUARES), max_size=2, unique=True),
    st.sampled_from([Q(1), Q(-3), Q(2, 5)]),
).filter(lambda spec: len(spec[0]) + 2 * len(spec[1]) >= 1)


def _isolation_poly(spec):
    roots, squares, lead = spec
    p = UniPoly.from_roots(roots, lead=lead)
    for c in squares:
        p = p * UniPoly([-c, 0, 1])
    return p


@settings(max_examples=80, deadline=None)
@given(st.lists(isolation_poly, min_size=1, max_size=3))
def test_isolation_matches_fraction_reference(specs):
    """Same (lo, hi, exact) as the Fraction root layer after isolation,
    after try_rational, after sorting roots of several polynomials with
    compare, and after 30 refine steps."""
    polys = [_isolation_poly(spec) for spec in specs] + [UniPoly([-4, 0, 0, 0, 1])]
    new = [isolate_real_roots(p) for p in polys]
    old = [_fraction_isolate(p) for p in polys]
    assert [_states(r) for r in new] == [_states(r) for r in old]
    new = [r for roots in new for r in roots]
    old = [r for roots in old for r in roots]
    assert [r.try_rational() for r in new] == [r.try_rational() for r in old]
    assert _states(new) == _states(old)
    def order(roots):
        by_root = cmp_to_key(lambda i, j: roots[i].compare(roots[j]))
        return sorted(range(len(roots)), key=by_root)

    assert order(new) == order(old)
    assert _states(new) == _states(old)
    for _ in range(30):
        for r in new + old:
            r.refine()
    assert _states(new) == _states(old)


# -- integer bisection against the per-step Fraction bisection ----------------


def _stepwise_refine(root):
    """Reference: refine as it was, one Fraction midpoint per step."""
    if root.exact is None:
        root.split_at((root.lo + root.hi) / 2)


def _stepwise_try_rational(root, extra_bits):
    for _ in range(extra_bits):
        if root.exact is not None:
            return True
        _stepwise_refine(root)
    if root.exact is not None:
        return True
    cand = simplest_between(root.lo, root.hi)
    if root.poly.evaluate(cand) == 0:
        root.exact = cand
        return True
    return False


def _stepwise_refine_below(root, width):
    while root.exact is None and root.hi - root.lo > width:
        _stepwise_refine(root)


big_q = st.fractions(min_value=-50, max_value=50, max_denominator=10**12).map(
    lambda f: Q(f.numerator, f.denominator)
)


def _draw_planted(draw):
    """lo < hi and one root r in (lo, hi), either a rational with a large
    denominator or lo + (hi - lo) * j / 2^m for odd j, which the m-th
    bisection step hits exactly."""
    lo, hi = sorted(draw(st.lists(big_q, min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        m = draw(st.integers(1, 40))
        j = 2 * draw(st.integers(0, 2 ** (m - 1) - 1)) + 1
        return lo, hi, lo + (hi - lo) * Q(j, 2**m)
    return lo, hi, draw(big_q.filter(lambda x: lo < x < hi))


@st.composite
def planted_root(draw):
    """(poly, lo, hi): one root in (lo, hi), as _draw_planted; the other
    factor has no root there."""
    lo, hi, r = _draw_planted(draw)
    others = [UniPoly([1, 0, 1]), UniPoly.from_roots([hi + 1]),
              UniPoly.from_roots([lo - 1, hi + 2])]
    lead = draw(st.sampled_from([Q(1), Q(-7, 3)]))
    return UniPoly.from_roots([r], lead=lead) * draw(st.sampled_from(others)), lo, hi


bisection_op = st.one_of(
    st.just(("refine",)),
    st.tuples(st.just("try_rational"), st.integers(0, 40)),
    st.tuples(
        st.just("refine_below"),
        st.builds(lambda k, odd, e: Q(k, odd << e), st.integers(1, 5),
                  st.sampled_from([1, 3, 7]), st.integers(0, 70)),
    ),
)


STEPWISE = {
    "refine": _stepwise_refine,
    "try_rational": _stepwise_try_rational,
    "refine_below": _stepwise_refine_below,
}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(planted_root(), isolation_poly.map(lambda spec: (spec,))),
    st.lists(bisection_op, min_size=1, max_size=5),
)
def test_bisection_matches_stepwise_reference(spec, ops):
    """refine, try_rational and refine_below on integer numerators leave
    the same (lo, hi, exact) and return the same as the per-step Fraction
    bisection, on planted roots with large denominators or hit exactly by
    bisection, and on isolated rational and irrational roots."""
    if len(spec) == 3:
        poly, lo, hi = spec
        new, old = (RealRoot(poly, lo=lo, hi=hi) for _ in range(2))
        pairs = [(new, old)]
    else:
        p = _isolation_poly(spec[0])
        pairs = list(zip(isolate_real_roots(p), isolate_real_roots(p)))
    for op in ops:
        for new, old in pairs:
            assert getattr(new, op[0])(*op[1:]) == STEPWISE[op[0]](old, *op[1:])
            assert _states([new]) == _states([old])


# -- quadratic interval refinement: failed guesses, deep refinement ----------


@st.composite
def secant_trap(draw):
    """(poly, lo, hi) with one root in (lo, hi), as _draw_planted, and the
    other factor's roots just outside: (hi - lo) / 2^k beyond one end or
    both, so that the secant through the ends guesses poorly."""
    lo, hi, r = _draw_planted(draw)
    k_hi, k_lo = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    near = [hi + (hi - lo) / 2**k_hi, lo - (hi - lo) / 2**k_lo]
    near = draw(st.sampled_from([near[:1], near[1:], near]))
    lead = draw(st.sampled_from([Q(1), Q(-7, 3)]))
    return UniPoly.from_roots([r, *near], lead=lead), lo, hi


def _values_held(root):
    """An interval root holds den^m p(a/den) and den^m p(c/den)."""
    return root.exact is not None or (root._fa, root._fc) == (
        _horner(root._ints, root._a, root._den), _horner(root._ints, root._c, root._den)
    )


deep_op = st.one_of(
    st.just(("refine",)),
    st.tuples(st.just("try_rational"), st.integers(0, 96)),
    st.tuples(
        st.just("refine_below"),
        st.builds(lambda k, odd, e: Q(k, odd << e), st.integers(1, 5),
                  st.sampled_from([1, 3, 7]), st.integers(0, 150)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(secant_trap(), planted_root()),
    st.lists(deep_op, min_size=1, max_size=4),
)
def test_refinement_matches_stepwise_reference_deep(spec, ops):
    """refine, try_rational up to 96 bits and refine_below down to widths
    of 2^-150 leave the same (lo, hi, exact) as per-step bisection, also
    where a root just outside the interval makes the secant guesses fail."""
    poly, lo, hi = spec
    new, old = (RealRoot(poly, lo=lo, hi=hi) for _ in range(2))
    for op in ops:
        assert getattr(new, op[0])(*op[1:]) == STEPWISE[op[0]](old, *op[1:])
        assert _states([new]) == _states([old])
        assert _values_held(new)


def test_failed_secant_guess_falls_back_to_bisection():
    """(t - 7/40)(t - 101/100) on (0, 1): after one bisection step, the
    secant guess among the four cells of (0, 1/2) misses, so the step
    size falls back from 2 to 1 (with no failure, three steps leave it at
    4); the state is still that of per-step bisection, then, after a split
    at 1/6, off the dyadic grid, and after 20 and 40 more steps, which
    find the root exactly."""
    poly = UniPoly.from_roots([Q(7, 40), Q(101, 100)])
    new, old = (RealRoot(poly, lo=Q(0), hi=Q(1)) for _ in range(2))
    assert new.try_rational(3) is _stepwise_try_rational(old, 3) is False
    assert new._b == 2
    assert _states([new]) == _states([old]) == [(Q(1, 8), Q(1, 4), None)]
    assert new.split_at(Q(1, 6)) == old.split_at(Q(1, 6)) == 1
    assert _values_held(new)
    for bits in (20, 40):
        assert new.try_rational(bits) == _stepwise_try_rational(old, bits)
        assert _states([new]) == _states([old])
    assert new.exact == Q(7, 40)


def test_refinement_evaluation_budget(monkeypatch):
    """sqrt(2) on (0, 3], the interval isolate_real_roots gives it: 24
    bisection steps and the simplest-rational test make 25 evaluations per
    try_rational(24); quadratic interval refinement makes at most 18 on
    the first call and at most 8 on the second, where the step size
    carried over is already large."""
    calls = []

    def counting(ints, num, den):
        calls.append(den)
        return _horner(ints, num, den)

    poly = UniPoly([-2, 0, 1])
    new, old = RealRoot(poly, lo=0, hi=3), RealRoot(poly, lo=Q(0), hi=Q(3))
    monkeypatch.setattr(unipoly, "_horner", counting)
    budget = []
    for limit in (18, 8):
        calls.clear()
        assert new.try_rational(24) is False
        budget.append(len(calls))
        assert len(calls) <= limit, budget
    monkeypatch.undo()
    for _ in range(2):
        _stepwise_try_rational(old, 24)
    assert _states([new]) == _states([old])


# (roots, lead): the isolation of each hits a rational root r at the
# midpoint of a cell C of depth >= 2 below (-B/L, B/L), the Cauchy bound;
# a second root lies within |C| / 8 of r, so the pivot gap around r halves
# at least twice, and B is odd, so the second halving doubles the
# denominator
PIVOT_CASES = [
    ([Q(-11, 16), Q(-9, 16)], Q(1)),
    ([Q(9, 16), Q(11, 16)], Q(1)),
    ([Q(-9, 16), Q(-7, 16), Q(-7)], Q(1)),
    ([Q(33, 64), Q(35, 64)], Q(1)),
    ([Q(-15, 64), Q(-17, 64), Q(-7)], Q(3)),
    ([Q(-17, 32), Q(-19, 32)], Q(2, 5)),
]


def _pivot_hits(p, roots):
    """(depth of C, halvings of the gap, B odd) for every root of p that
    isolation hits as a midpoint while another root shares its cell."""
    bound = cauchy_bound(p)
    out = []
    for r in roots:
        x = (r + bound) / (2 * bound)
        depth = x.denominator.bit_length() - 2  # r = midpoint of C
        if x.denominator & (x.denominator - 1) or depth < 0:
            continue
        half = 2 * bound / 2 ** (depth + 1)
        others = [s for s in roots if s != r and abs(s - r) < half]
        if len(others) != 1:
            continue
        eps, halvings = half / 2, 0
        while not eps < abs(others[0] - r):
            eps, halvings = eps / 2, halvings + 1
        out.append((depth, halvings, bound.numerator % 2 == 1))
    return out


@pytest.mark.parametrize("roots, lead", PIVOT_CASES)
def test_isolation_pivot_carving_matches_fraction_reference(roots, lead, monkeypatch):
    """Integer isolation gives the same roots, with the same (lo, hi,
    exact), as the Fraction root layer, where bisection hits a rational
    root deep in the recursion and the gap carved around it halves on an
    odd numerator; every isolating interval it hands on holds the values
    at its ends."""
    p = UniPoly.from_roots(roots, lead=lead)
    assert any(d >= 2 and h >= 2 and odd for d, h, odd in _pivot_hits(p, roots))
    held, try_rational = [], RealRoot.try_rational

    def checked(root, *args):
        held.append(_values_held(root))
        return try_rational(root, *args)

    monkeypatch.setattr(RealRoot, "try_rational", checked)
    new, old = isolate_real_roots(p), _fraction_isolate(p)
    assert _states(new) == _states(old)
    assert held and all(held)
    assert sorted(roots) == [r.exact for r in new]
    assert any(r.lo is None and r.exact is not None for r in new)


@pytest.mark.parametrize("roots, lead", PIVOT_CASES)
def test_isolation_emits_roots_in_order(roots, lead, monkeypatch):
    """Isolation puts an exact pivot between the roots left and right of
    it, so its roots come out ascending without comparing any two."""
    p = UniPoly.from_roots(roots, lead=lead)
    old = _fraction_isolate(p)

    def refuse(self, other):
        raise AssertionError("isolate_real_roots compared two roots")

    monkeypatch.setattr(RealRoot, "compare", refuse)
    assert _states(isolate_real_roots(p)) == _states(old)


def test_root_profile_builds_each_sturm_chain_once(monkeypatch):
    """root_profile isolates a square-free factor on the Sturm chain that
    Yun's decomposition built for it."""
    calls, sturm = [], unipoly._sturm

    def counting(a):
        calls.append(a)
        return sturm(a)

    monkeypatch.setattr(unipoly, "_sturm", counting)
    prof = root_profile(UniPoly([1, -3, 0, 1]))  # t^3 - 3t + 1, three real roots
    assert prof.n_real() == 3 and len(calls) == 1


# -- integer remainder sequences against the Fraction reference ---------------


def _fraction_primitive(p):
    """The primitive integer multiple of p by a positive constant."""
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = gcd(*ints) or 1
    return UniPoly([v // g for v in ints])


def _ints(p):
    return [int(c) for c in _fraction_primitive(p.trimmed()).coeffs]


def _fraction_remainder_sequence(p, q):
    """signed_remainder_sequence by Fraction division with remainder."""
    chain = [_fraction_primitive(p.trimmed()), _fraction_primitive(q.trimmed())]
    while chain[-1].degree() > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-_fraction_primitive(r.trimmed()))
    return [list(c.coeffs) for c in chain]


def _fraction_gcd(a, b):
    """Euclid's gcd over Q, primitive with positive leading coefficient."""
    a, b = a.trimmed(), b.trimmed()
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1].trimmed()
    if a.is_zero():
        return a
    g = _fraction_primitive(a)
    return g if g.leading() > 0 else -g


def _fraction_yun(p):
    """Yun's decomposition by Fraction division, factors as _fraction_gcd."""
    p = p.trimmed()
    if p.degree() <= 0:
        return []
    g = _fraction_gcd(p, p.derivative())
    if g.degree() == 0:
        return [(p, 1)]
    w, y = divmod_poly(p, g)[0], divmod_poly(p.derivative(), g)[0]
    z = y - w.derivative()
    out, i = [], 1
    while w.degree() > 0:
        f = _fraction_gcd(w, z)
        if f.degree() > 0:
            out.append((f, i))
            w, y = divmod_poly(w, f)[0], divmod_poly(z, f)[0]
        else:
            y = z
        z = y - w.derivative()
        i += 1
    return out


# planted repeated rational roots times a random cofactor, with a leading
# coefficient of either sign and degree slack
remainder_poly = st.tuples(
    st.lists(st.tuples(small_q, st.integers(1, 3)), max_size=3),
    st.lists(small_q, min_size=1, max_size=3),
    st.sampled_from([Q(1), Q(-1), Q(-3, 2), Q(5, 7)]),
    st.integers(0, 2),
)


def _remainder_poly(spec):
    roots, cofactor, lead, drop = spec
    p = UniPoly.from_roots([r for r, m in roots for _ in range(m)], lead=lead)
    p = p * UniPoly(cofactor)
    return p.with_ambient(p.ambient_degree + drop)


@settings(max_examples=300, deadline=None)
@given(remainder_poly, remainder_poly)
def test_remainder_sequences_match_fraction_reference(spec_a, spec_b):
    """Identical chains, trimmed gcds, Yun factors and root counts, in both
    argument orders (so deg a < deg b occurs)."""
    a, b = _remainder_poly(spec_a), _remainder_poly(spec_b)
    for p, q in ((a, b), (b, a)):
        if not q.is_zero():
            expected = _fraction_remainder_sequence(p, q)
            assert signed_remainder_sequence(_ints(p), _ints(q)) == expected
        assert poly_gcd(p, q) == _fraction_gcd(p, q).trimmed()
    for p in (a, b):
        if p.degree() > 0:
            expected = [(_ints(f), i) for f, i in _fraction_yun(p)]
            assert [(c[0], i) for c, i in _yun_chains(_ints(p))] == expected
            expected = _fraction_remainder_sequence(p, p.trimmed().derivative())
            assert sturm_chain(p) == expected


def test_gcd_is_trimmed():
    """The last nonzero remainder can drop more than one degree; the gcd
    comes back at its actual degree."""
    g = poly_gcd(UniPoly([-7]), UniPoly(["0", "2", "-4", "5/2", "-1/2"]))
    assert g == UniPoly([1]) and g.ambient_degree == 0
    p = UniPoly.from_roots([1, 1, Q(-1, 2)], lead=-3)
    q = UniPoly.from_roots([1, 3], lead=Q(1, 2)).with_ambient(5)
    g = poly_gcd(p, q)
    assert g == UniPoly([-1, 1]) and g.ambient_degree == 1
    (c1, m1), (c2, m2) = _yun_chains(p.primitive())
    assert (c1[0], m1, c2[0], m2) == ([1, 2], 1, [-1, 1], 2)


# -- outputs that print isolated roots, pinned byte for byte ------------------

PHI_ROOTS = "9/20,1/4,3/20,1/10,1/20"
PINNED = [
    (
        ["extend", "--target", '{"n": 5, "coeffs": ["8763/40", "-406379/400", '
         '"11247/8", "-235289/400", "0/1", "1/1"]}', "--n", "5"],
        '{"certificate":{"f":{"coeffs":["-8763/160","406379/1200","-11247/16",'
        '"235289/400","-42766829/253125","1/1"],"n":5},"kind":"Extension"},'
        '"extendable":true}',
    ),
    (
        ["extend", "--target", '{"n": 5, "coeffs": ["5120/1", "-6144/1", '
         '"2320/1", "-268/1", "0/1", "1/1"]}', "--n", "6"],
        '{"certificate":{"kind":"MultiplicityObstruction","obstruction":'
        '[["2/1",3],["8/1",3]]},"extendable":false}',
    ),
    (
        ["phi", "--roots", PHI_ROOTS],
        '{"enclosures":[["295341362973099/601821777424768",'
        '"73835340743275/150455444356191"],["319849333622793/1203643554849536",'
        '"159924666811397/601821777424764"],["389359272430005/2407287109699072",'
        '"194679636215003/1203643554849528"],["98431859065535/1203643554849536",'
        '"196863718131071/2407287109699056"]],"width":"1/1099511627776"}',
    ),
    (
        ["phi", "--roots", PHI_ROOTS, "--width-bits", "200"],
        '{"enclosures":[["562033705151986300827818395191488816440589771533612571'
        '626345/1145264990999594631686942597862169291024781928888930742933784",'
        '"3372202230911917804966910371148932898643538629201675429758071/'
        '6871589945997567790121655587173015746148691573333584457602700"],'
        '["1217344595804455507600653479357544798080043296299808695272417/'
        '4581059963998378526747770391448677164099127715555722971735136",'
        '"913008446853341630700490109518158598560032472224856521454313/'
        '3435794972998783895060827793586507873074345786666792228801350"],'
        '["4445696985675174103710562143202001647123737368816124554660273/'
        '27486359783990271160486622348692062984594766293334337830410816",'
        '"2222848492837587051855281071601000823561868684408062277330137/'
        '13743179891995135580243311174346031492297383146667168915205400"],'
        '["1123893149920346395652248922374530477208307314956329692541875/'
        '13743179891995135580243311174346031492297383146667168915205408",'
        '"2247786299840692791304497844749060954416614629912659385083751/'
        '27486359783990271160486622348692062984594766293334337830410800"]],'
        '"width":"1/1606938044258990275541962092341162602522202993782792835301376"}',
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED)
def test_root_outputs_pinned(capsys, argv, expected):
    """extend and phi documents print isolated roots; these were recorded
    with the Fraction root layer and must not move by a byte."""
    assert run(argv) == 0
    assert capsys.readouterr().out == expected + "\n"

"""Exact scalars, matrices and subspaces."""

import math
import time
from decimal import Decimal
from fractions import Fraction
from math import hypot

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from randgen import matrix, properties, scalar, vector
from specialk.exact import (
    MAX_DENOMINATOR,
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    ExactComplex,
    ExactMatrix,
    Subspace,
    _limit,
    rationalize_matrix,
    real_rep_antilinear,
    real_rep_linear,
    std_complex_structure,
)
from specialk.geometry import _offdiag
from specialk.utils import XorShift


# doubles of every scale: subnormals, magnitudes from 1e-300 to 1e300, and
# exact dyadics k / 2^j, most with denominators far beyond the bound
_DOUBLES = strategies.one_of(
    strategies.floats(-1e-300, 1e-300),
    strategies.builds(lambda m, e: m * 10.0**e,
                      strategies.floats(-10.0, 10.0), strategies.integers(-300, 300)),
    strategies.builds(lambda k, j: k / 2**j,
                      strategies.integers(-(2**53), 2**53), strategies.integers(0, 1000)),
)
# with the edges of the double range: signed zeros, the least subnormal and
# magnitudes near the largest double
_ALL_DOUBLES = strategies.one_of(
    _DOUBLES, strategies.sampled_from([0.0, -0.0, 5e-324, 1.7e308, -1.7e308]))
# complex matrices of 1 to 3 rows and columns over _ALL_DOUBLES
_COMPLEX_MATRICES = strategies.integers(1, 3).flatmap(
    lambda cols: strategies.lists(
        strategies.lists(strategies.builds(complex, _ALL_DOUBLES, _ALL_DOUBLES),
                         min_size=cols, max_size=cols),
        min_size=1, max_size=3))


# Fraction's literal grammar, with digits in four scripts (ASCII,
# Arabic-Indic, fullwidth and mathematical bold: Unicode decimal digits come
# in runs of ten from a zero) and whitespace Fraction strips
_DIGIT_ZEROS = (0x30, 0x660, 0xFF10, 0x1D7CE)
_DIGITS = "".join(chr(zero + d) for zero in _DIGIT_ZEROS for d in range(10))
_RUNS = strategies.lists(strategies.text(_DIGITS, min_size=1, max_size=5),
                         min_size=1, max_size=3).map("_".join)
_SPACE = strategies.text(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000", max_size=2)
# characters of one-character edits; parse also drops inner spaces and reads
# i, I and * as an imaginary part, so an edit never adds those
_EDITS = "0123456789_./eE+-\t\u0663x"


@strategies.composite
def _fraction_literals(draw):
    """A literal of Fraction's grammar (a ratio, or a decimal with optional
    point and an exponent of at most 60 with leading zeros), or one edit of
    one, with whitespace around it."""
    pick = lambda options: draw(strategies.sampled_from(options))  # noqa: E731
    if draw(strategies.booleans()):
        body = draw(_RUNS) + "/" + draw(_RUNS)
    else:
        body = pick(["", draw(_RUNS)]) + pick(["", ".", "." + draw(_RUNS)])
        if draw(strategies.booleans()):
            zeros, exponent = draw(strategies.integers(0, 5)), draw(strategies.integers(0, 60))
            exponent = "0" * zeros + str(exponent)
            body += pick("eE") + pick(["", "+", "-"])
            body += "".join(chr(pick(_DIGIT_ZEROS) + int(d)) for d in exponent)
    text = pick(["", "+", "-"]) + body
    if draw(strategies.booleans()):
        k = draw(strategies.integers(0, len(text)))
        edit = pick(["", *_EDITS])   # "" deletes
        text = text[:k] + edit + text[k + (edit == "" or draw(strategies.booleans())):]
    # whitespace goes around the edited text: an edit after a space would
    # leave an inner space, which Fraction refuses and parse drops
    return draw(_SPACE) + text + draw(_SPACE)


def _rationalize(z):
    """The bridge on Fraction objects, the oracle of the integer one:
    (re, im, absolute error) with each part Fraction.limit_denominator's
    closest rational and the error against the exact binary value of z."""
    z = complex(z)
    x, y = Fraction(z.real), Fraction(z.imag)
    re = x.limit_denominator(MAX_DENOMINATOR)
    im = y.limit_denominator(MAX_DENOMINATOR)
    return re, im, hypot(float(re - x), float(im - y))


def _bridge(z):
    """The float bridge on one entry: (value, absolute rounding error)."""
    m, err = rationalize_matrix([[z]])
    return m[0, 0], err


class TestExactComplex:
    def test_field_arithmetic(self):
        a = ExactComplex(Fraction(1, 2), Fraction(3, 4))
        b = ExactComplex(Fraction(-2, 3), Fraction(1, 5))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (ExactComplex(1) / a) == ExactComplex(1)
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real()

    def test_hash_agrees_with_eq(self):
        for value in (3, 0, -7, Fraction(1, 2), Fraction(-5, 3)):
            e = ExactComplex(value)
            assert e == value
            assert hash(e) == hash(value)
            assert len({e, value}) == 1
        assert len({ExactComplex(1, 2), ExactComplex(1, 2)}) == 1
        assert ExactComplex(1, 2) != 1

    def test_pow(self):
        i = ExactComplex(0, 1)
        assert i**2 == ExactComplex(-1)
        assert i**-1 == ExactComplex(0, -1)
        assert i**0 == ExactComplex(1)

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1/2+3/4*i", ExactComplex(Fraction(1, 2), Fraction(3, 4))),
            ("3", ExactComplex(3)),
            ("-1/2", ExactComplex(Fraction(-1, 2))),
            ("i", ExactComplex(0, 1)),
            ("-i", ExactComplex(0, -1)),
            ("2-1/3*i", ExactComplex(2, Fraction(-1, 3))),
            ("5*i", ExactComplex(0, 5)),
            ("0", ExactComplex(0)),
            # the sign of an exponent stays in its term
            ("1e-5", ExactComplex(Fraction(1, 100000))),
            ("1E+3", ExactComplex(1000)),
            ("2.5e-3+1e-2i", ExactComplex(Fraction(1, 400), Fraction(1, 100))),
        ],
    )
    def test_parse(self, text, expect):
        assert ExactComplex.parse(text) == expect

    def test_parse_rejects_garbage(self):
        for bad in ("", "1+2", "i+i", "1//2", "one"):
            with pytest.raises(ValueError):
                ExactComplex.parse(bad)

    def test_exponent_bound(self):
        """A literal's exponent is bounded before the number is built."""
        bound = MAX_LITERAL_EXPONENT
        assert bound == 4300
        assert ExactComplex.parse(f"1e{bound}") == ExactComplex(10**bound)
        assert ExactComplex.parse(f"-3e0_{bound}*i") == ExactComplex(0, -3 * 10**bound)
        # an exponent's leading zeros count for nothing, however many, in
        # any script
        assert ExactComplex.parse("1e" + "0" * 5000 + "1") == ExactComplex(10)
        for zero in "0\u0660":
            many = zero * (MAX_LITERAL_DIGITS + 1)
            assert ExactComplex.parse(f"1e{many}1") == ExactComplex(10)
        for bad in (f"1e{bound + 1}", f"2.5E{bound + 1}", f"1-4e00{bound + 1}*i",
                    f"1e{bound + 1:_}", f"1e-{bound + 1}"):
            with pytest.raises(ValueError, match=f"exponent beyond {bound} in scalar literal"):
                ExactComplex.parse(bad)

    @settings(properties, max_examples=1000)
    @given(_fraction_literals())
    def test_parse_reads_fraction_grammar(self, text):
        """One grammar at every length: a literal that Fraction reads, with
        its exponent inside the bound, parses to the same value, and any
        other text is refused with a one-line ValueError."""
        _, e, exponent = text.strip().lower().rpartition("e")
        try:
            # an edit can push the exponent past the bound, where Fraction
            # would build the whole power of ten
            if e and abs(int(exponent)) > MAX_LITERAL_EXPONENT:
                raise ValueError(exponent)
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as refused:
                ExactComplex.parse(text)
            assert "\n" not in str(refused.value)
        else:
            assert ExactComplex.parse(text) == ExactComplex(value)

    def test_boxed_parts_are_exact_fractions(self):
        """Entries read off kernel rows keep the Fractions they are built
        from: same values, equality and hashes, and no second coercion."""
        m = ExactMatrix([[Fraction(-4, 6), ExactComplex(Fraction(3, 9), 2)], [5, 0]])
        parts = [(e.re, e.im) for row in m.entries for e in row] + [
            (m[0, 1].re, m[0, 1].im)
        ] + [(e.re, e.im) for v in Subspace.row_space(m).basis for e in v]
        assert all(type(x) is Fraction for pair in parts for x in pair)
        assert m.entries[0] == (ExactComplex(Fraction(-2, 3)), ExactComplex(Fraction(1, 3), 2))
        assert hash(m.entries[0][0]) == hash(Fraction(-2, 3))
        assert hash(m[0, 1]) == hash((Fraction(1, 3), Fraction(2)))
        f = Fraction(7, 3)
        assert ExactComplex(f).re is f
        kept = ExactComplex(2, True)
        assert type(kept.re) is Fraction and type(kept.im) is Fraction and kept.im == 1

        class Sub(Fraction):
            pass

        assert type(ExactComplex(Sub(1, 2)).re) is Fraction

    @pytest.mark.parametrize("part", ["1e9999999", "1/2", 0.1, Decimal("0.1"), np.int64(3)],
                             ids=["str-exponent", "str-ratio", "float", "Decimal", "numpy-int"])
    def test_parts_are_ints_and_fractions(self, part):
        """Text enters through parse and floats through rationalize_matrix:
        any other part is refused by its type at once, before Fraction could
        read a str through a second, unbounded grammar (Fraction("1e9999999")
        builds a ten-million-digit integer)."""
        for args in ((part,), (0, part)):
            start = time.perf_counter()
            with pytest.raises(TypeError, match=f"not {type(part).__name__}$"):
                ExactComplex(*args)
            assert time.perf_counter() - start < 0.5

    @properties
    @given(strategies.fractions(), strategies.fractions())
    def test_repr_round_trip(self, re, im):
        x = ExactComplex(re, im)
        assert eval(repr(x), {"ExactComplex": ExactComplex}) == x

    def test_format_parse_round_trip(self):
        rng = XorShift(3)
        for _ in range(200):
            x = scalar(rng, num=9, den=7)
            assert ExactComplex.parse(str(x)) == x

    def test_rationalization_reports_error(self):
        val, err = _bridge(0.5 + 0.25j)
        assert val == ExactComplex(Fraction(1, 2), Fraction(1, 4))
        assert err == 0.0
        val, err = _bridge(2.0 / 3.0)
        assert val == ExactComplex(Fraction(2, 3))
        assert err == abs(float(val.re - Fraction(2.0 / 3.0)))
        assert err < 1e-12

    def test_rationalization_error_below_float_resolution(self):
        """At 10^12 denominators the rational rounds back to the same
        double, so only the exact difference shows the error."""
        x = 0.7316151209613437
        val, err = _bridge(x)
        assert complex(val.re, val.im) == x
        assert err == abs(float(val.re - Fraction(x)))
        assert 1e-26 < err < 1e-25

    @properties
    @given(_DOUBLES, _DOUBLES)
    def test_rationalization_error_is_bounded(self, x, y):
        """Each part is CPython's closest rational with denominator at most
        MAX_DENOMINATOR, so it lies within 1 / (2 MAX_DENOMINATOR) of the
        double and the error stays below 1e-12 at every scale: the bridge
        needs no guard on it."""
        val, err = _bridge(complex(x, y))
        assert val.re == Fraction(x).limit_denominator(MAX_DENOMINATOR)
        assert val.im == Fraction(y).limit_denominator(MAX_DENOMINATOR)
        assert err == hypot(float(val.re - Fraction(x)), float(val.im - Fraction(y)))
        assert err < 1e-12


class TestExactMatrix:
    def test_inverse(self):
        rng = XorShift(5)
        for _ in range(20):
            m = matrix(rng, 3)
            if m.rank() < 3:
                continue
            assert m @ m.inverse() == ExactMatrix.identity(3)

    def test_singular_raises(self):
        m = ExactMatrix([["1", "2"], ["2", "4"]])
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        assert m.rank() == 1

    def test_det_multiplicative(self):
        rng = XorShift(9)
        for _ in range(20):
            a = matrix(rng, 3)
            b = matrix(rng, 3)
            assert (a @ b).det() == a.det() * b.det()

    def test_real_rep_is_homomorphism(self):
        rng = XorShift(13)
        a = matrix(rng, 3)
        b = matrix(rng, 3)
        assert real_rep_linear(a @ b) == real_rep_linear(a) @ real_rep_linear(b)
        # antilinear followed by antilinear is linear with one conjugation
        anti = real_rep_antilinear(a)
        assert anti @ anti == real_rep_linear(a @ a.conj())

    def test_std_complex_structure_squares_to_minus_one(self):
        j = std_complex_structure(3)
        assert j @ j == ExactMatrix.identity(6).scale(ExactComplex(-1))

    def test_rationalize_matrix(self):
        import numpy as np

        m = np.array([[0.5 + 0.25j, 1.0], [0.0, -2.0j]])
        exact, err = rationalize_matrix(m)
        assert err == 0.0
        assert exact[0, 0] == ExactComplex(Fraction(1, 2), Fraction(1, 4))

    @properties
    @given(_COMPLEX_MATRICES)
    def test_rationalize_matrix_matches_fraction_oracle(self, entries):
        """The integer bridge builds the rows and the worst error of the
        Fraction one, bit for bit, at every scale."""
        exact, err = rationalize_matrix(entries)
        parts = [[_rationalize(v) for v in row] for row in entries]
        oracle = ExactMatrix([[ExactComplex(re, im) for re, im, _ in row] for row in parts])
        assert exact._rows == oracle._rows
        assert err == max(e for row in parts for _, _, e in row)

    @properties
    @given(strategies.integers(1, 3).flatmap(
        lambda cols: strategies.lists(
            strategies.lists(_ALL_DOUBLES, min_size=cols, max_size=cols),
            min_size=1, max_size=3)))
    @example([[0.0, -0.0, 5e-324], [1e300, -1e300, 1e-300], [-1e-300, 3 / 1024, -(2.0**-60)]])
    def test_rationalize_real_input_as_complex(self, entries):
        """A real float array and the same array cast to complex give the
        same rows and the same error, bit for bit: each real entry goes
        through _limit once and gets the imaginary part 0/1."""
        import numpy as np

        real = np.array(entries, dtype=float)
        exact, err = rationalize_matrix(real)
        exact_c, err_c = rationalize_matrix(real.astype(complex))
        assert exact._rows == exact_c._rows
        assert repr(err) == repr(err_c)
        # Python floats read as numpy's float64 does
        assert rationalize_matrix(entries)[0]._rows == exact._rows

    # Farey neighbours a < b, b.numerator * a.denominator - a.numerator *
    # b.denominator = 1, with denominators at most MAX_DENOMINATOR: their
    # midpoint is where _limit's tie rule decides
    _FAREY_NEIGHBOURS = [
        (Fraction(0), Fraction(1, 10**12)),
        (Fraction(1, 10**12), Fraction(1, 10**12 - 1)),
        (Fraction(10**12 - 1, 10**12), Fraction(1)),
        (Fraction(1, 3), Fraction(333333333333, 999999999998)),
        (Fraction(2), Fraction(2 * 10**12 + 1, 10**12)),
    ]
    _MIDPOINTS = [float((a + b) / 2) for a, b in _FAREY_NEIGHBOURS]

    @pytest.mark.parametrize(
        "x",
        [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1 - 2.0**-53, 1 + 2.0**-52, 3.0000000000000004, 2.9999999999999996,
         1e12 + 0.5, 1.7e308,
         *_MIDPOINTS, *(math.nextafter(m, 0.0) for m in _MIDPOINTS),
         *(math.nextafter(m, math.inf) for m in _MIDPOINTS)],
    )
    def test_limit_is_odd_at_edges(self, x):
        assert all(b.numerator * a.denominator - a.numerator * b.denominator == 1
                   for a, b in self._FAREY_NEIGHBOURS)
        p, q, err = _limit(x)
        assert _limit(-x) == (-p, q, -err)

    @properties
    @given(_ALL_DOUBLES)
    def test_limit_is_odd(self, x):
        """_limit(-x) is (-p, q, -err): the bridge commutes with negation,
        so a rationalized -omega keeps Q^T = -Q, and its error is that of
        G = Im tau, which vhs_from_special_kahler rationalizes alone."""
        p, q, err = _limit(x)
        assert _limit(-x) == (-p, q, -err)

    @properties
    @given(strategies.integers(1, 3).flatmap(
        lambda n: strategies.lists(_ALL_DOUBLES, min_size=n * n, max_size=n * n)))
    def test_rationalized_omega_is_antisymmetric(self, values):
        """For a symmetric g, omega = [[0, -g], [g, 0]] rationalizes to an
        exactly antisymmetric matrix, as the weight-1 Polarization needs."""
        n = math.isqrt(len(values))
        g = np.array(values).reshape(n, n)
        g = np.triu(g) + np.triu(g, 1).T
        q, _ = rationalize_matrix(-_offdiag(-g, g))
        assert q.T == -q

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rationalize_non_finite_raises_alike(self, bad):
        import numpy as np

        real = np.array([[0.5, bad]])
        with pytest.raises(Exception) as on_real:
            rationalize_matrix(real)
        with pytest.raises(Exception) as on_complex:
            rationalize_matrix(real.astype(complex))
        assert on_real.type is on_complex.type
        assert on_real.type in (OverflowError, ValueError)


class TestLongValues:
    """Values beyond Python's 4300-digit int <-> str limit print and parse
    back without touching that limit."""

    _PRODUCT = ExactComplex(Fraction(-(10**4300), 3), 10**4300) * ExactComplex(7 * 10**4300 + 1, 1)

    @pytest.mark.parametrize(
        "x",
        [
            ExactComplex(10**4300),
            ExactComplex(Fraction(-(10**4300), 3), 10**4300),
            _PRODUCT,
            ExactComplex(Fraction(1, 3 * 10**4300 + 1), -(2**20000)),
        ],
        ids=["1e4300", "ratio-and-i", "product", "long-den"],
    )
    def test_parse_str_round_trip(self, x):
        assert ExactComplex.parse(str(x)) == x

    def test_product_prints_about_8600_digits_per_part(self):
        re_text, im_text = str(self._PRODUCT).split("+")
        assert re_text.startswith("-") and re_text.endswith("/3")
        # -(7e8600 + 4e4300)/3 and (21e8600 + 2e4300)/3
        assert len(re_text) == len("-/3") + 8601 and len(im_text) == len("/3*i") + 8602

    @pytest.mark.parametrize("k", [599, 600, 601, 1200, 4299, 4300, 4301, 9000])
    def test_digits_at_the_chunk_edges(self, k):
        """The chunked text reads back, 100 digits at a time, as the value
        it was printed from."""
        for n in (10**k - 1, 10**k, 10**k + 1, -(10**k) - 7, 2**1993, 2**1994 - 1):
            text = str(ExactComplex(n))
            digits = text.lstrip("-")
            assert text.startswith("-") == (n < 0) and digits[0] != "0"
            value = 0
            for i in range(0, len(digits), 100):
                chunk = digits[i:i + 100]
                value = value * 10 ** len(chunk) + int(chunk)
            assert value == abs(n)

    def test_long_matrix_repr_and_filtration_json(self):
        from specialk.hodge import Filtration

        big = ExactComplex(Fraction(10**4400, 7))
        assert str(big) in repr(ExactMatrix([[big, 1], [0, 1]]))
        filt = Filtration.from_proper_steps(2, [Subspace.span(2, [[1, big]])])
        assert Filtration.from_json(filt.to_json()) == filt

    def test_digit_run_bound(self):
        sevens = 7 * (10**MAX_LITERAL_DIGITS - 1) // 9
        assert ExactComplex.parse("7" * MAX_LITERAL_DIGITS) == ExactComplex(sevens)
        with pytest.raises(ValueError, match=f"more than {MAX_LITERAL_DIGITS} digits"):
            ExactComplex.parse("1/" + "3" * (MAX_LITERAL_DIGITS + 1))

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1." + "5" * 5000, 1 + Fraction(5 * (10**5000 - 1), 9 * 10**5000)),
            ("1" * 5000 + "e2", Fraction((10**5000 - 1) // 9 * 100)),
            ("-." + "7" * 900 + "e-1_0", -Fraction(7 * (10**900 - 1) // 9, 10**910)),
            ("\t" + "1" * 5000 + "e2\t", Fraction((10**5000 - 1) // 9 * 100)),
        ],
        ids=["point", "exponent", "signed-exponent", "tabs"],
    )
    def test_long_decimal_literal(self, text, value):
        """A decimal-point or exponent literal reads its digit runs in
        pieces too, as the Fraction its digits spell."""
        assert ExactComplex.parse(text) == ExactComplex(value)


class TestSubspace:
    def test_intersection_idempotent(self):
        e1 = Subspace.span(2, [["1", "0"]])
        assert (e1 & e1) == e1

    def test_intersection_transverse(self):
        e1 = Subspace.span(2, [["1", "0"]])
        e2 = Subspace.span(2, [["0", "1"]])
        assert (e1 & e2).is_zero()

    def test_intersection_conjugate_lines(self):
        # oracle: the stacked 2x2 matrix has exact rank 2, so the two
        # lines are transverse and the intersection must be zero
        stacked = ExactMatrix([["1", "i"], ["1", "-i"]])
        assert stacked.rank() == 2
        u = Subspace.span(2, [["1", "i"]])
        w = Subspace.span(2, [["1", "-i"]])
        assert (u & w).is_zero()
        assert (u + w).is_full()

    def test_dimension_formula(self):
        rng = XorShift(17)
        for _ in range(60):
            n = rng.randint(2, 5)
            u = Subspace.span(n, [vector(rng, n) for _ in range(rng.randint(0, n))])
            w = Subspace.span(n, [vector(rng, n) for _ in range(rng.randint(0, n))])
            assert (u & w).dim + (u + w).dim == u.dim + w.dim

    def test_intersection_contains_common_subspace(self):
        rng = XorShift(29)
        for _ in range(20):
            n = 5
            common = Subspace.span(n, [vector(rng, n) for _ in range(2)])
            u = common + Subspace.span(n, [vector(rng, n)])
            w = common + Subspace.span(n, [vector(rng, n)])
            inter = u & w
            assert common.is_subspace_of(inter)
            for b in inter.basis:
                assert u.contains(b) and w.contains(b)

    def test_membership_stable_under_canonicalization(self):
        rng = XorShift(31)
        for _ in range(30):
            n = 4
            gens = [vector(rng, n) for _ in range(3)]
            s = Subspace.span(n, gens)
            # random combinations of the generators stay inside
            coeffs = vector(rng, 3)
            combo = [
                sum((c * g[j] for c, g in zip(coeffs, gens)), ExactComplex(0))
                for j in range(n)
            ]
            assert s.contains(combo)
            # and the canonical basis spans the original generators
            regen = Subspace.span(n, s.basis)
            assert regen == s
            for g in gens:
                assert regen.contains(g)

    def test_ambient_mismatch(self):
        u = Subspace.span(2, [["1", "0"]])
        w = Subspace.span(3, [["1", "0", "0"]])
        with pytest.raises(ValueError):
            u & w

    def test_apply_matrix(self):
        rng = XorShift(37)
        m = matrix(rng, 3)
        s = Subspace.span(3, [vector(rng, 3) for _ in range(2)])
        img = s.apply(m)
        for b in s.basis:
            assert img.contains(m @ b)


def _lattice_sample(seed, n):
    """Three subspaces of C^n spanned by random subsets of one pool of
    n + 1 vectors with entries in {0, +-1} + {0, +-1} i, so that sums and
    meets often coincide; returns them, the pool and the generator."""
    rng = XorShift(seed)
    pool = [vector(rng, n, num=1, den=1) for _ in range(n + 1)]
    spaces = [Subspace.span(n, [v for v in pool if rng.randint(0, 1)]) for _ in range(3)]
    return spaces, pool, rng


class TestSubspaceLattice:
    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 5))
    def test_sum_and_meet_laws(self, seed, n):
        (u, w, x), _, _ = _lattice_sample(seed, n)
        for a, b in ((u, w), (w, x), (u, x)):
            assert a + b == b + a and a & b == b & a
            assert a & (a + b) == a and a + (a & b) == a
        assert (u + w) + x == u + (w + x)
        assert (u & w) & x == u & (w & x)
        below = u & x  # modular law for a subspace of x
        assert below + (w & x) == (below + w) & x

    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 5))
    def test_order_is_read_off_sum_and_meet(self, seed, n):
        (u, w, x), _, _ = _lattice_sample(seed, n)
        for a, b in ((u, w), (w, u), (u & w, w), (u, u + w), (x & u, x), (u, Subspace.full(n))):
            assert a.is_subspace_of(b) == (a + b == b) == (a & b == a)

    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 5))
    def test_contains_is_the_rank_of_the_stacked_rows(self, seed, n):
        (u, _, _), pool, rng = _lattice_sample(seed, n)
        coeffs = vector(rng, u.dim)
        combo = [sum((c * b[j] for c, b in zip(coeffs, u.basis)), ExactComplex(0))
                 for j in range(n)]
        for v in (*pool, combo, [0] * n, vector(rng, n)):
            assert u.contains(v) == (ExactMatrix([*u.basis, v]).rank() == u.dim)

    def test_contains_checks_the_length(self):
        with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
            Subspace.full(2).contains(["1", "0", "0"])

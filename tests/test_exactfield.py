"""Field arithmetic: golden-ratio relations, axioms, sign, sqrt, io."""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from helpers import rand_nonzero_scalar, rand_scalar, rand_sparse_scalar
from spinroots import cli, coxeter, quaternion, spingroup
from spinroots.clifford import Multivector
from spinroots.exactfield import (HALF, ONE, SIGMA, SQRT2, SQRT5, TAU, ZERO,
                                  FieldScalar, apply, class_key, exact_sorted,
                                  from_keys, linear_map, squared_norm,
                                  to_ints)
from spinroots.quaternion import Quaternion

SQRT10 = FieldScalar(0, 0, 0, 1)


def test_tau_sigma_encodings():
    assert TAU.to_json() == ["1/2", "0/1", "1/2", "0/1"]
    assert SIGMA.to_json() == ["1/2", "0/1", "-1/2", "0/1"]


def test_addition_basics():
    assert TAU + SIGMA == ONE
    x = FieldScalar(3, Fraction(-2, 7), 1, 0)
    assert ZERO + x == x
    half_sqrt2 = FieldScalar(0, Fraction(1, 2))
    assert half_sqrt2 + half_sqrt2 == SQRT2


def test_multiplication_basics():
    assert TAU * TAU == TAU + ONE
    assert SIGMA * SIGMA == SIGMA + ONE
    assert SQRT2 * SQRT2 == FieldScalar(2)
    assert SQRT5 * SQRT5 == FieldScalar(5)
    assert SQRT2 * SQRT5 == SQRT10
    assert SQRT10 * SQRT10 == FieldScalar(10)
    # ((1+sqrt5)/2)((1-sqrt5)/2) = (1-5)/4
    assert TAU * SIGMA == -ONE


def test_inverse_values():
    assert SQRT2.inverse() == FieldScalar(0, Fraction(1, 2))
    assert TAU.inverse() == TAU - ONE
    assert ONE.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_values():
    assert SIGMA.sign() == -1
    assert ZERO.sign() == 0
    assert (TAU - ONE).sign() == 1
    assert (SQRT2 - FieldScalar(Fraction(141421, 100000))).sign() == 1
    assert (SQRT2 - FieldScalar(Fraction(141422, 100000))).sign() == -1


def test_field_axioms_randomized():
    rng = random.Random(20120526)
    for _ in range(1000):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        z = rand_scalar(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == ONE


def test_order_total_and_compatible():
    rng = random.Random(7)
    for _ in range(300):
        x = rand_scalar(rng, 5)
        y = rand_scalar(rng, 5)
        assert (x < y) + (x == y) + (y < x) == 1
        if x.sign() > 0 and y.sign() > 0:
            assert (x + y).sign() > 0
            assert (x * y).sign() > 0


def test_sqrt_known_values():
    assert FieldScalar(4).sqrt() == FieldScalar(2)
    assert FieldScalar(2).sqrt() == SQRT2
    assert FieldScalar(5).sqrt() == SQRT5
    assert FieldScalar(10).sqrt() == SQRT10
    assert FieldScalar(Fraction(1, 2)).sqrt() == FieldScalar(0, Fraction(1, 2))
    assert (TAU + ONE).sqrt() == TAU        # tau^2 = tau + 1
    assert ZERO.sqrt() == ZERO
    assert FieldScalar(3).sqrt() is None
    assert FieldScalar(-1).sqrt() is None
    assert TAU.sqrt() is None


def test_sqrt_of_squares_randomized():
    rng = random.Random(11)
    for _ in range(300):
        x = rand_scalar(rng, 5)
        root = (x * x).sqrt()
        assert root is not None
        assert root == (x if x.sign() >= 0 else -x)


def _assert_root(x, root):
    assert root is not None and root.sign() >= 0
    assert root * root == x
    assert math.isclose(root.approx(), math.sqrt(x.approx()),
                        rel_tol=1e-9, abs_tol=1e-12)


def test_sqrt_at_each_level_of_the_tower():
    # x^2 k for x in Q, Q(sqrt5) and the whole field: a square exactly when
    # k is one of 1, 2, 5, 10 (times a square), never for 3, 7 or -1
    rng = random.Random(29)
    levels = (lambda x: FieldScalar(x.a), lambda x: FieldScalar(x.a, 0, x.c),
              lambda x: x)
    for _ in range(100):
        for level in levels:
            x = level(rand_nonzero_scalar(rng, 7))
            if not x:
                continue
            square = x * x
            for k in (1, 2, 5, 10):
                _assert_root(square * k, (square * k).sqrt())
            for k in (3, 7, -1):
                assert (square * k).sqrt() is None


def test_sqrt_needs_the_quadratic_at_both_levels():
    cases = [(r * r, r) for r in (TAU + SQRT2, ONE + TAU * SQRT2)]
    cases.append((FieldScalar(3, 2), ONE + SQRT2))
    for x, root in cases:
        _assert_root(x, x.sqrt())
        assert x.sqrt() == root
    for x in (ONE + SQRT2, FieldScalar(2) + SQRT2):
        assert x.sqrt() is None


def test_division():
    rng = random.Random(13)
    for _ in range(200):
        x = rand_scalar(rng, 5)
        y = rand_nonzero_scalar(rng, 5)
        assert x * y.inverse() * y == x
    assert TAU.inverse() == TAU - ONE


def test_galois_conjugations():
    x = FieldScalar(1, 2, 3, 4)
    assert x.conj_sqrt2() == FieldScalar(1, -2, 3, -4)
    assert x.conj_sqrt5() == FieldScalar(1, 2, -3, -4)
    rng = random.Random(17)
    for _ in range(100):
        a = rand_scalar(rng, 5)
        b = rand_scalar(rng, 5)
        assert (a * b).conj_sqrt2() == a.conj_sqrt2() * b.conj_sqrt2()
        assert (a * b).conj_sqrt5() == a.conj_sqrt5() * b.conj_sqrt5()


def test_json_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        x = rand_scalar(rng)
        assert FieldScalar.from_json(x.to_json()) == x
    assert FieldScalar.from_json(["1/2", "0/1", "1/2", "0/1"]) == TAU
    with pytest.raises(ValueError):
        FieldScalar.from_json(["1/2"])


def test_hash_consistency():
    assert hash(FieldScalar(Fraction(2, 4))) == hash(FieldScalar(Fraction(1, 2)))
    assert len({TAU, FieldScalar(Fraction(1, 2), 0, Fraction(1, 2), 0)}) == 1
    # values made by arithmetic hash like the constructed ones
    y = TAU * TAU - TAU
    assert y == ONE
    assert hash(y) == hash(ONE) == hash(FieldScalar(1))
    z = SQRT2 * FieldScalar(Fraction(1, 6)) * FieldScalar(3)
    assert z == FieldScalar(0, Fraction(1, 2))
    assert hash(z) == hash(FieldScalar(0, Fraction(1, 2)))
    # equal by different routes: arithmetic, JSON and the Fraction form
    rng = random.Random(31)
    for _ in range(300):
        x = rand_scalar(rng, 40)
        y = rand_nonzero_scalar(rng, 40)
        for same in (x * y * y.inverse(), FieldScalar.from_json(x.to_json()),
                     FieldScalar(x.a, x.b, x.c, x.d)):
            assert same == x
            assert hash(same) == hash(x)


def test_integer_coordinates_round_trip():
    # to_ints puts a sequence over its least common denominator, which
    # leaves it reduced, with the coordinates of each element on 1, sqrt2,
    # sqrt5, sqrt10 in turn; from_keys inverts it
    rng = random.Random(37)
    for n in (1, 4, 5):
        for _ in range(60):
            xs = tuple(rand_scalar(rng) for _ in range(n))
            ints, den = to_ints(xs)
            assert len(ints) == 4 * n and den > 0
            assert math.gcd(*ints, den) == 1
            assert from_keys([(ints, den)]) == [xs]
            assert tuple(Fraction(k, den) for k in ints) == \
                tuple(f for x in xs for f in (x.a, x.b, x.c, x.d))
    assert to_ints((ZERO,)) == ((0, 0, 0, 0), 1)
    assert to_ints((HALF, SQRT10)) == ((1, 0, 0, 0, 0, 0, 0, 2), 2)
    assert from_keys([((3, 0, 6, 0), 6)]) == \
        [(FieldScalar(Fraction(1, 2), 0, 1),)]


def test_from_keys_builds_one_object_per_value():
    # each key converts as it does in a batch of one, read here through
    # Fractions; equal values share one object even when their keys hold
    # them unreduced over different denominators
    rng = random.Random(53)
    keys = []
    for _ in range(200):
        n = rng.choice((1, 4))
        xs = tuple(rand_sparse_scalar(rng, 3) for _ in range(n))
        ints, den = to_ints(xs)
        k = rng.choice((1, 1, 2, 6))
        keys.append((tuple(n * k for n in ints), den * k))
    rows = from_keys(keys)
    assert len(rows) == len(keys)
    for (ints, den), row in zip(keys, rows):
        assert row == from_keys([(ints, den)])[0] == tuple(
            FieldScalar(*(Fraction(n, den) for n in ints[i:i + 4]))
            for i in range(0, len(ints), 4))
        assert all(math.gcd(*x._v) == 1 for x in row)
    values = [x for row in rows for x in row]
    assert len({id(x) for x in values}) == len(set(values)) < len(values)
    assert from_keys([]) == []


def _rational_unit_quaternion(rng):
    """p p / |p|^2 for a random nonzero integer quaternion p."""
    while True:
        p = Quaternion(*(rng.randint(-4, 4) for _ in range(4)))
        if p.components != (ZERO,) * 4:
            return p * p * p.norm_sq().inverse()


def _unit_tuple(rng, n, units):
    """n FieldScalars whose squares sum to 1, with zero entries and
    rational, sqrt2, sqrt5 and sqrt10 parts among them."""
    if n == 1:
        return (rng.choice((ONE, -ONE)),)
    if n == 2:
        a, b = rng.randint(0, 6), rng.randint(1, 6)
        c, s = (FieldScalar(Fraction(a * a - b * b, a * a + b * b)),
                FieldScalar(Fraction(2 * a * b, a * a + b * b)))
        if rng.random() < 0.5:  # turned by 45 degrees
            c, s = (c - s) * SQRT2 * HALF, (c + s) * SQRT2 * HALF
        return (c, s)
    u = _rational_unit_quaternion(rng)
    for _ in range(rng.randint(0, 2)):
        u = u * rng.choice(units)
    if n == 3:  # u turns e1 to a unit pure quaternion
        return (u * Quaternion(0, 1) * u.conjugate()).components[1:]
    return u.components


def test_squared_norm_agrees_with_the_field_product():
    # oracle: dot(x, x) in FieldScalar arithmetic, on exact units
    # (products of rational, Hurwitz-dual and icosian units, and turned
    # Pythagorean pairs), units with one entry perturbed, and random
    # tuples with mixed denominators and zero entries
    rng = random.Random(61)
    units = sorted(quaternion.catalog("icosians")
                   | quaternion.catalog("hurwitz_duals"),
                   key=lambda q: q.components)
    verdicts = []
    parts = set()
    for i in range(1000):
        n = 1 + i % 4
        kind = rng.choice(("unit", "unit", "perturbed", "random"))
        if kind == "random":
            pick = rng.choice((rand_sparse_scalar, rand_scalar))
            xs = tuple(pick(rng, 5) for _ in range(n))
        else:
            xs = list(_unit_tuple(rng, n, units))
            rng.shuffle(xs)
            if kind == "perturbed":
                j = rng.randrange(n)
                xs[j] = rng.choice((xs[j].conj_sqrt2(), xs[j].conj_sqrt5(),
                                    xs[j] + FieldScalar(Fraction(1, 7)),
                                    xs[j] * TAU))
            xs = tuple(xs)
        norm = squared_norm(to_ints(xs))
        assert norm == coxeter.dot(xs, xs)
        verdicts.append(norm == ONE)
        if norm == ONE:
            parts.update(m for x in xs for m in range(4) if x._v[m])
    assert verdicts.count(True) > 400 and verdicts.count(False) > 300
    assert parts == {0, 1, 2, 3}
    pythagorean = (FieldScalar(Fraction(3, 5)), FieldScalar(Fraction(4, 5)))
    third, quarter = (3 * ONE).inverse(), (4 * ONE).inverse()
    nears = (((ONE + 2 * SQRT2) * third,), ((2 + SQRT5) * third,),
             (3 * quarter, (SQRT2 + SQRT5) * quarter))
    for xs in (pythagorean, (HALF,) * 4, *nears, (HALF,) * 3, (ZERO,) * 4,
               ()):
        assert squared_norm(to_ints(xs)) == coxeter.dot(xs, xs)
    assert squared_norm(to_ints(pythagorean)) == ONE
    assert squared_norm(to_ints((HALF,) * 4)) == ONE
    for near in nears:
        # squares summing to 1 plus a sqrt2, sqrt5 or sqrt10 part
        assert squared_norm(to_ints(near)) != ONE
        assert (coxeter.dot(near, near) - ONE).approx() > 0
    assert squared_norm(to_ints((HALF,) * 3)) == 3 * quarter
    assert squared_norm(to_ints((ZERO,) * 4)) == ZERO
    assert squared_norm(to_ints(())) == ZERO


def _grid_map(grid):
    """x -> A x for an n x n grid A of FieldScalars."""
    return lambda x: tuple(sum((a * y for a, y in zip(row, x)), ZERO)
                           for row in grid)


def _images(grid):
    """The images of the unit vectors under x -> A x: the columns of A."""
    return [tuple(row[i] for row in grid) for i in range(len(grid))]


def _random_grids(seed):
    rng = random.Random(seed)
    for n in (1, 3, 4):
        for _ in range(30):
            yield rng, n, [[rand_scalar(rng) if rng.random() < 0.6 else ZERO
                            for _ in range(n)] for _ in range(n)]


def _signed(key, sign):
    """The key of sign times the class key ``key``."""
    ints, den = key
    return tuple(sign * n for n in ints), den


def test_linear_map_is_the_field_product():
    # the integer matrix of a map x -> A x, built from its images of the
    # unit vectors (the columns of A), applied to the coordinates of x
    # gives those of A x, as a sign times a class key over a reduced
    # positive denominator; a negative matrix denominator negates the image
    for rng, n, grid in _random_grids(41):
        x = tuple(rand_scalar(rng) for _ in range(n))
        want = _grid_map(grid)(x)
        cols, den = linear_map(_images(grid))
        assert len(cols) == 4 * n and den > 0
        (ints, d), sign = apply((cols, den), to_ints(x))
        assert d > 0 and math.gcd(*ints, d) == 1
        assert from_keys([_signed((ints, d), sign)]) == [want]
        assert _signed(*apply((cols, -den), to_ints(x))) == \
            to_ints(tuple(-y for y in want))


def _lead(ints) -> int:
    """The first nonzero coordinate, or 0."""
    return next((n for n in ints if n), 0)


def test_apply_returns_the_class_key_and_its_sign():
    # on dense and sparse keys and matrices of either sign: sign times the
    # class key is the image's key, and the class key is reduced over a
    # positive denominator with a positive first nonzero coordinate, so x
    # and -x share it; class_key gives a seed the same pair
    rng = random.Random(47)
    leads, signs = set(), set()
    for _, n, grid in _random_grids(43):
        cols, den = linear_map(_images(grid))
        for sparse in (True, False):
            x = tuple((rand_sparse_scalar if sparse else rand_scalar)(rng)
                      for _ in range(n))
            for mden in (den, -den):
                want = _grid_map(grid)(x)
                if mden < 0:
                    want = tuple(-y for y in want)
                key, sign = apply((cols, mden), to_ints(x))
                (ints, d), lead = key, _lead(key[0])
                assert sign in (1, -1) and d > 0
                assert math.gcd(*ints, d) == 1
                assert _signed(key, sign) == to_ints(want)
                if not any(ints):  # the zero image, of either sign
                    assert key == to_ints(want)
                    continue
                assert lead > 0
                assert class_key(to_ints(want)) == (key, sign)
                assert class_key(to_ints(tuple(-y for y in want))) == \
                    (key, -sign)
                leads.add((_lead(to_ints(want)[0]) > 0, mden > 0))
                signs.add(sign)
    # negative and positive leading coordinates, from matrices of either
    # sign, and both signs returned
    assert leads == {(True, True), (True, False), (False, True),
                     (False, False)}
    assert signs == {1, -1}


def test_linear_map_columns_are_the_images_of_the_basis_keys():
    # column k of the matrix built from the columns of A is f(x) = A x of
    # the k-th of the 4 n basis keys (coordinate 1 at k,
    # the rest 0), built through from_keys and the field product and read
    # back through to_ints: this checks the bit expansion of the basis
    # products 1, sqrt2, sqrt5, sqrt10 against FieldScalar.__mul__
    for _, n, grid in _random_grids(43):
        f = _grid_map(grid)
        cols, den = linear_map(_images(grid))
        for k, col in enumerate(cols):
            basis = tuple(int(i == k) for i in range(4 * n))
            ints, d = to_ints(f(from_keys([(basis, 1)])[0]))
            dense = [Fraction(0)] * (4 * n)
            for row, v in col:
                dense[row] += Fraction(v, den)
            assert dense == [Fraction(i, d) for i in ints]


def test_inverse_of_a_rational_is_its_reciprocal():
    # both signs, +-1, +-1/2, and numerators and denominators of up to 60
    # digits: x x^-1 = 1, and the inverse is the rational 1/x in lowest
    # terms over a positive denominator
    rng = random.Random(71)
    values = [Fraction(s * n, d) for s in (1, -1)
              for n, d in ((1, 1), (1, 2), (2, 1), (10 ** 60 + 7, 3))]
    for _ in range(300):
        digits = rng.choice((2, 12, 60))
        values.append(Fraction(rng.choice((1, -1))
                               * rng.randint(1, 10 ** digits),
                               rng.randint(1, 10 ** digits)))
    signs = set()
    for q in values:
        x = FieldScalar(q)
        inv = x.inverse()
        a, b, c, d, den = inv._v
        assert x * inv == ONE
        assert not (b or c or d) and den > 0 and math.gcd(a, den) == 1
        assert Fraction(a, den) == 1 / q
        signs.add(inv.sign())
    assert signs == {1, -1}


def test_exact_sorted_equals_sorted():
    # rows with repeated values, negatives, and values near zero whose
    # float order is wrong, which the exact sort of the values corrects
    rng = random.Random(53)
    pool = [rand_scalar(rng, 4) for _ in range(10)] + [ZERO, ONE, TAU, SIGMA]
    for k in (20, 21, 30, 31):
        p, q = _pell(k)
        pool += [FieldScalar(p, -q), FieldScalar(2 * p, -2 * q)]
    pool += [-x for x in pool]
    assert sorted(pool, key=FieldScalar.approx) != sorted(pool)
    for length in (1, 3, 4, 8):
        for _ in range(20):
            rows = [tuple(rng.choice(pool) for _ in range(length))
                    for _ in range(rng.randint(0, 30))]
            rows += rng.choices(rows, k=len(rows) // 3)
            assert exact_sorted(rows) == sorted(rows)


def test_str_rendering():
    assert str(TAU) == "τ"
    assert str(-TAU) == "-τ"
    assert str(SIGMA) == "σ"
    assert str(ZERO) == "0"
    assert str(FieldScalar(Fraction(1, 2), 0, Fraction(3, 2), 0)) \
        == "1/2 + 3/2·√5"
    assert str(-SQRT2) == "-√2"


def test_approx_display_only():
    assert abs(TAU.approx() - 1.618033988749895) < 1e-12
    assert abs(SQRT10.approx() - 10 ** 0.5) < 1e-12


def test_immutability():
    with pytest.raises(AttributeError):
        TAU.a = Fraction(1)
    x = FieldScalar(1, 2, 3, 4)
    for name in ("b", "c", "d", "_v", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(AttributeError):
        del x._v
    assert x == FieldScalar(1, 2, 3, 4)


# -- exact sign ------------------------------------------------------------


def _pell(n: int) -> tuple[int, int]:
    """(P, Q) with P + Q*sqrt2 = (1 + sqrt2)**n."""
    p, q = 1, 0
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


def _fib_lucas(n: int) -> tuple[int, int]:
    """(F_n, L_n), with L_n**2 - 5 F_n**2 = 4 (-1)**n."""
    f, g = 0, 1
    for _ in range(n):
        f, g = g, f + g
    return f, 2 * g - f


def test_sign_beyond_interval_precision():
    # x = (1 - sqrt2)**1301 is about -10**-498 with 1654-bit coefficients
    p, q = _pell(1301)
    x = FieldScalar(p, -q)
    assert x.sign() == -1
    assert x < 0
    assert (-x).sign() == 1
    assert x * FieldScalar(p, q) == -ONE
    # the same magnitude carried by sqrt5 and sqrt10
    assert FieldScalar(0, 0, p, -q).sign() == -1
    assert FieldScalar(0, 0, -p, q).sign() == 1


@pytest.mark.parametrize("n", [1, 2, 40, 41, 500, 501])
@pytest.mark.parametrize("k", [0, 1, 30, 31])
def test_sign_mixed_near_cancellation(n, k):
    # (L_n - F_n sqrt5) = 2 sigma**n, times (P_k - Q_k sqrt2) = (1-sqrt2)**k:
    # x = L_n (P - Q sqrt2) and y = -F_n (P - Q sqrt2) have opposite signs
    # and |x| is within 2 |sigma|**n (1+sqrt2)**-k of |y| sqrt5.
    f, l = _fib_lucas(n)
    p, q = _pell(k)
    x = FieldScalar(l * p, -l * q, -f * p, f * q)
    want = (-1) ** (n + k)
    assert x.sign() == want
    assert (x < 0) == (want < 0)
    assert (-x).sign() == -want
    assert (x * x).sign() == 1


def _decimal(x: FieldScalar) -> Decimal:
    """Independent evaluation of x at the ambient decimal precision."""
    total = Decimal(0)
    for coef, n in ((x.a, 1), (x.b, 2), (x.c, 5), (x.d, 10)):
        total += (Decimal(coef.numerator) / Decimal(coef.denominator)
                  * Decimal(n).sqrt())
    return total


def test_sign_and_order_against_decimal_oracle():
    rng = random.Random(1205)
    shrink = (FieldScalar(1, -1), SIGMA)   # |1 - sqrt2|, |sigma| < 1
    with localcontext() as ctx:
        ctx.prec = 400
        for _ in range(300):
            x = rand_scalar(rng, 50)
            for base in shrink:
                for _ in range(rng.randint(0, 60)):
                    x = x * base
            y = rand_scalar(rng, 50)
            dx, dy = _decimal(x), _decimal(y)
            assert x.sign() == (dx > 0) - (dx < 0)
            assert (x < y) == (dx < dy)
            assert (y < x) == (dy < dx)


# -- representation ------------------------------------------------------------


def test_json_components_reduced_separately():
    assert FieldScalar(Fraction(1, 2), Fraction(1, 3)).to_json() \
        == ["1/2", "1/3", "0/1", "0/1"]
    x = FieldScalar(Fraction(1, 6), Fraction(2, 3), Fraction(-3, 4), 5)
    assert x.to_json() == ["1/6", "2/3", "-3/4", "5/1"]
    assert (x.a, x.b, x.c, x.d) == (Fraction(1, 6), Fraction(2, 3),
                                    Fraction(-3, 4), Fraction(5))


def _reference_str(x) -> str:
    """str(x) from the Fraction components, as the field once formatted
    it."""
    for value, name in ((TAU, "τ"), (-TAU, "-τ"),
                        (SIGMA, "σ"), (-SIGMA, "-σ")):
        if x == value:
            return name
    terms = []
    for coef, label in ((x.a, ""), (x.b, "√2"), (x.c, "√5"), (x.d, "√10")):
        if not coef:
            continue
        mag = abs(coef)
        body = (label if mag == 1 else f"{mag}·{label}") if label \
            else str(mag)
        if not terms:
            terms.append(body if coef > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def test_formatting_matches_the_fraction_components():
    # str, repr and to_json are read off the integer tuple; the reference
    # formats the lowest-terms Fractions that a-d return
    rng = random.Random(83)
    values = [TAU, -TAU, SIGMA, -SIGMA, ZERO, ONE, -ONE, TAU + 1, -SIGMA * 2]
    while len(values) < 1200:
        values.append(FieldScalar(*(
            rng.choice((0, rng.randint(-12, 12),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 30))))
            for _ in range(4))))
    assert sum(x == ZERO for x in values) > 1
    for x in values:
        parts = (x.a, x.b, x.c, x.d)
        assert all(type(f) is Fraction for f in parts)
        assert x.to_json() == [f"{f.numerator}/{f.denominator}"
                               for f in parts]
        assert repr(x) == f"FieldScalar({', '.join(map(str, parts))})"
        assert str(x) == _reference_str(x)


# -- the rational protocol -----------------------------------------------------

_ACCEPTED = {1: ONE, True: ONE, False: ZERO,
             Fraction(-2, 6): -(3 * ONE).inverse(),
             "1/2": HALF, "0.5": HALF, "-3": -3 * ONE}
_REJECTED = {0.5: TypeError, Decimal("0.5"): TypeError, None: TypeError,
             "1/0": ZeroDivisionError, "1/-2": ValueError}


def test_constructor_and_json_take_exact_rationals():
    for r, value in _ACCEPTED.items():
        assert FieldScalar(r) == value
        assert FieldScalar(0, r) == value * SQRT2
        assert FieldScalar.from_json([0, 0, 0, r]) == value * SQRT10
    for r, error in _REJECTED.items():
        with pytest.raises(error):
            FieldScalar(r)
        with pytest.raises(error):
            FieldScalar(0, 0, r)
        with pytest.raises(error):
            FieldScalar.from_json([r, 0, 0, 0])


def test_arithmetic_takes_numbers_on_either_side():
    x = FieldScalar(1, -2, Fraction(1, 3), 5)
    for r in (3, True, Fraction(-2, 7)):
        f = FieldScalar(r)
        assert x * r == r * x == x * f
        assert x + r == r + x == x + f
        assert x - r == x - f
        assert (x == r) == (x == f) and (x < r) == (x < f)
    assert FieldScalar(3) == 3 and HALF == Fraction(1, 2)
    for r in ("1/2", 0.5, Decimal("0.5"), None):
        for op in (lambda: x * r, lambda: r * x, lambda: x + r,
                   lambda: x - r, lambda: x < r):
            with pytest.raises(TypeError):
                op()
        assert x != r


def test_quaternions_and_multivectors_scale_by_exact_rationals():
    q = Quaternion(1, TAU, -2, SIGMA)
    m = Multivector([1, 0, TAU, 0, 0, SQRT2, 0, -3])
    third = FieldScalar(Fraction(1, 3))
    assert q * Fraction(1, 3) == Quaternion(*(c * third
                                              for c in q.components))
    assert m * Fraction(1, 3) == Multivector([c * third
                                              for c in m.components])
    assert q * 2 == Quaternion(*(c + c for c in q.components))
    assert m * True == m
    assert q * TAU == Quaternion(*(c * TAU for c in q.components))
    for r in (0.5, "1/2", None):
        for op in (lambda: q * r, lambda: r * q, lambda: m * r,
                   lambda: r * m):
            with pytest.raises(TypeError):
                op()


def _outputs():
    """The table report, and every preset's JSON bundle and rank-3 roots,
    as JSON text."""
    results = [spingroup.run_pipeline(coxeter.simple_roots(g))
               for g in coxeter.GROUPS]
    return json.dumps([cli.build_report()]
                      + [[spingroup.export_json(res),
                          res.root_system.to_json()] for res in results])


def test_outputs_do_not_depend_on_the_field_hash(monkeypatch):
    # every output is sorted, so a different hash (and with it every set
    # and dict order of the closures) must leave the bytes alone
    want = _outputs()
    hashed = hash(TAU)
    monkeypatch.setattr(FieldScalar, "__hash__",
                        lambda self: hash(self._v[::-1]))
    assert hash(TAU) != hashed
    # rebuilt from its items: dict(d) would keep the stored hashes
    monkeypatch.setattr(coxeter, "_ROTATION_ORDER",
                        dict(coxeter._ROTATION_ORDER.items()))
    quaternion.catalog.cache_clear()
    try:
        assert _outputs() == want
    finally:
        quaternion.catalog.cache_clear()


def test_inverse_rejects_irrational_norm(monkeypatch):
    # a broken conjugation leaves a norm outside Q; that is an error, not
    # a silently wrong inverse
    monkeypatch.setattr(FieldScalar, "conj_sqrt5", lambda self: self)
    with pytest.raises(ArithmeticError):
        (ONE + SQRT5).inverse()

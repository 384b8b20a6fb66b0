"""Exact arithmetic in the real field Q(sqrt2, sqrt5).

Every scalar that appears in the rank-3/rank-4 constructions (rationals,
1/sqrt2, the golden ratio tau = (1+sqrt5)/2 and its conjugate
sigma = (1-sqrt5)/2) lives in this field, so all downstream computations
are exact.  Floating point decides nothing: ``approx`` serves display and
the float-ordered first pass of ``exact_sorted``.

An element is stored as four integer coordinates over one shared positive
denominator, (a + b*sqrt2 + c*sqrt5 + d*sqrt10) / den, reduced by a single
gcd after every operation (integral-basis coordinates over a common
denominator, Cohen, *A Course in Computational Algebraic Number Theory*,
4.2).  The reduced tuple is canonical, so equality and the hash are
those of the tuple.  The sign is decided exactly by integer comparisons,
and square roots are taken down the tower Q < Q(sqrt5) < Q(sqrt5)(sqrt2)
in field arithmetic.  Exact rationals enter through their ``numerator``
and ``denominator`` (int, bool, Fraction); JSON and display are read off
the integer tuple.  Only ``_fraction`` names ``fractions.Fraction``, for
string input and the ``a``-``d`` components, and imports it when called,
so the pipeline never loads ``fractions`` or its ``decimal``.  A
field-linear map is a sparse integer matrix on these coordinates, read
off its images of the unit vectors (``linear_map``), and ``apply``, the
kernel of every closure, gives an image's class {x, -x} and sign.  A
closure's integer keys come back in one batch (``from_keys``, the
inverse of ``to_ints``): a memo local to the call builds one FieldScalar
per distinct coordinate tuple, and keeps nothing between calls.
``squares_sum_to_one`` decides a unit norm on the integer tuples, with
the product's numerators from ``_times``, the one place the
multiplication formula is written.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, isqrt, lcm


def _fraction(*args):
    """``fractions.Fraction(*args)``, the module imported on first use."""
    from fractions import Fraction
    return Fraction(*args)


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational or a string of one."""
    if isinstance(x, str):
        x = _fraction(x)
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"cannot build an exact rational from {x!r}") \
            from None


def _sign2(p: int, q: int) -> int:
    """Sign of p + q*sqrt2 for integers p, q.

    With opposite signs the larger of p^2 and 2q^2 wins; they are never
    equal unless both vanish, because sqrt2 is irrational.
    """
    if not q:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if not p or (p > 0) == (sq > 0):
        return sq
    return -sq if p * p > 2 * q * q else sq


_ZERO_V = (0, 0, 0, 0, 1)
_new = object.__new__
_setattr = object.__setattr__


def _make(a: int, b: int, c: int, d: int, den: int) -> FieldScalar:
    """(a + b*sqrt2 + c*sqrt5 + d*sqrt10) / den for den > 0, reduced."""
    g = gcd(a, b, c, d, den)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    x = _new(FieldScalar)
    _setattr(x, "_v", (a, b, c, d, den))
    return x


def _times(v1, v2) -> tuple[int, int, int, int]:
    """The numerators a, b, c, d of the product of two integer tuples
    (a, b, c, d, den), over the product of their denominators."""
    a1, b1, c1, d1, _ = v1
    a2, b2, c2, d2, _ = v2
    # sqrt2*sqrt2=2, sqrt5*sqrt5=5, sqrt2*sqrt5=sqrt10, sqrt10*sqrt10=10
    return (a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


@total_ordering
class FieldScalar:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with exact rational components.

    Immutable.  Internally four integers over one positive denominator
    whose common gcd is 1, so equality and the hash are those of that
    tuple; ``a``-``d`` give the components as lowest-terms Fractions,
    for callers outside the package.  ``sqrt`` solves one quadratic per
    level of the tower Q < Q(sqrt5) < Q(sqrt5)(sqrt2), in field arithmetic.
    """

    __slots__ = ("_v",)

    def __new__(cls, a=0, b=0, c=0, d=0):
        parts = (_parts(a), _parts(b), _parts(c), _parts(d))
        den = lcm(*(q for _, q in parts))
        return _make(*(p * (den // q) for p, q in parts), den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldScalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldScalar is immutable")

    @property
    def a(self):
        return _fraction(self._v[0], self._v[4])

    @property
    def b(self):
        return _fraction(self._v[1], self._v[4])

    @property
    def c(self):
        return _fraction(self._v[2], self._v[4])

    @property
    def d(self):
        return _fraction(self._v[3], self._v[4])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not FieldScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        v1, v2 = self._v, other._v
        if v2 == _ZERO_V:
            return self
        if v1 == _ZERO_V:
            return other
        a1, b1, c1, d1, n1 = v1
        a2, b2, c2, d2, n2 = v2
        if n1 == n2:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1)
        return _make(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                     c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not FieldScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __neg__(self):
        if self._v == _ZERO_V:
            return self
        a, b, c, d, den = self._v
        return _make(-a, -b, -c, -d, den)

    def __mul__(self, other):
        if other.__class__ is not FieldScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        v1, v2 = self._v, other._v
        if v1 == _ZERO_V or v2 == _ZERO_V:
            return ZERO
        a, b, c, d = _times(v1, v2)
        return _make(a, b, c, d, v1[4] * v2[4])

    __rmul__ = __mul__

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not FieldScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._v == other._v

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return hash(self._v)

    def __bool__(self):
        return self._v != _ZERO_V

    # -- field operations --------------------------------------------------

    def conj_sqrt2(self) -> FieldScalar:
        """Galois map sqrt2 -> -sqrt2 (also flips sqrt10)."""
        a, b, c, d, den = self._v
        return _make(a, -b, c, -d, den)

    def conj_sqrt5(self) -> FieldScalar:
        """Galois map sqrt5 -> -sqrt5 (also flips sqrt10)."""
        a, b, c, d, den = self._v
        return _make(a, b, -c, -d, den)

    def inverse(self) -> FieldScalar:
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # Multiply by all other Galois conjugates; the full product is the
        # rational field norm.
        partial = self.conj_sqrt2() * self.conj_sqrt5() * self.conj_sqrt2().conj_sqrt5()
        norm = self * partial
        n, nb, nc, nd, nden = norm._v
        if nb or nc or nd:
            raise ArithmeticError(f"field norm of {self!r} is not rational")
        a, b, c, d, den = partial._v
        # partial / (n / nden) with a positive denominator
        if n < 0:
            n, nden = -n, -nden
        return _make(a * nden, b * nden, c * nden, d * nden, den * n)

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), decided by integer comparisons.

        Write the element as x + y*sqrt5 with x = a + b*sqrt2 and
        y = c + d*sqrt2 in Q(sqrt2).  When sign(x) and sign(y) differ,
        the sign of x^2 - 5y^2 (never zero, as sqrt5 is not in Q(sqrt2))
        says which term dominates.  Signs in Q(sqrt2) compare p^2 with 2q^2.
        The denominator is positive, so the numerators decide.
        """
        a, b, c, d, _ = self._v
        sx = _sign2(a, b)
        sy = _sign2(c, d)
        if not sy or sx == sy:
            return sx
        if not sx:
            return sy
        dominant = _sign2(a * a + 2 * b * b - 5 * c * c - 10 * d * d,
                          2 * (a * b - 5 * c * d))
        return sx if dominant > 0 else sy

    def sqrt(self) -> FieldScalar | None:
        """The nonnegative square root if it lies in the field, else None.

        Found by ``_sqrt_in`` down the tower, and checked by squaring.
        """
        if self.sign() < 0:
            return None
        root = _sqrt_in(self, 2)
        if root is None or root * root != self:
            return None
        return root if root.sign() >= 0 else -root

    # -- conversions, display ----------------------------------------------

    def approx(self) -> float:
        """Floating-point value, for display only."""
        a, b, c, d, den = self._v
        return (a / den + b / den * 2 ** 0.5
                + c / den * 5 ** 0.5 + d / den * 10 ** 0.5)

    def _lowest(self) -> list[tuple[int, int]]:
        """(numerator, denominator) of a, b, c and d in lowest terms."""
        *nums, den = self._v
        return [(n // (g := gcd(n, den)), den // g) for n in nums]

    def to_json(self) -> list[str]:
        return [f"{n}/{q}" for n, q in self._lowest()]

    @classmethod
    def from_json(cls, data) -> FieldScalar:
        if len(data) != 4:
            raise ValueError("FieldScalar JSON form needs exactly 4 entries")
        return cls(*data)

    def __repr__(self):
        # components shown as str(Fraction) shows them: "n/1" is "n"
        return "FieldScalar(" + ", ".join(
            f.removesuffix("/1") for f in self.to_json()) + ")"

    def __str__(self):
        for value, name in _NAMED:
            if self == value:
                return name
        terms = []
        for (n, q), label in zip(self._lowest(), ("", "√2", "√5", "√10")):
            if not n:
                continue
            mag = f"{abs(n)}/{q}".removesuffix("/1")
            if not label:
                body = mag
            else:
                body = label if mag == "1" else f"{mag}·{label}"
            if not terms:
                terms.append(body if n > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def _sqrt_in(x: FieldScalar, m: int) -> FieldScalar | None:
    """A square root of x in the tower level that adjoins sqrt m, or None.

    Level 2 is Q(sqrt5)(sqrt2), level 5 is Q(sqrt5) and level 1 is Q; x
    must lie in its level.  With x = u + v sqrt m and u, v one level down,
    a root p + q sqrt m has p^2 + m q^2 = u and 2pq = v.  If v = 0 the
    root is sqrt u or sqrt m sqrt(u/m).  Otherwise z = p^2 solves
    z^2 - u z + m v^2/4 = 0, so z = (u +- s)/2 with s = sqrt(u^2 - m v^2),
    and q = v/(2p) (Cohen, 4.2).  Any root returned squares to x.
    """
    a, b, c, d, n = x._v
    if m == 1:
        if a < 0:
            return None
        ra, rn = isqrt(a), isqrt(n)
        exact = ra * ra == a and rn * rn == n
        return _make(ra, 0, 0, 0, rn) if exact else None
    if m == 2:
        u, v = _make(a, 0, c, 0, n), _make(b, 0, d, 0, n)
        below, sqrt_m = 5, SQRT2
    else:
        u, v = _make(a, 0, 0, 0, n), _make(c, 0, 0, 0, n)
        below, sqrt_m = 1, SQRT5
    if not v:
        root = _sqrt_in(u, below)
        if root is not None:
            return root
        root = _sqrt_in(u * _make(1, 0, 0, 0, m), below)
        return None if root is None else root * sqrt_m
    s = _sqrt_in(u * u - v * v * m, below)
    if s is None:
        return None
    for z in ((u + s) * HALF, (u - s) * HALF):
        p = _sqrt_in(z, below)
        if p:
            return p + v * HALF * p.inverse() * sqrt_m
    return None


def _coerce(x):
    if isinstance(x, FieldScalar):
        return x
    try:
        return _make(x.numerator, 0, 0, 0, x.denominator)
    except AttributeError:
        return None


def to_ints(xs) -> tuple[tuple[int, ...], int]:
    """The integer coordinates of a sequence of FieldScalars over their
    least common denominator: coordinate j of xs[i] on the basis 1, sqrt2,
    sqrt5, sqrt10 at index 4 i + j.  The result is reduced because each
    element is: a prime dividing every coordinate and the denominator
    would divide all of the element with the most factors of it in its
    denominator.  So it is canonical, and tuple equality is equality of
    the sequences."""
    vs = [x._v for x in xs]
    den = lcm(*(v[4] for v in vs))
    return tuple([n * (den // v[4]) for v in vs for n in v[:4]]), den


def from_keys(keys) -> list[tuple[FieldScalar, ...]]:
    """For each key (ints, den > 0), in order, the FieldScalars whose
    coordinates over den are ints, four to a scalar; one object per
    distinct value: a memo local to the call maps each coordinate tuple,
    as given and as reduced, to its FieldScalar, so a value that recurs
    is neither reduced nor built again."""
    made = {}
    out = []
    for ints, den in keys:
        row = []
        it = iter(ints)
        for v in zip(it, it, it, it):
            v += (den,)
            x = made.get(v)
            if x is None:
                x = _make(*v)
                x = made[v] = made.setdefault(x._v, x)
            row.append(x)
        out.append(tuple(row))
    return out


def squares_sum_to_one(xs) -> bool:
    """Whether the squares of the FieldScalars xs sum to 1, decided on
    their integer tuples over the least common denominator D of the
    nonzero ones: the squares' numerators (``_times``), each scaled by
    (D / den)^2, must sum to (D^2, 0, 0, 0).  No FieldScalar is built."""
    vs = [x._v for x in xs if x._v != _ZERO_V]
    den = lcm(*[v[4] for v in vs])
    a = b = c = d = 0
    for v in vs:
        pa, pb, pc, pd = _times(v, v)
        s = (den // v[4]) ** 2
        a += pa * s
        b += pb * s
        c += pc * s
        d += pd * s
    return a == den * den and not (b or c or d)


def linear_map(f, n: int):
    """A field-linear map f of n-tuples of FieldScalars as a sparse integer
    matrix on the 4 n coordinates of x (``to_ints``) over one denominator:
    column 4 i + j lists the (row, entry) pairs of the image of coordinate
    j of x_i.  Column block i is read off f(e_i), the image of the unit
    vector e_i, so f is evaluated n times.  Indexed by bits, basis
    elements m and j of 1, sqrt2, sqrt5, sqrt10 multiply to element m ^ j
    times the square of element m & j."""
    images = [f(tuple(ONE if k == i else ZERO for k in range(n)))
              for i in range(n)]
    den = lcm(*[x._v[4] for image in images for x in image])
    cols = [[] for _ in range(4 * n)]
    for i, image in enumerate(images):
        for r, x in enumerate(image):
            *parts, d = x._v
            for m, p in enumerate(parts):
                if p:
                    p *= den // d
                    for j in range(4):
                        cols[4 * i + j].append(
                            (4 * r + (m ^ j), p * (1, 2, 5, 10)[m & j]))
    return tuple(map(tuple, cols)), den


def class_key(key):
    """(class key, sign) of a key (ints, den): x = sign times the key of
    whichever of x and -x has a positive first nonzero coordinate."""
    if next(filter(None, key[0]), 0) < 0:
        return (tuple([-n for n in key[0]]), key[1]), -1
    return key, 1


def apply(matrix, key):
    """``class_key`` of the image of a key (ints, den) under the matrix
    (cols, mden) of ``linear_map``: one sparse product and one gcd, signed
    as the lead coordinate; a negative ``mden`` negates the image."""
    (cols, mden), (ints, den) = matrix, key
    out = [0] * len(cols)
    for x, col in zip(ints, cols):
        if x:
            for row, v in col:
                out[row] += x * v
    den *= mden
    g = gcd(*out, den)
    if next(filter(None, out), 0) < 0:
        g = -g
    den //= g
    return (tuple([n // g for n in out]), abs(den)), 1 if den > 0 else -1


def exact_sorted(rows: list) -> list:
    """``sorted(rows)`` for a list of tuples of FieldScalars: the distinct
    values, keyed by their integer tuples, are sorted once, in float order
    first so that the exact sort mostly confirms it, and the rows by the
    ranks of their entries."""
    values = sorted({x._v: x for row in rows for x in row}.values(),
                    key=FieldScalar.approx)
    values.sort()
    rank = {x._v: i for i, x in enumerate(values)}
    return sorted(rows, key=lambda row: tuple([rank[x._v] for x in row]))


ZERO = FieldScalar(0)
ONE = FieldScalar(1)
SQRT2 = FieldScalar(0, 1)
SQRT5 = FieldScalar(0, 0, 1)
HALF = _make(1, 0, 0, 0, 2)
TAU = _make(1, 0, 1, 0, 2)
SIGMA = _make(1, 0, -1, 0, 2)

_NAMED = ((TAU, "τ"), (-TAU, "-τ"), (SIGMA, "σ"), (-SIGMA, "-σ"))

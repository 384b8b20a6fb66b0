"""Quaternions over FieldScalar and the discrete unit-quaternion groups.

The Hamilton product follows e_i e_j = -delta_ij + eps_ijk e_k, and
``catalog`` returns the literal Lipschitz, Hurwitz, dual-Hurwitz and
icosian sets.  This module owns the versor layout of Cl(3).
``from_spinor`` carries even multivectors to quadruples componentwise,
the (a; b, c, d) notation for the even subalgebra; it reverses products,
from_spinor(A*B) = from_spinor(B) * from_spinor(A), and composed with
reversal (quaternion conjugation) it is the algebra isomorphism.  As I is
central with I^2 = -1, an odd versor is v = I R with R = -I v even:
``versor_pair`` gives (parity, quaternion of R) for either parity, and
``versor_blades`` the blades back.  The Hodge dual I a of a vector a is
the parity-0 versor of the pure quaternion (0, a).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from . import clifford
from .exactfield import ONE, RATIONAL_TYPES, SIGMA, TAU, ZERO, FieldScalar


class Quaternion:
    """q0 + q1*e1 + q2*e2 + q3*e3 with FieldScalar components."""

    __slots__ = ("components", "_hash")

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        comps = tuple(c if isinstance(c, FieldScalar) else FieldScalar(c)
                      for c in (q0, q1, q2, q3))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*(x + y for x, y in
                            zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*(x - y for x, y in
                            zip(self.components, other.components)))

    def __neg__(self):
        return Quaternion(*(-x for x in self.components))

    def __mul__(self, other):
        if isinstance(other, (FieldScalar, *RATIONAL_TYPES)):
            return Quaternion(*(x * other for x in self.components))
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = other.components
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (FieldScalar, *RATIONAL_TYPES)):
            return Quaternion(*(other * x for x in self.components))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.components)
            object.__setattr__(self, "_hash", h)
        return h

    def conjugate(self) -> Quaternion:
        q0, q1, q2, q3 = self.components
        return Quaternion(q0, -q1, -q2, -q3)

    def norm_sq(self) -> FieldScalar:
        return sum((x * x for x in self.components if x), ZERO)

    def inner(self, other: Quaternion) -> FieldScalar:
        """(p, q) = (conj(p) q + p conj(q)) / 2, the Euclidean 4D dot."""
        return sum((x * y for x, y in zip(self.components, other.components)
                    if x and y), ZERO)

    def is_pure(self) -> bool:
        return not self.components[0]

    def is_unit(self) -> bool:
        return self.norm_sq() == ONE

    # -- spinor correspondence ----------------------------------------------

    @classmethod
    def from_spinor(cls, mv: clifford.Multivector) -> Quaternion:
        """Componentwise image of a + b*I s1 + c*I s2 + d*I s3."""
        if not mv.is_even():
            raise ValueError("spinor map needs an even multivector")
        c = mv.components
        # blade 5 = s2s3 = I s1, blade 6 = s3s1 = I s2, blade 4 = s1s2 = I s3
        return cls(c[0], c[5], c[6], c[4])

    def to_spinor(self) -> clifford.Multivector:
        return clifford.Multivector(versor_blades(0, self.components))

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.components]

    @classmethod
    def from_json(cls, data) -> Quaternion:
        return cls(*(FieldScalar.from_json(c) for c in data))

    def __repr__(self):
        return f"Quaternion{self.components!r}"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def versor_pair(v: clifford.Multivector) -> tuple[int, Quaternion]:
    """(0, from_spinor(R)) for an even versor R, (1, R) for an odd v = I R."""
    if v.is_even():
        return 0, Quaternion.from_spinor(v)
    if v.is_odd():
        c = v.components
        return 1, Quaternion(c[7], -c[1], -c[2], -c[3])
    raise ValueError("versor must have pure even or pure odd grade")


def versor_blades(parity: int, q) -> tuple[FieldScalar, ...]:
    """The 8 blade components of I^parity R, with q the 4 components of
    R's quaternion; the inverse of ``versor_pair``."""
    q0, q1, q2, q3 = q
    if parity:
        return (ZERO, -q1, -q2, -q3, ZERO, ZERO, ZERO, q0)
    return (q0, ZERO, ZERO, ZERO, q3, q1, q2, ZERO)


QONE = Quaternion(1)
QI = Quaternion(0, 1)
QJ = Quaternion(0, 0, 1)
QK = Quaternion(0, 0, 0, 1)


def apply_pq(x: Quaternion, p: Quaternion, q: Quaternion,
             starred: bool = False) -> Quaternion:
    """The [p,q] action x -> p x q, or [p,q]* with x conjugated first."""
    if starred:
        x = x.conjugate()
    return p * x * q


def _even_permutations():
    perms = []
    for perm in permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if perm[i] > perm[j])
        if inversions % 2 == 0:
            perms.append(perm)
    return perms


_EVEN_PERMS = _even_permutations()
_HALF = Fraction(1, 2)
_HALF_SQRT2 = FieldScalar(0, _HALF)


def _signed(values):
    """All sign choices over the nonzero entries of a component pattern."""
    out = set()
    idx = [i for i, v in enumerate(values) if v]
    for signs in product((1, -1), repeat=len(idx)):
        comps = list(values)
        for i, s in zip(idx, signs):
            comps[i] = comps[i] * s
        out.add(Quaternion(*comps))
    return out


def _lipschitz():
    units = set()
    for pos in range(4):
        comps = [FieldScalar(0)] * 4
        comps[pos] = FieldScalar(1)
        units |= _signed(comps)
    return units


def _hurwitz():
    return _lipschitz() | _signed([FieldScalar(_HALF)] * 4)


def _hurwitz_duals():
    units = set()
    for i in range(4):
        for j in range(i + 1, 4):
            comps = [FieldScalar(0)] * 4
            comps[i] = _HALF_SQRT2
            comps[j] = _HALF_SQRT2
            units |= _signed(comps)
    return units


def _icosians():
    # 96 golden units: even coordinate permutations of (0, tau, 1, sigma)/2,
    # all signs.  The 1/2 makes them unit quaternions.
    base = (FieldScalar(0), TAU * _HALF, FieldScalar(_HALF), SIGMA * _HALF)
    units = set()
    for perm in _EVEN_PERMS:
        units |= _signed([base[p] for p in perm])
    return _hurwitz() | units


_CATALOGS = {
    "lipschitz": _lipschitz,
    "hurwitz": _hurwitz,
    "hurwitz_duals": _hurwitz_duals,
    "icosians": _icosians,
}


@lru_cache(maxsize=None)
def catalog(name: str) -> frozenset[Quaternion]:
    """One of the literal unit-quaternion sets by name."""
    try:
        builder = _CATALOGS[name]
    except KeyError:
        raise ValueError(f"unknown catalog {name!r}; "
                         f"choose from {sorted(_CATALOGS)}") from None
    return frozenset(builder())

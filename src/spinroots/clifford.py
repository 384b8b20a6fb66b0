"""Clifford algebra of 3D Euclidean space over FieldScalar: the oracle.

Basis blades are fixed in the order
{1, s1, s2, s3, s1s2, s2s3, s3s1, s1s2s3} where s1, s2, s3 are the
orthonormal frame vectors (Pauli-type, si*sj + sj*si = 2*delta_ij) and the
last blade is the pseudoscalar I.  The geometric product is driven by a
precomputed blade table; reflections and rotations are the usual sandwich
maps -nan and R a ~R.  The pipeline computes with quaternions alone and
never imports this module; it is the reference the tests check the
pipeline against.  It can move into the tests once the benchmark stops
importing it: ``perfbench/run.py`` loads it, and ``perfbench/tracing.py``
wraps ``Multivector.__mul__``.

It alone fixes how blades map to quaternions.  ``from_spinor`` carries
even multivectors to quadruples componentwise; it reverses products,
from_spinor(A*B) = from_spinor(B) * from_spinor(A), and composed with
reversal it is the algebra isomorphism.  As I is central with I^2 = -1,
an odd versor is v = I R with R = -I v even: ``versor_pair`` gives
(parity, quaternion of R) for either parity, and ``versor_blades`` the
blades back.  The Hodge dual I a of a vector a is the parity-0 versor of
the pure quaternion (0, a).
"""

from __future__ import annotations

from .exactfield import ONE as F_ONE
from .exactfield import ZERO as F_ZERO
from .exactfield import FieldScalar
from .quaternion import Quaternion

BLADE_NAMES = ("1", "σ1", "σ2", "σ3",
               "σ1σ2", "σ2σ3", "σ3σ1", "I")
GRADE_OF = (0, 1, 1, 1, 2, 2, 2, 3)

# (sign, index) of the product of basis blades i and j, derived from
# si*sj + sj*si = 2*delta_ij with the blade order above.
_CAYLEY = (
    ((+1, 0), (+1, 1), (+1, 2), (+1, 3), (+1, 4), (+1, 5), (+1, 6), (+1, 7)),
    ((+1, 1), (+1, 0), (+1, 4), (-1, 6), (+1, 2), (+1, 7), (-1, 3), (+1, 5)),
    ((+1, 2), (-1, 4), (+1, 0), (+1, 5), (-1, 1), (+1, 3), (+1, 7), (+1, 6)),
    ((+1, 3), (+1, 6), (-1, 5), (+1, 0), (+1, 7), (-1, 2), (+1, 1), (+1, 4)),
    ((+1, 4), (-1, 2), (+1, 1), (+1, 7), (-1, 0), (-1, 6), (+1, 5), (-1, 3)),
    ((+1, 5), (+1, 7), (-1, 3), (+1, 2), (+1, 6), (-1, 0), (-1, 4), (-1, 1)),
    ((+1, 6), (+1, 3), (+1, 7), (-1, 1), (-1, 5), (+1, 4), (-1, 0), (-1, 2)),
    ((+1, 7), (+1, 5), (+1, 6), (+1, 4), (-1, 3), (-1, 1), (-1, 2), (-1, 0)),
)

# Reversal flips grades 2 and 3.
_REVERSE_SIGN = (1, 1, 1, 1, -1, -1, -1, -1)


class Multivector:
    """General element of the algebra: 8 FieldScalar blade components."""

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        comps = tuple(c if isinstance(c, FieldScalar) else FieldScalar(c)
                      for c in components)
        if len(comps) != 8:
            raise ValueError("Multivector needs exactly 8 components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __delattr__(self, name):
        raise AttributeError("Multivector is immutable")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(tuple(x + y for x, y in
                                 zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Multivector(tuple(-x for x in self.components))

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return Multivector(tuple(x * other for x in self.components))
        out = [F_ZERO] * 8
        for i, x in enumerate(self.components):
            if not x:
                continue
            row = _CAYLEY[i]
            for j, y in enumerate(other.components):
                if not y:
                    continue
                sign, k = row[j]
                out[k] = out[k] + x * y if sign > 0 else out[k] - x * y
        return Multivector(out)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.components)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return any(self.components)

    def reverse(self) -> Multivector:
        return Multivector(tuple(x if s > 0 else -x for x, s in
                                 zip(self.components, _REVERSE_SIGN)))

    def grade(self, k: int) -> Multivector:
        return Multivector(tuple(x if GRADE_OF[i] == k else F_ZERO
                                 for i, x in enumerate(self.components)))

    def grades(self) -> set[int]:
        return {GRADE_OF[i] for i, x in enumerate(self.components) if x}

    def is_even(self) -> bool:
        c = self.components  # no blade of odd grade
        return not (c[1] or c[2] or c[3] or c[7])

    def is_odd(self) -> bool:
        c = self.components  # no blade of even grade, and nonzero
        return not (c[0] or c[4] or c[5] or c[6]) and not self.is_even()

    def is_vector(self) -> bool:
        return self.grades() <= {1}

    def scalar_part(self) -> FieldScalar:
        return self.components[0]

    def vector_coords(self) -> tuple[FieldScalar, FieldScalar, FieldScalar]:
        if not self.is_vector():
            raise ValueError(f"not a pure vector: {self}")
        return self.components[1:4]

    def mag2(self) -> FieldScalar:
        """|A|^2 = A * ~A for versors; raises if the product is not scalar."""
        p = self * self.reverse()
        if any(p.components[1:]):
            raise ValueError(f"A * ~A is not scalar for {self}")
        return p.components[0]

    def dual(self) -> Multivector:
        """Hodge dual: multiplication by the pseudoscalar I."""
        return I * self

    def __repr__(self):
        return f"Multivector({self.components!r})"

    def __str__(self):
        terms = []
        for i, x in enumerate(self.components):
            if not x:
                continue
            coef = str(x)
            if i == 0:
                terms.append(coef)
            elif coef == "1":
                terms.append(BLADE_NAMES[i])
            elif coef == "-1":
                terms.append(f"-{BLADE_NAMES[i]}")
            elif any(op in coef for op in (" + ", " - ")):
                terms.append(f"({coef})·{BLADE_NAMES[i]}")
            else:
                terms.append(f"{coef}·{BLADE_NAMES[i]}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def scalar(x) -> Multivector:
    return Multivector((x,) + (F_ZERO,) * 7)


def vector(x, y, z) -> Multivector:
    return Multivector((F_ZERO, x, y, z, F_ZERO, F_ZERO, F_ZERO, F_ZERO))


ONE = scalar(F_ONE)
E1 = vector(F_ONE, F_ZERO, F_ZERO)
E2 = vector(F_ZERO, F_ONE, F_ZERO)
E3 = vector(F_ZERO, F_ZERO, F_ONE)
I = Multivector((0, 0, 0, 0, 0, 0, 0, 1))


def reflect(a: Multivector, n: Multivector) -> Multivector:
    """Reflection of vector a in the plane orthogonal to n: a -> -nan.

    n may come unnormalized; it is divided out exactly, which requires
    sqrt(|n|^2) to exist in the field.
    """
    if not a.is_vector() or not n.is_vector():
        raise ValueError("reflect expects pure vectors")
    nn = (n * n).scalar_part()
    if not nn:
        raise ValueError("cannot reflect in a zero normal")
    if nn.sqrt() is None:
        raise ValueError(f"|n| = sqrt({nn}) does not lie in the field")
    return -(n * a * n) * nn.inverse()


def rotate(a: Multivector, rotor: Multivector) -> Multivector:
    """Rotation sandwich a -> R a ~R for a unit rotor R."""
    if not rotor.is_even():
        raise ValueError("rotor must be even-grade")
    if rotor * rotor.reverse() != ONE:
        raise ValueError("rotor must satisfy R * ~R = 1")
    return rotor * a * rotor.reverse()


def apply_versor(a: Multivector, versor: Multivector,
                 parity: str | None = None) -> Multivector:
    """Orthogonal action of a versor on vector a: +-A a ~A / |A|^2.

    The sign is fixed by the versor's parity (odd versors flip it), so a
    single vector acts as the reflection -nan and a rotor as R a ~R.
    Parity is inferred from the grade content unless given as
    "even"/"odd", which is then cross-checked.
    """
    if versor.is_even():
        inferred = "even"
    elif versor.is_odd():
        inferred = "odd"
    else:
        raise ValueError("versor must have pure even or pure odd grade")
    if parity is not None and parity != inferred:
        raise ValueError(f"versor has {inferred} parity, not {parity}")
    m2 = versor.mag2()
    if not m2:
        raise ValueError("null versor has no inverse")
    out = versor * a * versor.reverse() * m2.inverse()
    if inferred == "odd":
        out = -out
    if not out.is_vector():
        raise ValueError("input was not a versor (image is not a vector)")
    return out


# -- the spinor bridge to quaternions ----------------------------------------

def from_spinor(mv: Multivector) -> Quaternion:
    """Componentwise image of a + b*I s1 + c*I s2 + d*I s3."""
    if not mv.is_even():
        raise ValueError("spinor map needs an even multivector")
    c = mv.components
    # blade 5 = s2s3 = I s1, blade 6 = s3s1 = I s2, blade 4 = s1s2 = I s3
    return Quaternion(c[0], c[5], c[6], c[4])


def to_spinor(q: Quaternion) -> Multivector:
    return Multivector(versor_blades(0, q.components))


def versor_pair(v: Multivector) -> tuple[int, Quaternion]:
    """(0, from_spinor(R)) for an even versor R, (1, R) for an odd v = I R."""
    if v.is_even():
        return 0, from_spinor(v)
    if v.is_odd():
        c = v.components
        return 1, Quaternion(c[7], -c[1], -c[2], -c[3])
    raise ValueError("versor must have pure even or pure odd grade")


def versor_blades(parity: int, q) -> tuple[FieldScalar, ...]:
    """The 8 blade components of I^parity R, with q the 4 components of
    R's quaternion; the inverse of ``versor_pair``."""
    q0, q1, q2, q3 = q
    if parity:
        return (F_ZERO, -q1, -q2, -q3, F_ZERO, F_ZERO, F_ZERO, q0)
    return (q0, F_ZERO, F_ZERO, F_ZERO, q3, q1, q2, F_ZERO)


def quaternion_reflection_equivalence(v: Multivector, a: Multivector) -> bool:
    """Check the quaternionic reflection decoding against the vector route.

    With x the pure-quaternion image of I*a, the map
    v -> -x conj(v) x / |a|^2 must equal the pure-quaternion image of the
    reflection -ava / |a|^2.
    """
    if not v.is_vector() or not a.is_vector():
        raise ValueError("expected pure vectors")
    left = from_spinor(reflect(v, a).dual())
    x = from_spinor(a.dual())
    vq = from_spinor(v.dual())
    right = -(x * vq.conjugate() * x) * x.norm_sq().inverse()
    return left == right

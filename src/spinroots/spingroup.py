"""Versor groups generated by root systems via the geometric product.

One multiplicative closure of the unit root vectors realizes the full
reflection group as unit versors.  A spinor is a product of two
reflections, so the binary polyhedral group of rotors is the even half of
that closure, and its quaternion images are the rank-4 root systems.  One
type, ``VersorGroup``, holds both; the rotors are all even.

A versor is held as its (parity, quaternion) pair: an even R as (0, q)
and an odd v = I R as (1, q), with q the quaternion of R, from the roots,
read as the pure quaternions of their duals (``_dual``), to the output,
so no Multivector is built.  The closure holds q as 16 integer
coordinates over one denominator (``exactfield.to_ints``).  Left
multiplication by a generator is a sparse integer matrix
(``exactfield.linear_map``) whose images of the units are signed
components of the generator, read once off the Hamilton product, so a
step is one sparse product and one gcd, the kernel that reflections
share (``exactfield.apply``), in the closure on classes {v, -v} that
roots share (``coxeter.accrete``), and stops past ``VERSOR_CAP``, the
largest finite versor group over the field.  Each class's unit norm is
checked once, on its integer key (``exactfield.squared_norm``).  The
closed keys become FieldScalars in one batch (``exactfield.from_keys``),
one object per distinct component value, and are sorted once, each
parity by (q0, q3, q1, q2): the output order that the golden files fix.
A unit versor's transformation is fixed by the rotation of R, whose order
follows from its scalar part q0 = cos theta (``coxeter.rotation_order``),
so the census needs no matrices.
"""

from __future__ import annotations

from collections import Counter

from .coxeter import (Record, RootSystem, SimpleRoots, accrete, dot,
                      orbit_closure, rotation_order, verify_root_system)
from .exactfield import (ONE, ZERO, apply, class_key, exact_sorted,
                         from_keys, linear_map, squared_norm, to_ints)
from .quaternion import Quaternion, catalog

RANK4_LABEL = {"a1x3": "A1x4", "a3": "D4", "b3": "F4", "h3": "H4"}
BINARY_NAME = {"lipschitz": "Q", "hurwitz": "2T",
               "hurwitz+duals": "2O", "icosians": "2I"}

# The largest finite group of unit versors over the field.  A unit rotor
# turns through 2 theta with cos^2 theta in the field, so its rotation's
# order is in ``rotation_order``'s table: 1, 2, 3, 4, 5, 6, 8 or 10.  A
# finite rotation group of such orders is C_n or D_n with n <= 10, or T, O
# or I: at most 60 (Conway & Smith, *On Quaternions and Octonions*, ch. 3).
# Reflections at most double that, and each is two versors +-v: 240, which
# H3's versors reach, so a closure past it is an infinite group.
VERSOR_CAP = 240
_PLUS_MINUS_ONE = (ONE, -ONE)  # the census's w with w^2 = 1


def _dual(root) -> Quaternion:
    """(0, a) for the unit root a along ``root``: the quaternion of I a."""
    if len(root) != 3:
        raise ValueError(f"a root in R^3 has 3 components, not {len(root)}")
    m2 = dot(root, root)
    if not m2:
        raise ValueError("the zero vector cannot be normalized")
    if m2 != ONE:
        s = m2.sqrt()
        if s is None:
            raise ValueError(f"norm sqrt({m2}) leaves the field")
        inv = s.inverse()
        root = [c * inv for c in root]
    return Quaternion(ZERO, *root)


def _left_terms():
    """_LEFT[i][r] = (k, sign): component r of q e_i is sign q_k, read off
    ``Quaternion.__mul__`` on the basis units, e_k e_i = sign e_r."""
    units = [Quaternion(*(ONE if k == i else ZERO for k in range(4)))
             for i in range(4)]
    left = [[None] * 4 for _ in range(4)]
    for k, e_k in enumerate(units):
        for i, e_i in enumerate(units):
            r, x = next(t for t in enumerate((e_k * e_i).components) if t[1])
            left[i][r] = (k, x.sign())
    return left


_LEFT = _left_terms()


def _generator(parity: int, q: Quaternion):
    """(parity, cols, den): left multiplication p -> q p as an integer
    matrix (``exactfield.linear_map``) of the images q e_i (``_LEFT``)."""
    signed = {1: q.components, -1: tuple(-x for x in q.components)}
    return parity, *linear_map([[signed[s][k] for k, s in row]
                                for row in _LEFT])


def _step(gen, elem):
    """(class key, sign) of a class key (a, coords, den) times a generator:
    its matrix applied to coords, negated when both are odd, parities XORed."""
    b, cols, den_b = gen
    a, coords, den = elem
    key, sign = apply((cols, -den_b if a & b else den_b), (coords, den))
    return (a ^ b, *key), sign


def _mulclose(seed):
    """Smallest set of (parity, Quaternion) pairs containing ``seed`` and
    closed under the geometric product: the even elements, then the odd,
    each half sorted by (q0, q3, q1, q2); CapExceeded past ``VERSOR_CAP``
    elements, an infinite group.

    A class {v, -v} is keyed (parity, coords, den) by the quaternion's
    ``exactfield.class_key``.  Since I is central, (I^a R_A)(I^b R_B) =
    I^(a+b) R_A R_B, and R_A R_B has the quaternion q_B q_A, so a step
    multiplies q_A on the left by q_B (the matrix of ``_generator``), XORs
    the parities and negates when both are odd (I^2 = -1).  The seed
    pairs' classes, in order, close by ``coxeter.accrete``, which certifies
    whether -1 is in: then a class is both versors, else the one reached.
    Every class must have unit norm, as v and -v share it: v * ~v is the
    norm of R's quaternion for either parity; ValueError if one does not.
    """
    classes, minus_one = accrete(
        (((p, *key), sign, (p, q)) for p, q in seed
         for key, sign in [class_key(to_ints(q.components))]),
        lambda pq: _generator(*pq), _step, VERSOR_CAP)
    if not all(squared_norm(key[1:]) == ONE for key in classes):
        raise ValueError("closure produced a non-unit versor")
    elements = [(odd, ints if s > 0 else tuple([-n for n in ints]), den)
                for (odd, ints, den), sign in classes.items()
                for s in ((1, -1) if minus_one else (sign,))]
    halves = ([], [])
    for (odd, _, _), (q0, q1, q2, q3) in zip(
            elements, from_keys(e[1:] for e in elements)):
        halves[odd].append((q0, q3, q1, q2))
    return tuple((odd, Quaternion(q0, q1, q2, q3))
                 for odd, half in enumerate(halves)
                 for q0, q3, q1, q2 in exact_sorted(half))


def generate_from_two(simple: SimpleRoots) -> VersorGroup:
    """Closure of the two spinor generators a1 a2 and a2 a3.
    With d_i = (0, a_i) the simple roots' duals, a1 a2 = a1.a2 + I a1 x a2
    has the quaternion -(d2 d1) = (a1.a2, a1 x a2).  Each has finite order
    in a finite group, so the closure (``_mulclose``) holds its inverse."""
    if len(simple.roots) != 3:
        raise ValueError("need exactly three simple roots")
    d1, d2, d3 = map(_dual, simple.roots)
    seed = ((0, -(d2 * d1)), (0, -(d3 * d2)))
    return VersorGroup(simple.group, _mulclose(seed))


class VersorGroup(Record):
    """Unit versors as (parity, quaternion of R) pairs, even before odd,
    each half in ``_mulclose``'s order; the rotors are the even ones."""
    __slots__ = ("group", "elements")
    group: str
    elements: tuple[tuple[int, Quaternion], ...]

    def __len__(self):
        return len(self.elements)

    def spinors(self) -> VersorGroup:
        """The rotors: the even half, in the elements' sorted order."""
        return VersorGroup(self.group,
                           tuple(e for e in self.elements if not e[0]))

    def quaternions(self) -> tuple[Quaternion, ...]:
        """The images of the elements; ValueError if one is odd."""
        if any(parity for parity, _ in self.elements):
            raise ValueError("spinor map needs an even multivector")
        return tuple(q for _, q in self.elements)


def generate_versor_group(rs: RootSystem) -> VersorGroup:
    """Close the unit root vectors under the geometric product.

    A root a = I (-I a) enters as the odd pair (1, -(0, a)), in the order of
    ``rs.roots``; ``_mulclose`` checks that every element is a unit, and
    raises CapExceeded on an infinite group.  The even half are the rotors.
    """
    if rs.rank != 3:
        raise ValueError("versor groups are generated from rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before generating versors")
    return VersorGroup(rs.group,
                       _mulclose((1, -_dual(r)) for r in rs.roots))


class VersorCensus(Record):
    __slots__ = ("transformations", "identity", "rotations", "reflections",
                 "rotoinversions", "even", "odd", "central_inversion")
    transformations: int
    identity: int
    rotations: dict
    reflections: int
    rotoinversions: int
    even: int
    odd: int
    central_inversion: bool

    def to_json(self) -> dict:
        data = dict(zip(self.__slots__, self._fields()))
        data["rotations"] = {str(k): v
                             for k, v in sorted(self.rotations.items())}
        return data


def classify_versors(vg: VersorGroup) -> VersorCensus:
    """Census of the distinct induced transformations by parity and order.

    A unit versor and its negative induce the same transformation, and no
    other pair does, so every count is halved exactly when -1 is in the
    group.  Each (parity, q) pair is read off the scalar part w = q0 of R,
    for either parity.  A unit versor with w^2 = 1 is +-1 when even, so
    the identity, counted twice exactly when -1 is in, and +-I when odd,
    the central inversion: a group holding one holds the other, since
    (-I)^2 = -1 and (-1)(-I) = I.  Any other even versor is a rotation of
    order ``rotation_order(w^2)``.  An odd versor v = I R acts as minus the
    rotation of R: with w = 0 that rotation is a half-turn and v a pure
    reflection; any other odd versor, +-I among them, is a rotoinversion.
    """
    units = [0, 0]  # the versors with w^2 = 1: +-1, then +-I
    reflections = odd = 0
    rotations: Counter = Counter()
    for parity, q in vg.elements:
        w = q.components[0]
        odd += parity
        if w in _PLUS_MINUS_ONE:
            units[parity] += 1
        elif parity:
            reflections += not w
        else:
            rotations[rotation_order(w * w)] += 1
    k = units[0]
    return VersorCensus(len(vg) // k, 1,
                        {n: m // k for n, m in rotations.items()},
                        reflections // k, (odd - reflections) // k,
                        (len(vg) - odd) // k, odd // k, units[1] > 0)


class PureQuaternionCheck(Record):
    """The witness is a (parity, quaternion) pair: -I or a missing dual."""
    __slots__ = ("holds", "central_inversion", "witness")
    holds: bool
    central_inversion: bool
    witness: tuple[int, Quaternion]


def check_pure_quaternion_subrootsystem(
        rs: RootSystem, vg: VersorGroup) -> PureQuaternionCheck:
    """Decide whether the Hodge duals of all roots are even versors of
    ``vg``, the versor group of ``rs``.

    The dual of a root a is the even pair (0, (0, a)) (``_dual``), so no
    geometric product is taken.  Independently determines whether the
    central inversion is generated and asserts the biconditional between
    the two: the central inversion is realized by +-I = (1, +-1), the only
    unit versors acting as -identity, and a group holding one holds the
    other.  The witness is -I = (1, -1) when the property holds, or the
    pair of a dual root that escapes the spinor set when it fails.
    """
    elements = set(vg.elements)
    duals = ((0, _dual(root)) for root in rs.roots)
    missing = next((d for d in duals if d not in elements), None)
    holds = missing is None
    central = (1, Quaternion(1)) in elements
    if holds != central:
        raise AssertionError(
            "pure-quaternion property and central inversion disagree "
            f"for {rs.group}: holds={holds}, central={central}")
    return PureQuaternionCheck(holds, central,
                               (1, Quaternion(-1)) if holds else missing)


def induce_rank4(ss: VersorGroup) -> RootSystem:
    """Package the quaternion images as a verified rank-4 root system."""
    roots = tuple(exact_sorted([q.components for q in ss.quaternions()]))
    rs4 = RootSystem(RANK4_LABEL.get(ss.group, f"{ss.group}-rank4"), 4, roots)
    cert = verify_root_system(rs4)
    if not cert.passed:
        raise ValueError(f"induced rank-4 set is not a root system: "
                         f"axiom {cert.axiom}, witness {cert.witness}")
    return rs4


def catalog_match(ss: VersorGroup) -> str | None:
    """The first name of ``BINARY_NAME`` whose catalog the images equal."""
    images = frozenset(ss.quaternions())
    return next((n for n in BINARY_NAME if catalog(n) == images), None)


# -- full per-group pipeline --------------------------------------------------

class PipelineResult(Record):
    __slots__ = ("group", "root_system", "spinors", "versors", "census",
                 "pure", "rank4", "two_generator", "two_generator_match")
    group: str
    root_system: RootSystem
    spinors: VersorGroup
    versors: VersorGroup
    census: VersorCensus
    pure: PureQuaternionCheck
    rank4: RootSystem
    two_generator: VersorGroup
    two_generator_match: bool

    @property
    def order(self) -> int:
        return self.census.transformations


def run_pipeline(simple: SimpleRoots) -> PipelineResult:
    """Roots -> versors -> rotors, census -> rank-4 system, end to end."""
    rs = orbit_closure(simple)
    cert = verify_root_system(rs)
    if not cert.passed:
        raise ValueError(f"closure of {simple.group} is not a root system: "
                         f"axiom {cert.axiom}")
    vg = generate_versor_group(rs)
    ss = vg.spinors()
    census = classify_versors(vg)
    pure = check_pure_quaternion_subrootsystem(rs, vg=vg)
    rank4 = induce_rank4(ss)
    two = generate_from_two(simple)
    return PipelineResult(
        group=simple.group,
        root_system=rs,
        spinors=ss,
        versors=vg,
        census=census,
        pure=pure,
        rank4=rank4,
        two_generator=two,
        two_generator_match=set(two.elements) == set(ss.elements),
    )


def export_json(result: PipelineResult) -> dict:
    """Machine-readable bundle for one group."""
    return {
        "group": result.group,
        "spinors": [q.to_json() for q in result.spinors.quaternions()],
        "versor_census": result.census.to_json(),
        "central_inversion": result.pure.central_inversion,
        "rank4": result.rank4.to_json(),
    }

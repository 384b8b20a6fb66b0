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
multiplication by a generator is the sparse integer matrix that
``exactfield.linear_map`` reads off the Hamilton product, so a step is
one sparse product and one gcd, the kernel that reflections share
(``exactfield.apply``), in the closure that the orbit of roots shares
(``coxeter.accrete``).  The result is sorted once, each parity by
(q0, q3, q1, q2): the output order that the golden files fix.
A unit versor's transformation is fixed by the rotation of R, whose order
follows from its scalar part q0 = cos theta (``coxeter.rotation_order``),
so the census needs no matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .coxeter import (RootSystem, SimpleRoots, accrete, dot, orbit_closure,
                      rotation_order, verify_root_system)
from .exactfield import (ONE, ZERO, apply, exact_sorted, from_ints,
                         linear_map, to_ints)
from .quaternion import Quaternion, catalog

RANK4_LABEL = {"a1x3": "A1x4", "a3": "D4", "b3": "F4", "h3": "H4"}
BINARY_NAME = {"lipschitz": "Q", "hurwitz": "2T",
               "hurwitz+duals": "2O", "icosians": "2I"}


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


def _generator(parity: int, q: Quaternion):
    """(parity, cols, den): left multiplication p -> q p as an integer
    matrix, read off ``Quaternion.__mul__`` (``exactfield.linear_map``)."""
    return parity, *linear_map(lambda p: (q * Quaternion(*p)).components, 4)


def _step(gen, elem):
    """The product of an element (a, coords, den) and a generator: its
    matrix applied to coords, negated when both are odd, parities XORed."""
    b, cols, den_b = gen
    a, coords, den = elem
    return (a ^ b, *apply((cols, -den_b if a & b else den_b), (coords, den)))


def _mulclose(seed, cap: int):
    """Smallest set of (parity, Quaternion) pairs containing ``seed`` and
    closed under the geometric product: the even elements, then the odd,
    each half sorted by (q0, q3, q1, q2).

    Each element is held as (parity, coords, den): the quaternion as its
    reduced integer coordinates (``exactfield.to_ints``), so tuple
    equality is exact.  Since I is central, (I^a R_A)(I^b R_B) =
    I^(a+b) R_A R_B, and R_A R_B has the quaternion q_B q_A, so a step
    multiplies q_A on the left by q_B (the matrix of ``_generator``), XORs
    the parities and negates when both are odd (I^2 = -1).  The seed
    pairs, in the order given, are the seeds of ``coxeter.accrete``.
    """
    elements = accrete((((p, *to_ints(q.components)), (p, q))
                        for p, q in seed),
                       lambda pq: _generator(*pq), _step, cap)
    halves = ([], [])
    for odd, coords, den in elements:
        q0, q1, q2, q3 = from_ints(coords, den)
        halves[odd].append((q0, q3, q1, q2))
    return tuple((odd, Quaternion(q0, q1, q2, q3))
                 for odd, half in enumerate(halves)
                 for q0, q3, q1, q2 in exact_sorted(half))


def generate_from_two(simple: SimpleRoots, cap: int = 10000) -> VersorGroup:
    """Closure of the two spinor generators a1 a2 and a2 a3.
    With d_i = (0, a_i) the simple roots' duals, a1 a2 = a1.a2 + I a1 x a2
    has the quaternion -(d2 d1) = (a1.a2, a1 x a2).  Each has finite order,
    so the closure holds its inverse without seeding it."""
    if len(simple.roots) != 3:
        raise ValueError("need exactly three simple roots")
    d1, d2, d3 = map(_dual, simple.roots)
    seed = ((0, -(d2 * d1)), (0, -(d3 * d2)))
    return VersorGroup(simple.group, _mulclose(seed, cap))


@dataclass(frozen=True)
class VersorGroup:
    """Unit versors as (parity, quaternion of R) pairs, even before odd,
    each half in ``_mulclose``'s order; the rotors are the even ones."""
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


def generate_versor_group(rs: RootSystem, cap: int = 20000) -> VersorGroup:
    """Close the unit root vectors under the geometric product.

    A root a = I (-I a) enters as the odd pair (1, -(0, a)), in the order of
    ``rs.roots``.  Every element must have unit magnitude: v * ~v is the
    norm of R's quaternion for either parity.  The even half are the rotors.
    """
    if rs.rank != 3:
        raise ValueError("versor groups are generated from rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before generating versors")
    elements = _mulclose(((1, -_dual(r)) for r in rs.roots), cap)
    if not all(q.is_unit() for _, q in elements):
        raise ValueError("closure produced a non-unit versor")
    return VersorGroup(rs.group, elements)


@dataclass(frozen=True)
class VersorCensus:
    transformations: int
    identity: int
    rotations: dict
    reflections: int
    rotoinversions: int
    even: int
    odd: int
    central_inversion: bool

    def to_json(self) -> dict:
        return {**asdict(self), "rotations": {
            str(k): v for k, v in sorted(self.rotations.items())}}


def classify_versors(vg: VersorGroup) -> VersorCensus:
    """Census of the distinct induced transformations by parity and order.

    A unit versor and its negative induce the same transformation, and no
    other pair does, so every count is halved exactly when -1 is in the
    group.  Each (parity, q) pair is read off the scalar part w = q0 of R,
    for either parity.  An even versor with w^2 = 1 is the identity, and
    otherwise a rotation of order ``rotation_order(w^2)``.  An odd versor
    v = I R acts as minus the rotation of R: with w = 0 that rotation is a
    half-turn and v a pure reflection; any other odd versor is a
    rotoinversion, among them v = +-I, the central inversion.  The group
    holds -I exactly when it holds I = (1, 1), since (-I)^2 = -1 and
    (-1)(-I) = I, so the census looks up I as the pure check does.
    """
    n_identity = reflections = rotoinversions = even = odd = 0
    rotations: Counter = Counter()
    for parity, q in vg.elements:
        w = q.components[0]
        if parity:
            odd += 1
            if not w:
                reflections += 1
            else:
                rotoinversions += 1
        else:
            even += 1
            w2 = w * w
            if w2 == ONE:
                n_identity += 1
            else:
                rotations[rotation_order(w2)] += 1
    k = 2 if (0, Quaternion(-1)) in vg.elements else 1
    return VersorCensus(len(vg) // k, n_identity // k,
                        {n: m // k for n, m in rotations.items()},
                        reflections // k, rotoinversions // k,
                        even // k, odd // k, (1, Quaternion(1)) in vg.elements)


@dataclass(frozen=True)
class PureQuaternionCheck:
    """The witness is a (parity, quaternion) pair: -I or a missing dual."""
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
    """Name of the unit-quaternion catalog the spinor images equal, if any."""
    images = frozenset(ss.quaternions())
    candidates = (
        ("lipschitz", catalog("lipschitz")),
        ("hurwitz", catalog("hurwitz")),
        ("hurwitz+duals", catalog("hurwitz") | catalog("hurwitz_duals")),
        ("icosians", catalog("icosians")),
    )
    for name, units in candidates:
        if images == units:
            return name
    return None


# -- full per-group pipeline --------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
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

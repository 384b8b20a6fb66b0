"""Versor groups generated by root systems via the geometric product.

One multiplicative closure of the unit root vectors realizes the full
reflection group as unit versors.  A spinor is a product of two
reflections, so the binary polyhedral group of rotors is the even half of
that closure, and its quaternion images are the rank-4 root systems.  The
matrix of each versor is read off its four components: in Cl(3) the
pseudoscalar I is central, every odd versor v is I times an even one, and
v acts as minus the rotation of I*v.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .clifford import Multivector, reflect, vector
from .coxeter import (CapExceeded, Matrix, RootSystem, SimpleRoots,
                      mat_det3, mat_identity, mat_mul, mat_neg, mat_order,
                      orbit_closure, verify_root_system)
from .exactfield import FieldScalar
from .quaternion import Quaternion, catalog

RANK4_LABEL = {"a1x3": "A1x4", "a3": "D4", "b3": "F4", "h3": "H4"}
BINARY_NAME = {"lipschitz": "Q", "hurwitz": "2T",
               "hurwitz+duals": "2O", "icosians": "2I"}

_ZERO = FieldScalar(0)
_ONE = FieldScalar(1)
_NEG_IDENTITY = mat_neg(mat_identity(3))


def _unit(v: Multivector) -> Multivector:
    m2 = v.mag2()
    if not m2:
        raise ValueError("the zero vector cannot be normalized")
    if m2 == _ONE:
        return v
    s = m2.sqrt()
    if s is None:
        raise ValueError(f"norm sqrt({m2}) leaves the field")
    return v * s.inverse()


def _mulclose(seed, cap: int):
    """Smallest set containing ``seed`` and closed under the geometric
    product, as a tuple sorted by components.

    Generators are accreted one by one: a seed element already inside the
    running closure contributes nothing new, so the generator list stays
    short and the closure needs |result| * |generators| products instead of
    |result| * |seed|.
    """
    elements: set[Multivector] = set()
    gens: list[Multivector] = []
    for s in sorted(seed, key=lambda m: m.components):
        if s in elements:
            continue
        gens.append(s)
        elements.add(s)
        frontier = list(elements)
        while frontier:
            new = []
            for f in frontier:
                for g in gens:
                    h = f * g
                    if h not in elements:
                        elements.add(h)
                        new.append(h)
                        if len(elements) > cap:
                            raise CapExceeded(
                                f"closure exceeded cap of {cap} elements")
            frontier = new
    return tuple(sorted(elements, key=lambda m: m.components))


@dataclass(frozen=True)
class SpinorSet:
    group: str
    rotors: tuple[Multivector, ...]

    def __len__(self):
        return len(self.rotors)

    def quaternions(self) -> tuple[Quaternion, ...]:
        return tuple(Quaternion.from_spinor(r) for r in self.rotors)


def generate_from_two(simple: SimpleRoots, cap: int = 10000) -> SpinorSet:
    """Closure of the two spinor generators a1 a2 and a2 a3 (with reverses)."""
    if len(simple.roots) != 3:
        raise ValueError("need exactly three simple roots")
    v1, v2, v3 = (_unit(vector(*r)) for r in simple.roots)
    r1 = v1 * v2
    r2 = v2 * v3
    seed = {r1, r2, r1.reverse(), r2.reverse()}
    return SpinorSet(simple.group, _mulclose(seed, cap))


def induced_matrix(versor: Multivector) -> Matrix:
    """Exact 3x3 matrix of the orthogonal map the versor performs.

    An even versor R = w + I b, with b = (x, y, z), sends v to
    ((w^2 - |b|^2) v + 2 (b|v) b + 2 w v x b) / (w^2 + |b|^2), a quadratic
    form in its four components.  An odd versor v is I times the even
    versor -I v and acts as minus its rotation.
    """
    c = versor.components
    # blade 5 = s2s3 = I s1, blade 6 = s3s1 = I s2, blade 4 = s1s2 = I s3
    if versor.is_even():
        odd, w, x, y, z = False, c[0], c[5], c[6], c[4]
    elif versor.is_odd():
        odd, w, x, y, z = True, -c[7], c[1], c[2], c[3]
    else:
        raise ValueError("versor must have pure even or pure odd grade")
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm = ww + xx + yy + zz
    if not norm:
        raise ValueError("null versor has no inverse")
    w2, x2 = w + w, x + x  # for the doubled products
    xy, xz, yz = x2 * y, x2 * z, (y + y) * z
    wx, wy, wz = w2 * x, w2 * y, w2 * z
    m = ((ww + xx - yy - zz, xy + wz, xz - wy),
         (xy - wz, ww - xx + yy - zz, yz + wx),
         (xz + wy, yz - wx, ww - xx - yy + zz))
    if norm != _ONE:
        inv = norm.inverse()
        m = tuple(tuple(v * inv for v in row) for row in m)
    return mat_neg(m) if odd else m


@dataclass(frozen=True)
class VersorGroup:
    group: str
    elements: tuple[Multivector, ...]
    transforms: dict

    def __len__(self):
        return len(self.elements)

    def matrices(self) -> set[Matrix]:
        return set(self.transforms.values())

    def even_elements(self) -> tuple[Multivector, ...]:
        return tuple(e for e in self.elements if e.is_even())

    def odd_elements(self) -> tuple[Multivector, ...]:
        return tuple(e for e in self.elements if e.is_odd())

    def spinors(self) -> SpinorSet:
        """The rotors: the even half, in the elements' sorted order."""
        return SpinorSet(self.group, self.even_elements())


def generate_versor_group(rs: RootSystem, cap: int = 20000) -> VersorGroup:
    """Close the unit root vectors under the geometric product.

    Every element must have pure parity (``induced_matrix`` checks it) and
    unit magnitude; for a pure-parity element of Cl(3), v * ~v is the sum
    of the squares of its components.  The induced orthogonal
    transformation of each versor is tabulated exactly.  The even half are
    the rotors.
    """
    if rs.rank != 3:
        raise ValueError("versor groups are generated from rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before generating versors")
    elements = _mulclose({_unit(vector(*r)) for r in rs.roots}, cap)
    transforms = {}
    for elem in elements:
        transforms[elem] = induced_matrix(elem)
        if sum((c * c for c in elem.components if c), _ZERO) != _ONE:
            raise ValueError("closure produced a non-unit versor")
    return VersorGroup(rs.group, elements, transforms)


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
        return {
            "transformations": self.transformations,
            "identity": self.identity,
            "rotations": {str(k): v for k, v in sorted(self.rotations.items())},
            "reflections": self.reflections,
            "rotoinversions": self.rotoinversions,
            "even": self.even,
            "odd": self.odd,
            "central_inversion": self.central_inversion,
        }


def classify_versors(vg: VersorGroup) -> VersorCensus:
    """Census of the distinct induced transformations by parity and order.

    Rotations are graded by their multiplicative order; an odd transformation
    is a pure reflection when it squares to the identity without being the
    central inversion, and a rotoinversion otherwise (the central inversion
    counts among the rotoinversions).
    """
    matrices = vg.matrices()
    identity = mat_identity(3)
    n_identity = 0
    rotations: Counter = Counter()
    reflections = 0
    rotoinversions = 0
    even = odd = 0
    central = False
    for m in matrices:
        if mat_det3(m) == FieldScalar(1):
            even += 1
            if m == identity:
                n_identity += 1
            else:
                rotations[mat_order(m)] += 1
        else:
            odd += 1
            if m == _NEG_IDENTITY:
                central = True
                rotoinversions += 1
            elif mat_mul(m, m) == identity:
                reflections += 1
            else:
                rotoinversions += 1
    return VersorCensus(len(matrices), n_identity, dict(rotations),
                        reflections, rotoinversions, even, odd, central)


@dataclass(frozen=True)
class PureQuaternionCheck:
    holds: bool
    central_inversion: bool
    witness: object


def check_pure_quaternion_subrootsystem(rs: RootSystem,
                                        vg: VersorGroup | None = None,
                                        ) -> PureQuaternionCheck:
    """Decide whether the Hodge duals of all roots are even versors.

    Independently determines whether the central inversion is generated and
    asserts the biconditional between the two.  The witness is the versor
    realizing -identity when the property holds, or a dual root that escapes
    the spinor set when it fails.
    """
    if vg is None:
        vg = generate_versor_group(rs)
    rotors = set(vg.even_elements())
    duals = (_unit(vector(*root)).dual() for root in rs.roots)
    missing = next((d for d in duals if d not in rotors), None)
    holds = missing is None
    central_versor = next((e for e, m in vg.transforms.items()
                           if m == _NEG_IDENTITY), None)
    central = central_versor is not None
    if holds != central:
        raise AssertionError(
            "pure-quaternion property and central inversion disagree "
            f"for {rs.group}: holds={holds}, central={central}")
    return PureQuaternionCheck(holds, central,
                               central_versor if holds else missing)


def induce_rank4(ss: SpinorSet) -> RootSystem:
    """Package the quaternion images as a verified rank-4 root system."""
    roots = tuple(sorted(q.components for q in ss.quaternions()))
    rs4 = RootSystem(RANK4_LABEL.get(ss.group, f"{ss.group}-rank4"), 4, roots)
    cert = verify_root_system(rs4)
    if not cert.passed:
        raise ValueError(f"induced rank-4 set is not a root system: "
                         f"axiom {cert.axiom}, witness {cert.witness}")
    return rs4


def catalog_match(ss: SpinorSet) -> str | None:
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


def quaternion_reflection_equivalence(v: Multivector, a: Multivector) -> bool:
    """Check the quaternionic reflection decoding against the vector route.

    With x the pure-quaternion image of I*a (a normalized), the map
    v -> -x conj(v) x must equal the pure-quaternion image of the
    reflection -ava.
    """
    if not v.is_vector() or not a.is_vector():
        raise ValueError("expected pure vectors")
    left = Quaternion.from_spinor(reflect(v, a).dual())
    x = Quaternion.from_spinor(_unit(a).dual())
    vq = Quaternion.from_spinor(v.dual())
    right = -(x * vq.conjugate() * x)
    return left == right


# -- full per-group pipeline --------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    group: str
    root_system: RootSystem
    spinors: SpinorSet
    catalog_name: str | None
    versors: VersorGroup
    census: VersorCensus
    pure: PureQuaternionCheck
    rank4: RootSystem
    two_generator: SpinorSet
    two_generator_match: bool

    @property
    def order(self) -> int:
        return self.census.transformations

    @property
    def binary_name(self) -> str | None:
        return BINARY_NAME.get(self.catalog_name)


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
        catalog_name=catalog_match(ss),
        versors=vg,
        census=census,
        pure=pure,
        rank4=rank4,
        two_generator=two,
        two_generator_match=set(two.rotors) == set(ss.rotors),
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

"""Rotor and versor groups generated by root systems via the geometric product.

The multiplicative closure of the root vectors realizes the full reflection
group as unit versors; the even part is the binary polyhedral group of
rotors, whose quaternion images are the rank-4 root systems.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import clifford
from .clifford import Multivector, apply_versor, reflect, vector
from .coxeter import (Matrix, Root, RootSystem, SimpleRoots, mat_det3,
                      mat_identity, mat_mul, mat_neg, mat_order,
                      verify_root_system)
from .exactfield import FieldScalar
from .quaternion import Quaternion, catalog

RANK4_LABEL = {"a1x3": "A1x4", "a3": "D4", "b3": "F4", "h3": "H4"}
BINARY_NAME = {"lipschitz": "Q", "hurwitz": "2T",
               "hurwitz+duals": "2O", "icosians": "2I"}

_NEG_IDENTITY = mat_neg(mat_identity(3))


def _vec(root: Root) -> Multivector:
    return vector(*root)


def _unit_vector(root: Root) -> Multivector:
    v = _vec(root)
    m2 = v.mag2()
    if not m2:
        raise ValueError("zero root cannot be normalized")
    if m2 == FieldScalar(1):
        return v
    s = m2.sqrt()
    if s is None:
        raise ValueError(f"root norm sqrt({m2}) leaves the field")
    return v * s.inverse()


def _mulclose(seed, cap: int):
    """Smallest set containing ``seed`` and closed under the geometric product.

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
                            raise ValueError(
                                f"closure exceeded cap of {cap} elements")
            frontier = new
    return elements


def _sorted_mvs(mvs) -> tuple[Multivector, ...]:
    return tuple(sorted(mvs, key=lambda m: m.components))


@dataclass(frozen=True)
class SpinorSet:
    group: str
    rotors: tuple[Multivector, ...]

    def __len__(self):
        return len(self.rotors)

    def quaternions(self) -> tuple[Quaternion, ...]:
        return tuple(Quaternion.from_spinor(r) for r in self.rotors)


def generate_rotors(rs: RootSystem, cap: int = 10000) -> SpinorSet:
    """Close the pairwise products a_i a_j of all roots under multiplication.

    For the four preset groups the pairwise products already form the full
    binary polyhedral group, so the closure loop terminates immediately.
    """
    if rs.rank != 3:
        raise ValueError("rotors are generated from rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before generating rotors")
    vecs = [_unit_vector(r) for r in rs.roots]
    seed = {a * b for a in vecs for b in vecs}
    return SpinorSet(rs.group, _sorted_mvs(_mulclose(seed, cap)))


def generate_from_two(simple: SimpleRoots, cap: int = 10000) -> SpinorSet:
    """Closure of the two spinor generators a1 a2 and a2 a3 (with reverses)."""
    if len(simple.roots) != 3:
        raise ValueError("need exactly three simple roots")
    v1, v2, v3 = (_unit_vector(r) for r in simple.roots)
    r1 = v1 * v2
    r2 = v2 * v3
    seed = {r1, r2, r1.reverse(), r2.reverse()}
    return SpinorSet(simple.group, _sorted_mvs(_mulclose(seed, cap)))


def induced_matrix(versor: Multivector) -> Matrix:
    """Exact 3x3 matrix of the orthogonal map the versor performs."""
    cols = [apply_versor(e, versor) for e in (clifford.E1, clifford.E2,
                                              clifford.E3)]
    return tuple(tuple(cols[j].components[1 + i] for j in range(3))
                 for i in range(3))


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


def generate_versor_group(rs: RootSystem, cap: int = 20000) -> VersorGroup:
    """Close the unit root vectors under the geometric product.

    Every element keeps pure parity and unit magnitude; the induced
    orthogonal transformation of each versor is tabulated exactly.
    """
    if rs.rank != 3:
        raise ValueError("versor groups are generated from rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before generating versors")
    seed = {_unit_vector(r) for r in rs.roots}
    elements = _sorted_mvs(_mulclose(seed, cap))
    transforms = {}
    for elem in elements:
        if not (elem.is_even() or elem.is_odd()):
            raise ValueError("closure produced a mixed-parity element")
        if elem.mag2() != FieldScalar(1):
            raise ValueError("closure produced a non-unit versor")
        transforms[elem] = induced_matrix(elem)
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
                                        ss: SpinorSet | None = None,
                                        vg: VersorGroup | None = None,
                                        ) -> PureQuaternionCheck:
    """Decide whether the Hodge duals of all roots sit inside the spinor set.

    Independently determines whether the central inversion is generated and
    asserts the biconditional between the two.  The witness is the versor
    realizing -identity when the property holds, or a dual root that escapes
    the spinor set when it fails.
    """
    if ss is None:
        ss = generate_rotors(rs)
    if vg is None:
        vg = generate_versor_group(rs)
    rotor_set = set(ss.rotors)
    missing = None
    for root in rs.roots:
        dual = _unit_vector(root).dual()
        if dual not in rotor_set:
            missing = dual
            break
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
    m2 = a.mag2()
    if not m2:
        raise ValueError("reflection normal must be nonzero")
    s = m2.sqrt()
    if s is None:
        raise ValueError(f"|a| = sqrt({m2}) does not lie in the field")
    unit_a = a * s.inverse()
    left = Quaternion.from_spinor(reflect(v, a).dual())
    x = Quaternion.from_spinor(unit_a.dual())
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
    """Roots -> rotors -> versors -> census -> rank-4 system, end to end."""
    from .coxeter import orbit_closure

    rs = orbit_closure(simple)
    cert = verify_root_system(rs)
    if not cert.passed:
        raise ValueError(f"closure of {simple.group} is not a root system: "
                         f"axiom {cert.axiom}")
    ss = generate_rotors(rs)
    vg = generate_versor_group(rs)
    census = classify_versors(vg)
    pure = check_pure_quaternion_subrootsystem(rs, ss=ss, vg=vg)
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

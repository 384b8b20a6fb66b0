"""Spinor sets, versor groups, censuses, and the rank-4 induction."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (induced_matrix, mat_det3, mat_identity, mat_mul,
                     matrix_census, multivector, multivectors,
                     plain_closure, quaternion_coords,
                     rand_nonzero_scalar, rand_sparse_scalar, rand_vector_mv,
                     turn)
from spinroots import clifford, coxeter, spingroup
from spinroots.clifford import (E1, E2, I, ONE, Multivector, from_spinor,
                                quaternion_reflection_equivalence, vector,
                                versor_blades, versor_pair)
from spinroots.coxeter import (GROUPS, CapExceeded, RootSystem,
                               SimpleRoots, cartan_matrix, orbit_closure,
                               simple_roots, verify_root_system)
from spinroots.exactfield import FieldScalar, class_key, linear_map, to_ints
from spinroots.quaternion import Quaternion, catalog
from spinroots.spingroup import (VersorGroup, classify_versors,
                                 check_pure_quaternion_subrootsystem,
                                 catalog_match, generate_from_two,
                                 generate_versor_group,
                                 induce_rank4)

EXPECTED_SPINORS = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}
EXPECTED_CATALOG = {"a1x3": "lipschitz", "a3": "hurwitz",
                    "b3": "hurwitz+duals", "h3": "icosians"}
_ONE = FieldScalar(1)
_ZERO = FieldScalar(0)


def test_spinor_counts(spinor_sets):
    assert {g: len(ss) for g, ss in spinor_sets.items()} == EXPECTED_SPINORS


def test_spinor_sets_are_unit_rotors(spinor_sets):
    for ss in spinor_sets.values():
        for r in multivectors(ss):
            assert r.is_even()
            assert r * r.reverse() == ONE


def test_spinor_sets_closed(spinor_sets):
    for g, ss in spinor_sets.items():
        rotors = multivectors(ss)
        rotor_set = set(rotors)
        sample = rotors if g != "h3" else rotors[::5]
        for a in sample:
            for b in sample:
                assert a * b in rotor_set
        for r in rotors:
            assert r.reverse() in rotor_set
            assert -r in rotor_set


def test_pairwise_products_already_closed(closures, spinor_sets):
    # for all four preset groups, {a_i a_j} with no further closure is
    # the whole binary group
    for g, rs in closures.items():
        vecs = [vector(*r) for r in rs.roots]
        pairwise = {a * b for a in vecs for b in vecs}
        assert pairwise == set(multivectors(spinor_sets[g]))


def test_catalog_identity(spinor_sets):
    for g, ss in spinor_sets.items():
        assert catalog_match(ss) == EXPECTED_CATALOG[g]


def test_catalog_match_none_for_other_sets():
    from spinroots.spingroup import VersorGroup
    ss = VersorGroup("junk", (versor_pair(ONE), versor_pair(-ONE)))
    assert catalog_match(ss) is None


def test_worked_rotor_values_a3():
    a1, a2, a3 = (vector(*r) for r in simple_roots("a3").roots)
    half = FieldScalar(Fraction(1, 2))
    r12 = a1 * a2
    assert r12 == Multivector((-half, 0, 0, 0, -half, half, -half, 0))
    assert from_spinor(r12) == Quaternion(-half, half, -half, -half)
    assert a1 * a3 == I * clifford.E3


def test_worked_rotor_values_a1x3():
    a1, a2, a3 = (vector(*r) for r in simple_roots("a1x3").roots)
    assert a1 * a1 == ONE
    assert a2 * a3 == I * E1
    assert from_spinor(a2 * a3) == Quaternion(0, 1, 0, 0)


def test_generate_from_two_matches_full(spinor_sets):
    for g in EXPECTED_SPINORS:
        two = generate_from_two(simple_roots(g))
        assert set(two.elements) == set(spinor_sets[g].elements)


def test_generate_from_two_needs_three_roots():
    from spinroots.coxeter import SimpleRoots
    with pytest.raises(ValueError, match="exactly three"):
        generate_from_two(SimpleRoots("x", ((_ONE, _ONE),)))
    e1_e2_e3 = tuple(tuple(_ONE if i == j else _ZERO for j in range(4))
                     for i in range(3))  # in R^4
    with pytest.raises(ValueError, match="3 components"):
        generate_from_two(SimpleRoots("x", e1_e2_e3))


def test_generate_rotors_preconditions(closures):
    rs = RootSystem("a1x3", 3, closures["a1x3"].roots)  # not verified
    with pytest.raises(ValueError, match="verify"):
        generate_versor_group(rs)
    rank4 = RootSystem("a1x3", 4, closures["a1x3"].roots)
    rank4.verified = True
    with pytest.raises(ValueError, match="rank-3"):
        generate_versor_group(rank4)


def test_versor_group_sizes(versor_groups):
    assert {g: len(vg) for g, vg in versor_groups.items()} == \
        {"a1x3": 16, "a3": 48, "b3": 96, "h3": 240}


def test_versor_group_structure(versor_groups):
    for g, vg in versor_groups.items():
        versors = multivectors(vg)
        elements = set(versors)
        assert ONE in elements
        for e in versors:
            assert e.is_even() or e.is_odd()
            assert e.mag2() == _ONE
            assert e.reverse() in elements
            assert e * e.reverse() == ONE
        sample = versors if g != "h3" else versors[::6]
        for a in sample:
            for b in sample:
                assert a * b in elements


def test_even_versors_are_the_rotors(versor_groups, spinor_sets):
    for g, vg in versor_groups.items():
        versors = multivectors(vg)
        assert {e for e in versors if e.is_even()} == \
            set(multivectors(spinor_sets[g]))
        assert len([e for e in versors if e.is_odd()]) == len(spinor_sets[g])


def test_induced_transformation_counts(versor_groups):
    assert {g: len({induced_matrix(e) for e in multivectors(vg)})
            for g, vg in versor_groups.items()} == \
        {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}


def test_rotor_to_rotation_two_to_one(versor_groups):
    for vg in versor_groups.values():
        rotors = multivectors(vg.spinors())
        counts = Counter(induced_matrix(e) for e in rotors)
        assert set(counts.values()) == {2}
        for e in rotors:
            assert induced_matrix(e) == induced_matrix(-e)


def _sandwich_matrix(v):
    cols = [clifford.apply_versor(e, v).vector_coords()
            for e in (E1, E2, clifford.E3)]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


def test_induced_matrix_equals_sandwich_columns(versor_groups):
    # all 400 versors of the four groups, even and odd
    count = 0
    for vg in versor_groups.values():
        for v in multivectors(vg):
            assert induced_matrix(v) == _sandwich_matrix(v)
            count += 1
    assert count == 400


def test_induced_matrix_of_non_unit_and_bad_versors():
    for v in (vector(1, 1, 0), vector(0, 2, 0) + I,
              Multivector((1, 0, 0, 0, 2, 0, 1, 0))):
        assert induced_matrix(v * FieldScalar(2)) == _sandwich_matrix(v)
    with pytest.raises(ValueError, match="pure even or pure odd"):
        induced_matrix(ONE + E1)
    with pytest.raises(ValueError, match="null"):
        induced_matrix(Multivector((0,) * 8))


def test_induced_matrices_are_orthogonal(versor_groups):
    # columns of each induced matrix form an orthonormal frame
    for vg in versor_groups.values():
        for m in [induced_matrix(e) for e in multivectors(vg)[:40]]:
            mt = tuple(tuple(m[j][i] for j in range(3)) for i in range(3))
            assert mat_mul(mt, m) == mat_identity(3)
            assert mat_det3(m) in (_ONE, -_ONE)


def test_census_h3(versor_groups):
    census = classify_versors(versor_groups["h3"])
    assert census.transformations == 120
    assert census.identity == 1
    assert census.rotations == {2: 15, 3: 20, 5: 24}
    assert census.reflections == 15
    assert census.rotoinversions == 45
    assert census.even == 60
    assert census.odd == 60
    assert census.central_inversion


def _turned_h3():
    """H3's simple roots turned by the quaternion (1, -2, 4, 5) of norm 46,
    and their verified closure: dense versors with large denominators."""
    q = (1, -2, 4, 5)
    turned = SimpleRoots("h3", tuple(turn(q, r)
                                     for r in simple_roots("h3").roots))
    rs = orbit_closure(turned)
    assert verify_root_system(rs).passed
    return turned, rs


def _turned_h3_versors():
    return generate_versor_group(_turned_h3()[1])


def test_census_matches_matrix_oracle(versor_groups):
    # the scalar-part census against the census of the distinct induced
    # matrices, in the preset frames and in a turned frame with dense versors
    groups = dict(versor_groups, turned_h3=_turned_h3_versors())
    for g, vg in groups.items():
        assert classify_versors(vg).to_json() == \
            matrix_census(multivectors(vg)), g
    assert not set(multivectors(groups["turned_h3"])) & set(
        multivectors(versor_groups["h3"])) - {ONE, -ONE, I, -I}


def test_census_of_a_group_without_minus_one():
    # {1, e1} is the reflection group of order 2: no -1, so nothing halves
    # the even element first, then the odd
    vg = spingroup.VersorGroup("t", spingroup._mulclose(
        map(versor_pair, {E1})))
    assert vg.elements == (versor_pair(ONE), versor_pair(E1))
    census = classify_versors(vg)
    assert census.to_json() == matrix_census(multivectors(vg))
    assert (census.transformations, census.identity, census.reflections,
            census.odd) == (2, 1, 1, 1)


def test_census_makes_no_quaternion_comparison(versor_groups,
                                                monkeypatch):
    # -1 and +-I are read off the scalar parts in the census's one pass,
    # not looked up among the elements
    calls = []
    eq = Quaternion.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)
    monkeypatch.setattr(Quaternion, "__eq__", counted)
    census = classify_versors(versor_groups["h3"])
    assert calls == []
    assert (census.transformations, census.central_inversion) == (120, True)


def test_census_other_groups(versor_groups):
    a1 = classify_versors(versor_groups["a1x3"])
    assert (a1.transformations, a1.reflections, a1.rotoinversions) == (8, 3, 1)
    assert a1.central_inversion

    a3 = classify_versors(versor_groups["a3"])
    assert a3.transformations == 24
    assert not a3.central_inversion

    b3 = classify_versors(versor_groups["b3"])
    assert b3.transformations == 48
    assert b3.central_inversion
    assert b3.odd == 24
    assert b3.reflections == 9


def test_pure_quaternion_biconditional_pattern(pipelines):
    verdicts = {g: res.pure.holds for g, res in pipelines.items()}
    assert verdicts == {"a1x3": True, "a3": False, "b3": True, "h3": True}
    for g, res in pipelines.items():
        assert res.pure.central_inversion == res.pure.holds


def test_pure_quaternion_witnesses(pipelines):
    # when the property holds the witness realizes -identity
    for g in ("a1x3", "b3", "h3"):
        w = multivector(pipelines[g].pure.witness)
        assert w in (I, -I)
        assert induced_matrix(w) == tuple(
            tuple(-_ONE if i == j else FieldScalar(0) for j in range(3))
            for i in range(3))
    # when it fails the witness is a dual root outside the spinor set
    w = multivector(pipelines["a3"].pure.witness)
    assert w.grades() == {2}
    assert w not in set(multivectors(pipelines["a3"].spinors))


def test_h3_duals_are_pure_icosians(pipelines):
    res = pipelines["h3"]
    rotors = set(multivectors(res.spinors))
    duals = {vector(*r).dual() for r in res.root_system.roots}
    assert len(duals) == 30
    assert duals <= rotors
    images = {from_spinor(d) for d in duals}
    assert images == {q for q in catalog("icosians")
                      if not q.components[0]}


def test_pure_icosian_product_rule(closures):
    roots = closures["h3"].roots
    rng = random.Random(127)
    for _ in range(300):
        a = vector(*rng.choice(roots))
        b = vector(*rng.choice(roots))
        assert a.dual() * b.dual() == -(a * b)


def test_induce_rank4(pipelines):
    for g, res in pipelines.items():
        rank4 = res.rank4
        assert rank4.rank == 4
        assert rank4.verified
        fresh = RootSystem(rank4.group, 4, rank4.roots)
        from spinroots.coxeter import verify_root_system
        assert verify_root_system(fresh).passed
    assert {g: res.rank4.group for g, res in pipelines.items()} == \
        {"a1x3": "A1x4", "a3": "D4", "b3": "F4", "h3": "H4"}


def test_rank4_roots_equal_catalogs(pipelines):
    for g, name in EXPECTED_CATALOG.items():
        assert set(pipelines[g].rank4.roots) == \
            {q.components for q in catalog(name)}


def test_induce_rank4_rejects_non_root_system():
    from spinroots.spingroup import VersorGroup
    # images {1, 2}: parallel
    ss = VersorGroup("junk", (versor_pair(ONE), versor_pair(ONE + ONE)))
    with pytest.raises(ValueError):
        induce_rank4(ss)


def test_quaternion_reflection_equivalence_examples():
    assert quaternion_reflection_equivalence(E1, E1)
    assert quaternion_reflection_equivalence(E2, E1)


def test_quaternion_reflection_equivalence_randomized(unit_vector_pool):
    rng = random.Random(131)
    for _ in range(300):
        v = rand_vector_mv(rng)
        a = rng.choice(unit_vector_pool) * rand_nonzero_scalar(rng, 4)
        assert quaternion_reflection_equivalence(v, a)


def test_quaternion_reflection_equivalence_errors():
    with pytest.raises(ValueError):
        quaternion_reflection_equivalence(E1, vector(1, 1, 1))
    with pytest.raises(ValueError):
        quaternion_reflection_equivalence(ONE, E1)


def test_unit_normalizes_vectors():
    # _dual normalizes a root tuple and returns the pure quaternion (0, a)
    assert spingroup._dual((3, 4, 0)) == \
        Quaternion(0, Fraction(3, 5), Fraction(4, 5), 0)
    assert spingroup._dual((0, 0, -1)) == Quaternion(0, 0, 0, -1)
    assert spingroup._dual((1, 1, 0)) == \
        Quaternion(0, *[FieldScalar(0, Fraction(1, 2))] * 2, 0)
    with pytest.raises(ValueError, match="leaves the field"):
        spingroup._dual((1, 1, 1))
    with pytest.raises(ValueError,
                       match="the zero vector cannot be normalized"):
        spingroup._dual((0, 0, 0))


def test_closure_multiplies_each_element_by_each_generator_once(
        closures, monkeypatch):
    # the closure so far is multiplied by a new generator only, and each
    # class {v, -v} stands for both its versors, so B3 and H3 (three
    # generators each) take 48 x 3 and 120 x 3 closure steps (96 x 3 and
    # 240 x 3 on versors; multiplying the whole closure by every generator
    # each time one is added takes 322 and 762)
    calls = []
    original = spingroup._step

    def counted(gen, elem):
        calls.append(1)
        return original(gen, elem)

    monkeypatch.setattr(spingroup, "_step", counted)
    counts = {}
    for g in ("b3", "h3"):
        calls.clear()
        counts[g] = (len(generate_versor_group(closures[g])), len(calls))
    assert counts == {"b3": (96, 144), "h3": (240, 360)}


def _rand_quaternion(rng, sparse: bool) -> Quaternion:
    if sparse:
        return Quaternion(*(rand_sparse_scalar(rng) if rng.random() < 0.6
                            else 0 for _ in range(4)))
    return Quaternion(*(rand_nonzero_scalar(rng) for _ in range(4)))


def test_generator_matrix_is_left_multiplication():
    # the integer matrix of q applied to the coordinates of p gives those
    # of q * p, and a step adds the parity, the negation and the reduction
    # to a class key and its sign
    rng = random.Random(149)
    quats = [_rand_quaternion(rng, sparse) for sparse in (True, False) * 12]
    quats += [q for _, q in _turned_h3_versors().elements[::9]]
    quats.append(Quaternion(0))
    for _ in range(120):
        q, p = rng.choice(quats), rng.choice(quats)
        b = rng.randint(0, 1)
        parity, cols, den = spingroup._generator(b, q)
        assert parity == b and den > 0 and len(cols) == 16
        image = [Fraction(0)] * 16
        for x, col in zip(quaternion_coords(p), cols):
            for row, v in col:
                image[row] += x * v
        product = quaternion_coords(q * p)
        assert tuple(y / den for y in image) == product
        a = rng.randint(0, 1)
        (odd, coords, h_den), s = spingroup._step(
            (b, cols, den), (a, *to_ints(p.components)))
        sign = -1 if a & b else 1
        assert odd == a ^ b
        assert h_den > 0 and math.gcd(*coords, h_den) == 1
        assert tuple(Fraction(s * n, h_den) for n in coords) == \
            tuple(sign * y for y in product)


def _unit_vector(root) -> Multivector:
    """The unit vector along ``root``, read off its dual quaternion."""
    return vector(*spingroup._dual(root).components[1:])


def _two_generator_seed(simple):
    v1, v2, v3 = map(_unit_vector, simple.roots)
    return {v1 * v2, v2 * v3}


def _documented_order(versors):
    """The (parity, quaternion) pairs of ``versors``, even before odd, each
    half in the order of the blades of R."""
    return tuple(sorted(map(versor_pair, versors),
                        key=lambda pq: (pq[0],
                                        versor_blades(0, pq[1].components))))


def _roots(*rows):
    return tuple(tuple(map(FieldScalar, row)) for row in rows)


# simple roots of A1xB2 (B2 in the plane x = 0) and of C3, of two lengths
_A1XB2 = _roots((1, 0, 0), (0, 1, -1), (0, 0, 1))
_C3 = _roots((1, -1, 0), (0, 1, -1), (0, 0, 2))


def _class_keys(pairs) -> list:
    """The closure's class keys (parity, coords, den) of (parity, q) pairs."""
    return [(p, *class_key(to_ints(q.components))[0]) for p, q in pairs]


def _record_minus_one(monkeypatch) -> list:
    """The -1 flags of ``spingroup``'s closures, in the order closed."""
    flags, accrete = [], spingroup.accrete

    def recorded(*args):
        classes, minus_one = accrete(*args)
        flags.append(minus_one)
        return classes, minus_one
    monkeypatch.setattr(spingroup, "accrete", recorded)
    return flags


def test_mulclose_equals_plain_closure(closures, monkeypatch):
    # element for element and in the documented order, on the versor seeds
    # and the two-generator seeds of the presets, of turned H3, of A1xB2
    # and of C3; the closures read these seeds' pairs off the roots' duals,
    # and each certifies -1 exactly when it holds -1
    mulclose, seeds = spingroup._mulclose, []
    flags = _record_minus_one(monkeypatch)

    def recorded(seed):
        seeds.append(list(seed))
        return mulclose(seeds[-1])

    monkeypatch.setattr(spingroup, "_mulclose", recorded)
    turned, turned_rs = _turned_h3()
    cases = [(closures[g], simple_roots(g)) for g in EXPECTED_SPINORS]
    cases.append((turned_rs, turned))
    for name, roots in (("a1xb2", _A1XB2), ("c3", _C3)):
        simple = SimpleRoots(name, roots)
        rs = orbit_closure(simple)
        assert verify_root_system(rs).passed
        cases.append((rs, simple))
    for rs, simple in cases:
        versor_seed = set(map(_unit_vector, rs.roots))
        two_seed = _two_generator_seed(simple)
        for seed in (versor_seed, two_seed):
            elements = mulclose(map(versor_pair, seed))
            assert elements == _documented_order(plain_closure(seed))
            assert flags[-1] == ((0, Quaternion(-1)) in elements)
        seeds.clear()
        generate_versor_group(rs)
        generate_from_two(simple)
        assert [set(s) for s in seeds] == [set(map(versor_pair, versor_seed)),
                                           set(map(versor_pair, two_seed))]
    assert [len(rs) for rs, _ in cases[-2:]] == [10, 18]
    monkeypatch.setattr(spingroup, "VERSOR_CAP", 50)
    with pytest.raises(CapExceeded):
        generate_versor_group(turned_rs)


def test_groups_without_minus_one(monkeypatch):
    # {1, v} for one odd unit root v (v^2 = 1), the cyclic group of order 3
    # of the even seed q = -(1/2, 1/2, 1/2, 1/2), and the 6 elements seeded
    # by q and -q, where the seed meets q's class with the other sign: each
    # closure equals the plain closure, and certifies -1 exactly when the
    # group holds it; the cap counts elements either way, letting through
    # a closure of exactly that many elements and stopping it one below
    flags = _record_minus_one(monkeypatch)
    v = (1, -spingroup._dual((3, 4, 0)))
    h = FieldScalar(Fraction(-1, 2))
    q = (0, Quaternion(h, h, h, h))
    minus_q = (0, -q[1])
    for seed, n, minus_one in (([v], 2, False), ([q], 3, False),
                               ([q, minus_q], 6, True)):
        monkeypatch.setattr(spingroup, "VERSOR_CAP", n)
        elements = spingroup._mulclose(seed)
        assert elements == _documented_order(
            plain_closure(set(map(multivector, seed))))
        assert len(elements) == n
        assert flags[-1] is minus_one
        assert ((0, Quaternion(-1)) in elements) is minus_one
        monkeypatch.setattr(spingroup, "VERSOR_CAP", n - 1)
        with pytest.raises(CapExceeded, match=f"cap of {n - 1} elements"):
            spingroup._mulclose(seed)


def test_cap_boundaries_count_elements(closures, monkeypatch):
    # a cap lets through a closure of exactly that many elements and stops
    # it one below: 240 versors and 120 two-generator spinors.  The root
    # orbit's bound 2 r N(3) moves in steps of 2r = 6 for H3's three roots:
    # N(3) = 5 makes it exactly the 30 roots, and N(3) = 4 stops them
    h3 = simple_roots("h3")
    for closure, size in (
            (lambda: generate_versor_group(closures["h3"]), 240),
            (lambda: generate_from_two(h3), 120)):
        monkeypatch.setattr(spingroup, "VERSOR_CAP", size)
        assert len(closure()) == size
        monkeypatch.setattr(spingroup, "VERSOR_CAP", size - 1)
        with pytest.raises(CapExceeded, match=f"cap of {size - 1} "):
            closure()
    monkeypatch.setitem(coxeter.MOST_REFLECTIONS, 3, 5)
    assert len(orbit_closure(h3)) == 30
    monkeypatch.setitem(coxeter.MOST_REFLECTIONS, 3, 4)
    with pytest.raises(CapExceeded, match="cap of 24 "):
        orbit_closure(h3)


def test_closure_cap(monkeypatch):
    closed = orbit_closure(simple_roots("h3"))
    verify_root_system(closed)
    monkeypatch.setattr(spingroup, "VERSOR_CAP", 50)
    with pytest.raises(ValueError, match="cap"):
        generate_versor_group(closed)


def test_closure_cap_is_typed(closures, monkeypatch):
    monkeypatch.setattr(spingroup, "VERSOR_CAP", 50)
    with pytest.raises(CapExceeded,
                       match="closure exceeded cap of 50 elements"):
        generate_versor_group(closures["h3"])
    with pytest.raises(CapExceeded, match="cap of 50"):
        generate_from_two(simple_roots("h3"))


def test_h3_reaches_the_versor_cap(closures):
    # H3's versor group is the largest finite one over the field, and its
    # two-generator spinors are its even half: both close at the constant
    assert spingroup.VERSOR_CAP == 240
    assert len(generate_versor_group(closures["h3"])) == 240
    assert len(generate_from_two(simple_roots("h3"))) == 120


def test_infinite_groups_stop_at_the_versor_cap():
    # (3/5, 4/5, 0) and (1, 0, 0) meet at an angle that is no rational
    # multiple of pi: the two-generator spinors and the versors of a root
    # set forged as verified both generate infinite groups
    third = Fraction(3, 5), Fraction(4, 5), 0
    simple = SimpleRoots("bad", tuple(
        tuple(map(FieldScalar, r)) for r in ((1, 0, 0), third, (0, 0, 1))))
    forged = RootSystem("bad", 3, tuple(
        r for a in simple.roots[:2] for r in (a, tuple(-x for x in a))))
    forged.verified = True
    for closure in (lambda: generate_from_two(simple),
                    lambda: generate_versor_group(forged)):
        with pytest.raises(CapExceeded,
                           match="^closure exceeded cap of 240 elements$"):
            closure()


def test_versor_group_rejects_non_unit_versors(closures, monkeypatch):
    # a closure whose classes hold pure-parity elements of norm 4 and 2,
    # next to the unit 1, which alone passes
    unit, = _class_keys([versor_pair(ONE)])
    for bad in (vector(2, 0, 0), E1 * E2 + ONE):
        for keys, ok in (([unit], True),
                         ([unit, *_class_keys([versor_pair(bad)])], False)):
            monkeypatch.setattr(spingroup, "accrete",
                                lambda *args, keys=keys:
                                (dict.fromkeys(keys, 1), False))
            if ok:
                assert generate_versor_group(closures["a1x3"]).elements \
                    == (versor_pair(ONE),)
                continue
            with pytest.raises(ValueError, match="non-unit versor"):
                generate_versor_group(closures["a1x3"])


def test_versor_closures_share_one_object_per_value(closures, monkeypatch):
    # the closure's keys are converted in one batch: one FieldScalar per
    # distinct component value (9 for H3), and the same elements, in the
    # same order, as converting each key alone through Fractions
    def per_key(keys):
        return [tuple(FieldScalar(*(Fraction(n, den) for n in ints[i:i + 4]))
                      for i in range(0, len(ints), 4)) for ints, den in keys]

    simple = simple_roots("h3")
    groups = (generate_versor_group(closures["h3"]), generate_from_two(simple))
    for vg in groups:
        comps = [x for _, q in vg.elements for x in q.components]
        assert len({id(x) for x in comps}) == len(set(comps)) == 9
    monkeypatch.setattr(spingroup, "from_keys", per_key)
    again = (generate_versor_group(closures["h3"]), generate_from_two(simple))
    assert again == groups
    for vg in again:  # per_key shares nothing, so it did the conversion
        assert len({id(x) for _, q in vg.elements
                    for x in q.components}) == 4 * len(vg)


def test_pure_check_standalone(closures):
    res = check_pure_quaternion_subrootsystem(
        closures["a3"], generate_versor_group(closures["a3"]))
    assert not res.holds
    assert not res.central_inversion


def test_quaternions_reject_an_odd_element(versor_groups):
    with pytest.raises(ValueError, match="even multivector"):
        spingroup.VersorGroup(
            "t", (versor_pair(ONE), versor_pair(E1))).quaternions()
    with pytest.raises(ValueError, match="even multivector"):
        versor_groups["a1x3"].quaternions()


def test_pure_check_takes_no_geometric_product(pipelines, monkeypatch):
    # the duals are read off the roots, and the witness is -I, the first
    # of +-I in sorted order
    products = []
    original = Multivector.__mul__

    def counted(a, b):
        products.append(1)
        return original(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    for g in ("a1x3", "a3", "b3", "h3"):
        res = pipelines[g]
        check = check_pure_quaternion_subrootsystem(res.root_system,
                                                    res.versors)
        assert check == res.pure
        if g != "a3":
            assert multivector(check.witness) == -I
    assert products == []


def test_pure_check_asserts_the_biconditional(pipelines):
    # without +-I the duals of A1xA1xA1's roots are still all rotors
    res = pipelines["a1x3"]
    without = spingroup.VersorGroup(
        "a1x3", tuple(e for e in res.versors.elements
                      if e not in (versor_pair(I), versor_pair(-I))))
    with pytest.raises(AssertionError, match="disagree for a1x3"):
        check_pure_quaternion_subrootsystem(res.root_system, without)


def test_run_pipeline_rejects_a_closure_that_is_no_root_system():
    # e1 and 2 e1 reflect alike, so the orbit holds both: a scalar multiple
    doubled = SimpleRoots("doubled", ((_ONE, _ZERO, _ZERO),
                                      (_ONE + _ONE, _ZERO, _ZERO),
                                      (_ZERO, _ZERO, _ONE)))
    with pytest.raises(ValueError,
                       match="closure of doubled is not a root system: "
                             "axiom 1"):
        spingroup.run_pipeline(doubled)


def _simple(group, *roots):
    return SimpleRoots(group, tuple(
        tuple(c if isinstance(c, FieldScalar) else FieldScalar(c) for c in r)
        for r in roots))


def test_pipeline_on_c3_normalizes_two_root_lengths():
    # the long simple root (0, 0, 2) has norm 2, so _dual takes its square
    # root inside the pipeline; C3 and B3 share the group 2O
    res = spingroup.run_pipeline(_simple("c3", (1, -1, 0), (0, 1, -1),
                                         (0, 0, 2)))
    assert (len(res.root_system), res.order, len(res.spinors)) == \
        (18, 48, 48)
    assert catalog_match(res.spinors) == "hurwitz+duals"
    assert len(res.rank4) == 48


def test_pipeline_on_a1xb2_matches_no_catalog():
    # A1 x B2 induces a group of 16 spinors that none of the four
    # catalogs holds, with the duals of its roots among them
    h = FieldScalar(0, Fraction(1, 2))   # 1/sqrt2
    res = spingroup.run_pipeline(_simple("a1xb2", (0, 0, 1), (1, 0, 0),
                                         (-h, h, 0)))
    assert (len(res.root_system), res.order, len(res.spinors),
            len(res.versors)) == (10, 16, 16, 32)
    assert res.pure.holds and res.two_generator_match
    assert res.census.central_inversion
    assert catalog_match(res.spinors) is None


def test_pipeline_maps_only_the_two_generator_seeds(monkeypatch):
    # the roots enter the closures as their dual quaternions, and the
    # closures hand back (parity, quaternion) pairs, so a pass builds no
    # Multivector, takes no geometric product and leaves the spinor map
    calls = Counter()
    init, mul = Multivector.__init__, Multivector.__mul__
    original_from_spinor = clifford.from_spinor

    def counted_init(self, components):
        calls["init"] += 1
        init(self, components)

    def counted_mul(a, b):
        calls["product"] += isinstance(b, Multivector)
        return mul(a, b)

    def counted_from_spinor(mv):
        calls["from_spinor"] += 1
        return original_from_spinor(mv)

    monkeypatch.setattr(Multivector, "__init__", counted_init)
    monkeypatch.setattr(Multivector, "__mul__", counted_mul)
    monkeypatch.setattr(clifford, "from_spinor", counted_from_spinor)
    for g in GROUPS:
        spingroup.run_pipeline(simple_roots(g))
    assert calls == Counter()
    assert ONE * E1 == E1 and calls == Counter(init=1, product=1)


def test_pipeline_builds_its_matrices_from_images(monkeypatch):
    # every kernel matrix is built from images written down directly, so
    # a pass over the four presets takes only the 8 Hamilton products of
    # the two-generator seeds and builds 61 matrices: per preset, 3
    # reflections in the orbit closure and 3 in rank-3 axiom 2, 4 in
    # rank-4 axiom 2 (5 for F4), and 3 versor and 2 spinor generators
    calls = Counter()
    mul, build = Quaternion.__mul__, linear_map

    def counted_mul(a, b):
        calls["hamilton"] += isinstance(b, Quaternion)
        return mul(a, b)

    def counted_linear_map(images):
        calls["linear_map"] += 1
        return build(images)

    monkeypatch.setattr(Quaternion, "__mul__", counted_mul)
    monkeypatch.setattr(coxeter, "linear_map", counted_linear_map)
    monkeypatch.setattr(spingroup, "linear_map", counted_linear_map)
    for g in GROUPS:
        spingroup.run_pipeline(simple_roots(g))
    assert calls == Counter(hamilton=8, linear_map=61)


CENSUS_JSON = {
    "a1x3": {"transformations": 8, "identity": 1, "rotations": {"2": 3},
             "reflections": 3, "rotoinversions": 1, "even": 4, "odd": 4,
             "central_inversion": True},
    "a3": {"transformations": 24, "identity": 1,
           "rotations": {"2": 3, "3": 8}, "reflections": 6,
           "rotoinversions": 6, "even": 12, "odd": 12,
           "central_inversion": False},
    "b3": {"transformations": 48, "identity": 1,
           "rotations": {"2": 9, "3": 8, "4": 6}, "reflections": 9,
           "rotoinversions": 15, "even": 24, "odd": 24,
           "central_inversion": True},
    "h3": {"transformations": 120, "identity": 1,
           "rotations": {"2": 15, "3": 20, "5": 24}, "reflections": 15,
           "rotoinversions": 45, "even": 60, "odd": 60,
           "central_inversion": True},
}


def test_census_json_keys_values_and_order(pipelines):
    # the key order is the field order, and the --json digests fix it
    for g, res in pipelines.items():
        assert json.dumps(res.census.to_json()) == \
            json.dumps(CENSUS_JSON[g]), g


def test_pipeline_records_are_read_only(pipelines):
    res = pipelines["b3"]
    for record in (res, res.spinors, res.census, res.pure):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_census_and_pure_check_compare_by_fields(pipelines):
    for res in pipelines.values():
        for record in (res.census, res.pure):
            cls = type(record)
            fields = [getattr(record, name) for name in cls.__slots__]
            assert cls(*fields) == record
            for i in range(len(fields)):
                assert cls(*fields[:i], object(), *fields[i + 1:]) != record
    assert pipelines["a3"].census != pipelines["b3"].census
    assert pipelines["a3"].pure != pipelines["b3"].pure
    assert pipelines["b3"].pure == pipelines["h3"].pure  # both witness -I


def test_versor_group_is_not_a_tuple(spinor_sets):
    ss = spinor_sets["a1x3"]
    assert len(ss) == len(ss.elements) == 8
    assert ss != (ss.group, ss.elements)
    assert ss == VersorGroup(ss.group, ss.elements)
    assert ss != VersorGroup("other", ss.elements)


@pytest.mark.parametrize("conj", ["conj_sqrt2", "conj_sqrt5"])
@pytest.mark.parametrize("group", GROUPS)
def test_galois_conjugate_roots_give_the_same_pipeline(pipelines, group,
                                                       conj):
    # a Galois map is a field automorphism, so it keeps every polynomial
    # identity among the coordinates: the conjugate simple roots close to
    # the same counts, census and checks, and the angle pi/5 of H3 goes to
    # 2pi/5, of the same order 5
    preset = pipelines[group]
    simple = SimpleRoots(group, tuple(
        tuple(getattr(c, conj)() for c in r)
        for r in simple_roots(group).roots))
    res = spingroup.run_pipeline(simple)

    def summary(r, roots):
        return (len(r.root_system), len(r.spinors), r.census.to_json(),
                r.pure.holds, r.two_generator_match, len(r.rank4),
                cartan_matrix(roots).pair_orders)
    assert summary(res, simple) == summary(preset, simple_roots(group))


def test_export_json(pipelines):
    from spinroots.spingroup import export_json
    data = export_json(pipelines["b3"])
    assert data["group"] == "b3"
    assert len(data["spinors"]) == 48
    assert data["central_inversion"] is True
    assert data["versor_census"]["rotoinversions"] == 15
    assert data["rank4"]["group"] == "F4"
    assert len(data["rank4"]["roots"]) == 48

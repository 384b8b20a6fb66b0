"""Acceptance gate: every criterion at zero tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from helpers import (induced_matrix, multivectors, rand_multivector,
                     rand_nonzero_scalar, rand_scalar, rand_vector_mv)
from spinroots import clifford
from spinroots.clifford import (E1, E2, E3, I, ONE, Multivector, from_spinor,
                                quaternion_reflection_equivalence, reflect,
                                vector)
from spinroots.coxeter import (RootSystem, cartan_matrix, simple_roots,
                               verify_root_system)
from spinroots.exactfield import SIGMA, TAU, FieldScalar
from spinroots.quaternion import Quaternion, catalog
from spinroots.spingroup import generate_from_two

GROUPS = ("a1x3", "a3", "b3", "h3")
TABLE_ROOTS3 = {"a1x3": 6, "a3": 12, "b3": 18, "h3": 30}
TABLE_ORDER = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}
TABLE_SPINORS = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}
TABLE_RANK4 = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}
CATALOG_FOR = {"a1x3": catalog("lipschitz"),
               "a3": catalog("hurwitz"),
               "b3": catalog("hurwitz") | catalog("hurwitz_duals"),
               "h3": catalog("icosians")}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def test_criterion_1_root_counts(pipelines):
    with criterion(1, "rank-3 root counts and axioms"):
        for g, res in pipelines.items():
            assert len(res.root_system) == TABLE_ROOTS3[g]
            fresh = RootSystem(g, 3, res.root_system.roots)
            assert verify_root_system(fresh).passed


def test_criterion_2_spinor_counts_and_closure(pipelines):
    with criterion(2, "spinor counts, product and reversal closure"):
        for g, res in pipelines.items():
            rotors = multivectors(res.spinors)
            assert len(rotors) == TABLE_SPINORS[g]
            rotor_set = set(rotors)
            for r in rotors:
                assert r * r.reverse() == ONE
                assert r.reverse() in rotor_set
            for a in rotors:
                for b in rotors:
                    assert a * b in rotor_set


def test_criterion_3_catalog_identity(pipelines):
    with criterion(3, "quaternion catalogs matched set-exactly"):
        for g, res in pipelines.items():
            assert frozenset(res.spinors.quaternions()) == CATALOG_FOR[g]


def test_criterion_4_group_orders(pipelines):
    with criterion(4, "transformation counts and 2-to-1 double cover"):
        from collections import Counter
        for g, res in pipelines.items():
            vg = res.versors
            matrices = {e: induced_matrix(e) for e in multivectors(vg)}
            assert len(set(matrices.values())) == TABLE_ORDER[g]
            assert res.census.transformations == TABLE_ORDER[g]
            counts = Counter(matrices[e] for e in multivectors(vg.spinors()))
            assert set(counts.values()) == {2}


def test_criterion_5_rank4_root_systems(pipelines):
    with criterion(5, "rank-4 induction passes both axioms"):
        for g, res in pipelines.items():
            assert len(res.rank4) == TABLE_RANK4[g]
            fresh = RootSystem(res.rank4.group, 4, res.rank4.roots)
            assert verify_root_system(fresh).passed


def test_criterion_6_two_generator_property(pipelines):
    with criterion(6, "two spinor generators produce the full set"):
        for g, res in pipelines.items():
            two = generate_from_two(simple_roots(g))
            assert set(two.elements) == set(res.spinors.elements)


def test_criterion_7_h3_census(pipelines):
    with criterion(7, "H3 census: 15 reflections, 45 rotoinversions"):
        census = pipelines["h3"].census
        assert census.reflections == 15
        assert census.rotoinversions == 45
        assert census.central_inversion
        assert census.odd == 60


def test_criterion_8_pure_quaternion_property(pipelines):
    with criterion(8, "pure-quaternion biconditional pattern"):
        verdicts = {g: res.pure.holds for g, res in pipelines.items()}
        assert verdicts == {"a1x3": True, "a3": False, "b3": True, "h3": True}
        for res in pipelines.values():
            assert res.pure.holds == res.pure.central_inversion
        h3 = pipelines["h3"]
        rotors = set(multivectors(h3.spinors))
        duals = {vector(*r).dual() for r in h3.root_system.roots}
        assert len(duals) == 30
        assert duals <= rotors


def test_criterion_9_worked_proof_values():
    with criterion(9, "worked reflection and rotor computations"):
        half = FieldScalar(Fraction(1, 2))
        s = FieldScalar(0, Fraction(1, 2))
        a1, a2, a3 = (vector(*r) for r in simple_roots("a3").roots)
        assert a1 * a2 == Multivector((-half, 0, 0, 0, -half, half, -half, 0))
        assert a1 * a3 == I * E3
        # s(a1) = a1 - 2(a1|a2) a2 = a1 + a2 since (a1|a2) = -1/2; the
        # image is +(1,0,1)/sqrt2 (for unit roots both +-images are roots)
        assert reflect(a1, a2) == vector(s, FieldScalar(0), s)
        assert reflect(a1, a2) == a1 + a2
        b1, b2, b3 = (vector(*r) for r in simple_roots("b3").roots)
        assert reflect(b3, b2) == E2


def test_criterion_10_property_suites(pipelines, unit_vector_pool):
    with criterion(10, "randomized property suites"):
        rng = random.Random(20251231)

        one = FieldScalar(1)
        for _ in range(1000):
            x, y, z = (rand_scalar(rng, 5) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.inverse() == one

        for _ in range(1000):
            a = rand_multivector(rng, nonzero=3)
            b = rand_multivector(rng, nonzero=3)
            c = rand_multivector(rng, nonzero=3)
            assert (a * b) * c == a * (b * c)

        for _ in range(1000):
            a = rand_multivector(rng, nonzero=3)
            b = rand_multivector(rng, nonzero=3)
            assert (a * b).reverse() == b.reverse() * a.reverse()

        for _ in range(1000):
            a = rand_vector_mv(rng, 4)
            n = rng.choice(unit_vector_pool) * rand_nonzero_scalar(rng, 3)
            image = reflect(a, n)
            assert reflect(image, n) == a
            assert (image * image).scalar_part() == (a * a).scalar_part()

        for _ in range(1000):
            p = Quaternion(*(rand_scalar(rng, 4) for _ in range(4)))
            q = Quaternion(*(rand_scalar(rng, 4) for _ in range(4)))
            assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()

        evens = [ONE, I * E1, I * E2, I * E3]
        for A, B in product(evens, repeat=2):
            assert from_spinor((A * B).reverse()) == \
                from_spinor(A.reverse()) * from_spinor(B.reverse())
            assert from_spinor(A * B) == from_spinor(B) * from_spinor(A)

        for _ in range(1000):
            v = rand_vector_mv(rng, 4)
            a = rng.choice(unit_vector_pool) * rand_nonzero_scalar(rng, 3)
            assert quaternion_reflection_equivalence(v, a)

        cm = cartan_matrix(simple_roots("h3"))
        assert cm.entries[0][1] == -TAU
        assert cm.entries[1][0] == -TAU
        assert cm.entries[1][2] == -SIGMA

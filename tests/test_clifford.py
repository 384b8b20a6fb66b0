"""Geometric product, grading, sandwich maps, duality."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (geometric_product_oracle, rand_multivector,
                     rand_nonzero_scalar, rand_vector_mv)
from spinroots.clifford import (E1, E2, E3, GRADE_OF, I, ONE, Multivector,
                                apply_versor, reflect, rotate, scalar, vector)
from spinroots.exactfield import FieldScalar, TAU

_BASIS = [Multivector([1 if i == k else 0 for i in range(8)])
          for k in range(8)]
_HALF_SQRT2 = FieldScalar(0, Fraction(1, 2))


def test_table_against_independent_oracle():
    # every one of the 64 basis products, from first principles
    for i in range(8):
        for j in range(8):
            assert _BASIS[i] * _BASIS[j] == \
                geometric_product_oracle(_BASIS[i], _BASIS[j])


def test_defining_relations():
    frame = (E1, E2, E3)
    for i, ei in enumerate(frame):
        for j, ej in enumerate(frame):
            anticomm = ei * ej + ej * ei
            expected = scalar(2) if i == j else scalar(0)
            assert anticomm == expected


def test_pauli_grading_identities():
    assert E1 * E2 == I * E3
    assert E2 * E3 == I * E1
    assert E3 * E1 == I * E2
    assert I == E1 * E2 * E3
    assert I * I == -ONE
    for biv in (E1 * E2, E2 * E3, E3 * E1):
        assert biv * biv == -ONE


def test_pseudoscalar_is_central():
    for b in _BASIS:
        assert I * b == b * I


def test_grade_projection():
    rng = random.Random(23)
    for _ in range(50):
        m = rand_multivector(rng, nonzero=8)
        total = scalar(0)
        for k in range(4):
            gk = m.grade(k)
            assert gk.grade(k) == gk
            total = total + gk
        assert total == m
    assert GRADE_OF == (0, 1, 1, 1, 2, 2, 2, 3)


def test_parity_agrees_with_grades():
    # random even, odd, mixed and zero elements, each blade set with
    # probability one half
    rng = random.Random(31)
    blades = {"even": (0, 4, 5, 6), "odd": (1, 2, 3, 7),
              "mixed": tuple(range(8)), "zero": ()}
    seen = set()
    for trial in range(400):
        kind = rng.choice(sorted(blades))
        m = Multivector([rand_nonzero_scalar(rng)
                         if i in blades[kind] and rng.random() < 0.5 else 0
                         for i in range(8)])
        gs = m.grades()
        even = all(g % 2 == 0 for g in gs)
        odd = bool(gs) and all(g % 2 == 1 for g in gs)
        assert (m.is_even(), m.is_odd()) == (even, odd)
        seen.add((even, odd))
    assert seen == {(True, False), (False, True), (False, False)}
    assert Multivector([0] * 8).is_even()
    assert not Multivector([0] * 8).is_odd()


def test_associativity_randomized():
    rng = random.Random(29)
    for _ in range(1000):
        a = rand_multivector(rng, nonzero=3)
        b = rand_multivector(rng, nonzero=3)
        c = rand_multivector(rng, nonzero=3)
        assert (a * b) * c == a * (b * c)


def test_reverse_values():
    assert (E1 * E2).reverse() == E2 * E1
    assert (E1 * E2).reverse() == -(E1 * E2)
    m = ONE + I * E3
    assert m.reverse() == ONE - (I * E3)
    # reverse(s1 s2 s3) = s3 s2 s1, expanded independently
    assert I.reverse() == geometric_product_oracle(
        geometric_product_oracle(E3, E2), E1)
    assert I.reverse() == -I


def test_reverse_antiautomorphism():
    rng = random.Random(31)
    for _ in range(1000):
        a = rand_multivector(rng, nonzero=3)
        b = rand_multivector(rng, nonzero=3)
        assert (a * b).reverse() == b.reverse() * a.reverse()


def test_reflect_axis_cases():
    assert reflect(E1, E2) == E1
    assert reflect(E1, E1) == -E1


def test_reflect_self_gives_negative(closures):
    for rs in closures.values():
        for root in rs.roots[:6]:
            v = vector(*root)
            assert reflect(v, v) == -v


def test_reflect_worked_example_a3():
    # reflecting (1,1,0)/sqrt2 in (0,-1,1)/sqrt2: the inner product is
    # -1/2, so s(a1) = a1 + a2 = (1,0,1)/sqrt2
    a1 = vector(_HALF_SQRT2, _HALF_SQRT2, 0)
    a2 = vector(0, -_HALF_SQRT2, _HALF_SQRT2)
    assert reflect(a1, a2) == vector(_HALF_SQRT2, 0, _HALF_SQRT2)
    assert reflect(a1, a2) == a1 + a2
    # unnormalized normal gives the same reflection
    a2_scaled = vector(0, -1, 1)
    assert reflect(a1, a2_scaled) == vector(_HALF_SQRT2, 0, _HALF_SQRT2)


def test_reflect_involution_and_isometry(unit_vector_pool):
    rng = random.Random(37)
    for _ in range(500):
        a = rand_vector_mv(rng)
        n = rng.choice(unit_vector_pool) * rand_nonzero_scalar(rng, 4)
        image = reflect(a, n)
        assert reflect(image, n) == a
        assert (image * image).scalar_part() == (a * a).scalar_part()


def test_reflect_errors():
    with pytest.raises(ValueError):
        reflect(E1, vector(0, 0, 0))
    with pytest.raises(ValueError):
        reflect(E1, vector(1, 1, 1))  # |n| = sqrt3 leaves the field
    with pytest.raises(ValueError):
        reflect(ONE, E1)


def test_rotate_basics():
    assert rotate(E1, ONE) == E1
    assert rotate(E1, E2 * E1) == -E1
    with pytest.raises(ValueError):
        rotate(E1, scalar(2))       # not unit
    with pytest.raises(ValueError):
        rotate(E1, E1)              # not even


def test_rotation_composes_two_reflections(unit_vector_pool):
    rng = random.Random(41)
    for _ in range(300):
        a = rand_vector_mv(rng)
        n = rng.choice(unit_vector_pool)
        m = rng.choice(unit_vector_pool)
        assert rotate(a, m * n) == reflect(reflect(a, n), m)


def test_hodge_dual():
    assert E1.dual() == I * E1
    assert E1.dual().grades() == {2}
    rng = random.Random(43)
    for _ in range(200):
        m = rand_multivector(rng)
        assert m.dual().dual() == -m
        v = rand_vector_mv(rng)
        assert v.dual().grades() <= {2}


def test_dual_commutes_with_rotor_sandwich(unit_vector_pool):
    rng = random.Random(47)
    for _ in range(200):
        n = rng.choice(unit_vector_pool)
        m = rng.choice(unit_vector_pool)
        rotor = m * n
        a = rand_vector_mv(rng)
        assert I * rotate(a, rotor) == rotor * (I * a) * rotor.reverse()


def test_apply_versor_matches_reflect_and_rotate(unit_vector_pool):
    rng = random.Random(53)
    for _ in range(200):
        a = rand_vector_mv(rng)
        n = rng.choice(unit_vector_pool)
        m = rng.choice(unit_vector_pool)
        assert apply_versor(a, n, "odd") == reflect(a, n)
        assert apply_versor(a, m * n, "even") == rotate(a, m * n)
    assert apply_versor(E2, I, "odd") == -E2


def test_apply_versor_scale_invariance(unit_vector_pool):
    rng = random.Random(59)
    for _ in range(200):
        a = rand_vector_mv(rng)
        versor = rng.choice(unit_vector_pool)
        if rng.random() < 0.5:
            versor = versor * rng.choice(unit_vector_pool)
        c = rand_nonzero_scalar(rng, 4)
        assert apply_versor(a, versor * c) == apply_versor(a, versor)


def test_apply_versor_errors():
    with pytest.raises(ValueError):
        apply_versor(E1, ONE + E1)          # mixed parity
    with pytest.raises(ValueError):
        apply_versor(E1, scalar(0))         # null
    with pytest.raises(ValueError):
        apply_versor(E1, E1, "even")        # parity mismatch


def test_every_pure_parity_element_acts_as_versor():
    # in 3D every nonzero even element is a scaled rotor and every nonzero
    # odd element is vector * rotor, e.g. 1 + s1s2 = (s1 + s2) s2
    spread = ONE + E1 * E2
    assert spread == (E1 + E2) * E2
    assert apply_versor(E2, spread) == E1   # quarter turn in the s1s2 plane


def test_str_smoke():
    assert str(ONE + I * TAU) == "1 + τ·I"
    assert str(scalar(0)) == "0"

"""Hamilton product, the discrete unit groups, and the spinor map."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import (multivectors, rand_multivector, rand_scalar,
                     rand_vector_mv)
from spinroots.clifford import (E1, E2, E3, I, ONE, Multivector,
                                from_spinor, to_spinor, versor_blades,
                                versor_pair)
from spinroots.coxeter import dot
from spinroots.exactfield import ONE as F_ONE
from spinroots.exactfield import ZERO as F_ZERO
from spinroots.exactfield import FieldScalar
from spinroots.quaternion import Quaternion, apply_pq, catalog

QONE, QI, QJ, QK = (Quaternion(1), Quaternion(0, 1), Quaternion(0, 0, 1),
                    Quaternion(0, 0, 0, 1))

_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}
_UNITS = (QI, QJ, QK)


def rand_quaternion(rng, bound=6):
    return Quaternion(*(rand_scalar(rng, bound) for _ in range(4)))


def test_unit_relations():
    # e_i e_j = -delta_ij + eps_ijk e_k
    for i in range(1, 4):
        for j in range(1, 4):
            got = _UNITS[i - 1] * _UNITS[j - 1]
            if i == j:
                assert got == -QONE
            else:
                k = next(k for k in range(1, 4) if k not in (i, j))
                assert got == _UNITS[k - 1] * _EPS[(i, j, k)]
    assert QI * QJ == QK
    assert QI * QI == -QONE


def test_identity_and_negation():
    rng = random.Random(67)
    q = rand_quaternion(rng)
    assert QONE * q == q
    assert q * QONE == q
    assert -(-q) == q


def test_conjugation():
    q = Quaternion(1, 2, 3, 4)
    assert q.conjugate() == Quaternion(1, -2, -3, -4)
    rng = random.Random(71)
    for _ in range(200):
        q = rand_quaternion(rng)
        assert q.conjugate().conjugate() == q
        assert q * q.conjugate() == Quaternion(q.norm_sq(), 0, 0, 0)
        assert q.conjugate() * q == Quaternion(q.norm_sq(), 0, 0, 0)


def test_inner_product():
    rng = random.Random(73)
    for _ in range(200):
        p = rand_quaternion(rng)
        q = rand_quaternion(rng)
        # polarization: conj(p) q + conj(q) p = 2 (p|q), the 4D dot
        sym = [x + y for x, y in zip((p.conjugate() * q).components,
                                     (q.conjugate() * p).components)]
        pq = dot(p.components, q.components)
        assert sym == [pq + pq, F_ZERO, F_ZERO, F_ZERO]


def test_norm_multiplicative():
    rng = random.Random(79)
    for _ in range(1000):
        p = rand_quaternion(rng, 4)
        q = rand_quaternion(rng, 4)
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_apply_pq():
    rng = random.Random(83)
    x = rand_quaternion(rng)
    assert apply_pq(x, QONE, QONE) == x
    assert apply_pq(x, QONE, QONE, starred=True) == x.conjugate()
    for _ in range(200):
        x = rand_quaternion(rng, 4)
        p = rand_quaternion(rng, 4)
        if not p.norm_sq():
            continue
        scale = p.norm_sq().inverse()
        unit_sandwich = apply_pq(x, p, p.conjugate()) * scale
        assert unit_sandwich.norm_sq() == x.norm_sq()


def test_quaternionic_reflection_formula():
    # v -> -x conj(v) x on pure unit x agrees with the bilinear reflection
    rng = random.Random(89)
    pures = [QI, QJ, QK]
    for _ in range(200):
        v = Quaternion(0, *(rand_scalar(rng, 4) for _ in range(3)))
        x = rng.choice(pures)
        reflected = -apply_pq(v, x, x, starred=True)
        vx = dot(v.components, x.components)
        coef = (vx + vx) * x.norm_sq().inverse()
        expected = Quaternion(*(a - b * coef for a, b in
                                zip(v.components, x.components)))
        assert reflected == expected


def test_spinor_map_basis_pairs():
    evens = [ONE, I * E1, I * E2, I * E3]
    for A, B in product(evens, repeat=2):
        qa = from_spinor(A)
        qb = from_spinor(B)
        # componentwise map reverses the product order...
        assert from_spinor(A * B) == qb * qa
        # ...so composing with reversal is the algebra isomorphism
        iso_ab = from_spinor((A * B).reverse())
        assert iso_ab == from_spinor(A.reverse()) * from_spinor(B.reverse())


def test_spinor_map_values():
    assert from_spinor(ONE) == QONE
    assert from_spinor(I * E1) == QI
    assert from_spinor(I * E2) == QJ
    assert from_spinor(I * E3) == QK
    half = FieldScalar(Fraction(1, 2))
    r12 = Multivector((-half, 0, 0, 0, -half, half, -half, 0))
    assert from_spinor(r12) == Quaternion(-half, half, -half, -half)


def test_spinor_map_random_products():
    rng = random.Random(97)
    for _ in range(300):
        a = rand_multivector(rng, nonzero=3).grade(0) \
            + rand_multivector(rng, nonzero=3).grade(2)
        b = rand_multivector(rng, nonzero=3).grade(0) \
            + rand_multivector(rng, nonzero=3).grade(2)
        assert from_spinor(a * b) == from_spinor(b) * from_spinor(a)


def test_spinor_map_bijective():
    rng = random.Random(101)
    for _ in range(100):
        q = rand_quaternion(rng)
        assert from_spinor(to_spinor(q)) == q
        m = rand_multivector(rng, nonzero=4).grade(0) \
            + rand_multivector(rng, nonzero=4).grade(2)
        assert to_spinor(from_spinor(m)) == m
    with pytest.raises(ValueError):
        from_spinor(E1)


def test_versor_blades_inverts_versor_pair(versor_groups):
    # every element of the four versor groups, and random even and odd
    # multivectors (zero among them), come back blade for blade
    rng = random.Random(107)
    samples = [v for vg in versor_groups.values() for v in multivectors(vg)]
    for _ in range(200):
        even = rand_multivector(rng).grade(0) + rand_multivector(rng).grade(2)
        odd = rand_multivector(rng).grade(1) + rand_multivector(rng).grade(3)
        samples += [even, odd]
    for v in samples:
        parity, q = versor_pair(v)
        assert parity == (0 if v.is_even() else 1)
        assert versor_blades(parity, q.components) == v.components
    assert versor_pair(I) == (1, QONE)
    assert versor_pair(-E2) == (1, QJ)
    assert versor_blades(0, QI.components) == (I * E1).components


def test_versor_pair_rejects_mixed_parity():
    for v in (ONE + E1, E1 + E1 * E2, ONE + I):
        with pytest.raises(ValueError, match="pure even or pure odd"):
            versor_pair(v)


def test_hodge_dual_of_vector_is_pure():
    rng = random.Random(103)
    for _ in range(200):
        v = rand_vector_mv(rng)
        assert not from_spinor(v.dual()).components[0]


def test_catalog_sizes():
    assert len(catalog("lipschitz")) == 8
    assert len(catalog("hurwitz")) == 24
    assert len(catalog("hurwitz_duals")) == 24
    assert len(catalog("icosians")) == 120
    assert catalog("lipschitz") < catalog("hurwitz") < catalog("icosians")
    assert not (catalog("hurwitz") & catalog("hurwitz_duals"))


def test_catalog_contents():
    assert QONE in catalog("lipschitz")
    assert Quaternion(*([Fraction(1, 2)] * 4)) in catalog("hurwitz")
    s = FieldScalar(0, Fraction(1, 2))
    assert Quaternion(s, s, 0, 0) in catalog("hurwitz_duals")
    for q in catalog("icosians"):
        assert q.is_unit()


def test_catalog_unknown():
    with pytest.raises(ValueError):
        catalog("octonions")


def test_group_closure_of_catalogs():
    # the duals alone are not a group (no identity); the group-forming
    # sets are lipschitz, hurwitz, hurwitz+duals, icosians
    assert QONE not in catalog("hurwitz_duals")
    groups = (catalog("lipschitz"), catalog("hurwitz"),
              catalog("hurwitz") | catalog("hurwitz_duals"),
              catalog("icosians"))
    for units in groups:
        assert QONE in units
        for q in units:
            assert q.conjugate() in units
        for p in units:
            for q in units:
                assert p * q in units


def test_pure_icosians_number_thirty():
    pures = [q for q in catalog("icosians") if not q.components[0]]
    assert len(pures) == 30


def test_is_unit_agrees_with_norm_sq():
    # the integer check of is_unit against norm_sq in field arithmetic:
    # catalog units and their products with random quaternions, which are
    # units only when the random factor is
    rng = random.Random(109)
    units = sorted(catalog("icosians") | catalog("hurwitz_duals"),
                   key=lambda q: q.components)
    verdicts = []
    for _ in range(300):
        q = rng.choice(units) * rng.choice(units)
        if rng.random() < 0.5:
            q = q * rand_quaternion(rng, 2)
        want = q.norm_sq() == F_ONE
        assert q.is_unit() is want
        verdicts.append(want)
    assert 50 < verdicts.count(True) < 250


def test_quaternion_is_immutable():
    q = Quaternion(1, 2, 3, 4)
    for name in ("components", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, None)
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert q == Quaternion(1, 2, 3, 4) and hash(q) == hash(q.components)

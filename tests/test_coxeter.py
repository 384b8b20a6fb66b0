"""Presets, orbit closure, root-system axioms, Cartan data."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from helpers import (brute_force_axiom2, brute_force_orbit,
                     decompose_in_simple, induced_matrix, is_rational,
                     mat_det3, mat_identity, mat_mul, mat_order,
                     multivectors, negate, rand_nonzero_scalar, rand_scalar,
                     rand_sparse_scalar, reflect_oracle, reflection_matrix,
                     turn)
from spinroots import clifford, coxeter
from spinroots.coxeter import (GROUPS, CapExceeded, Certificate, RootSystem,
                               SimpleRoots, cartan_matrix, dot,
                               orbit_closure, rotation_order, simple_roots,
                               verify_root_system)
from spinroots.exactfield import (SIGMA, SQRT2, TAU, FieldScalar, apply,
                                  from_keys, to_ints)
from spinroots.spingroup import generate_versor_group

_S = FieldScalar(0, Fraction(1, 2))       # 1/sqrt2
_HALF = FieldScalar(Fraction(1, 2))
_ONE = FieldScalar(1)
_ZERO = FieldScalar(0)
_TAU2 = TAU * _HALF
_SIG2 = SIGMA * _HALF


def _r(*vals):
    return tuple(v if isinstance(v, FieldScalar) else FieldScalar(v)
                 for v in vals)


def test_preset_simple_roots_exact_values():
    assert simple_roots("a1x3").roots == (_r(1, 0, 0), _r(0, 1, 0), _r(0, 0, 1))
    assert simple_roots("a3").roots == \
        (_r(_S, _S, 0), _r(0, -_S, _S), _r(-_S, _S, 0))
    assert simple_roots("b3").roots == \
        (_r(_S, -_S, 0), _r(0, _S, -_S), _r(0, 0, 1))
    assert simple_roots("h3").roots == \
        (_r(-1, 0, 0), _r(_TAU2, _HALF, _SIG2), _r(0, 0, -1))


def test_presets_unit_norm():
    for g in GROUPS:
        for root in simple_roots(g).roots:
            assert dot(root, root) == _ONE


def test_unknown_group():
    with pytest.raises(ValueError):
        simple_roots("e8")


def _reflect(matrix, lam):
    """The image of lam under a matrix of ``coxeter._reflection``, through
    ``apply`` and ``from_keys``."""
    (ints, den), sign = apply(matrix, to_ints(lam))
    return from_keys([(tuple(sign * n for n in ints), den)])[0]


def test_reflect_root_basics():
    alpha = _r(_S, _S, 0)
    assert _reflect(coxeter._reflection(alpha), alpha) == negate(alpha) \
        == reflect_oracle(alpha, alpha)
    with pytest.raises(ValueError):
        coxeter._reflection(_r(0, 0, 0))


def _coords(v) -> tuple[Fraction, ...]:
    return tuple(f for x in v for f in (x.a, x.b, x.c, x.d))


def test_reflection_matrix_is_reflect_root(closures):
    # the integer matrix of s_alpha applied to the Fraction coordinates of
    # lam gives those of reflect_oracle(lam, alpha), and ``apply`` gives its
    # integer key as a sign times a class key, over a reduced positive
    # denominator
    rng = random.Random(83)
    pools = {n: [tuple(rand_sparse_scalar(rng) if sparse
                       else rand_nonzero_scalar(rng) for _ in range(n))
                 for sparse in (True, False) * 8]
             for n in (3, 4)}
    pools[3] += [turn((1, -2, 4, 5), r) for r in closures["h3"].roots[::3]]
    for trial in range(200):
        pool = pools[3 + trial % 2]
        lam, alpha = rng.choice(pool), rng.choice(pool)
        if not any(alpha):
            continue
        want = reflect_oracle(lam, alpha)
        cols, den = coxeter._reflection(alpha)
        assert len(cols) == 4 * len(alpha) and den > 0
        image = [Fraction(0)] * len(cols)
        for x, col in zip(_coords(lam), cols):
            for row, v in col:
                image[row] += x * v
        assert tuple(y / den for y in image) == _coords(want)
        (ints, d), sign = apply((cols, den), to_ints(lam))
        assert d > 0 and math.gcd(*ints, d) == 1
        ints = tuple(sign * n for n in ints)
        assert (ints, d) == to_ints(want)
        assert from_keys([(ints, d)])[0] == want


def test_reflect_root_worked_example_b3():
    # reflecting (0,0,1) in (0,1,-1)/sqrt2 lands on (0,1,0)
    alpha, lam = _r(0, _S, -_S), _r(0, 0, 1)
    assert _reflect(coxeter._reflection(alpha), lam) == _r(0, 1, 0) \
        == reflect_oracle(lam, alpha)


def test_reflect_root_agrees_with_clifford(closures):
    rng = random.Random(109)
    for rs in closures.values():
        for alpha in rs.roots:
            n = clifford.vector(*alpha)
            s_alpha = coxeter._reflection(alpha)
            for _ in range(3):
                lam = tuple(rand_scalar(rng, 4) for _ in range(3))
                sandwich = clifford.reflect(clifford.vector(*lam), n)
                assert _reflect(s_alpha, lam) == sandwich.vector_coords() \
                    == reflect_oracle(lam, alpha)


def test_reflect_root_preserves_inner_product():
    rng = random.Random(113)
    for _ in range(300):
        lam = tuple(rand_scalar(rng, 4) for _ in range(3))
        mu = tuple(rand_scalar(rng, 4) for _ in range(3))
        alpha = tuple(rand_scalar(rng, 4) for _ in range(3))
        if not any(alpha):
            continue
        s_alpha = coxeter._reflection(alpha)
        image = _reflect(s_alpha, lam)
        assert image == reflect_oracle(lam, alpha)
        assert dot(image, _reflect(s_alpha, mu)) == dot(lam, mu)


def test_closure_counts(closures):
    assert {g: len(rs) for g, rs in closures.items()} == \
        {"a1x3": 6, "a3": 12, "b3": 18, "h3": 30}


def _axis_roots():
    out = set()
    for i in range(3):
        for s in (1, -1):
            v = [_ZERO] * 3
            v[i] = FieldScalar(s)
            out.add(tuple(v))
    return out


def _cuboctahedron():
    out = set()
    for i in range(3):
        for j in range(3):
            if i >= j:
                continue
            for si, sj in product((1, -1), repeat=2):
                v = [_ZERO] * 3
                v[i] = _S * si
                v[j] = _S * sj
                out.add(tuple(v))
    return out


def test_closure_exact_sets(closures):
    assert set(closures["a1x3"].roots) == _axis_roots()
    assert set(closures["a3"].roots) == _cuboctahedron()
    assert set(closures["b3"].roots) == _axis_roots() | _cuboctahedron()
    icosidodeca = _axis_roots()
    golden = (_TAU2, _HALF, _SIG2)
    for shift in range(3):
        cyc = tuple(golden[(i - shift) % 3] for i in range(3))
        for signs in product((1, -1), repeat=3):
            icosidodeca.add(tuple(c * s for c, s in zip(cyc, signs)))
    assert set(closures["h3"].roots) == icosidodeca


def test_closure_is_deterministic():
    a = orbit_closure(simple_roots("h3"))
    b = orbit_closure(simple_roots("h3"))
    assert a.roots == b.roots
    assert a.roots == tuple(sorted(a.roots))


def test_closure_equals_brute_force(closures):
    for g in GROUPS:
        assert set(closures[g].roots) == \
            brute_force_orbit(simple_roots(g).roots)
    # a rotated frame with no zero coordinate in any root
    q = (1, -2, 4, 5)
    turned = SimpleRoots("h3", tuple(turn(q, r)
                                     for r in simple_roots("h3").roots))
    rs = orbit_closure(turned)
    assert set(rs.roots) == brute_force_orbit(turned.roots)
    assert set(rs.roots) == {turn(q, r) for r in closures["h3"].roots}
    assert all(all(r) for r in rs.roots)
    # a redundant generating set: the B3 simple roots and one more root
    b3 = simple_roots("b3").roots
    extra = SimpleRoots("b3", b3 + (_r(1, 0, 0),))
    rs = orbit_closure(extra)
    assert set(rs.roots) == brute_force_orbit(extra.roots)
    assert rs.roots == closures["b3"].roots


def test_closure_contains_simples_and_negatives(closures):
    for g, rs in closures.items():
        for root in simple_roots(g).roots:
            assert root in rs.roots
            assert negate(root) in rs.roots


def test_closure_roots_are_unit(closures):
    for rs in closures.values():
        for root in rs.roots:
            assert dot(root, root) == _ONE


def test_closure_cap_guards_nontermination(monkeypatch):
    # normals at an angle that is no rational multiple of pi generate an
    # infinite dihedral orbit; two roots in R^3 under N(3) = 12 give the
    # bound 48
    bad = SimpleRoots("bad", (_r(1, 0, 0),
                              _r(Fraction(3, 5), Fraction(4, 5), 0)))
    monkeypatch.setitem(coxeter.MOST_REFLECTIONS, 3, 12)
    with pytest.raises(ValueError, match="cap"):
        orbit_closure(bad)


def test_orbit_closure_needs_a_simple_root():
    with pytest.raises(ValueError, match="need at least one simple root"):
        orbit_closure(SimpleRoots("none", ()))


def test_orbit_closure_cap_is_typed(monkeypatch):
    bad = SimpleRoots("bad", (_r(1, 0, 0),
                              _r(Fraction(3, 5), Fraction(4, 5), 0)))
    monkeypatch.setitem(coxeter.MOST_REFLECTIONS, 3, 12)
    with pytest.raises(CapExceeded,
                       match="orbit closure exceeded cap of 48 elements"):
        orbit_closure(bad)


def test_infinite_orbits_stop_at_the_dimension_bound():
    # (1, 0) and (3/5, 4/5) meet at an angle that is no rational multiple
    # of pi: in R^2, R^3 and R^4, alone or with more roots, each orbit
    # stops past 2 r N(n) roots, the bound its message names, within 50 ms
    third = (Fraction(3, 5), Fraction(4, 5))
    for roots, bound in ((((1, 0), third), 2 * 2 * 10),
                         (((1, 0, 0), (*third, 0)), 2 * 2 * 15),
                         (((1, 0, 0), (*third, 0), (0, 0, 1)), 2 * 3 * 15),
                         (((1, 0, 0, 0), (*third, 0, 0)), 2 * 2 * 60),
                         (((1, 0, 0, 0), (*third, 0, 0), (0, 0, 1, 0),
                           (0, 0, *third)), 2 * 4 * 60)):
        bad = SimpleRoots("bad", tuple(_r(*r) for r in roots))
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="^orbit closure exceeded cap "
                                              f"of {bound} elements$"):
            orbit_closure(bad)
        assert time.perf_counter() - start < 0.05


def test_finite_orbits_close_under_the_dimension_bound(closures):
    # two roots of R^1 fill their bound 2 * 2 * N(1) = 4.  H3 with its
    # second simple root doubled holds two lengths on every line: 60 roots,
    # under the bound 90, that fail axiom 1 with a parallel witness
    line = orbit_closure(SimpleRoots("a1", (_r(1), _r(2))))
    assert line.roots == (_r(-2), _r(-1), _r(1), _r(2))
    a, b, c = simple_roots("h3").roots
    doubled = orbit_closure(SimpleRoots("h3", (a, tuple(v + v for v in b),
                                               c)))
    h3 = closures["h3"].roots
    assert set(doubled.roots) == {*h3, *(tuple(v + v for v in r) for r in h3)}
    _assert_parallel_witness(verify_root_system(doubled), doubled.roots)


def test_orbit_closure_has_no_bound_past_r4():
    with pytest.raises(ValueError,
                       match=r"^no orbit bound for roots in R\^5$"):
        orbit_closure(SimpleRoots("big", (_r(1, 0, 0, 0, 0),)))


def _add_mod(n):
    """(built, generator, step) of the closure under x -> x + g mod n:
    ``built`` records the seeds that the generator is called on."""
    built = []

    def generator(g):
        built.append(g)
        return g
    return built, generator, lambda g, k: ((k + g) % n, 1)


def test_accrete_meets_each_key_with_each_generator_once():
    # seeds in Z/n under addition, each of sign 1: the closure is the
    # subgroup of multiples of gcd(seeds, n), each key stepped once per
    # generator, and no key is met with both signs
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 40)
        seeds = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        built, generator, add = _add_mod(n)
        steps = []

        def step(g, k):
            steps.append((g, k))
            return add(g, k)
        closure, both = coxeter.accrete(((s, 1, s) for s in seeds),
                                        generator, step, cap=n)
        d = math.gcd(*seeds, n)
        assert closure == dict.fromkeys(range(0, n, d), 1) and not both
        assert len(steps) == len(set(steps)) == len(closure) * len(built)


def test_accrete_builds_no_generator_for_a_seed_inside():
    built, generator, step = _add_mod(12)
    closure, _ = coxeter.accrete(((s, 1, s) for s in (2, 4, 3, 6)),
                                 generator, step, cap=12)
    assert closure.keys() == set(range(12))
    assert built == [2, 3]


def test_accrete_cap_counts_seed_additions():
    # identity generators add no image, so only the seeds cross the cap
    seeds = [(k, 1, k) for k in (1, 2, 3)]
    assert coxeter.accrete(seeds, lambda x: x, lambda g, k: (k, 1),
                           cap=3) == ({1: 1, 2: 1, 3: 1}, False)
    with pytest.raises(CapExceeded, match="^closure exceeded cap of 2 "
                                          "elements$"):
        coxeter.accrete(seeds, lambda x: x, lambda g, k: (k, 1), cap=2)


def _signed_cyclic(n, s):
    """The group that -z^s generates in {+-1} x Z/n, by powers."""
    out, x = set(), (-1, s % n)
    while x not in out:
        out.add(x)
        x = (-x[0], (x[1] + s) % n)
    return out


def test_accrete_certifies_minus_one_in_signed_cyclic_groups():
    # the closure of the seed -z^s under multiplication by itself, on the
    # classes {x, -x} of {+-1} x Z/n: -1 = (-1, 0) is in the group exactly
    # when some class is met with both signs, and the classes unfolded by
    # that flag are the group, with the cap counting its elements
    for n in range(1, 13):
        for s in range(n):
            group = _signed_cyclic(n, s)
            closure, both = coxeter.accrete(
                [(s, -1, s)], lambda g: g,
                lambda g, k: ((k + g) % n, -1), cap=len(group))
            assert both == ((-1, 0) in group)
            unfolded = {(sign, k) for k, first in closure.items()
                        for sign in ((1, -1) if both else (first,))}
            assert unfolded == group
            with pytest.raises(CapExceeded):
                coxeter.accrete([(s, -1, s)], lambda g: g,
                                lambda g, k: ((k + g) % n, -1),
                                cap=len(group) - 1)


def test_roots_of_mixed_length_are_rejected():
    mixed = (_r(1, 0, 0), _r(-1, 0, 0), _r(0, 1, 0, 0), _r(0, -1, 0, 0))
    with pytest.raises(ValueError, match="roots must share one length"):
        verify_root_system(RootSystem("mixed", 3, mixed))
    with pytest.raises(ValueError, match="roots must share one length"):
        orbit_closure(SimpleRoots("mixed", (mixed[0], mixed[2])))


def test_verify_checks_the_stated_rank():
    # +-e1 of R^3 stated as rank 4, and an empty root set, are no verified
    # root systems: verification raises and leaves the flag unset
    e1 = _r(1, 0, 0)
    for rs, message in (
            (RootSystem("x", 4, (e1, negate(e1))),
             "stated rank 4 disagrees with roots of length 3"),
            (RootSystem("x", 3, ()), "roots must share one length")):
        rs.verified = True
        with pytest.raises(ValueError, match=message):
            verify_root_system(rs)
        assert rs.verified is False
    assert verify_root_system(RootSystem("x", 3, (e1, negate(e1)))).passed


def test_cartan_matrix_rejects_a_zero_root():
    zero = SimpleRoots("zero", (_r(1, 0, 0), _r(0, 0, 0)))
    with pytest.raises(ValueError, match="zero vector"):
        cartan_matrix(zero)


def test_cartan_matrix_rejects_infinite_order():
    # cos^2 = 9/25 is no entry of the order table: s_1 s_2 turns through
    # an angle that is no rational multiple of pi
    bad = SimpleRoots("bad", (_r(1, 0, 0),
                              _r(Fraction(3, 5), Fraction(4, 5), 0)))
    with pytest.raises(ValueError, match="infinite order"):
        cartan_matrix(bad)
    for c2 in (FieldScalar(Fraction(9, 25)), FieldScalar(0, 1), -_HALF):
        with pytest.raises(ValueError, match="infinite order"):
            rotation_order(c2)


def test_verify_passes_on_closures(closures):
    for rs in closures.values():
        assert rs.verified
        fresh = RootSystem(rs.group, rs.rank, rs.roots)
        cert = verify_root_system(fresh)
        assert cert.passed
        assert fresh.verified


def test_verify_axiom1_scalar_multiple():
    alpha = _r(1, 0, 0)
    doubled = _r(2, 0, 0)
    rs = RootSystem("bad", 3, (alpha, doubled, negate(alpha), negate(doubled)))
    cert = verify_root_system(rs)
    assert not cert.passed
    assert cert.axiom == 1
    assert set(cert.witness) <= set(rs.roots)
    first, second = cert.witness
    assert second not in (first, negate(first))
    assert not rs.verified


def test_verify_zero_root_in_each_position(closures):
    zero = _r(0, 0, 0)
    roots = closures["a1x3"].roots
    for pos in range(len(roots) + 1):
        rs = RootSystem("bad", 3, roots[:pos] + (zero,) + roots[pos:])
        assert verify_root_system(rs) == Certificate(
            False, 1, (zero,), "zero vector present")
        assert not rs.verified


def test_failed_verification_clears_the_flag():
    # a flag set before a failing check must not survive it, or the versor
    # closure would run on a set that is not a root system
    axiom1 = (_r(1, 0, 0), _r(1, 1, 0))
    axiom2 = (_r(1, 0, 0), _r(-1, 0, 0), _r(_S, _S, 0), _r(-_S, -_S, 0))
    for roots, axiom in ((axiom1, 1), (axiom2, 2)):
        rs = RootSystem("x", 3, roots)
        rs.verified = True
        assert verify_root_system(rs).axiom == axiom
        assert rs.verified is False
        with pytest.raises(ValueError, match="verify the root system"):
            generate_versor_group(rs)


def test_constructor_rejects_the_verified_flag():
    # only verify_root_system (or an explicit assignment) sets the flag, so
    # a set that fails axiom 1 cannot reach the versor closure by a claim
    with pytest.raises(TypeError, match="verified"):
        RootSystem("x", 3, (_r(1, 0, 0), _r(1, 1, 0)), verified=True)
    assert RootSystem("x", 3, (_r(1, 0, 0),)).verified is False


def test_root_system_assigns_only_its_flag():
    rs = RootSystem("x", 3, (_r(1, 0, 0),))
    rs.verified = True
    assert rs.verified is True
    for name in ("group", "rank", "roots"):
        with pytest.raises(AttributeError):
            setattr(rs, name, getattr(rs, name))
    fresh = RootSystem("x", 3, (_r(1, 0, 0),))
    assert rs != fresh  # the flag is a field
    fresh.verified = True
    assert rs == fresh
    with pytest.raises(TypeError):
        hash(rs)


def test_frozen_records_are_read_only():
    simple = simple_roots("b3")
    for record in (simple, Certificate(True), cartan_matrix(simple)):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_certificate_compares_by_fields():
    fields = [False, 2, (_r(1, 0, 0),), "reflection image escapes the set"]
    cert = Certificate(*fields)
    assert cert == Certificate(*fields)
    assert hash(cert) == hash(Certificate(*fields))
    for i in range(len(fields)):
        assert cert != Certificate(*fields[:i], object(), *fields[i + 1:])
    assert cert != tuple(fields)
    assert Certificate(True) == Certificate(True, None, (), "ok") == \
        Certificate(passed=True, message="ok")
    assert repr(Certificate(True)) == \
        "Certificate(passed=True, axiom=None, witness=(), message='ok')"


def test_records_take_their_fields_in_order_or_by_name():
    roots = simple_roots("a3").roots
    assert SimpleRoots("a3", roots) == SimpleRoots(roots=roots, group="a3")
    for args, kwargs in (((), {}), (("a3",), {}), (("a3", roots, 1), {}),
                         (("a3", roots), {"group": "a3"}),
                         (("a3", roots), {"rank": 3})):
        with pytest.raises(TypeError):
            SimpleRoots(*args, **kwargs)
    with pytest.raises(TypeError):
        Certificate()


def test_verify_duplicate_root_is_a_scalar_multiple():
    alpha = _r(1, 0, 0)
    rs = RootSystem("bad", 3, (alpha, negate(alpha), alpha))
    cert = verify_root_system(rs)
    assert (cert.passed, cert.axiom) == (False, 1)


def test_verify_axiom1_missing_negative():
    rs = RootSystem("bad", 3, (_r(1, 0, 0),))
    cert = verify_root_system(rs)
    assert not cert.passed
    assert cert.axiom == 1


def test_verify_axiom2_escape():
    rs = RootSystem("bad", 3, (_r(1, 0, 0), _r(-1, 0, 0),
                               _r(_S, _S, 0), _r(-_S, -_S, 0)))
    cert = verify_root_system(rs)
    assert not cert.passed
    assert cert.axiom == 2
    _assert_axiom2_witness(cert, rs.roots)


def test_verify_axiom2_escape_before_the_last_seed():
    # e1 and f generate the eight roots of B2, among them e2 outside the
    # set, while the set's size is 8: no count tells the escape, which is
    # found as the image s_f(e1) = -e2 is looked up, before the seeds
    # after e1 and f come in
    f = _r(_S, _S, 0)
    e3 = _r(0, 0, 1)
    k = _r(0, _S, _S)
    roots = (_r(1, 0, 0), f, _r(-1, 0, 0), negate(f), e3, negate(e3),
             k, negate(k))
    assert len(brute_force_orbit(roots[:2])) == len(roots)
    rs = RootSystem("bad", 3, roots)
    cert = verify_root_system(rs)
    assert (cert.passed, cert.axiom, rs.verified) == (False, 2, False)
    _assert_axiom2_witness(cert, rs.roots)


def _assert_axiom2_witness(cert, roots):
    """The witness (alpha, lam) lies in the set and s_alpha(lam) does not."""
    alpha, lam = cert.witness
    assert alpha in roots and lam in roots
    assert reflect_oracle(lam, alpha) not in set(roots)
    assert cert.message == "reflection image escapes the set"


def _check_axiom2_against_brute_force(roots):
    """verify_root_system agrees with the n^2 check on a set that meets
    axiom 1; returns the verdict."""
    rs = RootSystem("t", len(roots[0]), tuple(roots))
    cert = verify_root_system(rs)
    closed = brute_force_axiom2(rs.roots) is None
    assert cert.passed == closed == rs.verified
    if not closed:
        assert cert.axiom == 2
        _assert_axiom2_witness(cert, rs.roots)
    return closed


def test_verify_axiom2_agrees_with_brute_force(pipelines):
    for res in pipelines.values():
        assert _check_axiom2_against_brute_force(res.root_system.roots)
        assert _check_axiom2_against_brute_force(res.rank4.roots)
    q = (1, -2, 4, 5)
    turned = [turn(q, r) for r in pipelines["h3"].root_system.roots]
    assert _check_axiom2_against_brute_force(turned)
    # turned roots in another order give other generators
    assert _check_axiom2_against_brute_force(turned[::-1])


def test_verify_axiom2_on_random_subsets(pipelines):
    """Seeded negation-closed subsets of the F4 and H4 roots: random sets
    of pairs, sub-root systems generated by a few roots, and those with one
    more pair; each verdict matches the n^2 check."""
    rng = random.Random(20120507)
    verdicts = []
    for g in ("b3", "h3"):
        roots = pipelines[g].rank4.roots
        pairs = sorted({min(r, negate(r)) for r in roots})
        for trial in range(36):
            kind = trial % 3
            if kind == 0:
                chosen = rng.sample(pairs, rng.randint(1, 6))
                subset = set(chosen) | {negate(r) for r in chosen}
            else:
                few = rng.sample(pairs, rng.randint(1, 3))
                subset = brute_force_orbit(few)
                if kind == 2:
                    extra = rng.choice(pairs)
                    subset |= {extra, negate(extra)}
            order = sorted(subset)
            rng.shuffle(order)
            verdicts.append(_check_axiom2_against_brute_force(order))
    assert 10 < sum(verdicts) < len(verdicts) - 10


def test_verify_reflects_the_old_orbit_in_the_new_generator_only(
        pipelines, monkeypatch):
    # the old orbit is reflected in each new generator and each new root in
    # every generator, so each class {root, -root} meets each generator
    # once: 24 x 5 on F4 and 60 x 4 on H4 (48 x 5 and 120 x 4 on roots,
    # and 440 and 592 reflecting the whole orbit in every generator each
    # time one is added).  The orbit closure of those generators gives the
    # same roots in the same count.
    calls, gens = [], []
    original, reflection = coxeter.apply, coxeter._reflection

    def counted(*args):
        calls.append(1)
        return original(*args)

    def recorded(alpha):
        gens.append(alpha)
        return reflection(alpha)

    monkeypatch.setattr(coxeter, "apply", counted)
    monkeypatch.setattr(coxeter, "_reflection", recorded)
    counts = {}
    for g in ("b3", "h3"):
        calls.clear()
        gens.clear()
        rank4 = pipelines[g].rank4
        assert verify_root_system(RootSystem(g, 4, rank4.roots)).passed
        simple, verify_calls = SimpleRoots(g, tuple(gens)), len(calls)
        calls.clear()
        assert orbit_closure(simple).roots == rank4.roots
        counts[g] = (len(simple.roots), verify_calls, len(calls))
    assert counts == {"b3": (5, 120, 120), "h3": (4, 240, 240)}


def test_verify_inverts_once_per_reflection(pipelines, monkeypatch):
    # axiom 1 takes no field inverse on a set of one squared norm: each
    # verification takes exactly one per reflection matrix it builds, on
    # the four rank-3 systems, the four rank-4 systems and H3 turned by
    # (1, -2, 4, 5)
    systems = [RootSystem(rs.group, rs.rank, rs.roots)
               for res in pipelines.values()
               for rs in (res.root_system, res.rank4)]
    turned = tuple(turn((1, -2, 4, 5), r)
                   for r in pipelines["h3"].root_system.roots)
    systems.append(RootSystem("h3", 3, turned))
    inverses, reflections = [], []
    inverse, reflection = FieldScalar.inverse, coxeter._reflection

    def counted_inverse(x):
        inverses.append(x)
        return inverse(x)

    def counted_reflection(alpha):
        reflections.append(alpha)
        return reflection(alpha)

    monkeypatch.setattr(FieldScalar, "inverse", counted_inverse)
    monkeypatch.setattr(coxeter, "_reflection", counted_reflection)
    for rs in systems:
        inverses.clear()
        reflections.clear()
        assert len({dot(r, r) for r in rs.roots}) == 1
        assert verify_root_system(rs).passed
        assert 0 < len(inverses) == len(reflections), rs.group
    # twice a root is a multiple whatever its first nonzero entry; the set
    # also fails axiom 2, and axiom 1 is reported
    rank4 = pipelines["h3"].rank4
    by_pivot = {next(v for v in r if v): r for r in rank4.roots}
    assert len(by_pivot) == 8
    for beta in by_pivot.values():
        two = tuple(v + v for v in beta)
        cert = verify_root_system(
            RootSystem("H4", 4, rank4.roots + (two, negate(two))))
        assert (cert.axiom, cert.message) == \
            (1, "scalar multiple beyond +-root present")


def _assert_parallel_witness(cert, roots):
    """Axiom 1 fails on a pair of the set's roots that are parallel and
    not +-: (alpha|beta)^2 = |alpha|^2 |beta|^2, beta != +-alpha."""
    assert (cert.passed, cert.axiom, cert.message) == \
        (False, 1, "scalar multiple beyond +-root present")
    alpha, beta = cert.witness
    assert alpha in roots and beta in roots
    ab = dot(alpha, beta)
    assert ab * ab == dot(alpha, alpha) * dot(beta, beta)
    assert beta not in (alpha, negate(alpha))


def test_verify_finds_a_multiple_of_the_last_root(pipelines):
    # +-c beta for the last root beta of each preset's rank-3 and rank-4
    # system, with c rational, in Q(sqrt2) and in Q(sqrt5)
    scales = (FieldScalar(2), _HALF, SQRT2, TAU)
    for res in pipelines.values():
        for rs in (res.root_system, res.rank4):
            beta = rs.roots[-1]
            for c in scales:
                multiple = tuple(c * v for v in beta)
                roots = rs.roots + (multiple, negate(multiple))
                rs_c = RootSystem(rs.group, rs.rank, roots)
                _assert_parallel_witness(verify_root_system(rs_c), roots)
                assert not rs_c.verified


def test_verify_root_system_and_its_double_fail_axiom1_only(pipelines):
    # s_2a = s_a and s_a(2 l) = 2 s_a(l), so Phi u 2 Phi is closed under
    # reflection in every member (the n^2 check), and fails axiom 1 alone
    res = pipelines["h3"]
    for rs in (res.root_system, res.rank4):
        doubled = rs.roots + tuple(tuple(v + v for v in r) for r in rs.roots)
        assert brute_force_axiom2(doubled) is None
        _assert_parallel_witness(
            verify_root_system(RootSystem(rs.group, rs.rank, doubled)),
            doubled)


def test_rotation_order_agrees_with_matrix_powering(closures):
    # every pair of roots of the four closures and of H3 turned by
    # (1, -2, 4, 5): the table's order of s_a s_b equals its matrix order
    root_sets = [rs.roots for rs in closures.values()]
    q = (1, -2, 4, 5)
    root_sets.append(tuple(turn(q, r) for r in closures["h3"].roots))
    seen = set()
    for roots in root_sets:
        refls = {a: reflection_matrix(a) for a in roots}
        for a, b in combinations(roots, 2):
            ab = dot(a, b)
            c2 = ab * ab * (dot(a, a) * dot(b, b)).inverse()
            order = rotation_order(c2)
            assert order == mat_order(mat_mul(refls[a], refls[b]))
            seen.add(order)
    assert seen == {1, 2, 3, 4, 5}


def test_rotation_order_table_against_float_oracle():
    # each entry is cos^2(pi k / n) for k prime to n, and together they are
    # every such value for n = 1, 2, 3, 4, 5, 6, 8, 10
    table = coxeter._ROTATION_ORDER
    assert len(table) == 11
    want = sorted((round(math.cos(math.pi * k / n) ** 2, 12), n)
                  for n in (1, 2, 3, 4, 5, 6, 8, 10)
                  for k in range(n // 2 + 1) if math.gcd(k, n) == 1)
    got = sorted((round(c2.approx(), 12), n) for c2, n in table.items())
    assert got == want
    for c2, n in table.items():
        theta = math.acos(math.sqrt(c2.approx()))
        turns = [m * 2 * theta / (2 * math.pi) for m in range(1, n + 1)]
        assert abs(turns[-1] - round(turns[-1])) < 1e-9
        assert all(abs(t - round(t)) > 1e-6 for t in turns[:-1])
        assert rotation_order(c2) == n


def test_cartan_matrices_exact():
    m = cartan_matrix(simple_roots("a1x3"))
    two = FieldScalar(2)
    assert m.entries == ((two, _ZERO, _ZERO), (_ZERO, two, _ZERO),
                         (_ZERO, _ZERO, two))
    assert m.pair_orders == ((1, 2, 2), (2, 1, 2), (2, 2, 1))

    m = cartan_matrix(simple_roots("a3"))
    minus1 = FieldScalar(-1)
    assert m.entries == ((two, minus1, _ZERO), (minus1, two, minus1),
                         (_ZERO, minus1, two))
    assert m.pair_orders == ((1, 3, 2), (3, 1, 3), (2, 3, 1))

    # unit-normalized B3 simple roots put -sqrt2 (not an integer) in the
    # short/long slot; the pair order 4 is unchanged
    m = cartan_matrix(simple_roots("b3"))
    assert m.entries == ((two, minus1, _ZERO), (minus1, two, -SQRT2),
                         (_ZERO, -SQRT2, two))
    assert m.pair_orders == ((1, 3, 2), (3, 1, 4), (2, 4, 1))

    m = cartan_matrix(simple_roots("h3"))
    assert m.entries[0][1] == -TAU
    assert m.entries[1][0] == -TAU
    assert m.entries[1][2] == -SIGMA
    assert m.entries[0][2] == _ZERO
    assert all(m.entries[i][i] == two for i in range(3))
    assert m.pair_orders == ((1, 5, 2), (5, 1, 5), (2, 5, 1))


def _is_integer(x: FieldScalar) -> bool:
    return is_rational(x) and x.a.denominator == 1


def _in_z_sqrt2(x: FieldScalar) -> bool:
    return (not x.c and not x.d
            and x.a.denominator == 1 and x.b.denominator == 1)


def _in_z_tau(x: FieldScalar) -> bool:
    # u + v*tau has components (u + v/2, 0, v/2, 0)
    return (not x.b and not x.d
            and (x.c + x.c).denominator == 1
            and (x.a - x.c).denominator == 1)


def _uniform_sign(coeffs) -> bool:
    signs = {c.sign() for c in coeffs if c}
    return signs <= {1} or signs <= {-1}


def test_decomposition_reconstructs(closures):
    for g, rs in closures.items():
        simple = simple_roots(g)
        for root in rs.roots:
            coeffs = decompose_in_simple(root, simple)
            rebuilt = tuple(
                sum((c * s[i] for c, s in zip(coeffs, simple.roots)), _ZERO)
                for i in range(3))
            assert rebuilt == root


def test_decomposition_rings_and_signs(closures):
    for g, membership in (("a1x3", _is_integer), ("a3", _is_integer),
                          ("b3", _in_z_sqrt2), ("h3", _in_z_tau)):
        simple = simple_roots(g)
        for root in closures[g].roots:
            coeffs = decompose_in_simple(root, simple)
            assert all(membership(c) for c in coeffs), (g, root, coeffs)
            if g != "h3":
                assert _uniform_sign(coeffs), (g, root, coeffs)


def test_h3_preset_is_not_a_strict_simple_system(closures):
    # the three preset H3 generators close to all 30 roots, but the root
    # (tau, 1, -sigma)/2 decomposes as (0, 1, sigma) over them: mixed sign,
    # so they are generators rather than a simple system in the strict sense
    target = (_TAU2, _HALF, -_SIG2)
    assert target in set(closures["h3"].roots)
    coeffs = decompose_in_simple(target, simple_roots("h3"))
    assert coeffs == (_ZERO, _ONE, SIGMA)
    assert not _uniform_sign(coeffs)


def test_group_orders(pipelines):
    # the census's count and the number of distinct induced matrices
    want = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}
    assert {g: res.census.transformations
            for g, res in pipelines.items()} == want
    assert {g: len({induced_matrix(e) for e in multivectors(res.versors)})
            for g, res in pipelines.items()} == want


def test_matrix_helpers():
    refl = reflection_matrix(_r(1, 0, 0))
    minus1 = FieldScalar(-1)
    assert refl == ((minus1, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO),
                    (_ZERO, _ZERO, _ONE))
    assert mat_det3(refl) == minus1
    assert mat_order(refl) == 2
    assert mat_order(mat_identity(3)) == 1
    assert mat_mul(refl, refl) == mat_identity(3)
    # irrational rotation angle has no finite order
    r2 = reflection_matrix(_r(Fraction(3, 5), Fraction(4, 5), 0))
    with pytest.raises(ValueError):
        mat_order(mat_mul(refl, r2), cap=60)


def test_root_system_json_round_trip(closures):
    rs = closures["a3"]
    data = rs.to_json()
    assert data["group"] == "a3"
    assert data["rank"] == 3
    assert data["verified"] is True
    assert len(data["roots"]) == 12
    back = RootSystem.from_json(data)
    assert back.roots == rs.roots
    assert back.verified


def test_root_system_json_rank_is_derived(closures):
    data = closures["a3"].to_json()
    with pytest.raises(ValueError, match="stated rank 4"):
        RootSystem.from_json(dict(data, rank=4))
    assert RootSystem.from_json(data).rank == 3


def test_root_system_json_rejects_mixed_lengths(closures):
    data = closures["a3"].to_json()
    roots = data["roots"] + [data["roots"][0] + [["0/1"] * 4]]
    with pytest.raises(ValueError, match="one length"):
        RootSystem.from_json(dict(data, roots=roots))


def test_root_system_json_verified_flag_is_not_trusted():
    from spinroots.spingroup import generate_versor_group
    e1, e1x2 = _r(1, 0, 0), _r(2, 0, 0)
    forged_rs = RootSystem("forged", 3, (e1, e1x2, negate(e1), negate(e1x2)))
    forged_rs.verified = True
    forged = forged_rs.to_json()
    assert forged["verified"] is True
    back = RootSystem.from_json(forged)
    assert not back.verified
    assert back.to_json()["verified"] is False
    with pytest.raises(ValueError, match="verify"):
        generate_versor_group(back)
    # an honest file loads verified and writes back the same JSON
    honest = orbit_closure(simple_roots("b3"))
    verify_root_system(honest)
    data = honest.to_json()
    assert RootSystem.from_json(dict(data, verified=False)).to_json() == data

"""Shared oracles and random generators for the test suite."""

from __future__ import annotations

from fractions import Fraction

from spinroots.clifford import Multivector
from spinroots.exactfield import FieldScalar

# Independent blade arithmetic: blades as tuples of frame-vector indices,
# multiplied by concatenation, bubble-sorted with a sign per swap, equal
# neighbours cancelling (orthonormal frame).  This never touches the
# production table.
BLADE_VECS = ((), (1,), (2,), (3,), (1, 2), (2, 3), (3, 1), (1, 2, 3))
_CANON = {(): (1, 0), (1,): (1, 1), (2,): (1, 2), (3,): (1, 3),
          (1, 2): (1, 4), (2, 3): (1, 5), (1, 3): (-1, 6), (1, 2, 3): (1, 7)}


def blade_product_oracle(i: int, j: int) -> tuple[int, int]:
    """(sign, blade index) of the product of basis blades i and j."""
    seq = list(BLADE_VECS[i] + BLADE_VECS[j])
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                changed = True
    reduced: list[int] = []
    for g in seq:
        if reduced and reduced[-1] == g:
            reduced.pop()
        else:
            reduced.append(g)
    s2, idx = _CANON[tuple(reduced)]
    return sign * s2, idx


def geometric_product_oracle(x: Multivector, y: Multivector) -> Multivector:
    out = [FieldScalar(0)] * 8
    for i, a in enumerate(x.components):
        if not a:
            continue
        for j, b in enumerate(y.components):
            if not b:
                continue
            sign, k = blade_product_oracle(i, j)
            out[k] = out[k] + a * b if sign > 0 else out[k] - a * b
    return Multivector(out)


def rand_fraction(rng, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_scalar(rng, bound: int = 9) -> FieldScalar:
    return FieldScalar(*(rand_fraction(rng, bound) for _ in range(4)))


def rand_nonzero_scalar(rng, bound: int = 9) -> FieldScalar:
    while True:
        x = rand_scalar(rng, bound)
        if x:
            return x


def rand_multivector(rng, nonzero: int = 4, bound: int = 6) -> Multivector:
    comps = [FieldScalar(0)] * 8
    for idx in rng.sample(range(8), nonzero):
        comps[idx] = rand_scalar(rng, bound)
    return Multivector(comps)


def rand_vector_mv(rng, bound: int = 6) -> Multivector:
    comps = [FieldScalar(0)] * 8
    for idx in (1, 2, 3):
        comps[idx] = rand_scalar(rng, bound)
    return Multivector(comps)


def reflect_oracle(lam, alpha):
    """s_alpha(lam) from the textbook formula, independent of ``coxeter``."""
    zero = FieldScalar(0)
    aa = sum((a * a for a in alpha), zero)
    t = sum((x * a for x, a in zip(lam, alpha)), zero)
    c = (t + t) / aa
    return tuple(x - c * a for x, a in zip(lam, alpha))


def brute_force_axiom2(roots):
    """The first pair (alpha, lam) of members, in an n^2 scan, with
    s_alpha(lam) outside the set; None when the set is closed under
    reflection in every member."""
    members = set(roots)
    for alpha in roots:
        for lam in roots:
            if reflect_oracle(lam, alpha) not in members:
                return alpha, lam
    return None


def brute_force_orbit(roots, cap: int = 5000) -> set:
    """Smallest set holding ``roots`` and their negatives that is closed
    under reflection in every member.  Each round reflects every member in
    every member, with its own reflection formula."""
    out = set(roots) | {tuple(-x for x in r) for r in roots}
    while True:
        new = {reflect_oracle(lam, alpha)
               for alpha in out for lam in out} - out
        if not new:
            return out
        out |= new
        if len(out) > cap:
            raise ValueError(f"brute-force orbit exceeded {cap} roots")

"""Seeded inputs: the paper's preset frames and exactly rotated copies.

A rotated frame turns the three preset simple roots by the rotation of an
integer quaternion q = (a, b, c, d).  Every q used here has the same norm
a^2 + b^2 + c^2 + d^2 = NORM, and its entries are 1, 2, 4, 5 in some order
with some signs, so the rotation matrix is rational with denominator NORM
for every seed and every seed gives operands of the same size and cost.
With these entries no rotation leaves a zero coordinate in any root of the
four closures (checked as each frame is made), so every coordinate is a
dense field element and no seed gets cheaper arithmetic by zero-skipping.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product

import oracle

NORM = 46
_ENTRIES = (1, 2, 4, 5)


def candidate_quaternions() -> list[tuple[int, int, int, int]]:
    out = []
    for perm in permutations(_ENTRIES):
        for signs in product((1, -1), repeat=4):
            q = tuple(s * x for s, x in zip(signs, perm))
            if q[0] > 0:  # q and -q give the same rotation
                out.append(q)
    return sorted(out)


def rotation_matrix(q) -> tuple[tuple[Fraction, ...], ...]:
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    if n != NORM:
        raise ValueError(f"quaternion {q} has norm {n}, not {NORM}")
    m = ((a*a + b*b - c*c - d*d, 2*(b*c - a*d), 2*(b*d + a*c)),
         (2*(b*c + a*d), a*a - b*b + c*c - d*d, 2*(c*d - a*b)),
         (2*(b*d - a*c), 2*(c*d + a*b), a*a - b*b - c*c + d*d))
    return tuple(tuple(Fraction(x, n) for x in row) for row in m)


def _float_rotate(m, v):
    return tuple(sum(float(m[i][j]) * v[j] for j in range(3))
                 for i in range(3))


def dense(m, preset_roots) -> bool:
    """No rotated root of the preset closure has a zero coordinate."""
    return all(abs(x) > 1e-6 for r in preset_roots
               for x in _float_rotate(m, r))


def approx_root(root) -> tuple[float, ...]:
    return tuple(c.approx() for c in root)


def rotate_root(m, root, field_scalar):
    """R * root, exactly, with each output built from rational components."""
    out = []
    for i in range(3):
        comps = [sum((m[i][j] * getattr(root[j], part) for j in range(3)),
                     Fraction(0)) for part in "abcd"]
        out.append(field_scalar(*comps))
    return tuple(out)


def rotated_frames(coxeter, field_scalar, seed: int):
    """One rotated SimpleRoots per group, chosen by ``seed``.

    Returns {group: (quaternion, SimpleRoots)}.
    """
    rng = random.Random(seed)
    candidates = candidate_quaternions()
    frames = {}
    for group in coxeter.GROUPS:
        preset = coxeter.simple_roots(group)
        q = rng.choice(candidates)
        m = rotation_matrix(q)
        closure = oracle.root_closure(
            [approx_root(r) for r in preset.roots]).points
        if not dense(m, closure):
            raise RuntimeError(f"rotation {q} leaves a zero coordinate in a "
                               f"root of {group}")
        roots = tuple(rotate_root(m, r, field_scalar) for r in preset.roots)
        frames[group] = (q, coxeter.SimpleRoots(group, roots))
    return frames

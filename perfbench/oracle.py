"""Floating-point reference for the spinroots pipeline, computed apart from it.

Everything here works on plain floats and shares no code with the program:
the roots are closed under reflections, the spinors are closed under
Hamilton products of the roots read as pure quaternions (Hodge duality),
and the rank-4 root set is described by its census of inner products.
The exact outputs of the program, converted with ``approx()``, must match
these within ``TOL``.  The censuses below are frame-independent facts about
the groups (conjugacy classes of Q, 2T, 2O, 2I), not copies of any output.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product

TOL = 1e-9
_GRID = 1e-6

TAU = (1 + math.sqrt(5)) / 2

ROOT_COUNT = {"a1x3": 6, "a3": 12, "b3": 18, "h3": 30}
GROUP_ORDER = {"a1x3": 8, "a3": 24, "b3": 48, "h3": 120}


def _census(pairs):
    return {round(v, 6): n for v, n in pairs}


# Real parts of the elements of each binary polyhedral group.  Read as a
# rank-4 root set, the inner products of one root with all roots are the
# same multiset, so this is also the angle census of A1^4, D4, F4 and H4.
SCALAR_CENSUS = {
    "Q": _census([(1, 1), (-1, 1), (0, 6)]),
    "2T": _census([(1, 1), (-1, 1), (0, 6), (0.5, 8), (-0.5, 8)]),
    "2O": _census([(1, 1), (-1, 1), (0, 18), (0.5, 8), (-0.5, 8),
                   (math.sqrt(0.5), 6), (-math.sqrt(0.5), 6)]),
    "2I": _census([(1, 1), (-1, 1), (0, 30), (0.5, 20), (-0.5, 20),
                   (TAU / 2, 12), (-TAU / 2, 12),
                   ((TAU - 1) / 2, 12), (-(TAU - 1) / 2, 12)]),
}
RANK4_TYPE = {"Q": "A1x4", "2T": "D4", "2O": "F4", "2I": "H4"}
# The paper's correspondence: the spinors of each rank-3 group form this
# binary polyhedral group.
BINARY_GROUP = {"a1x3": "Q", "a3": "2T", "b3": "2O", "h3": "2I"}


class FloatSet:
    """Points of R^n, two of them equal when no coordinates differ by more
    than TOL.  Points are filed by coordinates rounded to a grid much coarser
    than TOL, and a lookup tries every cell its TOL-box touches.
    """

    def __init__(self, points=()):
        self._cells: dict[tuple, tuple] = {}
        self.points: list[tuple] = []
        for p in points:
            self.add(p)

    def find(self, p):
        for key in product(*({round((x - TOL) / _GRID),
                              round((x + TOL) / _GRID)} for x in p)):
            hit = self._cells.get(key)
            if hit is not None and max(abs(x - y) for x, y in
                                       zip(hit, p)) <= TOL:
                return hit
        return None

    def add(self, p) -> bool:
        if self.find(p) is not None:
            return False
        self._cells[tuple(round(x / _GRID) for x in p)] = p
        self.points.append(p)
        return True

    def __len__(self):
        return len(self.points)


def same_points(points, ref: FloatSet) -> bool:
    """True when ``points`` and ``ref`` are the same set within TOL."""
    got = FloatSet()
    for p in points:
        if ref.find(p) is None or not got.add(p):
            return False
    return len(got) == len(ref)


# -- rank 3: reflections ------------------------------------------------------

def dot(x, y) -> float:
    return sum(a * b for a, b in zip(x, y))


def reflect(v, a):
    t = 2 * dot(v, a) / dot(a, a)
    return tuple(x - t * y for x, y in zip(v, a))


def root_closure(simple) -> FloatSet:
    roots = FloatSet()
    frontier = []
    for r in simple:
        for p in (tuple(r), tuple(-x for x in r)):
            if roots.add(p):
                frontier.append(p)
    while frontier:
        new = []
        for v in frontier:
            for a in list(roots.points):
                for image in (reflect(v, a), reflect(a, v)):
                    if roots.add(image):
                        new.append(image)
        frontier = new
    return roots


def reflection_matrix(a):
    aa = dot(a, a)
    n = len(a)
    return tuple(tuple((1.0 if i == j else 0.0) - 2 * a[i] * a[j] / aa
                       for j in range(n)) for i in range(n))


def mat_mul(m, k):
    n = len(m)
    return tuple(tuple(sum(m[i][t] * k[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


def _flat(m):
    return tuple(x for row in m for x in row)


def matrix_order(m, cap: int = 120) -> int:
    n = len(m)
    ident = tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n))
    power = m
    for k in range(1, cap + 1):
        if max(abs(x - y) for x, y in zip(_flat(power), ident)) <= TOL:
            return k
        power = mat_mul(power, m)
    raise ValueError("matrix order exceeds cap")


def reflection_group_order(simple) -> int:
    """Order of the group the simple reflections generate (3x3 matrices)."""
    gens = [reflection_matrix(a) for a in simple]
    seen = FloatSet(_flat(g) for g in gens)
    frontier = list(gens)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                h = mat_mul(m, g)
                if seen.add(_flat(h)):
                    new.append(h)
        frontier = new
    return len(seen)


# -- quaternions --------------------------------------------------------------

def qmul(p, q):
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def pure_unit(root):
    n = math.sqrt(dot(root, root))
    return (0.0,) + tuple(x / n for x in root)


def quaternion_closure(seed) -> FloatSet:
    group = FloatSet()
    gens = FloatSet(seed)
    frontier = [p for p in gens.points if group.add(p)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens.points:
                h = qmul(p, g)
                if group.add(h):
                    new.append(h)
        frontier = new
    return group


def scalar_census(quats) -> dict:
    return dict(Counter(round(q[0], 6) + 0.0 for q in quats))


def angle_censuses(vectors) -> set:
    """The distinct inner-product censuses of each vector against all."""
    out = set()
    for p in vectors:
        c = Counter(round(dot(p, q), 6) + 0.0 for q in vectors)
        out.add(tuple(sorted(c.items())))
    return out


def name_of_census(census: dict) -> str | None:
    for name, want in SCALAR_CENSUS.items():
        if census == want:
            return name
    return None


class Reference:
    """Everything the oracle derives from one frame of three simple roots."""

    def __init__(self, group: str, simple):
        self.group = group
        self.simple = [tuple(r) for r in simple]
        self.roots = root_closure(self.simple)
        self.order = reflection_group_order(self.simple)
        quats = [pure_unit(r) for r in self.roots.points]
        self.spinors = quaternion_closure(
            qmul(p, q) for p in quats for q in quats)
        p1, p2, p3 = (pure_unit(r) for r in self.simple)
        two = [qmul(p1, p2), qmul(p2, p3)]
        self.two_generators = (
            len(quaternion_closure(two + [qconj(q) for q in two]))
            == len(self.spinors))
        self.pure_quat = all(self.spinors.find(q) is not None for q in quats)
        self.binary = name_of_census(scalar_census(self.spinors.points))
        angles = angle_censuses(self.spinors.points)
        self.rank4 = None
        if len(angles) == 1:
            rank4_name = name_of_census(dict(next(iter(angles))))
            self.rank4 = RANK4_TYPE.get(rank4_name)

    def cells(self) -> dict:
        """The reference value of every cell of the paper's table."""
        return {"roots": len(self.roots), "order": self.order,
                "spinors": len(self.spinors), "binary": self.binary,
                "rank4": self.rank4, "rank4_roots": len(self.spinors),
                "pure_quat": self.pure_quat,
                "two_generators": self.two_generators}

    def invariant_errors(self) -> list[str]:
        """Frame-independent facts the reference itself must satisfy."""
        errs = []
        if len(self.roots) != ROOT_COUNT[self.group]:
            errs.append(f"{self.group}: oracle found {len(self.roots)} roots")
        if self.order != GROUP_ORDER[self.group]:
            errs.append(f"{self.group}: oracle group order {self.order}")
        binary = BINARY_GROUP[self.group]
        if (self.binary, self.rank4) != (binary, RANK4_TYPE[binary]):
            errs.append(f"{self.group}: oracle census names "
                        f"{self.binary}/{self.rank4}")
        return errs

    def cartan(self):
        return [[2 * dot(a, b) / dot(a, a) for b in self.simple]
                for a in self.simple]

    def pair_orders(self):
        refl = [reflection_matrix(a) for a in self.simple]
        n = len(refl)
        return [[1 if i == j else matrix_order(mat_mul(refl[i], refl[j]))
                 for j in range(n)] for i in range(n)]

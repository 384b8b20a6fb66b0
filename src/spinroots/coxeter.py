"""Root systems for the four rank-3 groups and their rank-4 descendants.

Roots are plain tuples of FieldScalar so they hash and sort exactly; the
reflection s_a(l) = l - 2(l|a)/(a|a) a works for any rank and agrees with
the Clifford sandwich -nan on rank 3 (cross-checked in the tests).

A root system is the orbit of its generators under the group W their
reflections generate, so the orbit closure reflects in the generators only:
if beta = w(alpha_i), then s_beta = w s_i w^-1 lies in W and keeps the
orbit (Humphreys, *Reflection Groups and Coxeter Groups*, 1.5).  So a set
that is the orbit of a few of its own roots under their reflections meets
axiom 2, which ``verify_root_system`` checks in O(n |G|) reflections, not
n^2.  Axiom 1 keys each root by its direction, scaled so its first nonzero
entry is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactfield import SIGMA, TAU, FieldScalar

Root = tuple[FieldScalar, ...]

GROUPS = ("a1x3", "a3", "b3", "h3")

_ZERO = FieldScalar(0)
_ONE = FieldScalar(1)
_S = FieldScalar(0, Fraction(1, 2))  # 1/sqrt2
_HALF = Fraction(1, 2)


class CapExceeded(ValueError):
    """A closure or power loop ran past its cap, as on malformed input."""


def _root(*vals) -> Root:
    return tuple(v if isinstance(v, FieldScalar) else FieldScalar(v)
                 for v in vals)


@dataclass(frozen=True)
class SimpleRoots:
    group: str
    roots: tuple[Root, ...]


_PRESETS = {
    "a1x3": (_root(1, 0, 0), _root(0, 1, 0), _root(0, 0, 1)),
    "a3": (_root(_S, _S, 0), _root(0, -_S, _S), _root(-_S, _S, 0)),
    "b3": (_root(_S, -_S, 0), _root(0, _S, -_S), _root(0, 0, 1)),
    "h3": (_root(-1, 0, 0), _root(TAU * _HALF, _HALF, SIGMA * _HALF),
           _root(0, 0, -1)),
}


def simple_roots(group: str) -> SimpleRoots:
    """The preset simple roots (all unit length) for a group label."""
    try:
        return SimpleRoots(group, _PRESETS[group])
    except KeyError:
        raise ValueError(f"unknown group {group!r}; "
                         f"choose from {GROUPS}") from None


# -- vector helpers ---------------------------------------------------------

def dot(x: Root, y: Root) -> FieldScalar:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    acc = _ZERO
    for a, b in zip(x, y):
        if a and b:
            acc = acc + a * b
    return acc


def negate(x: Root) -> Root:
    return tuple(-a for a in x)


def _reflection_scale(alpha: Root) -> Root:
    """The vector 2 alpha / (alpha|alpha), hoisted out of reflection loops."""
    aa = dot(alpha, alpha)
    if not aa:
        raise ValueError("cannot reflect in the zero vector")
    inv = aa.inverse()
    return tuple((a + a) * inv for a in alpha)


def _reflect_scaled(lam: Root, alpha: Root, scaled: Root) -> Root:
    t = dot(lam, alpha)
    if not t:
        return lam
    return tuple(l - t * w for l, w in zip(lam, scaled))


def reflect_root(lam: Root, alpha: Root) -> Root:
    """s_alpha(lam) = lam - 2 (lam|alpha)/(alpha|alpha) alpha."""
    return _reflect_scaled(lam, alpha, _reflection_scale(alpha))


# -- root systems -----------------------------------------------------------

@dataclass
class RootSystem:
    group: str
    rank: int
    roots: tuple[Root, ...]
    verified: bool = False

    def __len__(self):
        return len(self.roots)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "rank": self.rank,
            "roots": [[c.to_json() for c in r] for r in self.roots],
            "verified": self.verified,
        }

    @classmethod
    def from_json(cls, data) -> RootSystem:
        """Load the roots and verify them; the input's flag is not trusted."""
        roots = tuple(tuple(FieldScalar.from_json(c) for c in r)
                      for r in data["roots"])
        rs = cls(data["group"], data["rank"], roots)
        verify_root_system(rs)
        return rs


def orbit_closure(simple: SimpleRoots, cap: int = 10000) -> RootSystem:
    """Orbit of the simple roots (and negatives) under their reflections.

    Each round reflects the new roots in the generators only; the module
    docstring says why the result is closed under reflection in every
    member.  The result is stored sorted.  ``cap`` guards against
    non-terminating closures of malformed input.
    """
    if not simple.roots:
        raise ValueError("need at least one simple root")
    rank = len(simple.roots[0])
    gens = [(alpha, _reflection_scale(alpha)) for alpha in simple.roots]
    roots: set[Root] = set(simple.roots) | {negate(r) for r in simple.roots}
    frontier = roots
    while frontier:
        new: set[Root] = set()
        for lam in frontier:
            for alpha, scaled in gens:
                image = _reflect_scaled(lam, alpha, scaled)
                if image not in roots:
                    new.add(image)
        roots |= new
        if len(roots) > cap:
            raise CapExceeded(f"orbit closure exceeded cap of {cap} elements")
        frontier = new
    return RootSystem(simple.group, rank, tuple(sorted(roots)))


@dataclass(frozen=True)
class Certificate:
    passed: bool
    axiom: int | None = None
    witness: tuple = ()
    message: str = "ok"


def _direction(x: Root) -> Root:
    """x scaled so that its first nonzero entry is 1 (x != 0)."""
    pivot = next(v for v in x if v)
    if pivot == _ONE:
        return x
    inv = pivot.inverse()
    return tuple(v * inv for v in x)


def verify_root_system(rs: RootSystem) -> Certificate:
    """Exactly check both root-system axioms; set the flag on success.

    Axiom 1: no root is zero, and each root's only scalar multiples in the
    set are itself and its negative (which must be present), so a direction
    holds one root and its negative.  Axiom 2: the set is invariant under
    reflection in each of its members.

    Axiom 2 is checked by generators.  Walking the roots in order, a root
    not yet in the orbit becomes a generator and the whole orbit is
    reflected in the generators again until it closes.  Every image must
    lie in the set, or the generator and the reflected root (both members)
    are the witness.  If none escapes, the set is W_G G for the group W_G
    that the generators' reflections generate, so each member is
    beta = w(g) and s_beta = w s_g w^-1 lies in W_G, which maps the set
    into itself: axiom 2 holds exactly, with O(n |G|) reflections.
    """
    roots = rs.roots
    root_set = set(roots)
    for alpha in roots:
        if not any(alpha):
            return Certificate(False, 1, (alpha,), "zero vector present")
        if negate(alpha) not in root_set:
            return Certificate(False, 1, (alpha,),
                               "negative of root missing")
    buckets: dict[Root, list[Root]] = {}
    for beta in roots:
        bucket = buckets.setdefault(_direction(beta), [])
        for alpha in bucket:
            if beta != negate(alpha):
                return Certificate(False, 1, (alpha, beta),
                                   "scalar multiple beyond +-root present")
        bucket.append(beta)
    orbit: set[Root] = set()
    gens: list[tuple[Root, Root]] = []
    for beta in roots:
        if beta in orbit:
            continue
        gens.append((beta, _reflection_scale(beta)))
        orbit.add(beta)
        frontier = list(orbit)
        while frontier:
            new = []
            for lam in frontier:
                for alpha, scaled in gens:
                    image = _reflect_scaled(lam, alpha, scaled)
                    if image not in root_set:
                        return Certificate(False, 2, (alpha, lam),
                                           "reflection image escapes the set")
                    if image not in orbit:
                        orbit.add(image)
                        new.append(image)
            frontier = new
    rs.verified = True
    return Certificate(True)


# -- Cartan data ------------------------------------------------------------

@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple[tuple[FieldScalar, ...], ...]
    pair_orders: tuple[tuple[int, ...], ...]


def cartan_matrix(simple: SimpleRoots) -> CartanMatrix:
    """A_ij = 2 (a_i|a_j) / (a_i|a_i), plus the orders of the products s_i s_j.

    The orders are measured on the exact reflection matrices rather than
    read off the angle, so they stay meaningful even for generator sets
    that are not a strict simple system.
    """
    roots = simple.roots
    n = len(roots)
    entries = tuple(
        tuple((dot(a, b) + dot(a, b)) * dot(a, a).inverse() for b in roots)
        for a in roots)
    refls = [reflection_matrix(a) for a in roots]
    orders = tuple(
        tuple(1 if i == j else mat_order(mat_mul(refls[i], refls[j]))
              for j in range(n))
        for i in range(n))
    return CartanMatrix(entries, orders)


def decompose_in_simple(root: Root, simple: SimpleRoots) -> tuple[FieldScalar, ...]:
    """Exact coefficients of a root over the simple roots (linear solve)."""
    n = len(simple.roots)
    # augmented system: columns are the simple roots
    rows = [[simple.roots[j][i] for j in range(n)] + [root[i]]
            for i in range(len(root))]
    if len(rows) != n:
        raise ValueError("rank mismatch between root and simple system")
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("simple roots are linearly dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def coxeter_group_order(rs: RootSystem) -> int:
    """Number of distinct orthogonal transformations the reflections generate."""
    if rs.rank != 3:
        raise ValueError("group order is computed for rank-3 root systems")
    if not rs.verified:
        raise ValueError("verify the root system before asking for its order")
    from . import spingroup

    vg = spingroup.generate_versor_group(rs)
    return len(set(vg.transforms.values()))


# -- small exact matrices ----------------------------------------------------

Matrix = tuple[tuple[FieldScalar, ...], ...]


def mat_identity(n: int = 3) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n))
                 for i in range(n))


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    size = len(m)
    return tuple(
        tuple(sum((m[i][k] * n[k][j] for k in range(size)), _ZERO)
              for j in range(size))
        for i in range(size))


def mat_neg(m: Matrix) -> Matrix:
    return tuple(tuple(-v for v in row) for row in m)


def mat_det3(m: Matrix) -> FieldScalar:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def mat_order(m: Matrix, cap: int = 120) -> int:
    identity = mat_identity(len(m))
    power = m
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = mat_mul(power, m)
    raise CapExceeded(f"matrix order exceeds cap of {cap}")


def reflection_matrix(alpha: Root) -> Matrix:
    """Matrix of s_alpha in the standard basis (columns are images)."""
    n = len(alpha)
    basis = [tuple(_ONE if i == j else _ZERO for j in range(n))
             for i in range(n)]
    cols = [reflect_root(e, alpha) for e in basis]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

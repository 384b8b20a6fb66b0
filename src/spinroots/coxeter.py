"""Root systems for the four rank-3 groups and their rank-4 descendants.

Roots are plain tuples of FieldScalar so they hash and sort exactly; the
reflection s_a(l) = l - 2(l|a)/(a|a) a works for any rank and agrees with
the Clifford sandwich -nan on rank 3 (cross-checked in the tests).  It is
written once, as the images s_a(e_i) = e_i - a_i c of the unit vectors
with c = 2a/(a|a), from which ``exactfield.linear_map`` builds the
integer matrix of s_a (``_reflection``).

A root system is the orbit of its generators under the group W their
reflections generate, so the orbit closure reflects in the generators only:
if beta = w(alpha_i), then s_beta = w s_i w^-1 lies in W and keeps the
orbit (Humphreys, *Reflection Groups and Coxeter Groups*, 1.5).  So a set
that is the orbit of a few of its own roots under their reflections meets
axiom 2, which ``verify_root_system`` checks in O(n |G|) reflections, not
n^2.  Axiom 1 is read off the roots' integer keys, and their squared
norms.  ``accrete`` is the one closure, of the orbit, of axiom 2 and of
``spingroup``'s versors: a seed closed under generators taken from it, on
classes {x, -x}.  Roots are closed on integer keys: s_alpha is that
integer matrix, applied by the shared ``exactfield.apply``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .exactfield import (HALF, ONE, SIGMA, SQRT2, TAU, ZERO, FieldScalar,
                         apply, class_key, exact_sorted, from_keys,
                         linear_map, squared_norm, to_ints)

Root = tuple[FieldScalar, ...]

GROUPS = ("a1x3", "a3", "b3", "h3")

_S = SQRT2 * HALF  # 1/sqrt2


class CapExceeded(ValueError):
    """A closure ran past its cap, as on malformed input."""


def accrete(seeds, generator, step, cap: int, what: str = "closure"):
    """The smallest set of classes {x, -x} holding the seeds' classes and
    closed under ``step(g, key)`` for the generators g of the seeds it
    holds, as a dict from class keys to the sign first reached, and
    whether a class was met with both signs: in a group, that puts -1 in
    it, and otherwise the signed keys are closed, so they are the group.

    ``seeds`` are (key, sign, x) triples, taken in order; ``step`` gives
    (key, sign).  A seed whose class is inside is skipped and its generator
    never built; any other adds its class and ``generator(x)``.  The old
    closure is closed under the old generators, so it meets the new
    generator only, and each new class meets all of them: each class meets
    each generator once.  Once -1 is in, a class counts as two elements;
    more than ``cap`` raise CapExceeded.
    """
    closure: dict = {}
    gens: list = []
    both = False
    for key, sign, x in seeds:
        if key in closure:
            both = both or closure[key] != sign
            continue
        gens.append(generator(x))
        work = [(k, gens[-1:]) for k in closure] + [(key, gens)]
        closure[key] = sign
        while work:
            # each addition pushes work, so this sees every one
            if len(closure) * (1 + both) > cap:
                raise CapExceeded(f"{what} exceeded cap of {cap} elements")
            k, using = work.pop()
            sign = closure[k]
            for g in using:
                image, s = step(g, k)
                first = closure.get(image)
                if first is None:
                    closure[image] = s * sign
                    work.append((image, gens))
                elif first != s * sign:
                    both = True
    if len(closure) * (1 + both) > cap:  # both set with no addition after
        raise CapExceeded(f"{what} exceeded cap of {cap} elements")
    return closure, both


class Record:
    """A read-only record of the fields its class names in ``__slots__``.

    Built from the fields' values, in order or by name, and set with
    ``object.__setattr__``; equal to a record of the same class with equal
    fields, hashed and shown by them.  Assignment raises AttributeError,
    as it does on ``FieldScalar`` and ``Quaternion``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if (len(args) + len(kwargs) != len(names)
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{names}, each once")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


def _root(*vals) -> Root:
    return tuple(v if isinstance(v, FieldScalar) else FieldScalar(v)
                 for v in vals)


class SimpleRoots(Record):
    __slots__ = ("group", "roots")
    group: str
    roots: tuple[Root, ...]


_PRESETS = {
    "a1x3": (_root(1, 0, 0), _root(0, 1, 0), _root(0, 0, 1)),
    "a3": (_root(_S, _S, 0), _root(0, -_S, _S), _root(-_S, _S, 0)),
    "b3": (_root(_S, -_S, 0), _root(0, _S, -_S), _root(0, 0, 1)),
    "h3": (_root(-1, 0, 0), _root(TAU * HALF, HALF, SIGMA * HALF),
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
    acc = ZERO
    for a, b in zip(x, y):
        if a and b:
            acc = acc + a * b
    return acc


def _reflection_scale(alpha: Root) -> Root:
    """The vector c = 2 alpha / (alpha|alpha) of the reflection s_alpha."""
    aa = dot(alpha, alpha)
    if not aa:
        raise ValueError("cannot reflect in the zero vector")
    inv = aa.inverse()
    return tuple((a + a) * inv for a in alpha)


def _reflection(alpha: Root):
    """s_alpha as an integer matrix (``exactfield.linear_map``): the images
    of the unit vectors, s_alpha(e_i) = e_i - alpha_i c, with c taken once;
    the one statement of the reflection formula."""
    minus_c = [-w for w in _reflection_scale(alpha)]
    images = []
    for i, a in enumerate(alpha):
        image = [a * w for w in minus_c]
        image[i] = ONE + image[i]
        images.append(image)
    return linear_map(images)


def _rank(roots) -> int:
    """The common length of ``roots``; ValueError if they have several."""
    lengths = {len(r) for r in roots}
    if len(lengths) != 1:
        raise ValueError(f"roots must share one length, got {sorted(lengths)}")
    return lengths.pop()


# -- root systems -----------------------------------------------------------

class RootSystem(Record):
    """``verified`` starts False and is set by ``verify_root_system`` (or
    an explicit assignment), never by the constructor, so a flag cannot be
    claimed at construction.  It is the one field that can be assigned,
    so the record is not hashable."""
    __slots__ = ("group", "rank", "roots", "verified")
    group: str
    rank: int
    roots: tuple[Root, ...]
    verified: bool
    __hash__ = None

    def __init__(self, group, rank, roots):
        super().__init__(group, rank, roots, False)

    def __setattr__(self, name, value):
        if name != "verified":
            raise AttributeError(f"RootSystem.{name} is read-only")
        object.__setattr__(self, name, value)

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
        """Load the roots and verify them (``verify_root_system``), so the
        input's flag is not trusted and its rank is checked."""
        roots = tuple(tuple(FieldScalar.from_json(c) for c in r)
                      for r in data["roots"])
        rs = cls(data["group"], data["rank"], roots)
        verify_root_system(rs)
        return rs


def orbit_closure(simple: SimpleRoots, cap: int = 10000) -> RootSystem:
    """Orbit of the simple roots (and negatives, s_a a = -a) under their
    reflections, by ``accrete`` on classes {a, -a} (s_a(-l) = -s_a(l)),
    each unfolded into both roots; the module docstring says why it is
    closed under reflection in every member.  The result is stored sorted;
    ``cap`` guards against non-terminating closures of malformed input.
    """
    if not simple.roots:
        raise ValueError("need at least one simple root")
    rank = _rank(simple.roots)
    classes, _ = accrete(((*class_key(to_ints(a)), a) for a in simple.roots),
                         _reflection, apply, cap, "orbit closure")
    keys = [*classes, *((tuple([-n for n in i]), d) for i, d in classes)]
    return RootSystem(simple.group, rank, tuple(exact_sorted(from_keys(keys))))


class Certificate(Record):
    __slots__ = ("passed", "axiom", "witness", "message")
    passed: bool
    axiom: int | None
    witness: tuple
    message: str

    def __init__(self, passed, axiom=None, witness=(), message="ok"):
        super().__init__(passed, axiom, witness, message)


def _multiple(roots, root_of: dict):
    """Roots (alpha, beta = c alpha), c != +-1, or None; a repeat gives
    (beta, beta).  As |beta|^2 = c^2 |alpha|^2, a root of squared norm n
    has such a multiple only of norm m != n, with c = sqrt(m/n) in the
    field; ``root_of`` maps the keys to the roots, every negative in."""
    if len(root_of) < len(roots):
        return next((b, b) for b, k in Counter(roots).items() if k > 1)
    by_norm: dict = {}
    for key in root_of:
        by_norm.setdefault(squared_norm(key), []).append(key)
    for n, m in combinations(by_norm, 2):
        c = (m * n.inverse()).sqrt()
        if c is None:
            continue
        for key in by_norm[n]:
            image = to_ints([c * x for x in root_of[key]])
            if image in root_of:
                return root_of[key], root_of[image]
    return None


class _Escaped(Exception):
    """A reflection image outside the set; its args are (alpha, lam)."""


def verify_root_system(rs: RootSystem) -> Certificate:
    """Exactly check both root-system axioms, each once, on the roots'
    integer keys (``to_ints``); set the flag to the verdict.

    Axiom 1: no root is zero, and each root's only scalar multiples in the
    set are itself and its negative (which must be present); other
    multiples are found by ``_multiple``.  Axiom 2: the set is invariant
    under reflection in each of its members.

    Axiom 2 is checked by generators: ``accrete`` closes the classes
    {beta, -beta} (axiom 1 found every -beta, s_a(-l) = -s_a(l) and
    s_-a = s_a), in order, under the reflections in those it takes as
    generators, each step looking its image up in the set.  If none
    escapes, the set is W_G G for the group W_G of the generators'
    reflections, so each member is beta = w(g) and s_beta = w s_g w^-1
    lies in W_G, which maps the set into itself: axiom 2 holds, with
    O(n |G|) reflections.  The first image s_alpha(lam) outside the set
    ends the closure with the witness (alpha, lam).  No roots, roots of
    several lengths, or a stated rank other than their length raise
    ValueError.
    """
    rs.verified = False
    roots = rs.roots
    rank = _rank(roots)
    if rs.rank != rank:
        raise ValueError(f"stated rank {rs.rank!r} disagrees with "
                         f"roots of length {rank}")
    root_of = {to_ints(beta): beta for beta in roots}
    for (ints, den), alpha in root_of.items():
        if not any(ints):
            return Certificate(False, 1, (alpha,), "zero vector present")
        if (tuple([-n for n in ints]), den) not in root_of:
            return Certificate(False, 1, (alpha,),
                               "negative of root missing")
    pair = _multiple(roots, root_of)
    if pair:
        return Certificate(False, 1, pair,
                           "scalar multiple beyond +-root present")

    def step(gen, key):  # gen is (alpha, s_alpha)
        image = apply(gen[1], key)
        if image[0] not in root_of:
            raise _Escaped(gen[0], root_of[key])
        return image
    try:
        accrete(((*class_key(key), beta) for key, beta in root_of.items()),
                lambda alpha: (alpha, _reflection(alpha)), step,
                len(root_of))
    except _Escaped as escaped:
        return Certificate(False, 2, escaped.args,
                           "reflection image escapes the set")
    rs.verified = True
    return Certificate(True)


# -- Cartan data ------------------------------------------------------------

# cos^2 theta -> order n of the rotation through 2 theta, theta = pi k / n
_QUARTER = HALF * HALF
_ROTATION_ORDER = {
    ONE: 1,                                 # theta = 0
    ZERO: 2,                                # pi/2
    _QUARTER: 3,                            # pi/3
    HALF: 4,                                # pi/4
    TAU * TAU * _QUARTER: 5,                # pi/5
    SIGMA * SIGMA * _QUARTER: 5,            # 2pi/5
    3 * _QUARTER: 6,                        # pi/6
    (ONE + _S) * HALF: 8,                   # pi/8
    (ONE - _S) * HALF: 8,                   # 3pi/8
    (FieldScalar(2) + TAU) * _QUARTER: 10,  # pi/10
    (FieldScalar(2) + SIGMA) * _QUARTER: 10,  # 3pi/10
}


def rotation_order(c2: FieldScalar) -> int:
    """Order of the rotation through 2 theta, given c2 = cos^2 theta.

    Such a rotation is s_a s_b for roots at angle theta, or the rotation
    of a unit rotor with scalar part cos theta.  The table is complete for
    the field.  A rotation of order n > 2 has cos(2 theta) = 2 c2 - 1,
    which generates Q(cos 2pi/n), of degree phi(n)/2.  The subfields of
    Q(sqrt2, sqrt5) are Q, Q(sqrt2), Q(sqrt5), Q(sqrt10) and the whole
    field: degree 1, 2 or 4, and none a cyclic quartic.  So phi(n) is 2, 4
    or 8, and of those n only 3, 4, 5, 6, 8 and 10 fit: 12 and 24 need
    sqrt3, and 15, 16, 20 and 30 give cyclic quartics.  Any other c2 is a
    rotation of infinite order and raises ValueError.
    """
    try:
        return _ROTATION_ORDER[c2]
    except KeyError:
        raise ValueError(f"cos^2 = {c2} gives a rotation of infinite "
                         "order") from None


class CartanMatrix(Record):
    __slots__ = ("entries", "pair_orders")
    entries: tuple[tuple[FieldScalar, ...], ...]
    pair_orders: tuple[tuple[int, ...], ...]


def cartan_matrix(simple: SimpleRoots) -> CartanMatrix:
    """A_ij = (c_i|a_j) with c_i = 2 a_i/(a_i|a_i), plus the orders of the
    products s_i s_j.

    s_i s_j is the rotation through twice the angle between a_i and a_j, so
    its order is ``rotation_order`` of c2 = A_ij A_ji / 4
    = (a_i|a_j)^2 / (|a_i|^2 |a_j|^2), read off the angle for any
    generator set, strict simple system or not.  Every c2 of the field is
    either in that table or a rotation of infinite order, which raises
    ValueError, as does a zero root.
    """
    roots = simple.roots
    a = tuple(tuple(dot(c, b) for b in roots)
              for c in map(_reflection_scale, roots))
    orders = tuple(
        tuple(1 if i == j else rotation_order(a[i][j] * a[j][i] * _QUARTER)
              for j in range(len(roots)))
        for i in range(len(roots)))
    return CartanMatrix(a, orders)

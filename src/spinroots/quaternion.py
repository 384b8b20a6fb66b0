"""Quaternions over FieldScalar and the discrete unit-quaternion groups.

The Hamilton product follows e_i e_j = -delta_ij + eps_ijk e_k.
``catalog`` returns the literature's unit sets, each every sign change of
every (for the icosians, every even) permutation of a base vector (Conway
& Smith, *On Quaternions and Octonions*, ch. 3-4): the 8 Lipschitz units
(1, 0, 0, 0); the 24 Hurwitz units, those and (1, 1, 1, 1)/2; the 24
duals (1, 1, 0, 0)/sqrt2, and the 48 Hurwitz units and duals; the 120
icosians, the Hurwitz units and (0, tau, 1, sigma)/2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from .coxeter import dot
from .exactfield import HALF, ONE, SIGMA, SQRT2, TAU, ZERO, FieldScalar


class Quaternion:
    """q0 + q1*e1 + q2*e2 + q3*e3 with FieldScalar components."""

    __slots__ = ("components", "_hash")

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        comps = (q0, q1, q2, q3)
        if not (q0.__class__ is q1.__class__ is q2.__class__
                is q3.__class__ is FieldScalar):
            comps = tuple(c if isinstance(c, FieldScalar) else FieldScalar(c)
                          for c in comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __delattr__(self, name):
        raise AttributeError("Quaternion is immutable")

    def __neg__(self):
        return Quaternion(*(-x for x in self.components))

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return Quaternion(*(x * other for x in self.components))
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = other.components
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.components)
            object.__setattr__(self, "_hash", h)
        return h

    def conjugate(self) -> Quaternion:
        q0, q1, q2, q3 = self.components
        return Quaternion(q0, -q1, -q2, -q3)

    def norm_sq(self) -> FieldScalar:
        return dot(self.components, self.components)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.components]

    def __repr__(self):
        return f"Quaternion{self.components!r}"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


_ALL = tuple(permutations(range(4)))
_EVEN = tuple(p for p in _ALL
              if sum(i > j for i, j in combinations(p, 2)) % 2 == 0)
_DUAL = (SQRT2 * HALF, SQRT2 * HALF, ZERO, ZERO)


def _units(base, perms) -> frozenset[Quaternion]:
    """Every sign change of the nonzero entries of each distinct
    arrangement (base[p0], ..., base[p3]) of ``base``, p in ``perms``."""
    arrangements = {tuple(base[i] for i in p) for p in perms}
    return frozenset(Quaternion(*q) for comps in arrangements
                     for q in product(*((c, -c) if c else (c,)
                                        for c in comps)))


_CATALOGS = {  # name: (the set it extends, base vector, permutations)
    "lipschitz": (None, (ONE, ZERO, ZERO, ZERO), _ALL),
    "hurwitz": ("lipschitz", (HALF,) * 4, _ALL),
    "hurwitz_duals": (None, _DUAL, _ALL),
    "hurwitz+duals": ("hurwitz", _DUAL, _ALL),
    "icosians": ("hurwitz", (ZERO, TAU * HALF, HALF, SIGMA * HALF), _EVEN),
}


@lru_cache(maxsize=None)
def catalog(name: str) -> frozenset[Quaternion]:
    """One of the literal unit-quaternion sets by name."""
    try:
        extends, base, perms = _CATALOGS[name]
    except KeyError:
        raise ValueError(f"unknown catalog {name!r}; "
                         f"choose from {sorted(_CATALOGS)}") from None
    units = _units(base, perms)
    return catalog(extends) | units if extends else units

"""Shared oracles and random generators for the test suite."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from spinroots.clifford import Multivector, versor_blades
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


def multivector(pair) -> Multivector:
    """A (parity, quaternion) pair as a Multivector, built through
    ``clifford.versor_blades``."""
    parity, q = pair
    return Multivector(versor_blades(parity, q.components))


def multivectors(vg) -> tuple[Multivector, ...]:
    """The elements of a versor group as Multivectors, in its order."""
    return tuple(map(multivector, vg.elements))


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


def rand_sparse_scalar(rng, bound: int = 9) -> FieldScalar:
    """A random field element with each coordinate zero half the time."""
    return FieldScalar(*(rand_fraction(rng, bound) if rng.random() < 0.5
                         else 0 for _ in range(4)))


def quaternion_coords(q) -> tuple[Fraction, ...]:
    """The 16 rational coordinates of a quaternion: for each component in
    turn, its parts on 1, sqrt2, sqrt5 and sqrt10."""
    return tuple(f for c in q.components for f in (c.a, c.b, c.c, c.d))


def plain_closure(seed, cap: int = 2000) -> tuple[Multivector, ...]:
    """The closure of ``seed`` under geometric products, sorted by
    components: each round multiplies the last round's new elements by
    every seed element, until a round adds nothing."""
    gens = list(seed)
    out = set(gens)
    frontier = gens
    while frontier:
        new = {x * g for x in frontier for g in gens} - out
        out |= new
        frontier = list(new)
        if len(out) > cap:
            raise ValueError(f"plain closure exceeded {cap} elements")
    return tuple(sorted(out, key=lambda m: m.components))


def negate(x):
    return tuple(-a for a in x)


def reflect_oracle(lam, alpha):
    """s_alpha(lam) from the textbook formula, independent of ``coxeter``."""
    zero = FieldScalar(0)
    aa = sum((a * a for a in alpha), zero)
    t = sum((x * a for x, a in zip(lam, alpha)), zero)
    c = (t + t) * aa.inverse()
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


def turn(q, root):
    """``root`` rotated by the integer quaternion q, through the rational
    rotation matrix of q / |q|."""
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    m = ((a*a + b*b - c*c - d*d, 2*(b*c - a*d), 2*(b*d + a*c)),
         (2*(b*c + a*d), a*a - b*b + c*c - d*d, 2*(c*d - a*b)),
         (2*(b*d - a*c), 2*(c*d + a*b), a*a - b*b - c*c + d*d))
    return tuple(sum((Fraction(m[i][j], n) * root[j] for j in range(3)),
                     FieldScalar(0)) for i in range(3))


def is_rational(x: FieldScalar) -> bool:
    return not (x.b or x.c or x.d)


def decompose_in_simple(root, simple) -> tuple[FieldScalar, ...]:
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


# -- exact 3x3 matrices: the reference for orders and the versor census ------

def mat_identity(n: int = 3):
    one, zero = FieldScalar(1), FieldScalar(0)
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def mat_mul(m, k):
    size = len(m)
    return tuple(
        tuple(sum((m[i][t] * k[t][j] for t in range(size)), FieldScalar(0))
              for j in range(size))
        for i in range(size))


def mat_neg(m):
    return tuple(tuple(-v for v in row) for row in m)


def mat_det3(m) -> FieldScalar:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def mat_order(m, cap: int = 120) -> int:
    """Order of m by powering; ValueError past ``cap``."""
    identity = mat_identity(len(m))
    power = m
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = mat_mul(power, m)
    raise ValueError(f"matrix order exceeds cap of {cap}")


def reflection_matrix(alpha):
    """Matrix of s_alpha in the standard basis (columns are images)."""
    n = len(alpha)
    basis = [tuple(FieldScalar(1 if i == j else 0) for j in range(n))
             for i in range(n)]
    cols = [reflect_oracle(e, alpha) for e in basis]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def induced_matrix(versor: Multivector):
    """Exact 3x3 matrix of the orthogonal map the versor performs.

    An even versor R = w + I b, with b = (x, y, z), sends v to
    ((w^2 - |b|^2) v + 2 (b|v) b + 2 w v x b) / (w^2 + |b|^2), a quadratic
    form in its four components.  An odd versor v is I times the even
    versor -I v and acts as minus its rotation.
    """
    c = versor.components
    # blade 5 = s2s3 = I s1, blade 6 = s3s1 = I s2, blade 4 = s1s2 = I s3
    if versor.is_even():
        odd, w, x, y, z = False, c[0], c[5], c[6], c[4]
    elif versor.is_odd():
        odd, w, x, y, z = True, -c[7], c[1], c[2], c[3]
    else:
        raise ValueError("versor must have pure even or pure odd grade")
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm = ww + xx + yy + zz
    if not norm:
        raise ValueError("null versor has no inverse")
    w2, x2 = w + w, x + x  # for the doubled products
    xy, xz, yz = x2 * y, x2 * z, (y + y) * z
    wx, wy, wz = w2 * x, w2 * y, w2 * z
    m = ((ww + xx - yy - zz, xy + wz, xz - wy),
         (xy - wz, ww - xx + yy - zz, yz + wx),
         (xz + wy, yz - wx, ww - xx - yy + zz))
    if norm != FieldScalar(1):
        inv = norm.inverse()
        m = tuple(tuple(v * inv for v in row) for row in m)
    return mat_neg(m) if odd else m


def matrix_census(elements) -> dict:
    """The versor census recomputed from the distinct induced matrices,
    in the form of ``VersorCensus.to_json``."""
    matrices = {induced_matrix(e) for e in elements}
    identity = mat_identity(3)
    minus_identity = mat_neg(identity)
    rotations: Counter = Counter()
    census = Counter()
    central = False
    for m in matrices:
        if mat_det3(m) == FieldScalar(1):
            census["even"] += 1
            if m == identity:
                census["identity"] += 1
            else:
                rotations[mat_order(m)] += 1
        else:
            census["odd"] += 1
            if m == minus_identity:
                central = True
                census["rotoinversions"] += 1
            elif mat_mul(m, m) == identity:
                census["reflections"] += 1
            else:
                census["rotoinversions"] += 1
    return {"transformations": len(matrices),
            "identity": census["identity"],
            "rotations": {str(k): v for k, v in sorted(rotations.items())},
            "reflections": census["reflections"],
            "rotoinversions": census["rotoinversions"],
            "even": census["even"], "odd": census["odd"],
            "central_inversion": central}

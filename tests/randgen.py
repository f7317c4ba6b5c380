"""Seeded exact random data shared by the test modules: rational scalars,
invertible matrices, filtrations, weight-1 Hodge structures and
quaternionic pairs.  Everything is driven by the package's XorShift so
test data is identical on every platform."""

from fractions import Fraction

from hypothesis import settings

from specialk.exact import (
    ExactComplex,
    ExactMatrix,
    Subspace,
    real_rep_antilinear,
    real_rep_linear,
    std_complex_structure,
)
from specialk.hodge import (
    Filtration,
    HodgeStructure,
    QuaternionicStructure,
    RealStructure,
)
from specialk.utils import XorShift

# hypothesis profile of the property tests: derandomized and without an
# example database, so every run draws the same examples and writes nothing
properties = settings(derandomize=True, database=None)


def rational(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def scalar(rng, num=4, den=3):
    return ExactComplex(rational(rng, num, den), rational(rng, num, den))


def vector(rng, n, num=4, den=3):
    return [scalar(rng, num, den) for _ in range(n)]


def matrix(rng, rows, cols=None, num=4, den=3):
    cols = rows if cols is None else cols
    return ExactMatrix([vector(rng, cols, num, den) for _ in range(rows)])


def invertible(rng, n, num=4, den=1):
    while True:
        m = matrix(rng, n, n, num, den)
        if m.rank() == n:
            return m


def real_invertible(rng, n, num=4):
    while True:
        m = ExactMatrix(
            [[ExactComplex(rng.randint(-num, num)) for _ in range(n)] for _ in range(n)]
        )
        if m.rank() == n:
            return m


def columns(m: ExactMatrix):
    return list(m.T.entries)


def swap_permutation(m: int) -> ExactMatrix:
    """Exchange the first and last halves of C^m."""
    k = m // 2
    one, zero = ExactComplex(1), ExactComplex(0)
    return ExactMatrix(
        [
            [
                one if (i < k and j == k + i) or (i >= k and j == i - k) else zero
                for j in range(m)
            ]
            for i in range(m)
        ]
    )


def weight1_structure(rng, m: int) -> HodgeStructure:
    """Random exact pure weight-1 structure on C^m (m even): push the
    standard split and swap-conjugation through a random invertible map."""
    return _pushed_weight1(invertible(rng, m))


def polarized_weight1(rng, m: int):
    """(h, q): a random weight-1 structure as in weight1_structure and the
    pushed-forward standard polarization Q = g^{-T} [[0, -i], [i, 0]] g^{-1},
    which polarizes it."""
    g = invertible(rng, m)
    k = m // 2
    i, zero = ExactComplex(0, 1), ExactComplex(0)
    q0 = ExactMatrix(
        [
            [-i if (a < k and b == k + a) else i if (a >= k and b == a - k) else zero
             for b in range(m)]
            for a in range(m)
        ]
    )
    gi = g.inverse()
    return _pushed_weight1(g), gi.T @ q0 @ gi


def _pushed_weight1(g: ExactMatrix) -> HodgeStructure:
    m = g.rows
    k = m // 2
    r = RealStructure(
        real_rep_linear(g)
        @ real_rep_antilinear(swap_permutation(m))
        @ real_rep_linear(g.inverse())
    )
    cols = columns(g)
    v10 = Subspace.span(m, cols[:k])
    v01 = r.apply_subspace(v10)
    return HodgeStructure(1, {(1, 0): v10, (0, 1): v01}, r)


def standard_quaternionic(n4: int) -> QuaternionicStructure:
    """Left multiplication by i and j on H^{n4/4} in the real coordinates
    used by the real representation of C^{n4/2}."""
    m = n4 // 2
    k = m // 2
    one, zero = ExactComplex(1), ExactComplex(0)
    s = ExactMatrix(
        [
            [
                -one if (i < k and j == k + i) else one if (i >= k and j == i - k) else zero
                for j in range(m)
            ]
            for i in range(m)
        ]
    )
    return QuaternionicStructure(std_complex_structure(m), real_rep_antilinear(s))


def quaternionic_pair(rng, n4: int) -> QuaternionicStructure:
    """Random exact conjugate g (I0, J0) g^{-1} of the standard pair."""
    std = standard_quaternionic(n4)
    g = real_invertible(rng, n4)
    gi = g.inverse()
    return QuaternionicStructure(g @ std.imat @ gi, g @ std.jmat @ gi)


def nested_filtration(rng, n: int, max_extra_steps: int = 3) -> Filtration:
    """Random complete filtration: spans of leading columns of a random
    invertible matrix, with weakly decreasing random dimensions."""
    cols = columns(invertible(rng, n))
    proper = []
    dim = n
    for _ in range(max_extra_steps):
        dim = rng.randint(0, dim)
        if dim == 0:
            break
        proper.append(Subspace.span(n, cols[:dim]))
    return Filtration.from_proper_steps(n, proper)


def pure_structure(rng, weight: int, m: int) -> HodgeStructure:
    """Random exact pure weight-p structure on C^m (m even for odd p): the
    coordinate blocks V^{k,p-k}, with dims symmetric under k -> p - k, and
    the real structure exchanging block k with block p - k, pushed through
    a random invertible map."""
    dims = [0] * (weight + 1)
    left = m
    for k in range((weight + 1) // 2):
        dims[k] = dims[weight - k] = rng.randint(0, left // 2)
        left -= 2 * dims[k]
    if weight % 2 == 0:
        dims[weight // 2] = left
    else:
        dims[weight // 2] += left // 2
        dims[weight - weight // 2] += left // 2
    starts = [sum(dims[:k]) for k in range(weight + 1)]
    target = [starts[weight - k] + t for k in range(weight + 1) for t in range(dims[k])]
    one, zero = ExactComplex(1), ExactComplex(0)
    perm = ExactMatrix([[one if i == target[j] else zero for j in range(m)] for i in range(m)])
    g = invertible(rng, m)
    cols = columns(g)
    r = RealStructure.from_antilinear(g @ perm @ g.conj().inverse())
    comps = {
        (k, weight - k): Subspace.span(m, cols[starts[k]: starts[k] + dims[k]])
        for k in range(weight + 1)
    }
    return HodgeStructure(weight, comps, r)

"""Independent oracles that the tests compare the library against.

None of these is part of `ybk`: each recomputes a library result by the
plainest route, so a fast path in the library is checked against code that
shares none of its shortcuts.  This module is not a test file and is not
collected; test modules import it as `oracles`.
"""

from itertools import product

from ybk.homology import IntegerMatrix
from ybk.solution import alpha_beta, apply_leg


def random_bijection_table(n, rng):
    """A uniformly random bijection table on [n]^2: one `rng.shuffle` of the row-major pairs."""
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    rng.shuffle(pairs)
    return tuple(pairs)


def braid_sides(R, x, y, z):
    """Both sides of the braid relation at (x, y, z): R12 R23 R12 and R23 R12 R23."""
    u1, v1 = R(x, y)
    a, b = R(v1, z)
    c, d = R(u1, a)
    p, q = R(y, z)
    e, f = R(x, p)
    g, h = R(f, q)
    return (c, d, b), (e, g, h)


def least_braid_failure(R):
    """The least triple whose two braid sides differ, or None."""
    span = range(1, R.size + 1)
    for triple in product(span, repeat=3):
        lhs, rhs = braid_sides(R, *triple)
        if lhs != rhs:
            return triple
    return None


def left_derived_formula(R):
    """The table of `left_derived_solution(R)`, from its closed formula.

    (x, y) -> (y, alpha_y(beta_w(x))) with w = alpha_x^{-1}(y), for a
    non-degenerate R.
    """
    ab = alpha_beta(R)
    span = range(1, R.size + 1)
    table = []
    for x in span:
        for y in span:
            w = ab.alpha[x - 1].index(y) + 1
            table.append((y, ab.alpha[y - 1][ab.beta[w - 1][x - 1] - 1]))
    return tuple(table)


def mirror_derived_formula(R):
    """The table of `mirror_derived(R)`, or None when R is not of derived type.

    (alpha_x(y), x) goes to (y, alpha_y(x)), and (y, beta_y(x)) to
    (beta_x(y), x); the flip, of both shapes, takes the first.
    """
    ab = alpha_beta(R)
    span = range(1, R.size + 1)
    identity = tuple(span)
    if all(row == identity for row in ab.beta):
        return tuple((y, ab.alpha[y - 1][x - 1]) for x in span for y in span)
    if all(row == identity for row in ab.alpha):
        return tuple((ab.beta[x - 1][y - 1], x) for x in span for y in span)
    return None


def legs_level_map(R, l, m):
    """The table of `level_map(R, l, m)`, as the explicit product of adjacent legs.

    Each letter v_i of the m-block in turn is pushed to the front of the
    l-block by the legs p = l+i-1 down to i.  Moving an l-block past an
    m-block is a fully commutative permutation, so any order of the swaps
    gives the same map, the library's push walk included.
    """
    rng = range(1, R.size + 1)
    table = []
    for u in product(rng, repeat=l):
        for v in product(rng, repeat=m):
            t = u + v
            for i in range(1, m + 1):
                for p in range(l + i - 1, i - 1, -1):
                    t = apply_leg(R, p, t)
            table.append((t[:m], t[m:]))
    return tuple(table)


def identity(n):
    """The n x n identity matrix."""
    return IntegerMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mul(a, b):
    """The matrix product a * b."""
    assert a.cols == b.rows, (a.rows, a.cols, b.rows, b.cols)
    cols = list(zip(*b.entries)) if b.entries else []
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    return IntegerMatrix(a.rows, b.cols, out)


def smith_normal_form(matrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """U, D, V with U*M*V = D, U and V unimodular, D diagonal with d_1 | d_2 | ...

    Pivoting on the smallest nonzero entry keeps coefficients small; exact
    integer arithmetic throughout.
    """
    if not isinstance(matrix, IntegerMatrix):
        matrix = IntegerMatrix.from_rows(matrix)
    rows, cols = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                value = abs(a[i][j])
                if value and (best is None or value < best):
                    best = value
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        while True:
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        clean = False
            if a[t][t] < 0:
                negate_row(t)
            if not clean:
                continue
            # pivot must divide the remaining block for the invariant chain
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1
    return (
        IntegerMatrix.from_rows(u),
        IntegerMatrix.from_rows(a) if a else IntegerMatrix.zero(rows, cols),
        IntegerMatrix.from_rows(v),
    )

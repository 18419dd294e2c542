"""Integral (co)homology of a braid-relation solution.

The chain group in degree n is the free abelian group on [N]^n.  The
boundary of a basis tuple is the alternating sum over positions i of two
end-moving operations: slide the i-th entry to the right end through R and
drop it, minus slide it to the left end and drop it.  Homology is read off
from invariant factors: with A the boundary out of degree n and B the
boundary into it, H_n is free of rank dim - rank(A) - rank(B) plus one
cyclic summand per invariant factor of B exceeding 1.

Boundaries are sparse with small entries, so the factors come from sparse
unit-pivot elimination followed by a diagonal-only Smith reduction of the
block no unit pivot reaches.  `smith_normal_form`, which also carries the
unimodular transforms, is kept as the oracle the factors are tested
against.  The chain condition is checked by composing sparse boundary
columns.

Everything is exact integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .constructions import decode_word, encode_word
from .errors import (
    BadModulus,
    InvalidParams,
    NotAYbeSolution,
    NotDerivedType,
    PreconditionFailed,
)
from .limits import check_count
from .solution import Solution, alpha_beta, is_ybe


@dataclass(frozen=True, slots=True)
class IntegerMatrix:
    """A dense matrix of exact integers."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape does not match declared dimensions")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        cols = list(zip(*other.entries)) if other.entries else []
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return IntegerMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True, slots=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    `torsion` lists the invariant factors d_1 | d_2 | ..., each > 1.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} violates the divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must exceed 1")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianGroup":
        """Canonicalize a direct sum of cyclic groups (order 0 means infinite)."""
        free = 0
        primes: dict[int, list[int]] = {}
        for order in orders:
            order = abs(int(order))
            if order == 0:
                free += 1
                continue
            if order == 1:
                continue
            for p, e in _factorint(order).items():
                primes.setdefault(p, []).append(e)
        width = max((len(es) for es in primes.values()), default=0)
        factors = []
        for slot in range(width):
            d = 1
            for p, es in primes.items():
                es_sorted = sorted(es, reverse=True)
                if slot < len(es_sorted):
                    d *= p ** es_sorted[slot]
            factors.append(d)
        return cls(free, tuple(sorted(factors)))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True, slots=True)
class OrbitPartition:
    """Blocks of [N] under the group generated by all right-action maps."""

    blocks: tuple[tuple[int, ...], ...]


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


def _columns(matrix: IntegerMatrix) -> list[dict[int, int]]:
    """The nonzero entries of each column, keyed by row."""
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*matrix.entries)]


def invariant_factors(matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, computed without U and V.

    Unit pivots go first, after Dumas-Saunders-Villard (J. Symbolic Comput.
    2001): a +-1 entry clears its column by exact row operations and then
    its row by column operations that touch nothing else, so it adds one
    factor 1 and leaves the Smith form of the matrix without its row and
    column.  The block no unit pivot reaches is reduced densely.

    The elimination runs on the transpose, which has the same factors: a
    degree-n boundary column has at most 2n nonzeros while a row has N
    times as many on average, and short pivot rows keep the fill-in small.
    """
    if not isinstance(matrix, IntegerMatrix):
        matrix = IntegerMatrix.from_rows(matrix)
    rows = {i: row for i, row in enumerate(_columns(matrix)) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = _eliminate_unit_pivots(rows, cols)
    residual = sorted({j for row in rows.values() for j in row})
    block = [[row.get(j, 0) for j in residual] for row in rows.values()]
    return (1,) * units + _diagonal_factors(block)


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> int:
    """Eliminate +-1 pivots in place, short rows and columns first; return how many.

    `cols[j]` holds the rows with a nonzero in column j.  Rows left empty
    are dropped.
    """
    units = 0
    found = True
    while found:
        found = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows.get(i)
            if row is None:
                continue
            pivot = min(
                (j for j, x in row.items() if x == 1 or x == -1),
                key=lambda j: len(cols[j]),
                default=None,
            )
            if pivot is None:
                continue
            del rows[i]
            sign = row.pop(pivot)
            for j in row:
                cols[j].discard(i)
            for k in cols.pop(pivot) - {i}:
                target = rows[k]
                factor = target.pop(pivot) * sign
                for j, x in row.items():
                    y = target.get(j, 0) - factor * x
                    if y:
                        if j not in target:
                            cols[j].add(k)
                        target[j] = y
                    else:
                        del target[j]
                        cols[j].discard(k)
                if not target:
                    del rows[k]
            units += 1
            found = True
    return units


def _diagonal_factors(a: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of a dense block, which is reduced in place."""
    diagonal = []
    while True:
        pivot = min(
            ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
            default=None,
        )
        if pivot is None:
            break
        i, j = pivot
        p = a[i][j]
        # remainders smaller than p become the next pivot; none left means
        # p stands alone in its row and column
        clean = True
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // p
                a[k] = row = [x - q * y for x, y in zip(row, a[i])]
                clean = clean and not row[j]
        prow = a[i]
        for col, x in enumerate(prow):
            if col != j and x:
                q = x // p
                for row in a:
                    row[col] -= q * row[j]
                clean = clean and not prow[col]
        if clean:
            diagonal.append(abs(p))
            del a[i]
            for row in a:
                del row[j]
    # diag(x, y) has Smith form diag(gcd, lcm); one sweep over pairs orders the chain
    for s in range(len(diagonal)):
        for t in range(s + 1, len(diagonal)):
            x, y = diagonal[s], diagonal[t]
            g = gcd(x, y)
            diagonal[s], diagonal[t] = g, x // g * y
    return tuple(diagonal)


def _move_right_drop(R: Solution, word, i: int):
    letters = list(word)
    n = len(letters)
    for p in range(i - 1, n - 1):
        letters[p], letters[p + 1] = R(letters[p], letters[p + 1])
    return tuple(letters[:-1])


def _move_left_drop(R: Solution, word, i: int):
    letters = list(word)
    for p in range(i - 1, 0, -1):
        letters[p - 1], letters[p] = R(letters[p - 1], letters[p])
    return tuple(letters[1:])


def boundary_matrix(R: Solution, n: int) -> IntegerMatrix:
    """The degree-n boundary as a matrix from Z[X^n] to Z[X^(n-1)].

    Columns are indexed by tuples in lexicographic order; the column of a
    tuple accumulates sum_i (-1)^i (move-right-and-drop minus
    move-left-and-drop).  At n = 1 both operations leave the empty tuple, so
    the matrix is zero.
    """
    if not is_ybe(R):
        raise NotAYbeSolution("the chain complex is defined for braid-relation solutions")
    if n < 1:
        raise InvalidParams(f"degree must be at least 1, got {n}")
    size = R.size
    check_count(size ** n, f"degree-{n} chain basis")
    n_cols = size ** n
    n_rows = size ** (n - 1)
    columns = []
    for code in range(n_cols):
        word = decode_word(code + 1, size, n)
        coeffs: dict[int, int] = {}
        sign = -1
        for i in range(1, n + 1):
            right = encode_word(_move_right_drop(R, word, i), size) - 1
            left = encode_word(_move_left_drop(R, word, i), size) - 1
            coeffs[right] = coeffs.get(right, 0) + sign
            coeffs[left] = coeffs.get(left, 0) - sign
            sign = -sign
        columns.append(coeffs)
    entries = tuple(
        tuple(columns[c].get(r, 0) for c in range(n_cols)) for r in range(n_rows)
    )
    return IntegerMatrix(n_rows, n_cols, entries)


def derived_boundary(R: Solution, n: int) -> IntegerMatrix:
    """Boundary from the closed formula available when R(x, y) = (y, x*y).

    d(x_1..x_n) = sum_{i>=2} (-1)^i [drop position i
                                     minus star the prefix by x_i and drop it];
    must agree entrywise with the generic boundary.
    """
    ab = alpha_beta(R)
    identity_row = tuple(range(1, R.size + 1))
    if any(row != identity_row for row in ab.alpha):
        raise NotDerivedType("the closed formula needs the first coordinate to be passive")
    if not is_ybe(R):
        raise NotAYbeSolution("the chain complex is defined for braid-relation solutions")
    size = R.size
    check_count(size ** n, f"degree-{n} chain basis")
    star = ab.beta  # x*y = beta_y(x)
    n_cols = size ** n
    n_rows = size ** (n - 1)
    columns = []
    for code in range(n_cols):
        word = decode_word(code + 1, size, n)
        coeffs: dict[int, int] = {}
        for i in range(2, n + 1):
            sign = 1 if i % 2 == 0 else -1
            plain = word[: i - 1] + word[i:]
            starred = tuple(star[word[i - 1] - 1][x - 1] for x in word[: i - 1]) + word[i:]
            pcode = encode_word(plain, size) - 1
            scode = encode_word(starred, size) - 1
            coeffs[pcode] = coeffs.get(pcode, 0) + sign
            coeffs[scode] = coeffs.get(scode, 0) - sign
        columns.append(coeffs)
    entries = tuple(
        tuple(columns[c].get(r, 0) for c in range(n_cols)) for r in range(n_rows)
    )
    return IntegerMatrix(n_rows, n_cols, entries)


def verify_complex(R: Solution, nmax: int) -> bool:
    """Exact check that consecutive boundaries compose to zero, up to degree nmax."""
    if not is_ybe(R):
        raise NotAYbeSolution("the chain complex is defined for braid-relation solutions")
    matrices = {n: boundary_matrix(R, n) for n in range(1, nmax + 1)}
    return all(_composes_to_zero(matrices[n], matrices[n + 1]) for n in range(1, nmax))


def _composes_to_zero(outer: IntegerMatrix, inner: IntegerMatrix) -> bool:
    """Whether outer * inner is zero, composed column by column on nonzeros.

    Stops at the first column of the product with a nonzero entry.
    """
    outer_cols = _columns(outer)
    for column in _columns(inner):
        image: dict[int, int] = {}
        for r, x in column.items():
            for i, y in outer_cols[r].items():
                image[i] = image.get(i, 0) + x * y
        if any(image.values()):
            return False
    return True


def _check_degree(n: int) -> None:
    if n < 0:
        raise InvalidParams(f"degree must be at least 0, got {n}")


def homology(R: Solution, n: int) -> AbelianGroup:
    """Kernel of the degree-n boundary modulo the image from degree n + 1."""
    _check_degree(n)
    if n == 0:
        return AbelianGroup(1, ())
    size = R.size
    check_count(size ** (n + 1), f"degree-{n + 1} chain basis")
    out_map = boundary_matrix(R, n)
    in_map = boundary_matrix(R, n + 1)
    if not _composes_to_zero(out_map, in_map):
        raise PreconditionFailed(
            "boundaries do not compose to zero; the chain condition failed"
        )
    rank_out = len(invariant_factors(out_map))
    in_factors = invariant_factors(in_map)
    free = size ** n - rank_out - len(in_factors)
    torsion = tuple(d for d in in_factors if d > 1)
    return AbelianGroup(free, torsion)


def cohomology(R: Solution, n: int, modulus: int | None = None) -> AbelianGroup:
    """Cochain cohomology with coefficients in Z (modulus None) or Z/m.

    Cochain maps are transposes of the boundaries; the modular case reduces
    the integral Smith data, one cyclic summand of order gcd(d, m) per
    invariant factor d, plus m-torsion from the free ranks.
    """
    _check_degree(n)
    if modulus is not None and modulus < 2:
        raise BadModulus(f"modulus must be at least 2, got {modulus}")
    size = R.size
    check_count(size ** (n + 1), f"degree-{n + 1} chain basis")
    in_factors = invariant_factors(boundary_matrix(R, n + 1))
    out_factors = invariant_factors(boundary_matrix(R, n)) if n >= 1 else ()
    dim = size ** n if n >= 1 else 1
    free = dim - len(in_factors) - len(out_factors)
    torsion_here = tuple(d for d in out_factors if d > 1)
    if modulus is None:
        return AbelianGroup(free, torsion_here)
    torsion_above = tuple(d for d in in_factors if d > 1)
    orders = [modulus] * free
    orders.extend(gcd(d, modulus) for d in torsion_here)
    orders.extend(gcd(d, modulus) for d in torsion_above)
    return AbelianGroup.from_cyclic_orders(orders)


def beta_orbits(R: Solution) -> OrbitPartition:
    """Orbits of [N] under the group generated by all maps x -> beta_y(x)."""
    size = R.size
    ab = alpha_beta(R)
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for y in range(1, size + 1):
        for x in range(1, size + 1):
            a, b = find(x - 1), find(ab.beta[y - 1][x - 1] - 1)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for x in range(size):
        groups.setdefault(find(x), []).append(x + 1)
    return OrbitPartition(tuple(tuple(groups[root]) for root in sorted(groups)))


def h1_orbit_check(R: Solution) -> bool:
    """First homology must be free on the right-action orbits, with no torsion."""
    ab = alpha_beta(R)
    identity_row = tuple(range(1, R.size + 1))
    if any(row != identity_row for row in ab.alpha):
        raise NotDerivedType("the orbit description needs the first coordinate passive")
    expected = AbelianGroup(len(beta_orbits(R).blocks), ())
    return homology(R, 1) == expected

"""Integral (co)homology of a braid-relation solution.

The chain group in degree n is the free abelian group on [N]^n.  The
boundary of a basis tuple is the alternating sum over positions i of two
end-moving operations: slide the i-th entry to the right end through R and
drop it, minus slide it to the left end and drop it.  Homology is read off
from invariant factors: with A the boundary out of degree n and B the
boundary into it, H_n is free of rank dim - rank(A) - rank(B) plus one
cyclic summand per invariant factor of B exceeding 1.

Boundaries are sparse columns on word codes.  In the full complex both
slides are level maps, read from the integer push tables and walk of
`constructions`: the right slides of every suffix length are the states
of the walk from R's code table, the left slides the push tables grown
one prefix length at a time.  A position or word whose two slides are
equal is skipped.  `homology`, `cohomology`, `verify_complex` and
`h1_orbit_check` check R's table as `make_solution` does before they read
it, and the braid relation once.  The factors come from sparse unit-pivot
elimination followed by a diagonal-only Smith reduction of the block no
unit pivot reaches.  A boundary is factored without the rows of the words
that are unit-pivot columns of the boundary out of its target degree,
which leaves its factors unchanged because the chain condition holds.  It
holds for every braid-relation solution, so `verify_complex` answers from
the theorem and builds nothing.

There are two paths, chosen by the table alone:

- A quandle-type R, whose first coordinate is passive, R(x, y) = (y, x*y),
  with R(x, x) = (x, x), is the derived solution of the quandle x*y.  Its
  words with two equal adjacent letters span a subcomplex that splits off
  (Litherland-Nelson, J. Pure Appl. Algebra 2003).  The normalized
  quotient has the N(N-1)^(n-1) words with no two equal adjacent letters
  as its degree-n basis, and its groups H^N_p fix the whole homology
  through a Kunneth-type formula (Przytycki-Putyra, Eur. J. Math. 2016, as
  recalled), with H_0 = Z:

      H_n = H^N_n + sum_(p+q=n-1, p>=1) H^N_p (x) H_q + sum_(p+q=n-2, p>=1) Tor(H^N_p, H_q)

  Its boundaries d_2 .. d_(n+1) (d_1 is zero) are built one degree from
  the last by the quandle formula, which reads no push table, and
  factored in increasing degree, each without the unit-pivot rows of the
  one below; the quotient is a complex, so the clearing holds there too.
- Any other R is read from the full complex: the boundaries out of and
  into degree n, built from one set of face tables, the second factored
  without the unit-pivot rows of the first.

Everything is exact integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from itertools import cycle, islice
from math import gcd

from ._record import record
from .constructions import _push_levels, _push_walk
from .errors import (
    BadModulus,
    InvalidParams,
    NotAYbeSolution,
    NotDerivedType,
    check_int,
)
from .limits import check_count
from .solution import Solution, _passive_first, alpha_beta, is_ybe, make_solution


@record(slots=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    `torsion` lists the invariant factors d_1 | d_2 | ..., each > 1.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        check_int(self.free_rank, "free rank", 0)
        if type(self.torsion) is not tuple:
            raise InvalidParams(f"torsion must be a tuple of invariant factors, got {self.torsion!r}")
        # checked before the chain, which divides by each factor
        for d in self.torsion:
            check_int(d, "invariant factor", 2)
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvalidParams(f"torsion {self.torsion} violates the divisibility chain")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianGroup":
        """Canonicalize a direct sum of cyclic groups (order 0 means infinite).

        The orders are split over a coprime base instead of into primes:
        with pairwise coprime b, Z/m is the sum of the Z/b**e_b with
        m = prod b**e_b, and every prime power of m is some b**e_b to a
        fixed power, so the factors come out as from a prime factorization.
        """
        try:
            orders = tuple(orders)
        except TypeError as exc:
            raise InvalidParams(f"cyclic orders come as an iterable, got {orders!r}") from exc
        free = 0
        finite = []
        for order in orders:
            check_int(order, "cyclic order")
            order = abs(order)
            if order == 0:
                free += 1
            elif order > 1:
                finite.append(order)
        powers: dict[int, list[int]] = {b: [] for b in _coprime_base(set(finite))}
        for order in finite:
            for b, es in powers.items():
                e = 0
                while order % b == 0:
                    order //= b
                    e += 1
                if e:
                    es.append(e)
        for es in powers.values():
            es.sort(reverse=True)
        width = max((len(es) for es in powers.values()), default=0)
        factors = []
        for slot in range(width):
            d = 1
            for b, es in powers.items():
                if slot < len(es):
                    d *= b ** es[slot]
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


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1, each of `numbers` (all > 1) a product of their powers.

    Factor refinement: a number that shares a factor g with a base element
    b replaces b by g and b / g and goes on as its own cofactor; the product
    of everything pending falls by g each time, so the loop ends.
    """
    base: list[int] = []
    pending = list(numbers)
    while pending:
        m = pending.pop()
        for k, b in enumerate(base):
            g = gcd(m, b)
            if g > 1:
                del base[k]
                pending.extend(x for x in (g, b // g, m // g) if x > 1)
                break
        else:
            base.append(m)
    return base


@record(slots=True)
class OrbitPartition:
    """Blocks of [N] under the group generated by all right-action maps."""

    blocks: tuple[tuple[int, ...], ...]


def _factors_and_pivots(
    columns: list[dict[int, int]], without: set[int] | frozenset[int] = frozenset()
) -> tuple[tuple[int, ...], set[int]]:
    """Invariant factors of these sparse columns with rows `without` left out, and the unit pivots.

    Unit pivots go first, after Dumas-Saunders-Villard (J. Symbolic Comput.
    2001): a +-1 entry clears its column by exact row operations and then
    its row by column operations that touch nothing else, so it adds one
    factor 1 and leaves the Smith form of the matrix without its row and
    column.  The block no unit pivot reaches is reduced densely.

    The elimination runs on the transpose, which has the same factors: a
    degree-n boundary column has at most 2n nonzeros while a row has N
    times as many on average, and short pivot rows keep the fill-in small.
    So the pivots returned are column indices of the matrix, and the
    columns are left unchanged.
    """
    rows = {i: dict(col) for i, col in enumerate(columns) if col}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    for j in without:
        for i in cols.pop(j, ()):
            row = rows[i]
            del row[j]
            if not row:
                del rows[i]
    pivots = _eliminate_unit_pivots(rows, cols)
    residual = sorted({j for row in rows.values() for j in row})
    block = [[row.get(j, 0) for j in residual] for row in rows.values()]
    return (1,) * len(pivots) + _diagonal_factors(block), pivots


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> set[int]:
    """Eliminate +-1 pivots in place, short rows and columns first; return the pivot rows.

    `cols[j]` holds the rows with a nonzero in column j.  Rows left empty
    are dropped; they are not pivot rows.
    """
    pivots = set()
    found = True
    while found:
        found = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows.get(i)
            if row is None:
                continue
            # the first +-1 entry whose column is shortest
            pivot = None
            for j, x in row.items():
                if (x == 1 or x == -1) and (pivot is None or len(cols[j]) < shortest):
                    pivot, shortest = j, len(cols[j])
            if pivot is None:
                continue
            del rows[i]
            sign = row.pop(pivot)
            for j in row:
                cols[j].discard(i)
            targets = cols.pop(pivot)
            targets.discard(i)
            for k in targets:
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
            pivots.add(i)
            found = True
    return pivots


def _diagonal_factors(a: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of a dense block, which is reduced in place."""
    diagonal = []
    while True:
        # the first entry of least absolute value, in row-major order
        least = min((abs(x) for row in a for x in row if x), default=0)
        if not least:
            break
        i, j = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if abs(x) == least)
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


def _face_tables(R: Solution, top: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """N and the suffix and prefix tables that the faces of every degree up to `top` read.

    `suffixes[m][x * N**m + v]` is v', the block v after x crossed it: the
    states of one push walk from R's code table divided by N (at m = 0 the
    face keeps the empty word, code 0).  `prefixes[i - 1][p * N + x]` is u',
    the block p of length i - 1 after x crossed it: the push-table entries
    c = moved * N**(i-1) + u' modulo N**(i-1).
    """
    size = R.size
    walk = _push_walk(next(_push_levels(R)), size)
    suffixes = [[s // size for s in next(walk)] for _ in range(top)]
    prefixes = [[0] * size]
    for i, rows in zip(range(1, top), _push_levels(R)):
        span = size ** i
        prefixes.append([c % span for row in rows for c in row])
    return size, suffixes, prefixes


def _columns(tables, n: int) -> list[dict[int, int]]:
    """The degree-n boundary as sparse columns, column c the word with code c.

    The column of a word accumulates sum_i (-1)^i (right face minus left
    face).  With the code pre * N**(n-i+1) + x * N**(n-i) + suf, the right
    face pushes letter x past the suffix block and drops it, the left face
    pushes the prefix block past x and drops it: both are level maps, read
    from the `_face_tables` block by block.  For each i the right and the
    left faces of all N**n codes are built as two lists, in column order.  A
    position whose two lists are equal adds nothing and is skipped, as is a
    word whose two faces are equal.
    """
    size, suffixes, prefixes = tables
    columns: list[dict[int, int]] = [{} for _ in range(size ** n)]
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        tail = size ** (n - i)
        suf, pre = suffixes[n - i], prefixes[i - 1]
        # code = u * size * tail + rest with u the prefix block: the right face is u * tail + suf[rest];
        # code = p * tail + s with p = u * size + x: the left face is pre[p] * tail + s
        right = [block + v for block in range(0, size ** (i - 1) * tail, tail) for v in suf]
        suffix = range(tail)
        left = [p * tail + s for p in pre for s in suffix]
        if right != left:
            for column, r, q in zip(columns, right, left):
                if r != q:
                    column[r] = column.get(r, 0) + sign
                    column[q] = column.get(q, 0) - sign
    # entries of different positions can still cancel
    return [
        column if all(column.values()) else {r: v for r, v in column.items() if v}
        for column in columns
    ]


def verify_complex(R: Solution, nmax: int) -> bool:
    """Whether each boundary up to degree nmax composes to zero with the next.

    For a braid-relation R they always do (Carter-Elhamdadi-Saito, Fund.
    Math. 2004; Lebed-Vendramin, Adv. Math. 2017).  The boundary is
    sum_i (-1)^i (d^r_i - d^l_i), where d^r_i slides the i-th letter to the
    right end and drops it and d^l_i slides it to the left, so it squares to
    zero once d^e_i d^w_j = d^w_(j-1) d^e_i for i < j and either ends e, w.
    Both sides pull the strands i and j to their ends.  Drawn on all n
    strands before the drops, each side crosses a pair of strands at most
    once, so both are reduced words, and they cross the same pairs, except
    when i and j go to the same end: then one side also crosses i with j,
    which only swaps the two end letters by R before both are dropped.  By
    Matsumoto's theorem (Matsumoto 1964, Tits 1969) two reduced words for
    one permutation are joined by braid moves alone, so R crossings composed
    along them give the same map.  So only the arguments are checked, as
    `_check_complex` does with the degree-nmax basis, and True is returned.
    """
    _check_complex(R, nmax, 0)
    return True


def _check_complex(R: Solution, n: int, above: int) -> None:
    """Check the degree n, the degree-(n + above) basis against the limit, R's table and the braid relation.

    They are checked in that order.  R's table gets `make_solution`'s checks
    and error, so a `Solution` built without it is not read out of range.
    """
    check_int(n, "degree", 0)
    top = n + above
    if top:
        check_count(R.size, f"degree-{top} chain basis", top)
    make_solution(R.size, R.table)
    _require_solution(R)


def _free_and_torsion(R: Solution, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Free rank in degree n and the torsion factors of the boundary maps out of and into it.

    There is no boundary out of degree 0.  Both boundaries read one set of
    face tables, built once per call.  The caller checks the complex
    (`_check_complex`).

    The boundary into degree n is factored without the rows of the words
    that are unit-pivot columns of the boundary out of it, after the
    clearing of persistent homology (Chen-Kerber, EuroCG 2011).  Those
    columns are unitriangular on their pivot entries, so the kernel out of
    degree n lies in a direct summand on which dropping their coordinates is
    an isomorphism.  The image from degree n + 1 lies in that kernel because
    the chain condition holds for every solution (see `verify_complex`).
    """
    tables = _face_tables(R, n + 1)
    out_factors, pivots = _factors_and_pivots(_columns(tables, n) if n else [])
    in_factors = _factors_and_pivots(_columns(tables, n + 1), pivots)[0]
    free = R.size ** n - len(out_factors) - len(in_factors)
    return free, tuple(d for d in out_factors if d > 1), tuple(d for d in in_factors if d > 1)


def _normalized_boundaries(R: Solution):
    """Yield (codes, columns) of the normalized complex of a quandle-type R in degrees 1, 2, 3, ...

    The basis codes are the words with no two equal adjacent letters, in
    code order; column k is the boundary of codes[k].  With R(y, x) =
    (x, y*x), a letter crossing w to the right leaves w as it is, and x
    crossing w to the left turns w into w*x, each letter y into y*x.  So in
    degree p, d(w.x) is d(w).x without its degenerate faces, those ending
    in x, plus (-1)^p (w - w*x); w and w*x are basis words that end in
    other letters than x.  Each word carries its images under every
    letter, by (w.y)*z = (w*z).(y*z).
    """
    size = R.size
    # act[y][x] = y*x
    act = [[pair[1] - 1 for pair in R.table[y * size : (y + 1) * size]] for y in range(size)]
    codes, columns, images = range(size), [{} for _ in range(size)], act
    for sign in cycle((1, -1)):
        yield codes, columns
        words, faces, moved = [], [], []
        for c, column, image in zip(codes, columns, images):
            for x in range(size):
                if x != c % size:
                    face = {f * size + x: v for f, v in column.items() if f % size != x}
                    if image[x] != c:
                        face[c] = sign
                        face[image[x]] = -sign
                    words.append(c * size + x)
                    faces.append(face)
                    moved.append([image[z] * size + act[x][z] for z in range(size)])
        codes, columns, images = words, faces, moved


def _normalized_free_and_torsion(R: Solution, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """`_free_and_torsion` of a quandle-type R, read from its normalized complex.

    The boundaries d_2 .. d_(n+1) of `_normalized_boundaries`, and none
    past them, are factored in increasing degree, each without the rows of
    the unit pivots of the one below, so H^N_p comes out for p <= n.  The
    groups H_0 .. H_n follow from the formula in the module docstring.
    The caller checks the complex (`_check_complex`).
    """
    dims, ranks, torsions, pivots = [1, R.size], [0, 0], [(), ()], set()
    # d_1 is zero
    for codes, columns in islice(_normalized_boundaries(R), 1, n + 1):
        factors, found = _factors_and_pivots(columns, pivots)
        pivots = {codes[k] for k in found}
        dims.append(len(codes))
        ranks.append(len(factors))
        torsions.append(tuple(d for d in factors if d > 1))
    # (free rank, torsion) of H^N_p and of H_p
    normalized = [(dims[p] - ranks[p] - ranks[p + 1], torsions[p + 1]) for p in range(n + 1)]
    groups = [(1, ())]
    for q in range(1, n + 1):
        free, orders = normalized[q][0], list(normalized[q][1])
        for p in range(1, q):
            # H^N_p (x) H_(q-1-p), with Z/s (x) Z/t = Z/gcd(s, t)
            (a, torsion_a), (b, torsion_b) = normalized[p], groups[q - 1 - p]
            free += a * b
            orders += torsion_a * b + torsion_b * a
            orders += [gcd(s, t) for s in torsion_a for t in torsion_b]
            if p < q - 1:
                # Tor(H^N_p, H_(q-2-p)), with Tor(Z/s, Z/t) = Z/gcd(s, t) and no part from Z
                orders += [gcd(s, t) for s in torsion_a for t in groups[q - 2 - p][1]]
        groups.append((free, AbelianGroup.from_cyclic_orders(orders).torsion if orders else ()))
    return groups[n][0], groups[n - 1][1] if n else (), groups[n][1]


def _check_modulus(modulus) -> None:
    if modulus is not None and (type(modulus) is not int or modulus < 2):
        raise BadModulus(f"modulus must be at least 2, got {modulus!r}")


def _groups(R: Solution, n: int, modulus: int | None = None) -> tuple[AbelianGroup, AbelianGroup]:
    """H_n(R) and H^n(R) with coefficients in Z or Z/modulus, from one call of either path.

    The modulus is checked before anything else, then the complex.  A
    quandle-type R is read from its normalized complex, any other from the
    full one.
    """
    _check_modulus(modulus)
    # the larger basis of the two boundary maps' degrees
    _check_complex(R, n, 1)
    path = _normalized_free_and_torsion if _quandle_type(R) else _free_and_torsion
    free, torsion_here, torsion_above = path(R, n)
    if modulus is None:
        group = AbelianGroup(free, torsion_here)
    else:
        orders = [modulus] * free + [gcd(d, modulus) for d in torsion_here + torsion_above]
        group = AbelianGroup.from_cyclic_orders(orders)
    return AbelianGroup(free, torsion_above), group


def homology(R: Solution, n: int) -> AbelianGroup:
    """Kernel of the degree-n boundary modulo the image from degree n + 1."""
    return _groups(R, n)[0]


def cohomology(R: Solution, n: int, modulus: int | None = None) -> AbelianGroup:
    """Cochain cohomology with coefficients in Z (modulus None) or Z/m.

    Cochain maps are transposes of the boundary maps; the modular case reduces
    the integral Smith data, one cyclic summand of order gcd(d, m) per
    invariant factor d, plus m-torsion from the free ranks.
    """
    return _groups(R, n, modulus)[1]


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
    # the passive-first check reads the table
    make_solution(R.size, R.table)
    _require_passive_first(R, "the orbit description")
    expected = AbelianGroup(len(beta_orbits(R).blocks), ())
    return homology(R, 1) == expected


def _require_solution(R: Solution) -> None:
    if not is_ybe(R):
        raise NotAYbeSolution("the chain complex is defined for braid-relation solutions")


def _quandle_type(R: Solution) -> bool:
    """Whether R is passive first with R(x, x) = (x, x): the derived solution of a quandle."""
    n = R.size
    return _passive_first(R) and all(R.table[x * (n + 1)][1] == x + 1 for x in range(n))


def _require_passive_first(R: Solution, what: str) -> None:
    if not _passive_first(R):
        raise NotDerivedType(f"{what} needs the first coordinate to be passive")

"""Bijections of [N] x [N] and the braid relation.

A candidate map R sends a pair (x, y) of 1-based elements to another pair.
Everything here is decided by exhaustive evaluation: the braid relation
R12 R23 R12 = R23 R12 R23 over all N**3 triples, the coordinate-map
decomposition R(x, y) = (alpha_x(y), beta_y(x)), and the structural flags
(involutive, square-free, non-degenerate, derived type) read off from it.

>>> R = builtin("dihedral", 3)
>>> is_ybe(R)
True
>>> report = properties(R)
>>> report.non_degenerate, report.involutive, report.symmetric
(True, False, False)
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product

from ._record import record
from .errors import (
    InvalidParams,
    NotABijection,
    NotDerivedType,
    OutOfRange,
    PositionOutOfRange,
    UnknownName,
    check_int,
)

BUILTIN_NAMES = ("identity", "flip", "double_shift", "shift", "dihedral", "permutation")


@record(slots=True)
class Solution:
    """A bijection of [N]^2, stored row-major with x outer.

    `table[(x-1)*N + (y-1)]` is the output pair R(x, y); all coordinates are
    1-based.  Instances are immutable; build them through `make_solution` so
    the bijection invariant is enforced.
    """

    size: int
    table: tuple[tuple[int, int], ...]

    def __call__(self, x: int, y: int) -> tuple[int, int]:
        n = self.size
        # `type` rather than isinstance: bool is a subclass of int
        if not (type(x) is int and type(y) is int and 1 <= x <= n and 1 <= y <= n):
            raise OutOfRange(f"({x!r}, {y!r}) outside [1..{n}] x [1..{n}]")
        return self.table[(x - 1) * n + (y - 1)]

    def inverse(self) -> "Solution":
        """The inverse bijection (R is invertible by construction)."""
        return Solution(self.size, _inverse_pairs(self.table, self.size, self.size))


@record(slots=True)
class AlphaBeta:
    """Coordinate maps of a solution: alpha[x-1][y-1] = alpha_x(y), beta[y-1][x-1] = beta_y(x)."""

    alpha: tuple[tuple[int, ...], ...]
    beta: tuple[tuple[int, ...], ...]


@record
class PropertyReport:
    """Flags of one solution plus least counterexamples for the failed ones."""

    is_bijection: bool
    is_ybe: bool
    involutive: bool
    square_free: bool
    non_degenerate: bool
    symmetric: bool
    derived_type: bool
    witnesses: dict

    def as_dict(self) -> dict:
        return _report_dict(self)


@record
class StructureReport:
    """Outcome of the three coordinate-map equations equivalent to the braid relation."""

    alpha_homomorphic: bool
    beta_antihomomorphic: bool
    compatible: bool
    witnesses: dict

    @property
    def all_hold(self) -> bool:
        return self.alpha_homomorphic and self.beta_antihomomorphic and self.compatible

    def as_dict(self) -> dict:
        return _report_dict(self, all_hold=self.all_hold)


def _report_dict(report, **extra) -> dict:
    """A report's flags in field order, then `extra`, then its witnesses as sorted lists."""
    flags = {name: getattr(report, name) for name in report.__match_args__ if name != "witnesses"}
    return flags | extra | {"witnesses": {k: list(v) for k, v in sorted(report.witnesses.items())}}


def _check_pairs(table, rows: int, cols: int, label: str = "") -> tuple:
    """The entries of `table` as tuples, checked as a bijection listed row-major.

    Entry (a-1)*cols + (b-1) is the output for (a, b): a pair of ints in
    [1..cols] x [1..rows], repeating no other.  A mapping, string or bytes
    is not read as a table.  Every fault starts with `label`.  Solutions are
    the square case; `kgraph.make_theta_family` checks each theta_ij with
    rows = N_i and cols = N_j.
    """
    if isinstance(table, (Mapping, str, bytes)):
        raise InvalidParams(f"{label}table must be a sequence of pairs, not {type(table).__name__}")
    try:
        entries = [tuple(entry) for entry in table]
    except TypeError as exc:
        raise InvalidParams(f"{label}table must be an iterable of pairs: {exc}") from None
    if len(entries) != rows * cols:
        size = cols if rows == cols else f"{rows} x {cols}"
        raise InvalidParams(
            f"{label}table must have {rows * cols} entries for size {size}, got {len(entries)}"
        )

    def cell(idx):
        a, b = divmod(idx, cols)
        return a + 1, b + 1

    # the first index of each output; its cell is computed only for a message
    seen: dict[tuple[int, int], int] = {}
    for idx, pair in enumerate(entries):
        if len(pair) != 2:
            raise InvalidParams(f"{label}entry {idx} is not a pair: {pair!r}")
        u, v = pair
        # `type` rather than isinstance: bool is a subclass of int
        if not (type(u) is int and type(v) is int):
            a, b = cell(idx)
            raise OutOfRange(f"{label}entry for ({a},{b}) has non-integer coordinates {pair!r}")
        if not (1 <= u <= cols and 1 <= v <= rows):
            a, b = cell(idx)
            span = f"[1..{cols}]^2" if rows == cols else f"[1..{cols}] x [1..{rows}]"
            raise OutOfRange(f"{label}entry for ({a},{b}) is {pair}, outside {span}")
        first = seen.setdefault(pair, idx)
        if first != idx:
            raise NotABijection(f"{label}output pair {pair} produced by both {cell(first)} and {cell(idx)}")
    return tuple(entries)


def make_solution(size: int, table) -> Solution:
    """Validate and freeze a candidate table.

    The table must list exactly size**2 output pairs, row-major with x outer;
    duplicates raise NotABijection with both preimages, out-of-range
    coordinates raise OutOfRange.
    """
    check_int(size, "size", 1)
    return Solution(size, _check_pairs(table, size, size))


def _inverse_pairs(pairs, rows: int, cols: int) -> tuple:
    """The inverse of a table that `_check_pairs(pairs, rows, cols)` accepts.

    Entry (u-1)*rows + (v-1) is the (a, b) whose entry is (u, v): a square
    table inverts to a square table, and theta_ij's table, row-major by
    (s, t), to its inverse, row-major by (t', s').
    """
    inverse = [None] * (rows * cols)
    for idx, (u, v) in enumerate(pairs):
        a, b = divmod(idx, cols)
        inverse[(u - 1) * rows + (v - 1)] = (a + 1, b + 1)
    return tuple(inverse)


def _codes(R: Solution) -> list[int]:
    """R's code table: entry (x-1)*N + (y-1) is (u-1)*N + (v-1) for R(x, y) = (u, v)."""
    n = R.size
    return [(u - 1) * n + v - 1 for u, v in R.table]


def _mod1(value: int, n: int) -> int:
    """Reduce into the 1-based window [1..n]."""
    return (value - 1) % n + 1


def builtin(name: str, size: int, f=None, g=None) -> Solution:
    """One of the catalog families on [size].

    identity, flip, double_shift R(i,j)=(j+1,i+1), shift R(i,j)=(j+1,i),
    dihedral R(i,j)=(j,2j-i) for size >= 3, and permutation R(x,y)=(f(y),g(x))
    for commuting bijections f, g given as 1-based image sequences.
    """
    check_int(size, "size", 1)
    n = size
    if name == "identity":
        table = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    elif name == "flip":
        table = [(y, x) for x in range(1, n + 1) for y in range(1, n + 1)]
    elif name == "double_shift":
        table = [
            (_mod1(y + 1, n), _mod1(x + 1, n))
            for x in range(1, n + 1)
            for y in range(1, n + 1)
        ]
    elif name == "shift":
        table = [
            (_mod1(y + 1, n), x) for x in range(1, n + 1) for y in range(1, n + 1)
        ]
    elif name == "dihedral":
        if n < 3:
            raise InvalidParams(f"dihedral needs size >= 3, got {n}")
        table = [
            (y, _mod1(2 * y - x, n)) for x in range(1, n + 1) for y in range(1, n + 1)
        ]
    elif name == "permutation":
        if f is None or g is None:
            raise InvalidParams("permutation needs both f and g")
        fm = _as_permutation(f, n, "f")
        gm = _as_permutation(g, n, "g")
        for x in range(1, n + 1):
            if fm[gm[x - 1] - 1] != gm[fm[x - 1] - 1]:
                raise InvalidParams("permutation solution needs f and g to commute")
        table = [(fm[y - 1], gm[x - 1]) for x in range(1, n + 1) for y in range(1, n + 1)]
    else:
        raise UnknownName(f"no builtin named {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return make_solution(n, table)


def _as_permutation(seq, n: int, label: str) -> tuple[int, ...]:
    try:
        images = tuple(seq)
    except TypeError:
        raise InvalidParams(f"{label} must be a permutation of 1..{n}, got {seq!r}") from None
    # `type` rather than isinstance: bool is a subclass of int
    if any(type(x) is not int for x in images) or sorted(images) != list(range(1, n + 1)):
        raise InvalidParams(f"{label} must be a permutation of 1..{n}, got {images!r}")
    return images


def _braid_failure(n: int, table):
    """The least triple (x, y, z) where the braid relation fails on a raw table, or None.

    Hot path for censuses.  The braid relation is the triple identity of
    `_triple_failure` with R's table in all three places: a solution is the
    single-vertex k-graph whose commutation maps are all R.
    """
    if n >= 1:
        # triple (1, 1, 1) alone rejects most random tables, before any loop
        # is set up: the kernel runs the same check with y = z = x = 1
        u1, v1 = table[0]
        a, b = table[(v1 - 1) * n]
        c, d = table[(u1 - 1) * n + a - 1]
        e, fo = table[u1 - 1]
        if c != e:
            return (1, 1, 1)
        g, h = table[(fo - 1) * n + v1 - 1]
        if d != g or b != h:
            return (1, 1, 1)
    return _triple_failure(table, table, table, n, n, n)


def _triple_failure(ij, ik, jk, ni: int, nj: int, nk: int):
    """The least point (x, y, z) of [ni] x [nj] x [nk] where the triple identity fails, or None.

    `ij` is the table of a bijection [ni] x [nj] -> [nj] x [ni], row-major
    by (x, y): entry (x-1)*nj + (y-1) is (y', x'), as theta_ij holds it;
    `ik` and `jk` likewise.  The identity is R12 R23 R12 = R23 R12 R23,
    where each crossing of two letters reads the table of their colours.
    Points are visited in lexicographic order, so the first failure is the
    least.

    The -1s of the 1-based letters are folded into row offsets, computed
    once per x and once per y, and z runs 0-based: four of the five reads
    per point are a row offset plus a letter, and the fifth, whose row
    letter changes with z, subtracts the constant `skip`.
    """
    skip = nj + 1
    for x in range(1, ni + 1):
        row_ij = (x - 1) * nj - 1
        row_ik = (x - 1) * nk - 1
        for y in range(1, nj + 1):
            u1, v1 = ij[row_ij + y]
            row_u1 = (u1 - 1) * nk - 1
            row_v1 = (v1 - 1) * nk
            row_y = (y - 1) * nk
            # R12 R23 R12 (x, y, z + 1) = (c, d, b) and R23 R12 R23 (x, y, z + 1) = (e, g, h)
            for z in range(nk):
                a, b = ik[row_v1 + z]
                c, d = jk[row_u1 + a]
                p, q = jk[row_y + z]
                e, fo = ik[row_ik + p]
                g, h = ij[fo * nj + q - skip]
                if c != e or d != g or b != h:
                    return (x, y, z + 1)
    return None


def is_ybe(R: Solution) -> bool:
    """True iff both sides of the braid relation agree on every triple."""
    return _braid_failure(R.size, R.table) is None


def ybe_witness(R: Solution):
    """Least triple (x, y, z) where the braid relation fails, or None."""
    return _braid_failure(R.size, R.table)


def _least(fails, *ranges):
    """The lexicographically least point of product(*ranges) where `fails` holds, or None."""
    return next((point for point in product(*ranges) if fails(*point)), None)


def alpha_beta(R: Solution) -> AlphaBeta:
    """Split R(x, y) = (alpha_x(y), beta_y(x)) into its two coordinate families."""
    n = R.size
    alpha = tuple(
        tuple(R(x, y)[0] for y in range(1, n + 1)) for x in range(1, n + 1)
    )
    beta = tuple(
        tuple(R(x, y)[1] for x in range(1, n + 1)) for y in range(1, n + 1)
    )
    return AlphaBeta(alpha, beta)


def properties(R: Solution) -> PropertyReport:
    """All structural flags, each by direct exhaustive test."""
    make_solution(R.size, R.table)
    span = range(1, R.size + 1)
    ab = alpha_beta(R)
    found = {
        "involutive": _least(lambda x, y: R(*R(x, y)) != (x, y), span, span),
        "square_free": _least(lambda x: R(x, x) != (x, x), span),
        "non_degenerate": _degenerate_row(ab),
        "is_ybe": _braid_failure(R.size, R.table),
    }
    ybe = found["is_ybe"] is None
    involutive = found["involutive"] is None
    non_degenerate = found["non_degenerate"] is None
    return PropertyReport(
        is_bijection=True,
        is_ybe=ybe,
        involutive=involutive,
        square_free=found["square_free"] is None,
        non_degenerate=non_degenerate,
        symmetric=involutive and non_degenerate and ybe,
        derived_type=_passive_first(R) or _passive_first(_flip_conjugate(R)),
        witnesses={key: point for key, point in found.items() if point is not None},
    )


def _degenerate_row(ab: AlphaBeta):
    """("alpha", x) + the 1-based `_first_repeat` of the first non-injective alpha_x,
    else the same for beta, or None when every row is injective."""
    for side, rows in (("alpha", ab.alpha), ("beta", ab.beta)):
        for x, row in enumerate(rows, start=1):
            repeat = _first_repeat(row)
            if repeat is not None:
                return (side, x) + tuple(i + 1 for i in repeat)
    return None


def _first_repeat(keys):
    """(i, j) for the first entry j equal to an earlier entry i, or None."""
    # the set settles most rows at C speed; only a row with a repeat is scanned
    if len(set(keys)) < len(keys):
        seen: dict[int, int] = {}
        for j, key in enumerate(keys):
            if key in seen:
                return seen[key], j
            seen[key] = j
    return None


def _passive_first(R: Solution) -> bool:
    """Whether R(x, y) = (y, .) for every x and y, read from the table: every alpha_x is the identity."""
    n = R.size
    return [pair[0] for pair in R.table] == list(range(1, n + 1)) * n


def check_structure_equations(R: Solution) -> StructureReport:
    """Decide the three coordinate-map equations whose conjunction is the braid relation.

    alpha_x alpha_y = alpha_u alpha_v and beta_y beta_x = beta_v beta_u for
    R(x, y) = (u, v), plus the mixed compatibility equation, each checked on
    every triple.
    """
    ab = alpha_beta(R)
    alpha, beta = ab.alpha, ab.beta

    def alpha_fails(x, y, z):
        u, v = R(x, y)
        return alpha[x - 1][alpha[y - 1][z - 1] - 1] != alpha[u - 1][alpha[v - 1][z - 1] - 1]

    def beta_fails(x, y, z):
        u, v = R(x, y)
        return beta[y - 1][beta[x - 1][z - 1] - 1] != beta[v - 1][beta[u - 1][z - 1] - 1]

    def compatible_fails(x, y, z):
        left = beta[alpha[beta[y - 1][x - 1] - 1][z - 1] - 1][alpha[x - 1][y - 1] - 1]
        right = alpha[beta[alpha[y - 1][z - 1] - 1][x - 1] - 1][beta[z - 1][y - 1] - 1]
        return left != right

    span = range(1, R.size + 1)
    found = {
        "alpha_homomorphic": _least(alpha_fails, span, span, span),
        "beta_antihomomorphic": _least(beta_fails, span, span, span),
        "compatible": _least(compatible_fails, span, span, span),
    }
    return StructureReport(
        *(point is None for point in found.values()),
        {key: point for key, point in found.items() if point is not None},
    )


def apply_leg(R: Solution, i: int, values) -> tuple[int, ...]:
    """Apply R to coordinates (i, i+1) of a tuple, identity elsewhere."""
    check_int(i, "leg position")
    try:
        t = tuple(values)
    except TypeError:
        raise InvalidParams(f"values must be an iterable of letters, got {values!r}") from None
    if not 1 <= i < len(t):
        raise PositionOutOfRange(f"leg position {i} does not fit a tuple of length {len(t)}")
    n = R.size
    for value in t:
        # `type` rather than isinstance: bool is a subclass of int
        if not (type(value) is int and 1 <= value <= n):
            raise OutOfRange(f"tuple entry {value!r} outside [1..{n}]")
    u, v = R(t[i - 1], t[i])
    return t[: i - 1] + (u, v) + t[i + 1 :]


def mirror_derived(R: Solution) -> Solution:
    """Swap the two derived-type shapes: (f_x(y), x) <-> (y, f_y(x)).

    Both directions are the flip-conjugate, which trades alpha for beta.
    The two shapes satisfy the braid relation together or not at all, which
    the test suite uses as an invariant.
    """
    make_solution(R.size, R.table)
    mirrored = _flip_conjugate(R)
    if not (_passive_first(R) or _passive_first(mirrored)):
        raise NotDerivedType("neither coordinate family is the identity")
    return mirrored


def _flip_conjugate(R: Solution) -> Solution:
    """(x, y) -> swap(R(y, x)): alpha_x and beta_x trade places.

    Conjugating by the flip keeps the braid relation and non-degeneracy.
    """
    n = R.size
    # table[x::n] is column x + 1 of the row-major table: R(1, x + 1), R(2, x + 1), ...
    return Solution(n, tuple((v, u) for x in range(n) for u, v in R.table[x::n]))


def qybe_form(R: Solution) -> Solution:
    """Compose with the flip: the quantum-form partner (x, y) -> swap(R(x, y))."""
    n = R.size
    table = [(v, u) for (u, v) in R.table]
    return Solution(n, tuple(table))

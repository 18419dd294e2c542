"""Single-vertex k-graph engine.

A family of bijections theta_ij: [N_i] x [N_j] -> [N_j] x [N_i] (one per
colour pair i < j) presents a candidate unital semigroup through the
commutation relations e^i_s e^j_t = e^j_{t'} e^i_{s'}.  The family presents a
genuine k-graph exactly when the conjugated maps satisfy the generalized
quantum braid identity on every colour triple, which `validate_kgraph`
decides point by point.  Valid families get unique colour-sorted normal
forms, unique degree factorizations, and, under the fiber-uniqueness
properties, unique completions of commuting diamonds.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import combinations, groupby, product

from . import limits
from ._record import record
from .constructions import _check_level, _fixes_every_pair, _level_tables, _push_levels
from .errors import (
    DegreeOutOfRange,
    DegreesOverlap,
    FamilyMismatch,
    InvalidLetter,
    InvalidParams,
    NotAYbeSolution,
    PreconditionFailed,
    PropertyMissing,
    check_int,
)
from .limits import check_count
from .solution import Solution, _check_pairs, _inverse_pairs, _triple_failure, is_ybe, make_solution


@record
class ThetaFamily:
    """Sizes N_1..N_k and one commutation bijection per colour pair i < j.

    `maps[p]` is the table of theta_ij for the p-th pair in lexicographic
    order, row-major by (s, t): entry (s-1)*N_j + (t-1) holds (t', s').
    `inv_maps[p]` holds the inverse, row-major by (t', s').
    """

    k: int
    sizes: tuple[int, ...]
    maps: tuple[tuple[tuple[int, int], ...], ...]
    inv_maps: tuple[tuple[tuple[int, int], ...], ...]

    def pair_index(self, i: int, j: int) -> int:
        # pairs (1,2), (1,3), ..., (1,k), (2,3), ... in lexicographic order
        if not (type(i) is int and type(j) is int and 1 <= i < j <= self.k):
            raise InvalidParams(f"colour pair ({i},{j}) needs 1 <= i < j <= {self.k}")
        before = (i - 1) * self.k - (i - 1) * i // 2
        return before + (j - i - 1)

    def apply(self, i: int, j: int, s: int, t: int) -> tuple[int, int]:
        """theta_ij(s, t) = (t', s'); a letter out of range raises InvalidLetter."""
        pair = self.pair_index(i, j)
        _check_letter(i, s, self.sizes[i - 1])
        _check_letter(j, t, self.sizes[j - 1])
        return self.maps[pair][(s - 1) * self.sizes[j - 1] + (t - 1)]

    def apply_inv(self, i: int, j: int, t: int, s: int) -> tuple[int, int]:
        """theta_ij^{-1}(t, s) = (s', t'); a letter out of range raises InvalidLetter."""
        pair = self.pair_index(i, j)
        _check_letter(j, t, self.sizes[j - 1])
        _check_letter(i, s, self.sizes[i - 1])
        return self.inv_maps[pair][(t - 1) * self.sizes[i - 1] + (s - 1)]

    @cached_property
    def _verdict(self):
        # walked on first use and kept on the instance, so a later call
        # costs an attribute read however large the tables are
        return _validate(self)


def _check_letter(colour: int, letter, size: int) -> None:
    # `type` rather than isinstance: bool is a subclass of int
    if not (type(letter) is int and 1 <= letter <= size):
        raise InvalidLetter(f"letter {letter!r} outside 1..{size} for colour {colour}")


@record(slots=True)
class KWord:
    """An element of the family's semigroup in colour-sorted normal form.

    `blocks[i-1]` is the tuple of colour-i letters; the degree is the tuple
    of block lengths.  Building one, `dataclasses.replace` included, checks
    the word with `_check_letters`' errors: the block count, then that every
    block is iterable, then every letter in order.
    """

    family: ThetaFamily
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # the words the library builds are valid by construction and skip this through `_built`
        family, blocks = self.family, self.blocks
        if len(blocks) != family.k:
            raise InvalidLetter(f"word has {len(blocks)} colour blocks, not {family.k}")
        # a block that is not iterable raises before any letter is read, as in `letters()`
        for block in blocks:
            iter(block)
        for colour, (block, size) in enumerate(zip(blocks, family.sizes), start=1):
            for letter in block:
                _check_letter(colour, letter, size)

    @property
    def degree(self) -> tuple[int, ...]:
        return tuple(len(block) for block in self.blocks)

    def letters(self) -> tuple[tuple[int, int], ...]:
        """Flattened (colour, letter) pairs of the normal form."""
        out = []
        for colour, block in enumerate(self.blocks, start=1):
            out.extend((colour, letter) for letter in block)
        return tuple(out)

    def is_empty(self) -> bool:
        return all(not block for block in self.blocks)

    def __str__(self) -> str:
        tokens = [f"e{c}_{s}" for c, s in self.letters()]
        return " ".join(tokens) if tokens else "1"


def _built(family: ThetaFamily, blocks) -> KWord:
    """A KWord of blocks valid by construction, set as a pickle loads it: no `__post_init__`."""
    word = object.__new__(KWord)
    word.__setstate__((family, blocks))
    return word


def _pair_key_mismatch(keys, k: int, key=lambda i, j: (i, j)) -> str | None:
    """None when `keys` are exactly key(i, j) for the colour pairs i < j of k
    colours, else a message naming one missing or unexpected key.  The pairs
    are walked no further than the keys given: linear in len(keys), not in k**2.
    """
    pairs = (key(i, j) for i, j in combinations(range(1, k + 1), 2))
    count = k * (k - 1) // 2
    if len(keys) < count:
        odd, why = next(pair for pair in pairs if pair not in keys), "missing"
    else:
        expected = set(pairs)
        odd, why = next((given for given in keys if given not in expected), None), "unexpected"
    return None if odd is None else f"expected {count} keys, got {len(keys)}; {odd!r} {why}"


def make_theta_family(k: int, sizes, maps) -> ThetaFamily:
    """Validate tables and freeze a family.

    `maps` is keyed by colour pairs (i, j) with i < j; each table lists
    N_i*N_j output pairs (t', s') row-major by (s, t), checked as
    `make_solution` checks its table: an entry that is not a pair raises
    InvalidParams, one that is not a pair of integers in range OutOfRange,
    and a repeated output NotABijection.
    """
    check_int(k, "k", 2)
    try:
        sizes = tuple(sizes)
    except TypeError:
        raise InvalidParams(f"sizes must be an iterable of {k} integers, got {sizes!r}") from None
    if len(sizes) != k:
        raise InvalidParams(f"sizes must list {k} colour sizes, got {len(sizes)}")
    for size in sizes:
        check_int(size, "colour size", 1)
    if not isinstance(maps, Mapping):
        raise InvalidParams(f"maps must be a mapping from colour pairs to tables, got {type(maps).__name__}")
    mismatch = _pair_key_mismatch(maps.keys(), k)
    if mismatch:
        raise InvalidParams(f"maps must be keyed by the colour pairs (i, j), i < j, of {k} colours: {mismatch}")
    tables = []
    inverses = []
    for i, j in combinations(range(1, k + 1), 2):
        pairs, inverse = _checked_table(maps[(i, j)], sizes[i - 1], sizes[j - 1], f"theta_{i}{j} ")
        tables.append(pairs)
        inverses.append(inverse)
    return ThetaFamily(k, sizes, tuple(tables), tuple(inverses))


def _checked_table(table, ni: int, nj: int, label: str):
    """One theta table checked by `_check_pairs`, with its inverse table."""
    pairs = _check_pairs(table, ni, nj, label)
    return pairs, _inverse_pairs(pairs, ni, nj)


def constant_family(R: Solution, k: int) -> ThetaFamily:
    """All colours share the size N and the table of R.

    R's table is checked and inverted once, as theta_12, and every colour
    pair shares that table and that inverse: time and memory are O(N^2 + k^2),
    and the N^2 table entries plus one slot per pair are held to the limit.
    """
    check_int(k, "k", 2)
    count = k * (k - 1) // 2
    limits.check_count(R.size ** 2 + count, "constant family table and pair slots")
    pairs, inverse = _checked_table(R.table, R.size, R.size, "theta_12 ")
    return ThetaFamily(k, (R.size,) * k, (pairs,) * count, (inverse,) * count)


def _validate(family: ThetaFamily):
    for i, j, kk in combinations(range(1, family.k + 1), 3):
        ij, ik, jk = (family.maps[family.pair_index(*pair)] for pair in ((i, j), (i, kk), (j, kk)))
        point = _triple_failure(ij, ik, jk, *(family.sizes[c - 1] for c in (i, j, kk)))
        if point is not None:
            return False, (i, j, kk, point)
    return True, None


def validate_kgraph(family: ThetaFamily):
    """Decide the generalized braid identity on every colour triple.

    Triple-wise validity is exactly k-graph validity; returns the
    lexicographically least failing triple and point on failure.  Each
    colour triple (i, j, l) is one call of the kernel that decides the
    braid relation, `solution._triple_failure`, on theta_ij, theta_il and
    theta_jl, so a constant family of R fails where `ybe_witness(R)` does.
    """
    return family._verdict


def _check_letters(family: ThetaFamily, word):
    try:
        items = iter(word)
    except TypeError:
        raise InvalidParams(f"word must be an iterable of (colour, letter) pairs, got {word!r}") from None
    letters = []
    for item in items:
        try:
            colour, letter = item
        except (TypeError, ValueError):
            raise InvalidLetter(f"letter {item!r} is not a (colour, letter) pair") from None
        # `type` rather than isinstance: bool is a subclass of int
        if not (type(colour) is int and 1 <= colour <= family.k):
            raise InvalidLetter(f"colour {colour!r} outside 1..{family.k}")
        if not (type(letter) is int and 1 <= letter <= family.sizes[colour - 1]):
            raise InvalidLetter(
                f"letter {letter!r} outside 1..{family.sizes[colour - 1]} for colour {colour}"
            )
        letters.append((colour, letter))
    return letters


def _gate_three_colours(family: ThetaFamily, colours) -> None:
    # with two colours every swap is forced, so normal forms exist for any
    # bijections; three or more colours need the validated triple identity
    if len(set(colours)) >= 3:
        ok, witness = family._verdict
        if not ok:
            raise PreconditionFailed(
                f"family is not a valid k-graph (failing triple {witness});"
                " normal forms with three or more colours are ill-defined"
            )


def _sort(family: ThetaFamily, letters, segments, colours):
    """Sort `letters` into target segments by pushing each letter through blocks.

    `colours[r]` is the colour of segment r, and the p-th letter (c, x) goes
    to the end of segment `segments[p]`, of colour c.  On the way it is pushed
    right to left through every later non-empty segment, one adjacent swap
    per letter passed, each one table read: the swap sequence of an insertion
    sort by segment.  The letters of one colour must come in the order of
    their segments, so no letter meets its own colour.  Returns one letter
    list per segment.

    A colour pair's table is looked up when a letter first crosses that pair,
    and copied once per call behind N_c + 1 empty slots, so a swap is read
    with no -1s.  The copies are kept per table object and stride: the pairs
    of a constant family share one table and one inverse, so a call copies
    at most two tables whatever k is.
    """
    # cross[c][j] moves a colour-c letter x left past a colour-j letter y:
    # theta_cj's inverse for c < j and theta_jc for c > j, whose entry
    # (y - 1) * N_c + x - 1 holds the new colour-c and colour-j letters, read
    # from its copy padded[N_c][id(table)] at y * N_c + x.  Integer keys, so
    # a new pair costs no tuple hash; and the miss path stays inline and
    # short: on CPython 3.11 a block loop body of more than 255 code units
    # costs an EXTENDED_ARG on every block passed, empty or not
    maps, inv_maps, sizes = family.maps, family.inv_maps, family.sizes
    cross = {c: {} for c, _ in letters}
    padded = {sizes[c - 1]: {} for c in cross}
    blocks = [[] for _ in colours]
    for (c, x), r in zip(letters, segments):
        n_c, crossing = sizes[c - 1], cross[c]
        for q in range(len(blocks) - 1, r, -1):
            blk = blocks[q]
            if blk:
                j = colours[q]
                table = crossing.get(j)
                if table is None:
                    table = inv_maps[family.pair_index(c, j)] if c < j else maps[family.pair_index(j, c)]
                    copies, key = padded[n_c], id(table)
                    copy = copies.get(key)
                    if copy is None:
                        copy = copies[key] = (None,) * (n_c + 1) + table
                    table = crossing[j] = copy
                for t in range(len(blk) - 1, -1, -1):
                    x, blk[t] = table[blk[t] * n_c + x]
        blocks[r].append(x)
    return blocks


def normalize(family: ThetaFamily, word) -> KWord:
    """Sort a word of (colour, letter) pairs into the canonical normal form.

    One segment per colour: each letter in turn moves left past the letters
    of greater colour, one adjacent swap each, which is the swap sequence of
    rewriting the leftmost colour-inverted pair.  Length and colour multiset
    are preserved; the number of swaps is the number of colour inversions.
    """
    return _normal_form(family, _check_letters(family, word))


def _normal_form(family: ThetaFamily, letters) -> KWord:
    """The normal form of a sequence of valid (colour, letter) pairs."""
    _gate_three_colours(family, (colour for colour, _ in letters))
    blocks = _sort(family, letters, [colour - 1 for colour, _ in letters], range(1, family.k + 1))
    return _built(family, tuple(tuple(block) for block in blocks))


def _kword(family: ThetaFamily, letters) -> KWord:
    """Group colour-sorted (colour, letter) pairs into the blocks of a KWord."""
    blocks = [[] for _ in range(family.k)]
    for colour, letter in letters:
        blocks[colour - 1].append(letter)
    return _built(family, tuple(tuple(block) for block in blocks))


def empty_word(family: ThetaFamily) -> KWord:
    return _built(family, ((),) * family.k)


def multiply(a: KWord, b: KWord) -> KWord:
    """Concatenate and renormalize."""
    if a.family != b.family:
        raise FamilyMismatch("words come from different families")
    return _normal_form(a.family, a.letters() + b.letters())


def _reshape(family: ThetaFamily, letters, target_colours):
    """The unique equivalent word whose colour sequence is `target_colours`.

    One segment per run of one colour in the target: the t-th letter of each
    colour goes to the run holding the t-th place of that colour, so letters
    of one colour never pass each other.
    """
    colours: list = []
    runs: dict = {}
    for colour, run in groupby(target_colours):
        runs.setdefault(colour, []).extend([len(colours)] * len(list(run)))
        colours.append(colour)
    places = {colour: iter(indices) for colour, indices in runs.items()}
    segments = [next(places[colour]) for colour, _ in letters]
    blocks = _sort(family, letters, segments, colours)
    return [(colour, letter) for colour, block in zip(colours, blocks) for letter in block]


def factorize(a: KWord, m) -> tuple[KWord, KWord]:
    """The unique split a = head * tail with degree(head) = m."""
    family = a.family
    try:
        m = tuple(m)
    except TypeError:
        raise InvalidParams(f"degree vector must be an iterable of {family.k} parts, got {m!r}") from None
    for part in m:
        check_int(part, "degree vector part")
    d = a.degree
    if len(m) != family.k or any(part < 0 for part in m):
        raise DegreeOutOfRange(f"degree vector {m} must have {family.k} non-negative parts")
    if any(part > have for part, have in zip(m, d)):
        raise DegreeOutOfRange(f"degree vector {m} exceeds the word degree {d}")
    _gate_three_colours(family, (colour for colour, part in enumerate(d, start=1) if part))
    head = [colour for colour, part in enumerate(m, start=1) for _ in range(part)]
    tail = [colour for colour, part in enumerate(d, start=1) for _ in range(part - m[colour - 1])]
    # both halves of the target are colour-sorted, so both halves are normal forms
    reshaped = _reshape(family, a.letters(), head + tail)
    return _kword(family, reshaped[:len(head)]), _kword(family, reshaped[len(head):])


def _fibre_failure(family: ThetaFamily, pullback: bool):
    """The least failing (i, j, s, t) (pullback) or (i, j, s', t') (pushout), or None.

    Walks every row (pullback) or column (pushout) of each theta_ij once and
    checks that its first (second) letters are a permutation.  A table object
    that has passed at the same sizes is not walked again, as the pairs of a
    constant family share one: a table that fails does so at its first pair,
    so the least witness is the same.
    """
    passed = set()
    for p, (i, j) in enumerate(combinations(range(1, family.k + 1), 2)):
        table = family.maps[p]
        ni, nj = family.sizes[i - 1], family.sizes[j - 1]
        key = (id(table), ni, nj)
        if key in passed:
            continue
        if pullback:
            lines, size, coord = [table[s * nj:(s + 1) * nj] for s in range(ni)], nj, 0
        else:
            lines, size, coord = [table[t::nj] for t in range(nj)], ni, 1
        for line, entries in enumerate(lines):
            values = [entry[coord] for entry in entries]
            if len(set(values)) < size:
                value = next(v for v in range(1, size + 1) if values.count(v) != 1)
                return (i, j, line + 1, value) if pullback else (i, j, value, line + 1)
        passed.add(key)
    return None


def unique_pullback(family: ThetaFamily):
    """For every colour pair and pair (s, t): exactly one t' with theta_ij(s, t') = (t, _).

    Covers both colour orders: the inverted-order instances reduce to the same
    fibers of the stored sorted-pair tables.
    """
    witness = _fibre_failure(family, pullback=True)
    return witness is None, witness


def unique_pushout(family: ThetaFamily):
    """Dual fiber condition: exactly one s with theta_ij(s, t') = (_, s')."""
    witness = _fibre_failure(family, pullback=False)
    return witness is None, witness


def _squares(family: ThetaFamily, pullback: bool, a: int, b: int) -> list:
    """Solve every commuting square of the colours a != b into one flat table.

    Entry x * N_b + y holds the new letters (x', y') of the square that
    starts from the colour-a letter x and the colour-b letter y: the table
    is row-major by (x, y) behind N_b + 1 empty slots, so `_fill` reads a
    cell with no -1s.  With i < j the two colours, each entry
    theta_ij(x, y) = (y2, x2) is one square: a pullback from (x, y2) to
    (x2, y), a pushout back.  The fibre check has passed, so every entry
    behind the empty slots is filled.
    """
    i, j = sorted((a, b))
    ni, nj, n_b = family.sizes[i - 1], family.sizes[j - 1], family.sizes[b - 1]
    solved = [None] * (n_b + 1 + ni * nj)
    cells = product(range(1, ni + 1), range(1, nj + 1))
    for (x, y), (y2, x2) in zip(cells, family.maps[family.pair_index(i, j)]):
        start, new = ((x, y2), (x2, y)) if pullback else ((x2, y), (x, y2))
        if a > b:
            start, new = start[::-1], new[::-1]
        solved[start[0] * n_b + start[1]] = new
    return solved


def _fill(family: ThetaFamily, mu: KWord, nu: KWord, pullback: bool) -> tuple[KWord, KWord]:
    """Fill the |nu| x |mu| grid of commuting squares one table read at a time.

    Row r has nu's r-th letter on one vertical side and mu's letters (or the
    row before's outputs) along one horizontal side; each square's solve gives
    the opposite two sides.  A pullback starts at the top-left corner with
    mu on top and nu on the left; a pushout starts at the bottom-right corner
    with mu at the bottom and nu on the right.  Every new letter keeps the
    colour of its row or column, so both new sides are already normal forms
    and the grid splits into one rectangle per pair of non-empty colour
    blocks.  Rectangles and their cells are visited from the starting corner,
    so each cell comes after the two it reads.  A rectangle solves its colour
    pair's squares once, by `_squares` with the across colour first, and each
    cell is one read of that table at x * N_b + y, for the across letter x
    and the colour-b letter y.
    """
    across = [list(block) for block in mu.blocks]
    down = [list(block) for block in nu.blocks]
    step = 1 if pullback else -1
    rows = [b for b, block in enumerate(down) if block][::step]
    columns = [a for a, block in enumerate(across) if block][::step]
    for b in rows:
        edges, n_edge = down[b], family.sizes[b]
        for a in columns:
            line, solved = across[a], _squares(family, pullback, a + 1, b + 1)
            cells = range(len(line))[::step]
            for r in range(len(edges))[::step]:
                edge = edges[r]
                for c in cells:
                    line[c], edge = solved[line[c] * n_edge + edge]
                edges[r] = edge
    return _built(family, tuple(map(tuple, across))), _built(family, tuple(map(tuple, down)))


def complete_diamond(
    family: ThetaFamily, mu: KWord, nu: KWord, direction: str
) -> tuple[KWord, KWord]:
    """Complete the factorization diamond spanned by mu and nu.

    pullback: the unique (mu~, nu~) with mu * nu~ = nu * mu~;
    pushout: the unique (mu~, nu~) with mu~ * nu = nu~ * mu.
    Degrees are preserved sidewise.  Needs degree-disjoint words and the
    matching uniqueness property of the family; three or more colours also
    need a valid family, checked after the property.  `_fill` fills the
    grid one rectangle per pair of colour blocks.
    """
    if mu.family != family or nu.family != family:
        raise FamilyMismatch("words do not belong to the given family")
    if any(a and b for a, b in zip(mu.degree, nu.degree)):
        raise DegreesOverlap(f"degrees {mu.degree} and {nu.degree} share a colour")
    if direction not in ("pullback", "pushout"):
        raise InvalidParams(f"direction must be 'pullback' or 'pushout', got {direction!r}")
    pullback = direction == "pullback"
    witness = _fibre_failure(family, pullback)
    if witness:
        raise PropertyMissing(f"family lacks the unique {direction} property at {witness}")
    _gate_three_colours(family, (c for word in (mu, nu) for c, block in enumerate(word.blocks, 1) if block))
    return _fill(family, mu, nu, pullback)


@record(slots=True)
class Periodicity:
    """Either Periodic(order) or AperiodicUpTo(bound)."""

    periodic: bool
    order: int | None
    bound: int

    def __str__(self) -> str:
        if self.periodic:
            return f"Periodic({self.order})"
        return f"AperiodicUpTo({self.bound})"


def periodicity(R: Solution, bound: int = 6) -> Periodicity:
    """Least n <= bound with the level-n solution equal to the identity, if any.

    Non-degenerate solutions never find one; the identity finds n = 1.  A
    left non-degenerate R on N >= 2 points is answered from its table, with
    each level's counts still checked against the limit: every alpha_x is a
    bijection, so each level's alpha_u is a bijection of [N]^n, never the
    identity's constant u.
    """
    make_solution(R.size, R.table)
    if not is_ybe(R):
        raise NotAYbeSolution("periodicity is defined for braid-relation solutions")
    check_int(bound, "bound", 1)
    n, table = R.size, R.table
    # row x of the table lists alpha_x's values as first coordinates
    left_non_degenerate = n > 1 and all(len({u for u, _ in table[x * n : x * n + n]}) == n for x in range(n))
    # one walk builds each level's push table from the one before; both
    # counts of a level are checked before it is built
    levels = None if left_non_degenerate else _push_levels(R)
    limit = None
    for level in range(1, bound + 1):
        limit = _check_level(n, level, limit)
        if levels is not None and _fixes_every_pair(next(levels), n, level):
            return Periodicity(True, level, bound)
    return Periodicity(False, None, bound)


def _is_constant(family: ThetaFamily) -> bool:
    if len(set(family.sizes)) != 1:
        return False
    maps = family.maps
    # equality with the identity shortcut: a shared table costs no hash
    return len(maps) > 0 and maps.count(maps[0]) == len(maps)


def restrict(family: ThetaFamily, l: int, m: int, n: int) -> ThetaFamily:
    """Three-colour family of level maps of a constant family.

    Sizes become (N**l, N**m, N**n) with the level maps as commutation
    bijections; validity is preserved in both directions.
    """
    for exponent in (l, m, n):
        check_int(exponent, "level exponent", 1)
    if not _is_constant(family):
        raise InvalidParams("restrict needs a constant family")
    size = family.sizes[0]
    base = Solution(size, family.maps[0])
    check_count(size, "restricted level tables", max(l + m, l + n, m + n))
    lengths = {(1, 2): (l, m), (1, 3): (l, n), (2, 3): (m, n)}
    tables = _level_tables(base, lengths.values())
    # entry v' * N**a + u' of table (a, b) is the output pair (v', u')
    maps = {pair: [(c // size ** a + 1, c % size ** a + 1) for c in tables[a, b]] for pair, (a, b) in lengths.items()}
    return make_theta_family(3, (size ** l, size ** m, size ** n), maps)

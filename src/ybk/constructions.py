"""New solutions from old ones.

Cartesian products, the two regular extensions, derived solutions, the
higher-level maps on blocks of letters, and the disjoint-union solution
attached to a commutation family.  Words in [N]^n are encoded big-endian:
(a_1, ..., a_n) -> 1 + sum (a_i - 1) * N**(n-i), so encoded order equals
lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, product
from operator import getitem, itemgetter

from ._record import record
from .errors import Degenerate, InvalidParams, NotAYbeSolution, check_int
from .limits import check_count
from .solution import Solution, _codes, _degenerate_row, _flip_conjugate, alpha_beta, is_ybe, make_solution


def encode_word(word, n: int) -> int:
    """Big-endian 1-based integer code of a word over [n].

    A letter outside 1..n, or a bool, raises InvalidParams.
    """
    check_int(n, "alphabet size", 1)
    try:
        letters = iter(word)
    except TypeError:
        raise InvalidParams(f"word must be an iterable of letters, got {word!r}") from None
    code = 0
    for letter in letters:
        # `type` rather than isinstance: bool is a subclass of int
        if not (type(letter) is int and 1 <= letter <= n):
            raise InvalidParams(f"letter {letter!r} outside 1..{n}")
        code = code * n + (letter - 1)
    return code + 1


def decode_word(code: int, n: int, length: int) -> tuple[int, ...]:
    """Inverse of encode_word for words of the given length.

    A code outside 1..n**length, or a length that is negative or not an int,
    raises InvalidParams.
    """
    check_int(n, "alphabet size", 1)
    check_int(length, "word length", 0)
    if type(code) is not int or code < 1:
        raise InvalidParams(f"code {code!r} outside 1..{n ** length}")
    rest = code - 1
    letters = []
    for _ in range(length):
        rest, digit = divmod(rest, n)
        letters.append(digit + 1)
    if rest:
        raise InvalidParams(f"code {code!r} outside 1..{n ** length}")
    return tuple(reversed(letters))


def cartesian_product(rx: Solution, ry: Solution) -> Solution:
    """Componentwise solution on pairs, encoded as (x-1)*|Y| + y."""
    if not is_ybe(rx):
        raise NotAYbeSolution("left factor does not satisfy the braid relation")
    if not is_ybe(ry):
        raise NotAYbeSolution("right factor does not satisfy the braid relation")
    nx, ny = rx.size, ry.size
    size = nx * ny

    def enc(x: int, y: int) -> int:
        return (x - 1) * ny + y

    # loop order (x1, y1, x2, y2) visits encoded pairs row-major
    table = []
    for x1 in range(1, nx + 1):
        for y1 in range(1, ny + 1):
            for x2 in range(1, nx + 1):
                for y2 in range(1, ny + 1):
                    ux, vx = rx(x1, x2)
                    uy, vy = ry(y1, y2)
                    table.append((enc(ux, uy), enc(vx, vy)))
    return make_solution(size, table)


def trivial_extension(rx: Solution, ry: Solution) -> Solution:
    """Disjoint union with flip cross blocks; X keeps 1..|X|, Y is offset by |X|."""
    if not is_ybe(rx):
        raise NotAYbeSolution("left summand does not satisfy the braid relation")
    if not is_ybe(ry):
        raise NotAYbeSolution("right summand does not satisfy the braid relation")
    nx, ny = rx.size, ry.size
    size = nx + ny
    table = []
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            if x <= nx and y <= nx:
                table.append(rx(x, y))
            elif x > nx and y > nx:
                u, v = ry(x - nx, y - nx)
                table.append((u + nx, v + nx))
            else:
                table.append((y, x))
    return make_solution(size, table)


def glued_identity_extension(size_x: int, size_y: int, theta) -> Solution:
    """Identity on each block, a chosen bijection across blocks.

    `theta` lists size_x*size_y output pairs (t', s') in [size_y] x [size_x],
    row-major by (s, t); it is applied on X x Y and its inverse on Y x X.
    This is the disjoint-union solution of the two-colour family.
    """
    # kgraph imports this module, so the import waits for the call
    from .kgraph import make_theta_family

    return disjoint_union_solution(make_theta_family(2, (size_x, size_y), {(1, 2): theta}))


def derived_solution(R: Solution) -> Solution:
    """The derived solution: (x, y) -> (beta_x(alpha_{beta_y^{-1}(x)}(y)), x)."""
    ab = _nondegenerate_maps(R)
    return _derived(R.size, ab.alpha, ab.beta)


def _derived(n: int, alpha, beta) -> Solution:
    beta_inv = tuple(_invert_row(row) for row in beta)
    table = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            w = beta_inv[y - 1][x - 1]
            table.append((beta[x - 1][alpha[w - 1][y - 1] - 1], x))
    return make_solution(n, table)


def left_derived_solution(R: Solution) -> Solution:
    """The mirror-shape variant: (x, y) -> (y, alpha_y(beta_{alpha_x^{-1}(y)}(x))).

    It is the flip-conjugate of the derived solution of R's flip-conjugate,
    whose coordinate maps are R's with alpha and beta trading places.
    """
    ab = _nondegenerate_maps(R)
    return _flip_conjugate(_derived(R.size, ab.beta, ab.alpha))


def _nondegenerate_maps(R: Solution):
    """`alpha_beta(R)`, once R is checked to satisfy the braid relation and be non-degenerate."""
    if not is_ybe(R):
        raise NotAYbeSolution("the input does not satisfy the braid relation")
    ab = alpha_beta(R)
    row = _degenerate_row(ab)
    if row is not None:
        raise Degenerate(f"{row[0]}_{row[1]} is not invertible")
    return ab


def _invert_row(row: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(row)
    for pos, value in enumerate(row, start=1):
        inv[value - 1] = pos
    return tuple(inv)


@record
class LevelMap:
    """The bijection [N]^l x [N]^m -> [N]^m x [N]^l induced by pushing blocks.

    `table[(enc(u)-1) * N**m + (enc(v)-1)]` holds the output pair of words
    (v', u').
    """

    size: int
    left_length: int
    right_length: int
    table: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def apply(self, u, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.size
        try:
            u, v = tuple(u), tuple(v)
            fits = len(u) == self.left_length and len(v) == self.right_length
        except TypeError:
            fits = False
        # `type` rather than isinstance or `in range`: True and 1.0 are not letters
        if not (fits and all(type(letter) is int and 1 <= letter <= n for letter in u + v)):
            raise InvalidParams(
                f"level map on [{n}]^{self.left_length} x [{n}]^{self.right_length}"
                f" cannot apply to {u!r}, {v!r}"
            )
        # the entry of (u, v) is the 0-based big-endian code of the word u + v
        idx = 0
        for letter in u + v:
            idx = idx * n + letter - 1
        return self.table[idx]


def _push_levels(R: Solution):
    """The push tables of one letter crossing a block, for block lengths 1, 2, 3, ... in turn.

    `rows[b][x]` of the table for block length l is moved * N**l + b': the
    0-based letter x, pushed leftward by adjacent swaps (s, t) -> R(s, t) =
    (t', s') through the block with 0-based code b, leaves as the letter
    `moved` and turns the block into b'.

    The length-1 table is R's code table cut into rows.  A block of length
    j + 1 is its first letter s followed by a length-j rest, so its row is
    the rest's row followed by one swap with s: each table costs
    O(N**(length + 1)) from the one before.
    """
    n = R.size
    codes = _codes(R)
    first = [codes[s * n : (s + 1) * n] for s in range(n)]
    rows = first
    span = 1
    while True:
        yield rows
        span *= n
        # the rest's entry m * N**j + rest' meets s as s_row[m] = moved * N + s'
        rows = [[s_row[e // span] * span + e % span for e in rest_row] for s_row in first for rest_row in rows]


def _push_walk(rows: list[list[int]], n: int):
    """The states after pushing 0, 1, 2, ... letters through every block of the push table `rows`.

    Entry u * N**m + v of the m-th list is v' * N**l + u' for the l-block u
    and the word v of length m: the pushed word v' and the block u' after it.
    """
    span = len(rows)
    # a state s = out * N**l + b, with b = s % N**l, becomes
    # (out * N + moved) * N**l + b' = s * N + (moved * N**l + b' - b * N)
    steps = [[e - b * n for e in row] for b, row in enumerate(rows)]
    states = list(range(span))
    while True:
        yield states
        states = [s * n + step for s in states for step in steps[s % span]]


def level_codes(R: Solution, l: int, m: int) -> list[tuple[int, int]]:
    """The level map on 0-based word codes: entry u * N**m + v is (v', u').

    A code is `encode_word(word, N) - 1`.  `level_map` decodes this list into
    words; callers that index by code use it directly.

    Pushes the letters of every m-block in turn through every l-block; all
    blocks sharing a prefix of v share its pushes.
    """
    check_int(l, "block length", 1)
    check_int(m, "block length", 1)
    make_solution(R.size, R.table)
    n = R.size
    check_count(n, f"level map table on [{n}]^{l} x [{n}]^{m}", l + m)
    span = n ** l
    return [divmod(s, span) for s in _level_tables(R, [(l, m)])[l, m]]


def _level_tables(R: Solution, pairs) -> dict[tuple[int, int], list[int]]:
    """The level map of every pair of block lengths (l, m) in `pairs`, on flat codes.

    Entry u * N**m + v of table (l, m) is v' * N**l + u', the `level_codes`
    pair as one code.  One `_push_levels` walk reaches the largest l, and one
    `_push_walk` per distinct l reaches its largest m, so tables that share l
    share their pushes.  The caller checks every table's size against the
    limit.
    """
    rights: dict[int, set[int]] = {}
    for l, m in pairs:
        rights.setdefault(l, set()).add(m)
    tables = {}
    # zip draws from the range first, so nothing past the last wanted table is built
    for l, rows in zip(range(1, max(rights, default=0) + 1), _push_levels(R)):
        if l in rights:
            for m, states in zip(range(max(rights[l]) + 1), _push_walk(rows, R.size)):
                if m in rights[l]:
                    tables[l, m] = states
    return tables


def level_map(R: Solution, l: int, m: int) -> LevelMap:
    """Push an m-block past an l-block by repeated adjacent swaps.

    Works for any bijection: with two colours every applicable swap is forced,
    so the rewriting order cannot matter.
    """
    codes = level_codes(R, l, m)
    letters = range(1, R.size + 1)
    words_l = list(product(letters, repeat=l))
    words_m = list(product(letters, repeat=m))
    table = tuple((words_m[vp], words_l[up]) for vp, up in codes)
    return LevelMap(R.size, l, m, table)


def level_is_identity(R: Solution, n_level: int) -> bool:
    """Whether the level-n solution is the identity, without building it.

    Raises Overflow where `level_solution` would.
    """
    check_int(n_level, "block length", 1)
    make_solution(R.size, R.table)
    _check_level(R.size, n_level)
    return _fixes_every_pair(next(islice(_push_levels(R), n_level - 1, None)), R.size, n_level)


def _check_level(n: int, n_level: int, limit: int | None = None) -> int:
    """Check the level-n ground set and square level map table against the limit; return it."""
    limit = check_count(n, f"level-{n_level} ground set on [{n}]", n_level, limit)
    return check_count(n, f"level map table on [{n}]^{n_level} x [{n}]^{n_level}", 2 * n_level, limit)


def _fixes_every_pair(rows: list[list[int]], n: int, n_level: int) -> bool:
    """Whether the push table `rows` of block length n_level gives the identity level map.

    Pushes each state directly, and stops at the first block u whose pushes
    leave a pair unfixed, as soon as a moved prefix differs from u.
    """
    size = n ** n_level
    for u in range(size):
        states = [u]
        for j in range(n_level - 1, -1, -1):
            # the state out * N**n + b takes the entry moved * N**n + b' to (out * N + moved) * N**n + b'
            states = [(s - s % size) * n + e for s in states for e in rows[s % size]]
            prefix = u // n ** j
            if any(s // size != prefix for s in states):
                return False
        if states != list(range(u * size, u * size + size)):
            return False
    return True


def level_solution(R: Solution, n_level: int) -> Solution:
    """The level solution on [N**n], words encoded big-endian.

    Split the right block as v = v1 v2, with v1 of length a = n // 2 and v2
    of length b = n - a.  v1 crosses u first, by the level table T_a of
    n-blocks, into (v1', u1); then v2 crosses u1 by T_b.  So the level map is
    (id x T_b) o (T_a x id), and its table is two block gathers: the pairs
    under each v1' by T_b into one row, then the blocks of those rows by T_a,
    each cut only as the table reads it, so no list of all N**a * N**n blocks
    is alive.  T_a and T_b are composites of R crossings, so they are
    permutations of their ranges once R is a bijection.  The pairs come from
    one tuple of all of [N**n]^2, kept for the next call at the same size
    when N**n <= 256, so a repeated build allocates no pair tuple.  A
    Solution built without `make_solution` is checked first as
    `make_solution` checks a table, so any fault in it, a repeated output
    included, raises `make_solution`'s error for R itself.
    """
    check_int(n_level, "block length", 1)
    make_solution(R.size, R.table)
    n = R.size
    _check_level(n, n_level)
    size = n ** n_level
    a = n_level // 2
    b = n_level - a
    tables = _level_tables(R, [(n_level, a), (n_level, b)])
    left, right = tables[n_level, a], tables[n_level, b]
    span = n ** b
    width = span * size
    pairs = _pairs(size)
    # block c * N**n + u1 lists the pairs of the codes c * N**(b + n) + T_b[u1 * N**b + v2],
    # v2 in order: slice u1 of row c, the pairs with v1' = c gathered by T_b, taken only as
    # the table reads it; the extra index 0 keeps itemgetter's result a tuple when T_b has one entry
    take = itemgetter(*right, 0)
    gathered = [take(pairs[start : start + width]) for start in range(0, n ** a * width, width)]
    rows = [row for row in gathered for _ in range(size)]
    cuts = [slice(i, i + span) for i in range(0, width, span)] * n ** a
    blocks = map(getitem, map(rows.__getitem__, left), map(cuts.__getitem__, left))
    return Solution(size, tuple(chain.from_iterable(blocks)))


# level tables on at most this many points share their pair tuples: the
# coordinates are CPython's cached small ints, so the N**2 shared pairs cost
# 56 bytes each (3.7 MB at N = 256) and a table built from them allocates none
_SHARED_PAIRS_MAX = 256


def _pairs(size: int):
    """Every pair of [size]^2 in code order: entry (x-1)*size + (y-1) is (x, y)."""
    if size <= _SHARED_PAIRS_MAX:
        return _shared_pairs(size)
    return list(product(range(1, size + 1), repeat=2))


@lru_cache(maxsize=4)
def _shared_pairs(size: int) -> tuple:
    # built as a list first: a tuple grown from an iterator is rescanned by
    # each young collection while it grows
    return tuple(list(product(range(1, size + 1), repeat=2)))


def disjoint_union_solution(family) -> Solution:
    """The block solution of a commutation family on the disjoint union.

    Identity on each diagonal block, theta_ij above the diagonal and its
    inverse below.  Satisfies the braid relation exactly when the family is a
    valid k-graph; it is always involutive and square-free.
    """
    sizes = family.sizes
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    size = offsets[-1]
    colour = []
    for i, block_size in enumerate(sizes, start=1):
        colour.extend([i] * block_size)

    table = []
    for x in range(1, size + 1):
        bx = colour[x - 1]
        s = x - offsets[bx - 1]
        for y in range(1, size + 1):
            by = colour[y - 1]
            t = y - offsets[by - 1]
            if bx == by:
                table.append((x, y))
            elif bx < by:
                tp, sp = family.apply(bx, by, s, t)
                table.append((offsets[by - 1] + tp, offsets[bx - 1] + sp))
            else:
                sp, tp = family.apply_inv(by, bx, s, t)
                table.append((offsets[by - 1] + sp, offsets[bx - 1] + tp))
    return make_solution(size, table)

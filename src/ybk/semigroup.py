"""The structure semigroup of a solution, length by length.

Words over [N] of a fixed length are identified by the congruence generated
by rewriting adjacent pairs through R.  Classes are grown one length from
the last on nodes, not on words: node (C, y) holds the words of a class C
of the last length followed by the letter y.  A node is already closed
under every rewrite but the one at the last position, so a union-find on
the nodes joins only those, once per class of the length before and per
link: R's moved pairs walked cycle by cycle, less the edge that closes each
cycle, which its other edges imply.  The cost of a length follows the
class counts, not the N^n words.  Per-word class lists are expanded from
the nodes only where a caller reads words one by one.  On top of that sit
growth counts, cancellativity checks, the presentation text of the
structure semigroup and group, and the two graded compatibility checks.
Growth and cancellation of an involutive, non-degenerate solution come
from the I-type theorem, not from classes: the walk that lists R's links
also tells whether R is an involution, and only an involution is checked
further.  Every other table runs the engine, which stays the tests' oracle.
Cancellation is one ordered scan of the product tables for the least
witness, cut short by peeling: a column repeat peels to two nodes (C, y),
(C', y) of one class and a row repeat to a row of one letter, so columns
are read only when some slice `node[y::N]` is not injective, and otherwise
the scan stops after the one-letter rows.  The two graded checks are the
braided extension of R to graded pieces and the closed action formulas
for square level maps.  Both answer from the braid relation, by a theorem,
and build no class and no table; the word-by-word loops are the tests'
oracles.
"""

from __future__ import annotations

from itertools import product
from math import comb

from ._record import record
from .errors import InvalidParams, NotAYbeSolution, PreconditionFailed, check_int
from .limits import check_count
from .solution import Solution, _braid_failure, _codes, _first_repeat, is_ybe


@record
class GradedClassSet:
    """Partition of all length-n words over [N] into congruence classes.

    `classes` are tuples of words (each word a tuple of letters), members
    lexicographically sorted, classes sorted by their least member; `reps`
    repeats those least members.  `_nodes` holds the node maps of lengths
    1..n from `_roots_by_length`, classes(m-1) * N entries for length m:
    all `index_of` reads, with no entry per word.  Its underscore keeps it
    out of the repr, equality and hash.
    """

    size: int
    length: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    reps: tuple[tuple[int, ...], ...]
    _nodes: tuple

    def index_of(self, word) -> int:
        """The index in `classes` of the class holding `word`.

        The walk starts at class 0, the empty word's, and each letter y sends
        class c to the class of node (c, y).  Letters are ints, as in
        `encode_word`: `True` or `1.0` equals the integer 1 but is no letter.
        """
        size = self.size
        try:
            word = tuple(word)
        except TypeError:
            # a non-iterable is no word; the message shows it as it came
            pass
        else:
            if len(word) == self.length:
                c = 0
                nodes = self._nodes
                for i, letter in enumerate(word):
                    # `type` rather than isinstance: bool is a subclass of int
                    if type(letter) is not int or not 0 < letter <= size:
                        break
                    c = nodes[i][c * size + letter - 1]
                else:
                    return c
        raise InvalidParams(f"{word!r} is not a word of length {self.length} over [{size}]")


def _links(R: Solution) -> tuple[list[tuple[int, int, int, int]], list[int] | None]:
    """The pairs (x, y) -> (x', y') that `_roots_by_length` joins, 0-based,
    and R's code table when R is an involution, else None.

    R is walked one cycle on pairs at a time, from its least pair, joining
    each pair to its image.  The edge that closes a cycle back to its start
    is left out: the others already join all of the cycle.  A cycle of
    length L costs L - 1 links, not L, so an involutive R costs half.  R is
    an involution when no cycle is longer than 2, that is when no walk links
    a pair past its start, so the walk decides it with no pass of its own.

    A table built without `make_solution` can send a pair to one walked
    before, or to a code that is no pair at all: such an edge ends the walk
    and is kept, and links come in the order of their pairs, so such a
    table gets the classes, or the error, that one link per moved pair gives.
    It is no involution when a walk meets such a code, or a pair sent to
    itself past its start; the walk has then checked every code as an int
    of [0, N^2), and the codes must still be N^2 and distinct.
    """
    size = R.size
    codes = _codes(R)
    cells = len(codes)
    links, walked = [], [False] * cells
    involutive = True
    for start in range(cells):
        q = start
        while not walked[q]:
            walked[q] = True
            c = codes[q]
            if c == start and type(c) is int:
                break
            if c == q:
                # a pair sent to itself past its start, or a code that is no int
                involutive = False
                break
            if q != start:
                involutive = False
            links.append((q // size, q % size, c // size, c % size))
            if type(c) is not int or not 0 <= c < cells:
                involutive = False
                break
            q = c
    links.sort()
    # `type` rather than isinstance: bool is a subclass of int
    if involutive and not (
        type(size) is int and size > 0 and cells == size * size and len(set(codes)) == cells
    ):
        involutive = False
    return links, codes if involutive else None


def _i_type(size: int, involution: list[int]) -> bool:
    """Whether the involution of [N]^2 with code table `involution` is
    non-degenerate and satisfies the braid relation, so that R is of I-type.

    Every alpha_x must be a bijection of [N], and the braid relation must
    hold on the pairs the codes name.  The beta_y are then bijections too:
    a finite involutive solution that is non-degenerate on the left is so
    on the right (Rump, Adv. Math. 2005).
    """
    for i in range(0, len(involution), size):
        if len({c // size for c in involution[i : i + size]}) < size:
            return False
    return _braid_failure(size, [(c // size + 1, c % size + 1) for c in involution]) is None


def _check_word_counts(size: int, maxlen: int) -> None:
    """The engine's word-count checks of lengths 1..maxlen, with no word built.

    The limit is read once, at length 1; maxlen 0 reads none.
    """
    limit = None
    for n in range(1, maxlen + 1):
        limit = check_count(size, f"length-{n} words over [{size}]", n, limit)


def _roots_by_length(R: Solution, limit: int | None = None, links=None):
    """Yield (heads, node) for every length from 1 up, each from the one before.

    Classes of a length are numbered in the order of their least words.
    Node (C, y), at index C*N + y, holds the words of class C of the length
    before followed by the letter y; `node` sends each node to its class and
    `heads` lists each class's least node.  Node (C, y) has least word
    least(C)*N + y, so nodes in index order are in least-word order, and the
    rule "the smaller node wins" keeps every class named by its least member.

    A node is closed under the rewrites at every position but the last.  A
    rewrite there sends u x y to u x' y' where R(x, y) = (x', y'); with u in
    class D of length n-2, it joins node (ext(D, x), y) with (ext(D, x'), y'),
    where ext(D, x), the class of D's words followed by x, is read from the
    node map of length n-1.  A cycle of R on pairs joins all of its pairs
    along its other edges, so its closing edge is implied and `_links` leaves
    it out: length n takes one union per class D and per link, the moved
    pairs less one per cycle.  R is a bijection, so one direction per pair
    covers both.  The empty word is the one class of length 0.

    Each length's word count is checked against the limit before the length
    is built, though no list of that many entries is made.  The limit is
    `limit` when given, otherwise read at the first check.  `links` are
    R's, from `_links`, when the caller has them.
    """
    size = R.size
    if links is None:
        links, _ = _links(R)
    length = 1
    limit = check_count(size, f"length-1 words over [{size}]", 1, limit)
    heads, node = list(range(size)), list(range(size))
    while True:
        yield heads, node
        length += 1
        check_count(size, f"length-{length} words over [{size}]", length, limit)
        # node still maps length n-1: ext[D*N + x] is ext(D, x)
        ext = node
        parent = list(range(len(heads) * size))
        for base in range(0, len(ext), size):
            for x, y, x2, y2 in links:
                a = ext[base + x] * size + y
                b = ext[base + x2] * size + y2
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
        # every node's parent is no larger than itself and in its class
        node, heads = [], []
        for i, up in enumerate(parent):
            if up == i:
                node.append(len(heads))
                heads.append(i)
            else:
                node.append(node[up])


def _lengths_up_to(R: Solution, maxlen: int, limit: int | None = None, links=None) -> list:
    """The (heads, node) pairs of lengths 1..maxlen, from one pass of `_roots_by_length`."""
    # zip draws from the range first, so no length past maxlen is checked or built
    return [level for _, level in zip(range(maxlen), _roots_by_length(R, limit, links))]


def _engine_levels(R: Solution, maxlen: int):
    """The (heads, node) pairs of lengths 1..maxlen, or None when R is of I-type.

    The monoid of an involutive, non-degenerate solution is of I-type: its
    length-n part has C(n+N-1, N-1) elements and it is cancellative
    (Gateva-Ivanova and Van den Bergh, J. Algebra 1998; Etingof, Schedler
    and Soloviev, Duke Math. J. 1999).  For such an R the word counts are
    checked as the engine checks them, and no class is built.  The links of
    the one walk go to the engine otherwise.  maxlen 0 reads no table.
    """
    if maxlen == 0:
        return []
    links, involution = _links(R)
    if involution is not None and _i_type(R.size, involution):
        _check_word_counts(R.size, maxlen)
        return None
    return _lengths_up_to(R, maxlen, links=links)


def _least_word(size: int, levels, n: int, c: int) -> tuple[int, ...]:
    """The least word of class c of length n, by the (heads, node) pairs of lengths 1..n.

    A least word's prefix is least in its class, so class c's head node
    (P, y) gives its last letter y and the class P of the rest.
    """
    word = []
    for heads, _ in reversed(levels[:n]):
        c, y = divmod(heads[c], size)
        word.append(y + 1)
    return tuple(reversed(word))


def _word_classes(size: int, levels):
    """Yield the class of every word, by 0-based code, for each length of `levels`.

    The word with code w*N + y lies in node (class of w, y), and the nodes
    (C, 0..N-1) are one slice of the node map.
    """
    classes = [0]
    for _, node in levels:
        rows = [node[i : i + size] for i in range(0, len(node), size)]
        classes = [c for prefix in classes for c in rows[prefix]]
        yield classes


def _members(items, classes: list[int], count: int) -> list[list]:
    """`items` grouped by their entries of `classes`, in class order."""
    groups: list[list] = [[] for _ in range(count)]
    for item, c in zip(items, classes):
        groups[c].append(item)
    return groups


def graded_elements(R: Solution, n: int) -> GradedClassSet:
    """Classes of length-n words under single-position rewrites.

    Every rewrite preserves length, so lengths never mix; applying R at every
    position of every word covers both rewrite directions because R is a
    bijection.
    """
    check_int(n, "word length", 0)
    size = R.size
    if n == 0:
        return GradedClassSet(size, 0, (((),),), ((),), ())
    limit = check_count(size, f"length-{n} words over [{size}]", n)
    levels = _lengths_up_to(R, n, limit)
    *_, classes = _word_classes(size, levels)
    words = product(range(1, size + 1), repeat=n)
    groups = tuple(map(tuple, _members(words, classes, len(levels[-1][0]))))
    reps = tuple(members[0] for members in groups)
    return GradedClassSet(size, n, groups, reps, tuple(node for _, node in levels))


def growth(R: Solution, maxlen: int) -> tuple[int, ...]:
    """Class counts by length, starting with the empty word: growth[0] = 1.

    An R of I-type has C(n+N-1, N-1) classes of length n, as multisets do.
    """
    check_int(maxlen, "maximum length", 0)
    levels = _engine_levels(R, maxlen)
    if levels is None:
        return tuple(comb(n + R.size - 1, R.size - 1) for n in range(maxlen + 1))
    return (1,) + tuple(len(heads) for heads, _ in levels)


def check_cancellative(R: Solution, maxlen: int):
    """Left and right cancellation on classes up to total length maxlen.

    The class product [a][b] is the class of concatenated representatives,
    well defined because the congruence is stable under concatenation.
    Returns (True, None) or (False, witness) with the least witness
    (side, rep_a, rep_b, rep_c), from `_cancellation_scan`.  An R of
    I-type is cancellative and scans nothing.
    """
    check_int(maxlen, "maximum length", 0)
    levels = _engine_levels(R, maxlen)
    if levels is None:
        return True, None
    return _cancellation_scan(R.size, levels)


def _cancellation_scan(size: int, levels):
    """The least cancellation witness up to total length len(levels), or (True, None).

    One scan of the (la, lb) product tables in order, each table's rows
    before its columns, on the (heads, node) pairs of lengths 1..maxlen.

    Peeling in the node maps cuts the scan short.  A column repeat
    [a][b] = [a'][b] with b = b'y is one at (la, lb - 1) or two nodes
    ([ab'], y), ([a'b'], y) of one class, so it peels to a slice
    `node[y::N]` that is not injective: without one, no column is read.  A
    row repeat [x a'][b] = [x a'][b'] gives [x][a'b] = [x][a'b'] at the same
    total length, so it peels to la = 1: without a column to read, the scan
    stops after la = 1.
    """
    maxlen = len(levels)
    # some letter y fails on the right: the nodes (C, y) of a length share a class
    right = any(
        len(set(node[y::size])) < len(node) // size for _, node in levels for y in range(size)
    )
    # class b's head node (p, y): least(b) is least(p) followed by y
    splits = [[divmod(h, size) for h in heads] for heads, _ in levels[: maxlen - 1]]
    for la in range(1, maxlen if right else min(maxlen, 2)):
        # row a holds the classes of least(a) least(b), b over the classes of length lb
        products = [[a] for a in range(len(levels[la - 1][0]))]
        for lb in range(1, maxlen - la + 1):
            node = levels[la + lb - 1][1]
            products = [[node[row[p] * size + y] for p, y in splits[lb - 1]] for row in products]
            for a, row in enumerate(products):
                repeat = _first_repeat(row)
                if repeat:
                    words = [_least_word(size, levels, lb, b) for b in repeat]
                    return False, ("left", _least_word(size, levels, la, a), *words)
            for b, column in enumerate(zip(*products) if right else ()):
                repeat = _first_repeat(column)
                if repeat:
                    words = [_least_word(size, levels, la, a) for a in repeat]
                    return False, ("right", _least_word(size, levels, lb, b), *words)
    return True, None


@record
class Presentation:
    """Generators and deduplicated relation chains of the structure semigroup/group."""

    generators: tuple[str, ...]
    chains: tuple[tuple[tuple[int, ...], ...], ...]

    def _relations_text(self) -> str:
        rendered = []
        for chain in self.chains:
            rendered.append(" = ".join(" ".join(f"e{x}" for x in word) for word in chain))
        return ", ".join(rendered)

    @property
    def semigroup_text(self) -> str:
        return f"G+ = < {', '.join(self.generators)} | {self._relations_text()} >"

    @property
    def group_text(self) -> str:
        return f"G  = < {', '.join(self.generators)} | {self._relations_text()} > (as a group)"


def presentations(R: Solution) -> Presentation:
    """Defining relations, one chain per nontrivial orbit of R on pairs.

    The relation set x y = y' x' generates, at length two, exactly the orbits
    of R acting on [N]^2; chaining each orbit deduplicates restatements of the
    same relation.  Purely syntactic: no completion is attempted.
    """
    generators = tuple(f"e{x}" for x in range(1, R.size + 1))
    chains = [
        members for members in graded_elements(R, 2).classes if len(members) > 1
    ]
    return Presentation(generators, tuple(chains))


def semigroup_extension_check(R: Solution, maxlen: int):
    """Does R extend to a braided map on the graded semigroup?

    The extension pushes blocks past each other by the level maps; empty
    words swap through unchanged, so the unit rules hold by definition.  It
    must respect the congruence in both arguments and satisfy the braid
    relation on all graded triples of total length at most maxlen.

    For a braid-relation R it always does: a braided set extends to a
    braided monoid on its structure semigroup (Gateva-Ivanova and Majid,
    J. Algebra 2008).  The proof here is Matsumoto's theorem (Matsumoto
    1964, Tits 1969): two reduced words for the same permutation of strands
    are joined by braid moves alone, so R crossings composed along them give
    the same map.  A rewrite inside the l-block followed by the block swap
    beta_{l,m}, and beta_{l,m} followed by the same rewrite m places later,
    are two reduced words for one permutation, so the block map respects the
    congruence on either side; the three block swaps of a graded triple, in
    the two orders, are two more.  So only the argument, the braid relation
    and the word counts of lengths 1..maxlen are checked, with the errors a
    word-by-word check would raise first, and (True, None) is returned.
    """
    check_int(maxlen, "maximum length", 0)
    if not is_ybe(R):
        raise NotAYbeSolution("the extension is defined for braid-relation solutions")
    _check_word_counts(R.size, maxlen)
    return True, None


def action_formula_check(R: Solution, n: int) -> bool:
    """Compare the rewriting engine against the closed action formulas.

    The first output block of the square level map must be the sequence
    h_i = alpha_{beta_{y_1...y_{i-1}}(xbar)}(y_i) and the second block the
    iterated right action beta_{y_1...y_n}(xbar).

    For a braid-relation R they always agree, by Matsumoto's theorem as in
    `semigroup_extension_check`: the engine's push order and the formulas'
    push order are two reduced words for the permutation that swaps two
    n-blocks, so they give the same map.  Only the argument, the braid
    relation and the size of the compared table are checked.
    """
    check_int(n, "block length", 1)
    if not is_ybe(R):
        raise PreconditionFailed("the action formulas presuppose the braid relation")
    check_count(R.size, "action formula comparison", 2 * n)
    return True

"""The structure semigroup of a solution, length by length.

Words over [N] of a fixed length are identified by the congruence generated
by rewriting adjacent pairs through R.  Classes are grown one length from
the last: the class of a word's prefix, with the last letter appended, is
already closed under every rewrite that leaves that letter alone, so a
union-find started from the prefix classes joins only the rewrites at the
last position.  On top of that sit growth counts, cancellativity checks,
the presentation text of the structure semigroup and group, and the two
graded compatibility checks: the braided extension of R to graded pieces
and the closed action formulas for square level maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

from .constructions import decode_word, level_codes, level_map
from .errors import InvalidParams, NotAYbeSolution, PreconditionFailed, check_int
from .limits import check_count
from .solution import Solution, alpha_beta, is_ybe


@dataclass(frozen=True)
class GradedClassSet:
    """Partition of all length-n words over [N] into congruence classes.

    `classes` are tuples of words (each word a tuple of letters), members
    lexicographically sorted, classes sorted by their least member; `reps`
    repeats those least members.
    """

    size: int
    length: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    reps: tuple[tuple[int, ...], ...]
    _index: dict = field(compare=False, repr=False)

    def index_of(self, word) -> int:
        """The index in `classes` of the class holding `word`.

        Letters are ints, as in `encode_word`: `True` or `1.0` hashes like
        the integer 1 but is no letter.
        """
        try:
            word = tuple(word)
            index = self._index[word]
        except (TypeError, KeyError):
            # a non-iterable, or a word with an unhashable letter, is no word either
            index = None
        # `type` rather than isinstance: bool is a subclass of int
        if index is None or any(type(letter) is not int for letter in word):
            raise InvalidParams(f"{word!r} is not a word of length {self.length} over [{self.size}]")
        return index


def _roots_by_length(R: Solution):
    """Yield the class roots of every length from 1 up, each from the one before.

    Entry w of a length's list is the 0-based code of the least word in the
    class of the word with code w.  A length-n word is a length-(n-1) prefix
    followed by one letter x, and the rewrites at every position but the
    last act on the prefix alone.  So the classes under those rewrites are
    the prefix classes with x appended: the union-find starts at
    parent[w*N + x] = root(w)*N + x, and only the rewrites at the last
    position are joined, one union per word whose last pair R moves.  The
    pair table P sends (a, b) at code q = (a-1)N + (b-1) to the code of
    R(a, b); R is a bijection, so one direction per pair covers both.

    Each length's word count is checked against the limit before the length
    is built.
    """
    size = R.size
    moves = []
    for q, (u, v) in enumerate(R.table):
        image = (u - 1) * size + v - 1
        if image != q:
            moves.append((q, image - q))
    letters = range(size)
    square = size * size
    length = 1
    check_count(size, f"length-1 words over [{size}]")
    roots = list(letters)
    while True:
        yield roots
        length += 1
        check_count(size, f"length-{length} words over [{size}]", length)
        total = size ** length
        # every entry points at a code no larger than itself, so roots are least members
        parent = [root * size + x for root in roots for x in letters]
        for q, delta in moves:
            for a in range(q, total, square):
                b = a + delta
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
        # in ascending order every entry's parent is already a root
        for code in range(total):
            parent[code] = parent[parent[code]]
        roots = parent


def _class_roots(R: Solution, n: int) -> list[int]:
    """The least member's code of every length-n word's class, by 0-based code.

    Checks the length-n word count before any work, then takes the last of
    the lengths `_roots_by_length` grows one from another.
    """
    check_count(R.size, f"length-{n} words over [{R.size}]", n)
    return next(islice(_roots_by_length(R), n - 1, None))


def _lengths_up_to(R: Solution, maxlen: int):
    """(length, class roots) for lengths 1..maxlen, from one pass of `_roots_by_length`."""
    # zip draws from the range first, so no length past maxlen is checked or built
    return zip(range(1, maxlen + 1), _roots_by_length(R))


def graded_elements(R: Solution, n: int) -> GradedClassSet:
    """Classes of length-n words under single-position rewrites.

    Every rewrite preserves length, so lengths never mix; applying R at every
    position of every word covers both rewrite directions because R is a
    bijection.
    """
    check_int(n, "word length", 0)
    size = R.size
    if n == 0:
        empty = ((),)
        return GradedClassSet(size, 0, (empty,), ((),), {(): 0})
    roots = _class_roots(R, n)  # checks the word count before any word is built
    words = list(product(range(1, size + 1), repeat=n))
    groups = _groups(roots)
    classes = tuple(tuple(words[code] for code in members) for members in groups)
    reps = tuple(members[0] for members in classes)
    index = {word: class_idx for class_idx, members in enumerate(classes) for word in members}
    return GradedClassSet(size, n, classes, reps, index)


def _groups(roots: list[int]) -> list[list[int]]:
    """Member codes of every class, ascending, classes ordered by least member."""
    # codes ascend and every root is its class's least code
    groups: dict[int, list[int]] = {}
    for code, root in enumerate(roots):
        groups.setdefault(root, []).append(code)
    return list(groups.values())


def _decode(size: int, codes) -> tuple[tuple[int, ...], ...]:
    """Words of (0-based code, length) pairs, for witnesses."""
    return tuple(decode_word(code + 1, size, length) for code, length in codes)


def _reps(roots: list[int]) -> list[int]:
    return [code for code, root in enumerate(roots) if code == root]


def growth(R: Solution, maxlen: int) -> tuple[int, ...]:
    """Class counts by length, starting with the empty word: growth[0] = 1."""
    check_int(maxlen, "maximum length", 0)
    return (1,) + tuple(len(_reps(roots)) for _, roots in _lengths_up_to(R, maxlen))


def check_cancellative(R: Solution, maxlen: int):
    """Left and right cancellation on classes up to total length maxlen.

    The class product [a][b] is the class of concatenated representatives,
    well defined because the congruence is stable under concatenation.
    Returns (True, None) or (False, witness) with the least witness
    (side, rep_a, rep_b, rep_c).
    """
    check_int(maxlen, "maximum length", 0)
    size = R.size
    roots = dict(_lengths_up_to(R, maxlen))
    reps = {n: _reps(roots[n]) for n in roots}
    for la in range(1, maxlen):
        for lb in range(1, maxlen - la + 1):
            whole = roots[la + lb]
            shift = size ** lb
            for a in reps[la]:
                seen: dict[int, int] = {}
                for b in reps[lb]:
                    key = whole[a * shift + b]
                    if key in seen:
                        witness = (a, la), (seen[key], lb), (b, lb)
                        return False, ("left", *_decode(size, witness))
                    seen[key] = b
            for b in reps[lb]:
                seen = {}
                for a in reps[la]:
                    key = whole[a * shift + b]
                    if key in seen:
                        witness = (b, lb), (seen[key], la), (a, la)
                        return False, ("right", *_decode(size, witness))
                    seen[key] = a
    return True, None


@dataclass(frozen=True)
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
    words swap through unchanged, so the unit rules hold by definition.
    Checks that the block map respects the congruence in both arguments and
    the braid relation on all graded triples of total length at most maxlen.
    Returns (True, None) or (False, witness).
    """
    check_int(maxlen, "maximum length", 0)
    if not is_ybe(R):
        raise NotAYbeSolution("the extension is defined for braid-relation solutions")
    size = R.size
    roots = dict(_lengths_up_to(R, maxlen))
    swaps: dict = {}

    def swap(l: int, m: int) -> list[tuple[int, int]]:
        if (l, m) not in swaps:
            swaps[(l, m)] = level_codes(R, l, m)
        return swaps[(l, m)]

    for p in range(1, maxlen):
        for q in range(1, maxlen - p + 1):
            table = swap(p, q)
            roots_p, roots_q = roots[p], roots[q]
            span = size ** q
            for members in _groups(roots_p):
                if len(members) == 1:
                    continue
                base = members[0]
                for v in range(span):
                    vp, up = table[base * span + v]
                    ref = (roots_q[vp], roots_p[up])
                    for u in members[1:]:
                        vp, up = table[u * span + v]
                        if (roots_q[vp], roots_p[up]) != ref:
                            witness = (base, p), (u, p), (v, q)
                            return False, ("respects-left", *_decode(size, witness))
            for members in _groups(roots_q):
                if len(members) == 1:
                    continue
                base = members[0]
                for u in range(size ** p):
                    vp, up = table[u * span + base]
                    ref = (roots_q[vp], roots_p[up])
                    for v in members[1:]:
                        vp, up = table[u * span + v]
                        if (roots_q[vp], roots_p[up]) != ref:
                            witness = (u, p), (base, q), (v, q)
                            return False, ("respects-right", *_decode(size, witness))

    for l in range(1, maxlen - 1):
        for m in range(1, maxlen - l):
            for n in range(1, maxlen - l - m + 1):
                uv, uw, vw = swap(l, m), swap(l, n), swap(m, n)
                span_m, span_n = size ** m, size ** n
                for u in range(size ** l):
                    for v in range(span_m):
                        # left side: swap (u,v), then the two right slots, then again
                        v1, u1 = uv[u * span_m + v]
                        for w in range(span_n):
                            w1, u2 = uw[u1 * span_n + w]
                            w2, v2 = vw[v1 * span_n + w1]
                            wa, va = vw[v * span_n + w]
                            wb, ub = uw[u * span_n + wa]
                            vb, uc = uv[ub * span_m + va]
                            if (w2, v2, u2) != (wb, vb, uc):
                                witness = (u, l), (v, m), (w, n)
                                return False, ("braid", *_decode(size, witness))
    return True, None


def _alpha_word(alpha, word, letter: int) -> int:
    """Left action of a word: alpha_{x_1...x_n} = alpha_{x_1} o ... o alpha_{x_n}."""
    for x in reversed(word):
        letter = alpha[x - 1][letter - 1]
    return letter


def _beta_letter_on_word(alpha, beta, word: tuple, letter: int) -> tuple:
    """Right action of one letter on a word, by the closed product formula."""
    n = len(word)
    out = []
    for i in range(2, n + 1):
        moved = _alpha_word(alpha, word[i - 1 :], letter)
        out.append(beta[moved - 1][word[i - 2] - 1])
    out.append(beta[letter - 1][word[-1] - 1])
    return tuple(out)


def action_formula_check(R: Solution, n: int) -> bool:
    """Compare the rewriting engine against the closed action formulas.

    The first output block of the square level map must be the sequence
    h_i = alpha_{beta_{y_1...y_{i-1}}(xbar)}(y_i) and the second block the
    iterated right action beta_{y_1...y_n}(xbar).
    """
    check_int(n, "block length", 1)
    if not is_ybe(R):
        raise PreconditionFailed("the action formulas presuppose the braid relation")
    size = R.size
    check_count(size, "action formula comparison", 2 * n)
    ab = alpha_beta(R)
    alpha, beta = ab.alpha, ab.beta
    lm = level_map(R, n, n)
    rng = range(1, size + 1)
    for xbar in product(rng, repeat=n):
        for ybar in product(rng, repeat=n):
            hs = []
            current = xbar
            for y in ybar:
                hs.append(_alpha_word(alpha, current, y))
                current = _beta_letter_on_word(alpha, beta, current, y)
            if lm.apply(xbar, ybar) != (tuple(hs), current):
                return False
    return True

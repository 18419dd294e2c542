"""Census of small solutions by pruned search, and classification up to relabeling.

Two equivalences: product conjugacy (a pair of permutations conjugates the
maps) and YB-isomorphism (one permutation relabels the ground set).  Both
come from one depth-first search that assigns permutation images to
positions in order, smallest first, and drops a prefix as soon as a table
cell whose images are all assigned fails; its set-up lists each cell at
the last of its positions, and the order of the positions is data.  The
public searches put tau before rho, so the first labelling found is the
least witness.  Both relations conjugate R by a bijection of [N]^2, so
they answer None at once for two bijections of different cycle types.

The census fills the table one cell at a time under a bijection mask.  A
braid triple reads R(x, y) = (u1, v1), R(y, z) = (p, q), R(v1, z) = (a, b),
R(x, p) = (e, f), R(u1, a) = (c, d) and R(f, q) = (g, h) in turn, holds
when c = e, d = g and b = h, waits on the first unset cell it reads, and is
re-checked only when that cell is set.  A triple that waits late also
narrows the codes its cell may hold:

1. waiting only on R(f, q), it forces R(f, q) = (d, b);
2. waiting on R(u1, a) with R(f, q) set, it fails unless h = b, and
   otherwise forces R(u1, a) = (e, g);
3. waiting on R(u1, a) with R(f, q) unset, it fixes the first coordinate
   of R(u1, a) to e;
4. waiting on R(x, p) with R(u1, a) set, it fixes the first coordinate of
   R(x, p) to c.

Two narrowings that leave a cell no code prune at once, and the search
fills next the unset cell with the fewest unused codes left: a forced cell,
then one whose first coordinate is fixed.  Relabelings that fix 1 keep cell
(1, 1) in place, so that cell only takes the least pair of each orbit under
Sym{2..N}, and the orbits of the tables found under those relabelings make
up the census.

Classification compares each solution with one representative per class,
and only with classes of its cycle type as a permutation of [N]^2, which
both relations preserve.  A class sets its search up once, when it opens,
and each solution's code table is read once, for its cycle type and as the
search target.  Classification asks only whether a witness exists, so its
conjugacy search interleaves tau(x) at position 2x with rho(y) at 2y + 1,
which checks a cell as soon as its two rows are labelled.  Each orbit of
relabelings that fix 1 lies in one class, so the census classifies the
least table of each orbit and gives each class its orbits' tables.  The
exhaustive census is guarded at N <= 4; larger sizes get a seeded, clearly
non-exhaustive sampling mode.
"""

from __future__ import annotations

import random
from itertools import chain, permutations
from math import factorial

from ._record import record
from .errors import InvalidParams, SizeMismatch, SizeTooLarge, check_int
from .solution import Solution, _as_permutation, _braid_failure, _codes

CENSUS_MAX_SIZE = 4


@record
class SolutionCensus:
    """Solutions of one size partitioned by the tagged relation.

    `classes` holds tuples of indices into `solutions`; each class is sorted
    and classes are ordered by their least member, which is also the
    representative (solutions are kept sorted by table, so least index means
    lexicographically least table).
    """

    size: int
    relation: str
    total_bijections: int | None
    solutions: tuple[Solution, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[Solution, ...]:
        return tuple(self.solutions[cls[0]] for cls in self.classes)


def enumerate_solutions(n: int) -> list[Solution]:
    """All braid-relation bijections on [n]^2, in lexicographic table order."""
    return _census(n)[0]


def _census(n: int):
    """The census of size n, sorted by table, and its orbits under the
    relabelings that fix 1, as sorted index tuples in order of least member."""
    check_int(n, "size")
    if n > CENSUS_MAX_SIZE:
        raise SizeTooLarge(
            f"exhaustive search over ({n * n})! bijections is not feasible; the guard is N <= {CENSUS_MAX_SIZE}"
        )
    if n < 1:
        raise SizeTooLarge(f"size must be positive, got {n}")
    cells = n * n
    # a relabeling phi with phi(1) = 1 maps each solution to one whose R(1, 1)
    # is (phi x phi)(R(1, 1)), so cell 0 only takes the least code of each
    # orbit of pairs under Sym{2..n}; the rest come back by closing under the
    # moves, each such phi as a map on codes
    fixing_first = [(0,) + phi for phi in permutations(range(1, n))]
    moves = [[phi[u] * n + phi[v] for u in range(n) for v in range(n)] for phi in fixing_first]
    # table[x*n + y] is the 0-based code u*n + v of R(x+1, y+1), or -1 while unset
    table = [-1] * cells
    # allowed[c]: the bitmask of codes the braid triples still let unset cell c hold
    allowed = [(1 << cells) - 1] * cells
    allowed[0] = sum(1 << code for code in range(cells) if all(move[code] >= code for move in moves))
    # rows[e]: the codes of the pairs whose first coordinate is e
    rows = [((1 << n) - 1) << e * n for e in range(n)]
    # waiting[c]: the braid triples whose check stops at unset cell c
    waiting = [[(x, y, z) for z in range(n)] for x in range(n) for y in range(n)]
    # uv[code] is the 0-based pair (u, v) with code u*n + v
    uv = [divmod(code, n) for code in range(cells)]
    found = []

    def search(unset: int, used: int) -> None:
        if not unset:
            found.append(tuple(table))
            return
        # the unset cell with the fewest unused allowed codes, then the most
        # waiting triples, then the first
        cell, fewest, most = -1, cells + 1, -1
        for c in range(cells):
            if table[c] < 0:
                count = (allowed[c] & ~used).bit_count()
                if count < fewest or count == fewest and len(waiting[c]) > most:
                    cell, fewest, most = c, count, len(waiting[c])
        # nothing waits on a set cell, so this list stays as it is below
        triples = waiting[cell]
        free = allowed[cell] & ~used
        while free:
            bit = free & -free
            free ^= bit
            table[cell] = bit.bit_length() - 1
            moved = []
            narrowed = []
            # each triple reads R(x, y), R(y, z), R(v1, z), R(x, p), R(u1, a),
            # R(f, q) in turn, and waits on the first of them that is unset;
            # it holds when c = e, d = g and b = h, so a failing comparison
            # breaks, a holding triple continues, and a triple that waits late
            # can name what its gap may hold
            for triple in triples:
                x, y, z = triple
                need = 0
                gap = x * n + y
                xy = table[gap]
                if xy >= 0:
                    gap = y * n + z
                    yz = table[gap]
                    if yz >= 0:
                        u1, v1 = uv[xy]
                        p, q = uv[yz]
                        gap = v1 * n + z
                        vz = table[gap]
                        if vz >= 0:
                            a, b = uv[vz]
                            gap = x * n + p
                            xp = table[gap]
                            if xp >= 0:
                                e, f = uv[xp]
                                gap = u1 * n + a
                                ua = table[gap]
                                fq = table[f * n + q]
                                if ua >= 0:
                                    c, d = uv[ua]
                                    if c != e:
                                        break
                                    if fq >= 0:
                                        g, h = uv[fq]
                                        if d != g or b != h:
                                            break
                                        continue
                                    # only R(f, q) is unset: it must be (d, b)
                                    gap = f * n + q
                                    need = 1 << d * n + b
                                elif fq >= 0:
                                    # R(u1, a) must be (e, g), and h must be b
                                    g, h = uv[fq]
                                    if h != b:
                                        break
                                    need = 1 << e * n + g
                                else:
                                    # R(u1, a), which may be R(f, q), starts with e
                                    need = rows[e]
                            else:
                                # R(x, p) starts with c, if R(u1, a) is set
                                ua = table[u1 * n + a]
                                if ua >= 0:
                                    need = rows[ua // n]
                waiting[gap].append(triple)
                moved.append(gap)
                if need:
                    narrowed.append((gap, allowed[gap]))
                    allowed[gap] &= need
                    if not allowed[gap]:
                        break
            else:
                search(unset - 1, used | bit)
            for gap, mask in reversed(narrowed):
                allowed[gap] = mask
            for gap in reversed(moved):
                waiting[gap].pop()
        table[cell] = -1

    search(cells, 0)
    # orbit_of numbers the orbits of the tables found, which may share one;
    # the relabeled table sends move[c] to move[R(c)]
    orbit_of = {}
    orbits = 0
    for codes in found:
        if codes in orbit_of:
            continue
        for move in moves:
            relabeled = [0] * cells
            for c, code in enumerate(codes):
                relabeled[move[c]] = move[code]
            orbit_of[tuple(relabeled)] = orbits
        orbits += 1
    ordered = sorted(orbit_of)
    members = [[] for _ in range(orbits)]
    for i, codes in enumerate(ordered):
        members[orbit_of[codes]].append(i)
    pair = [(u + 1, v + 1) for u, v in uv]
    solutions = [Solution(n, tuple(pair[code] for code in codes)) for codes in ordered]
    return solutions, sorted(map(tuple, members))


def sample_ybe_solutions(n: int, attempts: int, seed: int) -> list[Solution]:
    """Braid-relation survivors among seeded random bijections (non-exhaustive).

    Each draw is the table that `rng.shuffle` makes of the row-major pair
    list of [n]^2, one shuffle of a fresh copy per draw, for
    `rng = random.Random(seed)`, so the sampled list is a fixed function of
    (n, attempts, seed).
    """
    check_int(n, "size")
    if n < 1:
        raise SizeTooLarge(f"size must be positive, got {n}")
    check_int(attempts, "the number of sampled bijections", 0)
    getrandbits = random.Random(seed).getrandbits
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    # Fisher-Yates as Random.shuffle runs it on CPython 3.10 to 3.13: position
    # i swaps with j drawn below i + 1 by Random._randbelow, i.e. from
    # k = (i + 1).bit_length() random bits, drawn again while j > i; the
    # tests hold every draw to Random.shuffle's
    steps = [(i, (i + 1).bit_length()) for i in range(n * n - 1, 0, -1)]
    found = {}
    for _ in range(attempts):
        table = pairs.copy()
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            table[i], table[j] = table[j], table[i]
        if _braid_failure(n, table) is None:
            key = tuple(table)
            found[key] = Solution(n, key)
    return [found[key] for key in sorted(found)]


def product_conjugate(a: Solution, b: Solution):
    """Least (tau, rho) with a o (tau x rho) = (tau x rho) o b, or None."""
    _check_pair(a, b)
    return None if _types_differ(a, b) else _product_conjugate(a, b)


def _product_conjugate(a: Solution, b: Solution):
    n = a.size
    # tau fills positions 0..n-1 and rho positions n..2n-1, so the least
    # labelling is the least (tau, rho); every cell check reads rho
    cells = [(x, n + y, u, n + v) for x, y, u, v in _cells(b)]
    labels = _search(n, [0] * n + [1] * n, _due(cells, 2 * n), _codes(a))
    if labels is None:
        return None
    return labels[:n], labels[n:]


def _is_conjugacy_pair(a: Solution, b: Solution, tau, rho) -> bool:
    n = a.size
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            u, v = b(x, y)
            if a(tau[x - 1], rho[y - 1]) != (tau[u - 1], rho[v - 1]):
                return False
    return True


def is_conjugacy_witness(a: Solution, b: Solution, tau, rho) -> bool:
    """Replay a claimed product-conjugacy witness; tau and rho must be permutations."""
    _check_pair(a, b)
    tau = _as_permutation(tau, a.size, "tau")
    rho = _as_permutation(rho, a.size, "rho")
    return _is_conjugacy_pair(a, b, tau, rho)


def yb_isomorphic(a: Solution, b: Solution):
    """Least phi with (phi x phi) o a = b o (phi x phi), or None."""
    _check_pair(a, b)
    return None if _types_differ(a, b) else _yb_isomorphic(a, b)


def _yb_isomorphic(a: Solution, b: Solution):
    return _search(a.size, [0] * a.size, _due(_cells(a), a.size), _codes(b))


def is_yb_iso_witness(a: Solution, b: Solution, phi) -> bool:
    """Replay a claimed YB-isomorphism witness; phi must be a permutation."""
    _check_pair(a, b)
    phi = _as_permutation(phi, a.size, "phi")
    # a relabeling is the product conjugacy (phi, phi), with a and b swapped
    return _is_conjugacy_pair(b, a, phi, phi)


def _check_pair(a, b) -> None:
    for label, value in (("a", a), ("b", b)):
        if not isinstance(value, Solution):
            raise InvalidParams(f"{label} must be a Solution, got {value!r}")
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")


def _cells(solution: Solution):
    """(x, y, u, v), 0-based, for every cell R(x, y) = (u, v)."""
    n = solution.size
    for idx, (u, v) in enumerate(solution.table):
        x, y = divmod(idx, n)
        yield x, y, u - 1, v - 1


def _due(cells, size: int) -> list[list]:
    """The search's set-up: the cells over positions 0..size-1, each listed
    at the last of its four positions, where the search checks it."""
    due = [[] for _ in range(size)]
    for cell in cells:
        due[max(cell)].append(cell)
    return due


def _search(n: int, blocks: list[int], due: list[list], target: list[int]):
    """Least labels L, the n positions p of each block b (blocks[p] == b)
    labelled by a permutation of [n], with target[L[i]*n + L[j]] ==
    L[k]*n + L[l] for every cell (i, j, k, l) in due.

    Positions are assigned in order, values smallest first, and each cell is
    checked when its last position is assigned, so the first full assignment
    found is the least.  Returns 1-based labels, or None.
    """
    size = len(blocks)
    labels = [0] * size
    used = [0, 0]
    depth, start = 0, 0
    while depth < size:
        block = blocks[depth]
        mask = used[block]
        for value in range(start, n):
            if mask >> value & 1:
                continue
            labels[depth] = value
            for i, j, k, l in due[depth]:
                if target[labels[i] * n + labels[j]] != labels[k] * n + labels[l]:
                    break
            else:
                used[block] = mask | 1 << value
                depth, start = depth + 1, 0
                break
        else:
            # no value fits here: free the previous position and move it on
            depth -= 1
            if depth < 0:
                return None
            value = labels[depth]
            used[blocks[depth]] &= ~(1 << value)
            start = value + 1
    return tuple(value + 1 for value in labels)


def _class_search(rep: Solution, relation: str):
    """The set-up of one class: a test of whether a solution, given by its
    code table, is related to the class's representative rep."""
    n = rep.size
    if relation == "yb_iso":
        blocks, cells = [0] * n, _cells(rep)
    else:
        # only existence is asked, so tau(x) at position 2x and rho(y) at
        # 2y + 1 let a cell be checked as soon as both its rows are labelled
        blocks = [0, 1] * n
        cells = [(2 * x, 2 * y + 1, 2 * u, 2 * v + 1) for x, y, u, v in _cells(rep)]
    due = _due(cells, len(blocks))
    return lambda target: _search(n, blocks, due, target) is not None


def _fingerprint(solution: Solution):
    """The cycle type of R as a permutation of [N]^2, or None if R is not one."""
    return _cycle_type(_codes(solution))


def _cycle_type(codes: list[int]):
    """The cycle type of a code table as a permutation, or None if it is not one.

    Both relations conjugate R by a bijection of [N]^2 (phi x phi for
    YB-isomorphism, tau x rho for product conjugacy), so equivalent
    solutions share it.  A map that is not a bijection is never equivalent
    to one, and None leaves such maps to the witness search.
    """
    seen = [False] * len(codes)
    lengths = []
    for start in range(len(codes)):
        if seen[start]:
            continue
        code, length = start, 0
        while not seen[code]:
            seen[code] = True
            code = codes[code]
            length += 1
        # a walk that ends anywhere but its start entered another walk
        if code != start:
            return None
        lengths.append(length)
    return tuple(sorted(lengths))


def _types_differ(a: Solution, b: Solution) -> bool:
    """True when a and b are bijections of [N]^2 of different cycle types, so neither relation joins them."""
    ta, tb = _fingerprint(a), _fingerprint(b)
    return ta != tb and ta is not None and tb is not None


def _check_relation(relation) -> None:
    if relation not in ("yb_iso", "conjugacy"):
        raise InvalidParams(f"relation must be 'yb_iso' or 'conjugacy', got {relation!r}")


def _partition(ordered: list[Solution], relation: str) -> list[list[int]]:
    """The classes of solutions sorted by table, as index lists in order of
    their least member.

    Both relations are group actions, so each solution is compared with one
    representative per class: the least member of each earlier class of its
    cycle type as a permutation of [N]^2, which both relations preserve.  It
    joins the first class with a witness, or opens a new one, whose search
    is set up there.
    """
    classes: list[list[int]] = []
    # the (members, search) of the classes of each cycle type, in order of their least member
    by_type: dict = {}
    for i, s in enumerate(ordered):
        codes = _codes(s)
        candidates = by_type.setdefault(_cycle_type(codes), [])
        for members, related in candidates:
            if related(codes):
                members.append(i)
                break
        else:
            classes.append([i])
            candidates.append((classes[-1], _class_search(s, relation)))
    return classes


def classify(solutions, relation: str, total_bijections: int | None = None) -> SolutionCensus:
    """Partition solutions of one size by the chosen relation.

    relation is 'yb_iso' or 'conjugacy'.  Each solution, in table order,
    joins the first earlier class whose representative it is related to,
    or opens a new one.
    """
    _check_relation(relation)
    if total_bijections is not None:
        check_int(total_bijections, "the number of bijections", 0)
    try:
        items = iter(solutions)
    except TypeError:
        raise InvalidParams(f"solutions must be an iterable of Solution, got {solutions!r}") from None
    ordered = list(items)
    for s in ordered:
        if not isinstance(s, Solution):
            raise InvalidParams(f"solutions must hold only Solution objects, got {s!r}")
    ordered.sort(key=lambda s: s.table)
    if not ordered:
        return SolutionCensus(0, relation, total_bijections, (), ())
    size = ordered[0].size
    if any(s.size != size for s in ordered):
        raise SizeMismatch("all solutions must share one size")
    classes = _partition(ordered, relation)
    return SolutionCensus(size, relation, total_bijections, tuple(ordered), tuple(map(tuple, classes)))


def census(n: int, relation: str) -> SolutionCensus:
    """Exhaustive census of size n classified by the chosen relation.

    A relabeling phi that fixes 1 is a YB-isomorphism and the product
    conjugacy (phi, phi), so each orbit of such relabelings lies in one
    class: the census classifies the least table of each orbit and gives
    each class the tables of its orbits.
    """
    _check_relation(relation)
    solutions, orbits = _census(n)
    classes = _partition([solutions[orbit[0]] for orbit in orbits], relation)
    expanded = (tuple(sorted(chain.from_iterable(orbits[k] for k in members))) for members in classes)
    return SolutionCensus(n, relation, factorial(n * n), tuple(solutions), tuple(expanded))

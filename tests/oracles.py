"""Independent oracles that the tests compare the library against.

None of these is part of `ybk`: each recomputes a library result by a
plainer route.  Most share none of the library's shortcuts.  Five compose
library paths that are themselves checked against a plain oracle, so the
chain of checks is transitive:

- `extension_check_per_pair` and `action_formula_oracle` read their block
  tables from `level_codes` by default, and `level_codes` is checked against
  `legs_level_map` through `level_map`;
- `extension_check_per_pair` also reads `graded_elements`, whose classes
  `test_semigroup` checks against breadth-first classes;
- `boundary_columns` builds the generic boundary from
  `homology._face_tables` with `homology._columns`, and is checked against
  `oracle_boundary` in `test_homology`; `chain_holds` composes it;
- `normalized_columns_by_picking` reads `homology._face_tables`, the
  tables that `boundary_columns` reads too.  The builder it checks,
  `homology._normalized_boundaries`, reads no push table: it applies the
  quandle formula one degree from the last.

`waiting_census` is the census search before it narrowed cells: it keeps
the library's root-cell reduction and waiting triples, and `test_classify`
checks both searches against the brute-force census at N <= 3.

This module is not a test file and is not collected; test modules import
it as `oracles`.
"""

from itertools import combinations, permutations, product
from typing import NamedTuple

from ybk.constructions import decode_word, encode_word, level_codes
from ybk.errors import InvalidParams, NotAYbeSolution, PreconditionFailed, check_int
from ybk.homology import _columns, _face_tables
from ybk.limits import check_count
from ybk.semigroup import graded_elements
from ybk.solution import alpha_beta, apply_leg, is_ybe


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


def waiting_census(n, root=None):
    """The tables of `enumerate_solutions(n)`, from the census search that
    narrows no cell: each braid triple waits on the first unset cell it
    reads, and the cell with the most waiting triples is filled next.

    Cell (1, 1) takes the least pair of each orbit under Sym{2..n}, or of
    the orbit of the 1-based pair `root` alone, and the tables found are
    closed under those relabelings; so with `root` the list is the slice
    of solutions whose R(1, 1) lies in that orbit.  No size guard.
    """
    cells = n * n
    fixing_first = [(0,) + phi for phi in permutations(range(1, n))]
    moves = [[phi[u] * n + phi[v] for u in range(n) for v in range(n)] for phi in fixing_first]
    root_values = [code for code in range(cells) if all(move[code] >= code for move in moves)]
    if root is not None:
        code = (root[0] - 1) * n + root[1] - 1
        root_values = [min(move[code] for move in moves)]
    # table[x*n + y] is the 0-based code u*n + v of R(x+1, y+1), or -1 while unset
    table = [-1] * cells
    waiting = [[(x, y, z) for z in range(n)] for x in range(n) for y in range(n)]
    uv = [divmod(code, n) for code in range(cells)]
    found = []

    def search(unset, used):
        if not unset:
            found.append(tuple(table))
            return
        cell, most = -1, -1
        for c in range(cells):
            if table[c] < 0 and len(waiting[c]) > most:
                cell, most = c, len(waiting[c])
        triples = waiting[cell]
        for value in root_values if cell == 0 else range(cells):
            if used >> value & 1:
                continue
            table[cell] = value
            moved = []
            for triple in triples:
                x, y, z = triple
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
                                if ua >= 0:
                                    c, d = uv[ua]
                                    if c != e:
                                        break
                                    gap = f * n + q
                                    fq = table[gap]
                                    if fq >= 0:
                                        g, h = uv[fq]
                                        if d != g or b != h:
                                            break
                                        continue
                waiting[gap].append(triple)
                moved.append(gap)
            else:
                search(unset - 1, used | 1 << value)
            for gap in reversed(moved):
                waiting[gap].pop()
        table[cell] = -1

    search(cells, 0)
    closed = set()
    for move in moves:
        for codes in found:
            relabeled = [0] * cells
            for c, code in enumerate(codes):
                relabeled[move[c]] = move[code]
            closed.add(tuple(relabeled))
    pair = [(u + 1, v + 1) for u, v in uv]
    return [tuple(pair[code] for code in codes) for codes in sorted(closed)]


def triple_sides(family, i, j, l, s, t, u):
    """Both sides of the triple identity of colours i < j < l at the letters (s, t, u).

    Each step applies a conjugated map: theta_ij(s, t) = (t', s') is read
    back as (s', t').  The two sides apply theta_jl, theta_il, theta_ij and
    theta_ij, theta_il, theta_jl.
    """
    a, b, c = s, t, u
    c, b = family.apply(j, l, b, c)
    c, a = family.apply(i, l, a, c)
    b, a = family.apply(i, j, a, b)
    lhs = (a, b, c)
    a, b, c = s, t, u
    b, a = family.apply(i, j, a, b)
    c, a = family.apply(i, l, a, c)
    c, b = family.apply(j, l, b, c)
    return lhs, (a, b, c)


def least_kgraph_failure(family):
    """`validate_kgraph`'s answer: (True, None), or False with the least (i, j, l, point) whose sides differ."""
    for i, j, l in combinations(range(1, family.k + 1), 3):
        span = (range(1, family.sizes[c - 1] + 1) for c in (i, j, l))
        for point in product(*span):
            lhs, rhs = triple_sides(family, i, j, l, *point)
            if lhs != rhs:
                return False, (i, j, l, point)
    return True, None


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


def word_index(elements):
    """The class of every word of a `GradedClassSet`, one dict entry per word, read off `classes`."""
    return {word: c for c, members in enumerate(elements.classes) for word in members}


def index_of_by_dict(elements, word):
    """`elements.index_of(word)` by a lookup in the `word_index` of `elements`.

    A word is any iterable of ints found in `index`: `True` or `1.0` finds
    the class of the integer 1 and is rejected after the lookup.  The
    message shows the word as a tuple, or the input itself when it is not
    iterable.
    """
    try:
        word = tuple(word)
        c = word_index(elements)[word]
    except (TypeError, KeyError):
        c = None
    if c is None or any(type(letter) is not int for letter in word):
        raise InvalidParams(f"{word!r} is not a word of length {elements.length} over [{elements.size}]")
    return c


def all_positions_roots(R, n):
    """Oracle for the class roots: one union-find over every rewrite position.

    Entry w is the least word code in the class of the word with 0-based
    code w.  Rewriting positions (p, p+1) of a word adds (P[q] - q) * N**(n-p-2)
    to its code, where the pair table P sends the pair code q to the code of
    its image under R.
    """
    size = R.size
    total = size ** n
    moves = []
    for q, (u, v) in enumerate(R.table):
        image = (u - 1) * size + v - 1
        if image != q:
            moves.append((q, image - q))
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for p in range(n - 1):
        low = size ** (n - p - 2)
        block = low * size * size
        for q, delta in moves:
            for start in range(q * low, total, block):
                for a in range(start, start + low):
                    a, b = find(a), find(a + delta * low)
                    parent[max(a, b)] = min(a, b)
    return [find(code) for code in range(total)]


def cancellation_by_scan(R, maxlen):
    """`check_cancellative(R, maxlen)` by scanning every (la, lb) product table.

    Classes come from `all_positions_roots`, one union-find per length over
    all words.  For la = 1..maxlen-1 and lb = 1..maxlen-la in turn, each row
    (a fixed class a of length la, b over the classes of length lb in order
    of their least words) and then each column is searched for its first
    repeated product class; the first hit is the least witness.
    """
    size = R.size
    roots = {n: all_positions_roots(R, n) for n in range(1, maxlen + 1)}
    reps = {n: sorted(set(roots[n])) for n in roots}

    def word(code, n):
        return decode_word(code + 1, size, n)

    for la in range(1, maxlen):
        for lb in range(1, maxlen - la + 1):
            whole, shift = roots[la + lb], size**lb
            for a in reps[la]:
                seen = {}
                for b in reps[lb]:
                    key = whole[a * shift + b]
                    if key in seen:
                        return False, ("left", word(a, la), word(seen[key], lb), word(b, lb))
                    seen[key] = b
            for b in reps[lb]:
                seen = {}
                for a in reps[la]:
                    key = whole[a * shift + b]
                    if key in seen:
                        return False, ("right", word(b, lb), word(seen[key], la), word(a, la))
                    seen[key] = a
    return True, None


def extension_check_per_pair(R, maxlen, codes=level_codes):
    """`semigroup_extension_check(R, maxlen)` with one block table per pair of block lengths.

    Classes come from the public `graded_elements`, one call per length
    1..maxlen, and each table from `codes(R, l, m)`, the public
    `level_codes` unless a test plants a fault in it.  The errors and their
    order are the library's.
    """
    check_int(maxlen, "maximum length", 0)
    if not is_ybe(R):
        raise NotAYbeSolution("the extension is defined for braid-relation solutions")
    size = R.size
    graded = [graded_elements(R, n) for n in range(1, maxlen + 1)]
    classes, members = {}, {}
    for n, elements in enumerate(graded[: maxlen - 1], 1):
        words = list(product(range(1, size + 1), repeat=n))
        classes[n] = list(map(word_index(elements).__getitem__, words))
        # members sort lexicographically, which is code order
        code = {word: c for c, word in enumerate(words)}
        members[n] = [[code[word] for word in group] for group in elements.classes if len(group) > 1]
    swaps = {}

    def swap(l, m):
        if (l, m) not in swaps:
            swaps[(l, m)] = codes(R, l, m)
        return swaps[(l, m)]

    def decode(*pairs):
        return tuple(decode_word(c + 1, size, length) for c, length in pairs)

    for p in range(1, maxlen):
        for q in range(1, maxlen - p + 1):
            table = swap(p, q)
            cls_p, cls_q = classes[p], classes[q]
            span = size ** q
            for group in members[p]:
                base = group[0]
                for v in range(span):
                    vp, up = table[base * span + v]
                    ref = (cls_q[vp], cls_p[up])
                    for u in group[1:]:
                        vp, up = table[u * span + v]
                        if (cls_q[vp], cls_p[up]) != ref:
                            return False, ("respects-left", *decode((base, p), (u, p), (v, q)))
            for group in members[q]:
                base = group[0]
                for u in range(size ** p):
                    vp, up = table[u * span + base]
                    ref = (cls_q[vp], cls_p[up])
                    for v in group[1:]:
                        vp, up = table[u * span + v]
                        if (cls_q[vp], cls_p[up]) != ref:
                            return False, ("respects-right", *decode((u, p), (base, q), (v, q)))

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
                                return False, ("braid", *decode((u, l), (v, m), (w, n)))
    return True, None


def _alpha_word(alpha, word, letter):
    """Left action of a word: alpha_{x_1...x_n} = alpha_{x_1} o ... o alpha_{x_n}."""
    for x in reversed(word):
        letter = alpha[x - 1][letter - 1]
    return letter


def _beta_letter_on_word(alpha, beta, word, letter):
    """Right action of one letter on a word, by the closed product formula."""
    n = len(word)
    out = []
    for i in range(2, n + 1):
        moved = _alpha_word(alpha, word[i - 1 :], letter)
        out.append(beta[moved - 1][word[i - 2] - 1])
    out.append(beta[letter - 1][word[-1] - 1])
    return tuple(out)


def action_formula_oracle(R, n, codes=level_codes):
    """`action_formula_check(R, n)` by comparing every entry of the (n, n) table.

    The table comes from `codes(R, n, n)`, the public `level_codes` unless a
    test plants a fault in it.  The first output block of each entry must be
    h_i = alpha_{beta_{y_1...y_{i-1}}(xbar)}(y_i) and the second the iterated
    right action beta_{y_1...y_n}(xbar).  The errors and their order are the
    library's.
    """
    check_int(n, "block length", 1)
    if not is_ybe(R):
        raise PreconditionFailed("the action formulas presuppose the braid relation")
    size = R.size
    check_count(size, "action formula comparison", 2 * n)
    ab = alpha_beta(R)
    alpha, beta = ab.alpha, ab.beta
    words = list(product(range(1, size + 1), repeat=n))
    # entry u * N**n + v of the table is (v', u'), and the pairs (xbar, ybar)
    # below run in that order
    for (xbar, ybar), (vp, up) in zip(product(words, repeat=2), codes(R, n, n)):
        hs = []
        current = xbar
        for y in ybar:
            hs.append(_alpha_word(alpha, current, y))
            current = _beta_letter_on_word(alpha, beta, current, y)
        if (words[vp], words[up]) != (tuple(hs), current):
            return False
    return True


class Dense(NamedTuple):
    """A dense integer matrix: its shape and its rows, so a 0 x k matrix keeps its k columns."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


def from_rows(rows):
    """The matrix with these rows."""
    entries = tuple(tuple(row) for row in rows)
    return Dense(len(entries), len(entries[0]) if entries else 0, entries)


def zero(rows, cols):
    """The rows x cols zero matrix."""
    return Dense(rows, cols, ((0,) * cols,) * rows)


def dense(columns, rows):
    """The matrix with these sparse columns and `rows` rows, for reading entries by (row, column)."""
    return Dense(rows, len(columns), tuple(tuple(col.get(r, 0) for col in columns) for r in range(rows)))


def sparse_columns(matrix):
    """The columns of a matrix as sparse dicts, one per column, zero entries left out."""
    return [
        {i: row[j] for i, row in enumerate(matrix.entries) if row[j]} for j in range(matrix.cols)
    ]


def diagonal(matrix):
    """The entries (i, i) of a matrix."""
    return tuple(matrix.entries[i][i] for i in range(min(matrix.rows, matrix.cols)))


def identity(n):
    """The n x n identity matrix."""
    return Dense(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mul(a, b):
    """The matrix product a * b."""
    assert a.cols == b.rows, (a.rows, a.cols, b.rows, b.cols)
    cols = list(zip(*b.entries)) if b.entries else []
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    return Dense(a.rows, b.cols, out)


def smith_normal_form(matrix) -> tuple[Dense, Dense, Dense]:
    """U, D, V with U*M*V = D, U and V unimodular, D diagonal with d_1 | d_2 | ...

    `matrix` is a `Dense` or a list of rows.  Pivoting on the smallest
    nonzero entry keeps coefficients small; exact integer arithmetic
    throughout.
    """
    if not isinstance(matrix, Dense):
        matrix = from_rows(matrix)
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
        from_rows(u),
        from_rows(a) if a else zero(rows, cols),
        from_rows(v),
    )


def derived_boundary(R, n):
    """The degree-n boundary as sparse columns, from the closed formula when R(x, y) = (y, x*y).

    d(x_1..x_n) = sum_{i>=2} (-1)^i [drop position i
                                     minus star the prefix by x_i and drop it];
    must equal the generic boundary, `boundary_columns(R, n)`.
    """
    ab = alpha_beta(R)
    assert all(row == tuple(range(1, R.size + 1)) for row in ab.alpha), "the first coordinate must be passive"
    assert n >= 1, n
    size = R.size
    star = ab.beta  # x*y = beta_y(x)
    columns = []
    for code in range(size ** n):
        word = decode_word(code + 1, size, n)
        coeffs = {}
        for i in range(2, n + 1):
            sign = 1 if i % 2 == 0 else -1
            plain = word[: i - 1] + word[i:]
            starred = tuple(star[word[i - 1] - 1][x - 1] for x in word[: i - 1]) + word[i:]
            pcode = encode_word(plain, size) - 1
            scode = encode_word(starred, size) - 1
            coeffs[pcode] = coeffs.get(pcode, 0) + sign
            coeffs[scode] = coeffs.get(scode, 0) - sign
        columns.append({r: v for r, v in coeffs.items() if v})
    return columns


def boundary_columns(R, n):
    """The generic degree-n boundary as sparse columns, one per 0-based word code.

    The library's column builder over its face tables; the caller checks R,
    n >= 1 and the degree-n basis, as `homology` does.
    """
    return _columns(_face_tables(R, n), n)


def chain_holds(R, nmax):
    """Whether each boundary of degrees 1..nmax composes to zero with the next, by sparse products.

    `boundary_columns` is looked up when called, so that a fault planted in
    it reaches this check.
    """
    boundaries = [boundary_columns(R, n) for n in range(1, nmax + 1)]
    for outer, inner in zip(boundaries, boundaries[1:]):
        for column in inner:
            image = {}
            for r, x in column.items():
                for i, y in outer[r].items():
                    image[i] = image.get(i, 0) + x * y
            if any(image.values()):
                return False
    return True


def normalized_columns_by_picking(tables, n, codes, faces):
    """The degree-n boundary on the basis `codes`, picked from the faces of every word code.

    For each position i both faces of all N**n codes are built from the
    face tables of `homology._face_tables`, and a basis code c takes the
    entries faces[right[c]] and faces[left[c]]; a face that `faces` maps
    to -1 lies outside the basis one degree down and is dropped.  Must
    equal the degree-n columns of `homology._normalized_boundaries(R)`.
    """
    size, suffixes, prefixes = tables
    columns = [{} for _ in codes]
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        tail = size ** (n - i)
        right = [block + v for block in range(0, size ** (i - 1) * tail, tail) for v in suffixes[n - i]]
        left = [p * tail + s for p in prefixes[i - 1] for s in range(tail)]
        for column, c in zip(columns, codes):
            r, q = faces[right[c]], faces[left[c]]
            column[r] = column.get(r, 0) + sign
            column[q] = column.get(q, 0) - sign
    return [{r: v for r, v in column.items() if v and r != -1} for column in columns]

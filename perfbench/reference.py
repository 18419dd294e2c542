"""Reference computations the benchmark checks `ybk` against.

Nothing here imports `ybk`.  A solution is a plain pair (table, n): `table`
lists the n*n output pairs row-major with x outer, all coordinates 1-based,
exactly as `ybk.Solution.table` stores them.  Words over [n] are encoded
big-endian from 0: (a_1, ..., a_l) -> sum (a_i - 1) * n**(l-i).

Run as a script to rebuild the stored N=3 solution list by exhaustive search
and diff it against `data/n3_solutions.json`:

    python3 perfbench/reference.py            # rebuild and diff, exit 1 on a difference
    python3 perfbench/reference.py --write    # rebuild and overwrite the stored copy
"""

from __future__ import annotations

import json
import sys
from collections import deque
from itertools import permutations
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
N3_PATH = DATA_DIR / "n3_solutions.json"


# --- tables -----------------------------------------------------------------


def braid_witness(table, n):
    """Least (x, y, z) where R12 R23 R12 and R23 R12 R23 differ on [n]^3, or None.

    Each side is composed leg by leg on the triple.
    """
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                a, b = table[(x - 1) * n + y - 1]  # R12
                b, c = table[(b - 1) * n + z - 1]  # R23
                a, b = table[(a - 1) * n + b - 1]  # R12
                lhs = (a, b, c)
                a, b, c = x, y, z
                b, c = table[(b - 1) * n + c - 1]  # R23
                a, b = table[(a - 1) * n + b - 1]  # R12
                b, c = table[(b - 1) * n + c - 1]  # R23
                if lhs != (a, b, c):
                    return (x, y, z)
    return None


def is_braid(table, n) -> bool:
    return braid_witness(table, n) is None


def is_bijection(table, n) -> bool:
    """Does `table` list every pair of [n]^2 exactly once?  Marks a byte per pair."""
    if len(table) != n * n:
        return False
    seen = bytearray(n * n)
    for u, v in table:
        if not (1 <= u <= n and 1 <= v <= n) or seen[(u - 1) * n + v - 1]:
            return False
        seen[(u - 1) * n + v - 1] = 1
    return True


def relabel(table, n, phi):
    """The table b with b(phi x, phi y) = (phi u, phi v) whenever R(x, y) = (u, v)."""
    out = [None] * (n * n)
    for idx, (u, v) in enumerate(table):
        x, y = divmod(idx, n)
        out[(phi[x] - 1) * n + phi[y] - 1] = (phi[u - 1], phi[v - 1])
    return tuple(out)


def conjugate(table, n, tau, rho):
    """The table b with a o (tau x rho) = (tau x rho) o b, for a = table."""
    tau_inv = _inverse(tau)
    rho_inv = _inverse(rho)
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            u, v = table[(tau[x - 1] - 1) * n + rho[y - 1] - 1]
            out.append((tau_inv[u - 1], rho_inv[v - 1]))
    return tuple(out)


def unrank_perm(n, rank):
    """The permutation of 1..n at `rank` in lexicographic order."""
    rest = list(range(1, n + 1))
    out = []
    for pos in range(n, 0, -1):
        size = 1
        for k in range(2, pos):
            size *= k
        idx, rank = divmod(rank, size)
        out.append(rest.pop(idx))
    return tuple(out)


def _inverse(perm):
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def is_iso_witness(a, b, n, phi) -> bool:
    """(phi x phi) o a = b o (phi x phi)."""
    if sorted(phi) != list(range(1, n + 1)):
        return False
    return relabel(a, n, phi) == tuple(b)


def is_conj_witness(a, b, n, tau, rho) -> bool:
    """a o (tau x rho) = (tau x rho) o b."""
    if sorted(tau) != list(range(1, n + 1)) or sorted(rho) != list(range(1, n + 1)):
        return False
    return conjugate(a, n, tau, rho) == tuple(b)


def cycle_type(table, n):
    """Sorted cycle lengths of R as a permutation of [n]^2.

    Invariant under relabeling and under product conjugacy, so solutions with
    different cycle types are never equivalent.
    """
    seen = [False] * (n * n)
    lengths = []
    for start in range(n * n):
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            u, v = table[cur]
            cur = (u - 1) * n + v - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def canonical_form(table, n, relation):
    """Least table in the class of `table` under 'yb_iso' or 'conjugacy'."""
    perms = list(permutations(range(1, n + 1)))
    if relation == "yb_iso":
        return min(relabel(table, n, phi) for phi in perms)
    return min(conjugate(table, n, tau, rho) for tau in perms for rho in perms)


def coordinate_maps(table, n):
    """alpha[x-1][y-1] = first coordinate of R(x, y); beta[y-1][x-1] = second."""
    alpha = [[table[(x - 1) * n + y - 1][0] for y in range(1, n + 1)] for x in range(1, n + 1)]
    beta = [[table[(x - 1) * n + y - 1][1] for x in range(1, n + 1)] for y in range(1, n + 1)]
    return alpha, beta


def _first_collision(row):
    seen = {}
    for pos, value in enumerate(row, start=1):
        if value in seen:
            return (seen[value], pos)
        seen[value] = pos
    return None


def property_flags(table, n) -> dict:
    """Structural flags with their least witnesses, straight from the definitions."""
    R = lambda x, y: table[(x - 1) * n + y - 1]  # noqa: E731
    witnesses = {}
    inv = next(((x, y) for x in range(1, n + 1) for y in range(1, n + 1) if R(*R(x, y)) != (x, y)), None)
    if inv:
        witnesses["involutive"] = list(inv)
    sq = next((x for x in range(1, n + 1) if R(x, x) != (x, x)), None)
    if sq:
        witnesses["square_free"] = [sq]
    alpha, beta = coordinate_maps(table, n)
    for label, rows in (("alpha", alpha), ("beta", beta)):
        hit = next(((i, c) for i, row in enumerate(rows, 1) if (c := _first_collision(row))), None)
        if hit:
            witnesses["non_degenerate"] = [label, hit[0], *hit[1]]
            break
    braid = braid_witness(table, n)
    if braid:
        witnesses["is_ybe"] = list(braid)
    identity = list(range(1, n + 1))
    flags = {
        "is_bijection": True,
        "is_ybe": braid is None,
        "involutive": inv is None,
        "square_free": sq is None,
        "non_degenerate": "non_degenerate" not in witnesses,
        "derived_type": all(r == identity for r in alpha) or all(r == identity for r in beta),
    }
    flags["symmetric"] = flags["involutive"] and flags["non_degenerate"] and flags["is_ybe"]
    flags["witnesses"] = witnesses
    return flags


def structure_equations(table, n) -> dict:
    """The three coordinate-map equations, each with its least failing triple."""
    alpha, beta = coordinate_maps(table, n)
    A = lambda x, z: alpha[x - 1][z - 1]  # noqa: E731
    B = lambda y, z: beta[y - 1][z - 1]  # noqa: E731
    triples = [(x, y, z) for x in range(1, n + 1) for y in range(1, n + 1) for z in range(1, n + 1)]

    def first(test):
        for x, y, z in triples:
            u, v = table[(x - 1) * n + y - 1]
            if not test(x, y, z, u, v):
                return [x, y, z]
        return None

    wit = {
        "alpha_homomorphic": first(lambda x, y, z, u, v: A(x, A(y, z)) == A(u, A(v, z))),
        "beta_antihomomorphic": first(lambda x, y, z, u, v: B(y, B(x, z)) == B(v, B(u, z))),
        "compatible": first(
            lambda x, y, z, u, v: B(A(B(y, x), z), A(x, y)) == A(B(A(y, z), x), B(z, y))
        ),
    }
    out = {key: value is None for key, value in wit.items()}
    out["all_hold"] = all(out.values())
    out["witnesses"] = {key: value for key, value in wit.items() if value is not None}
    return out


def builtin_table(name, n):
    """The standard families, from their defining formulas."""
    m = lambda v: (v - 1) % n + 1  # noqa: E731
    formulas = {
        "identity": lambda x, y: (x, y),
        "flip": lambda x, y: (y, x),
        "double_shift": lambda x, y: (m(y + 1), m(x + 1)),
        "shift": lambda x, y: (m(y + 1), x),
        "dihedral": lambda x, y: (y, m(2 * y - x)),
    }
    f = formulas[name]
    return tuple(f(x, y) for x in range(1, n + 1) for y in range(1, n + 1))


def trivial_extension(a, na, b, nb):
    size = na + nb
    out = []
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            if x <= na and y <= na:
                out.append(a[(x - 1) * na + y - 1])
            elif x > na and y > na:
                u, v = b[(x - na - 1) * nb + y - na - 1]
                out.append((u + na, v + na))
            else:
                out.append((y, x))
    return tuple(out)


def cartesian_product(a, na, b, nb):
    out = []
    for x1 in range(1, na + 1):
        for y1 in range(1, nb + 1):
            for x2 in range(1, na + 1):
                for y2 in range(1, nb + 1):
                    ux, vx = a[(x1 - 1) * na + x2 - 1]
                    uy, vy = b[(y1 - 1) * nb + y2 - 1]
                    out.append(((ux - 1) * nb + uy, (vx - 1) * nb + vy))
    return tuple(out)


def derived(table, n, left=False):
    """(x, y) -> (beta_x(alpha_w(y)), x) with w = beta_y^-1(x); the mirror shape if `left`."""
    alpha, beta = coordinate_maps(table, n)
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if left:
                w = alpha[x - 1].index(y) + 1
                out.append((y, alpha[y - 1][beta[w - 1][x - 1] - 1]))
            else:
                w = beta[y - 1].index(x) + 1
                out.append((beta[x - 1][alpha[w - 1][y - 1] - 1], x))
    return tuple(out)


def glued_extension(sx, sy, theta):
    """Identity on each block; theta on X x Y and its inverse on Y x X."""
    inverse = {}
    for idx, pair in enumerate(theta):
        s, t = divmod(idx, sy)
        inverse[tuple(pair)] = (s + 1, t + 1)
    size = sx + sy
    out = []
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            if (x <= sx) == (y <= sx):
                out.append((x, y))
            elif x <= sx:
                tp, sp = theta[(x - 1) * sy + (y - sx) - 1]
                out.append((sx + tp, sp))
            else:
                s, t = inverse[(x - sx, y)]
                out.append((s, sx + t))
    return tuple(out)


# --- words ------------------------------------------------------------------


def word_classes(table, n, length):
    """Class label of every length-`length` word under single-position rewrites.

    Breadth-first search over the rewrite graph, rewriting both ways at every
    position.  The label of a word is the least code in its class.
    """
    total = n ** length
    pair_fwd = [0] * (n * n)
    pair_bwd = [0] * (n * n)
    for idx, (u, v) in enumerate(table):
        code = (u - 1) * n + v - 1
        pair_fwd[idx] = code
        pair_bwd[code] = idx
    scales = [n ** (length - p - 2) for p in range(length - 1)]
    label = [-1] * total
    for start in range(total):
        if label[start] >= 0:
            continue
        label[start] = start
        queue = deque([start])
        while queue:
            code = queue.popleft()
            for scale in scales:
                pair = (code // scale) % (n * n)
                for other in (pair_fwd[pair], pair_bwd[pair]):
                    nxt = code + (other - pair) * scale
                    if label[nxt] < 0:
                        label[nxt] = start
                        queue.append(nxt)
    return label


def encode(word, n) -> int:
    code = 0
    for letter in word:
        code = code * n + letter - 1
    return code


def decode(code, n, length):
    out = []
    for _ in range(length):
        code, digit = divmod(code, n)
        out.append(digit + 1)
    return tuple(reversed(out))


def growth_counts(table, n, maxlen):
    return tuple(1 if length == 0 else len(set(word_classes(table, n, length))) for length in range(maxlen + 1))


def cancellative(table, n, maxlen) -> bool:
    """Left and right cancellation on classes of total length at most maxlen."""
    labels = {length: word_classes(table, n, length) for length in range(1, maxlen + 1)}
    for la in range(1, maxlen):
        for lb in range(1, maxlen - la + 1):
            whole = labels[la + lb]
            reps_a = sorted(set(labels[la]))
            reps_b = sorted(set(labels[lb]))
            shift = n ** lb
            for a in reps_a:
                if len({whole[a * shift + b] for b in reps_b}) != len(reps_b):
                    return False
            for b in reps_b:
                if len({whole[a * shift + b] for a in reps_a}) != len(reps_a):
                    return False
    return True


def same_class(table, n, u, v) -> bool:
    if len(u) != len(v):
        return False
    labels = word_classes(table, n, len(u))
    return labels[encode(u, n)] == labels[encode(v, n)]


def level_entry(table, n, u, v):
    """Push the block v leftward past the block u by adjacent legs; returns (v', u')."""
    t = list(u) + list(v)
    l = len(u)
    for j in range(len(v)):
        for p in range(l + j - 1, j - 1, -1):
            t[p], t[p + 1] = table[(t[p] - 1) * n + t[p + 1] - 1]
    return tuple(t[: len(v)]), tuple(t[len(v):])


def level_table_entry(table, n, level, x, y):
    """Entry (x, y) of the level solution on [n**level], words encoded from 1."""
    vp, up = level_entry(table, n, decode(x - 1, n, level), decode(y - 1, n, level))
    return (encode(vp, n) + 1, encode(up, n) + 1)


# --- homology ---------------------------------------------------------------


def boundary_columns(table, n, degree):
    """Sparse columns {row: coefficient} of the degree-`degree` boundary.

    The column of a tuple is sum_i (-1)^i (slide entry i to the right end
    through R and drop it, minus slide it to the left end and drop it).
    """
    columns = []
    for code in range(n ** degree):
        word = decode(code, n, degree)
        col = {}
        for i in range(degree):
            sign = -1 if i % 2 == 0 else 1
            right = list(word)
            for p in range(i, degree - 1):
                right[p], right[p + 1] = table[(right[p] - 1) * n + right[p + 1] - 1]
            left = list(word)
            for p in range(i, 0, -1):
                left[p - 1], left[p] = table[(left[p - 1] - 1) * n + left[p] - 1]
            r = encode(right[:-1], n)
            s = encode(left[1:], n)
            col[r] = col.get(r, 0) + sign
            col[s] = col.get(s, 0) - sign
        columns.append({row: c for row, c in col.items() if c})
    return columns


def rank_mod(columns, p) -> int:
    """Rank over GF(p) of a matrix given by sparse columns."""
    pivots = {}
    for column in columns:
        vec = {r: c % p for r, c in column.items() if c % p}
        while vec:
            lead = min(vec)
            if lead not in pivots:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {r: c * inv % p for r, c in vec.items()}
                break
            factor = vec[lead]
            for r, c in pivots[lead].items():
                value = (vec.get(r, 0) - factor * c) % p
                if value:
                    vec[r] = value
                else:
                    vec.pop(r, None)
    return len(pivots)


# rank over GF(P) for this P equals the rank over Q unless P divides an
# invariant factor; the boundary matrices here have tiny invariant factors
LARGE_PRIME = 2 ** 61 - 1


def compose_is_zero(outer, inner) -> bool:
    """Is the product of two sparse-column matrices zero?"""
    for column in inner:
        acc = {}
        for mid, c in column.items():
            for r, d in outer[mid].items():
                acc[r] = acc.get(r, 0) + c * d
        if any(acc.values()):
            return False
    return True


# --- k-graphs ---------------------------------------------------------------


class PlainFamily:
    """Commutation maps theta_ij, looked up from plain tables.

    `maps[(i, j)]` lists (t', s') row-major by (s, t) for colours i < j.
    """

    def __init__(self, k, sizes, maps):
        self.k = k
        self.sizes = tuple(sizes)
        self.maps = {pair: tuple(tuple(e) for e in tab) for pair, tab in maps.items()}
        self.back = {}
        for (i, j), tab in self.maps.items():
            for idx, (tp, sp) in enumerate(tab):
                s, t = divmod(idx, self.sizes[j - 1])
                self.back[(i, j, tp, sp)] = (s + 1, t + 1)

    def theta(self, i, j, s, t):
        return self.maps[(i, j)][(s - 1) * self.sizes[j - 1] + t - 1]

    def pull_left(self, high, low):
        """Rewrite e^c_s e^d_t with c > d into e^d_a e^c_b."""
        (c, s), (d, t) = high, low
        a, b = self.back[(d, c, s, t)]
        return (d, a), (c, b)


def normal_form(family: PlainFamily, letters):
    """Colour-sorted normal form by insertion: each letter is rewritten leftward into place."""
    out = []
    for letter in letters:
        out.append(tuple(letter))
        pos = len(out) - 1
        while pos and out[pos - 1][0] > out[pos][0]:
            out[pos - 1], out[pos] = family.pull_left(out[pos - 1], out[pos])
            pos -= 1
    return tuple(out)


def triple_identity_witness(family: PlainFamily):
    """Least failing (i, j, k, (s, t, u)) of the generalized braid identity, or None."""
    k = family.k

    def hat(i, j, a, b):
        tp, sp = family.theta(i, j, a, b)
        return sp, tp

    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
                for s in range(1, family.sizes[i - 1] + 1):
                    for t in range(1, family.sizes[j - 1] + 1):
                        for u in range(1, family.sizes[l - 1] + 1):
                            a, b, c = s, t, u
                            b, c = hat(j, l, b, c)
                            a, c = hat(i, l, a, c)
                            a, b = hat(i, j, a, b)
                            lhs = (a, b, c)
                            a, b, c = s, t, u
                            a, b = hat(i, j, a, b)
                            a, c = hat(i, l, a, c)
                            b, c = hat(j, l, b, c)
                            if lhs != (a, b, c):
                                return (i, j, l, (s, t, u))
    return None


def constant_maps(table, k):
    return {(i, j): table for i in range(1, k + 1) for j in range(i + 1, k + 1)}


def disjoint_union(family: PlainFamily):
    """Identity on each colour block, theta_ij above the diagonal, its inverse below."""
    offsets = [0]
    for size in family.sizes:
        offsets.append(offsets[-1] + size)
    where = [(c, s) for c in range(1, family.k + 1) for s in range(1, family.sizes[c - 1] + 1)]
    out = []
    for bx, s in where:
        for by, t in where:
            if bx == by:
                out.append((offsets[bx - 1] + s, offsets[by - 1] + t))
            elif bx < by:
                tp, sp = family.theta(bx, by, s, t)
                out.append((offsets[by - 1] + tp, offsets[bx - 1] + sp))
            else:
                a, b = family.back[(by, bx, s, t)]
                out.append((offsets[by - 1] + a, offsets[bx - 1] + b))
    return tuple(out)


def unique_fibers(family: PlainFamily, direction) -> bool:
    """Pullback: t' -> first output of theta_ij(s, t') is a bijection for every s.
    Pushout: s -> second output of theta_ij(s, t') is a bijection for every t'."""
    for (i, j) in family.maps:
        ni, nj = family.sizes[i - 1], family.sizes[j - 1]
        if direction == "pullback":
            fibers = [{family.theta(i, j, s, t)[0] for t in range(1, nj + 1)} for s in range(1, ni + 1)]
            want = nj
        else:
            fibers = [{family.theta(i, j, s, t)[1] for s in range(1, ni + 1)} for t in range(1, nj + 1)]
            want = ni
        if any(len(f) != want for f in fibers):
            return False
    return True


def periodic_order(table, n, bound):
    """Least level <= bound whose level solution is the identity, or None."""
    for level in range(1, bound + 1):
        size = n ** level
        if all(
            level_table_entry(table, n, level, x, y) == (x, y)
            for x in range(1, size + 1)
            for y in range(1, size + 1)
        ):
            return level
    return None


def parse_group(text):
    """(free rank, torsion) from the printed form 'Z^2 x Z/2 x Z/4', '0', ..."""
    free, torsion = 0, []
    if text != "0":
        for part in text.split(" x "):
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            else:
                torsion.append(int(part[2:]))
    return free, tuple(torsion)


# --- the stored N=3 census ---------------------------------------------------


def exhaustive_solutions(n):
    """Every braid-relation bijection of [n]^2, lexicographic by table."""
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return [tab for tab in permutations(pairs) if is_braid(tab, n)]


def load_n3():
    data = json.loads(N3_PATH.read_text())
    return [tuple(tuple(pair) for pair in tab) for tab in data["tables"]]


def _n3_document(tables) -> str:
    rows = ",\n".join("  " + json.dumps([list(p) for p in tab], separators=(",", ":")) for tab in tables)
    return '{"size": 3, "count": %d, "tables": [\n%s\n]}\n' % (len(tables), rows)


def main(argv) -> int:
    rebuilt = exhaustive_solutions(3)
    if "--write" in argv:
        DATA_DIR.mkdir(exist_ok=True)
        N3_PATH.write_text(_n3_document(rebuilt))
        print(f"wrote {len(rebuilt)} solutions to {N3_PATH}")
        return 0
    stored = load_n3()
    missing = sorted(set(rebuilt) - set(stored))
    extra = sorted(set(stored) - set(rebuilt))
    for tab in missing:
        print("missing from stored copy:", tab)
    for tab in extra:
        print("not a solution but stored:", tab)
    if missing or extra or stored != rebuilt:
        print("stored N=3 list differs from the exhaustive search")
        return 1
    print(f"stored N=3 list matches the exhaustive search ({len(rebuilt)} solutions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import importlib
import random
from itertools import permutations, product
from math import gcd

import pytest

from ybk.catalog import catalog_names, catalog_profile, catalog_solution
from ybk.classify import classify, enumerate_solutions, yb_isomorphic
from ybk.constructions import encode_word, left_derived_solution, level_codes, level_is_identity, level_solution
from ybk.errors import (
    BadModulus,
    Degenerate,
    InvalidParams,
    NotAYbeSolution,
    NotDerivedType,
    Overflow,
    YbkError,
)
from ybk.homology import (
    AbelianGroup,
    _factors_and_pivots,
    beta_orbits,
    cohomology,
    h1_orbit_check,
    homology,
    verify_complex,
)
from ybk.solution import Solution, builtin, is_ybe, make_solution, properties, _mod1, _passive_first

from conftest import random_solutions
from oracles import (
    boundary_columns,
    chain_holds,
    dense,
    derived_boundary,
    diagonal,
    from_rows,
    identity,
    legs_level_map,
    mul,
    normalized_columns_by_picking,
    smith_normal_form,
    sparse_columns,
    zero,
)


def det_bareiss(matrix):
    a = [list(row) for row in matrix.entries]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def random_matrices():
    """Seeded inputs for the Smith form and the invariant factors."""
    rng = random.Random(2)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        yield from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    # sparse, mostly units, like the boundaries: unit pivots and a residual block
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 30)
        entries = [
            [
                rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3, -3)) if rng.random() < 0.2 else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        # zero rows and zero columns
        for i in rng.sample(range(rows), rng.randint(0, rows // 3)):
            entries[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
            for row in entries:
                row[j] = 0
        yield from_rows(entries)
    for rows, cols in ((1, 1), (3, 7), (12, 30)):
        yield zero(rows, cols)
    for k in (1, 4):
        yield zero(0, k)
        yield zero(k, 0)


def rank_mod(columns, p):
    """Rank over GF(p) of sparse integer columns, by leading-index elimination.

    Independent of the library's unit-pivot elimination: each column is
    reduced against the basis vectors kept so far, by its largest row.
    """
    leads = {}
    for column in columns:
        v = {r: x % p for r, x in column.items() if x % p}
        while v:
            lead = max(v)
            basis = leads.get(lead)
            if basis is None:
                inverse = pow(v[lead], -1, p)
                leads[lead] = {r: x * inverse % p for r, x in v.items()}
                break
            f = v[lead]
            for r, x in basis.items():
                y = (v.get(r, 0) - f * x) % p
                if y:
                    v[r] = y
                else:
                    del v[r]
    return len(leads)


def _move_right_drop(R, word, i):
    letters = list(word)
    n = len(letters)
    for p in range(i - 1, n - 1):
        letters[p], letters[p + 1] = R(letters[p], letters[p + 1])
    return tuple(letters[:-1])


def _move_left_drop(R, word, i):
    letters = list(word)
    for p in range(i - 1, 0, -1):
        letters[p - 1], letters[p] = R(letters[p - 1], letters[p])
    return tuple(letters[1:])


def oracle_boundary(R, n):
    """Dense degree-n boundary from walking each word as a tuple, swap by swap."""
    letters = range(1, R.size + 1)
    words = list(product(letters, repeat=n))
    row_of = {word: r for r, word in enumerate(product(letters, repeat=n - 1))}
    entries = [[0] * len(words) for _ in row_of]
    for c, word in enumerate(words):
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            entries[row_of[_move_right_drop(R, word, i)]][c] += sign
            entries[row_of[_move_left_drop(R, word, i)]][c] -= sign
    return tuple(tuple(row) for row in entries)


def level_code_faces(R, n):
    """Sparse degree-n boundary columns with each position's faces read from `legs_level_map`.

    Two level maps per position, each the product of adjacent legs and
    read as 0-based word codes, against the library's one walk; no
    position or word is skipped.
    """
    size = R.size
    columns = [{} for _ in range(size ** n)]
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        tail = size ** (n - i)
        right = [encode_word(v, size) - 1 for v, _ in legs_level_map(R, 1, n - i)] if i < n else [0] * size
        left = [encode_word(u, size) - 1 for _, u in legs_level_map(R, i - 1, 1)] if i > 1 else [0] * size
        for code, column in enumerate(columns):
            pre, rest = divmod(code, size * tail)
            p, suf = divmod(code, tail)
            r = pre * tail + right[rest]
            q = left[p] * tail + suf
            column[r] = column.get(r, 0) + sign
            column[q] = column.get(q, 0) - sign
    return [{r: v for r, v in column.items() if v} for column in columns]


def cyclic_orders_by_primes(orders):
    """`AbelianGroup.from_cyclic_orders` with each order factored into primes by trial division."""
    free = 0
    primes = {}
    for order in map(abs, orders):
        if order == 0:
            free += 1
            continue
        exponents = {}
        p = 2
        while p * p <= order:
            while order % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                order //= p
            p += 1
        if order > 1:
            exponents[order] = exponents.get(order, 0) + 1
        for p, e in exponents.items():
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
    return AbelianGroup(free, tuple(sorted(factors)))


def non_kgraph_catalog():
    for name in catalog_names():
        if "valid_kgraph" not in catalog_profile(name):
            yield catalog_solution(name)


def non_solution():
    tau = (2, 1)
    return make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])


def dihedral_quandle(n):
    """x*y = 2y - x as a derived-type solution on [n]."""
    table = [
        (y, _mod1(2 * y - x, n)) for x in range(1, n + 1) for y in range(1, n + 1)
    ]
    return make_solution(n, table)


class TestSmithNormalForm:
    def test_zero(self):
        _, d, _ = smith_normal_form([[0, 0], [0, 0]])
        assert d.entries == ((0, 0), (0, 0))

    def test_identity(self):
        _, d, _ = smith_normal_form(identity(3))
        assert d.entries == identity(3).entries

    def test_two_three(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 3]])
        assert diagonal(d) == (1, 6)

    def test_random_properties(self):
        for m in random_matrices():
            u, d, v = smith_normal_form(m)
            assert mul(mul(u, m), v).entries == d.entries
            diag = diagonal(d)
            for a, b in zip(diag, diag[1:]):
                assert not (a == 0 and b != 0)
                if a and b:
                    assert b % a == 0
            assert all(
                d.entries[i][j] == 0
                for i in range(d.rows)
                for j in range(d.cols)
                if i != j
            )
            assert abs(det_bareiss(u)) == 1
            assert abs(det_bareiss(v)) == 1
            assert _factors_and_pivots(sparse_columns(m))[0] == tuple(x for x in diag if x)

    def test_sparse_factors_leave_columns_unchanged(self, standard):
        columns = boundary_columns(standard["dih3"], 3)
        before = [dict(col) for col in columns]
        _, d, _ = smith_normal_form(dense(columns, 9))
        assert _factors_and_pivots(columns)[0] == tuple(x for x in diagonal(d) if x)
        assert columns == before

    def test_factors_of_boundaries_match_oracle(self, census2, census3):
        cases = [(R, n) for R in census2 + census3 for n in (1, 2, 3)]
        for R in non_kgraph_catalog():
            cases.extend((R, n) for n in range(1, 9) if R.size ** n <= 256)
        for R, n in cases:
            columns = boundary_columns(R, n)
            _, d, _ = smith_normal_form(dense(columns, R.size ** (n - 1)))
            assert _factors_and_pivots(columns)[0] == tuple(x for x in diagonal(d) if x), (R, n)


class TestBoundary:
    def test_degree_one_vanishes(self, standard):
        assert boundary_columns(standard["dih3"], 1) == [{}, {}, {}]

    def test_degree_two_derived_formula(self, standard):
        # for a passive first coordinate the boundary is x1 - x1*x2
        R = standard["dih3"]
        m = dense(boundary_columns(R, 2), 3)
        for x1 in (1, 2, 3):
            for x2 in (1, 2, 3):
                col = (x1 - 1) * 3 + (x2 - 1)
                expected = [0, 0, 0]
                expected[x1 - 1] += 1
                star = _mod1(2 * x2 - x1, 3)
                expected[star - 1] -= 1
                assert [m.entries[r][col] for r in range(3)] == expected

    def test_degree_three_displayed_terms(self, standard):
        # (x1,x3) - (x1*x2,x3) - (x1,x2) + (x1*x3,x2*x3)
        R = standard["dih3"]
        m = dense(boundary_columns(R, 3), 9)
        star = lambda a, b: _mod1(2 * b - a, 3)
        for x1, x2, x3 in product((1, 2, 3), repeat=3):
            col = (x1 - 1) * 9 + (x2 - 1) * 3 + (x3 - 1)
            expected = {}
            for word, coeff in (
                ((x1, x3), 1),
                ((star(x1, x2), x3), -1),
                ((x1, x2), -1),
                ((star(x1, x3), star(x2, x3)), 1),
            ):
                key = (word[0] - 1) * 3 + (word[1] - 1)
                expected[key] = expected.get(key, 0) + coeff
            for row in range(9):
                assert m.entries[row][col] == expected.get(row, 0)

    def test_derived_matches_generic(self, standard):
        for n in (1, 2, 3):
            assert derived_boundary(standard["dih3"], n) == boundary_columns(standard["dih3"], n)
        for n in (1, 2, 3, 4):
            assert derived_boundary(standard["flip2"], n) == boundary_columns(standard["flip2"], n)

    def test_negative_degrees_rejected(self, standard):
        R = standard["dih3"]
        with pytest.raises(InvalidParams):
            homology(R, -1)
        with pytest.raises(InvalidParams):
            cohomology(R, -1)
        with pytest.raises(InvalidParams):
            cohomology(R, -2, 3)

    def test_complex_needs_solution(self):
        bad = non_solution()
        for call in (
            lambda: homology(bad, 2),
            lambda: cohomology(bad, 2),
            lambda: cohomology(bad, 2, 3),
            lambda: verify_complex(bad, 3),
        ):
            with pytest.raises(NotAYbeSolution):
                call()

    def test_one_braid_check_per_call(self, monkeypatch, standard):
        module = importlib.import_module("ybk.homology")
        calls = []

        def counting(R):
            calls.append(R)
            return is_ybe(R)

        monkeypatch.setattr(module, "is_ybe", counting)
        R = standard["dih3"]
        for call in (
            lambda: homology(R, 0),
            lambda: homology(R, 3),
            lambda: cohomology(R, 3),
            lambda: cohomology(R, 3, 3),
            lambda: verify_complex(R, 3),
        ):
            calls.clear()
            call()
            assert calls == [R]

    def test_degree_must_be_an_int(self, standard):
        R = standard["dih3"]
        for degree in ("2", 2.0, True, False, None):
            for call in (homology, cohomology, verify_complex):
                with pytest.raises(InvalidParams):
                    call(R, degree)

    def test_matches_level_code_faces(self, census2, census3):
        cases = [
            (R, n) for R in enumerate_solutions(1) + census2 + census3 for n in range(1, 6)
        ]
        cases += [
            (builtin("dihedral", k), n) for k in (3, 4, 5, 6) for n in range(1, 7) if k ** n <= 729
        ]
        for R, n in cases:
            assert boundary_columns(R, n) == level_code_faces(R, n), (R, n)

    def test_matches_word_level_oracle(self, census2, census3):
        cases = [
            (R, n) for R in enumerate_solutions(1) + census2 + census3 for n in (1, 2, 3, 4)
        ]
        for R in non_kgraph_catalog():
            cases.extend((R, n) for n in range(1, 7) if R.size ** n <= 729)
        for R, n in cases:
            assert dense(boundary_columns(R, n), R.size ** (n - 1)).entries == oracle_boundary(R, n), (R, n)

    def test_a_planted_push_entry_reaches_every_reader(self, monkeypatch, standard):
        # every push table grows from R's code table, so two entries swapped
        # there reach each reader of the walk, and each then disagrees with its
        # oracle, which reads R through its calls and no push table
        constructions = importlib.import_module("ybk.constructions")
        R = standard["id3"]
        words = list(product((1, 2, 3), repeat=2))
        legs = legs_level_map(R, 2, 2)
        oracles = [
            make_solution(9, [(encode_word(v, 3), encode_word(u, 3)) for v, u in legs]),
            [(encode_word(v, 3) - 1, encode_word(u, 3) - 1) for v, u in legs_level_map(R, 2, 1)],
            oracle_boundary(R, 3),
            all(out == (u, v) for (u, v), out in zip(product(words, repeat=2), legs)),
        ]

        def readers():
            return [
                level_solution(R, 2),
                level_codes(R, 2, 1),
                dense(boundary_columns(R, 3), 9).entries,
                level_is_identity(R, 2),
            ]

        assert readers() == oracles
        real = constructions._codes

        def planted(R):
            codes = real(R)
            codes[0], codes[1] = codes[1], codes[0]
            return codes

        monkeypatch.setattr(constructions, "_codes", planted)
        for got, expected in zip(readers(), oracles):
            assert got != expected


class TestComplex:
    """verify_complex answers from the theorem; the composition `chain_holds` is its oracle."""

    def test_census_two(self, census2):
        for R in census2:
            assert verify_complex(R, 5) is True
            assert chain_holds(R, 5)

    def test_dihedral(self, standard):
        assert verify_complex(standard["dih3"], 4) is True
        assert chain_holds(standard["dih3"], 4)

    def test_sampled_three(self):
        for R in random_solutions(3, 6, seed=71, require_ybe=True):
            assert verify_complex(R, 3) is True
            assert chain_holds(R, 3)

    def test_census_and_catalog_sweep(self, census2, census3):
        # every pair of boundaries with a top basis of at most 3^6 words
        solutions = enumerate_solutions(1) + census2 + census3 + list(non_kgraph_catalog())
        assert len(solutions) == 79 + 25
        for R in solutions:
            nmax = max(n for n in range(1, 10) if R.size ** n <= 3 ** 6)
            assert verify_complex(R, nmax) is True
            assert chain_holds(R, nmax), (R, nmax)

    @pytest.mark.parametrize("nmax, count", [(13, "1594323"), (9001, "3\\^9001")])
    def test_over_limit_top_degree_builds_nothing(self, monkeypatch, standard, nmax, count):
        module = importlib.import_module("ybk.homology")
        original = module._face_tables
        calls = []

        def counting(R, top):
            calls.append(top)
            return original(R, top)

        monkeypatch.setattr(module, "_face_tables", counting)
        with pytest.raises(Overflow, match=f"^degree-{nmax} chain basis needs {count} entries"):
            verify_complex(standard["dih3"], nmax)
        assert calls == []

    @pytest.mark.parametrize("nmax", [-1, -3])
    def test_negative_top_degree_rejected(self, standard, nmax):
        # an empty complex used to report the chain condition as holding
        with pytest.raises(InvalidParams, match=f"^degree must be at least 0, got {nmax}$"):
            verify_complex(standard["dih3"], nmax)

    def test_changed_entry_breaks_chain_condition(self, monkeypatch, standard):
        module = importlib.import_module("oracles")
        original = module.boundary_columns

        def changed(R, n):
            columns = original(R, n)
            if n != 3:
                return columns
            # column 1 of the degree-2 boundary is x1 - x1*x2 at (1, 2), nonzero;
            # add 1 at row 1, column 0
            columns[0] = {**columns[0], 1: columns[0].get(1, 0) + 1}
            return columns

        R = standard["dih3"]
        assert chain_holds(R, 3)
        monkeypatch.setattr(module, "boundary_columns", changed)
        # the oracle sees the planted fault; the theorem's answer reads no boundary
        assert chain_holds(R, 3) is False
        assert verify_complex(R, 3) is True


class TestCompression:
    """The boundary into degree n is factored without the out-map's unit-pivot rows."""

    @staticmethod
    def uncompressed(R, n):
        out_factors = _factors_and_pivots(boundary_columns(R, n))[0] if n else ()
        in_factors = _factors_and_pivots(boundary_columns(R, n + 1))[0]
        free = R.size ** n - len(out_factors) - len(in_factors)
        return free, tuple(d for d in out_factors if d > 1), tuple(d for d in in_factors if d > 1)

    def test_matches_uncompressed_factors(self, census2, census3, standard):
        module = importlib.import_module("ybk.homology")
        cases = [(R, n) for R in census2 + census3 for n in (0, 1, 2, 3)]
        cases += [(standard["dih3"], n) for n in range(6)]
        cases += [(builtin("dihedral", k), n) for k in (4, 5) for n in range(4)]
        for R, n in cases:
            assert module._free_and_torsion(R, n) == self.uncompressed(R, n), (R, n)

    def test_rank_identity_on_dihedral_three(self, standard):
        # Dumas-Saunders-Villard: rank over Q minus rank over F_3 counts the
        # invariant factors divisible by 3
        # invariant factors of 1 and 3 only: a large prime divides none, so
        # the rank modulo it is the rank over Q
        module = importlib.import_module("ybk.homology")
        R = standard["dih3"]
        out_rank = 0
        for n in range(7):
            columns = boundary_columns(R, n + 1)
            free, _, torsion = module._free_and_torsion(R, n)
            rank_q = rank_mod(columns, 1_000_003)
            assert rank_q - rank_mod(columns, 3) == sum(1 for d in torsion if d % 3 == 0), n
            assert free == 3 ** n - out_rank - rank_q, n
            out_rank = rank_q


class TestNormalized:
    """Quandle-type solutions are read from the normalized complex; the full one is its oracle."""

    def test_quandle_type_tables(self, census2, census3):
        module = importlib.import_module("ybk.homology")
        counts = [sum(map(module._quandle_type, census)) for census in (enumerate_solutions(1), census2, census3)]
        assert counts == [1, 1, 5]
        names = [name for name in catalog_names() if "valid_kgraph" not in catalog_profile(name)]
        routed = {name for name in names if module._quandle_type(catalog_solution(name))}
        assert routed == {name for name in names if name.startswith(("dihedral-", "flip-"))}
        # a relabeling phi x phi keeps the property and its absence
        for R in census3:
            for phi in permutations(range(1, 4)):
                table = [None] * 9
                for idx, (u, v) in enumerate(R.table):
                    x, y = divmod(idx, 3)
                    table[(phi[x] - 1) * 3 + phi[y] - 1] = (phi[u - 1], phi[v - 1])
                relabeled = make_solution(3, table)
                assert module._quandle_type(relabeled) == module._quandle_type(R)

    def test_routed_groups_match_the_full_complex(self, census2, census3):
        module = importlib.import_module("ybk.homology")
        quandles = [R for R in enumerate_solutions(1) + census2 + census3 if module._quandle_type(R)]
        cases = [(R, 5) for R in quandles + [catalog_solution(name) for name in ("dihedral-3", "flip-2", "flip-3")]]
        cases += [(catalog_solution(name), 4) for name in ("dihedral-4", "flip-4", "dihedral-5")]
        for R, top in cases:
            assert module._quandle_type(R)
            for n in range(top + 1):
                # the groups `_groups` builds, by universal coefficients, from the full complex
                free, here, above = module._free_and_torsion(R, n)
                for modulus in (None, 2, 3, 4, 6):
                    if modulus is None:
                        expected = AbelianGroup(free, here)
                    else:
                        orders = [modulus] * free + [gcd(d, modulus) for d in here + above]
                        expected = AbelianGroup.from_cyclic_orders(orders)
                    got = module._groups(R, n, modulus)
                    assert got == (AbelianGroup(free, above), expected), (R, n, modulus)

    def test_basis_faces_match_picking(self, census2, census3):
        # the boundaries built one degree from the last equal those picked from the faces of every code
        module = importlib.import_module("ybk.homology")
        quandles = [R for R in enumerate_solutions(1) + census2 + census3 if module._quandle_type(R)]
        cases = [(R, 6) for R in quandles + [catalog_solution(name) for name in ("dihedral-3", "flip-2", "flip-3")]]
        cases += [(catalog_solution(name), 5) for name in ("dihedral-4", "dihedral-5", "flip-4")]
        for R, top in cases:
            size = R.size
            tables = module._face_tables(R, top)
            # the degree-0 basis is the empty word
            codes = [0]
            for p, (built, columns) in zip(range(1, top + 1), module._normalized_boundaries(R)):
                faces = [-1] * size ** (p - 1)
                for c in codes:
                    faces[c] = c
                codes = [c * size + x for c in codes for x in range(size) if p == 1 or x != c % size]
                assert list(built) == codes, (R, p)
                assert columns == normalized_columns_by_picking(tables, p, codes, faces), (R, p)

    def test_raw_tables_get_the_error_of_make_solution(self):
        # Solutions built without make_solution: a 2-element table with 3
        # entries, an out-of-range entry, size 0, a short table and a float
        # entry; each used to escape as IndexError, TypeError or ValueError,
        # or to fail the passive-first check of h1_orbit_check
        tables = [
            Solution(2, ((1, 1), (2, 2), (2, 1))),
            Solution(2, ((1, 1), (1, 3), (2, 1), (2, 2))),
            Solution(0, ()),
            Solution(3, ((1, 1), (2, 2))),
            Solution(2, ((1, 1), (1.0, 2), (2, 1), (2, 2))),
        ]
        calls = (homology, cohomology, lambda R, n: cohomology(R, n, 3), verify_complex, lambda R, n: h1_orbit_check(R))
        for R in tables:
            with pytest.raises(YbkError) as expected:
                make_solution(R.size, R.table)
            for call in calls:
                for n in (0, 1, 2, 3):
                    with pytest.raises(YbkError) as caught:
                        call(R, n)
                    assert type(caught.value) is type(expected.value)
                    assert str(caught.value) == str(expected.value)


class TestHomology:
    def test_h0(self, standard):
        assert homology(standard["dih3"], 0) == AbelianGroup(1, ())

    def test_h1_dihedral(self, standard):
        assert homology(standard["dih3"], 1) == AbelianGroup(1, ())

    def test_h1_flips(self):
        for n in (2, 3, 4):
            assert homology(builtin("flip", n), 1) == AbelianGroup(n, ())

    def test_h2_dihedral_regression(self, standard):
        assert homology(standard["dih3"], 2) == AbelianGroup(1, ())

    def test_dihedral_three_torsion_grows(self, standard):
        R = standard["dih3"]
        for n, threes in ((3, 1), (4, 2), (5, 4), (6, 7), (7, 13), (8, 23), (9, 41)):
            assert homology(R, n) == AbelianGroup(1, (3,) * threes), n

    def test_orbit_law_for_derived_solutions(self, census2, census3):
        # Etingof-Grana (J. Pure Appl. Algebra 2003): the free rank of H_n of
        # a derived solution is the number of right-action orbits to the n
        checked = 0
        for R in enumerate_solutions(1) + census2 + census3:
            try:
                D = left_derived_solution(R)
            except Degenerate:
                continue
            checked += 1
            orbits = len(beta_orbits(D).blocks)
            for n in (1, 2, 3):
                assert homology(D, n).free_rank == orbits ** n, (R, n)
        assert checked == 71

    def test_orbit_law_for_racks(self, census2, census3):
        # Etingof-Grana (J. Pure Appl. Algebra 2003, as recalled): the free
        # rank of H_n of a finite rack is the number of orbits to the n.
        # Only passive-first inputs: the law fails on other census solutions
        names = [name for name in catalog_names() if "valid_kgraph" not in catalog_profile(name)]
        tables = enumerate_solutions(1) + census2 + census3 + [catalog_solution(name) for name in names]
        inputs = [R for R in tables if R.size <= 5 and _passive_first(R)]
        checks = 0
        for R in inputs:
            orbits = len(beta_orbits(R).blocks)
            for n in range(5 if R.size <= 3 else 4):
                assert homology(R, n).free_rank == orbits ** n, (R, n)
                checks += 1
        assert (len(inputs), checks) == (23, 111)

    def test_latin_quandle_torsion_divides_the_order(self, standard):
        # Przytycki-Yang (J. Pure Appl. Algebra 2015, as recalled): the
        # torsion of a finite Latin quandle is annihilated by its order
        for R, top in ((standard["dih3"], 7), (standard["dih5"], 4)):
            for n in range(top + 1):
                assert all(R.size % d == 0 for d in homology(R, n).torsion), (R, n)

    def test_rank_nullity(self, census2):
        for R in census2:
            for n in (1, 2, 3):
                columns = boundary_columns(R, n)
                m = dense(columns, 2 ** (n - 1))
                rank = len(_factors_and_pivots(columns)[0])
                assert rank <= min(m.rows, m.cols)
                assert 2 ** n - rank >= 0


class TestCohomology:
    def test_degree_zero_is_coefficients(self, standard):
        assert cohomology(standard["dih3"], 0) == AbelianGroup(1, ())
        assert cohomology(standard["dih3"], 0, 4) == AbelianGroup.from_cyclic_orders([4])

    def test_bad_modulus(self, standard):
        for modulus in (1, "3", 3.0, True):
            with pytest.raises(BadModulus):
                cohomology(standard["dih3"], 1, modulus)
        # the modulus is checked before the degree
        with pytest.raises(BadModulus):
            cohomology(standard["dih3"], -1, 1)

    def test_one_cocycles_mod_two(self, standard):
        # kernel of the degree-1 coboundary equals the functions constant on
        # star-moves: f(x1) = f(x1*x2)
        for R in (standard["dih3"], standard["flip2"]):
            n = R.size
            d2 = dense(boundary_columns(R, 2), n)
            kernel = {
                f
                for f in product((0, 1), repeat=n)
                if all(
                    sum(f[r] * d2.entries[r][c] for r in range(n)) % 2 == 0
                    for c in range(n * n)
                )
            }
            star = lambda a, b: R(a, b)[1]
            direct = {
                f
                for f in product((0, 1), repeat=n)
                if all(
                    f[x - 1] == f[star(x, y) - 1]
                    for x in range(1, n + 1)
                    for y in range(1, n + 1)
                )
            }
            assert kernel == direct

    def test_two_cocycles_mod_two(self, standard):
        # f(x1,x2) + f(x1*x2,x3) = f(x1,x3) + f(x1*x3,x2*x3)
        for R in (standard["dih3"], standard["flip2"]):
            n = R.size
            dim = n * n
            d3 = dense(boundary_columns(R, 3), dim)
            kernel = {
                f
                for f in product((0, 1), repeat=dim)
                if all(
                    sum(f[r] * d3.entries[r][c] for r in range(dim)) % 2 == 0
                    for c in range(n ** 3)
                )
            }
            star = lambda a, b: R(a, b)[1]
            idx = lambda a, b: (a - 1) * n + (b - 1)
            direct = {
                f
                for f in product((0, 1), repeat=dim)
                if all(
                    (
                        f[idx(x1, x2)]
                        + f[idx(star(x1, x2), x3)]
                        + f[idx(x1, x3)]
                        + f[idx(star(x1, x3), star(x2, x3))]
                    )
                    % 2
                    == 0
                    for x1 in range(1, n + 1)
                    for x2 in range(1, n + 1)
                    for x3 in range(1, n + 1)
                )
            }
            assert kernel == direct

    def test_integral_cohomology_consistency(self, standard):
        # degree-1 integral cohomology of the dihedral solution is free of
        # rank 1 (frozen); reduction mod 2 keeps one cyclic factor
        assert cohomology(standard["dih3"], 1) == AbelianGroup(1, ())
        assert cohomology(standard["dih3"], 1, 2) == AbelianGroup.from_cyclic_orders([2])


class TestOrbits:
    def test_dihedral_transitive(self, standard):
        assert beta_orbits(standard["dih3"]).blocks == ((1, 2, 3),)

    def test_flip_discrete(self):
        for n in (2, 3, 4):
            assert beta_orbits(builtin("flip", n)).blocks == tuple(
                (x,) for x in range(1, n + 1)
            )

    def test_blocks_stable_under_actions(self, census3):
        for R in census3[:20]:
            blocks = beta_orbits(R).blocks
            lookup = {}
            for idx, block in enumerate(blocks):
                for x in block:
                    lookup[x] = idx
            for y in range(1, 4):
                for x in range(1, 4):
                    assert lookup[R(x, y)[1]] == lookup[x]

    def test_h1_orbit_check(self, standard, census3):
        assert h1_orbit_check(standard["dih3"])
        for n in (2, 3, 4):
            assert h1_orbit_check(builtin("flip", n))
        assert h1_orbit_check(dihedral_quandle(4))
        count = 0
        for R in census3:
            report = properties(R)
            ab_alpha_passive = all(R(x, y)[0] == y for x in (1, 2, 3) for y in (1, 2, 3))
            if ab_alpha_passive:
                count += 1
                assert h1_orbit_check(R)
        assert count > 0

    def test_quandle_on_four_has_two_orbits(self):
        R = dihedral_quandle(4)
        assert is_ybe(R)
        assert beta_orbits(R).blocks == ((1, 3), (2, 4))
        assert homology(R, 1) == AbelianGroup(2, ())

    def test_requires_passive_first_coordinate(self, standard):
        with pytest.raises(NotDerivedType):
            h1_orbit_check(standard["shift2"])


class TestEquivariance:
    def test_isomorphic_solutions_share_homology(self, census3):
        iso = classify(census3, "yb_iso")
        checked = 0
        for cls in iso.classes:
            if len(cls) < 2 or checked >= 4:
                continue
            checked += 1
            a = iso.solutions[cls[0]]
            b = iso.solutions[cls[1]]
            assert yb_isomorphic(a, b) is not None
            for n in (1, 2):
                assert homology(a, n) == homology(b, n)
        assert checked > 0


class TestAbelianGroup:
    def test_canonical_merge(self):
        assert AbelianGroup.from_cyclic_orders([2, 3]) == AbelianGroup(0, (6,))
        assert AbelianGroup.from_cyclic_orders([2, 4, 3]) == AbelianGroup(0, (2, 12))
        assert AbelianGroup.from_cyclic_orders([0, 1, 2]) == AbelianGroup(1, (2,))

    def test_matches_prime_factorization(self):
        rng = random.Random(41)
        draws = [
            lambda: rng.randint(-3, 40),
            lambda: rng.randint(1, 10 ** 6),
            lambda: 2 ** rng.randint(0, 9) * 3 ** rng.randint(0, 6) * 5 ** rng.randint(0, 3),
            lambda: rng.choice((6, 10, 12, 15, 30, 36, 210, 1001, 9973)) * rng.randint(1, 50),
        ]
        for _ in range(3000):
            orders = [rng.choice(draws)() for _ in range(rng.randint(0, 8))]
            assert AbelianGroup.from_cyclic_orders(orders) == cyclic_orders_by_primes(orders), orders

    def test_large_prime_orders(self):
        # trial division up to sqrt(p) would take minutes
        p = 10 ** 18 + 3
        assert AbelianGroup.from_cyclic_orders([p] * 3 + [2, 6]) == AbelianGroup(0, (p, 2 * p, 6 * p))
        assert AbelianGroup.from_cyclic_orders([3] * 27 + [3, 9]) == cyclic_orders_by_primes([3] * 27 + [3, 9])

    @pytest.mark.parametrize("order", [2.5, 2.0, "2", True, None])
    def test_orders_must_be_ints(self, order):
        # an order of 2.5 used to truncate to Z/2
        with pytest.raises(InvalidParams) as caught:
            AbelianGroup.from_cyclic_orders([order, 0])
        assert str(caught.value) == f"cyclic order must be an integer, got {order!r}"

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidParams, match="divisibility chain"):
            AbelianGroup(0, (4, 6))

    @pytest.mark.parametrize("orders", [5, None, 2.5])
    def test_orders_must_come_in_an_iterable(self, orders):
        with pytest.raises(InvalidParams):
            AbelianGroup.from_cyclic_orders(orders)

    @pytest.mark.parametrize(
        "free, torsion",
        [(-1, ()), (0, (0, 4)), (0, (1,)), (1.5, ()), (True, ()), (0, (2.5,)), (0, [2]), (0, 5)],
    )
    def test_bad_groups_rejected(self, free, torsion):
        # (0, 4) used to divide by zero before the factors were checked
        with pytest.raises(InvalidParams):
            AbelianGroup(free, torsion)

    def test_rendering(self):
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(2, (2, 6))) == "Z^2 x Z/2 x Z/6"

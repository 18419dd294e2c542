import operator
import random
from itertools import islice, product

import pytest

from ybk.catalog import catalog_names, catalog_profile, catalog_solution
from ybk.classify import enumerate_solutions

from ybk.constructions import (
    cartesian_product,
    decode_word,
    derived_solution,
    disjoint_union_solution,
    encode_word,
    glued_identity_extension,
    left_derived_solution,
    level_codes,
    level_is_identity,
    level_map,
    level_solution,
    trivial_extension,
)
from ybk.errors import (
    Degenerate,
    InvalidParams,
    NotABijection,
    NotAYbeSolution,
    NotDerivedType,
    Overflow,
    UnknownName,
    YbkError,
)
import ybk.constructions as constructions
from ybk.kgraph import make_theta_family, periodicity, validate_kgraph
from ybk.solution import Solution, builtin, is_ybe, make_solution, mirror_derived, properties, _codes, _mod1

from conftest import CLONES, collections_during, random_solutions
from oracles import left_derived_formula, legs_level_map, mirror_derived_formula


def glue_add():
    return [(_mod1(s + t, 2), t) for s in (1, 2) for t in (1, 2)]


def _random_glue_23():
    import random as _random

    rng = _random.Random(17)
    outs = [(t, s) for t in (1, 2, 3) for s in (1, 2)]
    rng.shuffle(outs)
    return outs


def glue_id():
    return [(s, t) for s in (1, 2) for t in (1, 2)]


class TestEncoding:
    def test_round_trip(self):
        for n, length in ((2, 3), (3, 2), (5, 4)):
            for code in range(1, n ** length + 1):
                assert encode_word(decode_word(code, n, length), n) == code

    def test_lexicographic(self):
        words = sorted(product((1, 2, 3), repeat=3))
        assert [encode_word(w, 3) for w in words] == list(range(1, 28))

    @pytest.mark.parametrize(
        "word, n, message",
        [
            ((1, 4), 3, "letter 4 outside 1..3"),
            ((0,), 3, "letter 0 outside 1..3"),
            ((True, 2), 3, "letter True outside 1..3"),
            ((1.0,), 3, "letter 1.0 outside 1..3"),
            ((1,), 0, "alphabet size must be at least 1, got 0"),
            ((1,), True, "alphabet size must be an integer, got True"),
        ],
    )
    def test_encode_rejects_letters_outside_the_alphabet(self, word, n, message):
        with pytest.raises(InvalidParams) as caught:
            encode_word(word, n)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "code, n, length, message",
        [
            (10, 3, 2, "code 10 outside 1..9"),
            (0, 3, 2, "code 0 outside 1..9"),
            (-4, 3, 2, "code -4 outside 1..9"),
            (True, 3, 2, "code True outside 1..9"),
            (2, 3, 0, "code 2 outside 1..1"),
            (1, 3, -1, "word length must be at least 0, got -1"),
            (1, 3, 2.0, "word length must be an integer, got 2.0"),
            (1, 3, True, "word length must be an integer, got True"),
            (1, 2.0, 1, "alphabet size must be an integer, got 2.0"),
        ],
    )
    def test_decode_rejects_codes_and_lengths_out_of_range(self, code, n, length, message):
        with pytest.raises(InvalidParams) as caught:
            decode_word(code, n, length)
        assert str(caught.value) == message

    def test_empty_word(self):
        assert encode_word((), 3) == 1
        assert decode_word(1, 3, 0) == ()


class TestCartesianProduct:
    def test_flip_times_flip_is_flip(self, standard):
        P = cartesian_product(standard["flip2"], standard["flip2"])
        assert P.table == builtin("flip", 4).table

    def test_identity_times_dihedral(self, standard):
        P = cartesian_product(standard["id2"], standard["dih3"])
        assert P.size == 6 and is_ybe(P)

    def test_always_solution(self, census2):
        for a in census2:
            for b in census2:
                assert is_ybe(cartesian_product(a, b))

    def test_rejects_non_solution(self, standard):
        bad = make_solution(2, [(2, 2), (2, 1), (1, 2), (1, 1)])
        assert not is_ybe(bad)
        with pytest.raises(NotAYbeSolution):
            cartesian_product(bad, standard["flip2"])


class TestTrivialExtension:
    def test_degenerate_three_point_example(self, standard):
        E = trivial_extension(standard["id2"], standard["id1"])
        for i in (1, 2):
            for j in (1, 2):
                assert E(i, j) == (i, j)
        for m in (1, 2, 3):
            assert E(m, 3) == (3, m)
            assert E(3, m) == (m, 3)
        assert is_ybe(E)
        assert not properties(E).non_degenerate

    def test_two_singletons_give_flip(self, standard):
        E = trivial_extension(standard["id1"], standard["id1"])
        assert E.table == standard["flip2"].table

    def test_dihedral_extended(self, standard):
        E = trivial_extension(standard["dih3"], standard["id1"])
        assert E.size == 4 and is_ybe(E)

    def test_rejects_non_solution(self, standard):
        bad = make_solution(2, [(2, 2), (2, 1), (1, 2), (1, 1)])
        with pytest.raises(NotAYbeSolution):
            trivial_extension(standard["flip2"], bad)


class TestGluedExtension:
    def test_singletons(self):
        R = glued_identity_extension(1, 1, [(1, 1)])
        assert R.table == builtin("flip", 2).table

    def test_worked_map_is_solution(self):
        R = glued_identity_extension(2, 2, glue_add())
        assert is_ybe(R)

    def test_any_bijection_is_solution(self):
        # every gluing bijection yields a solution; try all 24 on [2] x [2]
        from itertools import permutations

        outs = [(t, s) for t in (1, 2) for s in (1, 2)]
        for perm in permutations(outs):
            assert is_ybe(glued_identity_extension(2, 2, list(perm)))

    def test_rejects_non_bijection(self):
        with pytest.raises(NotABijection):
            glued_identity_extension(2, 2, [(1, 1), (1, 1), (2, 1), (2, 2)])

    @pytest.mark.parametrize(
        "theta", [[(True, True)], [(1, 1, 1)], [(2, 1)], [("a", 1)]]
    )
    def test_rejects_entries_outside_the_glue(self, theta):
        # checked by make_theta_family: booleans, non-pairs, out of range
        with pytest.raises(InvalidParams):
            glued_identity_extension(1, 1, theta)

    def test_matches_two_colour_union(self):
        # the glued extension is the two-block disjoint-union solution
        fam = make_theta_family(2, (2, 3), {(1, 2): _random_glue_23()})
        direct = glued_identity_extension(2, 3, _random_glue_23())
        assert disjoint_union_solution(fam).table == direct.table


class TestDerived:
    def test_flip_gives_flip(self, standard):
        assert derived_solution(standard["flip2"]).table == standard["flip2"].table

    def test_dihedral_formula(self, standard):
        D = derived_solution(standard["dih3"])
        for x in (1, 2, 3):
            for y in (1, 2, 3):
                assert D(x, y) == (_mod1(2 * x - y, 3), x)

    def test_identity_degenerate(self, standard):
        with pytest.raises(Degenerate):
            derived_solution(standard["id2"])

    def test_left_variant_of_dihedral_is_dihedral(self, standard):
        assert left_derived_solution(standard["dih3"]).table == standard["dih3"].table

    def test_derived_is_derived_type_solution(self, census3):
        for R in census3:
            if not properties(R).non_degenerate:
                continue
            D = derived_solution(R)
            report = properties(D)
            assert report.is_ybe and report.derived_type
            L = left_derived_solution(R)
            assert properties(L).is_ybe and properties(L).derived_type


class TestFlipOracles:
    """`left_derived_solution` and `mirror_derived` are built as flip-conjugates;
    here their closed formulas are read off `alpha_beta` instead."""

    @staticmethod
    def derived_type_solutions():
        rng = random.Random(29)
        out = []
        for n in (1, 2, 3, 4):
            span = range(1, n + 1)
            for _ in range(200):
                # one permutation in every row always gives a solution
                if rng.random() < 0.5:
                    rows = [rng.sample(span, n)] * n
                else:
                    rows = [rng.sample(span, n) for _ in span]
                if rng.random() < 0.5:
                    table = [(rows[x - 1][y - 1], x) for x in span for y in span]
                else:
                    table = [(y, rows[y - 1][x - 1]) for x in span for y in span]
                out.append(make_solution(n, table))
        return out

    @staticmethod
    def compare(R):
        """Which of the two constructions R reaches; a refusal must name its reason."""
        mirror = mirror_derived_formula(R)
        if mirror is None:
            with pytest.raises(NotDerivedType):
                mirror_derived(R)
        else:
            assert mirror_derived(R).table == mirror, R
        report = properties(R)
        if not report.is_ybe:
            with pytest.raises(NotAYbeSolution):
                left_derived_solution(R)
        elif not report.non_degenerate:
            with pytest.raises(Degenerate):
                left_derived_solution(R)
        else:
            assert left_derived_solution(R).table == left_derived_formula(R), R
        return mirror is not None, report.is_ybe and report.non_degenerate

    def test_census_solutions(self, census3):
        solutions = [R for n in (1, 2) for R in enumerate_solutions(n)] + list(census3)
        reached = [self.compare(R) for R in solutions]
        assert len(reached) == 79 and all(map(any, zip(*reached)))

    def test_catalog_solutions(self):
        names = [name for name in catalog_names() if "valid_kgraph" not in catalog_profile(name)]
        reached = [self.compare(catalog_solution(name)) for name in names]
        assert all(map(any, zip(*reached)))

    def test_seeded_derived_type_bijections(self):
        solutions = self.derived_type_solutions()
        reached = [self.compare(R) for R in solutions]
        assert len(reached) == 800 and all(mirror for mirror, _ in reached)
        for n in (1, 2, 3, 4):
            assert sum(left for R, (_, left) in zip(solutions, reached) if R.size == n) >= 100


class TestLevelMap:
    def test_shift_level_three_formula(self, standard):
        lm = level_map(standard["shift2"], 3, 3)
        for u in product((1, 2), repeat=3):
            for v in product((1, 2), repeat=3):
                shifted = tuple(_mod1(j + 1, 2) for j in v)
                assert lm.apply(u, v) == (shifted, u)

    def test_flip_swaps_blocks(self, standard):
        lm = level_map(standard["flip2"], 2, 3)
        for u in product((1, 2), repeat=2):
            for v in product((1, 2), repeat=3):
                assert lm.apply(u, v) == (v, u)

    def test_level_one_is_solution_itself(self, standard):
        R = standard["dih3"]
        lm = level_map(R, 1, 1)
        for x in (1, 2, 3):
            for y in (1, 2, 3):
                u, v = R(x, y)
                assert lm.apply((x,), (y,)) == ((u,), (v,))

    def test_leg_composition_oracle(self, census2, census3, standard):
        for R in census2 + [standard["dih3"]]:
            for n in (1, 2, 3):
                assert level_map(R, n, n).table == legs_level_map(R, n, n)
        for R in census3:
            assert level_map(R, 2, 2).table == legs_level_map(R, 2, 2)

    def test_rectangular_leg_oracle(self, census2, standard):
        for R in census2 + [standard["dih3"]]:
            for l, m in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 4)):
                assert level_map(R, l, m).table == legs_level_map(R, l, m)

    def test_block_coherence(self, standard):
        # pushing through a split block factors through the pieces
        R = standard["dih3"]
        l1, l2, m = 2, 1, 2
        combined = level_map(R, l1 + l2, m)
        first = level_map(R, l2, m)
        second = level_map(R, l1, m)
        for u in product((1, 2, 3), repeat=l1 + l2):
            for v in product((1, 2, 3), repeat=m):
                v1, tail = first.apply(u[l1:], v)
                v2, head = second.apply(u[:l1], v1)
                assert combined.apply(u, v) == (v2, head + tail)

    @pytest.mark.parametrize(
        "u, v",
        [((1,), (3, 3)), ((1, 2, 3), (1,)), ((1, 2), ()), ((1, 4), (1,)), ((1, 2), (0,)),
         (5, (1,)), (None, (1,)), ((1, 2), 5), ((True, 1), (1,)), ((1.0, 1), (1,))],
    )
    def test_apply_rejects_words_that_do_not_fit(self, standard, u, v):
        # a word that is not a sequence used to escape as TypeError, and a
        # bool or float letter used to pass one check and fail another
        lm = level_map(standard["dih3"], 2, 1)
        with pytest.raises(InvalidParams, match="cannot apply"):
            lm.apply(u, v)


LEVEL_CALLS = {
    "level_codes-l": lambda R, x: level_codes(R, x, 1),
    "level_codes-m": lambda R, x: level_codes(R, 1, x),
    "level_map-l": lambda R, x: level_map(R, x, 1),
    "level_map-m": lambda R, x: level_map(R, 2, x),
    "level_solution": level_solution,
    "level_is_identity": level_is_identity,
}


@pytest.mark.parametrize("length", [True, False, 1.0, 2.5, "2", None])
@pytest.mark.parametrize("call", LEVEL_CALLS.values(), ids=LEVEL_CALLS.keys())
def test_block_lengths_must_be_integers(standard, monkeypatch, call, length):
    def no_work(*args):
        raise AssertionError("the length is checked before any work")

    monkeypatch.setattr(constructions, "check_count", no_work)
    monkeypatch.setattr(constructions, "_push_levels", no_work)
    with pytest.raises(InvalidParams):
        call(standard["dih3"], length)


class TestLevelSolution:
    def test_solutions_lift_to_all_levels(self):
        for size, seed in ((2, 31), (3, 32)):
            for R in random_solutions(size, 8, seed=seed, require_ybe=True):
                for n in (2, 3):
                    assert is_ybe(level_solution(R, n))

    def test_level_one_reflects_failure(self):
        for R in random_solutions(3, 20, seed=33, require_ybe=False):
            assert is_ybe(level_solution(R, 1)) == is_ybe(R)

    def test_fixed_level_does_not_reflect_failure(self):
        # the equivalence with the base map quantifies over every level: this
        # bijection fails the braid relation while its level-2 map satisfies it
        R = make_solution(2, [(1, 2), (2, 1), (1, 1), (2, 2)])
        assert not is_ybe(R)
        assert is_ybe(level_solution(R, 2))

    def test_involutivity_preserved(self, census2):
        for R in census2:
            if not properties(R).involutive:
                continue
            for n in (2, 3):
                assert properties(level_solution(R, n)).involutive

    def test_derived_type_preserved(self, census2, standard):
        pool = [R for R in census2 if properties(R).derived_type] + [standard["dih3"]]
        for R in pool:
            assert properties(level_solution(R, 2)).derived_type

    def test_nondegeneracy_preserved(self, census3):
        count = 0
        for R in census3:
            if not properties(R).non_degenerate:
                continue
            count += 1
            if count > 12:
                break
            assert properties(level_solution(R, 2)).non_degenerate

    def test_identity_levels(self, standard):
        L = level_solution(standard["id3"], 2)
        assert L.table == builtin("identity", 9).table

    def test_overflow_guard(self, standard, monkeypatch):
        monkeypatch.setenv("YBK_LIMIT", "100")
        with pytest.raises(Overflow):
            level_solution(standard["dih3"], 4)

    def test_table_matches_validated_codes(self, census2, census3, standard):
        # the table make_solution builds from the product of adjacent legs;
        # the shapes include halves that differ (odd n), share a table (even
        # n), are trivial (n = 1) and have one-letter blocks (N = 1)
        cases = [(R, n) for R in census2 for n in (1, 2, 3, 4, 5)]
        cases += [(R, n) for R in census3[::4] for n in (1, 2)]
        cases += [(R, 3) for R in census3[1::9]]
        cases += [(standard["dih3"], 4)]
        cases += [(standard["id1"], n) for n in (1, 2, 3)]
        cases += [(R, 2) for R in random_solutions(3, 6, seed=35, require_ybe=False)]
        for R, n in cases:
            assert level_solution(R, n) == _legs_level_solution(R, n)

    @pytest.mark.parametrize("seed", [38, 39])
    def test_raw_tables_get_the_error_of_make_solution(self, seed):
        _check_raw_tables_get_the_error_of_make_solution(level_solution, seed)

    @pytest.mark.parametrize("seed", [38, 39])
    @pytest.mark.parametrize(
        "call",
        [call for name, call in LEVEL_CALLS.items() if name != "level_solution"]
        + [periodicity, lambda R, n: properties(R), lambda R, n: mirror_derived(R)],
        ids=[name for name in LEVEL_CALLS if name != "level_solution"] + ["periodicity", "properties", "mirror_derived"],
    )
    def test_raw_tables_get_the_error_of_make_solution_in_other_readers(self, call, seed):
        _check_raw_tables_get_the_error_of_make_solution(call, seed)

    @pytest.mark.parametrize(
        "index, entry",
        [(1, 0), (0, 27), (0, -9), (3, 0)],
        ids=["repeated", "v-too-large", "v-negative", "too-long"],
    )
    def test_bad_codes_fall_back_to_make_solution(self, standard, monkeypatch, index, entry):
        # level_solution trusts the walk of a bijection; a bad push through the
        # block (1, 1) reaches both halves, and make_solution on the product of
        # adjacent legs, which reads no push table, must then disagree with its table
        R = standard["dih3"]
        expected = _legs_level_solution(R, 2)
        real = constructions._push_levels
        # the entry moved * N**2 + b' of each letter 0, 1, 2 through the block (1, 1)
        _, twos = islice(real(R), 2)
        assert twos[0] == [0, 17, 22]

        def changed(R):
            for length, rows in enumerate(real(R), start=1):
                if length == 2:
                    rows = [rows[0][:index] + [entry] + rows[0][index + 1:]] + rows[1:]
                yield rows

        monkeypatch.setattr(constructions, "_push_levels", changed)
        try:
            got = level_solution(R, 2)
        except IndexError:
            got = None  # a letter past [N] indexes past the block gathers
        assert got != expected

    def test_a_repeated_level_five_build_runs_few_collections(self, standard):
        # a build keeps the pairs of its size, so a second build takes its
        # 3**10 pairs from the first (new pair tuples ran 80 gen-0 and 7 gen-1
        # collections on each build), and it cuts each of its 2,187 blocks
        # only as the table reads it (a list of them ran 3 gen-0 collections)
        first = level_solution(standard["dih3"], 5)
        built = []
        counts = collections_during(lambda: built.append(level_solution(standard["dih3"], 5)))
        assert counts == [0, 0, 0]
        second = built[0]
        assert second == first and all(map(operator.is_, second.table, first.table))

    def test_pairs_are_kept_up_to_256_points(self):
        assert constructions._pairs(256) is constructions._pairs(256)
        assert constructions._pairs(257) is not constructions._pairs(257)
        for size in (1, 3, 256, 257):
            assert list(constructions._pairs(size)) == list(product(range(1, size + 1), repeat=2))
        # the level flip swaps whole blocks: a table on 17**2 points builds its own pairs
        assert level_solution(builtin("flip", 17), 2) == builtin("flip", 17**2)


def _catalog_levels():
    """(name, n) for every catalog solution and level n whose table has at most 3**8 entries."""
    cases = []
    for name in catalog_names():
        try:
            size = catalog_solution(name).size
        except UnknownName:
            continue  # a commutation family
        cases += [(name, n) for n in range(1, 9) if size ** (2 * n) <= 3**8]
    return cases


@pytest.mark.parametrize("name, n", _catalog_levels(), ids=lambda value: str(value))
def test_level_solutions_are_records_of_their_pairs(name, n):
    # a level table shares its pair tuples with other builds of its size; the
    # result must still compare, hash, print, copy and pickle as a Solution
    # built from the legs oracle's pairs
    R = catalog_solution(name)
    oracle = _legs_level_solution(R, n)
    twin = Solution(oracle.size, oracle.table)
    got = level_solution(R, n)
    assert got == twin and twin == got and not got != twin
    assert hash(got) == hash(twin) and repr(got) == repr(twin)
    for clone in CLONES.values():
        copied = clone(got)
        assert type(copied) is Solution and copied == twin and repr(copied) == repr(twin)
    assert _codes(got) == [(u - 1) * twin.size + v - 1 for u, v in twin.table]


def _check_raw_tables_get_the_error_of_make_solution(call, seed):
    """Check that `call(R, n)` raises, for raw tables, the error make_solution raises."""
    # raw tables built without make_solution: an entry out of range, a
    # float, bool or non-pair entry, a short or long table, size 0, or a
    # repeated output, alone or before such an entry
    rng = random.Random(seed)
    tables = [Solution(0, ()), Solution(0, ((1, 1),)), Solution(2, ((1, 1), (1, 1), (2, 1), (2, 2)))]
    for size in (1, 2, 3):
        pairs = [(x, y) for x in range(1, size + 1) for y in range(1, size + 1)]
        for bad in ((0, 1), (1, size + 1), (-1, 1), (1.0, 1), (1, 2.5), (True, 1), (1,), (1, 1, 1)):
            cells = rng.sample(pairs, len(pairs))
            cells[rng.randrange(len(cells))] = bad
            tables.append(Solution(size, tuple(cells)))
        cells = rng.sample(pairs, len(pairs))
        tables += [Solution(size, tuple(cells[1:])), Solution(size, tuple(cells + cells[:1]))]
        # a shuffled bijection and a random table, each with one output
        # repeated: once at size 2, twice at size 3
        for _ in range(size - 1):
            for cells in (rng.sample(pairs, len(pairs)), [rng.choice(pairs) for _ in pairs]):
                i, j = rng.sample(range(len(cells)), 2)
                cells[i] = cells[j]
                tables.append(Solution(size, tuple(cells)))
    # the repeat at entry 1 comes first and names the error
    tables.append(Solution(2, ((1, 1), (1, 1), (2, 1), (3, 3))))
    for R in tables:
        with pytest.raises(YbkError) as expected:
            make_solution(R.size, R.table)
        for n in (1, 2, 3):
            with pytest.raises(YbkError) as caught:
                call(R, n)
            assert type(caught.value) is type(expected.value)
            assert str(caught.value) == str(expected.value)


def _legs_level_solution(R, n):
    """The level-n solution as make_solution builds it from `legs_level_map`, the product of adjacent legs."""
    table = [(encode_word(v, R.size), encode_word(u, R.size)) for v, u in legs_level_map(R, n, n)]
    return make_solution(R.size ** n, table)


class TestDisjointUnion:
    def test_all_identity_family(self):
        fam = make_theta_family(
            3, (2, 2, 2), {(1, 2): glue_id(), (1, 3): glue_id(), (2, 3): glue_id()}
        )
        U = disjoint_union_solution(fam)
        assert is_ybe(U)
        offsets = (0, 2, 4)
        for bi in range(3):
            for bj in range(3):
                for s in (1, 2):
                    for t in (1, 2):
                        x, y = offsets[bi] + s, offsets[bj] + t
                        if bi == bj:
                            assert U(x, y) == (x, y)
                        else:
                            assert U(x, y) == (offsets[bj] + s, offsets[bi] + t)

    def test_worked_mixed_family(self):
        fam = make_theta_family(
            3, (2, 2, 2), {(1, 2): glue_id(), (1, 3): glue_add(), (2, 3): glue_add()}
        )
        U = disjoint_union_solution(fam)
        assert is_ybe(U)
        for s in (1, 2):
            for t in (1, 2):
                assert U(s, 4 + t) == (4 + _mod1(s + t, 2), t)
                assert U(2 + s, 4 + t) == (4 + _mod1(s + t, 2), 2 + t)
                assert U(s, 2 + t) == (2 + s, t)

    def test_singleton_blocks_give_flip(self):
        fam = make_theta_family(
            3, (1, 1, 1), {(1, 2): [(1, 1)], (1, 3): [(1, 1)], (2, 3): [(1, 1)]}
        )
        U = disjoint_union_solution(fam)
        assert U.table == builtin("flip", 3).table
        assert properties(U).non_degenerate

    def test_ybe_iff_valid_family(self):
        import random as _random

        rng = _random.Random(77)
        seen_invalid = 0
        for _ in range(40):
            sizes = tuple(rng.randint(1, 2) for _ in range(3))
            maps = {}
            for i, j in ((1, 2), (1, 3), (2, 3)):
                outs = [
                    (t, s)
                    for t in range(1, sizes[j - 1] + 1)
                    for s in range(1, sizes[i - 1] + 1)
                ]
                rng.shuffle(outs)
                maps[(i, j)] = outs
            fam = make_theta_family(3, sizes, maps)
            valid = validate_kgraph(fam)[0]
            seen_invalid += not valid
            U = disjoint_union_solution(fam)
            assert is_ybe(U) == valid
            report = properties(U)
            assert report.involutive and report.square_free
            if any(n > 1 for n in sizes):
                assert not report.non_degenerate
        assert seen_invalid > 0

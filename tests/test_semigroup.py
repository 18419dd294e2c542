import random
from collections.abc import Mapping
from itertools import permutations, product
from math import comb

import pytest

import ybk.constructions as constructions
import ybk.semigroup as semigroup
from ybk.catalog import catalog_names, catalog_profile, catalog_solution
from ybk.constructions import disjoint_union_solution, encode_word, level_codes, level_map
from ybk.errors import InvalidParams, NotAYbeSolution, Overflow, PreconditionFailed
from ybk.kgraph import make_theta_family
from ybk.semigroup import (
    action_formula_check,
    check_cancellative,
    graded_elements,
    growth,
    presentations,
    semigroup_extension_check,
)
from ybk.solution import Solution, builtin, is_ybe, make_solution, _mod1

from conftest import random_solutions
from oracles import (
    all_positions_roots,
    cancellation_by_scan,
    extension_check_per_pair,
    index_of_by_dict,
    random_bijection_table,
    word_index,
)


def bfs_classes(R, n):
    """Independent closure oracle: BFS over single-position rewrites."""
    words = list(product(range(1, R.size + 1), repeat=n))
    seen = {}
    classes = []
    inv = R.inverse()
    for start in words:
        if start in seen:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            word = stack.pop()
            component.append(word)
            for pos in range(n - 1):
                for mapper in (R, inv):
                    u, v = mapper(word[pos], word[pos + 1])
                    other = word[:pos] + (u, v) + word[pos + 2 :]
                    if other not in seen:
                        seen[other] = True
                        stack.append(other)
        classes.append(frozenset(component))
    return set(classes)


def catalog_solutions(max_size):
    for name in catalog_names():
        if "valid_kgraph" not in catalog_profile(name):
            R = catalog_solution(name)
            if R.size <= max_size:
                yield R


class TestGradedElements:
    def test_identity_keeps_words_apart(self, standard):
        for n in (1, 2, 3):
            assert len(graded_elements(standard["id2"], n).classes) == 2 ** n

    def test_flip_counts_multisets(self, standard):
        for n in (1, 2, 3, 4):
            assert len(graded_elements(standard["flip3"], n).classes) == comb(n + 2, 2)

    def test_dihedral_length_two(self, standard):
        graded = graded_elements(standard["dih3"], 2)
        assert len(graded.classes) == 5
        as_sets = {frozenset(members) for members in graded.classes}
        assert frozenset({(1, 2), (2, 3), (3, 1)}) in as_sets
        assert frozenset({(2, 1), (3, 2), (1, 3)}) in as_sets

    def test_matches_bfs_oracle(self, standard):
        for R, n in ((standard["dih3"], 3), (standard["shift2"], 4)):
            ours = {frozenset(members) for members in graded_elements(R, n).classes}
            assert ours == bfs_classes(R, n)

    def test_census_matches_bfs_oracle(self, census2, census3, standard):
        cases = [(R, 5) for R in [builtin("identity", 1)] + census2 + census3]
        for R, maxlen in cases + [(standard["dih3"], 7)]:
            counts = [1]
            for n in range(1, maxlen + 1):
                oracle = bfs_classes(R, n)
                graded = graded_elements(R, n)
                assert {frozenset(members) for members in graded.classes} == oracle
                assert [members[0] for members in graded.classes] == sorted(map(min, oracle))
                assert all(list(members) == sorted(members) for members in graded.classes)
                counts.append(len(oracle))
            assert growth(R, maxlen) == tuple(counts)

    def test_reps_are_least_and_lengths_pure(self, standard):
        graded = graded_elements(standard["dih3"], 3)
        for members, rep in zip(graded.classes, graded.reps):
            assert rep == min(members)
            assert all(len(word) == 3 for word in members)

    @pytest.mark.parametrize("word", [(1, 2), (1, 2, 4), (0, 1, 1), [1, 2, 3, 1], 5, None])
    def test_index_of_rejects_words_outside_the_set(self, standard, word):
        # 5 and None used to escape as TypeError
        graded = graded_elements(standard["dih3"], 3)
        with pytest.raises(InvalidParams, match="is not a word of length 3 over \\[3\\]"):
            graded.index_of(word)
        assert graded.index_of([1, 2, 2]) == graded.index_of((1, 3, 3))

    @pytest.mark.parametrize("word", [(True, 1), (1.0, 1), (1, 1.0), [1, True]])
    def test_index_of_rejects_letters_that_are_not_ints(self, standard, word):
        # these used to find the class of (1, 1) by hash equality
        graded = graded_elements(standard["dih3"], 2)
        with pytest.raises(InvalidParams, match="is not a word of length 2 over \\[3\\]"):
            graded.index_of(word)
        assert graded.index_of((1, 1)) == 0

    @pytest.mark.parametrize(
        "limit, n, message",
        [
            ("100", 5, r"length-5 words over \[3\] needs 243 entries, above the limit 100 "),
            (None, 20, r"length-20 words over \[3\] needs 3486784401 entries, above the limit 1048576 "),
        ],
    )
    def test_overflow_before_any_word_is_built(self, standard, monkeypatch, limit, n, message):
        import ybk.semigroup as semigroup

        def no_words(*args, **kwargs):
            raise AssertionError("words built before the size check")

        monkeypatch.setattr(semigroup, "product", no_words)
        if limit is None:
            monkeypatch.delenv("YBK_LIMIT", raising=False)
        else:
            monkeypatch.setenv("YBK_LIMIT", limit)
        with pytest.raises(Overflow, match=message):
            graded_elements(standard["dih3"], n)


def _outcome(call, *args):
    """What `call(*args)` gives: ("index", value) or (error type, message)."""
    try:
        return "index", call(*args)
    except InvalidParams as exc:
        return type(exc), str(exc)


class TestIndexOf:
    def test_matches_the_per_word_dict(self, census2, census3):
        solutions = [builtin("identity", 1), *census2, *census3, *catalog_solutions(6)]
        assert len(solutions) == 79 + 25
        for R in solutions:
            for n in range(5):
                elements = graded_elements(R, n)
                index = word_index(elements)
                assert len(index) == R.size**n
                for word in product(range(1, R.size + 1), repeat=n):
                    assert elements.index_of(word) == index[word]

    # each entry makes a fresh input, so a generator is consumed once per call
    INPUTS = {
        "non-iterable": lambda n: 5,
        "none": lambda n: None,
        "generator": lambda n: (y for y in (1, 2, 2, 3)[:n]),
        "short-generator": lambda n: (y for y in (2,) * (n - 1)),
        "list": lambda n: [3] * n,
        "short": lambda n: (1,) * (n - 1),
        "long": lambda n: (1,) * (n + 1),
        "bool": lambda n: (True,) + (1,) * (n - 1),
        "float": lambda n: (1,) * (n - 1) + (1.0,),
        "zero": lambda n: (0,) + (1,) * (n - 1),
        "past-n": lambda n: (1,) * (n - 1) + (4,),
        "unhashable": lambda n: ([2],) + (1,) * (n - 1),
        "string": lambda n: "1" * n,
    }

    # at n = 0 both generators, the string and the short word are the empty word
    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("make", INPUTS.values(), ids=list(INPUTS))
    def test_answers_and_messages_match_the_per_word_dict(self, standard, make, n):
        elements = graded_elements(standard["dih3"], n)
        expected = _outcome(index_of_by_dict, elements, make(n))
        assert _outcome(elements.index_of, make(n)) == expected

    def test_no_per_word_table_is_kept(self, standard):
        R, n = standard["dih3"], 10
        elements = graded_elements(R, n)
        counts = growth(R, n)
        assert sum(map(len, elements._nodes)) <= sum(counts[m - 1] * R.size for m in range(1, n + 1))
        for value in vars(elements).values():
            assert not (isinstance(value, Mapping) and len(value) == R.size**n)


class TestClassRoots:
    def test_match_all_positions_oracle(self, census2, census3):
        braidless = [
            R
            for size, seed in ((2, 11), (3, 12), (4, 13))
            for R in random_solutions(size, 12, seed=seed, require_ybe=False)
            if not is_ybe(R)
        ]
        assert len({R.size for R in braidless}) == 3
        inputs = [builtin("identity", 1)] + census2 + census3
        inputs += list(catalog_solutions(5)) + braidless
        for R in inputs:
            expected = {n: all_positions_roots(R, n) for n in range(1, 7)}
            levels = semigroup._lengths_up_to(R, 6)
            classes = semigroup._word_classes(R.size, levels)
            for n, ((heads, _), cls) in enumerate(zip(levels, classes), 1):
                words = [semigroup._least_word(R.size, levels, n, c) for c in range(len(heads))]
                least = [encode_word(word, R.size) - 1 for word in words]
                assert [least[c] for c in cls] == expected[n]

    def test_graded_classes_match_all_positions_oracle(self, census2, census3):
        # the per-word expansion of the nodes, not only the roots
        for R in [builtin("identity", 1)] + census2 + census3:
            for n in range(1, 6):
                roots = all_positions_roots(R, n)
                groups = {}
                for word, root in zip(product(range(1, R.size + 1), repeat=n), roots):
                    groups.setdefault(root, []).append(word)
                expected = tuple(tuple(members) for members in groups.values())
                assert graded_elements(R, n).classes == expected

    def test_one_link_per_moved_pair_less_one_per_cycle(self, census2, census3, standard):
        # a count, not a timing: each cycle of R on pairs costs its length less one
        for R in [builtin("identity", 1)] + census2 + census3:
            size = R.size
            image = [(u - 1) * size + v - 1 for u, v in R.table]
            moved = {q for q in range(size * size) if image[q] != q}
            cycles = 0
            while moved:
                q = start = min(moved)
                cycles += 1
                while True:
                    moved.discard(q)
                    q = image[q]
                    if q == start:
                        break
            links = semigroup._links(R)
            assert len(links) == sum(image[q] != q for q in range(size * size)) - cycles
        assert len(semigroup._links(standard["dih3"])) == 4

    @pytest.mark.parametrize(
        "check", [growth, check_cancellative, semigroup_extension_check]
    )
    def test_first_overflowing_length_is_named(self, standard, monkeypatch, check):
        # lengths 1..4 fit in 100 entries; every length is checked before it is
        # built, and none past the maximum is checked at all
        monkeypatch.setenv("YBK_LIMIT", "100")
        check(standard["dih3"], 4)
        message = r"^length-5 words over \[3\] needs 243 entries, above the limit 100 "
        for maxlen in (5, 8):
            with pytest.raises(Overflow, match=message):
                check(standard["dih3"], maxlen)


class TestGrowth:
    def test_identity_free(self, standard):
        assert growth(standard["id2"], 4) == (1, 2, 4, 8, 16)

    def test_flip_simplex_counts(self, standard):
        assert growth(standard["flip3"], 5) == tuple(comb(n + 2, 2) for n in range(6))
        assert growth(standard["flip2"], 5) == (1, 2, 3, 4, 5, 6)

    def test_dihedral_sequence(self, standard):
        # frozen from the closure oracle
        assert growth(standard["dih3"], 5) == (1, 3, 5, 6, 6, 6)

    def test_long_words(self, standard):
        # dihedral-3 stays at 6 classes; flip-3 counts multisets, C(n + 2, 2)
        assert growth(standard["dih3"], 12) == (1, 3, 5) + (6,) * 10
        assert growth(standard["flip3"], 10) == tuple(comb(n + 2, 2) for n in range(11))

    def test_bounds(self):
        for R in random_solutions(2, 10, seed=51, require_ybe=False):
            counts = growth(R, 4)
            for n, c in enumerate(counts):
                assert 1 <= c <= 2 ** n


class TestMaxLength:
    # graded_elements takes one word length rather than a maximum, under the
    # same rule; on [1] no word limit would stop a bad length either
    @pytest.mark.parametrize(
        "check", [growth, check_cancellative, semigroup_extension_check, graded_elements]
    )
    def test_negative_max_length_rejected(self, standard, check):
        with pytest.raises(InvalidParams):
            check(standard["dih3"], -1)
        with pytest.raises(InvalidParams):
            check(standard["id1"], -1)

    @pytest.mark.parametrize("maxlen", [2.5, "3", True])
    @pytest.mark.parametrize(
        "check", [growth, check_cancellative, semigroup_extension_check, graded_elements]
    )
    def test_non_integer_max_length_rejected(self, standard, check, maxlen):
        with pytest.raises(InvalidParams):
            check(standard["dih3"], maxlen)

    def test_zero_max_length(self, standard):
        R = standard["dih3"]
        assert growth(R, 0) == (1,)
        assert check_cancellative(R, 0) == (True, None)
        assert semigroup_extension_check(R, 0) == (True, None)


class TestCancellative:
    def test_flip_and_identity(self, standard):
        assert check_cancellative(standard["flip3"], 5) == (True, None)
        assert check_cancellative(standard["id2"], 5) == (True, None)

    def test_union_solutions_cancellative(self):
        fam = make_theta_family(
            3,
            (2, 2, 2),
            {
                (1, 2): [(s, t) for s in (1, 2) for t in (1, 2)],
                (1, 3): [(_mod1(s + t, 2), t) for s in (1, 2) for t in (1, 2)],
                (2, 3): [(_mod1(s + t, 2), t) for s in (1, 2) for t in (1, 2)],
            },
        )
        assert check_cancellative(disjoint_union_solution(fam), 4) == (True, None)

    def test_dihedral_is_not_cancellative(self, standard):
        # easy to guess wrong: the closure oracle refutes cancellativity; the
        # first collision is [e1][e2e2] = [e1][e3e3] with [e2e2] != [e3e3],
        # provable directly from the defining relations
        ok, witness = check_cancellative(standard["dih3"], 5)
        assert not ok
        assert witness == ("left", (1,), (2, 2), (3, 3))
        graded3 = graded_elements(standard["dih3"], 3)
        graded2 = graded_elements(standard["dih3"], 2)
        assert graded3.index_of((1, 2, 2)) == graded3.index_of((1, 3, 3))
        assert graded2.index_of((2, 2)) != graded2.index_of((3, 3))

    def test_census_matches_oracle(self, census3):
        # every N <= 2 bijection, so also the census and right-side witnesses
        rng = random.Random(49)
        inputs = [
            (Solution(size, pairs), 5)
            for size in (1, 2)
            for pairs in permutations(product(range(1, size + 1), repeat=2))
        ]
        inputs += [(R, 5) for R in census3]
        inputs += [(Solution(3, random_bijection_table(3, rng)), 5) for _ in range(100)]
        inputs += [(Solution(4, random_bijection_table(4, rng)), 4) for _ in range(100)]
        # no braid solution: its least witness, right at maxlen 3, has la = 2
        late = ((3, 3), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (1, 1))
        inputs.append((Solution(3, late), 5))
        assert len(inputs) == 1 + 24 + 73 + 200 + 1
        verdicts, la = [], set()
        for R, top in inputs:
            for maxlen in range(top + 1):
                ok, witness = check_cancellative(R, maxlen)
                assert (ok, witness) == cancellation_by_scan(R, maxlen), (R, maxlen)
                verdicts.append(witness and witness[0])
                if witness:
                    la.add(len(witness[1 if witness[0] == "left" else 2]))
        assert set(verdicts) == {None, "left", "right"}
        # a scan that stopped after la = 1 would miss these
        assert max(la) >= 2

    def test_letters_decide_before_the_ordered_scan(self, census3, standard, monkeypatch):
        # a count, not a timing: a cancellative input reads the one-letter
        # rows only, and a failing one scans until its witness
        calls = []
        first_repeat = semigroup._first_repeat

        def counted(keys):
            calls.append(keys)
            return first_repeat(keys)

        monkeypatch.setattr(semigroup, "_first_repeat", counted)
        cancellative, failing = [], []
        for R in census3:
            calls.clear()
            ok, _ = check_cancellative(R, 4)
            (cancellative if ok else failing).append(len(calls))
        # three one-letter rows at each of lb = 1..3, and no column
        assert cancellative == [9] * 19
        assert len(failing) == 54 and min(failing) >= 1
        calls.clear()
        assert check_cancellative(standard["flip3"], 7) == (True, None)
        assert len(calls) == 18

    def test_shift_collapses(self, standard):
        ok, witness = check_cancellative(standard["shift2"], 3)
        assert not ok


class TestPresentations:
    def test_dihedral_chains(self, standard):
        pres = presentations(standard["dih3"])
        assert pres.generators == ("e1", "e2", "e3")
        chain_sets = {frozenset(chain) for chain in pres.chains}
        assert chain_sets == {
            frozenset({(1, 2), (2, 3), (3, 1)}),
            frozenset({(1, 3), (2, 1), (3, 2)}),
        }
        assert "e1 e2 = e2 e3 = e3 e1" in pres.semigroup_text

    def test_identity_free(self, standard):
        pres = presentations(standard["id3"])
        assert pres.chains == ()

    def test_flip_commutators(self, standard):
        pres = presentations(standard["flip3"])
        assert {frozenset(chain) for chain in pres.chains} == {
            frozenset({(i, j), (j, i)}) for i in (1, 2, 3) for j in (1, 2, 3) if i < j
        }


class TestExtension:
    def test_standard_fixtures(self, standard):
        for key in ("flip2", "shift2"):
            assert semigroup_extension_check(standard[key], 4) == (True, None)
        assert semigroup_extension_check(standard["dih3"], 4) == (True, None)

    def test_census_survivors(self, census2):
        for R in census2:
            assert semigroup_extension_check(R, 4)[0]

    def test_single_letters_reduce_to_braid_relation(self):
        # at block lengths (1,1,1) the braided comparison is the braid
        # relation itself
        for R in random_solutions(2, 20, seed=61, require_ybe=False):
            lm = level_map(R, 1, 1)

            def ext(u, v):
                return lm.apply(u, v)

            matches = True
            for x, y, z in product((1, 2), repeat=3):
                v1, u1 = ext((x,), (y,))
                w1, u2 = ext(u1, (z,))
                w2, v2 = ext(v1, w1)
                lhs = (w2, v2, u2)
                wa, va = ext((y,), (z,))
                wb, ub = ext((x,), wa)
                vb, uc = ext(ub, va)
                rhs = (wb, vb, uc)
                if lhs != rhs:
                    matches = False
            assert matches == is_ybe(R)

    def test_corrupted_block_map_is_caught(self, standard, monkeypatch):
        R = standard["dih3"]

        def corrupted(R, l, m):
            table = level_codes(R, l, m)
            if (l, m) == (1, 2):
                table[0], table[1] = table[1], table[0]
            return table

        ok, witness = extension_check_per_pair(R, 4, corrupted)
        assert not ok and witness[0] in ("respects-left", "respects-right", "braid")

        # the library answers from the braid relation and builds no class or table
        def no_work(*args):
            raise AssertionError("the graded checks build no class and no table")

        monkeypatch.setattr(semigroup, "_roots_by_length", no_work)
        monkeypatch.setattr(constructions, "_level_tables", no_work)
        assert semigroup_extension_check(R, 4) == (True, None)
        assert action_formula_check(R, 2) is True

    def test_rejects_non_solution(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        with pytest.raises(NotAYbeSolution):
            semigroup_extension_check(bad, 3)


class TestActionFormulas:
    def test_flip_any_level(self, standard):
        for n in (1, 2, 3):
            assert action_formula_check(standard["flip2"], n)

    def test_dihedral(self, standard):
        assert action_formula_check(standard["dih3"], 2)

    def test_involutive_two_element(self, standard):
        assert action_formula_check(standard["dbl2"], 3)

    def test_census_survivors(self, census2):
        for R in census2:
            for n in (1, 2, 3):
                assert action_formula_check(R, n)

    def test_rejects_non_solution(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        with pytest.raises(PreconditionFailed):
            action_formula_check(bad, 2)

    @pytest.mark.parametrize("n", [True, 1.5, "2", None, 0])
    def test_rejects_non_integer_length(self, standard, monkeypatch, n):
        def no_work(*args):
            raise AssertionError("the length is checked before any work")

        monkeypatch.setattr(semigroup, "is_ybe", no_work)
        with pytest.raises(InvalidParams):
            action_formula_check(standard["dih3"], n)

import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from ybk.catalog import catalog_document, catalog_names, catalog_profile, catalog_solution
from ybk.classify import enumerate_solutions
from ybk.constructions import level_map, level_solution
from ybk.errors import (
    DegreeOutOfRange,
    DegreesOverlap,
    FamilyMismatch,
    InvalidLetter,
    InvalidParams,
    NotABijection,
    NotAYbeSolution,
    Overflow,
    PreconditionFailed,
    PropertyMissing,
)
from ybk.kgraph import (
    KWord,
    Periodicity,
    _check_letters,
    complete_diamond,
    constant_family,
    empty_word,
    factorize,
    make_theta_family,
    multiply,
    normalize,
    periodicity,
    restrict,
    unique_pullback,
    unique_pushout,
    validate_kgraph,
)
from ybk.serialize import canonical_json, parse_theta_document
from ybk.solution import Solution, builtin, is_ybe, make_solution, properties, _mod1

from conftest import collections_during, random_solutions
from oracles import least_kgraph_failure, legs_level_map, random_bijection_table


def glue_add():
    return [(_mod1(s + t, 2), t) for s in (1, 2) for t in (1, 2)]


def glue_id():
    return [(s, t) for s in (1, 2) for t in (1, 2)]


def mixed_family():
    return make_theta_family(
        3, (2, 2, 2), {(1, 2): glue_id(), (1, 3): glue_add(), (2, 3): glue_add()}
    )


def all_words(family, degree_vec):
    """Every normal form of the given degree."""
    ranges = []
    for colour, count in enumerate(degree_vec, start=1):
        ranges.append(list(product(range(1, family.sizes[colour - 1] + 1), repeat=count)))
    for blocks in product(*ranges):
        yield KWord(family, tuple(blocks))


def oracle_swap(family, left, right):
    """One adjacent swap read straight from the family's tables."""
    (cl, sl), (cr, sr) = left, right
    if cl < cr:
        tp, sp = family.apply(cl, cr, sl, sr)
        return (cr, tp), (cl, sp)
    sp, tp = family.apply_inv(cr, cl, sl, sr)
    return (cr, sp), (cl, tp)


def oracle_normalize(family, word):
    """The tuple engine: rewrite the leftmost colour inversion until none is left."""
    letters = list(word)
    i = 0
    while i < len(letters) - 1:
        if letters[i][0] > letters[i + 1][0]:
            letters[i], letters[i + 1] = oracle_swap(family, letters[i], letters[i + 1])
            if i:
                i -= 1
        else:
            i += 1
    blocks = tuple(
        tuple(s for c, s in letters if c == colour) for colour in range(1, family.k + 1)
    )
    return KWord(family, blocks)


def oracle_reshape(family, letters, target_colours):
    """Pull the leftmost letter of each target colour into place, one swap at a time."""
    letters = list(letters)
    for pos, colour in enumerate(target_colours):
        src = next(idx for idx in range(pos, len(letters)) if letters[idx][0] == colour)
        while src > pos:
            letters[src - 1], letters[src] = oracle_swap(family, letters[src - 1], letters[src])
            src -= 1
    return letters


def oracle_factorize(a, m):
    family = a.family
    target = [c for c in range(1, family.k + 1) for _ in range(m[c - 1])]
    split_at = len(target)
    target += [c for c in range(1, family.k + 1) for _ in range(a.degree[c - 1] - m[c - 1])]
    reshaped = oracle_reshape(family, a.letters(), target)
    return oracle_normalize(family, reshaped[:split_at]), oracle_normalize(family, reshaped[split_at:])


def oracle_unique_pullback(family):
    """Count, row by row, how often each t is theta_ij's first output."""
    for i, j in combinations(range(1, family.k + 1), 2):
        ni, nj = family.sizes[i - 1], family.sizes[j - 1]
        for s in range(1, ni + 1):
            hits = [0] * nj
            for tp in range(1, nj + 1):
                hits[family.apply(i, j, s, tp)[0] - 1] += 1
            for t in range(1, nj + 1):
                if hits[t - 1] != 1:
                    return False, (i, j, s, t)
    return True, None


def oracle_unique_pushout(family):
    """Count, column by column, how often each s' is theta_ij's second output."""
    for i, j in combinations(range(1, family.k + 1), 2):
        ni, nj = family.sizes[i - 1], family.sizes[j - 1]
        for tp in range(1, nj + 1):
            hits = [0] * ni
            for s in range(1, ni + 1):
                hits[family.apply(i, j, s, tp)[1] - 1] += 1
            for sp in range(1, ni + 1):
                if hits[sp - 1] != 1:
                    return False, (i, j, sp, tp)
    return True, None


def oracle_pullback_edge(family, mu_letter, nu_letter):
    """Scan for the unique (t', s') with e^i_s e^j_{t'} = e^j_t e^i_{s'}."""
    (ci, s), (cj, t) = mu_letter, nu_letter
    if ci < cj:
        for tp in range(1, family.sizes[cj - 1] + 1):
            t0, sp = family.apply(ci, cj, s, tp)
            if t0 == t:
                return (cj, tp), (ci, sp)
    else:
        for sp in range(1, family.sizes[ci - 1] + 1):
            s0, tp = family.apply(cj, ci, t, sp)
            if s0 == s:
                return (cj, tp), (ci, sp)


def oracle_pushout_edge(family, mu_letter, nu_letter):
    """Scan for the unique (t, s) with e^i_s e^j_{t'} = e^j_t e^i_{s'}, given (s', t')."""
    (ci, sp), (cj, tp) = mu_letter, nu_letter
    if ci < cj:
        for s in range(1, family.sizes[ci - 1] + 1):
            t, sp0 = family.apply(ci, cj, s, tp)
            if sp0 == sp:
                return (cj, t), (ci, s)
    else:
        for t in range(1, family.sizes[cj - 1] + 1):
            s, tp0 = family.apply(cj, ci, t, sp)
            if tp0 == tp:
                return (cj, t), (ci, s)


def oracle_complete_diamond(family, mu, nu, direction):
    """The property scan, then the grid filled square by square with fibre scans."""
    pullback = direction == "pullback"
    ok, witness = (oracle_unique_pullback if pullback else oracle_unique_pushout)(family)
    if not ok:
        raise PropertyMissing(f"family lacks the unique {direction} property at {witness}")
    solve = oracle_pullback_edge if pullback else oracle_pushout_edge
    across, down = list(mu.letters()), list(nu.letters())
    rows = range(len(down)) if pullback else range(len(down) - 1, -1, -1)
    columns = range(len(across)) if pullback else range(len(across) - 1, -1, -1)
    for r in rows:
        for c in columns:
            down[r], across[c] = solve(family, across[c], down[r])
    return oracle_normalize(family, across), oracle_normalize(family, down)


def random_word(family, rng, length):
    word = []
    for _ in range(length):
        colour = rng.randint(1, family.k)
        word.append((colour, rng.randint(1, family.sizes[colour - 1])))
    return word


def two_colour_family(sizes, rng):
    """A seeded random bijection theta_12; any one presents a 2-graph."""
    ni, nj = sizes
    outs = [(t, s) for t in range(1, nj + 1) for s in range(1, ni + 1)]
    rng.shuffle(outs)
    return make_theta_family(2, sizes, {(1, 2): outs})


def random_family(k, rng):
    """A seeded bijective family on sizes 1-4.

    Half are shuffled tables, which mostly lack the fibre properties; half
    are row-permutation tables theta_ij(s, t) = (pi_s(t), s), which have both.
    """
    sizes = tuple(rng.randint(1, 4) for _ in range(k))
    rows = rng.random() < 0.5
    maps = {}
    for i, j in combinations(range(1, k + 1), 2):
        ni, nj = sizes[i - 1], sizes[j - 1]
        if rows:
            maps[(i, j)] = [(t, s) for s in range(1, ni + 1) for t in rng.sample(range(1, nj + 1), nj)]
        else:
            maps[(i, j)] = [(t, s) for t in range(1, nj + 1) for s in range(1, ni + 1)]
            rng.shuffle(maps[(i, j)])
    return make_theta_family(k, sizes, maps)


class TestMakeFamily:
    def test_rejects_non_bijection(self):
        with pytest.raises(NotABijection):
            make_theta_family(2, (2, 2), {(1, 2): [(1, 1), (1, 1), (2, 1), (2, 2)]})

    def test_rejects_missing_pair(self):
        with pytest.raises(InvalidParams):
            make_theta_family(3, (1, 1, 1), {(1, 2): [(1, 1)], (1, 3): [(1, 1)]})

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidParams):
            make_theta_family(2, (2, 0), {(1, 2): []})

    def test_rejects_boolean_sizes(self):
        with pytest.raises(InvalidParams):
            make_theta_family(2, (True, True), {(1, 2): [(1, 1)]})

    @pytest.mark.parametrize(
        "entry", [(2, 2, 3), (1,), 5, ("a", 1), "ab", (True, True), (1, False), (1.0, 1)]
    )
    def test_rejects_entries_that_are_not_integer_pairs(self, entry):
        with pytest.raises(InvalidParams):
            make_theta_family(2, (1, 1), {(1, 2): [entry]})

    @pytest.mark.parametrize(
        "sizes, maps", [(5, {}), (None, {}), ((1, 1), []), ((1, 1), None), ((1, 1), [((1, 2), [(1, 1)])])]
    )
    def test_rejects_containers_of_the_wrong_kind(self, sizes, maps):
        # these used to escape as TypeError and AttributeError
        with pytest.raises(InvalidParams):
            make_theta_family(2, sizes, maps)

    def test_rejects_keys_of_mixed_types(self):
        # sorting the keys for the message used to raise TypeError
        with pytest.raises(InvalidParams, match="'x' unexpected"):
            make_theta_family(2, (1, 1), {(1, 2): [(1, 1)], "x": []})

    def test_many_colours_with_no_maps_fail_briefly(self):
        with pytest.raises(InvalidParams) as exc:
            make_theta_family(500, [1] * 500, {})
        assert len(str(exc.value)) < 300 and "(1, 2) missing" in str(exc.value)

    def test_wrong_number_of_sizes_fails_briefly(self):
        # the message used to list all 2,999 sizes
        with pytest.raises(InvalidParams, match="^sizes must list 3000 colour sizes, got 2999$"):
            make_theta_family(3000, [1] * 2999, {})

    def test_constant_family_is_guarded(self):
        # one table of 9 entries and 1,049,076 colour-pair slots are over the
        # default limit, and 1,047,628 slots are not
        with pytest.raises(Overflow, match="needs 1049085 entries"):
            constant_family(builtin("dihedral", 3), 1449)
        assert len(constant_family(builtin("dihedral", 3), 1448).maps) == 1047628


def constant_family_oracle(R, k):
    """The constant family through the per-pair path, one separate table copy per pair."""
    maps = {pair: [list(p) for p in R.table] for pair in combinations(range(1, k + 1), 2)}
    return make_theta_family(k, (R.size,) * k, maps)


class TestConstantFamily:
    """`constant_family` checks and inverts R's table once and shares it."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_equals_the_per_pair_family(self, census3, k):
        solutions = [R for n in (1, 2) for R in enumerate_solutions(n)] + list(census3)
        solutions += [
            catalog_solution(name) for name in catalog_names() if "valid_kgraph" not in catalog_profile(name)
        ]
        for R in solutions:
            family = constant_family(R, k)
            oracle = constant_family_oracle(R, k)
            assert family == oracle and hash(family) == hash(oracle)
            assert validate_kgraph(family) == validate_kgraph(oracle)

    @pytest.mark.parametrize("k", [2, 5, 40])
    def test_table_is_checked_once(self, standard, monkeypatch, k):
        import ybk.kgraph as kgraph

        calls = []
        check = kgraph._check_pairs

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(kgraph, "_check_pairs", counted)
        family = constant_family(standard["dih3"], k)
        assert len(calls) == 1 and len(family.maps) == k * (k - 1) // 2

    def test_five_hundred_colours_fit_the_default_limit(self, standard):
        # 124,750 pairs used to be counted as 124,750 tables of 9 entries
        R = standard["dih3"]
        family = constant_family(R, 500)
        per_pair = make_theta_family(500, (3,) * 500, dict.fromkeys(combinations(range(1, 501), 2), R.table))
        assert family == per_pair and hash(family) == hash(per_pair)

    def test_guard_counts_one_table_and_the_pair_slots(self, standard, monkeypatch):
        import ybk.kgraph as kgraph

        monkeypatch.setenv("YBK_LIMIT", "20")
        # 9 table entries and 10 pair slots fit
        assert len(constant_family(standard["dih3"], 5).maps) == 10

        def no_work(*args):
            raise AssertionError("the count is checked before any table is built")

        monkeypatch.setattr(kgraph, "_checked_table", no_work)
        # 9 table entries and 15 pair slots do not
        with pytest.raises(Overflow, match="needs 24 entries, above the limit 20"):
            constant_family(standard["dih3"], 6)

    def test_short_words_do_not_pay_for_every_colour_pair(self, standard):
        # sorting reads the tables of the word's own colour pairs only: at
        # k = 1,448 (just under the default limit) a call building the
        # k x k cross table took about 0.14 s
        import time

        k = 1448
        family = constant_family(standard["dih3"], k)
        word = [(k, 2), (1, 3)]
        start = time.perf_counter()
        for _ in range(100):
            normal = normalize(family, word)
        for _ in range(100):
            head, tail = factorize(normal, (0,) * (k - 1) + (1,))
        assert time.perf_counter() - start < 1
        (c1, a), (ck, b) = normal.letters()
        assert (c1, ck) == (1, k) and family.apply(1, k, a, b) == (2, 3)
        assert head.letters() == ((k, 2),) and tail.letters() == ((1, 3),)

    def test_sorting_looks_up_only_the_pairs_a_word_inverts(self, standard, monkeypatch):
        # a colour pair's table is looked up when a letter first crosses that
        # pair: the pairs c < j with some colour-j letter before some colour-c
        # letter, each once, and not every pair of the word's colours
        import ybk.kgraph as kgraph
        from ybk.kgraph import ThetaFamily

        family = constant_family(standard["dih3"], 100)
        # dihedral-3 satisfies the braid relation, so its constant family is
        # valid (test_constant_family_matches_ybe): the gate's walk of 161,700
        # colour triples is left out
        monkeypatch.setattr(kgraph, "_gate_three_colours", lambda family, letters: None)
        rng = random.Random(47)
        words = [random_word(family, rng, 150) for _ in range(3)]
        expected = [oracle_normalize(family, word) for word in words]
        calls = []
        pair_index = ThetaFamily.pair_index

        def counted(self, i, j):
            calls.append((i, j))
            return pair_index(self, i, j)

        monkeypatch.setattr(ThetaFamily, "pair_index", counted)
        for word, normal in zip(words, expected):
            inverted = {(c, j) for p, (j, _) in enumerate(word) for c, _ in word[p + 1:] if c < j}
            present = len({c for c, _ in word})
            assert len(inverted) < present * (present - 1) // 2
            calls.clear()
            assert normalize(family, word) == normal
            assert len(calls) == len(inverted) and set(calls) == inverted

    def test_non_bijection_built_directly_names_theta_12(self):
        R = Solution(2, ((1, 1), (1, 1), (2, 1), (2, 2)))
        with pytest.raises(NotABijection) as caught:
            constant_family(R, 4)
        assert str(caught.value) == "theta_12 output pair (1, 1) produced by both (1, 1) and (1, 2)"


class TestApply:
    """`apply` and `apply_inv` check their letters against the colour sizes."""

    @staticmethod
    def family():
        # theta_12 on [2] x [3]: (s, t) -> (t + 1 mod 3, s)
        table = [(_mod1(t + 1, 3), s) for s in (1, 2) for t in (1, 2, 3)]
        return make_theta_family(2, (2, 3), {(1, 2): table})

    def test_in_range_letters_read_the_table_and_invert(self):
        fam = self.family()
        for s in (1, 2):
            for t in (1, 2, 3):
                tp, sp = fam.apply(1, 2, s, t)
                assert (tp, sp) == (_mod1(t + 1, 3), s)
                assert fam.apply_inv(1, 2, tp, sp) == (s, t)

    @pytest.mark.parametrize("s, t", [(0, 1), (-1, 1), (3, 1), (1, 0), (1, 4), (True, 1), (1, True), (1.0, 1)])
    def test_letter_out_of_range_raises(self, s, t):
        # letter 0 used to read another entry through a negative index
        with pytest.raises(InvalidLetter):
            self.family().apply(1, 2, s, t)

    @pytest.mark.parametrize("t, s", [(0, 1), (-2, 1), (4, 1), (1, 0), (1, 3), (True, 1), (1, False), (2, 1.0)])
    def test_inverse_letter_out_of_range_raises(self, t, s):
        with pytest.raises(InvalidLetter):
            self.family().apply_inv(1, 2, t, s)

    def test_constant_family_letter_zero(self, standard):
        fam = constant_family(standard["dih3"], 2)
        for call in (fam.apply, fam.apply_inv):
            with pytest.raises(InvalidLetter, match="letter 0 outside 1..3"):
                call(1, 2, 0, 1)
            with pytest.raises(InvalidLetter, match="letter 0 outside 1..3"):
                call(1, 2, 1, 0)

    @pytest.mark.parametrize("i, j", [(True, 2), (1, True), (2, 1), (0, 2), (1, 3)])
    def test_colour_pair_out_of_range_raises(self, i, j):
        with pytest.raises(InvalidParams, match="colour pair"):
            self.family().apply(i, j, 1, 1)


class TestValidate:
    def test_two_colours_always_valid(self):
        rng = random.Random(1)
        outs = [(t, s) for t in (1, 2, 3) for s in (1, 2)]
        rng.shuffle(outs)
        fam = make_theta_family(2, (2, 3), {(1, 2): outs})
        assert validate_kgraph(fam) == (True, None)

    def test_worked_mixed_family_is_valid(self):
        assert validate_kgraph(mixed_family()) == (True, None)

    def test_constant_family_of_non_solution_fails_with_witness(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        ok, witness = validate_kgraph(constant_family(bad, 3))
        assert not ok
        assert witness[:3] == (1, 2, 3) and len(witness[3]) == 3

    def test_constant_family_matches_ybe(self):
        for size, seed in ((2, 41), (3, 42)):
            for R in random_solutions(size, 30, seed=seed, require_ybe=False):
                expected = is_ybe(R)
                assert validate_kgraph(constant_family(R, 3))[0] == expected
                assert validate_kgraph(constant_family(R, 5))[0] == expected

    def test_dihedral_family_various_k(self, standard):
        for k in (3, 5):
            assert validate_kgraph(constant_family(standard["dih3"], k))[0]

    def test_verdict_and_witness_match_the_point_scan(self, standard):
        # restricted and random families give the three tables of a triple
        # three strides; a table planted at (k-1, k) fails only in late triples
        rng = random.Random(37)
        families = [
            parse_theta_document(canonical_json(catalog_document(name))).family
            for name in catalog_names()
            if "valid_kgraph" in catalog_profile(name)
        ]
        for name, exponents in (("dih3", (1, 2, 3)), ("shift2", (1, 2, 3)), ("flip2", (3, 1, 2)), ("dih3", (2, 1, 1))):
            families.append(restrict(constant_family(standard[name], 3), *exponents))
        for _ in range(4):
            R = make_solution(2, random_bijection_table(2, rng))
            families.append(restrict(constant_family(R, 3), 1, 2, 3))
        families += [random_family(k, rng) for k in (3, 4, 5) for _ in range(20)]
        valid = [restrict(constant_family(standard["dih3"], 3), 1, 2, 3)]
        valid += [constant_family(standard[name], k) for name, k in (("dih3", 4), ("shift2", 5))]
        for family in valid:
            k = family.k
            maps = dict(zip(combinations(range(1, k + 1), 2), family.maps))
            ni, nj = family.sizes[k - 2], family.sizes[k - 1]
            for _ in range(3):
                outs = [(t, s) for t in range(1, nj + 1) for s in range(1, ni + 1)]
                rng.shuffle(outs)
                families.append(make_theta_family(k, family.sizes, {**maps, (k - 1, k): outs}))
        verdicts = [validate_kgraph(family) for family in families]
        assert verdicts == [least_kgraph_failure(family) for family in families]
        assert {ok for ok, _ in verdicts} == {True, False}

    def test_each_family_is_walked_once(self, standard, monkeypatch):
        import ybk.kgraph as kgraph

        walked = []
        original = kgraph._validate

        def counting(family):
            walked.append(family)
            return original(family)

        monkeypatch.setattr(kgraph, "_validate", counting)
        family = constant_family(standard["dih3"], 3)
        word = [(3, 1), (2, 2), (1, 3), (3, 2), (2, 1), (1, 1)]
        first = normalize(family, word)
        for _ in range(3):
            assert normalize(family, word) == first
        assert validate_kgraph(family) == (True, None)
        assert len(walked) == 1
        # an equal family built apart keeps its own verdict
        twin = constant_family(standard["dih3"], 3)
        assert twin == family and twin is not family
        assert normalize(twin, word) == first
        assert normalize(twin, word) == first
        assert walked == [family, twin]


class TestNormalize:
    def test_sorted_word_unchanged(self):
        fam = mixed_family()
        word = [(1, 2), (2, 1), (3, 2)]
        assert normalize(fam, word).letters() == tuple(word)

    def test_flip_family_swap(self, standard):
        fam = constant_family(standard["flip2"], 2)
        assert normalize(fam, [(2, 1), (1, 2)]).letters() == ((1, 2), (2, 1))

    def test_swap_rederives_input(self):
        # applying theta_13 to the sorted output must reproduce the input pair
        fam = mixed_family()
        for t in (1, 2):
            for s in (1, 2):
                word = normalize(fam, [(3, t), (1, s)])
                (c1, a), (c3, b) = word.letters()
                assert (c1, c3) == (1, 3)
                tp, sp = fam.apply(1, 3, a, b)
                assert (tp, sp) == (t, s)

    def test_degree_preserved(self):
        fam = mixed_family()
        rng = random.Random(6)
        for _ in range(40):
            word = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(5)]
            normal = normalize(fam, word)
            counts = [0, 0, 0]
            for colour, _ in word:
                counts[colour - 1] += 1
            assert normal.degree == tuple(counts)

    def test_invalid_letter(self):
        with pytest.raises(InvalidLetter):
            normalize(mixed_family(), [(1, 3)])
        with pytest.raises(InvalidLetter):
            normalize(mixed_family(), [(4, 1)])

    @pytest.mark.parametrize(
        "word", [[(True, 1), (2, True)], [(1, True)], [(True, 1)], [(1.0, 1)], [(1, 2.0)]]
    )
    def test_colours_and_letters_must_be_integers(self, standard, word):
        with pytest.raises(InvalidLetter):
            normalize(mixed_family(), word)
        with pytest.raises(InvalidLetter):
            normalize(constant_family(standard["dih3"], 2), word)

    @pytest.mark.parametrize("word", [[(1, 2, 3)], [(1,)], [()], [(2, 1), 5]])
    def test_letters_must_be_pairs(self, standard, word):
        with pytest.raises(InvalidLetter, match="is not a \\(colour, letter\\) pair"):
            normalize(mixed_family(), word)
        with pytest.raises(InvalidLetter, match="is not a \\(colour, letter\\) pair"):
            normalize(constant_family(standard["dih3"], 2), word)

    def test_three_colours_need_valid_family(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        fam = constant_family(bad, 3)
        normalize(fam, [(2, 1), (1, 2)])  # two colours stay well-defined
        with pytest.raises(PreconditionFailed):
            normalize(fam, [(3, 1), (2, 1), (1, 2)])

    def test_unsorting_reproduces_input(self):
        # normal-form soundness: push the sorted word back into the original
        # colour pattern and compare letters
        from ybk.kgraph import _reshape

        fam = mixed_family()
        rng = random.Random(8)
        for _ in range(60):
            word = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 5))]
            normal = normalize(fam, word)
            back = _reshape(fam, list(normal.letters()), [c for c, _ in word])
            assert back == word


class TestSwapOracle:
    """`normalize`, `multiply`, `factorize` and `_reshape` against the tuple engine."""

    def check_family(self, family, rng, words=4, max_length=9):
        from ybk.kgraph import _reshape

        for _ in range(words):
            word = random_word(family, rng, rng.randint(0, max_length))
            normal = normalize(family, word)
            assert normal == oracle_normalize(family, word)
            colours = [c for c, _ in word]
            assert _reshape(family, normal.letters(), colours) == word
            assert oracle_reshape(family, normal.letters(), colours) == word
            other = normalize(family, random_word(family, rng, rng.randint(0, 4)))
            assert multiply(normal, other) == oracle_normalize(
                family, normal.letters() + other.letters()
            )
            for m in product(*(range(part + 1) for part in normal.degree)):
                assert factorize(normal, m) == oracle_factorize(normal, m)

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (4, 1), (1, 4)])
    def test_two_colour_random_bijections(self, sizes):
        rng = random.Random(sum(sizes) * 10 + sizes[0])
        for _ in range(6):
            self.check_family(two_colour_family(sizes, rng), rng)

    def test_two_colour_families_of_non_solutions(self):
        rng = random.Random(17)
        for R in random_solutions(3, 20, seed=18, require_ybe=False):
            self.check_family(constant_family(R, 2), rng, words=2)

    def test_three_colour_constant_families_up_to_size_three(self, census2, census3):
        from ybk.classify import enumerate_solutions

        rng = random.Random(19)
        for R in enumerate_solutions(1) + census2 + census3:
            family = constant_family(R, 3)
            assert validate_kgraph(family)[0]
            self.check_family(family, rng, words=3, max_length=8)

    def test_mixed_and_wider_families(self, standard):
        rng = random.Random(20)
        self.check_family(mixed_family(), rng, words=20)
        self.check_family(constant_family(standard["dih3"], 5), rng, words=6)

    @pytest.mark.parametrize(
        "name, exponents", [("dih3", (2, 1, 1)), ("dih3", (1, 2, 1)), ("shift2", (2, 3, 1)), ("flip2", (1, 1, 3))]
    )
    def test_restrict_families(self, standard, name, exponents):
        family = restrict(constant_family(standard[name], 3), *exponents)
        assert validate_kgraph(family)[0]
        self.check_family(family, random.Random(21), words=6, max_length=7)

    def test_long_words(self, standard):
        family = constant_family(standard["dih3"], 3)
        rng = random.Random(22)
        for _ in range(3):
            word = random_word(family, rng, 150)
            normal = normalize(family, word)
            assert normal == oracle_normalize(family, word)
            m = tuple(rng.randint(0, part) for part in normal.degree)
            assert factorize(normal, m) == oracle_factorize(normal, m)

    def test_distinct_sizes(self, standard):
        # every colour pair has its own stride, so a swap read from the wrong
        # table, or at the wrong stride, changes some letters
        from ybk.kgraph import _reshape

        family = restrict(constant_family(standard["shift2"], 3), 1, 2, 3)
        assert family.sizes == (2, 4, 8) and validate_kgraph(family)[0]
        rng = random.Random(23)
        for length in (60, 100, 150):
            word = random_word(family, rng, length)
            normal = normalize(family, word)
            assert normal == oracle_normalize(family, word)
            colours = [c for c, _ in normal.letters()]
            for _ in range(3):
                rng.shuffle(colours)
                reshaped = _reshape(family, normal.letters(), colours)
                assert reshaped == oracle_reshape(family, normal.letters(), colours)
                assert normalize(family, reshaped) == normal
        for _ in range(3):
            normal = normalize(family, random_word(family, rng, 10))
            for m in product(*(range(part + 1) for part in normal.degree)):
                assert factorize(normal, m) == oracle_factorize(normal, m)


class TestMultiply:
    def test_unit(self):
        fam = mixed_family()
        x = normalize(fam, [(1, 1), (3, 2)])
        unit = empty_word(fam)
        assert multiply(x, unit) == x
        assert multiply(unit, x) == x

    def test_dihedral_products(self, standard):
        fam = constant_family(standard["dih3"], 2)
        a = normalize(fam, [(1, 1)])
        b = normalize(fam, [(2, 2)])
        assert multiply(a, b).letters() == ((1, 1), (2, 2))
        assert multiply(b, a).letters() == ((1, 3), (2, 2))

    def test_degree_additive(self):
        fam = mixed_family()
        rng = random.Random(12)
        for _ in range(25):
            a = normalize(fam, [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(3)])
            b = normalize(fam, [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(2)])
            prod = multiply(a, b)
            assert prod.degree == tuple(x + y for x, y in zip(a.degree, b.degree))

    def test_associative(self):
        fam = mixed_family()
        rng = random.Random(13)
        for _ in range(20):
            words = [
                normalize(fam, [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(2)])
                for _ in range(3)
            ]
            a, b, c = words
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_cancellative(self):
        # |degree| <= 3 over the validated worked family
        fam = mixed_family()
        degree_vecs = [
            d for d in product(range(3), repeat=3) if 1 <= sum(d) <= 2
        ]
        words = [w for d in degree_vecs for w in all_words(fam, d)]
        short = [w for w in words if sum(w.degree) == 1]
        for a in short:
            seen = {}
            for b in words:
                key = multiply(a, b)
                assert seen.setdefault(key, b) == b
            seen = {}
            for b in words:
                key = multiply(b, a)
                assert seen.setdefault(key, b) == b

    def test_family_mismatch(self, standard):
        fam1 = constant_family(standard["flip2"], 2)
        fam2 = mixed_family()
        with pytest.raises(FamilyMismatch):
            multiply(normalize(fam1, [(1, 1)]), normalize(fam2, [(1, 1)]))


class TestFactorize:
    def test_trivial_splits(self):
        fam = mixed_family()
        a = normalize(fam, [(1, 1), (2, 2), (3, 1)])
        head, tail = factorize(a, (0, 0, 0))
        assert head.is_empty() and tail == a
        head, tail = factorize(a, a.degree)
        assert head == a and tail.is_empty()

    def test_flip_family_example(self, standard):
        fam = constant_family(standard["flip2"], 2)
        a = normalize(fam, [(1, 1), (2, 2)])
        head, tail = factorize(a, (0, 1))
        assert head.letters() == ((2, 2),)
        assert tail.letters() == ((1, 1),)

    def test_out_of_range(self):
        fam = mixed_family()
        a = normalize(fam, [(1, 1)])
        with pytest.raises(DegreeOutOfRange):
            factorize(a, (2, 0, 0))

    @pytest.mark.parametrize("m", [(True, 0, 0), (0.5, 0, 0), (1.0, 0, 0), (0, "0", 0), (None, 0, 0)])
    def test_non_integer_degree_parts(self, m):
        a = normalize(mixed_family(), [(1, 1), (2, 1)])
        with pytest.raises(InvalidParams):
            factorize(a, m)

    @pytest.mark.parametrize(
        "k, blocks",
        [
            (2, ((0,), (2,))),
            (2, ((True,), (2,))),
            (2, ((4,), (2,))),
            (2, ((1,), (2,), ())),
            (3, ((1,), (1,))),
        ],
    )
    def test_word_letters_are_checked(self, k, blocks):
        # a word is checked when it is built, block count included, so no
        # malformed word reaches factorize or multiply
        fam = constant_family(builtin("dihedral", 3), k)
        with pytest.raises(InvalidLetter):
            KWord(fam, blocks)
        with pytest.raises(InvalidLetter):
            replace(empty_word(fam), blocks=blocks)

    def test_malformed_words_get_the_letter_list_errors(self):
        # building a word, or replacing its blocks, raises the class and
        # message of the block-count check and then of `_check_letters`
        # over the letters in order; every other word builds
        rng = random.Random(52)
        pool = (1, 2, 3, 0, 4, -1, True, 1.0, "1", None)
        built = 0
        for _ in range(300):
            k = rng.randint(2, 3)
            fam = constant_family(builtin("dihedral", 3), k)
            blocks = tuple(tuple(rng.choices(pool, k=rng.randint(0, 3))) for _ in range(k + rng.choice((-1, 0, 0, 1))))
            if len(blocks) != k:
                expected = f"word has {len(blocks)} colour blocks, not {k}"
            else:
                try:
                    _check_letters(fam, [(c, x) for c, block in enumerate(blocks, start=1) for x in block])
                except InvalidLetter as error:
                    expected = str(error)
                else:
                    assert KWord(fam, blocks).blocks == blocks
                    built += 1
                    continue
            for build in (lambda: KWord(fam, blocks), lambda: replace(empty_word(fam), blocks=blocks)):
                with pytest.raises(InvalidLetter) as caught:
                    build()
                assert str(caught.value) == expected
        assert built == 16

    def test_a_block_that_is_not_iterable_raises_before_any_letter(self):
        fam = constant_family(builtin("dihedral", 3), 2)
        for blocks in (((1,), 5), ((0,), 5), ((4,), None)):
            with pytest.raises(TypeError, match="not iterable"):
                KWord(fam, blocks)

    @pytest.mark.parametrize(
        "family, blocks, message",
        [
            (None, (), "^a word's family must be a ThetaFamily, got NoneType$"),
            (builtin("dihedral", 3), ((), ()), "^a word's family must be a ThetaFamily, got Solution$"),
            ("fam", 5, "^a word's blocks must be an iterable, got int$"),
            ("fam", None, "^a word's blocks must be an iterable, got NoneType$"),
        ],
        ids=["none-family", "solution-family", "int-blocks", "none-blocks"],
    )
    def test_a_word_that_is_not_a_family_and_blocks_raises_invalid_params(self, family, blocks, message):
        # the family's type and the blocks' shape are checked before the block count
        fam = constant_family(builtin("dihedral", 3), 2)
        family = fam if family == "fam" else family
        for build in (lambda: KWord(family, blocks), lambda: replace(empty_word(fam), family=family, blocks=blocks)):
            with pytest.raises(InvalidParams, match=message):
                build()

    @pytest.mark.parametrize(
        "blocks",
        [([1], [], []), [(1,), (), ()], (iter([1]), (), ()), ((x for x in [1]), (), ())],
        ids=["list-blocks", "list-of-blocks", "iterator-block", "generator-block"],
    )
    def test_blocks_are_frozen_to_tuples(self, blocks):
        # a word built from any iterables keeps tuples, so it hashes and
        # equals the normal form of its letters
        fam = constant_family(builtin("dihedral", 3), 3)
        word = KWord(fam, blocks)
        assert word.blocks == ((1,), (), ()) and type(word.blocks) is tuple
        assert all(type(block) is tuple for block in word.blocks)
        assert word == normalize(fam, [(1, 1)]) and hash(word) == hash(normalize(fam, [(1, 1)]))
        assert word.degree == (1, 0, 0) and str(word) == "e1_1"

    def test_unique_by_exhaustion(self):
        # every split is the only degree-matched pair multiplying back
        fam = mixed_family()
        rng = random.Random(14)
        for _ in range(12):
            letters = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(3)]
            a = normalize(fam, letters)
            d = a.degree
            for m in product(*(range(part + 1) for part in d)):
                head, tail = factorize(a, m)
                assert head.degree == m
                assert multiply(head, tail) == a
                matches = [
                    (mu, nu)
                    for mu in all_words(fam, m)
                    for nu in all_words(fam, tuple(x - y for x, y in zip(d, m)))
                    if multiply(mu, nu) == a
                ]
                assert matches == [(head, tail)]


class TestFiberProperties:
    def test_flip_constant_family(self, standard):
        fam = constant_family(standard["flip2"], 2)
        assert unique_pullback(fam) == (True, None)
        assert unique_pushout(fam) == (True, None)

    def test_degenerate_extension_fails(self, standard):
        from ybk.constructions import trivial_extension

        degenerate = trivial_extension(standard["id2"], standard["id1"])
        fam = constant_family(degenerate, 2)
        assert not unique_pullback(fam)[0]
        assert not unique_pushout(fam)[0]

    def test_failing_witnesses(self, standard):
        from ybk.constructions import trivial_extension

        degenerate = constant_family(trivial_extension(standard["id2"], standard["id1"]), 2)
        for fam in (degenerate, mixed_family()):
            assert unique_pullback(fam) == (False, (1, 2, 1, 1))
            assert unique_pushout(fam) == (False, (1, 2, 1, 1))

    def test_singletons(self):
        fam = make_theta_family(2, (1, 1), {(1, 2): [(1, 1)]})
        assert unique_pullback(fam)[0] and unique_pushout(fam)[0]

    def test_equivalence_with_nondegeneracy(self, census2, census3):
        for R in census2 + census3:
            fam = constant_family(R, 2)
            both = unique_pullback(fam)[0] and unique_pushout(fam)[0]
            assert both == properties(R).non_degenerate

    def test_unique_row_fibers(self, census3):
        # non-degeneracy means each (input x, first output) pair pins the
        # rest of the crossing, and dually
        for R in census3[:25]:
            n = R.size
            forward = all(
                sum(1 for y in range(1, n + 1) if R(x, y)[0] == up) == 1
                for x in range(1, n + 1)
                for up in range(1, n + 1)
            )
            backward = all(
                sum(1 for x in range(1, n + 1) if R(x, y)[1] == vp) == 1
                for y in range(1, n + 1)
                for vp in range(1, n + 1)
            )
            assert (forward and backward) == properties(R).non_degenerate


class TestFibreOracle:
    """`unique_pullback`, `unique_pushout` and `complete_diamond` against the fibre scans."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_bijective_families(self, k):
        rng = random.Random(60 + k)

        def outcome(complete, family, mu, nu, direction):
            try:
                return complete(family, mu, nu, direction)
            except PropertyMissing as exc:
                return str(exc)

        def side(family, colours, cap):
            count = rng.randint(0, cap)
            letters = [(c, rng.randint(1, family.sizes[c - 1])) for c in rng.choices(colours, k=count)]
            return normalize(family, letters)

        # sides of up to 30 letters read every solve-table entry of a colour
        # pair many times, in every rectangle of the grid
        for cap, families in ((5, 150), (30, 60)):
            seen = {"completed": 0, "missing": 0}
            for _ in range(families):
                family = random_family(k, rng)
                assert unique_pullback(family) == oracle_unique_pullback(family)
                assert unique_pushout(family) == oracle_unique_pushout(family)
                colours = rng.sample(range(1, k + 1), k)
                if not validate_kgraph(family)[0]:
                    # three colours need a valid family, which the gate tests cover
                    colours = colours[:2]
                cut = rng.randint(1, len(colours) - 1)
                mu, nu = side(family, colours[:cut], cap), side(family, colours[cut:], cap)
                for direction in ("pullback", "pushout"):
                    got = outcome(complete_diamond, family, mu, nu, direction)
                    assert got == outcome(oracle_complete_diamond, family, mu, nu, direction)
                    seen["missing" if isinstance(got, str) else "completed"] += 1
            assert min(seen.values()) >= 30, (cap, seen)  # both outcomes are exercised

    def test_constant_families(self):
        # every colour split of three colours puts mu's blocks above, below
        # and around nu's, so rectangles whose across colour is above their
        # edge colour, and the order rectangles are visited in, show in the grid
        rng = random.Random(115)
        names = [
            name
            for name in catalog_names()
            if "valid_kgraph" not in catalog_profile(name) and catalog_solution(name).size <= 4
        ]
        assert "identity-2" in names

        def outcome(complete, family, mu, nu, direction):
            try:
                return complete(family, mu, nu, direction)
            except PropertyMissing as exc:
                return str(exc)

        def side(family, colours):
            letters = [(c, rng.randint(1, family.sizes[c - 1])) for c in colours for _ in range(rng.randint(1, 3))]
            return normalize(family, letters)

        seen = {"completed": 0, "missing": 0}
        for name in names:
            family = constant_family(catalog_solution(name), 3)
            for cut in (1, 2):
                for mu_colours in combinations((1, 2, 3), cut):
                    nu_colours = [c for c in (1, 2, 3) if c not in mu_colours]
                    mu, nu = side(family, mu_colours), side(family, nu_colours)
                    for direction in ("pullback", "pushout"):
                        got = outcome(complete_diamond, family, mu, nu, direction)
                        assert got == outcome(oracle_complete_diamond, family, mu, nu, direction), (name, mu, nu)
                        seen["missing" if isinstance(got, str) else "completed"] += 1
        assert min(seen.values()) >= 40, seen


class TestDiamond:
    def test_a_repeated_deep_pullback_runs_no_collection(self, standard):
        # the words were checked when built and the three-colour gate reads
        # the colours of their blocks, so a warm 1 x 2,000 pullback builds no
        # (colour, letter) pairs (two lists of 2,001 ran 5 gen-0 collections)
        fam = constant_family(standard["dih3"], 2)
        mu = KWord(fam, ((1,), ()))
        nu = KWord(fam, ((), tuple(1 + i % 3 for i in range(2000))))
        first = complete_diamond(fam, mu, nu, "pullback")
        done = []
        assert collections_during(lambda: done.append(complete_diamond(fam, mu, nu, "pullback"))) == [0, 0, 0]
        assert done == [first]

    def test_empty_side(self, standard):
        fam = constant_family(standard["flip2"], 2)
        mu = normalize(fam, [(1, 1)])
        nu = empty_word(fam)
        assert complete_diamond(fam, mu, nu, "pullback") == (mu, nu)

    def test_flip_letters_pass_through(self, standard):
        fam = constant_family(standard["flip2"], 2)
        mu = normalize(fam, [(1, 1)])
        nu = normalize(fam, [(2, 2)])
        assert complete_diamond(fam, mu, nu, "pullback") == (mu, nu)

    def test_dihedral_pullback_brute_force(self, standard):
        fam = constant_family(standard["dih3"], 2)
        mu = normalize(fam, [(1, 1), (1, 2)])
        nu = normalize(fam, [(2, 1)])
        mu_t, nu_t = complete_diamond(fam, mu, nu, "pullback")
        assert multiply(mu, nu_t) == multiply(nu, mu_t)
        candidates = [
            (m, v)
            for m in all_words(fam, mu.degree)
            for v in all_words(fam, nu.degree)
            if multiply(mu, v) == multiply(nu, m)
        ]
        assert candidates == [(mu_t, nu_t)]

    def test_dihedral_pushout_brute_force(self, standard):
        fam = constant_family(standard["dih3"], 2)
        mu = normalize(fam, [(1, 2)])
        nu = normalize(fam, [(2, 1), (2, 3)])
        mu_t, nu_t = complete_diamond(fam, mu, nu, "pushout")
        assert multiply(mu_t, nu) == multiply(nu_t, mu)
        candidates = [
            (m, v)
            for m in all_words(fam, mu.degree)
            for v in all_words(fam, nu.degree)
            if multiply(m, nu) == multiply(v, mu)
        ]
        assert candidates == [(mu_t, nu_t)]

    def test_three_colour_diamonds(self):
        fam = constant_family(builtin("flip", 2), 3)
        mu = normalize(fam, [(1, 1), (2, 2)])
        nu = normalize(fam, [(3, 1)])
        mu_t, nu_t = complete_diamond(fam, mu, nu, "pullback")
        assert multiply(mu, nu_t) == multiply(nu, mu_t)
        assert mu_t.degree == mu.degree and nu_t.degree == nu.degree

    @pytest.mark.parametrize(
        "k, mu_colours, nu_colours", [(2, (1,), (2,)), (3, (1, 3), (2,)), (3, (2,), (1, 3))]
    )
    def test_completions_satisfy_diamond_equation(self, census3, k, mu_colours, nu_colours):
        rng = random.Random(41 + k + len(mu_colours))
        nondegenerate = [R for R in census3 if properties(R).non_degenerate]

        def word(fam, colours):
            count = rng.randint(0, 9)
            return normalize(fam, list(zip(rng.choices(colours, k=count), rng.choices((1, 2, 3), k=count))))

        for _ in range(12):
            fam = constant_family(rng.choice(nondegenerate), k)
            mu, nu = word(fam, mu_colours), word(fam, nu_colours)
            mu_t, nu_t = complete_diamond(fam, mu, nu, "pullback")
            assert (mu_t.degree, nu_t.degree) == (mu.degree, nu.degree)
            assert normalize(fam, mu.letters() + nu_t.letters()) == normalize(fam, nu.letters() + mu_t.letters())
            mu_t, nu_t = complete_diamond(fam, mu, nu, "pushout")
            assert (mu_t.degree, nu_t.degree) == (mu.degree, nu.degree)
            assert normalize(fam, mu_t.letters() + nu.letters()) == normalize(fam, nu_t.letters() + mu.letters())

    def test_long_sides_do_not_recurse(self, standard):
        fam = constant_family(standard["dih3"], 2)

        def side(colour, length):
            letters = tuple(1 + i % 3 for i in range(length))
            return KWord(fam, (letters, ()) if colour == 1 else ((), letters))

        mu, nu = side(1, 1), side(2, 2000)
        mu_t, nu_t = complete_diamond(fam, mu, nu, "pullback")
        assert multiply(mu, nu_t) == multiply(nu, mu_t)
        mu, nu = side(1, 600), side(2, 600)
        for direction in ("pullback", "pushout"):
            mu_t, nu_t = complete_diamond(fam, mu, nu, direction)
            assert (mu_t.degree, nu_t.degree) == ((600, 0), (0, 600))

    def test_shared_tables_are_checked_once(self, standard):
        # the fibre check walks each table object once: the 19,900 pairs of a
        # constant family at k = 200 share one table, and walking it for
        # every pair took about 42 ms a call
        import time

        k = 200
        family = constant_family(standard["dih3"], k)
        mu = KWord(family, ((1,),) + ((),) * (k - 1))
        nu = KWord(family, ((), (2,)) + ((),) * (k - 2))
        start = time.perf_counter()
        for _ in range(25):
            for direction in ("pullback", "pushout"):
                complete_diamond(family, mu, nu, direction)
        assert time.perf_counter() - start < 1
        small = constant_family(standard["dih3"], 2)
        for direction in ("pullback", "pushout"):
            mu_t, nu_t = complete_diamond(family, mu, nu, direction)
            small_mu, small_nu = complete_diamond(small, KWord(small, ((1,), ())), KWord(small, ((), (2,))), direction)
            assert (mu_t.blocks[:2], nu_t.blocks[:2]) == (small_mu.blocks, small_nu.blocks)

    def test_three_colour_diamond_needs_valid_family(self):
        # R(x, y) = (sigma(y), rho(x)) with non-commuting sigma, rho: both
        # fiber properties hold, the braid relation does not
        sigma, rho = (2, 1, 3), (1, 3, 2)
        R = make_solution(3, [(sigma[y - 1], rho[x - 1]) for x in (1, 2, 3) for y in (1, 2, 3)])
        assert not is_ybe(R)
        fam = constant_family(R, 3)
        mu = KWord(fam, ((1,), (2,), ()))
        nu = KWord(fam, ((), (), (3,)))
        with pytest.raises(PreconditionFailed):
            complete_diamond(fam, mu, nu, "pullback")

    def test_property_missing(self, standard):
        fam = mixed_family()  # identity blocks are degenerate
        mu = normalize(fam, [(1, 1)])
        nu = normalize(fam, [(2, 1)])
        with pytest.raises(PropertyMissing):
            complete_diamond(fam, mu, nu, "pullback")

    @pytest.mark.parametrize("bad", [((0,), ()), ((4,), ()), ((True,), ()), ((1, -1), ()), ((1,), (), ())])
    def test_word_letters_are_checked(self, bad):
        # a diamond side is checked when it is built, so no malformed side
        # reaches complete_diamond
        fam = constant_family(builtin("dihedral", 3), 2)
        with pytest.raises(InvalidLetter):
            KWord(fam, bad)

    def test_family_mismatch_before_letters(self, standard):
        # words of another family are not read, even where their letters
        # would be out of range for this one
        fam = constant_family(builtin("dihedral", 3), 2)
        other = constant_family(standard["flip2"], 2)
        with pytest.raises(FamilyMismatch):
            complete_diamond(other, KWord(fam, ((3,), ())), KWord(fam, ((), (1,))), "pullback")

    def test_degrees_overlap(self, standard):
        fam = constant_family(standard["flip2"], 2)
        mu = normalize(fam, [(1, 1)])
        nu = normalize(fam, [(1, 2)])
        with pytest.raises(DegreesOverlap):
            complete_diamond(fam, mu, nu, "pullback")


# the sizes-(1, 2, 3) theta document that CI normalizes and completes diamonds on
THETA_123 = (
    '{"format_version":"1","k":3,"sizes":[1,2,3],"maps":{"1,2":[[2,1],[1,1]],'
    '"1,3":[[2,1],[3,1],[1,1]],"2,3":[[2,2],[3,2],[1,2],[2,1],[3,1],[1,1]]}}'
)


class TestBuiltWords:
    @pytest.mark.parametrize(
        "make_family",
        [
            lambda: constant_family(builtin("dihedral", 3), 3),
            mixed_family,
            lambda: parse_theta_document(THETA_123).family,
        ],
        ids=["dihedral-3", "mixed", "theta-123"],
    )
    def test_every_built_word_equals_its_checked_rebuild(self, make_family):
        # the library builds its words without the check `KWord` runs, so
        # each must be a word that the check accepts
        family = make_family()
        rng = random.Random(55)
        built = [empty_word(family)]
        diamonds = 0
        for _ in range(40):
            a, b = (normalize(family, random_word(family, rng, rng.randint(0, 8))) for _ in range(2))
            built += [a, b, multiply(a, b)]
            built += factorize(a, tuple(rng.randint(0, part) for part in a.degree))
            cut = rng.randint(1, family.k - 1)
            colours = rng.sample(range(1, family.k + 1), family.k)
            mu, nu = (
                normalize(family, [letter for letter in random_word(family, rng, 8) if letter[0] in side])
                for side in (colours[:cut], colours[cut:])
            )
            for direction in ("pullback", "pushout"):
                try:
                    built += complete_diamond(family, mu, nu, direction)
                    diamonds += 1
                except PropertyMissing:
                    pass
        for word in built:
            assert KWord(word.family, word.blocks) == word
        assert len(built) > 200
        # the mixed family's identity blocks lack both fibre properties
        assert diamonds == (0 if make_family is mixed_family else 80)

    def test_library_words_are_not_checked_again(self, monkeypatch):
        # `KWord` checks each letter through `_check_letter`; the words the
        # library builds, and a word loaded from a pickle, read none of them
        import pickle

        import ybk.kgraph as kgraph

        reads = []
        check = kgraph._check_letter
        monkeypatch.setattr(kgraph, "_check_letter", lambda *args: reads.append(args) or check(*args))
        fam = constant_family(builtin("dihedral", 3), 3)
        rng = random.Random(7)
        word = normalize(fam, random_word(fam, rng, 150))
        head, tail = factorize(word, tuple(part // 2 for part in word.degree))
        multiply(tail, head)
        side = normalize(constant_family(builtin("dihedral", 3), 2), [(2, 1 + i % 3) for i in range(2000)])
        for direction in ("pullback", "pushout"):
            complete_diamond(side.family, normalize(side.family, [(1, 1)]), side, direction)
        assert pickle.loads(pickle.dumps(word)) == word and empty_word(fam).is_empty()
        assert reads == []
        assert KWord(fam, word.blocks) == word
        assert len(reads) == 150


class TestPeriodicity:
    def test_identity_periodic(self):
        for n in (1, 2, 3):
            result = periodicity(builtin("identity", n), 4)
            assert result.periodic and result.order == 1

    def test_flip_aperiodic(self, standard):
        result = periodicity(standard["flip2"], 5)
        assert not result.periodic
        assert str(result) == "AperiodicUpTo(5)"

    def test_dihedral_aperiodic(self, standard):
        assert str(periodicity(standard["dih3"], 4)) == "AperiodicUpTo(4)"

    def test_needs_solution(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        with pytest.raises(NotAYbeSolution):
            periodicity(bad, 3)

    @pytest.mark.parametrize("bound", ["3", 2.0, True])
    def test_non_integer_bound_rejected(self, standard, bound):
        with pytest.raises(InvalidParams):
            periodicity(standard["dih3"], bound)

    def test_lazy_check_matches_level_scan(self, census2, census3):
        # all 79 solutions with N <= 3
        for R in [builtin("identity", 1)] + census2 + census3:
            order = None
            for level in (1, 2, 3):
                size = R.size ** level
                if level_solution(R, level).table == builtin("identity", size).table:
                    order = level
                    break
            assert periodicity(R, 3) == Periodicity(order is not None, order, 3)

    def test_lazy_check_compares_both_blocks(self):
        # R(x, y) = (x, 2 if y == 1 else 1) fixes every first block but not the second
        from ybk.constructions import level_is_identity

        swap_second = make_solution(2, [(x, 3 - y) for x in (1, 2) for y in (1, 2)])
        assert not level_is_identity(swap_second, 1)
        assert level_is_identity(builtin("identity", 2), 2)
        for level in (0, -1):
            with pytest.raises(InvalidParams):
                level_is_identity(builtin("identity", 2), level)

    @pytest.mark.parametrize(
        "name, size, limit, message",
        [
            ("flip", 3, "2", r"level-1 ground set on \[3\] needs 3 "),
            ("flip", 3, "100", r"level map table on \[3\]\^3 x \[3\]\^3 needs 729 "),
            ("dihedral", 3, "6561", r"level map table on \[3\]\^5 x \[3\]\^5 needs 59049 "),
            ("identity", 3, "5", r"level map table on \[3\]\^1 x \[3\]\^1 needs 9 "),
        ],
    )
    def test_overflow_at_the_same_level(self, monkeypatch, name, size, limit, message):
        monkeypatch.setenv("YBK_LIMIT", limit)
        with pytest.raises(Overflow, match=message):
            periodicity(builtin(name, size), 6)

    def test_consistent_across_level_paths(self, census2):
        # the verdict only depends on the level tables, which agree between
        # the rewriting engine and the leg-composition oracle
        for R in census2:
            for n in (1, 2, 3):
                assert level_map(R, n, n).table == legs_level_map(R, n, n)


class TestRestrict:
    def test_level_one_is_same_family(self, standard):
        fam = constant_family(standard["dih3"], 3)
        assert restrict(fam, 1, 1, 1) == fam

    def test_shift_levels_valid(self, standard):
        fam = restrict(constant_family(standard["shift2"], 3), 3, 3, 3)
        assert fam.sizes == (8, 8, 8)
        assert validate_kgraph(fam)[0]

    def test_invalid_base_stays_invalid(self):
        tau = (2, 1)
        bad = make_solution(2, [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)])
        fam = restrict(constant_family(bad, 3), 1, 2, 1)
        assert not validate_kgraph(fam)[0]

    def test_tables_are_level_maps(self, standard):
        R = standard["dih3"]
        fam = restrict(constant_family(R, 3), 2, 1, 2)
        lm = level_map(R, 2, 1)
        from ybk.constructions import encode_word

        for s, u in enumerate(product((1, 2, 3), repeat=2), start=0):
            for t, v in enumerate(product((1, 2, 3), repeat=1), start=0):
                vp, up = lm.apply(u, v)
                assert fam.apply(1, 2, s + 1, t + 1) == (
                    encode_word(vp, 3),
                    encode_word(up, 3),
                )

    def test_needs_constant_family(self):
        with pytest.raises(InvalidParams):
            restrict(mixed_family(), 1, 1, 1)

    def test_tables_built_apart_count_as_constant(self, standard):
        R = standard["dih3"]
        family = make_theta_family(3, (3, 3, 3), {pair: list(R.table) for pair in combinations((1, 2, 3), 2)})
        assert family.maps[0] is not family.maps[1]
        assert restrict(family, 2, 1, 2) == restrict(constant_family(R, 3), 2, 1, 2)

    def test_many_colours_are_not_hashed(self, standard):
        # a constant family is told by comparing its tables, with the identity
        # shortcut for the shared one: hashing all 1,047,628 pair tables at
        # k = 1,448 took about 0.13 s a call
        import time

        family = constant_family(standard["dih3"], 1448)
        start = time.perf_counter()
        for _ in range(20):
            restricted = restrict(family, 1, 1, 1)
        assert time.perf_counter() - start < 1
        assert restricted == constant_family(standard["dih3"], 3)

    @pytest.mark.parametrize("exponents", [(True, 1, 1), (1, 1.5, 1), (1, 1, "2"), (None, 1, 1), (1, 0, 1)])
    def test_exponents_must_be_positive_integers(self, standard, monkeypatch, exponents):
        import ybk.kgraph as kgraph

        def no_work(*args):
            raise AssertionError("the exponents are checked before any work")

        monkeypatch.setattr(kgraph, "check_count", no_work)
        with pytest.raises(InvalidParams):
            restrict(constant_family(standard["dih3"], 3), *exponents)

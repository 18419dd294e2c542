import hashlib
import importlib
import json
import random
import sys
from itertools import combinations, islice, permutations
from math import comb, factorial

import pytest

from ybk.classify import (
    census,
    classify,
    enumerate_solutions,
    is_conjugacy_witness,
    is_yb_iso_witness,
    product_conjugate,
    sample_ybe_solutions,
    yb_isomorphic,
)
from ybk.constructions import trivial_extension
from ybk.errors import InvalidParams, SizeMismatch, SizeTooLarge
from ybk.semigroup import check_cancellative, growth
from ybk.solution import Solution, _braid_failure, builtin, properties

from oracles import random_bijection_table, waiting_census

# the module itself: `ybk.classify` is the function re-exported by the package
CLASSIFY = importlib.import_module("ybk.classify")


# Brute-force oracles: the exhaustive loops the pruned searches replaced.


def brute_force_census(n):
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return [Solution(n, table) for table in permutations(pairs) if _braid_failure(n, table) is None]


def brute_force_conjugate(a, b):
    for tau in permutations(range(1, a.size + 1)):
        for rho in permutations(range(1, a.size + 1)):
            if is_conjugacy_witness(a, b, tau, rho):
                return tau, rho
    return None


def brute_force_isomorphic(a, b):
    for phi in permutations(range(1, a.size + 1)):
        if is_yb_iso_witness(a, b, phi):
            return phi
    return None


def shuffled_sample(n, attempts, seed):
    """The sampler as one `Random.shuffle` per draw: the stream oracle."""
    rng = random.Random(seed)
    found = {}
    for _ in range(attempts):
        table = random_bijection_table(n, rng)
        if _braid_failure(n, table) is None:
            found[table] = Solution(n, table)
    return [found[key] for key in sorted(found)]


def search_steps(n):
    """Calls of the census's recursive search in one `enumerate_solutions(n)`."""
    search = next(c for c in CLASSIFY._census.__code__.co_consts if getattr(c, "co_name", None) == "search")
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "call" and frame.f_code is search:
            steps += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        enumerate_solutions(n)
    finally:
        sys.setprofile(previous)
    return steps


def recorded_searches(monkeypatch):
    """Patch classify's per-class set-up so that each search it runs is
    recorded as (representative's table, tested table); returns the list of
    searches and the list of the representatives set up."""
    searches, setups = [], []
    original = CLASSIFY._class_search

    def recording(rep, relation):
        setups.append(rep.table)
        related = original(rep, relation)
        n = rep.size

        def search(codes):
            searches.append((rep.table, tuple((code // n + 1, code % n + 1) for code in codes)))
            return related(codes)

        return search

    monkeypatch.setattr(CLASSIFY, "_class_search", recording)
    return searches, setups


def nth_permutation(n, rank):
    return next(islice(permutations(range(1, n + 1)), rank, None))


def relabel(a, phi):
    """b with (phi x phi) o a = b o (phi x phi)."""
    n = a.size
    table = [None] * (n * n)
    for idx, (u, v) in enumerate(a.table):
        x, y = divmod(idx, n)
        table[(phi[x] - 1) * n + phi[y] - 1] = (phi[u - 1], phi[v - 1])
    return Solution(n, tuple(table))


def conjugate(a, tau, rho):
    """b with a o (tau x rho) = (tau x rho) o b."""
    n = a.size
    tau_inv = {t: x for x, t in enumerate(tau, start=1)}
    rho_inv = {r: y for y, r in enumerate(rho, start=1)}
    table = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            p, q = a(tau[x - 1], rho[y - 1])
            table.append((tau_inv[p], rho_inv[q]))
    return Solution(n, tuple(table))


def cycle_type(R):
    """Cycle lengths of R on [N]^2, each orbit found by applying R until it returns."""
    n = R.size
    orbit = {}
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            point, steps = R(x, y), 1
            while point != (x, y):
                point, steps = R(*point), steps + 1
            orbit[x, y] = steps
    lengths = []
    for length in sorted(set(orbit.values())):
        points = sum(1 for value in orbit.values() if value == length)
        lengths += [length] * (points // length)
    return tuple(lengths)


def random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def brute_force_classes(solutions, relation):
    """classify's classes from canonical forms: the least table over every
    relabeling (yb_iso) or every (tau, rho) pair (conjugacy)."""
    ordered = sorted(solutions, key=lambda s: s.table)
    perms = list(permutations(range(1, ordered[0].size + 1)))

    def canonical(a):
        if relation == "yb_iso":
            return min(relabel(a, phi).table for phi in perms)
        return min(conjugate(a, tau, rho).table for tau in perms for rho in perms)

    groups = {}
    for idx, a in enumerate(ordered):
        groups.setdefault(canonical(a), []).append(idx)
    return tuple(sorted(tuple(members) for members in groups.values()))


def planted_pairs(bases, seed):
    """Seeded (a, b) pairs: relabelings and conjugates of one base with the
    witness planted at evenly spaced ranks, and relabelings of two bases."""
    rng = random.Random(seed)
    n = bases[0].size
    ranks = [k * factorial(n) // (len(bases) + 1) for k in range(1, len(bases) + 1)]
    pairs = []
    for idx, (base, rank) in enumerate(zip(bases, ranks)):
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        a = relabel(base, shuffled)
        witness = nth_permutation(n, rank)
        pairs.append((a, relabel(a, witness)))
        pairs.append((a, conjugate(a, witness, nth_permutation(n, factorial(n) - 1 - rank))))
        other = bases[(idx + 1) % len(bases)]
        rng.shuffle(shuffled)
        pairs.append((a, relabel(other, shuffled)))
    return pairs


RELABEL_BASES = {
    4: [
        builtin("shift", 4),
        builtin("dihedral", 4),
        trivial_extension(builtin("identity", 1), builtin("dihedral", 3)),
        trivial_extension(builtin("flip", 2), builtin("shift", 2)),
    ],
    5: [
        builtin("dihedral", 5),
        trivial_extension(builtin("shift", 2), builtin("flip", 3)),
        trivial_extension(builtin("identity", 2), builtin("dihedral", 3)),
    ],
}


class TestEnumerate:
    def test_singleton(self):
        assert len(enumerate_solutions(1)) == 1

    def test_two_element_census(self, census2):
        # frozen from the exhaustive brute force over all 24 bijections
        assert len(census2) == 5
        tables = {R.table for R in census2}
        for name in ("identity", "flip", "double_shift", "shift"):
            assert builtin(name, 2).table in tables

    def test_census_is_sorted(self, census2):
        assert [R.table for R in census2] == sorted(R.table for R in census2)

    def test_three_element_census_size(self, census3):
        # frozen regression value from the 362880-candidate brute force
        assert len(census3) == 73

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        assert [R.table for R in enumerate_solutions(n)] == [
            R.table for R in brute_force_census(n)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_waiting_census(self, n):
        assert [R.table for R in enumerate_solutions(n)] == waiting_census(n)

    def test_four_element_census_size(self, census4):
        assert len(census4) == 2425

    @pytest.mark.parametrize(
        "fixture, digest",
        [
            ("census3", "61a3049a09260260a57ae1bcd0620262c5db376ce1e1f6d74ac3f23192fbb758"),
            ("census4", "7eddf923ded9af47a60cafe610c36e87002dce50c8311a84cd37749f6de622f2"),
        ],
    )
    def test_lists_are_pinned_by_hash(self, fixture, digest, request):
        # the sha256 of the compact JSON of the tables as lists of [u, v] lists
        tables = [[list(pair) for pair in R.table] for R in request.getfixturevalue(fixture)]
        assert hashlib.sha256(json.dumps(tables, separators=(",", ":")).encode()).hexdigest() == digest

    @pytest.mark.parametrize("root, orbit", [((1, 2), {(1, 2), (1, 3), (1, 4)}), ((2, 1), {(2, 1), (3, 1), (4, 1)})])
    def test_four_element_slices_match_waiting_census(self, census4, root, orbit):
        # the tables whose R(1, 1) lies in one orbit under Sym{2..4}, in order
        expected = waiting_census(4, root)
        assert len(expected) == 360
        assert [R.table for R in census4 if R.table[0] in orbit] == expected

    @pytest.mark.parametrize("n, steps", [(3, 796), (4, 29448)])
    def test_search_steps_are_bounded(self, n, steps):
        # a count, not a time: the cells the braid triples narrow take
        # 796 and 29,448 steps, against 1,404 and 588,381 without narrowing;
        # the count is pinned, as a rule that stops narrowing (rule 2's
        # h != b, say) leaves the census whole but takes 919 and 32,677
        assert search_steps(n) == steps

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_under_relabeling(self, n):
        # the search only tries orbit representatives in cell (1, 1), so the
        # list is whole only if the closure under relabeling is
        tables = {R.table for R in enumerate_solutions(n)}
        for phi in permutations(range(1, n + 1)):
            assert {relabel(Solution(n, t), phi).table for t in tables} == tables

    def test_guard(self):
        with pytest.raises(SizeTooLarge):
            enumerate_solutions(5)

    @pytest.mark.parametrize("size", [0, -1])
    def test_sampling_needs_a_positive_size(self, size):
        with pytest.raises(SizeTooLarge, match="size must be positive"):
            sample_ybe_solutions(size, 3, 0)

    def test_sampling_is_seeded(self):
        a = sample_ybe_solutions(3, 400, seed=5)
        b = sample_ybe_solutions(3, 400, seed=5)
        assert [s.table for s in a] == [s.table for s in b]
        for s in a:
            assert properties(s).is_ybe

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sampling_draws_match_shuffle(self, n, monkeypatch):
        # every table handed to the braid check, in order, is the one the
        # shuffle oracle draws; at N >= 4 no draw is a solution, so only the
        # recorded draws can tell the two streams apart there
        drawn = []

        def recording_check(size, table):
            drawn.append(tuple(table))
            return _braid_failure(size, table)

        monkeypatch.setattr(CLASSIFY, "_braid_failure", recording_check)
        for seed in range(50):
            for attempts in (0, 1, 40):
                drawn.clear()
                sampled = sample_ybe_solutions(n, attempts, seed)
                rng = random.Random(seed)
                assert drawn == [random_bijection_table(n, rng) for _ in range(attempts)]
                assert [s.table for s in sampled] == [
                    s.table for s in shuffled_sample(n, attempts, seed)
                ]

    def test_sampled_list_is_pinned(self):
        # captured from the sampler of earlier versions; a change that moves
        # the sampler and the shuffle oracle together still fails here
        assert [s.table for s in sample_ybe_solutions(3, 20000, 7)] == [
            ((1, 1), (1, 2), (3, 2), (2, 1), (2, 2), (3, 1), (2, 3), (1, 3), (3, 3)),
            ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 2), (3, 3)),
            ((1, 2), (2, 2), (3, 1), (1, 1), (2, 1), (3, 2), (2, 3), (1, 3), (3, 3)),
            ((1, 3), (2, 3), (3, 3), (3, 2), (2, 2), (1, 2), (1, 1), (2, 1), (3, 1)),
            ((3, 1), (2, 1), (1, 1), (3, 2), (2, 2), (1, 2), (3, 3), (2, 3), (1, 3)),
            ((3, 3), (2, 3), (1, 3), (1, 2), (2, 2), (3, 2), (3, 1), (2, 1), (1, 1)),
        ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: enumerate_solutions(2.5),
            lambda: enumerate_solutions(True),
            lambda: census(True, "yb_iso"),
            lambda: census(2.0, "conjugacy"),
            lambda: sample_ybe_solutions(3, True, 0),
            lambda: sample_ybe_solutions(3, 2.5, 0),
            lambda: sample_ybe_solutions(True, 3, 0),
            lambda: sample_ybe_solutions("3", 3, 0),
        ],
        ids=[
            "enumerate-float",
            "enumerate-bool",
            "census-bool",
            "census-float",
            "sample-bool-attempts",
            "sample-float-attempts",
            "sample-bool-size",
            "sample-str-size",
        ],
    )
    def test_sizes_and_attempts_must_be_ints(self, call, monkeypatch):
        def no_draws(size, table):
            raise AssertionError("a draw was checked before the arguments were")

        monkeypatch.setattr(CLASSIFY, "_braid_failure", no_draws)
        with pytest.raises(InvalidParams, match="must be an integer"):
            call()


class TestProductConjugate:
    def test_self_is_identity_pair(self, standard):
        assert product_conjugate(standard["dih3"], standard["dih3"]) == (
            (1, 2, 3),
            (1, 2, 3),
        )

    def test_flip_conjugate_to_double_shift(self, standard):
        witness = product_conjugate(standard["flip2"], standard["dbl2"])
        assert witness == ((1, 2), (2, 1))
        assert is_conjugacy_witness(standard["flip2"], standard["dbl2"], *witness)

    def test_identity_not_conjugate_to_flip(self, standard):
        assert product_conjugate(standard["id2"], standard["flip2"]) is None

    def test_size_mismatch(self, standard):
        with pytest.raises(SizeMismatch):
            product_conjugate(standard["flip2"], standard["flip3"])


class TestSolutionArguments:
    """Arguments that are not solutions raise InvalidParams before any search."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda R: classify([1, 2], "yb_iso"),
            lambda R: classify([R, "x"], "conjugacy"),
            lambda R: classify(None, "yb_iso"),
            lambda R: classify(5, "conjugacy"),
            lambda R: classify([R], "yb_iso", total_bijections="x"),
            lambda R: classify([R], "yb_iso", total_bijections=-1),
            lambda R: yb_isomorphic(R, 3),
            lambda R: product_conjugate(None, R),
            lambda R: is_yb_iso_witness(R, 3, (1, 2, 3)),
            lambda R: is_conjugacy_witness("x", R, (1, 2, 3), (1, 2, 3)),
        ],
        ids=[
            "classify-ints",
            "classify-str-item",
            "classify-none",
            "classify-int",
            "classify-str-total",
            "classify-negative-total",
            "iso-int",
            "conjugate-none",
            "iso-witness-int",
            "conjugacy-witness-str",
        ],
    )
    def test_raise_invalid_params(self, call, standard, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran before the arguments were checked")

        monkeypatch.setattr(CLASSIFY, "_search", no_search)
        with pytest.raises(InvalidParams):
            call(standard["dih3"])


class TestRelationName:
    def test_classify_rejects_cli_spelling(self, standard):
        # the library spells it yb_iso; the CLI maps its yb-iso before calling
        with pytest.raises(InvalidParams):
            classify([standard["dih3"]], "yb-iso")

    def test_census_rejects_unknown_relation(self):
        with pytest.raises(InvalidParams):
            census(2, "x")


class TestYbIsomorphic:
    def test_self_identity(self, standard):
        assert yb_isomorphic(standard["dih3"], standard["dih3"]) == (1, 2, 3)

    def test_dihedral_shift_automorphism(self, standard):
        assert is_yb_iso_witness(standard["dih3"], standard["dih3"], (2, 3, 1))

    def test_flip_not_isomorphic_to_double_shift(self, standard):
        assert yb_isomorphic(standard["flip2"], standard["dbl2"]) is None


class TestWitnessReplays:
    """A claimed witness that is not a permutation of [N] is a bad value."""

    @pytest.mark.parametrize("phi", [(1, 1), (1,), (1, 2, 3), (0, 1), (2, 3), (True, 2), (1.0, 2), 5])
    def test_iso_witness_must_be_a_permutation(self, standard, phi):
        # (1, 1) used to replay as a witness of id2 with itself, and (1,) to
        # escape as an IndexError
        with pytest.raises(InvalidParams, match="phi must be a permutation of 1..2"):
            is_yb_iso_witness(standard["id2"], standard["id2"], phi)

    @pytest.mark.parametrize("bad", [(2, 2), (1,), (0, 1, 2), (False, 1), 5])
    def test_conjugacy_witness_must_be_permutations(self, standard, bad):
        a, b = standard["flip2"], standard["dbl2"]
        with pytest.raises(InvalidParams, match="tau must be a permutation"):
            is_conjugacy_witness(a, b, bad, (2, 1))
        with pytest.raises(InvalidParams, match="rho must be a permutation"):
            is_conjugacy_witness(a, b, (1, 2), bad)

    def test_permutations_replay(self, standard):
        assert is_conjugacy_witness(standard["flip2"], standard["dbl2"], [1, 2], [2, 1])
        assert not is_conjugacy_witness(standard["flip2"], standard["dbl2"], (1, 2), (1, 2))
        assert is_yb_iso_witness(standard["dih3"], standard["dih3"], [2, 3, 1])


class TestRelationLaws:
    def test_witness_symmetry_and_transitivity(self, census3):
        pool = census3[:18]
        invert = lambda phi: tuple(
            phi.index(x) + 1 for x in range(1, len(phi) + 1)
        )
        pairs = []
        for a, b in combinations(pool, 2):
            phi = yb_isomorphic(a, b)
            if phi is not None:
                pairs.append((a, b, phi))
                assert is_yb_iso_witness(b, a, invert(phi))
        for (a, b, phi), (c, d, psi) in combinations(pairs, 2):
            if b.table == c.table:
                composed = tuple(psi[phi[x - 1] - 1] for x in range(1, a.size + 1))
                assert is_yb_iso_witness(a, d, composed)

    def test_iso_implies_conjugate(self, census3):
        pool = census3[:18]
        for a, b in combinations(pool, 2):
            phi = yb_isomorphic(a, b)
            if phi is not None:
                # the same permutation, used twice, conjugates the pair
                assert is_conjugacy_witness(b, a, phi, phi)
                assert product_conjugate(a, b) is not None


class TestClassify:
    def test_two_element_partitions(self, census2):
        iso = classify(census2, "yb_iso")
        conj = classify(census2, "conjugacy")
        # the four catalog families land in four distinct classes; the mirror
        # of the shift forms a fifth (it is conjugate but not relabel-equal)
        assert len(iso.classes) == 5
        assert len(conj.classes) == 3
        conj_sets = [
            {conj.solutions[i].table for i in cls} for cls in conj.classes
        ]
        assert {builtin("flip", 2).table, builtin("double_shift", 2).table} in conj_sets

    def test_singleton_size(self):
        result = census(1, "yb_iso")
        assert len(result.classes) == 1
        assert result.total_bijections == 1

    def test_three_element_partitions(self, census3):
        # frozen regression values
        assert len(classify(census3, "yb_iso").classes) == 29
        assert len(classify(census3, "conjugacy").classes) == 13

    def test_conjugate_pairs_share_growth(self, census3):
        conj = classify(census3, "conjugacy")
        for cls in conj.classes:
            if len(cls) < 2:
                continue
            reference = growth(conj.solutions[cls[0]], 5)
            for idx in cls[1:]:
                assert growth(conj.solutions[idx], 5) == reference

    def test_iso_classes_share_flags(self, census3):
        iso = classify(census3, "yb_iso")
        for cls in iso.classes:
            reports = [properties(iso.solutions[i]) for i in cls]
            first = reports[0]
            for report in reports[1:]:
                assert (
                    report.involutive,
                    report.square_free,
                    report.non_degenerate,
                    report.derived_type,
                ) == (
                    first.involutive,
                    first.square_free,
                    first.non_degenerate,
                    first.derived_type,
                )

    def test_representatives_are_least(self, census3):
        iso = classify(census3, "yb_iso")
        for cls, rep in zip(iso.classes, iso.representatives):
            assert rep.table == min(iso.solutions[i].table for i in cls)

    @pytest.mark.parametrize("relation", ["yb_iso", "conjugacy"])
    def test_searches_start_from_representatives(self, census3, relation, monkeypatch):
        # both relations are group actions, so one member stands for its class;
        # classify sets each class's search up from its representative
        calls, _ = recorded_searches(monkeypatch)
        result = classify(census3, relation)
        least = {rep.table for rep in result.representatives}
        assert calls
        for a, b in calls:
            assert a in least
            assert a < b
        assert len(set(calls)) == len(calls)


class TestFingerprint:
    """`_fingerprint` is the cycle type of R on [N]^2, which both relations keep."""

    def test_is_the_cycle_type(self, census2, census3):
        for pool in (enumerate_solutions(1), census2, census3):
            for R in pool:
                assert CLASSIFY._fingerprint(R) == cycle_type(R)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_equal_across_relabelings_and_conjugates(self, seed, census2, census3):
        rng = random.Random(seed)
        pools = [enumerate_solutions(1), census2, census3, RELABEL_BASES[4], RELABEL_BASES[5]]
        checked = 0
        for pool in pools:
            for a in pool:
                n = a.size
                expected = CLASSIFY._fingerprint(a)
                for _ in range(3):
                    assert CLASSIFY._fingerprint(relabel(a, random_perm(rng, n))) == expected
                    b = conjugate(a, random_perm(rng, n), random_perm(rng, n))
                    assert CLASSIFY._fingerprint(b) == expected
                checked += 1
        assert checked == 1 + 5 + 73 + 4 + 3

    def test_equal_cycle_types_are_left_to_the_witness_search(self, monkeypatch):
        # the flip on [3] and an involutive solution that is not square-free:
        # one cycle type, (1, 1, 1, 2, 2, 2), but not even product conjugate
        flip = Solution(3, ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)))
        other = Solution(3, ((1, 1), (2, 1), (3, 1), (1, 2), (3, 3), (2, 3), (1, 3), (3, 2), (2, 2)))
        assert CLASSIFY._fingerprint(flip) == CLASSIFY._fingerprint(other) == (1, 1, 1, 2, 2, 2)
        assert yb_isomorphic(flip, other) is None
        assert product_conjugate(flip, other) is None
        for relation in ("yb_iso", "conjugacy"):
            with monkeypatch.context() as patch:
                calls, _ = recorded_searches(patch)
                result = classify([other, flip], relation)
            assert result.classes == ((0,), (1,))
            assert calls == [(flip.table, other.table)]

    @pytest.mark.parametrize("seed", [23, 24])
    def test_different_cycle_types_are_answered_without_a_search(self, seed, census2, census3, monkeypatch):
        rng = random.Random(seed)
        pairs = [
            (a, b)
            for pool in (census2, census3)
            for a in pool
            for b in pool
            if CLASSIFY._fingerprint(a) != CLASSIFY._fingerprint(b)
        ]
        for n in (4, 5):
            first, second = RELABEL_BASES[n][:2]
            for _ in range(3):
                pairs.append((relabel(first, random_perm(rng, n)), relabel(second, random_perm(rng, n))))
                pairs.append((relabel(second, random_perm(rng, n)), relabel(first, random_perm(rng, n))))
        assert len(pairs) > 12

        def no_search(a, b):
            raise AssertionError("a search ran on two different cycle types")

        monkeypatch.setattr(CLASSIFY, "_yb_isomorphic", no_search)
        monkeypatch.setattr(CLASSIFY, "_product_conjugate", no_search)
        for a, b in pairs:
            assert CLASSIFY._fingerprint(a) != CLASSIFY._fingerprint(b)
            assert yb_isomorphic(a, b) is None
            assert product_conjugate(a, b) is None
        # a map that is not a bijection has no cycle type, so it still reaches the search
        lumped = Solution(2, ((1, 1), (1, 1), (2, 1), (2, 2)))
        with pytest.raises(AssertionError, match="a search ran"):
            yb_isomorphic(lumped, builtin("flip", 2))
        with pytest.raises(AssertionError, match="a search ran"):
            product_conjugate(builtin("flip", 2), lumped)

    def test_non_bijection_has_none(self):
        # a map that is not a bijection gets no fingerprint, so only the
        # witness search compares it; its relabelings still form one class
        lumped = Solution(2, ((1, 1), (1, 1), (2, 1), (2, 2)))
        assert CLASSIFY._fingerprint(lumped) is None
        swapped = relabel(lumped, (2, 1))
        for relation in ("yb_iso", "conjugacy"):
            assert classify([lumped, swapped], relation).classes == ((0, 1),)
            assert classify([lumped, builtin("flip", 2)], relation).classes == ((0,), (1,))

    @pytest.mark.parametrize("relation", ["yb_iso", "conjugacy"])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_classify_matches_brute_force_partition(self, relation, seed):
        rng = random.Random(seed)
        pool = []
        for base in RELABEL_BASES[4]:
            for _ in range(2):
                pool.append(relabel(base, random_perm(rng, 4)))
                pool.append(conjugate(base, random_perm(rng, 4), random_perm(rng, 4)))
        rng.shuffle(pool)
        result = classify(pool, relation)
        assert [s.table for s in result.solutions] == sorted(s.table for s in pool)
        assert result.classes == brute_force_classes(pool, relation)


class TestCensusOrbits:
    """`census` classifies one table per orbit of the relabelings that fix 1."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbits_are_the_relabelings_that_fix_one(self, n, census4):
        solutions, orbits = CLASSIFY._census(n)
        assert solutions == (census4 if n == 4 else enumerate_solutions(n))
        index = {R.table: i for i, R in enumerate(solutions)}
        fixing = [(1,) + tuple(p) for p in permutations(range(2, n + 1))]
        expected = {tuple(sorted({index[relabel(R, phi).table] for phi in fixing})) for R in solutions}
        assert orbits == sorted(expected)

    @pytest.mark.parametrize("relation", ["yb_iso", "conjugacy"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbit_path_matches_list_path(self, n, relation, census4):
        solutions = census4 if n == 4 else enumerate_solutions(n)
        by_orbits = census(n, relation)
        by_list = classify(solutions, relation, factorial(n * n))
        for field in ("size", "relation", "total_bijections", "solutions", "classes"):
            assert getattr(by_orbits, field) == getattr(by_list, field), field

    @pytest.mark.parametrize("relation, searches, list_searches", [("yb_iso", 8096, 29939), ("conjugacy", 2609, 9776)])
    def test_four_element_census_searches(self, relation, searches, list_searches, monkeypatch):
        # counts, not times: one set-up per class, and searches from orbit
        # representatives only; list_searches is what classifying every
        # table of the list ran before the census classified orbits
        calls, setups = recorded_searches(monkeypatch)
        result = census(4, relation)
        assert len(setups) <= len(result.classes)
        assert len(calls) == searches < list_searches


class TestWitnessOracles:
    def test_census_pairs_match_brute_force(self, census2, census3):
        for pool in (enumerate_solutions(1), census2, census3):
            for a in pool:
                for b in pool:
                    assert product_conjugate(a, b) == brute_force_conjugate(a, b)
                    assert yb_isomorphic(a, b) == brute_force_isomorphic(a, b)

    @pytest.mark.parametrize("n, seed", [(4, 11), (4, 12), (5, 13)])
    def test_planted_pairs_match_brute_force(self, n, seed):
        found = 0
        for a, b in planted_pairs(RELABEL_BASES[n], seed):
            conj = product_conjugate(a, b)
            assert conj == brute_force_conjugate(a, b)
            iso = yb_isomorphic(a, b)
            assert iso == brute_force_isomorphic(a, b)
            found += (conj is not None) + (iso is not None)
        # per base: a relabeling (both witnesses), a conjugate (one), and a
        # relabeling of a base with another cycle type (none)
        assert found == 3 * len(RELABEL_BASES[n])


class TestCensusAnchors:
    """Counts of classes up to relabeling, from Etingof-Schedler-Soloviev
    (involutive non-degenerate) and Akgun-Mereb-Vendramin (all non-degenerate)."""

    @staticmethod
    def class_flags(n):
        iso = census(n, "yb_iso")
        reports = [properties(rep) for rep in iso.representatives]
        return [(r.non_degenerate, r.involutive) for r in reports]

    def test_three_element_classes(self):
        flags = self.class_flags(3)
        assert len(flags) == 29
        assert sum(nd for nd, _ in flags) == 26
        assert sum(nd and inv for nd, inv in flags) == 5
        assert sum(nd and not inv for nd, inv in flags) == 21

    def test_four_element_classes(self, census4):
        # Etingof-Schedler-Soloviev: 23 involutive non-degenerate classes on 4 points
        iso = classify(census4, "yb_iso")
        assert len(iso.classes) == 330
        assert len(classify(census4, "conjugacy").classes) == 101
        reports = [(R, properties(R)) for R in iso.representatives]
        involutive = [R for R, report in reports if report.involutive and report.non_degenerate]
        assert len(involutive) == 23
        # Gateva-Ivanova-Van den Bergh, as for N <= 3 below
        for R in involutive:
            assert growth(R, 5) == tuple(comb(n + 3, 3) for n in range(6))
            assert check_cancellative(R, 4) == (True, None)

    def test_two_element_classes(self):
        flags = self.class_flags(2)
        assert sum(nd and not inv for nd, inv in flags) == 2

    def test_involutive_non_degenerate_are_i_type(self, census2, census3):
        # Gateva-Ivanova-Van den Bergh: the semigroup of an involutive
        # non-degenerate solution has the Hilbert series of N commuting variables
        checked = 0
        for size, pool in ((1, enumerate_solutions(1)), (2, census2), (3, census3)):
            for R in pool:
                report = properties(R)
                if not (report.involutive and report.non_degenerate):
                    continue
                checked += 1
                assert growth(R, 5) == tuple(comb(n + size - 1, size - 1) for n in range(6))
                assert check_cancellative(R, 4) == (True, None)
        assert checked == 15

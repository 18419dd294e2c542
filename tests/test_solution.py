import random
from itertools import permutations, product

import pytest

from ybk.errors import (
    InvalidParams,
    NotABijection,
    NotDerivedType,
    OutOfRange,
    PositionOutOfRange,
    UnknownName,
)
from ybk.kgraph import constant_family, validate_kgraph
from ybk.solution import (
    Solution,
    _braid_failure,
    alpha_beta,
    apply_leg,
    builtin,
    check_structure_equations,
    is_ybe,
    make_solution,
    mirror_derived,
    properties,
    qybe_form,
    ybe_witness,
)

from conftest import random_solutions
from oracles import braid_sides, least_braid_failure, random_bijection_table


def direct_flags(R):
    """Independent oracle: evaluate every defining condition literally."""
    n = R.size
    rng = range(1, n + 1)
    involutive = all(R(*R(x, y)) == (x, y) for x in rng for y in rng)
    square_free = all(R(x, x) == (x, x) for x in rng)
    nondeg = all(
        len({R(x, y)[0] for y in rng}) == n for x in rng
    ) and all(len({R(x, y)[1] for x in rng}) == n for y in rng)
    alpha_id = all(R(x, y)[0] == y for x in rng for y in rng)
    beta_id = all(R(x, y)[1] == x for x in rng for y in rng)
    return involutive, square_free, nondeg, alpha_id or beta_id


class TestMakeSolution:
    @pytest.mark.parametrize("x, y", [(0, 1), (1, 4), (-1, 2), (True, 1), (1, 2.0), ("1", 1)])
    def test_lookup_outside_the_ground_set_raises(self, x, y):
        # (0, 1) and (1, 4) used to read the entries of (3, 1) and (2, 1)
        with pytest.raises(OutOfRange):
            builtin("dihedral", 3)(x, y)

    def test_singleton(self):
        R = make_solution(1, [(1, 1)])
        assert R.size == 1 and R(1, 1) == (1, 1)

    def test_flip_table(self):
        R = make_solution(2, [(1, 1), (2, 1), (1, 2), (2, 2)])
        assert R(1, 2) == (2, 1)

    def test_duplicate_output_reports_both_preimages(self):
        with pytest.raises(NotABijection) as exc:
            make_solution(2, [(1, 1), (1, 1), (2, 1), (2, 2)])
        assert "(1, 1)" in str(exc.value) and "(1, 2)" in str(exc.value)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_solution(2, [(1, 1), (1, 3), (2, 1), (2, 2)])

    def test_wrong_entry_count(self):
        with pytest.raises(InvalidParams):
            make_solution(2, [(1, 1), (1, 2), (2, 1)])

    def test_booleans_are_not_coordinates(self):
        with pytest.raises(OutOfRange, match="non-integer coordinates"):
            make_solution(1, [(True, True)])

    def test_non_iterable_table_or_entry_rejected(self):
        for size, table in ((1, [5]), (2, None), (2, [(1, 1), 3, (2, 1), (2, 2)])):
            with pytest.raises(InvalidParams):
                make_solution(size, table)

    @pytest.mark.parametrize(
        "table, kind", [({(1, 1): 0}, "dict"), ("((1, 1),)", "str"), (b"\x01\x01", "bytes")]
    )
    def test_mapping_or_text_table_rejected(self, table, kind):
        # a dict used to be read by its keys, so this one built a solution
        with pytest.raises(InvalidParams, match=f"^table must be a sequence of pairs, not {kind}$"):
            make_solution(1, table)

    def test_boolean_size_rejected(self):
        with pytest.raises(InvalidParams):
            make_solution(True, [(1, 1)])
        with pytest.raises(InvalidParams):
            builtin("identity", True)

    def test_inverse_round_trip(self, census2):
        for R in census2:
            inv = R.inverse()
            assert all(inv(*R(x, y)) == (x, y) for x in (1, 2) for y in (1, 2))


class TestBuiltins:
    def test_shift_is_solution(self):
        R = builtin("shift", 2)
        assert R(1, 1) == (2, 1)
        assert is_ybe(R)

    def test_permutation_with_commuting_cycle(self):
        cycle = (2, 3, 1)
        R = builtin("permutation", 3, f=cycle, g=cycle)
        assert is_ybe(R)
        assert all(R(x, y) == (cycle[y - 1], cycle[x - 1]) for x in (1, 2, 3) for y in (1, 2, 3))

    def test_permutation_rejects_noncommuting(self):
        with pytest.raises(InvalidParams):
            builtin("permutation", 3, f=(2, 1, 3), g=(1, 3, 2))

    @pytest.mark.parametrize("f", [(True, 2), (1, 2.0), (1, 1), (2,), 5])
    def test_permutation_images_must_be_ints_forming_a_permutation(self, f):
        # (True, 2) used to pass as the identity: bool is a subclass of int
        with pytest.raises(InvalidParams, match="f must be a permutation of 1..2"):
            builtin("permutation", 2, f=f, g=(1, 2))

    def test_dihedral_needs_three(self):
        with pytest.raises(InvalidParams):
            builtin("dihedral", 2)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin("septahedral", 3)


class TestYbe:
    def test_dihedral_holds(self, standard):
        assert is_ybe(standard["dih3"])

    def test_identity_holds(self):
        for n in (1, 2, 3):
            assert is_ybe(builtin("identity", n))

    def test_componentwise_transposition_fails(self):
        # R(x, y) = (f(x), g(y)) forces f = g = id, so a transposition fails
        tau = (2, 1)
        table = [(tau[x - 1], tau[y - 1]) for x in (1, 2) for y in (1, 2)]
        R = make_solution(2, table)
        assert not is_ybe(R)
        witness = ybe_witness(R)
        assert witness is not None
        lhs, rhs = braid_sides(R, *witness)
        assert lhs != rhs


class TestRawBraidCheck:
    """`_braid_failure`, which rejects early on triple (1, 1, 1), against the
    least triple whose `braid_sides` differ."""

    def test_census_solutions_pass(self, census3):
        assert len(census3) == 73
        for R in census3:
            assert least_braid_failure(R) is None
            assert _braid_failure(3, R.table) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seeded_bijections(self, n):
        for R in random_solutions(n, 400, seed=50 + n, require_ybe=False):
            assert _braid_failure(n, R.table) == least_braid_failure(R)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_coordinate_agrees_but_a_later_triple_fails(self, n):
        # the early test passes these tables on, so the full loop must reject them
        rng = random.Random(60 + n)
        seen = 0
        for _ in range(20000):
            R = Solution(n, random_bijection_table(n, rng))
            lhs, rhs = braid_sides(R, 1, 1, 1)
            witness = least_braid_failure(R)
            if lhs[0] != rhs[0] or witness in (None, (1, 1, 1)):
                continue
            seen += 1
            assert _braid_failure(n, R.table) == witness
            if seen == 200:
                break
        assert seen == 200

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_triple_fails_after_its_first_coordinate(self, n):
        # lhs = (c, d, b) and rhs = (e, g, h) at (1, 1, 1) with c == e: the
        # precheck must still reject on d != g or on b != h alone
        rng = random.Random(70 + n)
        seen = {"d != g": 0, "b != h": 0}
        for _ in range(40000):
            R = Solution(n, random_bijection_table(n, rng))
            (c, d, b), (e, g, h) = braid_sides(R, 1, 1, 1)
            if c != e or (d, b) == (g, h):
                continue
            assert ybe_witness(R) == (1, 1, 1)
            assert _braid_failure(n, R.table) == (1, 1, 1)
            for key, differs in (("d != g", d != g), ("b != h", b != h)):
                if differs and seen[key] < 100:
                    seen[key] += 1
            if min(seen.values()) == 100:
                break
        assert seen == {"d != g": 100, "b != h": 100}

    def test_empty_table_holds(self):
        assert _braid_failure(0, ()) is None


class TestProperties:
    def test_flip(self, standard):
        report = properties(standard["flip2"])
        assert report.involutive and report.square_free
        assert report.non_degenerate and report.symmetric and report.derived_type
        assert report.witnesses == {}

    def test_dihedral_against_direct_oracle(self, standard):
        # oracle values: not involutive (R^2(1,2) = (3,1)), square-free,
        # non-degenerate, derived type with passive first coordinate
        R = standard["dih3"]
        assert direct_flags(R) == (False, True, True, True)
        report = properties(R)
        assert (
            report.involutive,
            report.square_free,
            report.non_degenerate,
            report.derived_type,
        ) == (False, True, True, True)
        assert report.symmetric is False

    def test_identity_degenerate(self, standard):
        report = properties(standard["id2"])
        assert not report.non_degenerate
        assert report.witnesses["non_degenerate"][0] == "alpha"

    def test_symmetric_is_conjunction(self, census2, census3):
        for R in census2 + census3[:30]:
            report = properties(R)
            assert report.symmetric == (
                report.involutive and report.non_degenerate and report.is_ybe
            )

    def test_witnesses_replay(self):
        for R in random_solutions(3, 25, seed=11, require_ybe=False):
            report = properties(R)
            if not report.involutive:
                x, y = report.witnesses["involutive"]
                assert R(*R(x, y)) != (x, y)
            if not report.square_free:
                (x,) = report.witnesses["square_free"]
                assert R(x, x) != (x, x)
            if not report.non_degenerate:
                side, idx, a, b = report.witnesses["non_degenerate"]
                if side == "alpha":
                    assert R(idx, a)[0] == R(idx, b)[0]
                else:
                    assert R(a, idx)[1] == R(b, idx)[1]
            if not report.is_ybe:
                lhs, rhs = braid_sides(R, *report.witnesses["is_ybe"])
                assert lhs != rhs


class TestLeastWitnesses:
    """Each witness is the least failing point, found here by brute force."""

    @staticmethod
    def tables():
        pairs = [(x, y) for x in (1, 2) for y in (1, 2)]
        tables = [make_solution(2, order) for order in permutations(pairs)]
        rng = random.Random(19)
        return tables + [make_solution(3, random_bijection_table(3, rng)) for _ in range(200)]

    @staticmethod
    def least_failures(R):
        """Every check's least failing point, straight from the definitions."""
        span = range(1, R.size + 1)
        pairs = list(product(span, repeat=2))
        triples = list(product(span, repeat=3))

        def alpha(x, y):
            return R(x, y)[0]

        def beta(y, x):
            return R(x, y)[1]

        def braid(x, y, z):
            lhs, rhs = braid_sides(R, x, y, z)
            return lhs != rhs

        def hat(s, t):
            t2, s2 = R(s, t)
            return s2, t2

        def triple(s, t, u):
            b, c = hat(t, u)
            a, c = hat(s, c)
            a, b = hat(a, b)
            d, e = hat(s, t)
            d, f = hat(d, u)
            e, f = hat(e, f)
            return (a, b, c) != (d, e, f)

        failures = {
            "involutive": [(x, y) for x, y in pairs if R(*R(x, y)) != (x, y)],
            "square_free": [(x,) for x in span if R(x, x) != (x, x)],
            "is_ybe": [t for t in triples if braid(*t)],
            "alpha_homomorphic": [
                (x, y, z)
                for x, y, z in triples
                if alpha(x, alpha(y, z)) != alpha(R(x, y)[0], alpha(R(x, y)[1], z))
            ],
            "beta_antihomomorphic": [
                (x, y, z)
                for x, y, z in triples
                if beta(y, beta(x, z)) != beta(R(x, y)[1], beta(R(x, y)[0], z))
            ],
            "compatible": [
                (x, y, z)
                for x, y, z in triples
                if beta(alpha(beta(y, x), z), alpha(x, y))
                != alpha(beta(alpha(y, z), x), beta(z, y))
            ],
            "kgraph": [t for t in triples if triple(*t)],
        }
        least = {key: min(points) for key, points in failures.items() if points}
        # a non-injective row's collision (a, b) is the one with the least b
        collisions = [
            (side, x, b, a)
            for side, coordinate in (("alpha", alpha), ("beta", beta))
            for x, a, b in triples
            if a < b and coordinate(x, a) == coordinate(x, b)
        ]
        if collisions:
            side, x, b, a = min(collisions)
            least["non_degenerate"] = (side, x, a, b)
        return least

    def test_witnesses_are_least(self):
        tables = self.tables()
        assert len(tables) == 224
        for R in tables:
            least = self.least_failures(R)
            flags = ("involutive", "square_free", "non_degenerate", "is_ybe")
            assert properties(R).witnesses == {k: least[k] for k in flags if k in least}, R
            equations = ("alpha_homomorphic", "beta_antihomomorphic", "compatible")
            report = check_structure_equations(R)
            assert report.witnesses == {k: least[k] for k in equations if k in least}, R
            assert ybe_witness(R) == least.get("is_ybe"), R
            # a solution is the single-vertex k-graph of its constant family, witness included
            assert least.get("kgraph") == least.get("is_ybe"), R
            verdict = (False, (1, 2, 3, least["kgraph"])) if "kgraph" in least else (True, None)
            assert validate_kgraph(constant_family(R, 3)) == verdict, R
            assert validate_kgraph(constant_family(R, 5)) == verdict, R


class TestAlphaBeta:
    def test_flip_identity_maps(self, standard):
        ab = alpha_beta(standard["flip2"])
        assert all(row == (1, 2) for row in ab.alpha)
        assert all(row == (1, 2) for row in ab.beta)

    def test_dihedral(self, standard):
        ab = alpha_beta(standard["dih3"])
        for x in (1, 2, 3):
            assert ab.alpha[x - 1] == (1, 2, 3)
        for y in (1, 2, 3):
            for x in (1, 2, 3):
                assert ab.beta[y - 1][x - 1] == (2 * y - x - 1) % 3 + 1

    def test_identity_constant_maps(self, standard):
        ab = alpha_beta(standard["id2"])
        assert ab.alpha == ((1, 1), (2, 2))
        assert ab.beta == ((1, 1), (2, 2))

    def test_reassembly(self):
        for R in random_solutions(3, 20, seed=5, require_ybe=False):
            ab = alpha_beta(R)
            for x in (1, 2, 3):
                for y in (1, 2, 3):
                    assert R(x, y) == (ab.alpha[x - 1][y - 1], ab.beta[y - 1][x - 1])


class TestStructureEquations:
    def test_dihedral_all_hold(self, standard):
        assert check_structure_equations(standard["dih3"]).all_hold

    def test_flip_all_hold(self, standard):
        assert check_structure_equations(standard["flip2"]).all_hold

    def test_componentwise_map_fails(self):
        table = [((x % 2) + 1, (y % 2) + 1) for x in (1, 2) for y in (1, 2)]
        R = make_solution(2, table)
        report = check_structure_equations(R)
        assert not report.all_hold
        assert not is_ybe(R)

    def test_conjunction_equals_ybe(self):
        # the three equations together are exactly the braid relation
        for size, seed in ((2, 3), (3, 4)):
            for R in random_solutions(size, 40, seed=seed, require_ybe=False):
                assert check_structure_equations(R).all_hold == is_ybe(R)


class TestApplyLeg:
    def test_flip_first_leg(self, standard):
        assert apply_leg(standard["flip2"], 1, (1, 2, 2)) == (2, 1, 2)

    def test_dihedral_second_leg(self, standard):
        assert apply_leg(standard["dih3"], 2, (1, 1, 2)) == (1, 2, 3)

    def test_pair_equals_solution(self, standard):
        R = standard["dih3"]
        for x in (1, 2, 3):
            for y in (1, 2, 3):
                assert apply_leg(R, 1, (x, y)) == R(x, y)

    def test_position_out_of_range(self, standard):
        with pytest.raises(PositionOutOfRange):
            apply_leg(standard["flip2"], 2, (1, 2))

    @pytest.mark.parametrize("position", [True, 1.5, 1.0, "1"])
    def test_position_must_be_an_int(self, standard, position):
        # True used to act as position 1
        with pytest.raises(InvalidParams, match=f"^leg position must be an integer, got {position!r}$"):
            apply_leg(standard["dih3"], position, (1, 2))

    @pytest.mark.parametrize("values", [(1, 2, 1.5), (1, "a"), (True, 2), (2, 1.0), (1, 2, 3), (0, 1)])
    def test_entries_follow_the_lookup_rule(self, standard, values):
        # (1, 2, 1.5) used to return (2, 1, 1.5) and (1, "a") to escape as TypeError
        with pytest.raises(OutOfRange, match=r"^tuple entry .* outside \[1\.\.2\]$"):
            apply_leg(standard["flip2"], 1, values)

    @pytest.mark.parametrize("values", [5, None])
    def test_values_must_be_iterable(self, standard, values):
        with pytest.raises(InvalidParams, match="values must be an iterable"):
            apply_leg(standard["flip2"], 1, values)


class TestCoordinateMapIdentities:
    def test_involutive_inversion_identities(self, census2, census3):
        for R in census2 + census3:
            report = properties(R)
            if not report.involutive:
                continue
            ab = alpha_beta(R)
            n = R.size
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    u = ab.alpha[x - 1][y - 1]
                    v = ab.beta[y - 1][x - 1]
                    assert ab.alpha[u - 1][v - 1] == x
                    assert ab.beta[v - 1][u - 1] == y

    def test_square_free_iff_diagonal_maps_fix(self):
        for R in random_solutions(3, 30, seed=9, require_ybe=False):
            ab = alpha_beta(R)
            diag = all(
                ab.alpha[x - 1][x - 1] == x and ab.beta[x - 1][x - 1] == x
                for x in range(1, 4)
            )
            assert diag == properties(R).square_free


class TestMirror:
    def test_shift_mirrors_to_right_shift(self, standard):
        mirrored = mirror_derived(standard["shift2"])
        assert mirrored.table == ((1, 2), (2, 2), (1, 1), (2, 1))

    def test_mirror_preserves_ybe_status(self, census3):
        seen = 0
        for R in random_solutions(2, 60, seed=21, require_ybe=False) + random_solutions(
            3, 60, seed=22, require_ybe=False
        ):
            try:
                mirrored = mirror_derived(R)
            except NotDerivedType:
                continue
            seen += 1
            assert is_ybe(R) == is_ybe(mirrored)
        assert seen > 0

    def test_not_derived_type(self, standard):
        with pytest.raises(NotDerivedType):
            mirror_derived(builtin("double_shift", 3))


class TestQybeForm:
    def test_quantum_relation(self, census2, standard):
        def leg(r, pos_pair, values):
            i, j = pos_pair
            out = list(values)
            out[i - 1], out[j - 1] = r(out[i - 1], out[j - 1])
            return tuple(out)

        for R in census2 + [standard["dih3"]]:
            r = qybe_form(R)
            n = R.size
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    for z in range(1, n + 1):
                        t = (x, y, z)
                        lhs = leg(r, (1, 2), leg(r, (1, 3), leg(r, (2, 3), t)))
                        rhs = leg(r, (2, 3), leg(r, (1, 3), leg(r, (1, 2), t)))
                        assert lhs == rhs

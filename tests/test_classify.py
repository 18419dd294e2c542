from itertools import combinations

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
from ybk.errors import InvalidParams, SizeMismatch, SizeTooLarge
from ybk.semigroup import growth
from ybk.solution import builtin, properties


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

    def test_guard(self):
        with pytest.raises(SizeTooLarge):
            enumerate_solutions(4)

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

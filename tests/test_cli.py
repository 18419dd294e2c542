import argparse
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from ybk import cli, errors
from ybk.catalog import catalog_document, catalog_names, catalog_profile, catalog_solution
from ybk.cli import main
from ybk.serialize import canonical_json, parse_solution_document

from oracles import chain_holds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dihedral_path(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "dihedral-3")
    path = tmp_path / "dihedral3.json"
    path.write_text(out)
    return str(path)


class TestVerify:
    def test_solution_passes(self, capsys, dihedral_path):
        code, out, _ = run(capsys, "verify", dihedral_path)
        assert code == 0
        assert "YBE: yes" in out

    def test_non_solution_exits_one(self, capsys, tmp_path):
        doc = {
            "format_version": "1",
            "size": 2,
            "table": [[2, 2], [2, 1], [1, 2], [1, 1]],
        }
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "YBE: no" in out and "witness" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/file.json")
        assert code == 2


class TestCatalogProfiles:
    def test_props_matches_profiles(self, capsys):
        for name in catalog_names():
            profile = catalog_profile(name)
            if "valid_kgraph" in profile:
                code, out, _ = run(capsys, "kgraph", "verify", f"catalog:{name}", "--json")
                assert code == 0
                assert json.loads(out)["valid"] == profile["valid_kgraph"]
            else:
                code, out, _ = run(capsys, "props", f"catalog:{name}", "--json")
                assert code == 0
                report = json.loads(out)
                for key, expected in profile.items():
                    assert report[key] == expected, (name, key)

    def test_catalog_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "dihedral-3" in out and "theta-mixed-3" in out

    def test_unknown_catalog_entry(self, capsys):
        code, _, err = run(capsys, "catalog", "no-such-entry")
        assert code == 2

    @pytest.mark.parametrize("name", ["dihedral-3", "theta-mixed-3"])
    def test_lookups_hand_out_copies(self, name):
        expected = dict(catalog_profile(name))
        assert expected
        catalog_document(name)["metadata"]["profile"]["planted"] = True
        catalog_profile(name)["planted"] = True
        catalog_profile(name).clear()
        assert catalog_document(name)["metadata"]["profile"] == expected
        assert catalog_profile(name) == expected


class TestPeriodic:
    def test_identity_periodic(self, capsys):
        code, out, _ = run(capsys, "periodic", "catalog:identity-2", "--bound", "4")
        assert code == 0
        assert "Periodic(1)" in out

    def test_dihedral_aperiodic(self, capsys, dihedral_path):
        code, out, _ = run(capsys, "periodic", dihedral_path, "--bound", "4")
        assert code == 1
        assert "AperiodicUpTo(4)" in out


class TestDocumentsOut:
    def test_level_emits_parsable_document(self, capsys):
        code, out, _ = run(capsys, "level", "catalog:shift-2", "--n", "3")
        assert code == 0
        doc = parse_solution_document(out)
        assert doc.solution.size == 8

    def test_derive_flip_fixed_point(self, capsys):
        code, out, _ = run(capsys, "derive", "catalog:flip-2")
        assert code == 0
        doc = parse_solution_document(out)
        assert doc.solution.table == ((1, 1), (2, 1), (1, 2), (2, 2))

    def test_union_roundtrip_into_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "union", "catalog:theta-mixed-3")
        assert code == 0
        path = tmp_path / "union.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_extend_glued_two_colours(self, capsys, tmp_path):
        theta = {
            "format_version": "1",
            "k": 2,
            "sizes": [2, 2],
            "maps": {"1,2": [[2, 1], [1, 2], [1, 1], [2, 2]]},
        }
        path = tmp_path / "glue.json"
        path.write_text(canonical_json(theta))
        code, out, _ = run(capsys, "extend-glued", str(path))
        assert code == 0
        assert parse_solution_document(out).solution.size == 4

    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "catalog:flip-2", "catalog:flip-2")
        assert code == 0
        assert parse_solution_document(out).solution.size == 4


class TestKgraph:
    def test_verify_valid(self, capsys):
        code, out, _ = run(capsys, "kgraph", "verify", "catalog:theta-mixed-3")
        assert code == 0
        assert "yes" in out

    def test_normalize(self, capsys):
        code, out, _ = run(
            capsys, "kgraph", "normalize", "catalog:theta-mixed-3", "--word", "3:1,1:2"
        )
        assert code == 0
        assert "normal form:" in out and "degree: (1, 0, 1)" in out

    def test_diamond_property_missing_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            "kgraph",
            "diamond",
            "catalog:theta-mixed-3",
            "--mu",
            "1:1",
            "--nu",
            "2:1",
            "--direction",
            "pullback",
        )
        assert code == 1


# CI's documents: a bijection whose braid relation fails late, the constant
# 3-colour family of it, and a valid family whose colours have sizes 1, 2, 3
LATE_TABLE = '{"format_version":"1","size":2,"table":[[1,1],[2,1],[2,2],[1,2]]}'
LATE_THETA = (
    '{"format_version":"1","k":3,"sizes":[2,2,2],"maps":{"1,2":[[1,1],[2,1],[2,2],[1,2]],'
    '"1,3":[[1,1],[2,1],[2,2],[1,2]],"2,3":[[1,1],[2,1],[2,2],[1,2]]}}'
)
THETA_123 = (
    '{"format_version":"1","k":3,"sizes":[1,2,3],"maps":{"1,2":[[2,1],[1,1]],'
    '"1,3":[[2,1],[3,1],[1,1]],"2,3":[[2,2],[3,2],[1,2],[2,1],[3,1],[1,1]]}}'
)


class TestPinnedOutputs:
    """Each handler branch's stdout, stderr and exit code, byte for byte."""

    @pytest.fixture()
    def docs(self, tmp_path):
        paths = {}
        for name, text in (("late", LATE_TABLE), ("late-theta", LATE_THETA), ("theta-123", THETA_123)):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            paths[name] = str(path)
        return paths

    def test_equations_hold(self, capsys):
        assert run(capsys, "equations", "catalog:dihedral-3") == (
            0,
            "alpha homomorphism equation: holds\n"
            "beta anti-homomorphism equation: holds\n"
            "compatibility equation: holds\n"
            "all hold (equivalent to YBE): yes\n",
            "",
        )
        assert run(capsys, "equations", "catalog:dihedral-3", "--json") == (
            0,
            '{"all_hold":true,"alpha_homomorphic":true,"beta_antihomomorphic":true,'
            '"command":"equations","compatible":true,"witnesses":{}}\n',
            "",
        )

    def test_equations_fail_with_a_witness(self, capsys, docs):
        assert run(capsys, "equations", docs["late"]) == (
            1,
            "alpha homomorphism equation: fails\n"
            "beta anti-homomorphism equation: holds\n"
            "compatibility equation: holds\n"
            "all hold (equivalent to YBE): no\n"
            "witness[alpha_homomorphic]: (2, 1, 1)\n",
            "",
        )
        assert run(capsys, "equations", docs["late"], "--json") == (
            1,
            '{"all_hold":false,"alpha_homomorphic":false,"beta_antihomomorphic":true,'
            '"command":"equations","compatible":true,"witnesses":{"alpha_homomorphic":[2,1,1]}}\n',
            "",
        )

    def test_diamond_text(self, capsys, docs):
        argv = ("kgraph", "diamond", docs["theta-123"], "--mu", "1:1,3:2,3:3", "--nu", "2:2,2:1", "--direction")
        assert run(capsys, *argv, "pullback") == (0, "mu~: e1_1 e3_3 e3_1\nnu~: e2_1 e2_2\n", "")
        assert run(capsys, *argv, "pushout") == (0, "mu~: e1_1 e3_1 e3_2\nnu~: e2_1 e2_2\n", "")

    def test_failing_kgraph_verify_names_its_witness(self, capsys, docs):
        assert run(capsys, "kgraph", "verify", docs["late-theta"]) == (
            1,
            "valid k-graph: no\nfailing triple (1, 2, 3) at point (2, 1, 1)\n",
            "",
        )

    def test_empty_word_is_the_unit(self, capsys, docs):
        assert run(capsys, "kgraph", "normalize", docs["theta-123"], "--word", "") == (
            0,
            "normal form: 1\ndegree: (0, 0, 0)\n",
            "",
        )

    @pytest.mark.parametrize("token", ["3-1", "3:", "a:1"])
    def test_malformed_word_token_exits_two(self, capsys, docs, token):
        assert run(capsys, "kgraph", "normalize", docs["theta-123"], "--word", f"1:1,{token}") == (
            2,
            "",
            f"error: word token {token!r} must look like colour:letter\n",
        )

    def test_extend_glued_needs_two_colours(self, capsys, docs):
        assert run(capsys, "extend-glued", docs["theta-123"]) == (
            2,
            "",
            "error: extend-glued needs a 2-colour theta document\n",
        )

    def test_default_max_len_beyond_three_points(self, capsys):
        assert run(capsys, "semigroup", "catalog:dihedral-4") == (0, "growth: 1 4 8 12 16\n", "")
        assert run(capsys, "semigroup", "catalog:dihedral-5", "--json") == (
            0,
            '{"command":"semigroup","growth":[1,5,9,10,10],"max_len":4}\n',
            "",
        )


class TestSemigroup:
    def test_growth_and_presentation(self, capsys, dihedral_path):
        code, out, _ = run(
            capsys, "semigroup", dihedral_path, "--max-len", "4", "--presentation"
        )
        assert code == 0
        assert "growth: 1 3 5 6 6" in out
        assert "e1 e2 = e2 e3 = e3 e1" in out

    def test_cancel_witness_exits_one(self, capsys, dihedral_path):
        code, out, _ = run(capsys, "semigroup", dihedral_path, "--max-len", "3", "--cancel")
        assert code == 1
        assert "cancellative up to 3: no" in out

    def test_extension_check(self, capsys):
        code, out, _ = run(
            capsys, "semigroup", "catalog:flip-2", "--max-len", "4", "--extension-check"
        )
        assert code == 0
        assert "braided extension up to 4: yes" in out


class TestEnumerate:
    def test_census_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--size", "2", "--relation", "yb-iso")
        assert code == 0
        assert "solutions: 5" in out
        assert "5 classes under yb-iso" in out

    def test_classify_alias_conjugacy(self, capsys):
        code, out, _ = run(capsys, "classify", "--size", "2", "--relation", "conjugacy")
        assert code == 0
        assert "3 classes under conjugacy" in out

    def test_size_guard_exits_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "--size", "5")
        assert code == 2

    def test_sample_mode_seeded(self, capsys):
        code, first, _ = run(
            capsys, "enumerate", "--size", "4", "--sample", "50", "--seed", "9", "--json"
        )
        assert code == 0
        code, second, _ = run(
            capsys, "enumerate", "--size", "4", "--sample", "50", "--seed", "9", "--json"
        )
        assert first == second
        assert json.loads(first)["exhaustive"] is False

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the README example; no draw of 500 at N = 4 is a solution
            (
                ("enumerate", "--size", "4", "--sample", "500", "--seed", "7"),
                '{"class_sizes":[],"classes":0,"command":"enumerate","exhaustive":false,'
                '"relation":"yb-iso","representatives":[],"size":4,"solutions":0,'
                '"total_bijections":null}\n',
            ),
            (
                ("classify", "--size", "3", "--relation", "conjugacy", "--sample", "20000", "--seed", "7"),
                '{"class_sizes":[2,1,1,1,1],"classes":5,"command":"enumerate","exhaustive":false,'
                '"relation":"conjugacy","representatives":['
                "[[1,1],[1,2],[3,2],[2,1],[2,2],[3,1],[2,3],[1,3],[3,3]],"
                "[[1,2],[2,2],[3,1],[1,1],[2,1],[3,2],[2,3],[1,3],[3,3]],"
                "[[1,3],[2,3],[3,3],[3,2],[2,2],[1,2],[1,1],[2,1],[3,1]],"
                "[[3,1],[2,1],[1,1],[3,2],[2,2],[1,2],[3,3],[2,3],[1,3]],"
                "[[3,3],[2,3],[1,3],[1,2],[2,2],[3,2],[3,1],[2,1],[1,1]]"
                '],"size":3,"solutions":6,"total_bijections":null}\n',
            ),
        ],
        ids=["readme-size-4", "size-3-conjugacy"],
    )
    def test_sample_output_is_pinned(self, capsys, argv, expected):
        # captured from earlier versions: the sampled list is a fixed
        # function of size, attempts and seed
        assert run(capsys, *argv, "--json") == (0, expected, "")


class TestHomology:
    def test_report(self, capsys, dihedral_path):
        code, out, _ = run(
            capsys,
            "homology",
            dihedral_path,
            "--degree",
            "1",
            "--coeff",
            "z/2",
            "--verify-complex",
        )
        assert code == 0
        assert "H_1 = Z" in out
        assert "H^1(Z/2) = Z/2" in out
        assert "chain condition" in out

    # shift-3 is read from the full complex, dihedral-3 from the normalized one
    @pytest.mark.parametrize("extra", [(), ("--coeff", "z/3"), ("--verify-complex",)])
    def test_one_factorization_per_call(self, capsys, monkeypatch, extra):
        calls = []
        homology_module = importlib.import_module("ybk.homology")
        free_and_torsion = homology_module._free_and_torsion

        def counting(R, n):
            calls.append(n)
            return free_and_torsion(R, n)

        monkeypatch.setattr(homology_module, "_free_and_torsion", counting)
        code, out, _ = run(capsys, "homology", "catalog:shift-3", "--degree", "2", *extra)
        assert code == 0 and out.startswith(("H_2 = ", "chain condition"))
        assert calls == [2]

    @pytest.mark.parametrize(
        "extra, built",
        [
            ((), {("tables", 3): 1, 2: 1, 3: 1}),
            (("--verify-complex",), {("tables", 3): 1, 2: 1, 3: 1}),
        ],
    )
    def test_each_boundary_built_once(self, capsys, monkeypatch, extra, built):
        # the full complex builds d_2 and d_3 from one set of face tables
        calls = []
        homology_module = importlib.import_module("ybk.homology")
        columns = homology_module._columns
        face_tables = homology_module._face_tables

        def counting(tables, n):
            calls.append(n)
            return columns(tables, n)

        def counting_tables(R, top):
            calls.append(("tables", top))
            return face_tables(R, top)

        monkeypatch.setattr(homology_module, "_columns", counting)
        monkeypatch.setattr(homology_module, "_face_tables", counting_tables)
        code, out, _ = run(capsys, "homology", "catalog:shift-3", "--degree", "2", *extra)
        assert code == 0
        assert Counter(calls) == built

    @pytest.mark.parametrize("extra", [(), ("--coeff", "z/3"), ("--verify-complex",)])
    def test_one_normalized_computation_per_call(self, capsys, monkeypatch, extra):
        calls = []
        homology_module = importlib.import_module("ybk.homology")
        normalized = homology_module._normalized_free_and_torsion

        def counting(R, n):
            calls.append(n)
            return normalized(R, n)

        monkeypatch.setattr(homology_module, "_normalized_free_and_torsion", counting)
        monkeypatch.setattr(homology_module, "_free_and_torsion", None)
        code, out, _ = run(capsys, "homology", "catalog:dihedral-3", "--degree", "2", *extra)
        assert code == 0 and out.startswith(("H_2 = ", "chain condition"))
        assert calls == [2]

    @pytest.mark.parametrize("extra", [(), ("--verify-complex",)])
    def test_each_normalized_boundary_built_once(self, capsys, monkeypatch, extra):
        # the normalized path walks one generator through d_1 .. d_(n+1), d_1 being
        # zero, and reads neither the face tables nor the full complex's builder
        degrees = []
        homology_module = importlib.import_module("ybk.homology")
        boundaries = homology_module._normalized_boundaries

        def counting(R):
            degrees.append([])
            for p, built in enumerate(boundaries(R), start=1):
                degrees[-1].append(p)
                yield built

        def full_complex(*args):
            raise AssertionError("the normalized path read the full complex's builder")

        monkeypatch.setattr(homology_module, "_normalized_boundaries", counting)
        monkeypatch.setattr(homology_module, "_columns", full_complex)
        monkeypatch.setattr(homology_module, "_face_tables", full_complex)
        code, out, _ = run(capsys, "homology", "catalog:dihedral-3", "--degree", "2", *extra)
        assert code == 0
        assert degrees == [[1, 2, 3]]

    @staticmethod
    def _break_boundary(monkeypatch, degree, row):
        # adds 1 at (row, 0) of the degree-`degree` boundary; on dihedral-3
        # the rows used below make it compose to nonzero with the one above
        oracles = importlib.import_module("oracles")
        boundary_columns = oracles.boundary_columns

        def changed(R, n):
            columns = boundary_columns(R, n)
            if n == degree:
                columns[0] = {**columns[0], row: columns[0].get(row, 0) + 1}
            return columns

        monkeypatch.setattr(oracles, "boundary_columns", changed)

    def test_violated_lower_pair_still_reports_the_groups(self, capsys, monkeypatch):
        # the chain condition is answered from the braid relation, so only the
        # oracle sees the planted fault; the groups of degree 2 never read it
        _, plain, _ = run(capsys, "homology", "catalog:dihedral-3", "--degree", "2")
        self._break_boundary(monkeypatch, 1, 0)
        assert chain_holds(catalog_solution("dihedral-3"), 3) is False
        code, out, err = run(capsys, "homology", "catalog:dihedral-3", "--degree", "2", "--verify-complex")
        assert (code, err) == (0, "")
        assert out == "chain condition through degree 3: ok\n" + plain

    def test_violated_top_pair_raises_the_precondition(self, monkeypatch):
        # the oracle, which composes the boundaries, is what finds a broken top pair
        R = catalog_solution("dihedral-3")
        assert chain_holds(R, 3)
        self._break_boundary(monkeypatch, 3, 1)
        assert chain_holds(R, 3) is False
        assert chain_holds(R, 2)

    def test_negative_degree_names_the_degree_given(self, capsys):
        # --verify-complex checks the complex through degree + 1, which must
        # not be the degree that the error reports
        for extra in ((), ("--verify-complex",)):
            code, out, err = run(capsys, "homology", "catalog:dihedral-3", "--degree", "-5", *extra)
            assert (code, out, err) == (2, "", "error: degree must be at least 0, got -5\n")

    @pytest.mark.parametrize(
        "extra", [("--degree", "-1"), ("--degree", "1", "--coeff", "z/abc")]
    )
    def test_bad_degree_or_coefficients_exit_two(self, capsys, dihedral_path, extra):
        assert_usage_error(*run(capsys, "homology", dihedral_path, *extra))

    @pytest.mark.parametrize("coeff", ["q", "z/1"])
    @pytest.mark.parametrize("extra", [(), ("--verify-complex",)])
    def test_bad_coefficients_build_no_boundary(self, capsys, monkeypatch, coeff, extra):
        # the degree is deep enough that building its boundaries takes minutes;
        # dihedral-3 takes the normalized path, shift-3 the full complex
        def no_boundaries(*args):
            raise AssertionError("a boundary was built before --coeff was read")

        homology_module = importlib.import_module("ybk.homology")
        monkeypatch.setattr(homology_module, "_face_tables", no_boundaries)
        monkeypatch.setattr(homology_module, "_normalized_boundaries", no_boundaries)
        for name in ("catalog:dihedral-3", "catalog:shift-3"):
            result = run(capsys, "homology", name, "--degree", "9", "--coeff", coeff, *extra)
            assert_usage_error(*result)

    def test_bad_coefficients_are_reported_before_a_bad_degree(self, capsys):
        for extra in ((), ("--verify-complex",)):
            code, out, err = run(capsys, "homology", "catalog:dihedral-3", "--degree", "-1", "--coeff", "q", *extra)
            assert (code, out, err) == (2, "", "error: --coeff must be z or z/M, got 'q'\n")

    @pytest.mark.parametrize("modulus", ["10000000000000061", "1000000000000000003"])
    def test_large_prime_coefficients_at_once(self, capsys, modulus):
        # the orders used to be factored by trial division, O(sqrt(m))
        start = time.perf_counter()
        result = run(capsys, "homology", "catalog:dihedral-3", "--degree", "1", "--coeff", f"z/{modulus}")
        assert time.perf_counter() - start < 1
        assert result == (0, f"H_1 = Z\nH^1(Z/{modulus}) = Z/{modulus}\n", "")


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


SOLUTION_1 = {"format_version": "1", "size": 1, "table": [[1, 1]]}
THETA_1_1 = {"format_version": "1", "k": 2, "sizes": [1, 1], "maps": {"1,2": [[1, 1]]}}


class TestBadInputsExitTwo:
    def test_directory_path_exits_two(self, capsys, tmp_path):
        assert_usage_error(*run(capsys, "verify", str(tmp_path), "--json"))

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "not-utf8.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert_usage_error(*run(capsys, "verify", str(path), "--json"))

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("verify", dict(SOLUTION_1, size=True)),
            ("verify", dict(SOLUTION_1, table=[[True, 1]])),
            ("kgraph verify", dict(THETA_1_1, k=True)),
            ("kgraph verify", dict(THETA_1_1, sizes=[True, 1])),
            ("kgraph verify", dict(THETA_1_1, maps={"1,2": [[1, True]]})),
        ],
    )
    def test_booleans_are_not_integers(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(doc))
        assert_usage_error(*run(capsys, *command.split(), str(path), "--json"))

    @pytest.mark.parametrize("command", ["enumerate", "classify"])
    def test_negative_sample_exits_two(self, capsys, command):
        assert_usage_error(*run(capsys, command, "--size", "2", "--sample", "-3", "--json"))

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_non_positive_sample_size_exits_two(self, capsys, size):
        assert_usage_error(*run(capsys, "enumerate", "--size", size, "--sample", "3", "--json"))

    @pytest.mark.parametrize("flags", [("--cancel",), ("--extension-check",), ()])
    def test_negative_max_length_exits_two(self, capsys, flags):
        assert_usage_error(
            *run(capsys, "semigroup", "catalog:dihedral-3", "--max-len", "-1", *flags, "--json")
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("homology", "catalog:dihedral-3", "--degree", "10000"),
            ("level", "catalog:dihedral-3", "--n", "10000"),
            ("homology", "catalog:dihedral-3", "--degree", "99999999999999999999"),
            ("level", "catalog:dihedral-3", "--n", "99999999999999999999"),
            ("homology", "catalog:dihedral-3", "--degree", "9000", "--verify-complex"),
        ],
        ids=["degree-10000", "level-10000", "degree-20-digits", "level-20-digits", "verify-complex-9000"],
    )
    def test_huge_sizes_exit_two_at_once(self, capsys, argv):
        # 3**10001 has more digits than an int may print, 3**(10**20) would
        # never be computed, and --verify-complex used to build degrees 1..12
        # before degree 13 failed: the guards reject by exponent first
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert_usage_error(code, out, err)
        assert "^" in err


VERIFY_YES = canonical_json({"command": "verify", "witness": None, "ybe": True})

# id: (source, exit code, stderr), read in a directory holding doc.json
# (dihedral-3), folder/, binary.json, dangling -> missing.json and loop -> loop;
# exit 0 prints the verify report.  A file the process may not open is left
# out: run as root, the tests would open it anyway.
DOCUMENT_SOURCES = {
    "missing-file": ("missing.json", 2, "error: no such file: missing.json\n"),
    "directory": ("folder", 2, "error: folder is a directory, not a document\n"),
    "empty-name": ("", 2, "error:  is a directory, not a document\n"),
    "trailing-slash": ("doc.json/", 0, ""),
    "name-under-a-file": ("doc.json/x", 2, "error: no such file: doc.json/x\n"),
    "dangling-symlink": ("dangling", 2, "error: no such file: dangling\n"),
    "symlink-loop": ("loop", 2, "error: no such file: loop\n"),
    "non-utf8": ("binary.json", 2, "error: binary.json is not UTF-8 text (byte 0)\n"),
    "nul-in-name": ("a\x00b", 2, "error: no such file: a\x00b\n"),
    "stdin": ("-", 0, ""),
}


class TestDocumentSources:
    @pytest.mark.parametrize("case", sorted(DOCUMENT_SOURCES))
    def test_verify_reports_the_source(self, capsys, monkeypatch, tmp_path, case):
        source, code, err = DOCUMENT_SOURCES[case]
        document = canonical_json(catalog_document("dihedral-3"))
        (tmp_path / "doc.json").write_text(document)
        (tmp_path / "folder").mkdir()
        (tmp_path / "binary.json").write_bytes(b"\xff{")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing.json")
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(document))
        out = VERIFY_YES if code == 0 else ""
        assert run(capsys, "verify", source, "--json") == (code, out, err)


SOLUTION_NAMES = [name for name in catalog_names() if "table" in catalog_document(name)]
THETA_NAMES = [name for name in catalog_names() if "maps" in catalog_document(name)]


class TestCatalogSolutions:
    """`catalog:` solutions come from the catalog itself, not from its document."""

    def test_every_entry_is_one_kind(self):
        assert sorted(SOLUTION_NAMES + THETA_NAMES) == catalog_names()

    @pytest.mark.parametrize("name", SOLUTION_NAMES)
    def test_equals_the_document_round_trip(self, name):
        parsed = parse_solution_document(canonical_json(catalog_document(name))).solution
        assert cli._load_solution(f"catalog:{name}") == parsed

    @pytest.mark.parametrize(
        "source, err",
        [(f"catalog:{name}", "error: unknown keys: ['k', 'maps', 'sizes']\n") for name in THETA_NAMES]
        + [
            ("catalog:", "error: no catalog entry named ''; see `ybk catalog`\n"),
            (
                "catalog:no-such-entry",
                "error: no catalog entry named 'no-such-entry'; see `ybk catalog`\n",
            ),
        ],
    )
    def test_other_names_keep_the_document_errors(self, capsys, source, err):
        assert run(capsys, "verify", source, "--json") == (2, "", err)


PROPERTY_ERRORS = {
    "NotAYbeSolution",
    "Degenerate",
    "PropertyMissing",
    "DegreesOverlap",
    "NotDerivedType",
    "PreconditionFailed",
}
ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.YbkError)
]


class TestExitCodes:
    def test_property_errors_exist(self):
        assert PROPERTY_ERRORS <= {cls.__name__ for cls in ERROR_CLASSES}

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_main_exits_with_the_class_code(self, capsys, monkeypatch, cls):
        assert cls.exit_code == (1 if cls.__name__ in PROPERTY_ERRORS else 2)

        def planted(_):
            raise cls("planted")

        monkeypatch.setattr(cli, "ybe_witness", planted)
        assert run(capsys, "verify", "catalog:flip-2") == (cls.exit_code, "", "error: planted\n")

    def test_memory_error_exits_2_with_one_line(self, capsys, monkeypatch):
        # a resource failure must not read as "property fails" (exit 1)
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_groups", exhausted)
        code, out, err = run(capsys, "homology", "catalog:dihedral-3", "--degree", "9")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_other_exceptions_are_not_caught(self, capsys, monkeypatch):
        # a bug keeps its traceback, so the fuzz tests' exit-code checks still see it
        def broken(*args):
            raise ValueError("planted bug")

        monkeypatch.setattr(cli, "ybe_witness", broken)
        with pytest.raises(ValueError, match="planted bug"):
            main(["verify", "catalog:flip-2"])


class TestDeterminism:
    def test_json_reports_byte_identical(self, capsys, dihedral_path):
        commands = [
            ("props", dihedral_path, "--json"),
            ("semigroup", dihedral_path, "--max-len", "4", "--presentation", "--json"),
            ("homology", dihedral_path, "--degree", "2", "--json"),
            ("enumerate", "--size", "2", "--json"),
        ]
        for argv in commands:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second
            json.loads(first)


def run_exiting(capsys, *argv):
    """`run`, with an argparse exit (usage error or --help) read as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(capsys, *argv):
    """`run_exiting` on a parser and a grammar built for this call alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        patch.setattr(cli, "_grammar", cli._grammar.__wrapped__)
        return run_exiting(capsys, *argv)


NOT_A_SOLUTION = {"format_version": "1", "size": 2, "table": [[2, 2], [2, 1], [1, 2], [1, 1]]}

# pairs of commands that share one cached parser; each runs in both orders
STATELESS_PAIRS = {
    "verify-props": (("verify", "catalog:dihedral-3", "--json"), ("props", "catalog:flip-2")),
    # `_cmd_semigroup` writes the default into args.max_len: 6, then 5
    "semigroup-defaults": (
        ("semigroup", "catalog:flip-2", "--json"),
        ("semigroup", "catalog:dihedral-3", "--json"),
    ),
    "usage-error": (("level", "catalog:flip-2"), ("level", "catalog:flip-2", "--n", "2")),
    "help": (("--help",), ("verify", "catalog:flip-2")),
    "subcommand-help": (("semigroup", "--help"), ("semigroup", "catalog:flip-2", "--cancel")),
    "shared-handler": (
        ("enumerate", "--size", "2", "--json"),
        ("classify", "--size", "2", "--relation", "conjugacy", "--sample", "4", "--json"),
    ),
    # argparse parses the abbreviation, the declared actions match the other; each
    # handler writes max_len into its own namespace: 3, then 5
    "argparse-and-matched": (
        ("semigroup", "catalog:flip-2", "--max", "3"),
        ("semigroup", "catalog:dihedral-3", "--json"),
    ),
}


class TestParserIsStateless:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("pair", sorted(STATELESS_PAIRS))
    def test_back_to_back_matches_fresh_parser(self, capsys, pair, reverse):
        commands = STATELESS_PAIRS[pair][::-1] if reverse else STATELESS_PAIRS[pair]
        expected = [run_fresh(capsys, *argv) for argv in commands]
        # from here on both commands run on the one cached parser
        assert [run_exiting(capsys, *argv) for argv in commands] == expected

    def test_expected_outcomes(self, capsys):
        # the pairs above cover what they claim to
        assert run_exiting(capsys, "level", "catalog:flip-2")[0] == 2
        assert run_exiting(capsys, "--help")[0] == 0
        for name, max_len in (("flip-2", 6), ("dihedral-3", 5)):
            code, out, _ = run(capsys, "semigroup", f"catalog:{name}", "--json")
            assert code == 0 and json.loads(out)["max_len"] == max_len
        code, out, _ = run(capsys, "enumerate", "--size", "2", "--json")
        assert json.loads(out)["relation"] == "yb-iso"
        declined, matched = STATELESS_PAIRS["argparse-and-matched"]
        assert cli._match(list(declined)) is None
        assert cli._match(list(matched)) is not None


X = "catalog:dihedral-3"
T = "catalog:theta-mixed-3"
COMMANDS = (
    "verify props equations level derive product extend-trivial extend-glued union "
    "kgraph periodic semigroup enumerate classify homology catalog"
).split()
KGRAPH_COMMANDS = ("verify", "normalize", "diamond")

PARSE_CORPUS = [
    # every command with valid arguments
    ("verify", X),
    ("props", X, "--json"),
    ("equations", X),
    ("level", X, "--n", "2"),
    ("derive", X, "--left"),
    ("product", X, X),
    ("extend-trivial", X, X, "--json"),
    ("extend-glued", T),
    ("union", T),
    ("kgraph", "verify", T),
    ("kgraph", "normalize", T, "--word", "1:1,2:1", "--json"),
    ("kgraph", "diamond", T, "--mu", "1:1", "--nu", "2:1", "--direction", "pushout"),
    ("periodic", X, "--bound", "3"),
    ("semigroup", X, "--max-len", "3", "--cancel", "--presentation", "--extension-check"),
    ("enumerate", "--size", "2"),
    ("classify", "--size", "2", "--relation", "conjugacy", "--sample", "3", "--seed", "1"),
    ("homology", X, "--degree", "1", "--coeff", "z/2", "--verify-complex"),
    ("catalog",),
    ("catalog", "flip-2", "--json"),
    # help
    *[(name, "-h") for name in COMMANDS],
    *[("kgraph", name, "-h") for name in KGRAPH_COMMANDS],
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    # names and options the top-level parser alone reads
    ("verif", X),
    ("no-such-command",),
    ("--json", "verify", X),
    ("--", "verify", X),
    # leftovers
    ("verify", X, "extra"),
    ("verify", X, "--nope"),
    ("verify", "--", X),
    ("verify", X, "--"),
    ("kgraph", "verify", T, "extra"),
    ("kgraph",),
    ("kgraph", "nope"),
    ("catalog", "flip-2", "dihedral-3"),
    # option spellings
    ("level", X, "--n=2"),
    ("verify", X, "--js"),
    ("level", X, "--n", "2", "--n", "3"),
    ("verify", X, "--json", "--json"),
    # bad values
    ("level", X),
    ("level", X, "--n", "two"),
    ("kgraph", "diamond", T, "--mu", "1:1", "--nu", "2:1", "--direction", "sideways"),
    # the matcher's edges, taken directly
    ("verify", "-"),
    ("verify", ""),
    ("level", X, "--n", " 2"),
    ("level", X, "--n", "1_0"),
    ("kgraph", "normalize", T, "--word", "1:1", "--word", "2:1"),
    # the matcher's edges, left to argparse
    ("homology", X, "--degree", "-1"),
    ("classify", "--size", "2", "--sample", "-3"),
    ("catalog", "--json", "flip-2"),
    ("kgraph", "normalize", T, "--word=1:1"),
    ("homology", X, "--deg", "1"),
]

# valid argv that the matcher leaves to argparse: an optional positional's token
# after an option, a value starting with "-", an abbreviation, an "=" spelling or "--"
ARGPARSE_ONLY = {
    ("catalog", "--json", "flip-2"),
    ("homology", X, "--degree", "-1"),
    ("classify", "--size", "2", "--sample", "-3"),
    ("kgraph", "normalize", T, "--word=1:1"),
    ("homology", X, "--deg", "1"),
    ("level", X, "--n=2"),
    ("verify", X, "--js"),
    ("verify", "--", X),
    ("verify", X, "--"),
}
# tokens a mutation may insert beside the corpus's own
EDGE_TOKENS = ("-", "--", "-1", "", " 2", "1_0", "--n=2", "--deg", "--max", "x", "-h")


def parse_outcome(capsys, parse, argv):
    """The namespace's vars, or the SystemExit code, with what was printed."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def mutations(seed, count):
    """`count` corpus argv, each with one token inserted, dropped or replaced."""
    rng = random.Random(seed)
    pool = sorted({token for argv in PARSE_CORPUS for token in argv}.union(EDGE_TOKENS))
    # help texts cost the most to print, and the corpus checks each one; "-h" is
    # still in the pool
    bases = [argv for argv in PARSE_CORPUS if not {"-h", "--help", "--he"} & set(argv)]
    for _ in range(count):
        argv = list(rng.choice(bases))
        # most new tokens come from the same argv, so that many mutants stay well-formed
        token = rng.choice(argv if argv and rng.random() < 0.8 else pool)
        edit = rng.choice(("insert", "drop", "replace", "replace")) if argv else "insert"
        if edit == "insert":
            argv.insert(rng.randint(0, len(argv)), token)
        elif edit == "drop":
            del argv[rng.randrange(len(argv))]
        else:
            argv[rng.randrange(len(argv))] = token
        yield argv


class TestDirectParse:
    """`_parse` matches a well-formed argv itself; the top-level parser is its oracle."""

    def test_corpus_names_every_command(self, capsys):
        _, usage, _ = parse_outcome(capsys, cli._parse, ["-h"])
        listed = usage.split("{", 1)[1].split("}", 1)[0].split(",")
        assert sorted(listed) == sorted(COMMANDS)
        assert {argv[0] for argv in PARSE_CORPUS if argv} >= set(COMMANDS)

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_matches_the_top_level_parser(self, capsys, argv):
        expected = parse_outcome(capsys, cli._build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli._parse, argv) == expected

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_argparse_parses_only_what_the_matcher_declines(self, capsys, monkeypatch, argv):
        # a count, not a timing: a matcher that always fell back would fail here
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        result, _, _ = parse_outcome(capsys, cli._parse, argv)
        if isinstance(result, dict) and argv not in ARGPARSE_ONLY:
            assert calls == []
        else:
            assert calls

    def test_table_declares_only_what_the_matcher_reads(self):
        # each argument is a store, a store_true or a trailing optional positional
        # without choices; a type is int, whose failures `_match` catches, and never
        # comes with a string default, which argparse would convert
        tables = [cli._COMMANDS]
        for table in tables:
            for handler, _, arguments in table.values():
                if type(handler) is dict:
                    tables.append(handler)
                    continue
                for flag, keywords in (cli._JSON, *arguments):
                    assert set(keywords) <= {"action", "type", "choices", "default", "required", "help", "nargs"}
                    assert keywords.get("action", "store") in ("store", "store_true")
                    assert keywords.get("type", int) is int
                    assert not (isinstance(keywords.get("default"), str) and "type" in keywords)
                    if "nargs" in keywords:
                        assert keywords["nargs"] == "?" and "choices" not in keywords
                        assert flag[0] != "-" and (flag, keywords) == arguments[-1]
        assert len(tables) == 2

    def test_argparse_only_entries_are_in_the_corpus(self):
        assert ARGPARSE_ONLY <= set(PARSE_CORPUS)

    def test_seeded_mutations_match_the_top_level_parser(self, capsys):
        matched = 0
        for argv in mutations(48, 5000):
            expected = parse_outcome(capsys, cli._build_parser().parse_args, argv)
            assert parse_outcome(capsys, cli._parse, argv) == expected, argv
            matched += cli._match(list(argv)) is not None
        # both paths are exercised
        assert 250 < matched < 4750


SRC = Path(cli.__file__).resolve().parents[1]


def run_python(*args):
    """A fresh interpreter with this checkout's `src` on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestFreshProcess:
    """The real entry point, `python -m ybk.cli`, which in-process tests never run."""

    def test_verify_matches_in_process(self, capsys):
        done = run_python("-m", "ybk.cli", "verify", "catalog:dihedral-3", "--json")
        assert (done.returncode, done.stdout, done.stderr) == run(
            capsys, "verify", "catalog:dihedral-3", "--json"
        )
        assert done.returncode == 0

    def test_extra_argument_from_sys_argv(self):
        # argv comes from sys.argv; the leftover is the top-level parser's error
        done = run_python("-m", "ybk.cli", "verify", "catalog:dihedral-3", "extra")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: ybk [-h]")
        assert done.stderr.endswith("\nybk: error: unrecognized arguments: extra\n")

    def test_non_solution_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(NOT_A_SOLUTION))
        done = run_python("-m", "ybk.cli", "verify", str(path))
        assert done.returncode == 1
        assert "YBE: no" in done.stdout

    def test_bad_degree_exits_two(self):
        done = run_python("-m", "ybk.cli", "homology", "catalog:flip-2", "--degree", "-1")
        assert_usage_error(done.returncode, done.stdout, done.stderr)

    def test_import_builds_no_parser(self):
        # a matched argv runs without argparse; the first declined one imports it and
        # builds the parser, once
        done = run_python(
            "-c",
            "import sys, ybk.cli as cli\n"
            "state = lambda: ('argparse' in sys.modules, cli._build_parser.cache_info().misses)\n"
            "cli._parse(['verify', 'catalog:flip-2'])\n"
            "print(*state())\n"
            "cli._parse(['verify', 'catalog:flip-2', '--js'])\n"
            "cli._parse(['verify', 'catalog:flip-2', '--js'])\n"
            "print(*state())",
        )
        assert (done.stdout, done.stderr) == ("False 0\nTrue 1\n", "")

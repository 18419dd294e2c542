import json
import re

import pytest

from ybk.catalog import catalog_document, catalog_names
from ybk.errors import InvalidParams, NotABijection, OutOfRange, ParseError, SchemaError, YbkError
from ybk.kgraph import constant_family, make_theta_family
from ybk.solution import make_solution
from ybk.serialize import (
    SolutionDocument,
    canonical_json,
    emit_solution_document,
    emit_theta_document,
    parse_solution_document,
    parse_theta_document,
    sniff_kind,
    solution_document_dict,
    theta_document_dict,
)


class TestSolutionDocuments:
    def test_round_trip_law(self):
        doc = {
            "format_version": "1",
            "size": 2,
            "table": [[1, 1], [2, 1], [1, 2], [2, 2]],
            "labels": ["a", "b"],
            "name": "flip",
            "metadata": {"note": "two-point flip"},
        }
        text = canonical_json(doc)
        assert emit_solution_document(parse_solution_document(text)) == text

    def test_solution_round_trip(self, standard):
        for key in ("flip2", "dih3", "shift2"):
            R = standard[key]
            parsed = parse_solution_document(emit_solution_document(R))
            assert parsed.solution == R

    def test_catalog_documents_round_trip(self):
        for name in catalog_names():
            text = canonical_json(catalog_document(name))
            kind = sniff_kind(text)
            if kind == "solution":
                assert emit_solution_document(parse_solution_document(text)) == text
            else:
                assert emit_theta_document(parse_theta_document(text)) == text

    def test_wrong_entry_count(self):
        doc = {"format_version": "1", "size": 2, "table": [[1, 1], [2, 1], [1, 2]]}
        with pytest.raises(InvalidParams) as caught:
            parse_solution_document(canonical_json(doc))
        assert str(caught.value) == "table must have 4 entries for size 2, got 3"

    @pytest.mark.parametrize("table", [{"a": 1}, "ab"])
    def test_table_that_is_an_object_or_string_is_named(self, table):
        # these used to be read by keys or characters: "must have 4 entries ..., got 1"
        solution_doc = {"format_version": "1", "size": 2, "table": table}
        theta_doc = {"format_version": "1", "k": 2, "sizes": [2, 2], "maps": {"1,2": table}}
        kind = type(table).__name__
        with pytest.raises(InvalidParams, match=f"^table must be a sequence of pairs, not {kind}$"):
            parse_solution_document(canonical_json(solution_doc))
        with pytest.raises(InvalidParams, match=f"^theta_12 table must be a sequence of pairs, not {kind}$"):
            parse_theta_document(canonical_json(theta_doc))

    def test_duplicate_pair_propagates(self):
        doc = {
            "format_version": "1",
            "size": 2,
            "table": [[1, 1], [1, 1], [2, 1], [2, 2]],
        }
        with pytest.raises(NotABijection):
            parse_solution_document(canonical_json(doc))

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_solution_document("{not json")
        assert "line 1" in str(exc.value)

    def test_unknown_keys_rejected(self):
        doc = {
            "format_version": "1",
            "size": 1,
            "table": [[1, 1]],
            "colour": "green",
        }
        with pytest.raises(SchemaError):
            parse_solution_document(canonical_json(doc))

    def test_version_required(self):
        doc = {"format_version": "2", "size": 1, "table": [[1, 1]]}
        with pytest.raises(SchemaError):
            parse_solution_document(canonical_json(doc))


class TestThetaDocuments:
    def test_round_trip(self, standard):
        fam = constant_family(standard["dih3"], 3)
        text = emit_theta_document(fam)
        assert parse_theta_document(text).family == fam
        assert emit_theta_document(parse_theta_document(text)) == text

    def test_missing_pair(self):
        doc = {
            "format_version": "1",
            "k": 3,
            "sizes": [1, 1, 1],
            "maps": {"1,2": [[1, 1]], "1,3": [[1, 1]]},
        }
        with pytest.raises(SchemaError):
            parse_theta_document(canonical_json(doc))

    def test_many_colours_with_no_maps_fail_fast_and_briefly(self):
        # the key set used to be built and listed in full: quadratic in k
        doc = {"format_version": "1", "k": 3000, "sizes": [1] * 3000, "maps": {}}
        with pytest.raises(SchemaError) as exc:
            parse_theta_document(canonical_json(doc))
        assert len(str(exc.value)) < 300 and "'1,2' missing" in str(exc.value)

    @pytest.mark.parametrize("key", ["2,1", "1,1", "01,2", "1, 2", "x"])
    def test_unexpected_key_is_named(self, key):
        doc = {"format_version": "1", "k": 2, "sizes": [1, 1], "maps": {key: [[1, 1]]}}
        with pytest.raises(SchemaError, match=re.escape(repr(key))):
            parse_theta_document(canonical_json(doc))

    def test_sniff(self):
        sol = canonical_json(
            {"format_version": "1", "size": 1, "table": [[1, 1]]}
        )
        theta = canonical_json(
            {"format_version": "1", "k": 2, "sizes": [1, 1], "maps": {"1,2": [[1, 1]]}}
        )
        assert sniff_kind(sol) == "solution"
        assert sniff_kind(theta) == "theta"


MALFORMED_TABLES = {
    "non-pair": [[1, 1], [1, 2, 1], [2, 1], [2, 2]],
    "float": [[1, 1], [1.5, 2], [2, 1], [2, 2]],
    "bool": [[1, 1], [1, 2], [True, 1], [2, 2]],
    "out-of-range": [[1, 1], [1, 3], [2, 1], [2, 2]],
    "repeated": [[1, 1], [1, 2], [1, 1], [2, 2]],
    "wrong count": [[1, 1], [1, 2], [2, 1]],
}


class TestOnePairRule:
    """A solution table and a theta_ij are checked by one rule: the same
    class and words from both constructors and both document parsers."""

    def _caught(self, call) -> tuple[type, str]:
        with pytest.raises(YbkError) as caught:
            call()
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("table", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES.keys())
    def test_solutions_and_theta_maps_fail_alike(self, table):
        solution_doc = canonical_json({"format_version": "1", "size": 2, "table": table})
        theta_doc = canonical_json({"format_version": "1", "k": 2, "sizes": [2, 2], "maps": {"1,2": table}})
        caught = [
            self._caught(lambda: make_solution(2, table)),
            self._caught(lambda: parse_solution_document(solution_doc)),
            self._caught(lambda: make_theta_family(2, (2, 2), {(1, 2): table})),
            self._caught(lambda: parse_theta_document(theta_doc)),
        ]
        for cls, message in caught[2:]:
            assert message.startswith("theta_12 ")
        # for equal colour sizes the range span reads as the solution's
        assert {(cls, message.removeprefix("theta_12 ")) for cls, message in caught} == {caught[0]}
        assert caught[0][0] is not SchemaError

    def test_unequal_colour_sizes_name_both_ranges(self):
        with pytest.raises(OutOfRange, match=re.escape("theta_12 entry for (1,2) is (3, 1), outside [1..2] x [1..3]")):
            make_theta_family(2, (3, 2), {(1, 2): [(1, 1), (3, 1), (1, 2), (2, 1), (1, 3), (2, 3)]})
        with pytest.raises(InvalidParams, match=re.escape("theta_12 table must have 6 entries for size 3 x 2, got 1")):
            make_theta_family(2, (3, 2), {(1, 2): [(1, 1)]})


class TestCanonicalForm:
    def test_sorted_compact(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}\n'

    def test_document_dict_is_json_safe(self, standard):
        payload = solution_document_dict(SolutionDocument(standard["flip2"], name="x"))
        json.dumps(payload)
        payload = theta_document_dict(constant_family(standard["flip2"], 2))
        json.dumps(payload)

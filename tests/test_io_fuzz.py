"""Fuzzing the document and catalog layers' error contract.

Whatever text, object or name they get, the public functions of
`ybk.serialize` and `ybk.catalog` return or raise a `YbkError`: a malformed
document, a wrong key set, a bad entry or an unknown name must not escape as
a `TypeError`, a `KeyError` or any other built-in exception.  The texts are
drawn near valid documents (one key dropped or replaced, one colour-pair key
added or removed) as well as at random; writer arguments are drawn of the
right type only, as the README leaves their types unchecked.
"""

import json
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybk.catalog import catalog_document, catalog_names, catalog_profile, catalog_solution
from ybk.errors import YbkError
from ybk.kgraph import make_theta_family
from ybk.serialize import (
    SolutionDocument,
    ThetaDocument,
    canonical_json,
    emit_solution_document,
    emit_theta_document,
    parse_solution_document,
    parse_theta_document,
    sniff_kind,
    solution_document_dict,
    theta_document_dict,
)
from ybk.solution import make_solution

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# JSON values around the valid ones: small ints, bools, a float, short strings
SCALAR = st.none() | st.booleans() | st.integers(-1, 4) | st.just(2.0) | st.text(max_size=3)
VALUE = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
NAMES = st.none() | st.text(max_size=4)
METADATA = st.none() | st.dictionaries(st.text(max_size=3), VALUE, max_size=2)
# colour-pair keys, well formed or not
PAIR_KEYS = st.sampled_from(["1,2", "1,3", "2,3", "2,1", "1,1", "01,2", "1, 2", "3,4", "x", ""])


@st.composite
def solution_objects(draw):
    """A valid solution document object on N <= 3."""
    n = draw(st.integers(1, 3))
    pairs = [[x, y] for x in range(1, n + 1) for y in range(1, n + 1)]
    return {"format_version": "1", "size": n, "table": draw(st.permutations(pairs))}


@st.composite
def theta_objects(draw):
    """A valid theta document object with k in {2, 3} on sizes 1-2."""
    k = draw(st.integers(2, 3))
    sizes = [draw(st.integers(1, 2)) for _ in range(k)]
    maps = {}
    for i, j in combinations(range(1, k + 1), 2):
        outs = [[t, s] for t in range(1, sizes[j - 1] + 1) for s in range(1, sizes[i - 1] + 1)]
        maps[f"{i},{j}"] = draw(st.permutations(outs))
    return {"format_version": "1", "k": k, "sizes": sizes, "maps": maps}


@st.composite
def mutated(draw, objects, keys):
    """An object from `objects` with at most one of `keys` dropped or replaced."""
    obj = draw(objects)
    key = draw(st.sampled_from(sorted(keys) + ["extra"]))
    action = draw(st.sampled_from(["keep", "drop", "replace"]))
    if action == "drop":
        obj.pop(key, None)
    elif action == "replace":
        obj[key] = draw(VALUE)
    return obj


def texts(objects):
    """The canonical text of a drawn object, cut short now and then, or any text."""
    return (
        objects.map(canonical_json)
        | st.tuples(objects.map(canonical_json), st.integers(0, 40)).map(lambda pair: pair[0][: pair[1]])
        | st.text(max_size=20)
    )


def _contract(function, *args):
    try:
        return function(*args)
    except YbkError:
        return None


SOLUTION_KEYS = {"format_version", "size", "table", "labels", "name", "metadata"}
THETA_KEYS = {"format_version", "k", "sizes", "maps", "name", "metadata"}


@FUZZ
@given(text=texts(mutated(solution_objects(), SOLUTION_KEYS)))
def test_solution_documents_raise_only_library_errors(text):
    _contract(sniff_kind, text)
    _contract(parse_theta_document, text)
    doc = _contract(parse_solution_document, text)
    if doc is not None:
        # a parsed document re-serializes to a text that parses to it again
        assert parse_solution_document(emit_solution_document(doc)) == doc
        assert sniff_kind(text) == "solution"


@FUZZ
@given(data=st.data())
def test_theta_documents_raise_only_library_errors(data):
    obj = data.draw(mutated(theta_objects(), THETA_KEYS))
    maps = obj.get("maps")
    if isinstance(maps, dict):
        # one colour-pair key dropped or added, well formed or not
        key = data.draw(PAIR_KEYS)
        if key in maps and data.draw(st.booleans()):
            del maps[key]
        else:
            maps[key] = data.draw(VALUE)
    text = data.draw(st.just(canonical_json(obj)) | texts(theta_objects()))
    _contract(sniff_kind, text)
    _contract(parse_solution_document, text)
    doc = _contract(parse_theta_document, text)
    if doc is not None:
        assert parse_theta_document(emit_theta_document(doc)) == doc
        assert sniff_kind(text) == "theta"


@FUZZ
@given(
    solution=solution_objects(),
    theta=theta_objects(),
    name=NAMES,
    labels=st.none() | st.lists(st.text(max_size=2), max_size=4).map(tuple),
    metadata=METADATA,
)
def test_written_documents_parse_back(solution, theta, name, labels, metadata):
    R = make_solution(solution["size"], solution["table"])
    doc = SolutionDocument(R, name=name, labels=labels, metadata=metadata)
    assert json.loads(canonical_json(solution_document_dict(doc))) == solution_document_dict(doc)
    # labels of the wrong count are written as given and rejected on reading
    assert _contract(parse_solution_document, emit_solution_document(doc)) in (None, doc)
    assert parse_solution_document(emit_solution_document(R)).solution == R
    maps = {tuple(map(int, key.split(","))): table for key, table in theta["maps"].items()}
    family = make_theta_family(theta["k"], theta["sizes"], maps)
    tdoc = ThetaDocument(family, name=name, metadata=metadata)
    assert parse_theta_document(emit_theta_document(tdoc)) == tdoc
    assert theta_document_dict(family)["maps"] == theta["maps"]


@FUZZ
@given(value=VALUE)
def test_canonical_json_round_trips(value):
    text = canonical_json(value)
    assert text.endswith("\n") and json.loads(text) == value
    assert canonical_json(json.loads(text)) == text


@FUZZ
@given(
    name=st.sampled_from(catalog_names()) | st.text(max_size=8) | st.none() | st.integers(-1, 3)
    | st.lists(st.integers(), max_size=2)
)
def test_catalog_lookups_raise_only_library_errors(name):
    document = _contract(catalog_document, name)
    profile = _contract(catalog_profile, name)
    solution = _contract(catalog_solution, name)
    assert (document is None) == (profile is None) == (name not in catalog_names())
    if document is not None:
        text = canonical_json(document)
        kind = sniff_kind(text)
        parsed = parse_solution_document(text) if kind == "solution" else parse_theta_document(text)
        assert solution == (parsed.solution if kind == "solution" else None)
        assert parsed.metadata == {"profile": profile}
        # the profile is a copy: changing it changes no later lookup
        profile["edited"] = True
        assert "edited" not in catalog_profile(name)

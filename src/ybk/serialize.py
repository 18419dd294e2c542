"""Bit-exact JSON documents for solutions and commutation families.

Documents are strict: unknown keys are rejected, so a parsed document
re-serializes to exactly the canonical form of its source.  Canonical form is
sorted keys, compact separators, one trailing newline.
"""

from __future__ import annotations

import json
from itertools import combinations

from ._record import record
from .errors import ParseError, SchemaError, check_int
from .kgraph import ThetaFamily, _pair_key_mismatch, make_theta_family
from .solution import Solution, make_solution

FORMAT_VERSION = "1"
_SOLUTION_KEYS = {"format_version", "size", "table", "labels", "name", "metadata"}
_THETA_KEYS = {"format_version", "k", "sizes", "maps", "name", "metadata"}


@record
class SolutionDocument:
    """A solution as a document holds it: with an optional name, a label per point and metadata."""

    solution: Solution
    name: str | None = None
    labels: tuple[str, ...] | None = None
    metadata: dict | None = None


@record
class ThetaDocument:
    """A commutation family as a document holds it: with an optional name and metadata."""

    family: ThetaFamily
    name: str | None = None
    metadata: dict | None = None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"document must be a JSON object, got {type(obj).__name__}")
    return obj


def _envelope(text: str, keys: set) -> tuple[dict, str | None, dict | None]:
    """The object of a document of either kind, with its `name` and `metadata`;
    checks the format version, the key set and the two optional fields."""
    obj = _load_object(text)
    if obj.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"format_version must be {FORMAT_VERSION!r}, got {obj.get('format_version')!r}"
        )
    unknown = set(obj) - keys
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name must be a string")
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    return obj, name, metadata


def _with_envelope(doc, body: dict) -> dict:
    out = {"format_version": FORMAT_VERSION, **body}
    if doc.name is not None:
        out["name"] = doc.name
    if doc.metadata is not None:
        out["metadata"] = doc.metadata
    return out


def parse_solution_document(text: str) -> SolutionDocument:
    obj, name, metadata = _envelope(text, _SOLUTION_KEYS)
    if "size" not in obj or "table" not in obj:
        raise SchemaError("solution document needs 'size' and 'table'")
    solution = make_solution(obj["size"], obj["table"])
    labels = obj.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == solution.size and all(isinstance(s, str) for s in labels)):
            raise SchemaError(f"labels must be {solution.size} strings")
        labels = tuple(labels)
    return SolutionDocument(solution, name=name, labels=labels, metadata=metadata)


def solution_document_dict(doc) -> dict:
    if isinstance(doc, Solution):
        doc = SolutionDocument(doc)
    body = {"size": doc.solution.size, "table": [list(pair) for pair in doc.solution.table]}
    if doc.labels is not None:
        body["labels"] = list(doc.labels)
    return _with_envelope(doc, body)


def emit_solution_document(doc) -> str:
    return canonical_json(solution_document_dict(doc))


def parse_theta_document(text: str) -> ThetaDocument:
    obj, name, metadata = _envelope(text, _THETA_KEYS)
    for key in ("k", "sizes", "maps"):
        if key not in obj:
            raise SchemaError(f"theta document needs {key!r}")
    k = obj["k"]
    maps_obj = obj["maps"]
    # the key check counts the colour pairs of k colours
    check_int(k, "k", 2)
    if not isinstance(maps_obj, dict):
        raise SchemaError("maps must be an object keyed 'i,j'")
    mismatch = _pair_key_mismatch(maps_obj, k, "{},{}".format)
    if mismatch:
        raise SchemaError(f"maps must be keyed 'i,j' by the colour pairs i < j of {k} colours: {mismatch}")
    maps = {tuple(int(part) for part in key.split(",")): entries for key, entries in maps_obj.items()}
    family = make_theta_family(k, obj["sizes"], maps)
    return ThetaDocument(family, name=name, metadata=metadata)


def theta_document_dict(doc) -> dict:
    if isinstance(doc, ThetaFamily):
        doc = ThetaDocument(doc)
    family = doc.family
    pairs = combinations(range(1, family.k + 1), 2)
    maps = {f"{i},{j}": [list(pair) for pair in table] for (i, j), table in zip(pairs, family.maps)}
    return _with_envelope(doc, {"k": family.k, "sizes": list(family.sizes), "maps": maps})


def emit_theta_document(doc) -> str:
    return canonical_json(theta_document_dict(doc))


def sniff_kind(text: str) -> str:
    """'solution' or 'theta', judged by the discriminating keys."""
    obj = _load_object(text)
    if "table" in obj:
        return "solution"
    if "maps" in obj:
        return "theta"
    raise SchemaError("document has neither 'table' nor 'maps'")

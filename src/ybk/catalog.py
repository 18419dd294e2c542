"""Bundled named inputs: the standard families, the worked commutation
families on three colours, and the degenerate three-point extension.

Every entry carries its expected property profile in metadata so the profile
can be replayed against `ybk props` / `ybk kgraph verify`.
"""

from __future__ import annotations

from functools import cache

from .constructions import trivial_extension
from .errors import UnknownName
from .kgraph import ThetaFamily, make_theta_family
from .serialize import (
    SolutionDocument,
    ThetaDocument,
    solution_document_dict,
    theta_document_dict,
)
from .solution import Solution, _mod1, builtin


def _glue_add() -> list[tuple[int, int]]:
    # (s, t) -> ((s + t) mod 2, t) on [2] x [2]
    return [(_mod1(s + t, 2), t) for s in (1, 2) for t in (1, 2)]


def _glue_id() -> list[tuple[int, int]]:
    return [(s, t) for s in (1, 2) for t in (1, 2)]


@cache
def _entries() -> dict[str, tuple[Solution | ThetaFamily, dict]]:
    """Every entry and its profile by name, built on the first lookup."""
    entries: dict[str, tuple[Solution | ThetaFamily, dict]] = {}
    for n in range(2, 7):
        entries[f"identity-{n}"] = (
            builtin("identity", n),
            {"is_ybe": True, "involutive": True, "square_free": True, "non_degenerate": False},
        )
        entries[f"flip-{n}"] = (
            builtin("flip", n),
            {"is_ybe": True, "involutive": True, "square_free": True, "non_degenerate": True},
        )
        entries[f"double-shift-{n}"] = (
            builtin("double_shift", n),
            {"is_ybe": True, "involutive": n == 2, "square_free": False, "non_degenerate": True},
        )
        entries[f"shift-{n}"] = (
            builtin("shift", n),
            {"is_ybe": True, "involutive": False, "square_free": False, "non_degenerate": True},
        )
    for n in range(3, 7):
        entries[f"dihedral-{n}"] = (
            builtin("dihedral", n),
            {
                "is_ybe": True,
                "involutive": False,
                "square_free": True,
                "non_degenerate": True,
                "derived_type": True,
            },
        )
    entries["extension-degenerate-3"] = (
        trivial_extension(builtin("identity", 2), builtin("identity", 1)),
        {"is_ybe": True, "involutive": True, "square_free": True, "non_degenerate": False},
    )
    for name, glue in (("theta-identity-3", _glue_id), ("theta-mixed-3", _glue_add)):
        maps = {(1, 2): _glue_id(), (1, 3): glue(), (2, 3): glue()}
        entries[name] = (make_theta_family(3, (2, 2, 2), maps), {"valid_kgraph": True})
    return entries


def catalog_names() -> list[str]:
    return sorted(_entries())


def catalog_document(name: str) -> dict:
    """The canonical document dict of a catalog entry."""
    if not isinstance(name, str) or name not in _entries():
        raise UnknownName(f"no catalog entry named {name!r}; see `ybk catalog`")
    obj, profile = _entries()[name]
    metadata = {"profile": dict(profile)}
    if isinstance(obj, Solution):
        return solution_document_dict(SolutionDocument(obj, name=name, metadata=metadata))
    return theta_document_dict(ThetaDocument(obj, name=name, metadata=metadata))


def catalog_solution(name: str) -> Solution:
    obj = _entries().get(name, (None,))[0] if isinstance(name, str) else None
    if not isinstance(obj, Solution):
        raise UnknownName(f"no solution catalog entry named {name!r}")
    return obj


def catalog_profile(name: str) -> dict:
    """A copy of the entry's expected property profile."""
    if not isinstance(name, str) or name not in _entries():
        raise UnknownName(f"no catalog entry named {name!r}")
    return dict(_entries()[name][1])

"""Every public callable is driven by some contract test.

The contract tests are the `tests/test_*_fuzz.py` files: each calls the
public functions of one layer on drawn arguments and allows only `YbkError`s.
A public callable counts as covered when some fuzz file names it in its code
(an import, a call or an attribute), not in a docstring or a comment.  A new
public name therefore fails here until a contract test drives it.
"""

import ast
from pathlib import Path

import ybk
import ybk.catalog
import ybk.serialize

# result types: the library builds them and returns them from functions that
# the fuzz files drive, and their fields and methods are read there
RESULT_TYPES = {
    "AlphaBeta": "returned by alpha_beta",
    "GradedClassSet": "returned by graded_elements, whose index_of the word fuzz calls",
    "LevelMap": "returned by level_map, whose apply the word fuzz calls",
    "OrbitPartition": "returned by beta_orbits",
    "Periodicity": "returned by periodicity",
    "Presentation": "returned by presentations",
    "PropertyReport": "returned by properties",
    "SolutionCensus": "returned by census",
    "StructureReport": "returned by check_structure_equations",
}


def _named_in_fuzz_files() -> set[str]:
    names = set()
    for path in Path(__file__).parent.glob("test_*_fuzz.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _public_callables() -> set[str]:
    found = {name for name in ybk.__all__ if callable(getattr(ybk, name))}
    for module in (ybk.serialize, ybk.catalog):
        for name, value in vars(module).items():
            # names the module defines, not the ones it imports
            if not name.startswith("_") and callable(value) and getattr(value, "__module__", None) == module.__name__:
                found.add(name)
    return found


def test_every_public_callable_has_a_contract_test():
    uncovered = sorted(_public_callables() - _named_in_fuzz_files() - set(RESULT_TYPES))
    assert not uncovered, f"no tests/test_*_fuzz.py drives {uncovered}"


def test_exemptions_are_public_and_not_fuzzed():
    # an exemption that names nothing public, or a fuzzed name, is stale
    assert set(RESULT_TYPES) <= _public_callables()
    assert not set(RESULT_TYPES) & _named_in_fuzz_files()

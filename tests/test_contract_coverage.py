"""Every public callable is driven by some contract test.

The contract tests are the `tests/test_*_fuzz.py` files: each calls the
public functions of one layer on drawn arguments and allows only `YbkError`s.
A public callable counts as covered when some fuzz file names it in its code
(an import, a call or an attribute), not in a docstring or a comment.  A new
public name therefore fails here until a contract test drives it.

Every integer argument that a public function checks follows one rule,
`errors.check_int`: a non-int or a bool, and a value below the least one
allowed, each raise InvalidParams with one wording.  The table below lists
every such argument, and a public function that calls `check_int` fails
here until it has a row.
"""

import ast
from pathlib import Path

import pytest

import ybk
import ybk.catalog
import ybk.serialize
from ybk import (
    AbelianGroup,
    action_formula_check,
    apply_leg,
    builtin,
    census,
    check_cancellative,
    classify,
    cohomology,
    constant_family,
    enumerate_solutions,
    factorize,
    graded_elements,
    growth,
    homology,
    level_map,
    level_solution,
    make_solution,
    make_theta_family,
    normalize,
    periodicity,
    restrict,
    sample_ybe_solutions,
    semigroup_extension_check,
    verify_complex,
)
from ybk.constructions import decode_word, encode_word, level_codes, level_is_identity
from ybk.errors import InvalidParams
from ybk.serialize import canonical_json, parse_theta_document

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


DIH3 = builtin("dihedral", 3)
FAMILY = constant_family(DIH3, 3)
WORD = normalize(FAMILY, [(1, 1)])
ONE_PAIR = {(1, 2): [(1, 1)]}


def _theta_document(k) -> str:
    return canonical_json({"format_version": "1", "k": k, "sizes": [1, 1], "maps": {"1,2": [[1, 1]]}})


# each call puts the argument under test in one place: (call, its name in
# the message, the least value allowed or None where a range error has its
# own class)
INTEGER_ARGUMENTS = {
    "enumerate_solutions-n": (lambda v: enumerate_solutions(v), "size", None),
    "census-n": (lambda v: census(v, "yb_iso"), "size", None),
    "classify-total_bijections": (lambda v: classify([], "yb_iso", v), "the number of bijections", 0),
    "sample_ybe_solutions-n": (lambda v: sample_ybe_solutions(v, 3, 0), "size", None),
    "sample_ybe_solutions-attempts": (lambda v: sample_ybe_solutions(3, v, 0), "the number of sampled bijections", 0),
    "encode_word-n": (lambda v: encode_word((1,), v), "alphabet size", 1),
    "decode_word-n": (lambda v: decode_word(1, v, 1), "alphabet size", 1),
    "decode_word-length": (lambda v: decode_word(1, 3, v), "word length", 0),
    "level_codes-l": (lambda v: level_codes(DIH3, v, 1), "block length", 1),
    "level_codes-m": (lambda v: level_codes(DIH3, 1, v), "block length", 1),
    "level_map-l": (lambda v: level_map(DIH3, v, 1), "block length", 1),
    "level_map-m": (lambda v: level_map(DIH3, 1, v), "block length", 1),
    "level_is_identity-n": (lambda v: level_is_identity(DIH3, v), "block length", 1),
    "level_solution-n": (lambda v: level_solution(DIH3, v), "block length", 1),
    "action_formula_check-n": (lambda v: action_formula_check(DIH3, v), "block length", 1),
    "AbelianGroup-free_rank": (lambda v: AbelianGroup(v, ()), "free rank", 0),
    "AbelianGroup-torsion": (lambda v: AbelianGroup(0, (v,)), "invariant factor", 2),
    "from_cyclic_orders-orders": (lambda v: AbelianGroup.from_cyclic_orders([v, 0]), "cyclic order", None),
    "verify_complex-nmax": (lambda v: verify_complex(DIH3, v), "degree", 0),
    "homology-n": (lambda v: homology(DIH3, v), "degree", 0),
    "cohomology-n": (lambda v: cohomology(DIH3, v, 2), "degree", 0),
    "graded_elements-n": (lambda v: graded_elements(DIH3, v), "word length", 0),
    "growth-maxlen": (lambda v: growth(DIH3, v), "maximum length", 0),
    "check_cancellative-maxlen": (lambda v: check_cancellative(DIH3, v), "maximum length", 0),
    "semigroup_extension_check-maxlen": (lambda v: semigroup_extension_check(DIH3, v), "maximum length", 0),
    "make_solution-size": (lambda v: make_solution(v, []), "size", 1),
    "builtin-size": (lambda v: builtin("identity", v), "size", 1),
    "make_theta_family-k": (lambda v: make_theta_family(v, (1, 1), ONE_PAIR), "k", 2),
    "make_theta_family-sizes": (lambda v: make_theta_family(2, (1, v), ONE_PAIR), "colour size", 1),
    "parse_theta_document-k": (lambda v: parse_theta_document(_theta_document(v)), "k", 2),
    "constant_family-k": (lambda v: constant_family(DIH3, v), "k", 2),
    "periodicity-bound": (lambda v: periodicity(DIH3, v), "bound", 1),
    "restrict-l": (lambda v: restrict(FAMILY, v, 1, 1), "level exponent", 1),
    "restrict-m": (lambda v: restrict(FAMILY, 1, v, 1), "level exponent", 1),
    "restrict-n": (lambda v: restrict(FAMILY, 1, 1, v), "level exponent", 1),
    "factorize-m": (lambda v: factorize(WORD, (v, 0, 0)), "degree vector part", None),
    "apply_leg-i": (lambda v: apply_leg(DIH3, v, (1, 2)), "leg position", None),
}


@pytest.mark.parametrize("call, what, least", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_follow_one_rule(call, what, least):
    cases = [(True, "an integer, got True"), (2.0, "an integer, got 2.0")]
    if least is not None:
        cases.append((least - 1, f"at least {least}, got {least - 1}"))
    for value, rule in cases:
        with pytest.raises(InvalidParams) as caught:
            call(value)
        assert str(caught.value) == f"{what} must be {rule}"


def test_every_public_check_int_caller_is_in_the_table():
    # private callers (`_check_complex`, `AbelianGroup.__post_init__`, the
    # CLI's handlers) are reached through the public rows above
    called = set()
    for call, _, _ in INTEGER_ARGUMENTS.values():
        called.update(call.__code__.co_names)
    callers = set()
    for path in Path(ybk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
                if any(getattr(n.func, "id", None) == "check_int" for n in calls):
                    callers.add(node.name)
    assert callers, "no caller of check_int found"
    assert not callers - called, f"no row of INTEGER_ARGUMENTS calls {sorted(callers - called)}"

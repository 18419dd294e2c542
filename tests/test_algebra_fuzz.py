"""Fuzzing the table and homology layers' error contract.

Whatever small arguments they get, the public functions of `ybk.solution`
and `ybk.homology` return or raise a `YbkError`: a bad size, table,
permutation, leg, degree, modulus, group or cyclic order must not escape as
a `TypeError`, an `IndexError` or any other built-in exception.  Arguments of
a kind the README leaves unchecked (a leg position or tuple entry) are drawn
of the right type only, and so is the container of cyclic orders, whose
wrong types `tests/test_homology.py` checks.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybk.errors import YbkError
from ybk.homology import (
    AbelianGroup,
    beta_orbits,
    cohomology,
    h1_orbit_check,
    homology,
    verify_complex,
)
from ybk.solution import (
    BUILTIN_NAMES,
    Solution,
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

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# sizes, degrees and moduli around the valid ranges, bools, a float and None
NUMBER = st.integers(-2, 3) | st.booleans() | st.just(2.0) | st.none()
# letters in range for N <= 3, out of range, bools and a float
LETTER = st.integers(-1, 4) | st.booleans() | st.just(1.0)
# a claimed permutation: a sequence, or something that is not iterable
PERMUTATION = st.permutations([1, 2, 3]) | st.lists(LETTER, max_size=4) | LETTER | st.none()
# braid-relation solutions, so that the homology runs past its first check
SOLUTIONS = st.sampled_from(
    [builtin("identity", 1), builtin("flip", 2), builtin("shift", 2), builtin("dihedral", 3)]
)


@st.composite
def bijections(draw, sizes=st.integers(1, 3)):
    """A `Solution` from `make_solution`: a drawn bijection of [N]^2, not
    necessarily a braid-relation solution."""
    n = draw(sizes)
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return make_solution(n, draw(st.permutations(pairs)))


def _contract(function, *args):
    try:
        return function(*args)
    except YbkError:
        return None


@FUZZ
@given(
    size=NUMBER,
    table=st.lists(st.tuples(LETTER, LETTER) | st.tuples(LETTER) | LETTER, max_size=9) | LETTER,
    name=st.sampled_from(BUILTIN_NAMES + ("septahedral",)),
    n=st.integers(1, 3),
    f=PERMUTATION,
    g=PERMUTATION,
)
def test_tables_and_builtins_raise_only_library_errors(size, table, name, n, f, g):
    made = _contract(make_solution, size, table)
    if made is not None:
        assert made.table == tuple(tuple(pair) for pair in table)
    _contract(builtin, name, size, f, g)
    # a valid size, so that f and g are read
    _contract(builtin, "permutation", n, f, g)


@FUZZ
@given(
    R=bijections(),
    i=st.integers(-1, 4),
    values=st.lists(st.integers(-1, 4), max_size=4),
)
def test_table_checks_raise_only_library_errors(R, i, values):
    flags = properties(R)
    flags.as_dict()
    assert flags.is_ybe == is_ybe(R) == (ybe_witness(R) is None)
    assert check_structure_equations(R).as_dict()["all_hold"] == flags.is_ybe
    alpha_beta(R)
    assert qybe_form(qybe_form(R)) == R == R.inverse().inverse()
    mirrored = _contract(mirror_derived, R)
    if mirrored is not None:
        assert flags.derived_type and is_ybe(mirrored) == flags.is_ybe
    _contract(apply_leg, R, i, values)


@FUZZ
@given(R=bijections(), x=LETTER, y=LETTER)
def test_lookups_raise_only_library_errors(R, x, y):
    for lookup in (R, R.inverse()):
        found = _contract(Solution.__call__, lookup, x, y)
        if found is not None:
            assert type(x) is int and type(y) is int
            assert found == lookup.table[(x - 1) * R.size + (y - 1)]
            assert _contract(lookup, 0, y) is _contract(lookup, x, R.size + 1) is None


@FUZZ
@given(R=SOLUTIONS | bijections(st.integers(1, 2)), n=NUMBER, modulus=NUMBER)
def test_homology_raises_only_library_errors(R, n, modulus):
    verified = _contract(verify_complex, R, n)
    group = _contract(homology, R, n)
    # both check the degree and the braid relation, so they accept the same inputs
    assert (verified is None) == (group is None)
    if verified is not None:
        assert verified is True
    _contract(cohomology, R, n, modulus)
    _contract(h1_orbit_check, R)
    beta_orbits(R)


@FUZZ
@given(
    free=NUMBER,
    torsion=st.lists(st.integers(-1, 12) | st.booleans(), max_size=3).map(tuple)
    | st.lists(st.integers(0, 3), max_size=2)
    | LETTER,
    orders=st.lists(st.integers(-12, 12) | st.booleans() | st.just(2.0), max_size=4),
)
def test_groups_raise_only_library_errors(free, torsion, orders):
    _contract(AbelianGroup, free, torsion)
    _contract(AbelianGroup.from_cyclic_orders, orders)

"""Fuzzing the search layer's error contract.

Whatever small arguments they get, the census, sampling, classification and
witness functions return or raise a `YbkError`: a bad size, count, relation
or witness must not escape as an `IndexError`, a `RecursionError` or any
other built-in exception.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

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
from ybk.errors import YbkError
from ybk.solution import make_solution

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# sizes and counts around the valid ranges, bools and a float
COUNT = st.integers(-2, 5) | st.booleans() | st.just(2.0)
RELATION = st.sampled_from(["yb_iso", "conjugacy", "yb-iso", "", "YB_ISO"])
# entries of a claimed witness: in range for N <= 3, out of range, bools
ENTRY = st.integers(-1, 4) | st.booleans()


@st.composite
def bijections(draw, sizes=st.integers(1, 3)):
    """A `Solution` from `make_solution`: a drawn bijection of [N]^2, not
    necessarily a braid-relation solution."""
    n = draw(sizes)
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return make_solution(n, draw(st.permutations(pairs)))


def _contract(function, *args):
    try:
        function(*args)
    except YbkError:
        pass


@FUZZ
@given(n=COUNT, attempts=COUNT, seed=st.integers(-3, 3), relation=RELATION)
def test_census_and_sampling_raise_only_library_errors(n, attempts, seed, relation):
    _contract(enumerate_solutions, n)
    _contract(census, n, relation)
    _contract(sample_ybe_solutions, n, attempts, seed)


# what is not a Solution: a bare table, a number, a string, None
NOT_A_SOLUTION = st.sampled_from([((1, 1),), 3, "x", None])


@FUZZ
@given(
    solutions=st.lists(bijections() | NOT_A_SOLUTION, max_size=4) | st.sampled_from([None, 5, 2.0]),
    relation=RELATION,
    total=st.none() | st.integers(-1, 10) | st.sampled_from(["x", True, 2.0]),
)
def test_classify_raises_only_library_errors(solutions, relation, total):
    _contract(classify, solutions, relation, total)


@FUZZ
@given(data=st.data())
def test_witness_searches_and_replays_raise_only_library_errors(data):
    a = data.draw(bijections() | NOT_A_SOLUTION)
    size = a.size if hasattr(a, "size") else 2
    # mostly one size, so the searches run; now and then two, or no solution
    b = data.draw(bijections(st.just(size)) | bijections() | NOT_A_SOLUTION)
    witness = st.lists(ENTRY, max_size=4) | st.permutations(range(1, size + 1))
    _contract(yb_isomorphic, a, b)
    _contract(product_conjugate, a, b)
    _contract(is_yb_iso_witness, a, b, data.draw(witness))
    _contract(is_conjugacy_witness, a, b, data.draw(witness), data.draw(witness))

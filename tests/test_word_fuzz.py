"""Fuzzing the word layer's error contract.

Whatever small arguments they get, the constructions and the semigroup
functions return or raise a `YbkError`: a bad letter, code, length or table
must not escape as an `IndexError`, a `ZeroDivisionError` or any other
built-in exception.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybk.constructions import (
    cartesian_product,
    decode_word,
    derived_solution,
    disjoint_union_solution,
    encode_word,
    glued_identity_extension,
    left_derived_solution,
    level_codes,
    level_is_identity,
    level_map,
    level_solution,
    trivial_extension,
)
from ybk.errors import YbkError
from ybk.kgraph import make_theta_family
from ybk.semigroup import (
    action_formula_check,
    check_cancellative,
    graded_elements,
    growth,
    presentations,
    semigroup_extension_check,
)
from ybk.solution import make_solution

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# lengths and sizes around the valid ranges, bools, a float and None
LENGTH = st.integers(-1, 3) | st.booleans() | st.just(2.0) | st.none()
# letters in range for N <= 3, out of range, bools and a float
LETTER = st.integers(-1, 4) | st.booleans() | st.just(1.0)


@st.composite
def bijections(draw, sizes=st.integers(1, 3)):
    """A `Solution` from `make_solution`: a drawn bijection of [N]^2, not
    necessarily a braid-relation solution."""
    n = draw(sizes)
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return make_solution(n, draw(st.permutations(pairs)))


@st.composite
def glues(draw):
    """Sizes and a theta table for a two-block glue; now and then a bad one."""
    sx, sy = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    outs = [(t, s) for t in range(1, sy + 1) for s in range(1, sx + 1)]
    theta = draw(st.permutations(outs) | st.lists(st.tuples(LETTER, LETTER), max_size=5))
    return draw(st.sampled_from([sx, 0, True])), sy, theta


def _contract(function, *args):
    try:
        return function(*args)
    except YbkError:
        return None


@FUZZ
@given(
    word=st.lists(LETTER, max_size=4) | LETTER,
    n=LENGTH,
    code=st.integers(-2, 90) | st.booleans() | st.just(1.0),
    length=LENGTH,
)
def test_word_codes_raise_only_library_errors(word, n, code, length):
    encoded = _contract(encode_word, word, n)
    if encoded is not None:
        assert decode_word(encoded, n, len(word)) == tuple(word)
    decoded = _contract(decode_word, code, n, length)
    if decoded is not None:
        assert encode_word(decoded, n) == code


@FUZZ
@given(R=bijections(), l=LENGTH, m=LENGTH, u=st.lists(LETTER, max_size=3), v=st.lists(LETTER, max_size=3))
def test_level_maps_raise_only_library_errors(R, l, m, u, v):
    _contract(level_codes, R, l, m)
    level = _contract(level_map, R, l, m)
    if level is not None:
        _contract(level.apply, u, v)
    _contract(level_solution, R, l)
    _contract(level_is_identity, R, l)
    _contract(action_formula_check, R, l)


@FUZZ
@given(R=bijections(), other=bijections(st.integers(1, 2)), maxlen=LENGTH | st.just(4), glue=glues())
def test_constructions_and_semigroup_raise_only_library_errors(R, other, maxlen, glue):
    _contract(cartesian_product, R, other)
    _contract(trivial_extension, R, other)
    _contract(derived_solution, R)
    _contract(left_derived_solution, R)
    _contract(glued_identity_extension, *glue)
    family = _contract(make_theta_family, 2, glue[:2], {(1, 2): glue[2]})
    if family is not None:
        _contract(disjoint_union_solution, family)
    classes = _contract(graded_elements, R, maxlen)
    if classes is not None:
        for word in classes.reps[:2] + ((0,) * len(classes.reps[0]), (1,) * (classes.length + 1)):
            _contract(classes.index_of, word)
    _contract(growth, R, maxlen)
    _contract(check_cancellative, R, maxlen)
    _contract(semigroup_extension_check, R, maxlen)
    _contract(presentations, R)

"""Fuzzing the k-graph functions' error contract.

Whatever family and words they get, the k-graph functions return or raise a
`YbkError`: a bad letter must neither read another table entry nor escape as
an `IndexError`.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ybk.errors import YbkError
from ybk.kgraph import (
    KWord,
    ThetaFamily,
    complete_diamond,
    constant_family,
    factorize,
    make_theta_family,
    multiply,
    normalize,
    periodicity,
    restrict,
    unique_pullback,
    unique_pushout,
    validate_kgraph,
)
from ybk.solution import builtin, make_solution

FUZZ = settings(derandomize=True, deadline=None)

# in-range letters of a size-3 family, out-of-range ints and bools
VALUE = st.integers(-1, 5) | st.booleans()
# counts, bounds and exponents around the valid ranges, bools, a float and None
NUMBER = st.integers(-1, 4) | st.booleans() | st.just(2.0) | st.none()


@st.composite
def families(draw):
    """A bijective family with k in {2, 3} on sizes 1-3."""
    k = draw(st.integers(2, 3))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(k))
    maps = {}
    for i, j in combinations(range(1, k + 1), 2):
        ni, nj = sizes[i - 1], sizes[j - 1]
        outs = [(t, s) for t in range(1, nj + 1) for s in range(1, ni + 1)]
        maps[(i, j)] = draw(st.permutations(outs))
    return make_theta_family(k, sizes, maps)


def blocks(draw, family, colours):
    """The blocks of a word: drawn ints on `colours`, empty elsewhere.

    Now and then there is one block too few or too many.
    """
    drawn = [
        tuple(draw(st.lists(VALUE, max_size=3))) if colour in colours else ()
        for colour in range(1, family.k + 1)
    ]
    extra = draw(st.sampled_from([0, 0, 0, -1, 1]))
    return tuple(drawn[:extra] if extra < 0 else drawn + [()] * extra)


def _contract(function, *args):
    try:
        return function(*args)
    except YbkError:
        return None


@FUZZ
@given(data=st.data())
def test_kgraph_functions_raise_only_library_errors(data):
    family = data.draw(families())
    # a word is checked when it is built, so building one is under the contract too
    word_blocks = blocks(data.draw, family, range(1, family.k + 1))
    word = _contract(KWord, family, word_blocks)
    # often a degree vector that fits the word, so factorize reaches its swaps
    fitting = st.tuples(*(st.integers(0, len(block)) for block in word_blocks))
    degree = data.draw(fitting | st.lists(VALUE, max_size=4) | VALUE)
    colours = data.draw(st.permutations(range(1, family.k + 1)))
    cut = data.draw(st.integers(1, family.k - 1))
    mu = _contract(KWord, family, blocks(data.draw, family, colours[:cut]))
    nu = _contract(KWord, family, blocks(data.draw, family, colours[cut:]))
    _contract(normalize, family, data.draw(st.lists(st.tuples(VALUE, VALUE), max_size=4) | VALUE))
    if word is not None:
        if mu is not None:
            _contract(multiply, word, mu)
        _contract(factorize, word, degree)
    if mu is not None and nu is not None:
        for direction in ("pullback", "pushout", "sideways"):
            _contract(complete_diamond, family, mu, nu, direction)
    _contract(unique_pullback, family)
    _contract(unique_pushout, family)
    _contract(validate_kgraph, family)


@FUZZ
@given(data=st.data())
def test_constant_families_and_periodicity_raise_only_library_errors(data):
    n = data.draw(st.integers(1, 3))
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    R = data.draw(
        st.sampled_from([builtin("identity", 2), builtin("flip", 2), builtin("dihedral", 3)])
        | st.permutations(pairs).map(lambda table: make_solution(n, table))
    )
    found = _contract(periodicity, R, data.draw(NUMBER))
    if found is not None:
        assert found.periodic == (found.order is not None)
    family = _contract(constant_family, R, data.draw(NUMBER))
    if family is None:
        family = data.draw(families())
    _contract(restrict, family, *data.draw(st.tuples(NUMBER, NUMBER, NUMBER)))
    i, j, s, t = (data.draw(VALUE) for _ in range(4))
    _contract(ThetaFamily.pair_index, family, i, j)
    for method in (ThetaFamily.apply, ThetaFamily.apply_inv):
        _contract(method, family, i, j, s, t)

"""YBK_LIMIT is read once by each public call, and never kept past it.

A call with several enumeration checks reads the limit at its first check
and hands the value to the rest, so a change to the environment between two
calls takes effect on the second one.  `periodicity` answers a left
non-degenerate solution from its table and walks one push table per level
for the rest, instead of calling `level_is_identity` level by level, and
`semigroup_extension_check`, `action_formula_check` and `verify_complex`
answer from the braid relation after their size checks, with no word loop;
the per-level loop, the per-pair check and the action-formula loop stay
their oracles, and `oracles.chain_holds` composes the boundaries.
"""

import json

import pytest

import ybk.limits as limits
from ybk.catalog import catalog_document, catalog_names, catalog_profile, catalog_solution
from ybk.classify import enumerate_solutions
from ybk.constructions import (
    _level_tables,
    cartesian_product,
    derived_solution,
    disjoint_union_solution,
    level_codes,
    level_is_identity,
    level_solution,
    trivial_extension,
)
from ybk.errors import InvalidParams, NotAYbeSolution, Overflow, PreconditionFailed, YbkError
from ybk.homology import cohomology, homology, verify_complex
from ybk.kgraph import Periodicity, constant_family, periodicity, restrict
from ybk.semigroup import action_formula_check, check_cancellative, graded_elements, growth, semigroup_extension_check
from ybk.serialize import parse_theta_document
from ybk.solution import builtin, make_solution

from oracles import action_formula_oracle, extension_check_per_pair

DIH3 = builtin("dihedral", 3)
# built here, so that a call of restrict reads only its own limit
DIH3_FAMILY = constant_family(DIH3, 3)

# each call checks tables that fit the default limit and overflow the limit 2;
# all but restrict, action_formula_check and verify_complex run two
# enumeration checks or more
CALLS = {
    "growth": lambda: growth(DIH3, 5),
    "check_cancellative": lambda: check_cancellative(DIH3, 4),
    "graded_elements": lambda: graded_elements(DIH3, 4),
    "semigroup_extension_check": lambda: semigroup_extension_check(DIH3, 3),
    "level_is_identity": lambda: level_is_identity(DIH3, 2),
    "level_solution": lambda: level_solution(DIH3, 2),
    "periodicity": lambda: periodicity(DIH3, 4),
    "homology": lambda: homology(DIH3, 2),
    "cohomology": lambda: cohomology(DIH3, 2, 3),
    "verify_complex": lambda: verify_complex(DIH3, 3),
    "restrict": lambda: restrict(DIH3_FAMILY, 1, 1, 2),
    "action_formula_check": lambda: action_formula_check(DIH3, 2),
}


@pytest.fixture
def reads(monkeypatch):
    """The number of times YBK_LIMIT has been read since the fixture was set up."""
    count = [0]
    read = limits.encoding_limit

    def counting():
        count[0] += 1
        return read()

    monkeypatch.setattr(limits, "encoding_limit", counting)
    monkeypatch.delenv("YBK_LIMIT", raising=False)
    return count


@pytest.mark.parametrize("name", CALLS)
def test_each_call_reads_the_limit_once(reads, name):
    for calls in (1, 2):
        CALLS[name]()
        assert reads[0] == calls


def test_the_extension_check_at_length_0_reads_no_limit(reads, monkeypatch):
    monkeypatch.setenv("YBK_LIMIT", "abc")
    assert semigroup_extension_check(DIH3, 0) == (True, None)
    assert reads[0] == 0


@pytest.mark.parametrize("name", CALLS)
def test_a_changed_limit_takes_effect_on_the_next_call(monkeypatch, name):
    call = CALLS[name]
    monkeypatch.delenv("YBK_LIMIT", raising=False)
    first = call()
    monkeypatch.setenv("YBK_LIMIT", "2")
    with pytest.raises(Overflow, match="above the limit 2 "):
        call()
    monkeypatch.setenv("YBK_LIMIT", "abc")
    with pytest.raises(Overflow, match="^YBK_LIMIT must be an integer, got 'abc'$"):
        call()
    monkeypatch.setenv("YBK_LIMIT", str(2 ** 20))
    assert call() == first


def _outcome(call):
    """The value of call(), or the type and message of the YbkError it raises."""
    try:
        return call()
    except YbkError as exc:
        return type(exc), str(exc)


def _per_level(R, bound):
    """The periodicity of R by the public level_is_identity, one level at a time."""
    for level in range(1, bound + 1):
        if level_is_identity(R, level):
            return Periodicity(True, level, bound)
    return Periodicity(False, None, bound)


@pytest.fixture(scope="module")
def solutions():
    census = [R for n in (1, 2, 3) for R in enumerate_solutions(n)]
    catalog = []
    for name in catalog_names():
        try:
            catalog.append(catalog_solution(name))
        except YbkError:
            continue  # a theta family
    assert len(census) == 79 and len(catalog) >= 25
    return census + catalog


@pytest.fixture(scope="module")
def constructed():
    """Solutions built from the census and the catalog, mostly on 4 to 9 points.

    Degenerate ones (identities, products with a degenerate factor, the
    disjoint unions of the theta families) and left non-degenerate ones (the
    rest of the products and extensions, derived solutions) alike; the
    one-point solution's level solution and square keep 1 point.
    """
    small = [R for n in (1, 2) for R in enumerate_solutions(n)]
    threes = enumerate_solutions(3)
    levels = [level_solution(R, 2) for R in small]
    built = levels + [cartesian_product(R, S) for R in small for S in small]
    built += [cartesian_product(R, S) for R in small[1:] for S in threes[::12]]
    built += [cartesian_product(R, S) for R in threes[::12] for S in threes[5::24]]
    built += [trivial_extension(R, S) for R in threes[::12] + levels for S in levels[1:]]
    for name in catalog_names():
        profile = catalog_profile(name)
        if "valid_kgraph" in profile:
            built.append(disjoint_union_solution(parse_theta_document(json.dumps(catalog_document(name))).family))
        elif profile["non_degenerate"] and catalog_solution(name).size >= 4:
            built.append(derived_solution(catalog_solution(name)))
    assert {R.size for R in built} == {1, 2} | set(range(4, 10))
    return built


# at the limit 2 the ground set of level 1 overflows before its table
@pytest.mark.parametrize("limit", [None, "2", "30", "500", "abc"])
def test_periodicity_agrees_with_the_per_level_loop(monkeypatch, solutions, constructed, limit):
    if limit is None:
        monkeypatch.delenv("YBK_LIMIT", raising=False)
    else:
        monkeypatch.setenv("YBK_LIMIT", limit)
    outcomes = set()
    for R in solutions + constructed:
        for bound in (1, 2, 3, 4):
            got = _outcome(lambda: periodicity(R, bound))
            assert got == _outcome(lambda: _per_level(R, bound)), (R, bound)
            outcomes.add(type(got) if isinstance(got, Periodicity) else got[0])
    # each limit reaches the outcomes it is meant to compare
    assert outcomes == ({Overflow} if limit == "abc" else {Periodicity, Overflow})


def test_periodicity_answers_both_ways_at_the_default_limit(monkeypatch):
    monkeypatch.delenv("YBK_LIMIT", raising=False)
    assert periodicity(builtin("identity", 3), 4) == Periodicity(True, 1, 4)
    assert periodicity(DIH3, 4) == Periodicity(False, None, 4)


@pytest.mark.parametrize("limit", [None, "abc", "0"])
def test_a_bad_bound_is_reported_before_the_limit_is_read(monkeypatch, limit):
    if limit is None:
        monkeypatch.delenv("YBK_LIMIT", raising=False)
    else:
        monkeypatch.setenv("YBK_LIMIT", limit)
    with pytest.raises(InvalidParams, match="^bound must be at least 1, got 0$"):
        periodicity(DIH3, 0)


# R(x, y) = (tau x, tau y) for the transposition tau of [2]
OFF_BRAID = make_solution(2, [(3 - x, 3 - y) for x in (1, 2) for y in (1, 2)])


def test_a_table_off_the_braid_relation_is_reported_before_the_limit_is_read(monkeypatch):
    monkeypatch.setenv("YBK_LIMIT", "abc")
    with pytest.raises(NotAYbeSolution):
        periodicity(OFF_BRAID, 3)


@pytest.mark.parametrize("limit", [None, "2", "30", "500", "abc"])
def test_the_extension_check_agrees_with_the_per_pair_check(monkeypatch, solutions, limit):
    if limit is None:
        monkeypatch.delenv("YBK_LIMIT", raising=False)
    else:
        monkeypatch.setenv("YBK_LIMIT", limit)
    outcomes = set()
    for R in solutions + [OFF_BRAID]:
        for maxlen in (0, 1, 2, 3, 4):
            got = _outcome(lambda: semigroup_extension_check(R, maxlen))
            assert got == _outcome(lambda: extension_check_per_pair(R, maxlen)), (R, maxlen)
            outcomes.add(got[0])
    # every braid-relation solution extends; maxlen 0 reads no limit
    assert outcomes == {True, NotAYbeSolution} | ({Overflow} if limit else set())


def _planted(tables, pair):
    """`tables` with entries 0 and 1 of the table `pair` swapped, when it is there."""
    if pair in tables:
        table = tables[pair]
        table[0], table[1] = table[1], table[0]
    return tables


def test_a_planted_swap_gets_the_per_pair_check_verdict(monkeypatch, solutions):
    monkeypatch.delenv("YBK_LIMIT", raising=False)
    kinds = set()
    for R in solutions:
        if R.size == 1:
            continue  # a table of one entry has no swap
        for maxlen in (2, 3, 4):
            # the library answers from the theorem, which the unplanted loops confirm
            assert semigroup_extension_check(R, maxlen) == extension_check_per_pair(R, maxlen), (R, maxlen)
            for pair in [(l, m) for l in range(1, maxlen) for m in range(1, maxlen - l + 1)]:

                def codes(R, l, m):
                    return _planted({(l, m): level_codes(R, l, m)}, pair)[l, m]

                got = extension_check_per_pair(R, maxlen, codes)
                kinds.add(got[1] and got[1][0])
    assert kinds == {None, "respects-left", "respects-right", "braid"}


@pytest.mark.parametrize("limit", [None, "2", "30", "500", "abc"])
def test_the_action_formula_check_agrees_with_the_formula_loop(monkeypatch, solutions, limit):
    if limit is None:
        monkeypatch.delenv("YBK_LIMIT", raising=False)
    else:
        monkeypatch.setenv("YBK_LIMIT", limit)
    outcomes = set()
    for R in solutions + [OFF_BRAID]:
        for n in (1, 2, 3):
            got = _outcome(lambda: action_formula_check(R, n))
            assert got == _outcome(lambda: action_formula_oracle(R, n)), (R, n)
            outcomes.add(got if isinstance(got, bool) else got[0])
    # each limit reaches the outcomes it is meant to compare; "abc" lets no table through
    reached = {PreconditionFailed} | ({Overflow} if limit else set())
    assert outcomes == (reached if limit == "abc" else reached | {True})


def test_a_planted_swap_fails_the_formula_loop(monkeypatch, solutions):
    monkeypatch.delenv("YBK_LIMIT", raising=False)
    for R in solutions:
        if R.size == 1:
            continue  # a table of one entry has no swap
        for n in (1, 2):

            def codes(R, l, m):
                return _planted({(l, m): level_codes(R, l, m)}, (n, n))[l, m]

            assert action_formula_oracle(R, n, codes) is False, (R, n)


def test_the_level_tables_are_the_level_codes(solutions):
    def pairs_of(tables):
        # the flat entry v' * N**l + u' of table (l, m) is the level_codes pair (v', u')
        return {(l, m): [divmod(c, R.size ** l) for c in table] for (l, m), table in tables.items()}

    for R in solutions:
        pairs = [(l, m) for l in range(1, 5) for m in range(1, 6 - l)]
        tables = _level_tables(R, pairs)
        assert list(tables) == sorted(pairs)
        assert pairs_of(tables) == {(l, m): level_codes(R, l, m) for l, m in pairs}
        # a lone pair, and a pair asked for twice
        assert pairs_of(_level_tables(R, [(2, 3), (2, 3)])) == {(2, 3): level_codes(R, 2, 3)}
    assert _level_tables(DIH3, []) == {}

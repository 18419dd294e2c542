import copy
import dataclasses
import gc
import pickle
import random

import pytest

from ybk.classify import enumerate_solutions
from ybk.solution import Solution, builtin

from oracles import random_bijection_table


@pytest.fixture(scope="session")
def census2():
    return enumerate_solutions(2)


@pytest.fixture(scope="session")
def census3():
    return enumerate_solutions(3)


@pytest.fixture(scope="session")
def census4():
    return enumerate_solutions(4)


@pytest.fixture(scope="session")
def standard():
    return {
        "id1": builtin("identity", 1),
        "id2": builtin("identity", 2),
        "id3": builtin("identity", 3),
        "flip2": builtin("flip", 2),
        "flip3": builtin("flip", 3),
        "flip4": builtin("flip", 4),
        "dbl2": builtin("double_shift", 2),
        "shift2": builtin("shift", 2),
        "dih3": builtin("dihedral", 3),
        "dih5": builtin("dihedral", 5),
    }


def random_solutions(size, count, seed, require_ybe=True):
    """Seeded random bijections, optionally filtered to braid-relation solutions."""
    from ybk.solution import _braid_failure

    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 100000:
        attempts += 1
        table = random_bijection_table(size, rng)
        if require_ybe and _braid_failure(size, table) is not None:
            continue
        out.append(Solution(size, table))
    return out


# every way to copy a record: each must give an equal record of the same class
CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "replace": dataclasses.replace}
CLONES |= {
    f"pickle{p}": lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
}
if hasattr(copy, "replace"):  # Python 3.13+: it calls the __replace__ that dataclass adds
    CLONES["copy.replace"] = copy.replace


def collections_during(call):
    """The collections per generation that `call()` starts, counted by
    `gc.callbacks` after a full `gc.collect()`: a work count, not a time."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return counts

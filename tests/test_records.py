"""What every `ybk` record promises: a frozen dataclass's construction,
fields, repr, equality, hash, immutability, copying and pickling.

The records are found by scanning the modules of `ybk`, so a new record
fails `test_every_record_has_a_sample` until it gets a sample below and,
with it, every check in this file.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import pytest

import ybk
from ybk.errors import InvalidParams
from ybk.homology import AbelianGroup
from ybk.kgraph import ThetaFamily
from ybk.semigroup import GradedClassSet
from ybk.solution import PropertyReport, Solution, StructureReport

from conftest import CLONES


def _records():
    found = {}
    for info in pkgutil.iter_modules(ybk.__path__, "ybk."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _records()

_S1 = Solution(1, ((1, 1),))
_FLIP = Solution(2, ((1, 1), (2, 1), (1, 2), (2, 2)))
_THETA = ThetaFamily(2, (1, 2), (((1, 1), (2, 1)),), (((1, 1), (1, 2)),))

# field values by position for each record, valid for its __post_init__;
# the second entry changes one compared field, where one can change
SAMPLES = {
    "AbelianGroup": [(1, (2, 4)), (1, (2, 8))],
    "AlphaBeta": [(((1, 2), (2, 1)), ((2, 1), (1, 2))), (((1, 2), (2, 1)), ((1, 2), (2, 1)))],
    "GradedClassSet": [
        (2, 1, (((1,),), ((2,),)), ((1,), (2,)), ([0, 1],)),
        (2, 1, (((1,), (2,)),), ((1,),), ([0, 0],)),
    ],
    "KWord": [(_THETA, ((1,), (2,))), (_THETA, ((1,), (1,)))],
    "LevelMap": [(1, 1, 1, (((1,), (1,)),)), (1, 1, 2, (((1, 1), (1,)),))],
    "OrbitPartition": [(((1, 2), (3,)),), (((1,), (2,), (3,)),)],
    "Periodicity": [(True, 2, 6), (False, None, 6)],
    "Presentation": [(("e1", "e2"), (((1, 2), (2, 1)),)), (("e1", "e2"), ())],
    "PropertyReport": [
        (True, True, False, True, True, False, True, {"involutive": (1, 2)}),
        (True, True, True, True, True, False, True, {}),
    ],
    "Solution": [(2, _FLIP.table), (1, _S1.table)],
    "SolutionCensus": [(1, "isomorphism", 1, (_S1,), ((0,),)), (1, "conjugacy", 1, (_S1,), ((0,),))],
    "SolutionDocument": [(_FLIP, "flip-2", ("a", "b"), {"origin": [1, 2]}), (_FLIP, None, None, None)],
    "StructureReport": [(True, False, True, {"beta_antihomomorphic": (1, 2, 1)}), (True, True, True, {})],
    "ThetaDocument": [(_THETA, "theta", {"note": "x"}), (_THETA, None, None)],
    "ThetaFamily": [(2, (1, 2), (((1, 1), (2, 1)),), (((1, 1), (1, 2)),)), (2, (1, 1), (((1, 1),),), (((1, 1),),))],
}


def _sample(cls, which=0):
    return cls(*SAMPLES[cls.__qualname__][which])


def _values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _plain(value):
    """What `dataclasses.asdict` makes of a value, written out."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return value


def test_every_record_has_a_sample():
    assert len(RECORDS) >= 15
    assert sorted(cls.__qualname__ for cls in RECORDS) == sorted(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestRecord:
    def test_construction_by_position_keyword_and_default(self, cls):
        values = SAMPLES[cls.__qualname__][0]
        flds = dataclasses.fields(cls)
        names = [f.name for f in flds]
        obj = cls(*values)
        assert _values(obj) == list(values)
        assert _values(cls(**dict(zip(names, values)))) == list(values)
        # the first field by position and the rest by name
        assert _values(cls(values[0], **dict(zip(names[1:], values[1:])))) == list(values)
        defaults = [f.default for f in flds if f.default is not dataclasses.MISSING]
        if defaults:
            required = len(flds) - len(defaults)
            assert _values(cls(*values[:required])) == list(values[:required]) + defaults
            assert _values(cls(**dict(zip(names[:required], values)))) == list(values[:required]) + defaults

    def test_a_call_that_does_not_fit_raises_type_error(self, cls):
        values = SAMPLES[cls.__qualname__][0]
        names = [f.name for f in dataclasses.fields(cls)]
        init = re.escape(f"{cls.__qualname__}.__init__()")
        with pytest.raises(TypeError, match=rf"^{init} missing 1 required positional argument: '{names[0]}'$"):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError, match=rf"^{init} missing \d+ required positional arguments?: '{names[0]}'"):
            cls()
        with pytest.raises(TypeError, match=rf"^{init} takes .*{len(names) + 1} positional arguments? but {len(names) + 2} were given$"):
            cls(*values, None)
        with pytest.raises(TypeError, match=rf"^{init} got an unexpected keyword argument 'bogus'$"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match=rf"^{init} got an unexpected keyword argument 'bogus'$"):
            cls(bogus=1, **dict(zip(names, values)))
        with pytest.raises(TypeError, match=rf"^{init} got multiple values for argument '{names[0]}'$"):
            cls(*values, **{names[0]: values[0]})

    def test_fields_asdict_match_args_and_signature(self, cls):
        obj = _sample(cls)
        flds = dataclasses.fields(cls)
        names = tuple(f.name for f in flds)
        assert tuple(f.name for f in dataclasses.fields(obj)) == names == tuple(cls.__annotations__)
        assert cls.__match_args__ == names
        params = cls.__dataclass_params__
        assert (params.init, params.repr, params.eq, params.order, params.frozen) == (True, True, True, False, True)
        assert dataclasses.asdict(obj) == _plain(obj)
        expected = inspect.Signature(
            [
                inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=f.default, annotation=f.type)
                if f.default is not dataclasses.MISSING
                else inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type)
                for f in flds
            ],
            return_annotation=None,
        )
        assert inspect.signature(cls) == expected
        assert str(inspect.signature(cls)) == str(expected)

    def test_match_reads_the_fields_by_position(self, cls):
        obj = _sample(cls)
        first = getattr(obj, dataclasses.fields(cls)[0].name)
        match obj:
            case cls(value):
                assert value is first
            case _:
                pytest.fail("the class pattern did not match")

    def test_repr_text(self, cls):
        obj = _sample(cls)
        shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(cls) if f.repr)
        assert repr(obj) == f"{cls.__qualname__}({shown})"

    def test_equality_and_hash(self, cls):
        obj, twin, other = _sample(cls), _sample(cls), _sample(cls, 1)
        assert obj is not twin
        assert obj == twin and not obj != twin
        assert obj != other and not obj == other
        assert obj.__eq__(tuple(_values(obj))) is NotImplemented
        compared = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls) if f.compare)
        try:
            expected = hash(compared)
        except TypeError:
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        else:
            assert hash(obj) == hash(twin) == expected

    def test_fields_cannot_be_set_or_deleted(self, cls):
        obj = _sample(cls)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot assign to field '{f.name}'$"):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot delete field '{f.name}'$"):
                delattr(obj, f.name)
        assert _values(obj) == list(SAMPLES[cls.__qualname__][0])

    @pytest.mark.parametrize("clone", CLONES.values(), ids=list(CLONES))
    def test_copies_and_pickles_round_trip(self, cls, clone):
        obj = _sample(cls)
        twin = clone(obj)
        assert type(twin) is cls
        assert twin == obj
        assert _values(twin) == _values(obj)
        assert repr(twin) == repr(obj)


def test_compare_false_field_is_left_out_of_equality_and_hash():
    one = GradedClassSet(2, 1, (((1,),), ((2,),)), ((1,), (2,)), ([0, 1],))
    same = GradedClassSet(2, 1, (((1,),), ((2,),)), ((1,), (2,)), ([1, 0],))
    assert one == same and hash(one) == hash(same)
    assert repr(one) == "GradedClassSet(size=2, length=1, classes=(((1,),), ((2,),)), reps=((1,), (2,)))"


def test_reports_with_witness_dicts_are_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PropertyReport(*SAMPLES["PropertyReport"][0]))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(StructureReport(*SAMPLES["StructureReport"][0]))


def test_solution_repr_and_hash_are_those_of_its_fields():
    assert repr(_FLIP) == "Solution(size=2, table=((1, 1), (2, 1), (1, 2), (2, 2)))"
    assert hash(_FLIP) == hash((2, _FLIP.table))
    # a solution is callable; its own signature is that of the lookup
    assert list(inspect.signature(_FLIP).parameters) == ["x", "y"]


@pytest.mark.parametrize(
    "cls, good, change, message",
    [
        (AbelianGroup, (1, (2, 4)), {"torsion": (4, 2)}, "divisibility chain"),
        (AbelianGroup, (1, (2, 4)), {"free_rank": -1}, "free rank"),
    ],
)
def test_post_init_checks_run_on_construction_and_replace(cls, good, change, message):
    obj = cls(*good)
    names = [f.name for f in dataclasses.fields(cls)]
    bad = dict(zip(names, good)) | change
    with pytest.raises(InvalidParams, match=message):
        cls(*bad.values())
    with pytest.raises(InvalidParams, match=message):
        cls(**bad)
    with pytest.raises(InvalidParams, match=message):
        dataclasses.replace(obj, **change)
    assert dataclasses.replace(obj) == obj

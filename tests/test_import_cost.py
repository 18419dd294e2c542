"""Importing `ybk` compiles no source text and loads no `dataclasses`.

`dataclass` compiles six methods of each class through `exec`, and
`dataclasses`, with the `inspect` it loads, was half of `import ybk.cli`:
every `ybk` process paid for both before it read its first argument.  The
records use `ybk._record.record` instead, which compiles nothing and runs
`dataclasses` only when something first asks a record for its fields.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_records import RECORDS

SRC = Path(__file__).resolve().parent.parent / "src"

# The first import loads every standard module `ybk` uses; the hook then sees
# only what a fresh import of `ybk` runs.  It lists the functions of each code
# object compiled from a string.
_COMPILED_FUNCTIONS = """
import importlib
import sys
import types

import ybk.cli

for name in [m for m in sys.modules if m == "ybk" or m.startswith("ybk.")]:
    del sys.modules[name]
compiled = []


def functions(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            compiled.append(const.co_name)
            functions(const)


def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        functions(args[0])


sys.addaudithook(hook)
importlib.import_module("ybk.cli")
print(len(compiled), sorted(set(compiled)))
"""


# Records are read before any `dataclasses` call: a KWord is replaced first
# (on 3.13 through `copy.replace`, before `dataclasses` is loaded), then every
# record's fields are read, and the methods `record` wrote must be the ones
# the class holds after the `dataclass` pass.
_DEFERRED_PASS = """
import sys

import ybk.cli
from ybk.errors import InvalidLetter

OWN = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__match_args__", "__doc__")
records = sorted(
    (
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("ybk.")
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == name and "__dataclass_fields__" in vars(obj)
    ),
    key=lambda cls: cls.__qualname__,
)
before = {cls: [vars(cls)[name] for name in OWN] for cls in records}
family = ybk.constant_family(ybk.builtin("dihedral", 3), 3)
word = ybk.KWord(family, ((1,), (), (2,)))
if sys.version_info >= (3, 13):
    import copy

    assert copy.replace(word, blocks=([2], [], [3])).blocks == ((2,), (), (3,))
    assert copy.replace(ybk.AbelianGroup(1, (3,)), free_rank=2) == ybk.AbelianGroup(2, (3,))
    assert "dataclasses" not in sys.modules

import dataclasses

# __post_init__ turns the list blocks into tuples and checks every letter
assert dataclasses.replace(word, blocks=([2], [], [3])).blocks == ((2,), (), (3,))
try:
    dataclasses.replace(word, blocks=((9,), (), ()))
except InvalidLetter:
    pass
else:
    raise AssertionError("dataclasses.replace built a KWord with letter 9")
changed = []
for cls in records:
    names = tuple(f.name for f in dataclasses.fields(cls))
    after = [vars(cls)[name] for name in OWN]
    if names != cls.__match_args__ or any(a is not b for a, b in zip(after, before[cls])):
        changed.append(cls.__qualname__)
print(" ".join(cls.__qualname__ for cls in records))
print(changed)
"""


def _fresh(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_cli_compiles_no_function_from_source_text():
    assert _fresh(_COMPILED_FUNCTIONS) == "0 []"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = "import sys, ybk.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    assert _fresh(script) == "[]"


def test_the_deferred_dataclass_pass_keeps_every_method_record_wrote():
    names, changed = _fresh(_DEFERRED_PASS).splitlines()
    assert names.split() == [cls.__qualname__ for cls in RECORDS]
    assert changed == "[]"


def test_every_record_has_a_docstring_of_its_own():
    # dataclass writes a missing one from inspect.signature, at import
    for cls in RECORDS:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls.__qualname__

"""Importing `ybk` compiles no source text.

`dataclass` compiles six methods of each class through `exec`, and every
`ybk` process paid for them before it read its first argument.  The records
use `ybk._record.record` instead, which compiles nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_records import RECORDS

SRC = Path(__file__).resolve().parent.parent / "src"

# The first import loads every standard module `ybk` uses; the hook then sees
# only what a fresh import of `ybk` runs.  It lists the functions of each code
# object compiled from a string.  Python 3.13's dataclass compiles one builder,
# `__create_fn__`, per class even when it writes no method; it is left out.
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
            if const.co_name != "__create_fn__":
                compiled.append(const.co_name)
            functions(const)


def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        functions(args[0])


sys.addaudithook(hook)
importlib.import_module("ybk.cli")
print(len(compiled), sorted(set(compiled)))
"""


def test_importing_the_cli_compiles_no_function_from_source_text():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _COMPILED_FUNCTIONS], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    assert result.stdout.strip() == "0 []"


def test_every_record_has_a_docstring_of_its_own():
    # dataclass writes a missing one from inspect.signature, at import
    for cls in RECORDS:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls.__qualname__

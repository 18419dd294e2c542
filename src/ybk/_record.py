"""Frozen records that import `dataclasses` only when something asks for it.

`dataclasses`, with the `inspect` it loads, was half of `import ybk.cli`, and
`dataclass(frozen=True)` writes six methods of each class as source text and
compiles each through `exec`.  `record` does neither.  It reads the fields
from the class's own annotations, in order, and their defaults from plain
class attributes, and writes without compiling anything:

- `__init__`, a copy of the `_init<n>` function below for n fields, with its
  parameters renamed to the fields.  Renaming a code object's variables
  (`CodeType.replace`) compiles nothing, and Python itself binds the call:
  positions, keywords, defaults and the `TypeError` for a call that does not
  fit are those of the generated `__init__`, at its speed.
- `__match_args__`, the field names.
- `__repr__`, `__eq__`, `__hash__`, `__setattr__` and `__delattr__`,
  closures over the field names.  The last two raise
  `dataclasses.FrozenInstanceError`, imported when they raise.
- On Python 3.13+, `__replace__`, which `copy.replace` calls.

A field whose name starts with `_` is left out of the repr, equality and
hash, as `field(repr=False, compare=False)` would leave it.

`__dataclass_fields__` and `__dataclass_params__` start as placeholders.  The
first read of either, as `dataclasses.fields`, `replace`, `asdict` and
`is_dataclass` read them, runs `dataclass(cls, init=False, repr=False,
eq=False)` over the class.  That pass writes none of the methods above and
puts the real attributes in place of both placeholders; `record` then marks
the underscore fields `repr=False, compare=False` and sets the parameters to
those of `dataclass(frozen=True)`.  Like `dataclass` at class creation, the
pass reads the record's module from `sys.modules`.

A record keeps its fields in its instance dict.  Pickle, `copy` and
`deepcopy` restore that dict without `__setattr__` or `__post_init__`, and
a `functools.cached_property` keeps its value there beside the fields.
"""

from __future__ import annotations

import reprlib
import sys
from operator import attrgetter
from types import FunctionType

_MISSING = object()
_setattr = object.__setattr__

# One `__init__` per number of fields.  A copy renames a, b, ... to the fields
# and runs with its own globals: SET is object.__setattr__, F0, F1, ... are
# the field names and POST is the class's __post_init__, or None.


def _init1(self, a):
    SET(self, F0, a)
    if POST:
        POST(self)


def _init2(self, a, b):
    SET(self, F0, a)
    SET(self, F1, b)
    if POST:
        POST(self)


def _init3(self, a, b, c):
    SET(self, F0, a)
    SET(self, F1, b)
    SET(self, F2, c)
    if POST:
        POST(self)


def _init4(self, a, b, c, d):
    SET(self, F0, a)
    SET(self, F1, b)
    SET(self, F2, c)
    SET(self, F3, d)
    if POST:
        POST(self)


def _init5(self, a, b, c, d, e):
    SET(self, F0, a)
    SET(self, F1, b)
    SET(self, F2, c)
    SET(self, F3, d)
    SET(self, F4, e)
    if POST:
        POST(self)


def _init8(self, a, b, c, d, e, f, g, h):
    SET(self, F0, a)
    SET(self, F1, b)
    SET(self, F2, c)
    SET(self, F3, d)
    SET(self, F4, e)
    SET(self, F5, f)
    SET(self, F6, g)
    SET(self, F7, h)
    if POST:
        POST(self)


_INITS = {1: _init1, 2: _init2, 3: _init3, 4: _init4, 5: _init5, 8: _init8}


def _make_init(cls, annotations, defaults):
    """The `__init__` of `cls`, with its fields as parameters and the last `defaults`."""
    names = tuple(annotations)
    template = _INITS.get(len(names))
    if template is None:
        raise TypeError(f"record {cls.__name__} has {len(names)} fields; add an _init{len(names)} template")
    qualname = f"{cls.__qualname__}.__init__"
    code = template.__code__.replace(co_name="__init__", co_varnames=("self",) + names)
    if hasattr(code, "co_qualname"):  # Python 3.11+ names the function in errors by it
        code = code.replace(co_qualname=qualname)
    scope = {f"F{i}": name for i, name in enumerate(names)}
    scope |= {"SET": _setattr, "POST": getattr(cls, "__post_init__", None)}
    init = FunctionType(code, scope, "__init__", defaults or None)
    init.__qualname__ = qualname
    init.__module__ = cls.__module__
    init.__annotations__ = annotations | {"return": None}
    return init


def _getter(names):
    """A function from a record to the tuple of these fields' values."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda obj: (one(obj),)
    return attrgetter(*names)


def _dataclass_pass(cls):
    """Give a record the field machinery of `dataclasses`, which writes none of its methods."""
    from dataclasses import dataclass

    dataclass(cls, init=False, repr=False, eq=False)
    for f in cls.__dataclass_fields__.values():
        if f.name.startswith("_"):
            f.repr = f.compare = False
    # the parameters tell what the class does, as they do for dataclass(frozen=True)
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True


class _Deferred:
    """A record's `__dataclass_fields__` or `__dataclass_params__` until its first read."""

    def __init__(self, cls, name):
        self.cls = cls
        self.name = name

    def __get__(self, obj, owner=None):
        if vars(self.cls)[self.name] is self:
            _dataclass_pass(self.cls)
        return vars(self.cls)[self.name]


def record(cls):
    """Make `cls` a frozen record whose methods are shared, not compiled."""
    annotations = vars(cls).get("__annotations__", {})
    names = tuple(annotations)
    values = [vars(cls).get(name, _MISSING) for name in names]
    defaults = tuple(value for value in values if value is not _MISSING)
    if any(value is _MISSING for value in values[len(values) - len(defaults) :]):
        raise TypeError(f"record {cls.__name__}: a field without a default follows one with a default")
    dataclasses = sys.modules.get("dataclasses")  # a field() can only have been made once it is loaded
    if dataclasses and any(isinstance(value, dataclasses.Field) for value in defaults):
        raise TypeError(f"record {cls.__name__} takes plain defaults, not field()")
    shown = [name for name in names if not name.startswith("_")]
    text = "{}(" + ", ".join(f"{name}={{!r}}" for name in shown) + ")"
    shown_values = _getter(shown)

    @reprlib.recursive_repr()
    def __repr__(self):
        return text.format(self.__class__.__qualname__, *shown_values(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return shown_values(self) == shown_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(shown_values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, /, **changes):
        return self.__class__(**{name: getattr(self, name) for name in names} | changes)

    methods = [__repr__, __eq__, __hash__, __setattr__, __delattr__]
    if sys.version_info >= (3, 13):  # where dataclass writes one for copy.replace
        methods.append(__replace__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__init__ = _make_init(cls, annotations, defaults)
    cls.__match_args__ = names
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _Deferred(cls, name))
    return cls

"""Frozen records whose methods are shared, not generated from source text.

`dataclass(frozen=True)` writes `__init__`, `__repr__`, `__eq__`,
`__hash__`, `__setattr__` and `__delattr__` of each class as source text and
compiles each through `exec`: six compiles per class, most of what
`import ybk` cost.  `record` keeps `dataclass` for the field machinery
(`fields`, `replace`, `asdict`, `__match_args__`) and installs methods that
behave like the generated ones without compiling anything:

- `__init__` is a copy of the `_init<n>` function below for n fields, with
  its parameters renamed to the fields.  Renaming a code object's variables
  (`CodeType.replace`) compiles nothing, and Python itself binds the call:
  positions, keywords, defaults and the `TypeError` for a call that does not
  fit are those of the generated `__init__`, at its speed.
- The other methods are closures over the field names.
"""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from types import FunctionType

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


def _make_init(cls, flds):
    """The `__init__` of `cls`, with the fields `flds` as its parameters."""
    names = tuple(f.name for f in flds)
    template = _INITS.get(len(names))
    if template is None:
        raise TypeError(f"record {cls.__name__} has {len(names)} fields; add an _init{len(names)} template")
    defaults = tuple(f.default for f in flds if f.default is not MISSING)
    if any(f.default is MISSING for f in flds[len(flds) - len(defaults) :]):
        raise TypeError(f"record {cls.__name__}: a field without a default follows one with a default")
    qualname = f"{cls.__qualname__}.__init__"
    code = template.__code__.replace(co_name="__init__", co_varnames=("self",) + names)
    if hasattr(code, "co_qualname"):  # Python 3.11+ names the function in errors by it
        code = code.replace(co_qualname=qualname)
    scope = {f"F{i}": name for i, name in enumerate(names)}
    scope |= {"SET": _setattr, "POST": getattr(cls, "__post_init__", None)}
    init = FunctionType(code, scope, "__init__", defaults or None)
    init.__qualname__ = qualname
    init.__module__ = cls.__module__
    init.__annotations__ = {f.name: f.type for f in flds} | {"return": None}
    return init


def _getter(names):
    """A function from a record to the tuple of these fields' values."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda obj: (one(obj),)
    return attrgetter(*names)


def record(cls=None, /, *, slots=False):
    """Make `cls` a frozen dataclass whose methods are shared, not compiled."""
    if cls is None:
        return lambda cls: record(cls, slots=slots)
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    flds = fields(cls)
    for f in flds:
        if f.default_factory is not MISSING or not f.init or f.kw_only or f.hash is not None:
            raise TypeError(f"record field {f.name!r} takes no default_factory, init, kw_only or hash")
    names = tuple(f.name for f in flds)
    shown = [f.name for f in flds if f.repr]
    text = "{}(" + ", ".join(f"{name}={{!r}}" for name in shown) + ")"
    shown_values = _getter(shown)
    compared = _getter([f.name for f in flds if f.compare])

    @reprlib.recursive_repr()
    def __repr__(self):
        return text.format(self.__class__.__qualname__, *shown_values(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(compared(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    methods = [__repr__, __eq__, __hash__, __setattr__, __delattr__]
    if slots:
        # copy and pickle would set a slotted record's fields through the
        # frozen __setattr__; these read and write them as dataclass's do
        values = _getter(names)

        def __getstate__(self):
            return list(values(self))

        def __setstate__(self, state):
            for name, value in zip(names, state):
                _setattr(self, name, value)

        methods += [__getstate__, __setstate__]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__init__ = _make_init(cls, flds)
    # the parameters tell what the class does, as they do for dataclass(frozen=True)
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    return cls

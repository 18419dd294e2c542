"""Fuzzing the CLI's exit-code contract.

Whatever the argv and whatever a document holds, `ybk` must exit 0, 1 or 2
and never print a traceback: a crash must not look like "property fails".
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from ybk.catalog import catalog_document, catalog_names
from ybk.cli import main
from ybk.serialize import canonical_json

# entries on at most three points, so no example is heavy
SMALL_NAMES = [
    name for name in catalog_names() if catalog_document(name).get("size", 0) <= 3
]
FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SMALL_INT = st.integers(-3, 3).map(str)
WORD = st.lists(
    st.tuples(st.integers(-1, 4), st.integers(-1, 3)).map(lambda p: f"{p[0]}:{p[1]}"),
    max_size=3,
).map(",".join) | st.sampled_from(["", "x", "1:", ":1", "1:1,,2:1"])
JSON_VALUES = st.recursive(
    st.booleans() | st.integers(-3, 3) | st.none() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def _flag(name, value=None):
    """An optional flag, drawn as present or absent."""

    def draw_flag(draw, source):
        if not draw(st.booleans()):
            return []
        return [name] if value is None else [name, draw(value)]

    return draw_flag


def _value(strategy):
    return lambda draw, source: [draw(strategy)]


def _maybe(strategy):
    return lambda draw, source: draw(st.lists(strategy, max_size=1))


def SRC(draw, source):
    return [draw(source)]


INT = _value(SMALL_INT)

# every subcommand with its positionals and options
TEMPLATES = [
    ["verify", SRC],
    ["props", SRC],
    ["equations", SRC],
    ["level", SRC, "--n", INT],
    ["derive", SRC, _flag("--left")],
    ["product", SRC, SRC],
    ["extend-trivial", SRC, SRC],
    ["extend-glued", SRC],
    ["union", SRC],
    ["kgraph", "verify", SRC],
    ["kgraph", "normalize", SRC, "--word", _value(WORD)],
    [
        "kgraph", "diamond", SRC, "--mu", _value(WORD), "--nu", _value(WORD),
        "--direction", _value(st.sampled_from(["pullback", "pushout"])),
    ],
    ["periodic", SRC, _flag("--bound", SMALL_INT)],
    [
        "semigroup", SRC, _flag("--max-len", SMALL_INT), _flag("--cancel"),
        _flag("--presentation"), _flag("--extension-check"),
    ],
    [
        _value(st.sampled_from(["enumerate", "classify"])), "--size", INT,
        _flag("--relation", st.sampled_from(["yb-iso", "conjugacy"])),
        _flag("--sample", SMALL_INT), _flag("--seed", SMALL_INT),
    ],
    [
        "homology", SRC, "--degree", INT,
        _flag("--coeff", st.sampled_from(["z", "Z", "z/2", "z/3", "z/1", "z/0", "z/-2", "z/abc", "q"])),
        _flag("--verify-complex"),
    ],
    ["catalog", _maybe(st.sampled_from(SMALL_NAMES + ["no-such-entry"]))],
]


def _bend(draw, value, depth=0):
    """Replace one value somewhere inside a JSON value."""
    if depth < 3 and isinstance(value, list) and value and draw(st.booleans()):
        idx = draw(st.integers(0, len(value) - 1))
        value[idx] = _bend(draw, value[idx], depth + 1)
        return value
    if depth < 3 and isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        value[key] = _bend(draw, value[key], depth + 1)
        return value
    return draw(JSON_VALUES)


@st.composite
def documents(draw):
    """Bytes of a written document: junk, or a catalog document bent out of shape."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from([b"\xff\xfe\x00{", b"{}", b"[]", b""]) | st.binary(max_size=12))
    doc = catalog_document(draw(st.sampled_from(SMALL_NAMES)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if key in doc and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = _bend(draw, doc.get(key))
    return canonical_json(doc).encode()


def _assert_contract(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code != 2 or "error:" in err, (argv, err)


@pytest.fixture()
def small_limit(monkeypatch):
    monkeypatch.setenv("YBK_LIMIT", "4096")


@FUZZ
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_code_contract(tmp_path, capsys, small_limit, data):
    doc = tmp_path / "doc.json"
    doc.write_bytes(data.draw(documents()))
    source = st.one_of(
        st.sampled_from([f"catalog:{name}" for name in SMALL_NAMES]),
        st.just(str(doc)),
        st.sampled_from([str(tmp_path), "catalog:no-such-entry"]),
    )
    argv = []
    for item in data.draw(st.sampled_from(TEMPLATES)):
        argv += [item] if isinstance(item, str) else item(data.draw, source)
    if data.draw(st.booleans()):
        argv.append("--json")
    # the exhaustive N=3 census takes about 0.6 s; its own tests cover it
    if argv[0] in ("enumerate", "classify") and argv[2] == "3" and "--sample" not in argv:
        argv[2] = "2"
    _assert_contract(capsys, argv)


TOKENS = [
    "verify", "kgraph", "catalog", "semigroup", "--json", "--size", "--degree",
    "-1", "2", "catalog:flip-2", "--bogus", "--help",
]


@FUZZ
@given(argv=st.lists(st.sampled_from(TOKENS), max_size=4))
def test_malformed_argv_keeps_the_exit_code_contract(capsys, small_limit, argv):
    _assert_contract(capsys, argv)

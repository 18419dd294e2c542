"""Command-line surface.

Every subcommand reads JSON documents (a file path or `catalog:<name>`),
prints a plain-text report or, with --json, a canonical JSON report that is
byte-identical across runs.  Exit codes: 0 success or property holds, 1
property fails or a witness was found, 2 usage or parse error; an error
exits with its class's `exit_code`.

The grammar is declared once, in the table `_COMMANDS`.  A well-formed
argv (command names, exact option strings, a value after each option that
does not start with `-`, values that pass their type and choices, one token
per positional) is matched directly against the table, into the namespace
`parse_args` would return, and imports no argparse.  Every other argv (help,
usage errors, `--n=2`, abbreviations such as `--deg`, `--`, negative
numbers, a `catalog` name after an option) builds the argparse parser from
the same table, which parses it and prints all help and usage errors.
"""

from __future__ import annotations

import errno
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace

from . import catalog as _catalog
from . import serialize as _serialize
from .classify import census, classify, sample_ybe_solutions
from .constructions import (
    cartesian_product,
    derived_solution,
    disjoint_union_solution,
    left_derived_solution,
    level_solution,
    trivial_extension,
)
from .homology import _check_modulus, _groups, verify_complex
from .kgraph import (
    ThetaFamily,
    complete_diamond,
    normalize,
    periodicity,
    validate_kgraph,
)
from .semigroup import (
    check_cancellative,
    growth,
    presentations,
    semigroup_extension_check,
)
from .solution import (
    Solution,
    check_structure_equations,
    properties,
    ybe_witness,
)
from .errors import InvalidParams, ParseError, UnknownName, YbkError, check_int


def _read_text(source: str) -> str:
    """The text of a catalog entry, of stdin for `-`, or of a file opened once.

    `Path` reads `""` as `.` and drops a trailing slash.  A name that
    `Path.exists()` reads as missing (ENOENT, ENOTDIR, ELOOP, a NUL) is
    "no such file".
    """
    if source.startswith("catalog:"):
        name = source.split(":", 1)[1]
        return _serialize.canonical_json(_catalog.catalog_document(name))
    try:
        if source == "-":
            return sys.stdin.read()
        with open(Path(source), encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text (byte {exc.start})") from exc
    except IsADirectoryError as exc:
        raise ParseError(f"{source} is a directory, not a document") from exc
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            raise ParseError(f"no such file: {source}") from exc
        raise ParseError(f"cannot read {source}: {exc.strerror}") from exc
    except ValueError as exc:
        # a NUL or an unencodable character in the name
        if source == "-":
            raise
        raise ParseError(f"no such file: {source}") from exc


def _load_solution(source: str) -> Solution:
    # the catalog holds its solutions checked and frozen; a theta entry or an
    # unknown name takes the text path, which reports it
    if source.startswith("catalog:"):
        try:
            return _catalog.catalog_solution(source[len("catalog:"):])
        except UnknownName:
            pass
    return _serialize.parse_solution_document(_read_text(source)).solution


def _load_theta(source: str) -> ThetaFamily:
    return _serialize.parse_theta_document(_read_text(source)).family


def _parse_word(text: str) -> list[tuple[int, int]]:
    text = text.strip()
    if not text:
        return []
    out = []
    for token in text.split(","):
        colour, _, letter = token.partition(":")
        try:
            out.append((int(colour), int(letter)))
        except ValueError as exc:
            raise InvalidParams(
                f"word token {token!r} must look like colour:letter"
            ) from exc
    return out


def _emit(args, report: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(_serialize.canonical_json(report))
    else:
        for line in lines:
            print(line)


def _cmd_verify(args) -> int:
    R = _load_solution(args.input)
    witness = ybe_witness(R)
    ok = witness is None
    report = {"command": "verify", "ybe": ok, "witness": list(witness) if witness else None}
    lines = [f"YBE: {'yes' if ok else 'no'}"]
    if witness:
        lines.append(f"witness triple: {witness}")
    _emit(args, report, lines)
    return 0 if ok else 1


def _cmd_props(args) -> int:
    R = _load_solution(args.input)
    report = properties(R).as_dict()
    lines = [f"{key}: {'yes' if flag else 'no'}" for key, flag in report.items() if key != "witnesses"]
    lines += [f"witness[{key}]: {tuple(value)}" for key, value in report["witnesses"].items()]
    report["command"] = "props"
    _emit(args, report, lines)
    return 0


def _cmd_equations(args) -> int:
    R = _load_solution(args.input)
    report = check_structure_equations(R).as_dict()
    report["command"] = "equations"
    lines = [
        f"alpha homomorphism equation: {'holds' if report['alpha_homomorphic'] else 'fails'}",
        f"beta anti-homomorphism equation: {'holds' if report['beta_antihomomorphic'] else 'fails'}",
        f"compatibility equation: {'holds' if report['compatible'] else 'fails'}",
        f"all hold (equivalent to YBE): {'yes' if report['all_hold'] else 'no'}",
    ]
    lines += [f"witness[{key}]: {tuple(value)}" for key, value in report["witnesses"].items()]
    _emit(args, report, lines)
    return 0 if report["all_hold"] else 1


def _print_solution(solution: Solution) -> int:
    sys.stdout.write(_serialize.emit_solution_document(solution))
    return 0


def _cmd_level(args) -> int:
    R = _load_solution(args.input)
    return _print_solution(level_solution(R, args.n))


def _cmd_derive(args) -> int:
    R = _load_solution(args.input)
    if args.left:
        return _print_solution(left_derived_solution(R))
    return _print_solution(derived_solution(R))


def _cmd_product(args) -> int:
    return _print_solution(
        cartesian_product(_load_solution(args.left), _load_solution(args.right))
    )


def _cmd_extend_trivial(args) -> int:
    return _print_solution(
        trivial_extension(_load_solution(args.left), _load_solution(args.right))
    )


def _cmd_extend_glued(args) -> int:
    family = _load_theta(args.theta)
    if family.k != 2:
        raise InvalidParams("extend-glued needs a 2-colour theta document")
    return _print_solution(disjoint_union_solution(family))


def _cmd_union(args) -> int:
    return _print_solution(disjoint_union_solution(_load_theta(args.theta)))


def _cmd_kgraph_verify(args) -> int:
    family = _load_theta(args.theta)
    ok, witness = validate_kgraph(family)
    report = {
        "command": "kgraph-verify",
        "valid": ok,
        "witness": None
        if witness is None
        else {"triple": list(witness[:3]), "point": list(witness[3])},
    }
    lines = [f"valid k-graph: {'yes' if ok else 'no'}"]
    if witness:
        lines.append(f"failing triple {witness[:3]} at point {witness[3]}")
    _emit(args, report, lines)
    return 0 if ok else 1


def _cmd_kgraph_normalize(args) -> int:
    family = _load_theta(args.theta)
    word = normalize(family, _parse_word(args.word))
    report = {
        "command": "kgraph-normalize",
        "normal_form": [list(pair) for pair in word.letters()],
        "degree": list(word.degree),
    }
    _emit(args, report, [f"normal form: {word}", f"degree: {word.degree}"])
    return 0


def _cmd_kgraph_diamond(args) -> int:
    family = _load_theta(args.theta)
    mu = normalize(family, _parse_word(args.mu))
    nu = normalize(family, _parse_word(args.nu))
    mu_t, nu_t = complete_diamond(family, mu, nu, args.direction)
    report = {
        "command": "kgraph-diamond",
        "direction": args.direction,
        "mu_tilde": [list(pair) for pair in mu_t.letters()],
        "nu_tilde": [list(pair) for pair in nu_t.letters()],
    }
    _emit(args, report, [f"mu~: {mu_t}", f"nu~: {nu_t}"])
    return 0


def _cmd_periodic(args) -> int:
    R = _load_solution(args.input)
    result = periodicity(R, args.bound)
    report = {
        "command": "periodic",
        "periodic": result.periodic,
        "order": result.order,
        "bound": result.bound,
    }
    _emit(args, report, [str(result)])
    return 0 if result.periodic else 1


def _default_maxlen(size: int) -> int:
    # keeps the largest word table near 3e5 entries
    if size <= 2:
        return 6
    if size == 3:
        return 5
    return 4


def _cmd_semigroup(args) -> int:
    R = _load_solution(args.input)
    if args.max_len is None:
        args.max_len = _default_maxlen(R.size)
    code = 0
    report: dict = {"command": "semigroup", "max_len": args.max_len}
    lines: list[str] = []
    counts = growth(R, args.max_len)
    report["growth"] = list(counts)
    lines.append("growth: " + " ".join(str(c) for c in counts))
    if args.presentation:
        pres = presentations(R)
        report["presentation"] = {
            "generators": list(pres.generators),
            "chains": [[list(word) for word in chain] for chain in pres.chains],
        }
        lines.append(pres.semigroup_text)
        lines.append(pres.group_text)
    for wanted, check, ok_key, witness_key, label in (
        (args.cancel, check_cancellative, "cancellative", "cancellation_witness", "cancellative"),
        (args.extension_check, semigroup_extension_check, "extension_ok", "extension_witness", "braided extension"),
    ):
        if not wanted:
            continue
        ok, witness = check(R, args.max_len)
        report[ok_key] = ok
        report[witness_key] = None if witness is None else [
            list(w) if isinstance(w, tuple) else w for w in witness
        ]
        lines.append(f"{label} up to {args.max_len}: {'yes' if ok else 'no'}")
        if witness:
            lines.append(f"witness: {witness}")
        if not ok:
            code = 1
    _emit(args, report, lines)
    return code


def _cmd_enumerate(args) -> int:
    relation = {"yb-iso": "yb_iso", "conjugacy": "conjugacy"}[args.relation]
    if args.sample is not None:
        solutions = sample_ybe_solutions(args.size, args.sample, args.seed)
        result = classify(solutions, relation)
        header = (
            f"non-exhaustive sample, {args.sample} seeded draws (seed {args.seed})"
        )
        total = None
    else:
        result = census(args.size, relation)
        header = "exhaustive census"
        total = result.total_bijections
    report = {
        "command": "enumerate",
        "size": args.size,
        "relation": args.relation,
        "exhaustive": args.sample is None,
        "total_bijections": total,
        "solutions": len(result.solutions),
        "classes": len(result.classes),
        "class_sizes": [len(cls) for cls in result.classes],
        "representatives": [
            [list(pair) for pair in rep.table] for rep in result.representatives
        ],
    }
    lines = [
        f"size {args.size}: {header}",
        f"solutions: {len(result.solutions)}",
        f"{len(result.classes)} classes under {args.relation}",
    ]
    _emit(args, report, lines)
    return 0


def _modulus(coeff: str) -> int | None:
    """The modulus M of a --coeff value z/M, or None for z; M must be at least 2."""
    text = coeff.strip().lower()
    if text == "z":
        return None
    if text.startswith("z/"):
        try:
            modulus = int(text[2:])
        except ValueError:
            pass
        else:
            _check_modulus(modulus)
            return modulus
    raise InvalidParams(f"--coeff must be z or z/M, got {coeff!r}")


def _cmd_homology(args) -> int:
    R = _load_solution(args.input)
    # read before anything is built, so that a bad --coeff costs no boundary
    modulus = _modulus(args.coeff)
    report: dict = {"command": "homology", "degree": args.degree}
    lines = []
    if args.verify_complex:
        # checked first, so that an error names the degree given, not degree + 1
        check_int(args.degree, "degree", 0)
        report["chain_condition"] = verify_complex(R, args.degree + 1)
        lines.append(f"chain condition through degree {args.degree + 1}: ok")
    # one boundary factorization serves homology and cohomology
    integral, group = _groups(R, args.degree, modulus)
    report["homology"] = str(integral)
    lines.append(f"H_{args.degree} = {integral}")
    coefficients = "z" if modulus is None else f"z/{modulus}"
    report["cohomology"] = str(group)
    report["coefficients"] = coefficients
    lines.append(f"H^{args.degree}({coefficients.upper()}) = {group}")
    _emit(args, report, lines)
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        names = _catalog.catalog_names()
        _emit(args, {"command": "catalog", "names": names}, names)
        return 0
    sys.stdout.write(_serialize.canonical_json(_catalog.catalog_document(args.name)))
    return 0


# Every command once, as name: (handler, help, arguments), each argument a
# (name or option string, `add_argument` keywords) pair that follows --json;
# `kgraph`'s handler is its own table of commands.
_JSON = ("--json", {"action": "store_true", "help": "machine-readable canonical JSON"})
_INPUT = ("input", {})
_THETA = ("theta", {})
_LEFT_RIGHT = (("left", {}), ("right", {}))
_CENSUS = (_cmd_enumerate, "census and classification of small solutions", (
    ("--size", {"type": int, "required": True}),
    ("--relation", {"choices": ("yb-iso", "conjugacy"), "default": "yb-iso"}),
    ("--sample", {"type": int, "default": None, "help": "non-exhaustive seeded sampling"}),
    ("--seed", {"type": int, "default": 0}),
))
_KGRAPH = {
    "verify": (_cmd_kgraph_verify, "validate the triple identity", (_THETA,)),
    "normalize": (_cmd_kgraph_normalize, "normal form of a word", (
        _THETA, ("--word", {"required": True, "help": "comma-separated colour:letter pairs"}),
    )),
    "diamond": (_cmd_kgraph_diamond, "complete a factorization diamond", (
        _THETA,
        ("--mu", {"required": True}),
        ("--nu", {"required": True}),
        ("--direction", {"choices": ("pullback", "pushout"), "required": True}),
    )),
}
_COMMANDS = {
    "verify": (_cmd_verify, "decide the braid relation", (_INPUT,)),
    "props": (_cmd_props, "structural property report", (_INPUT,)),
    "equations": (_cmd_equations, "the three coordinate-map equations", (_INPUT,)),
    "level": (_cmd_level, "emit the level-n solution document", (_INPUT, ("--n", {"type": int, "required": True}))),
    "derive": (_cmd_derive, "emit the derived solution document", (
        _INPUT, ("--left", {"action": "store_true", "help": "the mirror-shape variant"}),
    )),
    "product": (_cmd_product, "cartesian product of two solutions", _LEFT_RIGHT),
    "extend-trivial": (_cmd_extend_trivial, "trivial extension of two solutions", _LEFT_RIGHT),
    "extend-glued": (_cmd_extend_glued, "glued identity extension from a 2-colour theta document", (_THETA,)),
    "union": (_cmd_union, "disjoint-union solution of a theta document", (_THETA,)),
    "kgraph": (_KGRAPH, "k-graph operations", ()),
    "periodic": (_cmd_periodic, "search for a level with identity solution", (
        _INPUT, ("--bound", {"type": int, "default": 6}),
    )),
    "semigroup": (_cmd_semigroup, "structure semigroup reports", (
        _INPUT,
        ("--max-len", {"type": int, "default": None, "help": "default 6 for two elements, 5 for three, 4 beyond"}),
        ("--cancel", {"action": "store_true"}),
        ("--presentation", {"action": "store_true"}),
        ("--extension-check", {"action": "store_true"}),
    )),
    "enumerate": _CENSUS,
    "classify": _CENSUS,
    "homology": (_cmd_homology, "integral homology and cohomology", (
        _INPUT,
        ("--degree", {"type": int, "required": True}),
        ("--coeff", {"default": "z", "help": "z or z/M"}),
        ("--verify-complex", {"action": "store_true"}),
    )),
    "catalog": (_cmd_catalog, "list or emit bundled inputs", (("name", {"nargs": "?", "default": None}),)),
}


@cache
def _build_parser():
    """The argparse parser of `_COMMANDS`, built on the first argv that
    `_match` declines and shared by later ones.

    `parse_args` leaves it unchanged, so repeated calls in one process see
    the same parser a fresh process would build.
    """
    import argparse

    def add_commands(parser, dest, table):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (handler, summary, arguments) in table.items():
            p = sub.add_parser(name, help=summary)
            if type(handler) is dict:
                add_commands(p, f"{name}_command", handler)
                continue
            p.set_defaults(handler=handler)
            for flag, keywords in (_JSON, *arguments):
                p.add_argument(flag, **keywords)

    parser = argparse.ArgumentParser(
        prog="ybk",
        description="Set-theoretic Yang-Baxter solutions and single-vertex k-graphs.",
    )
    add_commands(parser, "command", _COMMANDS)
    return parser


def _forms(table: dict, dest: str, head: dict) -> dict:
    """`table` as `_match` reads it: a dict of its commands, each a sub-table's
    dict or a leaf's (defaults, options, positionals, required options).

    The defaults are those of `parse_args`, in its order: the command dests
    walked (`head`, then `dest`), each argument's (a declared default, else
    False for store_true and None for the rest), then the handler.  An
    option's dest is its string without the leading dashes, `-` read as `_`;
    options and positionals map to (dest, keywords).
    """
    grammar = {}
    for name, (handler, _, arguments) in table.items():
        defaults = {**head, dest: name}
        if type(handler) is dict:
            grammar[name] = _forms(handler, f"{name}_command", defaults)
            continue
        options, positionals, required = {}, [], set()
        for flag, keywords in (_JSON, *arguments):
            key = flag.lstrip("-").replace("-", "_") if flag[0] == "-" else flag
            defaults[key] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
            if flag[0] != "-":
                positionals.append((key, keywords))
                continue
            options[flag] = key, keywords
            if keywords.get("required"):
                required.add(flag)
        grammar[name] = {**defaults, "handler": handler}, options, positionals, required
    return grammar


@cache
def _grammar():
    """`_forms` of `_COMMANDS`, built on the first `main` call."""
    return _forms(_COMMANDS, "command", {})


def _match(argv: list):
    """The namespace `parse_args(argv)` returns, read off `_COMMANDS`, or None
    when argparse alone must judge argv: help, an unknown name, an option
    spelling other than an exact option string, a missing or dash-led option
    value, a bad value or count.  A trailing optional positional takes its
    token only before any option, and its default when it has none: how
    argparse reads a token after an option there differs between Python
    versions."""
    grammar, index = _grammar(), 0
    while type(grammar) is dict:
        if index == len(argv) or type(argv[index]) is not str:
            return None
        grammar = grammar.get(argv[index])
        index += 1
    if grammar is None:
        return None
    defaults, options, positionals, required = grammar
    optional = bool(positionals) and positionals[-1][1].get("nargs") == "?"
    values, free, stored, seen = dict(defaults), [], [], set()
    tokens = iter(argv[index:])
    for token in tokens:
        if type(token) is not str:
            return None
        if token[:1] != "-" or token == "-":
            if optional and seen:
                return None
            free.append(token)
            continue
        option = options.get(token)
        if option is None:
            return None
        seen.add(token)
        key, keywords = option
        if keywords.get("action") == "store_true":
            values[key] = True
            continue
        token = next(tokens, None)
        if type(token) is not str or token[:1] == "-":
            return None
        stored.append((option, token))
    if not len(positionals) - optional <= len(free) <= len(positionals) or not required <= seen:
        return None
    stored.extend(zip(positionals, free))
    # a value its type or choices reject is argparse's to report
    for (key, keywords), token in stored:
        try:
            value = keywords.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[key] = value
    return SimpleNamespace(**values)


def _parse(argv):
    """`_build_parser().parse_args(argv)`: `_match` takes a well-formed argv,
    and argparse parses, prints and exits on every other."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one command on `argv` (default `sys.argv[1:]`); return its exit code.

    A usage error exits through argparse with code 2; a `YbkError` prints one
    `error:` line and returns its class's `exit_code`.
    """
    args = _parse(argv)
    try:
        return args.handler(args)
    except YbkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        # a resource failure, not a failed property; any other exception is a bug and keeps its traceback
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Every subcommand reads JSON documents (a file path or `catalog:<name>`),
prints a plain-text report or, with --json, a canonical JSON report that is
byte-identical across runs.  Exit codes: 0 success or property holds, 1
property fails or a witness was found, 2 usage or parse error; an error
exits with its class's `exit_code`.

The grammar is declared once, by the `add_argument` calls of `_build_parser`.
A well-formed argv (command names, exact option strings, a value after
each option that does not start with `-`, values that pass their type and
choices, and one token per positional) is matched directly against those
declared actions, into the namespace `parse_args` would return.  Every
other argv, and every command with an optional positional (`catalog`), is
parsed by argparse, which prints all help and usage errors.
"""

from __future__ import annotations

import argparse
import errno
import sys
from functools import cache
from pathlib import Path

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
    report["command"] = "props"
    lines = [
        f"{key}: {'yes' if report[key] else 'no'}"
        for key in (
            "is_bijection",
            "is_ybe",
            "involutive",
            "square_free",
            "non_degenerate",
            "symmetric",
            "derived_type",
        )
    ]
    for key, value in report["witnesses"].items():
        lines.append(f"witness[{key}]: {tuple(value)}")
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and shared by later ones.

    `parse_args` leaves it unchanged, so repeated calls in one process see
    the same parser a fresh process would build.
    """
    parser = argparse.ArgumentParser(
        prog="ybk",
        description="Set-theoretic Yang-Baxter solutions and single-vertex k-graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, handler, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable canonical JSON")
        return p

    p = add(sub, "verify", _cmd_verify, help="decide the braid relation")
    p.add_argument("input")

    p = add(sub, "props", _cmd_props, help="structural property report")
    p.add_argument("input")

    p = add(sub, "equations", _cmd_equations, help="the three coordinate-map equations")
    p.add_argument("input")

    p = add(sub, "level", _cmd_level, help="emit the level-n solution document")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)

    p = add(sub, "derive", _cmd_derive, help="emit the derived solution document")
    p.add_argument("input")
    p.add_argument("--left", action="store_true", help="the mirror-shape variant")

    p = add(sub, "product", _cmd_product, help="cartesian product of two solutions")
    p.add_argument("left")
    p.add_argument("right")

    p = add(sub, "extend-trivial", _cmd_extend_trivial, help="trivial extension of two solutions")
    p.add_argument("left")
    p.add_argument("right")

    p = add(sub, "extend-glued", _cmd_extend_glued, help="glued identity extension from a 2-colour theta document")
    p.add_argument("theta")

    p = add(sub, "union", _cmd_union, help="disjoint-union solution of a theta document")
    p.add_argument("theta")

    kgraph = sub.add_parser("kgraph", help="k-graph operations")
    ksub = kgraph.add_subparsers(dest="kgraph_command", required=True)

    p = add(ksub, "verify", _cmd_kgraph_verify, help="validate the triple identity")
    p.add_argument("theta")

    p = add(ksub, "normalize", _cmd_kgraph_normalize, help="normal form of a word")
    p.add_argument("theta")
    p.add_argument("--word", required=True, help="comma-separated colour:letter pairs")

    p = add(ksub, "diamond", _cmd_kgraph_diamond, help="complete a factorization diamond")
    p.add_argument("theta")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--direction", choices=("pullback", "pushout"), required=True)

    p = add(sub, "periodic", _cmd_periodic, help="search for a level with identity solution")
    p.add_argument("input")
    p.add_argument("--bound", type=int, default=6)

    p = add(sub, "semigroup", _cmd_semigroup, help="structure semigroup reports")
    p.add_argument("input")
    p.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="default 6 for two elements, 5 for three, 4 beyond",
    )
    p.add_argument("--cancel", action="store_true")
    p.add_argument("--presentation", action="store_true")
    p.add_argument("--extension-check", action="store_true")

    for name in ("enumerate", "classify"):
        p = add(sub, name, _cmd_enumerate, help="census and classification of small solutions")
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--relation", choices=("yb-iso", "conjugacy"), default="yb-iso")
        p.add_argument("--sample", type=int, default=None, help="non-exhaustive seeded sampling")
        p.add_argument("--seed", type=int, default=0)

    p = add(sub, "homology", _cmd_homology, help="integral homology and cohomology")
    p.add_argument("input")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--coeff", default="z", help="z or z/M")
    p.add_argument("--verify-complex", action="store_true")

    p = add(sub, "catalog", _cmd_catalog, help="list or emit bundled inputs")
    p.add_argument("name", nargs="?", default=None)

    return parser


def _grammar_of(parser: argparse.ArgumentParser, head: dict):
    """What `_match` reads of `parser`: a dict of its sub-commands, its
    (defaults, options, positionals, required options) if it is a leaf, or
    None if it declares anything `_match` leaves to argparse.  Of the
    positionals only the last may be optional (nargs "?", no choices).

    `head` holds the sub-command dests walked so far, in the order
    `parse_args` adds them to the namespace.
    """
    actions = [action for action in parser._actions if type(action) is not argparse._HelpAction]
    if len(actions) == 1 and type(actions[0]) is argparse._SubParsersAction and not parser._defaults:
        dest = actions[0].dest
        return {
            name: _grammar_of(sub, {**head, dest: name})
            for name, sub in actions[0].choices.items()
        }
    defaults, options, positionals, required = {}, {}, [], set()
    for action in actions:
        if (
            type(action) not in (argparse._StoreAction, argparse._StoreTrueAction)
            or action.nargs not in (None, 0, "?")
            or (action.nargs == "?" and (action.option_strings or action.choices is not None))
            or (isinstance(action.default, str) and action.type is not None)
        ):
            return None
        if action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
        if not action.option_strings:
            positionals.append(action)
        elif action.required:
            required.add(action)
        options.update(dict.fromkeys(action.option_strings, action))
    if any(action.nargs == "?" for action in positionals[:-1]):
        return None
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return {**head, **defaults}, options, positionals, required


@cache
def _grammar():
    """`_grammar_of` the parser, built on the first `main` call."""
    return _grammar_of(_build_parser(), {})


_REJECTED = object()


def _value(action, token: str):
    """`token` as `action` stores it, or `_REJECTED` where argparse would exit."""
    if action.type is not None:
        try:
            token = action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return _REJECTED
    if action.choices is not None and token not in action.choices:
        return _REJECTED
    return token


def _match(argv: list):
    """The namespace `parse_args(argv)` returns, read off the declared actions,
    or None when argparse alone must judge argv: help, an unknown name, an
    option spelling other than an exact option string, a missing or
    dash-led option value, a bad value or count, or a parser with other
    kinds of argument.  A trailing optional positional takes its token only
    before any option, and its default when it has none: how argparse reads
    a token after an option there differs between Python versions."""
    grammar, index = _grammar(), 0
    while type(grammar) is dict:
        if index == len(argv) or type(argv[index]) is not str:
            return None
        grammar = grammar.get(argv[index])
        index += 1
    if grammar is None:
        return None
    defaults, options, positionals, required = grammar
    optional = bool(positionals) and positionals[-1].nargs == "?"
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
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        token = next(tokens, None)
        if type(token) is not str or token[:1] == "-":
            return None
        stored.append((action, token))
    if not len(positionals) - optional <= len(free) <= len(positionals) or not required <= seen:
        return None
    stored.extend(zip(positionals, free))
    for action, token in stored:
        value = _value(action, token)
        if value is _REJECTED:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
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

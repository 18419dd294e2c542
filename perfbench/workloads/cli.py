"""cli: hundreds of short `ybk` commands, the way a shell user runs them.

Every subcommand runs at small sizes on `catalog:` names and on seeded
documents written during set-up.  Each invocation of the real tool is a
fresh process, but `kgraph._validate` caches every family it sees for the
life of the process.  So each `kgraph verify` and `kgraph normalize`
command gets a family no other command uses, and these families are new
every round.  They read their family from stdin, so that set-up does not
write and delete thousands of files per run.  The time goes to argument
parsing, documents and the catalog.

Six inputs break the CLI's exit-code contract (exit 2 with one `error:`
line and no exception); they run every round and count as failed until
they are mended.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import reference as ref
from harness import Job

from .common import random_bijection, random_perm
from . import homology as homology_checks

NAME = "cli"

CATALOG_SOLUTIONS = (
    [f"{fam}-{n}" for fam in ("identity", "flip", "double-shift", "shift") for n in range(2, 7)]
    + [f"dihedral-{n}" for n in range(3, 7)]
    + ["extension-degenerate-3"]
)
CATALOG_NAMES = sorted(CATALOG_SOLUTIONS + ["theta-identity-3", "theta-mixed-3"])
# entries on at most three points keep every command short
SMALL_CATALOG = [name for name in CATALOG_SOLUTIONS if name[-1] in "23"]


def catalog_table(name):
    if name == "extension-degenerate-3":
        return ref.trivial_extension(ref.builtin_table("identity", 2), 2, ref.builtin_table("identity", 1), 1)
    family, n = name.rsplit("-", 1)
    return ref.builtin_table(family.replace("-", "_"), int(n))


def _size(table):
    return int(round(len(table) ** 0.5))


def _doc(table):
    return {"format_version": "1", "size": _size(table), "table": [list(p) for p in table]}


def _theta_doc(k, sizes, maps):
    return {
        "format_version": "1",
        "k": k,
        "sizes": list(sizes),
        "maps": {f"{i},{j}": [list(p) for p in tab] for (i, j), tab in maps.items()},
    }


def _contract(expected_code):
    """Shared shape of a reply: the exit code, and one `error:` line on failure exits."""

    def check(result):
        got, out, err = result
        if got != expected_code:
            return f"exit {got}, expected {expected_code}: {err.strip()[:120]}"
        if expected_code == 2 or (expected_code == 1 and not out):
            lines = err.splitlines()
            if len(lines) != 1 or not lines[0].startswith("error:") or out:
                return f"expected one error line, got {err!r}"
        return None

    return check


def _json_job(name, argv, expect, fault=None, stdin=""):
    """A command whose stdout is one JSON object.

    `expect()` gives the contract's exit code and an `inspect(obj)` check (or
    None).  It runs the reference computations, so it is called at the first
    check, after the timing, not during set-up.
    """
    memo = []

    def check(result):
        if not memo:
            memo.append(expect())
        code, inspect = memo[0]
        why = _contract(code)(result)
        if why or inspect is None:
            return why
        try:
            obj = json.loads(result[1])
        except ValueError:
            return f"stdout is not JSON: {result[1][:80]!r}"
        return inspect(obj)

    return Job(name, "cli", "main", tuple(argv), check, fault=fault, capture=True, stdin=stdin)


def _expect_table(table):
    return lambda obj: None if [tuple(p) for p in obj["table"]] == list(table) else "emitted table is wrong"


def _expect_fields(**fields):
    def inspect(obj):
        for key, value in fields.items():
            if obj.get(key) != value:
                return f"{key}={obj.get(key)!r}, expected {value!r}"
        return None

    return inspect


class _Round:
    """Jobs and the documents they read, written once during set-up."""

    def __init__(self, ctx, r, tag):
        self.ctx = ctx
        self.rng = ctx.rng(r, tag)
        self.dir = ctx.write(ctx.workdir / f"{tag}{r}", None)
        self.count = 0
        self.jobs = []

    def write(self, obj):
        return self.write_text(json.dumps(obj, separators=(",", ":")) + "\n")

    def write_text(self, text):
        self.count += 1
        return str(self.ctx.write(self.dir / f"d{self.count}.json", text))

    def census_table(self, n):
        pool = self.ctx.n3 if n == 3 else self.ctx.remember(("n2",), lambda: ref.exhaustive_solutions(2))
        return ref.relabel(self.rng.choice(pool), n, random_perm(self.rng, n))

    def solution_input(self, ybe=True):
        """(argv input, table): a catalog name or a written document."""
        if ybe and self.rng.random() < 0.3:
            name = self.rng.choice(SMALL_CATALOG)
            return f"catalog:{name}", catalog_table(name)
        n = self.rng.choice((2, 3))
        table = self.census_table(n) if ybe else random_bijection(self.rng, n)
        return self.write(_doc(table)), table

    def family(self, k, valid=True):
        """(argv input, (k, sizes, maps)) for a constant family of one table, written to a file."""
        spec = self._family_spec(k, valid)
        return self.write(_theta_doc(*spec)), spec

    def piped_family(self, k, valid=True):
        """(document text, (k, sizes, maps)) for a family a command reads from stdin."""
        spec = self._family_spec(k, valid)
        return json.dumps(_theta_doc(*spec), separators=(",", ":")) + "\n", spec

    def _family_spec(self, k, valid):
        n = self.rng.choice((2, 3))
        table = self.census_table(n) if valid else random_bijection(self.rng, n)
        return k, (n,) * k, ref.constant_maps(table, k)

    def add(self, name, argv, expect, fault=None, stdin=""):
        self.jobs.append(_json_job(name, argv, expect, fault, stdin))


def _verify(rd):
    for q in range(30):
        src, table = rd.solution_input(ybe=q % 5 != 0)

        def expect(table=table):
            witness = ref.braid_witness(table, _size(table))
            return 0 if witness is None else 1, _expect_fields(ybe=witness is None, witness=list(witness) if witness else None)

        rd.add("verify", ["verify", src, "--json"], expect)


def _props(rd):
    for q in range(24):
        src, table = rd.solution_input(ybe=q % 4 != 0)
        rd.add("props", ["props", src, "--json"], lambda table=table: (0, _expect_fields(**ref.property_flags(table, _size(table)))))


def _equations(rd):
    for q in range(10):
        src, table = rd.solution_input(ybe=q % 3 != 0)

        def expect(table=table):
            eqs = ref.structure_equations(table, _size(table))
            return 0 if eqs["all_hold"] else 1, _expect_fields(**eqs)

        rd.add("equations", ["equations", src, "--json"], expect)


def _level_table(table):
    n = _size(table)
    size = n * n
    return tuple(ref.level_table_entry(table, n, 2, x, y) for x in range(1, size + 1) for y in range(1, size + 1))


def _constructions(rd):
    for _ in range(8):
        src, table = rd.solution_input()
        rd.add("level", ["level", src, "--n", "2"], lambda table=table: (0, _expect_table(_level_table(table))))
    for q in range(8):
        src, table = rd.solution_input()
        left = q % 2 == 1

        def expect(table=table, left=left):
            n = _size(table)
            if not ref.property_flags(table, n)["non_degenerate"]:
                return 1, None
            return 0, _expect_table(ref.derived(table, n, left))

        rd.add("derive", ["derive", src] + (["--left"] if left else []), expect)
    for name, builder in (("product", ref.cartesian_product), ("extend-trivial", ref.trivial_extension)):
        for _ in range(6):
            (a_src, a), (b_src, b) = rd.solution_input(), rd.solution_input()
            rd.add(name, [name, a_src, b_src], lambda a=a, b=b, f=builder: (0, _expect_table(f(a, _size(a), b, _size(b)))))
    for _ in range(4):
        sx, sy = rd.rng.choice(((2, 2), (2, 3), (3, 2)))
        pairs = [(t, s) for t in range(1, sy + 1) for s in range(1, sx + 1)]
        rd.rng.shuffle(pairs)
        src = rd.write(_theta_doc(2, (sx, sy), {(1, 2): pairs}))
        rd.add("extend-glued", ["extend-glued", src], lambda sx=sx, sy=sy, pairs=pairs: (0, _expect_table(ref.glued_extension(sx, sy, pairs))))
    for q in range(6):
        src, spec = rd.family(2 if q % 2 else 3)
        rd.add("union", ["union", src], lambda spec=spec: (0, _expect_table(ref.disjoint_union(ref.PlainFamily(*spec)))))


def _kgraph_cached(rd):
    """Commands that go through the `_validate` cache."""
    for q in range(8):
        doc, spec = rd.piped_family(3, valid=q % 3 != 0)

        def expect(spec=spec):
            witness = ref.triple_identity_witness(ref.PlainFamily(*spec))
            fields = {"valid": witness is None, "witness": None}
            if witness:
                fields["witness"] = {"triple": list(witness[:3]), "point": list(witness[3])}
            return 0 if witness is None else 1, _expect_fields(**fields)

        rd.add("kgraph verify", ["kgraph", "verify", "-", "--json"], expect, stdin=doc)
    _normalize(rd, 3, piped=True)


def _normalize(rd, k, piped=False):
    for _ in range(10):
        src, spec = rd.piped_family(k) if piped else rd.family(k)
        n = spec[1][0]
        word = [(rd.rng.randint(1, k), rd.rng.randint(1, n)) for _ in range(rd.rng.randint(4, 12))]
        text = ",".join(f"{c}:{s}" for c, s in word)

        def expect(spec=spec, word=word):
            nf = ref.normal_form(ref.PlainFamily(*spec), word)
            degree = [sum(1 for c, _ in word if c == colour) for colour in range(1, spec[0] + 1)]
            return 0, _expect_fields(normal_form=[list(p) for p in nf], degree=degree)

        argv = ["kgraph", "normalize", "-" if piped else src, "--word", text, "--json"]
        rd.add("kgraph normalize", argv, expect, stdin=src if piped else "")


def _diamond_check(plain, mu, nu, direction):
    def inspect(obj):
        mu_t = [tuple(p) for p in obj["mu_tilde"]]
        nu_t = [tuple(p) for p in obj["nu_tilde"]]
        if len(mu_t) != len(mu) or len(nu_t) != len(nu):
            return "completion changed degrees"
        if direction == "pullback":
            left, right = mu + nu_t, nu + mu_t
        else:
            left, right = mu_t + nu, nu_t + mu
        ok = ref.normal_form(plain, left) == ref.normal_form(plain, right)
        return None if ok else f"{direction} diamond equation fails"

    return inspect


def _kgraph_diamond(rd):
    for q in range(6):
        src, spec = rd.family(2)
        direction = ("pullback", "pushout")[q % 2]
        n = spec[1][0]
        mu = [(1, rd.rng.randint(1, n)) for _ in range(rd.rng.randint(1, 4))]
        nu = [(2, rd.rng.randint(1, n)) for _ in range(rd.rng.randint(1, 4))]
        argv = ["kgraph", "diamond", src, "--mu", ",".join(f"{c}:{s}" for c, s in mu),
                "--nu", ",".join(f"{c}:{s}" for c, s in nu), "--direction", direction, "--json"]

        def expect(spec=spec, mu=mu, nu=nu, direction=direction):
            plain = ref.PlainFamily(*spec)
            if not ref.unique_fibers(plain, direction):
                return 1, None
            return 0, _diamond_check(plain, mu, nu, direction)

        rd.add("kgraph diamond", argv, expect)


def _semigroup_expectation(table, flags):
    n = _size(table)
    maxlen = 4 if n == 2 else 3
    fields = {"growth": list(ref.growth_counts(table, n, maxlen)), "max_len": maxlen}
    code = 0
    if "--presentation" in flags:
        chains = {}
        for word_code, label in enumerate(ref.word_classes(table, n, 2)):
            chains.setdefault(label, []).append(list(ref.decode(word_code, n, 2)))
        fields["presentation"] = {
            "generators": [f"e{x}" for x in range(1, n + 1)],
            "chains": [c for _, c in sorted(chains.items()) if len(c) > 1],
        }
    if "--cancel" in flags:
        fields["cancellative"] = ref.cancellative(table, n, maxlen)
        code = 0 if fields["cancellative"] else 1
    if "--extension-check" in flags:
        fields["extension_ok"] = True
    return code, _expect_fields(**fields)


def _semigroup_periodic(rd):
    for q in range(8):
        if q % 4 == 0:
            table = ref.builtin_table("identity", rd.rng.choice((2, 3)))
            src = rd.write(_doc(table))
        else:
            src, table = rd.solution_input()

        def expect(table=table):
            order = rd.ctx.remember(("period", table), lambda: ref.periodic_order(table, _size(table), 3))
            return 0 if order else 1, _expect_fields(periodic=order is not None, order=order, bound=3)

        rd.add("periodic", ["periodic", src, "--bound", "3", "--json"], expect)
    for q in range(12):
        src, table = rd.solution_input()
        maxlen = 4 if _size(table) == 2 else 3
        flags = ["--presentation", "--cancel", "--extension-check"][: q % 4]
        rd.add("semigroup", ["semigroup", src, "--max-len", str(maxlen), *flags, "--json"],
               lambda table=table, flags=flags: _semigroup_expectation(table, flags))


def _census2_expectation(ctx, relation):
    groups = {}
    for table in ctx.remember(("n2",), lambda: ref.exhaustive_solutions(2)):
        groups.setdefault(ref.canonical_form(table, 2, relation), []).append(table)
    classes = sorted(groups.values())
    return 0, _expect_fields(solutions=5, total_bijections=24, classes=len(classes),
                             class_sizes=[len(c) for c in classes],
                             representatives=[[list(p) for p in c[0]] for c in classes])


def _enumerate(rd):
    for relation, key in (("yb-iso", "yb_iso"), ("conjugacy", "conjugacy")):
        rd.add(f"enumerate(2,{relation})", ["enumerate", "--size", "2", "--relation", relation, "--json"],
               lambda key=key: _census2_expectation(rd.ctx, key))

    def inspect(obj):
        known = rd.ctx.remember(("n3-set",), lambda: set(rd.ctx.n3))
        reps = [tuple(tuple(p) for p in rep) for rep in obj["representatives"]]
        if any(rep not in known for rep in reps) or sum(obj["class_sizes"]) != obj["solutions"]:
            return "sampled representatives are not N=3 solutions"
        return None

    for relation in ("yb-iso", "conjugacy"):
        seed = rd.rng.randrange(10**6)
        rd.add(f"enumerate(3,sample,{relation})",
               ["enumerate", "--size", "3", "--sample", "300", "--seed", str(seed), "--relation", relation, "--json"],
               lambda: (0, inspect))


def _homology(rd):
    for q in range(16):
        src, table = rd.solution_input()
        n = _size(table)
        degree = 1 + q % 2
        p = rd.rng.choice((None, 2, 3))
        argv = ["homology", src, "--degree", str(degree), "--coeff", "z" if p is None else f"z/{p}"]
        if q % 4 == 0:
            argv.append("--verify-complex")

        checks = [
            ("homology", homology_checks.check_homology(rd.ctx, table, n, degree)),
            ("cohomology", homology_checks.check_cohomology(rd.ctx, table, n, degree) if p is None
             else homology_checks.check_mod(rd.ctx, table, n, degree, p)),
        ]

        def inspect(obj, checks=checks, verify=q % 4 == 0):
            for key, check in checks:
                free, torsion = ref.parse_group(obj[key])
                why = check(SimpleNamespace(free_rank=free, torsion=torsion))
                if why:
                    return f"{key}: {why}"
            if verify and obj.get("chain_condition") is not True:
                return "chain condition reported violated"
            return None

        rd.add("homology", argv + ["--json"], lambda inspect=inspect: (0, inspect))


def _catalog(rd):
    for _ in range(2):
        rd.add("catalog", ["catalog", "--json"], lambda: (0, _expect_fields(names=CATALOG_NAMES)))
    for _ in range(8):
        name = rd.rng.choice(CATALOG_SOLUTIONS)
        rd.add("catalog <name>", ["catalog", name], lambda name=name: (0, _expect_table(catalog_table(name))))


def _errors(rd):
    """Bad inputs the contract already handles: exit 2 (usage) or 1 (property)."""
    bad_json = rd.write_text("{not json")
    src, _ = rd.family(2)
    non_ybe = rd.write(_doc(((1, 1), (1, 2), (2, 2), (2, 1))))
    for name, argv, code in (
        ("unknown catalog name", ["verify", "catalog:no-such-entry", "--json"], 2),
        ("missing file", ["verify", str(rd.dir / "missing.json"), "--json"], 2),
        ("malformed JSON", ["props", bad_json, "--json"], 2),
        ("theta document as solution", ["verify", src, "--json"], 2),
        ("derive of a non-solution", ["derive", non_ybe], 1),
        ("level --n 0", ["level", non_ybe, "--n", "0"], 2),
    ):
        rd.add(f"error: {name}", argv, lambda code=code: (code, None))


def _known_faults(rd):
    """The six inputs that break the exit-code contract today; none depends on the seed."""
    directory = rd.ctx.write(rd.dir / "a-directory", None)
    binary = rd.ctx.write(rd.dir / "not-utf8.json", b"\xff\xfe\x00{")
    bool_size = rd.ctx.write(rd.dir / "bool-size.json", '{"format_version":"1","size":true,"table":[[1,1]]}\n')
    for fault, argv in (
        ("cli-directory-path (IsADirectoryError)", ["verify", str(directory), "--json"]),
        ("cli-non-utf8-file (UnicodeDecodeError)", ["verify", str(binary), "--json"]),
        ("cli-coeff-z/abc (ValueError)", ["homology", "catalog:flip-2", "--degree", "1", "--coeff", "z/abc", "--json"]),
        ("cli-degree-minus-1 (ValueError from boundary_matrix)", ["homology", "catalog:flip-2", "--degree", "-1", "--json"]),
        ("cli-size-true (accepted as size 1, exit 0)", ["verify", str(bool_size), "--json"]),
        ("cli-sample-minus-3 (exit 0)", ["enumerate", "--size", "2", "--sample", "-3", "--json"]),
    ):
        rd.add(f"fault: {fault}", argv, lambda: (2, None), fault=fault)


def _kgraph_two_colours(rd):
    """Two-colour words never reach the `_validate` cache."""
    _normalize(rd, 2)
    _kgraph_diamond(rd)


SHARED_PARTS = (_catalog, _verify, _props, _equations, _constructions, _kgraph_two_colours,
                _semigroup_periodic, _enumerate, _homology, _errors, _known_faults)


def _jobs(ctx, r, tag, parts):
    rd = _Round(ctx, r, tag)
    for part in parts:
        part(rd)
    return rd.jobs


def build(ctx, r):
    jobs = ctx.remember(("shared",), lambda: _jobs(ctx, 0, "shared", SHARED_PARTS)) + _jobs(ctx, r, "fresh", (_kgraph_cached,))

    def interleave():
        order = list(range(len(jobs)))
        ctx.rng(0, "order").shuffle(order)
        return order

    # the same interleaving every round, so each position keeps its command
    return [jobs[i] for i in ctx.remember(("order",), interleave)]

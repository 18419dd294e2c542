"""words: structure-semigroup classes, level maps, periodicity, k-graph
validation, normal forms and diamond completion.

The word-code kernel, lazy periodicity and the diamond fill all show here;
no Smith form and no census search run.
"""

from __future__ import annotations

from math import comb

import reference as ref
from harness import Job

from .common import involutive_nondegenerate, random_bijection, random_perm

NAME = "words"

DIHEDRAL3 = ref.builtin_table("dihedral", 3)
PERIODICITY_BOUND = 3
LEVEL_SAMPLES = 300
NORMALIZE_JOBS = 10
WORD_LENGTH = 150
DIAMOND_SIDE = 100
# a 1 x 2000-letter diamond recurses once per letter in kgraph._complete
DEEP_DIAMOND = 2000


def _census_tables(ctx):
    small = ctx.remember(("n<=2",), lambda: ref.exhaustive_solutions(1) + ref.exhaustive_solutions(2))
    return [(t, int(round(len(t) ** 0.5))) for t in small] + [(t, 3) for t in ctx.n3]


def _check_graded(ctx, table, n, length):
    def check(result):
        labels = ctx.remember(("classes", table, length), lambda: ref.word_classes(table, n, length))
        # one byte per word code keeps the check's memory below the result's
        covered = bytearray(n**length)
        for members in result.classes:
            for w in members:
                code = ref.encode(w, n)
                if len(w) != length or not 0 <= code < n**length or covered[code]:
                    return "classes do not partition the words"
                covered[code] = 1
        if sum(covered) != n**length:
            return "classes miss some words"
        seen = set()
        for members in result.classes:
            label = {labels[ref.encode(w, n)] for w in members}
            if len(label) != 1 or label & seen:
                return "classes differ from the breadth-first rewrite classes"
            seen |= label
            if list(members) != sorted(members):
                return "class members are not sorted"
        if len(seen) != len(set(labels)):
            return "wrong number of classes"
        if list(result.reps) != sorted(result.reps) or list(result.reps) != [m[0] for m in result.classes]:
            return "representatives are not the least members in order"
        return None

    return check


def _check_growth(ctx, table, n, maxlen):
    def check(result):
        expected = ctx.remember(("growth", table, maxlen), lambda: ref.growth_counts(table, n, maxlen))
        if tuple(result) != expected:
            return f"growth {tuple(result)}, breadth-first search gives {expected}"
        if involutive_nondegenerate(table, n):
            binomial = tuple(comb(k + n - 1, n - 1) for k in range(maxlen + 1))
            if expected != binomial:
                return "involutive non-degenerate growth differs from C(n+N-1, N-1)"
        return None

    return check


def _check_cancel(ctx, table, n, maxlen):
    def check(result):
        ok, witness = result
        expected = ctx.remember(("cancel", table, maxlen), lambda: ref.cancellative(table, n, maxlen))
        if ok != expected:
            return f"cancellative={ok}, reference says {expected}"
        if not ok and involutive_nondegenerate(table, n):
            return "an involutive non-degenerate solution must give a cancellative semigroup"
        if ok:
            return None if witness is None else "witness given although cancellative"
        side, a, b, c = witness
        left, right = (a + b, a + c) if side == "left" else (b + a, c + a)
        if not ref.same_class(table, n, left, right) or ref.same_class(table, n, b, c):
            return f"witness {witness} does not replay"
        return None

    return check


def _check_holds(what):
    return lambda result: None if tuple(result) == (True, None) else f"{what} reported {result}"


def _check_level(table, n, level, samples):
    def check(result):
        size = n**level
        if result.size != size or not ref.is_bijection(result.table, size):
            return "level solution is not a bijection of the right size"
        for x, y in samples:
            if result.table[(x - 1) * size + y - 1] != ref.level_table_entry(table, n, level, x, y):
                return f"entry ({x},{y}) differs from leg composition"
        return None

    return check


def _check_periodicity(expected):
    def check(result):
        got = (result.periodic, result.order, result.bound)
        return None if got == expected else f"periodicity {got}, expected {expected}"

    return check


def _check_validate(family, table):
    def check(result):
        witness = ref.triple_identity_witness(family)
        expected = (True, None) if witness is None else (False, witness)
        if tuple(result) != expected:
            return f"validate_kgraph {result}, expected {expected}"
        if result[0] != ref.is_braid(table, family.sizes[0]):
            return "validity of the constant family differs from the braid relation"
        return None

    return check


def _check_normalize(family, raw):
    def check(result):
        expected = ref.normal_form(family, raw)
        if result.letters() != expected:
            return "normal form differs from insertion rewriting"
        colours = sorted(c for c, _ in raw)
        if [c for c, _ in result.letters()] != colours:
            return "colour multiset not kept"
        return None

    return check


def _check_factorize(family, raw, m):
    def check(result):
        head, tail = result
        if tuple(head.degree) != tuple(m):
            return f"head degree {head.degree}, asked {m}"
        if ref.normal_form(family, head.letters() + tail.letters()) != ref.normal_form(family, raw):
            return "head * tail differs from the word"
        return None

    return check


def _check_diamond(family, mu, nu, direction):
    def check(result):
        mu_t, nu_t = result
        if tuple(mu_t.degree) != tuple(mu.degree) or tuple(nu_t.degree) != tuple(nu.degree):
            return "completion changed degrees"
        if direction == "pullback":
            left, right = mu.letters() + nu_t.letters(), nu.letters() + mu_t.letters()
        else:
            left, right = mu_t.letters() + nu.letters(), nu_t.letters() + mu.letters()
        if ref.normal_form(family, left) != ref.normal_form(family, right):
            return f"{direction} diamond equation fails"
        return None

    return check


def build(ctx, r):
    return ctx.remember(("jobs",), lambda: _shared_jobs(ctx)) + _fresh_jobs(ctx, r)


def _fresh_jobs(ctx, r):
    """validate_kgraph results are cached per family, so each round checks new families."""
    rng = ctx.rng(r, "fresh")
    jobs = []
    for n, count in ((3, 14), (4, 10), (3, 6)):
        for _ in range(count):
            if count == 6:
                table = ref.relabel(rng.choice(ctx.n3), 3, random_perm(rng, 3))
            else:
                table = random_bijection(rng, n)
            plain = ref.PlainFamily(3, (n,) * 3, ref.constant_maps(table, 3))
            family = ctx.mods["kgraph"].constant_family(ctx.solution(table, n), 3)
            jobs.append(Job(f"validate_kgraph(N={n})", "kgraph", "validate_kgraph", (family,), _check_validate(plain, table)))
    return jobs


def _shared_jobs(ctx):
    rng = ctx.rng(0)
    kg = ctx.mods["kgraph"]
    d3 = ctx.solution(DIHEDRAL3, 3)
    jobs = [
        Job("graded_elements(dihedral-3,9)", "semigroup", "graded_elements", (d3, 9), _check_graded(ctx, DIHEDRAL3, 3, 9)),
        Job("growth(dihedral-3,8)", "semigroup", "growth", (d3, 8), _check_growth(ctx, DIHEDRAL3, 3, 8)),
        Job("check_cancellative(dihedral-3,6)", "semigroup", "check_cancellative", (d3, 6), _check_cancel(ctx, DIHEDRAL3, 3, 6)),
        Job(
            "semigroup_extension_check(dihedral-3,5)",
            "semigroup",
            "semigroup_extension_check",
            (d3, 5),
            _check_holds("extension check"),
        ),
    ]
    for table, n in _census_tables(ctx):
        R = ctx.solution(table, n)
        jobs.append(Job(f"growth(N={n},5)", "semigroup", "growth", (R, 5), _check_growth(ctx, table, n, 5)))
        jobs.append(Job(f"check_cancellative(N={n},4)", "semigroup", "check_cancellative", (R, 4), _check_cancel(ctx, table, n, 4)))
        jobs.append(
            Job(f"semigroup_extension_check(N={n},3)", "semigroup", "semigroup_extension_check", (R, 3), _check_holds("extension check"))
        )

    level_inputs = [(DIHEDRAL3, 3, 5), (DIHEDRAL3, 3, 4)] + [(rng.choice(ctx.n3), 3, 3) for _ in range(4)]
    for table, n, level in level_inputs:
        size = n**level
        samples = list(zip(rng.choices(range(1, size + 1), k=LEVEL_SAMPLES), rng.choices(range(1, size + 1), k=LEVEL_SAMPLES)))
        jobs.append(
            Job(f"level_solution(N={n},{level})", "constructions", "level_solution", (ctx.solution(table, n), level), _check_level(table, n, level, samples))
        )

    for table in ctx.n3:
        if ctx.remember(("flags", table), lambda: ref.property_flags(table, 3))["non_degenerate"]:
            expected = (False, None, PERIODICITY_BOUND)
        elif table == ref.builtin_table("identity", 3):
            expected = (True, 1, PERIODICITY_BOUND)
        else:
            continue
        jobs.append(Job("periodicity(N=3)", "kgraph", "periodicity", (ctx.solution(table, 3), PERIODICITY_BOUND), _check_periodicity(expected)))
    identity2 = ref.builtin_table("identity", 2)
    jobs.append(Job("periodicity(identity-2)", "kgraph", "periodicity", (ctx.solution(identity2, 2), PERIODICITY_BOUND), _check_periodicity((True, 1, PERIODICITY_BOUND))))

    fam3 = kg.constant_family(d3, 3)
    plain3 = ref.PlainFamily(3, (3, 3, 3), ref.constant_maps(DIHEDRAL3, 3))
    for _ in range(NORMALIZE_JOBS):
        raw = tuple(zip(rng.choices((1, 2, 3), k=WORD_LENGTH), rng.choices((1, 2, 3), k=WORD_LENGTH)))
        jobs.append(Job(f"normalize({WORD_LENGTH})", "kgraph", "normalize", (fam3, raw), _check_normalize(plain3, raw)))
        # a colour-sorted word is already a normal form
        blocks = tuple(tuple(rng.choices((1, 2, 3), k=WORD_LENGTH // 3)) for _ in range(3))
        word = kg.KWord(fam3, blocks)
        m = tuple(rng.randint(0, len(b)) for b in blocks)
        jobs.append(Job(f"factorize({WORD_LENGTH})", "kgraph", "factorize", (word, m), _check_factorize(plain3, word.letters(), m)))

    fam2 = kg.constant_family(d3, 2)
    plain2 = ref.PlainFamily(2, (3, 3), ref.constant_maps(DIHEDRAL3, 2))

    def side(colour, length, seeded=True):
        letters = rng.choices((1, 2, 3), k=length) if seeded else [1 + i % 3 for i in range(length)]
        return kg.KWord(fam2, (tuple(letters), ()) if colour == 1 else ((), tuple(letters)))

    for direction, length in (("pullback", DIAMOND_SIDE), ("pushout", DIAMOND_SIDE // 2)):
        mu, nu = side(1, length), side(2, length)
        jobs.append(
            Job(f"complete_diamond({length}x{length},{direction})", "kgraph", "complete_diamond", (fam2, mu, nu, direction), _check_diamond(plain2, mu, nu, direction))
        )
    mu, nu = side(1, 1, seeded=False), side(2, DEEP_DIAMOND, seeded=False)
    jobs.append(
        Job(
            f"complete_diamond(1x{DEEP_DIAMOND},pullback)",
            "kgraph",
            "complete_diamond",
            (fam2, mu, nu, "pullback"),
            _check_diamond(plain2, mu, nu, "pullback"),
            fault="kgraph-diamond-recursion (RecursionError in kgraph._complete at 1x2000 letters)",
        )
    )
    return jobs

"""census: exhaustive N=3 censuses, classification of relabelings at N=4..6,
pairwise witness searches and seeded sampling.

Almost all the time goes to `classify` and the braid check it calls;
`semigroup` only computes growth-prefix fingerprints, and `homology` and
`kgraph` are not used.
"""

from __future__ import annotations

from math import factorial

import reference as ref
from harness import Job

from .common import base_solutions, involutive_nondegenerate, random_perm

NAME = "census"

# (N, relabelings per base, number of bases, relations, points the relabelings may move)
CLASSIFY_PLAN = (
    (4, 4, 6, ("yb_iso", "conjugacy"), 4),
    (5, 4, 6, ("yb_iso", "conjugacy"), 5),
    (6, 4, 6, ("yb_iso",), 6),
    # a least conjugacy witness at N=6 can sit anywhere among 720**2 pairs;
    # relabelings of the last three points keep this job's cost steady across seeds
    (6, 4, 6, ("conjugacy",), 3),
)
# witness-search queries per (function, N)
PAIRS = {
    ("yb_isomorphic", 4): 8,
    ("yb_isomorphic", 5): 8,
    ("yb_isomorphic", 6): 16,
    ("product_conjugate", 4): 8,
    ("product_conjugate", 5): 14,
}
# (jobs, attempts each): blocks of fixed-size sampling jobs hold the median and
# the 90th-percentile job.  Sub-millisecond queries swing far more than the rest
# when other tenants load the machine, and the witness searches' costs are spread
# out on purpose, so a percentile that fell among them would be unsteady.
SAMPLES = ((40, 1000), (12, 4000))


def _class_partition_error(result, base_of):
    """Is each class exactly the relabelings of one base?"""
    tables = [s.table for s in result.solutions]
    if sorted(tables) != sorted(base_of) or tables != sorted(tables):
        return "solutions are not the sorted input tables"
    seen = set()
    for members in result.classes:
        bases = {base_of[tables[i]] for i in members}
        if len(bases) != 1:
            return f"class {list(members)} mixes {len(bases)} inequivalent bases"
        if list(members) != sorted(members):
            return "class members are not sorted"
        (base,) = bases
        if base in seen:
            return f"relabelings of base {base} are split over two classes"
        seen.add(base)
    if [m[0] for m in result.classes] != sorted(m[0] for m in result.classes):
        return "classes are not ordered by least member"
    if sum(len(m) for m in result.classes) != len(tables):
        return "classes do not cover the solutions"
    return None


def _check_census(ctx, relation):
    def check(result):
        if (result.size, result.relation, result.total_bijections) != (3, relation, factorial(9)):
            return f"header {(result.size, result.relation, result.total_bijections)}"
        canon = ctx.remember(
            ("canon", relation), lambda: {t: ref.canonical_form(t, 3, relation) for t in ctx.n3}
        )
        if [s.table for s in result.solutions] != ctx.n3:
            return "solution list differs from the stored exhaustive search"
        base_of = dict(canon)
        why = _class_partition_error(result, base_of)
        if why:
            return why
        if relation == "yb_iso":
            itype = sum(involutive_nondegenerate(result.solutions[m[0]].table, 3) for m in result.classes)
            if itype != 5:
                return f"{itype} involutive non-degenerate classes, Etingof-Schedler-Soloviev give 5"
        return None

    return check


def _check_classify(base_of):
    return lambda result: _class_partition_error(result, base_of)


def _check_iso(a, b, n, same):
    def check(phi):
        if phi is None:
            return None if not same else "no witness for relabelings of one base"
        if not same:
            return "witness claimed for different cycle types"
        return None if ref.is_iso_witness(a, b, n, phi) else f"witness {phi} does not replay"

    return check


def _check_conj(a, b, n, same):
    def check(result):
        if result is None:
            return None if not same else "no witness for relabelings of one base"
        if not same:
            return "witness claimed for different cycle types"
        tau, rho = result
        return None if ref.is_conj_witness(a, b, n, tau, rho) else f"witness {result} does not replay"

    return check


def _check_sample(ctx):
    def check(result):
        tables = [s.table for s in result]
        if tables != sorted(set(tables)):
            return "samples are not sorted and distinct"
        known = ctx.remember(("n3-set",), lambda: set(ctx.n3))
        stray = [t for t in tables if t not in known]
        return f"{len(stray)} sampled tables are not N=3 solutions" if stray else None

    return check


def build(ctx, r):
    # no cache in `classify` outlives a call, so every round reruns the same jobs
    return ctx.remember(("jobs",), lambda: _jobs(ctx))


def _jobs(ctx):
    rng = ctx.rng(0)
    jobs = [
        Job(f"census(3,{rel})", "classify", "census", (3, rel), _check_census(ctx, rel))
        for rel in ("yb_iso", "conjugacy")
    ]
    for n, copies, count, relations, moved in CLASSIFY_PLAN:
        base_of = {}
        for b_idx, base in enumerate(base_solutions(ctx, n)[:count]):
            for _ in range(copies):
                phi = tuple(range(1, n - moved + 1)) + tuple(n - moved + p for p in random_perm(rng, moved))
                base_of[ref.relabel(base, n, phi)] = b_idx
        tables = list(base_of)
        rng.shuffle(tables)
        solutions = [ctx.solution(t, n) for t in tables]
        for rel in relations:
            jobs.append(
                Job(f"classify(N={n},{len(tables)},{rel})", "classify", "classify", (solutions, rel), _check_classify(base_of))
            )
    for (func, n), count in PAIRS.items():
        bases = base_solutions(ctx, n)
        for q in range(count):
            # fixed bases per position; the seed picks the relabelings
            i = q % len(bases)
            a = ref.relabel(bases[i], n, random_perm(rng, n))
            if q % 2:
                j = (i + 1 + (q // 2) % (len(bases) - 1)) % len(bases)
                b = ref.relabel(bases[j], n, random_perm(rng, n))
            else:
                # the witness planted at an evenly spaced rank bounds the search the
                # same way for every seed; the least witness can only come earlier
                j = i
                spaced = (q + 1) * factorial(n) // (count + 2)
                witness = ref.unrank_perm(n, spaced)
                if func == "yb_isomorphic":
                    b = ref.relabel(a, n, witness)
                else:
                    b = ref.conjugate(a, n, witness, ref.unrank_perm(n, factorial(n) - 1 - spaced))
            checker = _check_iso if func == "yb_isomorphic" else _check_conj
            jobs.append(
                Job(f"{func}(N={n})", "classify", func, (ctx.solution(a, n), ctx.solution(b, n)), checker(a, b, n, i == j))
            )
    for count, attempts in SAMPLES:
        for _ in range(count):
            jobs.append(
                Job(
                    f"sample_ybe_solutions(3,{attempts})",
                    "classify",
                    "sample_ybe_solutions",
                    (3, attempts, rng.randrange(2**31)),
                    _check_sample(ctx),
                )
            )
    return jobs

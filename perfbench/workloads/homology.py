"""homology: integral homology, cohomology over Z and Z/p, and the chain
condition, by degree, for dihedral-3..5 and a seeded subset of the N=3 census.

Sparse invariant factors show here and nowhere else; boundary building
moves with the word kernel.

Every group is checked through ranks of the benchmark's own boundaries:
over a large prime they give the free rank, and over a small prime p the
drop in rank counts the invariant factors divisible by p, which are the
p-torsion summands of H_n (from the boundary into degree n) and of H^n
(from the boundary out of degree n).  Over Z/p the universal coefficient
theorem gives dim H^n(C; Z/p) = dim C_n - rank_p d_n - rank_p d_(n+1).
"""

from __future__ import annotations

import reference as ref
from harness import Job

from .common import n3_classes, random_perm

NAME = "homology"

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# (base, N, top degree for homology, top degree for cohomology)
DIHEDRAL_PLAN = ((3, 4, 4), (4, 3, 3), (5, 3, 2))
CENSUS_CLASSES = 10
CENSUS_TOP = 3


def _rank(ctx, table, n, degree, p):
    if degree < 1:
        return 0

    def compute():
        columns = ctx.remember(("boundary", table, degree), lambda: ref.boundary_columns(table, n, degree))
        return ref.rank_mod(columns, p)

    return ctx.remember(("rank", table, degree, p), compute)


def _torsion_error(group, table, n, ctx, which):
    """Compare p-torsion counts of `group` with rank drops of the boundary `which`."""
    primes = set(SMALL_PRIMES)
    for d in group.torsion:
        primes |= {q for q in range(2, d + 1) if d % q == 0 and all(q % s for s in range(2, q))}
    full = _rank(ctx, table, n, which, ref.LARGE_PRIME)
    for p in sorted(primes):
        count = sum(1 for d in group.torsion if d % p == 0)
        if count != full - _rank(ctx, table, n, which, p):
            return f"{count} summands divisible by {p}, rank drop over GF({p}) says {full - _rank(ctx, table, n, which, p)}"
    return None


def _free_rank(ctx, table, n, degree):
    big = ref.LARGE_PRIME
    return n**degree - _rank(ctx, table, n, degree, big) - _rank(ctx, table, n, degree + 1, big)


def check_homology(ctx, table, n, degree):
    def check(group):
        if group.free_rank != _free_rank(ctx, table, n, degree):
            return f"free rank {group.free_rank}, expected {_free_rank(ctx, table, n, degree)}"
        return _torsion_error(group, table, n, ctx, degree + 1)

    return check


def check_cohomology(ctx, table, n, degree):
    def check(group):
        if group.free_rank != _free_rank(ctx, table, n, degree):
            return f"free rank {group.free_rank}, expected {_free_rank(ctx, table, n, degree)}"
        return _torsion_error(group, table, n, ctx, degree)

    return check


def check_mod(ctx, table, n, degree, p):
    def check(group):
        dim = n**degree - _rank(ctx, table, n, degree, p) - _rank(ctx, table, n, degree + 1, p)
        if group.free_rank != 0 or tuple(group.torsion) != (p,) * dim:
            return f"H^{degree}(Z/{p}) = {group}, universal coefficients give (Z/{p})^{dim}"
        return None

    return check


def _check_complex(ctx, table, n, top):
    def check(result):
        if result is not True:
            return "chain condition reported violated for a braid-relation input"
        for degree in range(2, top + 1):
            outer = ctx.remember(("boundary", table, degree - 1), lambda: ref.boundary_columns(table, n, degree - 1))
            inner = ctx.remember(("boundary", table, degree), lambda: ref.boundary_columns(table, n, degree))
            if not ref.compose_is_zero(outer, inner):
                return "the benchmark's own boundaries do not compose to zero"
        return None

    return check


def _jobs_for(ctx, rng, table, n, label, top_h, top_c):
    R = ctx.solution(table, n)
    jobs = []
    for degree in range(1, max(top_h, top_c) + 1):
        if degree <= top_h:
            jobs.append(Job(f"homology({label},{degree})", "homology", "homology", (R, degree), check_homology(ctx, table, n, degree)))
        if degree <= top_c:
            p = rng.choice((2, 3))
            jobs.append(Job(f"cohomology({label},{degree})", "homology", "cohomology", (R, degree), check_cohomology(ctx, table, n, degree)))
            jobs.append(Job(f"cohomology({label},{degree},Z/{p})", "homology", "cohomology", (R, degree, p), check_mod(ctx, table, n, degree, p)))
    top = max(top_h, top_c) + 1
    jobs.append(Job(f"verify_complex({label},{top})", "homology", "verify_complex", (R, top), _check_complex(ctx, table, n, top)))
    return jobs


def build(ctx, r):
    # nothing in `homology` is cached across calls, so every round reruns the same jobs
    return ctx.remember(("jobs",), lambda: _jobs(ctx))


def _jobs(ctx):
    rng = ctx.rng(0)
    jobs = []
    for n, top_h, top_c in DIHEDRAL_PLAN:
        jobs += _jobs_for(ctx, rng, ref.builtin_table("dihedral", n), n, f"dihedral-{n}", top_h, top_c)
    # a seeded relabeling of a member of ten fixed classes keeps the cost of a round steady
    classes = n3_classes(ctx)
    for cls in classes[:: max(1, len(classes) // CENSUS_CLASSES)][:CENSUS_CLASSES]:
        table = ref.relabel(rng.choice(cls), 3, random_perm(rng, 3))
        jobs += _jobs_for(ctx, rng, table, 3, "N=3", CENSUS_TOP, CENSUS_TOP)
    return jobs

"""Input helpers shared by the workloads."""

from __future__ import annotations

import reference as ref


def random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_bijection(rng, n):
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    rng.shuffle(pairs)
    return tuple(pairs)


def _ext(a, na, b, nb):
    return ref.trivial_extension(ref.builtin_table(a, na), na, ref.builtin_table(b, nb), nb)


def _base_solutions(n):
    """Braid-relation tables on [n] with pairwise distinct cycle types.

    Relabelings of one base are equivalent under both relations, and the
    cycle type separates different bases, so the correct partition of any
    set of relabelings is known by construction.
    """
    plans = {
        4: [
            ref.builtin_table("shift", 4),
            ref.builtin_table("double_shift", 4),
            ref.builtin_table("dihedral", 4),
            _ext("identity", 1, "dihedral", 3),
            _ext("shift", 2, "shift", 2),
            _ext("flip", 2, "shift", 2),
        ],
        5: [
            ref.builtin_table("shift", 5),
            ref.builtin_table("dihedral", 5),
            _ext("identity", 1, "dihedral", 4),
            _ext("shift", 2, "flip", 3),
            _ext("identity", 2, "dihedral", 3),
            _ext("shift", 2, "dihedral", 3),
        ],
        6: [
            ref.builtin_table("shift", 6),
            ref.builtin_table("double_shift", 6),
            ref.builtin_table("dihedral", 6),
            _ext("dihedral", 3, "dihedral", 3),
            _ext("shift", 3, "shift", 3),
            _ext("identity", 2, "dihedral", 4),
        ],
    }
    tables = plans[n]
    if len({ref.cycle_type(t, n) for t in tables}) != len(tables):
        raise RuntimeError(f"base solutions at N={n} must have distinct cycle types")
    return tables


def base_solutions(ctx, n):
    return ctx.remember(("bases", n), lambda: _base_solutions(n))


def n3_classes(ctx):
    """Relabeling classes of the stored N=3 list, as lists of tables, by least member."""

    def compute():
        groups = {}
        for table in ctx.n3:
            groups.setdefault(ref.canonical_form(table, 3, "yb_iso"), []).append(table)
        return [groups[key] for key in sorted(groups, key=lambda k: min(groups[k]))]

    return ctx.remember(("n3-classes",), compute)


def involutive_nondegenerate(table, n) -> bool:
    flags = ref.property_flags(table, n)
    return flags["involutive"] and flags["non_degenerate"]

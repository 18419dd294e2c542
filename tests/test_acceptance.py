"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
tolerance and runtime bound is pinned here.  Two computed facts that are easy
to guess wrong are asserted as computed and flagged in the pass lines: the
[2] census has five relabeling classes (the four catalog families plus the
mirror shift), and the dihedral structure semigroup is not cancellative.
"""

import random
import time
from itertools import product
from math import comb, factorial

from ybk.classify import (
    classify,
    is_conjugacy_witness,
    is_yb_iso_witness,
    product_conjugate,
    yb_isomorphic,
)
from ybk.constructions import disjoint_union_solution, level_map, level_solution
from ybk.homology import (
    AbelianGroup,
    beta_orbits,
    homology,
    verify_complex,
)
from ybk.kgraph import (
    constant_family,
    make_theta_family,
    periodicity,
    unique_pullback,
    unique_pushout,
    validate_kgraph,
)
from ybk.semigroup import (
    check_cancellative,
    graded_elements,
    growth,
    presentations,
    semigroup_extension_check,
)
from ybk.solution import Solution, builtin, is_ybe, properties, _mod1

from oracles import boundary_columns, dense, derived_boundary, random_bijection_table


def _report(number: int, label: str, elapsed: float, limit: float, note: str = ""):
    suffix = f" [{note}]" if note else ""
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s < {limit:.0f}s){suffix}")
    assert elapsed < limit


def test_criterion_01_catalog_validation():
    start = time.perf_counter()
    for n in range(2, 7):
        for name in ("identity", "flip", "double_shift", "shift"):
            assert is_ybe(builtin(name, n)), (name, n)
    for n in range(3, 7):
        assert is_ybe(builtin("dihedral", n)), n
    _report(1, "catalog-validation", time.perf_counter() - start, 1.0)


def test_criterion_02_two_element_census(census2):
    start = time.perf_counter()
    assert len(census2) == 5  # frozen raw count from the 24-bijection search
    result = classify(census2, "yb_iso", total_bijections=factorial(4))
    examples = [
        builtin("identity", 2),
        builtin("flip", 2),
        builtin("double_shift", 2),
        builtin("shift", 2),
    ]
    classes_of_examples = set()
    for example in examples:
        hits = [
            idx
            for idx, cls in enumerate(result.classes)
            if any(result.solutions[i].table == example.table for i in cls)
        ]
        assert len(hits) == 1
        classes_of_examples.add(hits[0])
    assert len(classes_of_examples) == 4
    # flagged per the open census question: the mirror of the shift is a
    # fifth class, relabel-inequivalent to all four stated families
    assert len(result.classes) == 5
    _report(
        2,
        "two-element-census",
        time.perf_counter() - start,
        1.0,
        note="4 distinct classes hold the stated families; 5 classes total",
    )


def test_criterion_03_constant_family_equivalence():
    start = time.perf_counter()
    rng = random.Random(403)
    for size in (2, 3):
        for _ in range(200):
            R = Solution(size, random_bijection_table(size, rng))
            expected = is_ybe(R)
            assert validate_kgraph(constant_family(R, 3))[0] == expected
            assert validate_kgraph(constant_family(R, 5))[0] == expected
    _report(3, "constant-family-equivalence", time.perf_counter() - start, 30.0)


def test_criterion_04_level_solutions(census2):
    start = time.perf_counter()
    pool = list(census2) + [builtin("dihedral", 3)]
    for R in pool:
        report = properties(R)
        for n in (1, 2, 3):
            lifted = level_solution(R, n)
            assert is_ybe(lifted)
            lifted_report = properties(lifted)
            if report.involutive:
                assert lifted_report.involutive
            if report.derived_type:
                assert lifted_report.derived_type
    shift2 = builtin("shift", 2)
    lm = level_map(shift2, 3, 3)
    for u in product((1, 2), repeat=3):
        for v in product((1, 2), repeat=3):
            assert lm.apply(u, v) == (tuple(_mod1(j + 1, 2) for j in v), u)
    _report(4, "level-solutions", time.perf_counter() - start, 60.0)


def test_criterion_05_nondegeneracy_and_periodicity(census2, census3):
    start = time.perf_counter()
    for R in census2 + census3:
        fam = constant_family(R, 2)
        fibers = unique_pullback(fam)[0] and unique_pushout(fam)[0]
        nondeg = properties(R).non_degenerate
        assert fibers == nondeg
        if nondeg:
            verdict = periodicity(R, 4)
            assert not verdict.periodic and str(verdict) == "AperiodicUpTo(4)"
    for n in (2, 3):
        verdict = periodicity(builtin("identity", n), 4)
        assert verdict.periodic and verdict.order == 1
    _report(5, "fibers-and-periodicity", time.perf_counter() - start, 60.0)


def test_criterion_06_semigroup_fixtures():
    start = time.perf_counter()
    id2 = builtin("identity", 2)
    flip3 = builtin("flip", 3)
    dihedral = builtin("dihedral", 3)
    assert growth(id2, 4) == (1, 2, 4, 8, 16)
    flip_growth = growth(flip3, 5)
    assert all(flip_growth[n] == comb(n + 2, 2) for n in range(6))
    assert len(graded_elements(dihedral, 2).classes) == 5
    chains = {frozenset(chain) for chain in presentations(dihedral).chains}
    assert chains == {
        frozenset({(1, 2), (2, 3), (3, 1)}),
        frozenset({(1, 3), (2, 1), (3, 2)}),
    }
    assert check_cancellative(id2, 5) == (True, None)
    assert check_cancellative(flip3, 5) == (True, None)
    # verified by the exhaustive class-product oracle and by a two-line
    # derivation from the defining relations: the dihedral structure
    # semigroup identifies e1 e2 e2 with e1 e3 e3 although e2 e2 and e3 e3
    # stay distinct, so left cancellation fails
    ok, witness = check_cancellative(dihedral, 5)
    assert not ok and witness == ("left", (1,), (2, 2), (3, 3))
    graded3 = graded_elements(dihedral, 3)
    assert graded3.index_of((1, 2, 2)) == graded3.index_of((1, 3, 3))
    graded2 = graded_elements(dihedral, 2)
    assert graded2.index_of((2, 2)) != graded2.index_of((3, 3))
    _report(
        6,
        "semigroup-fixtures",
        time.perf_counter() - start,
        30.0,
        note="dihedral structure semigroup is not cancellative; witness frozen",
    )


def test_criterion_07_braided_extension():
    start = time.perf_counter()
    for name, size in (("flip", 2), ("shift", 2), ("dihedral", 3)):
        R = builtin(name, size)
        assert semigroup_extension_check(R, 4) == (True, None)
    # single letters: the graded braid comparison is the braid relation
    rng = random.Random(407)
    for _ in range(25):
        R = Solution(2, random_bijection_table(2, rng))
        lm = level_map(R, 1, 1)
        agrees = True
        for x, y, z in product((1, 2), repeat=3):
            v1, u1 = lm.apply((x,), (y,))
            w1, u2 = lm.apply(u1, (z,))
            w2, v2 = lm.apply(v1, w1)
            wa, va = lm.apply((y,), (z,))
            wb, ub = lm.apply((x,), wa)
            vb, uc = lm.apply(ub, va)
            if (w2, v2, u2) != (wb, vb, uc):
                agrees = False
        assert agrees == is_ybe(R)
    _report(7, "braided-extension", time.perf_counter() - start, 60.0)


def test_criterion_08_homology(census2):
    start = time.perf_counter()
    dihedral = builtin("dihedral", 3)
    for R in census2:
        assert verify_complex(R, 5)
    assert verify_complex(dihedral, 4)
    for n in (1, 2, 3):
        assert derived_boundary(dihedral, n) == boundary_columns(dihedral, n)
    flip2 = builtin("flip", 2)
    for n in (1, 2, 3, 4):
        assert derived_boundary(flip2, n) == boundary_columns(flip2, n)
    assert homology(dihedral, 1) == AbelianGroup(1, ())
    assert len(beta_orbits(dihedral).blocks) == 1
    for n in (2, 3, 4):
        flip = builtin("flip", n)
        assert homology(flip, 1) == AbelianGroup(n, ())
        assert len(beta_orbits(flip).blocks) == n
    for R in (dihedral, flip2):
        size = R.size
        star = lambda a, b: R(a, b)[1]
        d2 = dense(boundary_columns(R, 2), size)
        kernel1 = {
            f
            for f in product((0, 1), repeat=size)
            if all(
                sum(f[r] * d2.entries[r][c] for r in range(size)) % 2 == 0
                for c in range(size * size)
            )
        }
        direct1 = {
            f
            for f in product((0, 1), repeat=size)
            if all(
                f[x - 1] == f[star(x, y) - 1]
                for x in range(1, size + 1)
                for y in range(1, size + 1)
            )
        }
        assert kernel1 == direct1
        dim = size * size
        d3 = dense(boundary_columns(R, 3), dim)
        idx = lambda a, b: (a - 1) * size + (b - 1)
        kernel2 = {
            f
            for f in product((0, 1), repeat=dim)
            if all(
                sum(f[r] * d3.entries[r][c] for r in range(dim)) % 2 == 0
                for c in range(size ** 3)
            )
        }
        direct2 = {
            f
            for f in product((0, 1), repeat=dim)
            if all(
                (
                    f[idx(x1, x2)]
                    + f[idx(star(x1, x2), x3)]
                    + f[idx(x1, x3)]
                    + f[idx(star(x1, x3), star(x2, x3))]
                )
                % 2
                == 0
                for x1, x2, x3 in product(range(1, size + 1), repeat=3)
            )
        }
        assert kernel2 == direct2
    _report(8, "homology", time.perf_counter() - start, 120.0)


def _random_theta(rng):
    sizes = tuple(rng.randint(1, 3) for _ in range(3))
    maps = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        outs = [
            (t, s)
            for t in range(1, sizes[j - 1] + 1)
            for s in range(1, sizes[i - 1] + 1)
        ]
        rng.shuffle(outs)
        maps[(i, j)] = outs
    return make_theta_family(3, sizes, maps)


def test_criterion_09_union_solutions():
    start = time.perf_counter()
    rng = random.Random(409)
    families = []
    while len(families) < 50:
        fam = _random_theta(rng)
        if validate_kgraph(fam)[0]:
            families.append(fam)
    for fam in families:
        union = disjoint_union_solution(fam)
        report = properties(union)
        assert report.is_ybe and report.involutive and report.square_free
        if any(size > 1 for size in fam.sizes):
            assert not report.non_degenerate
        counts = growth(union, 4)
        for total in range(5):
            expected = sum(
                fam.sizes[0] ** a * fam.sizes[1] ** b * fam.sizes[2] ** (total - a - b)
                for a in range(total + 1)
                for b in range(total - a + 1)
            )
            assert counts[total] == expected
    _report(9, "union-solutions", time.perf_counter() - start, 120.0)


def test_criterion_10_classification_coherence(census2, census3):
    start = time.perf_counter()
    flip2 = builtin("flip", 2)
    dbl2 = builtin("double_shift", 2)
    witness = product_conjugate(flip2, dbl2)
    assert witness == ((1, 2), (2, 1))  # (identity, shift)
    assert yb_isomorphic(flip2, dbl2) is None
    pool = census2 + census3[:15]
    for a in pool:
        for b in pool:
            if a.size != b.size or a.table >= b.table:
                continue
            phi = yb_isomorphic(a, b)
            if phi is not None:
                assert is_yb_iso_witness(a, b, phi)
                assert is_conjugacy_witness(b, a, phi, phi)
            pair = product_conjugate(a, b)
            if pair is not None:
                assert growth(a, 5) == growth(b, 5)
    _report(10, "classification-coherence", time.perf_counter() - start, 10.0)

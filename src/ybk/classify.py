"""Exhaustive census of small solutions and classification up to relabeling.

Two equivalences: product conjugacy (a pair of permutations conjugates the
maps) and YB-isomorphism (one permutation relabels the ground set).  Both
witnesses are found by exhaustive search over symmetric groups, least first.
The exhaustive census is feasible through N = 3 (9! candidate bijections);
larger sizes get a seeded, clearly non-exhaustive sampling mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .errors import InvalidParams, SizeMismatch, SizeTooLarge
from .semigroup import growth
from .solution import Solution, _table_is_ybe, properties

CENSUS_MAX_SIZE = 3
_PRUNE_PREFIX = 3


@dataclass(frozen=True)
class SolutionCensus:
    """Solutions of one size partitioned by the tagged relation.

    `classes` holds tuples of indices into `solutions`; each class is sorted
    and classes are ordered by their least member, which is also the
    representative (solutions are kept sorted by table, so least index means
    lexicographically least table).
    """

    size: int
    relation: str
    total_bijections: int | None
    solutions: tuple[Solution, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[Solution, ...]:
        return tuple(self.solutions[cls[0]] for cls in self.classes)


def enumerate_solutions(n: int) -> list[Solution]:
    """All braid-relation bijections on [n]^2, in lexicographic table order."""
    if n > CENSUS_MAX_SIZE:
        raise SizeTooLarge(
            f"exhaustive search over ({n * n})! bijections is not feasible; the guard is N <= {CENSUS_MAX_SIZE}"
        )
    if n < 1:
        raise SizeTooLarge(f"size must be positive, got {n}")
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    found = []
    for candidate in permutations(pairs):
        if _table_is_ybe(n, candidate):
            found.append(Solution(n, candidate))
    return found


def random_bijection_table(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A uniformly random bijection table on [n]^2."""
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    rng.shuffle(pairs)
    return tuple(pairs)


def sample_ybe_solutions(n: int, attempts: int, seed: int) -> list[Solution]:
    """Braid-relation survivors among seeded random bijections (non-exhaustive)."""
    if n < 1:
        raise SizeTooLarge(f"size must be positive, got {n}")
    if attempts < 0:
        raise InvalidParams(f"the number of sampled bijections must be non-negative, got {attempts}")
    rng = random.Random(seed)
    found = {}
    for _ in range(attempts):
        table = random_bijection_table(n, rng)
        if _table_is_ybe(n, table):
            found[table] = Solution(n, table)
    return [found[key] for key in sorted(found)]


def product_conjugate(a: Solution, b: Solution):
    """Least (tau, rho) with a o (tau x rho) = (tau x rho) o b, or None."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    n = a.size
    for tau in permutations(range(1, n + 1)):
        for rho in permutations(range(1, n + 1)):
            if _is_conjugacy_pair(a, b, tau, rho):
                return tau, rho
    return None


def _is_conjugacy_pair(a: Solution, b: Solution, tau, rho) -> bool:
    n = a.size
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            u, v = b(x, y)
            if a(tau[x - 1], rho[y - 1]) != (tau[u - 1], rho[v - 1]):
                return False
    return True


def is_conjugacy_witness(a: Solution, b: Solution, tau, rho) -> bool:
    """Replay a claimed product-conjugacy witness."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    return _is_conjugacy_pair(a, b, tuple(tau), tuple(rho))


def yb_isomorphic(a: Solution, b: Solution):
    """Least phi with (phi x phi) o a = b o (phi x phi), or None."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    n = a.size
    for phi in permutations(range(1, n + 1)):
        if _is_iso(a, b, phi):
            return phi
    return None


def _is_iso(a: Solution, b: Solution, phi) -> bool:
    n = a.size
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            u, v = a(x, y)
            if b(phi[x - 1], phi[y - 1]) != (phi[u - 1], phi[v - 1]):
                return False
    return True


def is_yb_iso_witness(a: Solution, b: Solution, phi) -> bool:
    """Replay a claimed YB-isomorphism witness."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    return _is_iso(a, b, tuple(phi))


def _fingerprint(solution: Solution, relation: str):
    prefix = growth(solution, _PRUNE_PREFIX)
    if relation == "yb_iso":
        # every structural flag is equivariant under relabeling
        report = properties(solution)
        return (
            prefix,
            report.is_ybe,
            report.involutive,
            report.square_free,
            report.non_degenerate,
            report.derived_type,
        )
    # product conjugacy preserves growth but not, e.g., square-freeness
    return prefix


def _check_relation(relation) -> None:
    if relation not in ("yb_iso", "conjugacy"):
        raise InvalidParams(f"relation must be 'yb_iso' or 'conjugacy', got {relation!r}")


def classify(solutions, relation: str, total_bijections: int | None = None) -> SolutionCensus:
    """Partition solutions of one size by the chosen relation.

    relation is 'yb_iso' or 'conjugacy'.  Pairwise witness searches are
    pruned by relation-invariant fingerprints (flags and a growth prefix).
    """
    _check_relation(relation)
    ordered = sorted(solutions, key=lambda s: s.table)
    if not ordered:
        return SolutionCensus(0, relation, total_bijections, (), ())
    size = ordered[0].size
    if any(s.size != size for s in ordered):
        raise SizeMismatch("all solutions must share one size")
    prints = [_fingerprint(s, relation) for s in ordered]
    parent = list(range(len(ordered)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if find(i) == find(j) or prints[i] != prints[j]:
                continue
            if relation == "yb_iso":
                witness = yb_isomorphic(ordered[i], ordered[j])
            else:
                witness = product_conjugate(ordered[i], ordered[j])
            if witness is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(len(ordered)):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(groups[root]) for root in sorted(groups))
    return SolutionCensus(size, relation, total_bijections, tuple(ordered), classes)


def census(n: int, relation: str) -> SolutionCensus:
    """Exhaustive census of size n classified by the chosen relation."""
    _check_relation(relation)
    solutions = enumerate_solutions(n)
    return classify(solutions, relation, total_bijections=factorial(n * n))

"""Shows that the benchmark's checks are not vacuous.

For each kind of check, one job is run against the real `ybk`, its right
answer is confirmed to pass, and then a planted wrong answer must be
reported.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Exits 1 if a right answer is refused or a wrong one gets through.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _swap_entries(solution):
    table = list(solution.table)
    table[0], table[1] = table[1], table[0]
    return dataclasses.replace(solution, table=tuple(table))


def _merge_first_classes(result):
    classes = list(result.classes)
    merged = tuple(sorted(classes[0] + classes[1]))
    return dataclasses.replace(result, classes=(merged, *classes[2:]))


def _move_word(graded):
    classes = [list(c) for c in graded.classes]
    donor = next(i for i, c in enumerate(classes) if len(c) > 1)
    target = (donor + 1) % len(classes)
    classes[target].append(classes[donor].pop())
    classes = [tuple(sorted(c)) for c in classes]
    return dataclasses.replace(graded, classes=tuple(classes))


def _add_non_solution(samples):
    return samples + [sys.modules["ybk.solution"].Solution(3, ((1, 1),) * 9)]


def _non_witness(phi):
    """A permutation of the same points that is not `phi`: swapping two images breaks the replay."""
    return (phi[1], phi[0]) + tuple(phi[2:])


def _drop_torsion(group):
    return dataclasses.replace(group, torsion=group.torsion[1:])


def _cli_edit(edit):
    def plant(result):
        code, out, err = result
        obj = json.loads(out)
        edit(obj)
        return code, json.dumps(obj), err

    return plant


def _flip_first_flag(obj):
    obj["involutive"] = not obj["involutive"]


def _swap_table(obj):
    obj["table"][0], obj["table"][1] = obj["table"][1], obj["table"][0]


# (workload, predicate on the job name, planted wrong answer, what it stands for)
PLANTS = [
    ("census", lambda n: n == "census(3,yb_iso)", _merge_first_classes, "two census classes merged"),
    ("census", lambda n: n.startswith("classify(N=4") and "conjugacy" in n, _merge_first_classes, "two classify classes merged"),
    ("census", lambda n: n.startswith("yb_isomorphic(N=4"), _non_witness, "a relabeling witness that does not replay"),
    ("census", lambda n: n.startswith("product_conjugate(N=4"), lambda w: ((2, 1, 3, 4), (1, 2, 3, 4)) if w else ((1, 2, 3, 4),) * 2, "wrong conjugacy witness"),
    ("census", lambda n: n.startswith("sample_ybe"), _add_non_solution, "a non-solution among samples"),
    ("words", lambda n: n == "graded_elements(dihedral-3,9)", _move_word, "a word moved to another class"),
    ("words", lambda n: n == "growth(dihedral-3,8)", lambda g: g[:-1] + (g[-1] + 1,), "one growth count off by one"),
    ("words", lambda n: n == "check_cancellative(dihedral-3,6)", lambda r: (True, None), "cancellativity flipped"),
    ("words", lambda n: n.startswith("semigroup_extension_check"), lambda r: (False, ("braid", (1,), (1,), (1,))), "extension check failed"),
    ("words", lambda n: n.startswith("level_solution(N=3,3)"), _swap_entries, "a level table with two entries swapped"),
    ("words", lambda n: n == "periodicity(N=3)", lambda p: dataclasses.replace(p, periodic=True, order=2), "periodicity claimed"),
    ("words", lambda n: n.startswith("validate_kgraph"), lambda r: (not r[0], None), "k-graph verdict flipped"),
    ("words", lambda n: n.startswith("normalize"), lambda w: dataclasses.replace(w, blocks=(w.blocks[0][::-1],) + w.blocks[1:]), "a normal form with letters reordered"),
    ("words", lambda n: n.startswith("factorize"), lambda r: (r[1], r[0]), "head and tail exchanged"),
    ("words", lambda n: n.startswith("complete_diamond(100"), lambda r: (r[0], dataclasses.replace(r[1], blocks=((), r[1].blocks[1][::-1]))), "a diamond side reversed"),
    ("homology", lambda n: n == "homology(dihedral-3,3)", _drop_torsion, "a torsion factor dropped"),
    ("homology", lambda n: n == "homology(dihedral-4,2)", lambda g: dataclasses.replace(g, free_rank=g.free_rank + 1), "free rank off by one"),
    ("homology", lambda n: n.startswith("cohomology(dihedral-3,2,Z/"), lambda g: dataclasses.replace(g, torsion=g.torsion[1:]), "a Z/p summand dropped"),
    ("homology", lambda n: n.startswith("verify_complex"), lambda r: False, "chain condition violated"),
    ("cli", lambda n: n == "props", _cli_edit(_flip_first_flag), "a property flag flipped"),
    ("cli", lambda n: n == "level", _cli_edit(_swap_table), "an emitted table with two entries swapped"),
    ("cli", lambda n: n == "semigroup", _cli_edit(lambda o: o["growth"].__setitem__(-1, o["growth"][-1] + 1)), "a growth count off by one"),
    ("cli", lambda n: n == "homology", _cli_edit(lambda o: o.__setitem__("homology", o["homology"] + " x Z/2")), "a torsion factor added"),
    ("cli", lambda n: n == "verify", lambda r: (1 - r[0], r[1], r[2]), "a wrong exit code"),
    ("cli", lambda n: n == "error: missing file", lambda r: (2, "", "Traceback ...\nerror: x\n"), "a traceback beside the error line"),
]


def main() -> int:
    contexts = {}
    missed = 0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=out_dir) as tmp:
        mods = harness.import_ybk(ROOT / "src")
        n3 = ref.load_n3()
        for workload, pick, plant, label in PLANTS:
            if workload not in contexts:
                workdir = Path(tmp) / workload
                workdir.mkdir()
                ctx = harness.Context(workload, 1, mods, workdir, n3)
                contexts[workload] = WORKLOADS[workload].build(ctx, 0)
                ctx.flush()
            job = next(j for j in contexts[workload] if pick(j.name))
            fn = getattr(mods[job.module], job.func)
            result = harness.run_cli(fn, job.args, job.stdin) if job.capture else fn(*job.args)
            right = harness._judge(job, result, None)
            wrong = harness._judge(job, plant(result), None)
            ok = right is None and wrong is not None
            missed += not ok
            status = "caught" if ok else "MISSED"
            print(f"{status:7s} {workload:9s} {label}: {wrong if right is None else 'right answer refused: ' + right}")
    print(f"{len(PLANTS) - missed} of {len(PLANTS)} planted wrong answers caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

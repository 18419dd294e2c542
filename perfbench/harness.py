"""Jobs, rounds and metrics shared by every workload.

A run sets up several times (fresh import of `ybk`, input generation,
reference data loaded) and reports the median set-up time.  The documents
a workload needs on disk are written after each set-up's clock stops: the
disk of a shared host can stall for minutes, and those writes are
the benchmark's own, so their time says nothing about `ybk`.  The run then
goes through whole rounds of the same job list, one round after another on
one thread, until `--seconds` of timed rounds have passed.  Each round is
timed as one contiguous pass; its results are checked after the pass,
outside the timed region, and then dropped.

`run_s` is the median pass time and the job percentiles are taken over the
latencies of every job in every untraced round.  Every round runs the same
jobs; where a cache inside `ybk` could carry work from one round to the
next, the job at that position gets fresh inputs of the same shape.

Every reported time is scaled to a reference machine speed.  The host is
shared, and for stretches of tens of seconds the same code runs up to twice
as slow or fast; a stretch can cover a whole run, and no statistic inside
the run removes it.  So between jobs, whenever `CAL_EVERY` seconds of jobs
have passed, the pass runs one calibration slice: a fixed piece of the
benchmark's own Python code (`calibration_slice`), which no change to `ybk`
can alter.  Each job's latency is divided by its speed factor: the mean
time of the slices just before and after it, over `CAL_REF`.  The pass
time is divided by the pass's factor, which weights each job's factor by
the job's time.  Set-up is divided by the trimmed mean of slices run just
before and after it.  The raw wall times
are printed above the result line.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import reference as ref
from tracer import LAYERS, Tracer

SETUP_REPS = 11
MIN_ROUNDS = 3
MAX_ROUNDS = 24
# seconds of jobs between two calibration slices in a timed pass
CAL_EVERY = 0.005
# calibration slices run just before and just after each set-up
CAL_SETUP = 25
# seconds one calibration slice takes at the reference speed: about its
# usual time on a 2-core shared host with Python 3.11.7; only the scale of
# the reported times depends on it
CAL_REF = 4.0e-4

_CAL_D3 = ref.builtin_table("dihedral", 3)
_CAL_TABLES = (
    _CAL_D3,
    ref.builtin_table("flip", 3),
    ref.builtin_table("shift", 3),
    ref.builtin_table("double_shift", 3),
    ref.builtin_table("identity", 3),
)
_CAL_COLUMNS = ref.boundary_columns(_CAL_D3, 3, 3)
_CAL_DOC = {"size": 3, "table": [list(pair) for pair in _CAL_D3]}


def calibration_slice() -> float:
    """Seconds taken by a fixed mix of the benchmark's own Python code.

    Tuple-table legs, a breadth-first word search, sparse boundaries with a
    modular rank, and a JSON round trip: the kinds of work the four
    workloads do.
    """
    t0 = perf_counter()
    for table in _CAL_TABLES:
        ref.braid_witness(table, 3)
    ref.word_classes(_CAL_D3, 3, 4)
    ref.boundary_columns(_CAL_D3, 3, 2)
    ref.rank_mod(_CAL_COLUMNS, ref.LARGE_PRIME)
    json.loads(json.dumps(_CAL_DOC))
    return perf_counter() - t0


def speed_factor(slices) -> float:
    """How much slower than the reference speed the machine ran while `slices` were taken.

    The mean of the slice times, a tenth trimmed at each end against slices
    that an interrupt or a page fault hit.  Used for set-up.
    """
    ordered = sorted(slices)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut]) / CAL_REF


def job_factors(slices, groups) -> list[float]:
    """The speed factor next to each job: the mean of the slices just before and after it.

    `groups[i]` is the index of the last slice before job i.  A slice over
    twice the median was hit by an interrupt or a page fault and counts as
    the median.
    """
    median = statistics.median(slices)
    clean = [t if t <= 2 * median else median for t in slices]
    clean.append(clean[-1])  # no slice follows the last jobs
    return [(clean[g] + clean[g + 1]) / 2 / CAL_REF for g in groups]


@dataclass
class Job:
    """One call into a public `ybk` function, checked by `check` after the timed pass.

    `check(result)` returns None when the result is right, else a message.
    With `capture`, the call is a `ybk.cli.main(argv)` invocation reading
    `stdin`, and the result is (exit code, stdout, stderr).  `fault` names the known fault a
    job exercises; such a job is expected to fail until that fault is mended.
    """

    name: str
    module: str
    func: str
    args: tuple
    check: Callable[[Any], str | None]
    fault: str | None = None
    capture: bool = False
    stdin: str = ""


@dataclass
class Context:
    """What a workload builder may use: the seed, the fresh `ybk` modules, a work directory."""

    workload: str
    seed: int
    mods: dict
    workdir: Path
    n3: list
    memo: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)

    def rng(self, round_index: int, tag: str = "") -> random.Random:
        return random.Random(f"{self.seed}:{self.workload}:{round_index}:{tag}")

    def solution(self, table, n):
        """A `ybk.Solution` for a table the benchmark built as a bijection."""
        return self.mods["solution"].Solution(n, tuple(table))

    def remember(self, key, compute):
        """Memoize a reference computation across rounds of one run."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def write(self, path: Path, data: str | bytes | None) -> Path:
        """Queue a file, or with None a directory, for `flush`; returns `path`."""
        self.pending.append((path, data))
        return path

    def flush(self):
        """Make the queued files and directories in the order they were queued."""
        for path, data in self.pending:
            if data is None:
                path.mkdir()
            elif isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data)
        self.pending.clear()


def import_ybk(src: Path) -> dict:
    """Import `ybk` afresh from `src` and return its layer modules by name."""
    for name in [m for m in sys.modules if m == "ybk" or m.startswith("ybk.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ybk")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"imported ybk from {origin}, not from {src}")
    return {layer: importlib.import_module(f"ybk.{layer}") for layer in LAYERS}


def run_cli(main, argv, stdin=""):
    """In-process `ybk.cli.main(argv)` with stdin given and stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _timed_pass(jobs, mods, tracer, round_index):
    """Run the jobs once.

    Returns the pass time without calibration, the job latencies, the speed
    factor next to each job, and the outcomes.
    """
    calls = [getattr(mods[job.module], job.func) for job in jobs]
    latencies = []
    outcomes = []
    slices = [calibration_slice()]
    groups = []
    start = perf_counter()
    since = 0.0
    for idx, (job, fn) in enumerate(zip(jobs, calls)):
        if tracer is not None:
            tracer.job = (round_index, idx)
        t0 = perf_counter()
        try:
            result = run_cli(fn, job.args, job.stdin) if job.capture else fn(*job.args)
            outcomes.append((result, None))
        except Exception as exc:  # a raising job is a failed job, recorded below
            outcomes.append((None, exc))
        latencies.append(perf_counter() - t0)
        groups.append(len(slices) - 1)
        if tracer is not None:
            tracer.clear_stack()
        since += latencies[-1]
        if since >= CAL_EVERY:
            slices.append(calibration_slice())
            since = 0.0
    wall = perf_counter() - start
    # the first slice ran before `start`; the others ran inside the pass
    return wall - sum(slices[1:]), latencies, job_factors(slices, groups), outcomes


def _judge(job, result, exc):
    """None if the job succeeded, else why it failed."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {str(exc)[:120]}"
    try:
        return job.check(result)
    except Exception as check_exc:  # a result of the wrong shape is a wrong result
        return f"check raised {type(check_exc).__name__}: {check_exc}"


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    sys.path.insert(0, str(src))
    setups = []
    with tempfile.TemporaryDirectory(prefix=f"work-{workload.NAME}-", dir=out_dir) as tmp:
        for rep in range(SETUP_REPS):
            # the previous set-up's modules and inputs are cyclic garbage; collect them untimed
            gc.collect()
            slices = [calibration_slice() for _ in range(CAL_SETUP)]
            t0 = perf_counter()
            mods = import_ybk(src)
            workdir = Path(tmp) / f"setup{rep}"
            workdir.mkdir()
            ctx = Context(workload.NAME, seed, mods, workdir, ref.load_n3())
            rounds = [workload.build(ctx, r) for r in range(MAX_ROUNDS)]
            wall = perf_counter() - t0
            ctx.flush()
            slices += [calibration_slice() for _ in range(CAL_SETUP)]
            setups.append((wall, speed_factor(slices)))
        return _measure(workload, ctx, rounds, seconds, trace, setups, out_dir, seed)


def _measure(workload, ctx, rounds, seconds, trace, setups, out_dir, seed):
    mods = ctx.mods
    tracer = Tracer() if trace else None
    round_latencies: list[list[float]] = []
    plain_runs: list[tuple[float, float]] = []  # (pass seconds, speed factor)
    traced_runs: list[tuple[float, float]] = []
    layer_rounds: list[dict] = []
    failures: dict[str, str] = {}
    fault_status: dict[str, str] = {}
    attempted = failed = 0
    unexpected = False
    measured = 0.0
    origin = perf_counter()
    for r, jobs in enumerate(rounds):
        traced = trace and r % 2 == 1
        if traced:
            tracer.reset_round()
            tracer.install()
        gc.collect()
        t0 = perf_counter()
        try:
            run_s, latencies, factors, outcomes = _timed_pass(jobs, mods, tracer if traced else None, r)
        finally:
            if traced:
                tracer.uninstall()
        measured += perf_counter() - t0
        scaled_latencies = [t / f for t, f in zip(latencies, factors)]
        # the pass's factor: each job's factor weighted by its time
        factor = sum(latencies) / sum(scaled_latencies)
        if traced:
            traced_runs.append((run_s, factor))
            layer_rounds.append(tracer.round_metrics(run_s))
        else:
            plain_runs.append((run_s, factor))
            round_latencies.append(scaled_latencies)
        for job, (result, exc) in zip(jobs, outcomes):
            attempted += 1
            why = _judge(job, result, exc)
            if job.fault is not None:
                fault_status[job.fault] = why or "mended: behaves as the contract says"
            if why is not None:
                failed += 1
                if job.fault is None:
                    unexpected = True
                    failures.setdefault(job.name, why)
        del outcomes
        enough = len(plain_runs) >= (2 if trace else MIN_ROUNDS) and (not trace or len(traced_runs) >= 2)
        if measured >= seconds and enough:
            break

    for name, status in sorted(fault_status.items()):
        print(f"known fault {name}: {status}")
    for name, why in sorted(failures.items()):
        print(f"UNEXPECTED FAILURE {name}: {why}")
    rounds_run = len(plain_runs) + len(traced_runs)
    print(
        f"workload {workload.NAME}: seed {seed}, {rounds_run} rounds of {len(rounds[0])} jobs,"
        f" {attempted} attempted, {failed} failed"
    )

    def scaled(runs):
        return statistics.median(t / f for t, f in runs)

    if trace:
        metrics = {}
        for name in layer_rounds[0]:
            metrics[name] = statistics.median(m[name] for m in layer_rounds)
        metrics["trace.overhead_s"] = scaled(traced_runs) - scaled(plain_runs)
        path = out_dir / f"trace-{workload.NAME}-seed{seed}.jsonl"
        count = tracer.write(path, origin)
        print(f"wrote {count} spans to {path}")
        units = {name: _unit(name) for name in metrics}
    else:
        latencies = [t for per_round in round_latencies for t in per_round]
        metrics = {
            "setup_s": scaled(setups),
            "run_s": scaled(plain_runs),
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "run_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mb": "MB"}
        print(f"set-up wall seconds: {[round(t, 4) for t, _ in setups]}")
        print(f"set-up speed factors: {[round(f, 3) for _, f in setups]}")
        print(f"pass wall seconds: {[round(t, 4) for t, _ in plain_runs]}")
        print(f"pass speed factors: {[round(f, 3) for _, f in plain_runs]}")
        print(f"{len(latencies)} job latencies from {len(plain_runs)} timed rounds, scaled to the reference speed")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share") or name.endswith("_ratio"):
        return "ratio"
    if name.startswith("serialize.bytes"):
        return "bytes"
    return "count"

"""qscale benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qscale checkout; the package is imported from its
``src/`` directory.  Workloads (see ``workloads.py`` for why each exists):
``ingest-year``, ``train-month`` (which ends with a cross-validation on a
thread pool) and ``predict-year``.

With ``--trace 0`` the run sets the workload up several times, each in a
fresh child process, then repeats the workload's operation for ``S``
seconds with tracing off and reports the ``end_to_end`` metrics of
``BENCHMARK.json``:

* ``setup_s``: median time of one set-up, plus loading its output;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``stage_norm_s``: median time of one operation;
* ``throughput_norm_per_s``: items per second for each timed part of the
  operation (raw rows, training windows, predicted rows or folds), from
  the median part time, combined as a geometric mean so that every part
  weighs the same.

Times are taken on a steadied clock.  On the shared 2-core machine the
bounds were tuned on, one CPU at a time ran small NumPy calls about 2x
slower than the other (plain Python code much less so), which one changed
every few seconds, and the whole machine drifted over minutes; raw wall
times of identical runs differed by up to 1.8x.  So before and after each
set-up and each timed part the process times a short reference loop of
the workload's kind of work (``reference_kind``) on every CPU, pins
single-threaded work to the fastest CPU (a thread pool keeps them all),
and scales the part's wall time by ``REFERENCE_S`` over the mean of the
reference times on its CPUs just before and after it.  Raw wall times are
kept in the run record beside the normalised ones.

With ``--trace 1`` the run sets up once in process, measures ``S``
seconds untraced, then repeats the same number of operations with every
layer-boundary call recorded as a span (``spans.py``), and reports the
``per_layer`` metrics.  train-month also runs its cross-validation the
same number of times on one thread, the plain single-threaded baseline.

Every operation's output is checked; the last stdout line is the JSON
result.  A run whose checks fail prints ``"correct": false`` and exits
with 1.  Run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Cap the BLAS pools before NumPy loads, in this process and the set-up
# children that inherit the environment, so the cross-validation thread
# pool is the only source of parallelism and never exceeds nproc.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 170
CPUS = frozenset(os.sched_getaffinity(0))
# each reference loop's time on an uncontended CPU of the machine the
# bounds were tuned on, so that normalised times read as seconds there
REFERENCE_S = {"numpy": 0.009, "python": 0.011}


def reference_loop(kind: str) -> float:
    """Wall seconds of a fixed loop of the kind of work a workload does:
    small NumPy calls (the models) or parsing text rows (ingest)."""
    import numpy as np

    start = time.perf_counter()
    if kind == "numpy":
        x = np.linspace(-1.0, 1.0, 16)
        w = np.full((16, 16), 0.05)
        for _ in range(4000):
            x = np.tanh(w @ x + 0.1)
        total = float(x[0])
    else:
        by_key: dict[tuple[str, str], float] = {}
        for i in range(6000):
            stamp, sensor, _, value = f"2023-01-01T{i % 24:02d}:00:00Z,s{i % 7},pm25,{i / 7!r}".split(",")
            by_key[(stamp, sensor)] = float(value)
        total = sum(by_key.values())
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference loop diverged")
    return elapsed


def pin(n_threads: int, kind: str) -> float:
    """Give ``n_threads`` of work its CPUs: all of them for a pool, else the
    one that currently runs the reference loop fastest.  Returns the
    reference time that work will see: the mean over the CPUs for a pool,
    the fastest CPU's otherwise."""
    times = {}
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        times[cpu] = reference_loop(kind)
    if n_threads > 1:
        os.sched_setaffinity(0, CPUS)
        return statistics.fmean(times.values())
    fastest = min(times, key=times.get)
    os.sched_setaffinity(0, {fastest})
    return times[fastest]


def reference_speed(n_threads: int, kind: str) -> float:
    """The reference time on the CPUs that ``pin(n_threads, kind)`` chose."""
    return reference_loop(kind) if n_threads == 1 else pin(n_threads, kind)


def normalised(wall: float, kind: str, before: float, after: float) -> float:
    """``wall`` rescaled to the speed at which the ``kind`` reference loop
    takes ``REFERENCE_S[kind]``, from its times just before and after."""
    return wall * REFERENCE_S[kind] / (0.5 * (before + after))


_SETUP_CHILD = (
    "import sys; from pathlib import Path; import workloads; "
    "workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))"
)


def _setup_in_child(workload, seed: int, workdir: Path) -> float:
    """Normalised time of one set-up in a fresh child process, which
    inherits the pinning and the BLAS caps; waits for it to end."""
    kind = workload.reference_kind
    before = pin(1, kind)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, workload.name, str(seed), str(workdir)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(SRC)])},
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    wall = time.perf_counter() - start
    return normalised(wall, kind, before, reference_speed(1, kind))


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)


def measure(workload, tally: Tally, seconds: float | None = None, count: int | None = None,
            parts: tuple[str, ...] | None = None) -> list[dict[str, dict[str, float]]]:
    """Repeat the operation, or only ``parts`` of it, for ``seconds`` (at
    least once) or ``count`` times.

    Returns for every successful operation the ``wall`` and normalised
    (``norm``) seconds of each part.
    """
    import workloads

    samples = []
    attempts = 0
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        attempts += 1
        sample: dict[str, dict[str, float]] = {"wall": {}, "norm": {}}
        try:
            for part in parts or workload.parts:
                threads, kind = workload.threads(part), workload.reference_kind
                before = pin(threads, kind)
                start = time.perf_counter()
                result = workload.run(part)
                wall = time.perf_counter() - start
                after = reference_speed(threads, kind)
                sample["wall"][part] = wall
                sample["norm"][part] = normalised(wall, kind, before, after)
                workload.check(part, result)
            samples.append(sample)
            tally.record(1, [])
        except workloads.CheckFailed as err:
            tally.record(1, [str(err)])
        except Exception:  # an operation that raises is a failed operation
            tally.record(1, [traceback.format_exc()])
        done = attempts >= count if count is not None else time.perf_counter() >= deadline
        if done:
            return samples


def part_rates(workload, samples) -> dict[str, float]:
    return {
        part: workload.items[part] / statistics.median(s["norm"][part] for s in samples)
        for part in workload.parts
    }


def throughput(workload, samples) -> float:
    """Geometric mean over the parts of items per second."""
    rates = part_rates(workload, samples).values()
    return math.exp(statistics.fmean(math.log(r) for r in rates))


def stage_s(samples) -> float:
    return statistics.median(sum(s["norm"].values()) for s in samples)


def environment(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


def run_plain(args, cls, workdir: Path, tally: Tally):
    setups = [_setup_in_child(cls, args.seed, workdir) for _ in range(cls.setup_repeats)]
    before = pin(1, cls.reference_kind)
    start = time.perf_counter()
    workload = cls(args.seed, workdir, len(CPUS))
    load_s = normalised(
        time.perf_counter() - start, cls.reference_kind, before, reference_speed(1, cls.reference_kind)
    )
    samples = measure(workload, tally, seconds=args.seconds)
    tally.record(*workload.finish())
    if not samples:
        return workload, None, samples
    metrics = {
        "setup_s": statistics.median(setups) + load_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage_norm_s": stage_s(samples),
        "throughput_norm_per_s": throughput(workload, samples),
    }
    return workload, metrics, samples


def run_traced(args, cls, workdir: Path, tally: Tally, out_dir: Path):
    import spans
    import workloads

    setup_rec, ops_rec, finish_rec = spans.SpanRecorder(), spans.SpanRecorder(), spans.SpanRecorder()
    with spans.installed(setup_rec):
        cls.setup(args.seed, workdir)
        workload = cls(args.seed, workdir, len(CPUS))
    # one untimed operation first, so that neither timed pass runs on the
    # cold heap and caches that the in-process set-up left behind
    measure(workload, tally, count=1)
    untraced = measure(workload, tally, seconds=args.seconds)
    if not untraced:
        return workload, None, untraced
    # counts must repeat bit for bit between identical operations, so that a
    # later change can claim a count by its name
    traced, per_op = [], []
    with spans.installed(ops_rec):
        for _ in untraced:
            before = dict(ops_rec.counters)
            traced += measure(workload, tally, count=1)
            per_op.append({k: v - before.get(k, 0.0) for k, v in ops_rec.counters.items()})
    tally.record(len(per_op) - 1, [f"counts differ between identical operations: {per_op[0]} vs {op}"
                     for op in per_op[1:] if op != per_op[0]])
    with spans.installed(finish_rec):
        tally.record(*workload.finish())
    if not traced:
        return workload, None, untraced
    metrics = spans.layer_metrics(
        setup_rec, ops_rec, finish_rec, len(traced), getattr(workload, "n_threads", 1)
    )
    metrics["trace.overhead"] = stage_s(traced) / stage_s(untraced) - 1.0
    metrics["experiments.thread_speedup"] = 0.0
    if "cv" in cls.parts:
        threads, workload.n_threads = workload.n_threads, 1
        single = measure(workload, tally, count=len(untraced), parts=("cv",))
        workload.n_threads = threads
        if single:
            pooled = statistics.median(s["norm"]["cv"] for s in untraced)
            metrics["experiments.thread_speedup"] = stage_s(single) / pooled
    # each workload's per-part rates, and train-month's test losses, under
    # their own names; zero on the workloads that do not measure them
    breakdown = {name: 0.0 for w in workloads.WORKLOADS.values() for name in w.part_metrics.values()}
    breakdown.update({f"test_l1.{kind}": 0.0 for kind in workloads.KINDS})
    for part, rate in part_rates(workload, untraced).items():
        breakdown[cls.part_metrics[part]] = rate
    for kind, l1 in getattr(workload, "test_l1", {}).items():
        breakdown[f"test_l1.{kind}"] = l1
    metrics.update(breakdown)
    for name, rec in (("setup", setup_rec), ("ops", ops_rec), ("finish", finish_rec)):
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}-{name}.npz")
    return workload, metrics, untraced


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] if spec else None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if spec is None or not (SRC / "qscale" / "__init__.py").is_file():
        print(f"error: run from a qscale checkout; {spec_path} or {SRC / 'qscale'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            workload, metrics, samples = run_traced(args, cls, workdir, tally, out_dir)
        else:
            workload, metrics, samples = run_plain(args, cls, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: no operation succeeded, nothing to report", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(set(metrics) ^ set(declared))} disagree with "
              f"{spec_path.name}", file=sys.stderr)
        return 1

    env = environment(args, workload)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {"environment": env, **result, "op_seconds": samples}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    for name, unit in declared.items():
        print(f"{name:<42} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

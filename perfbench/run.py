"""capax benchmark: seeded closed-loop workloads through the public API and CLI.

Run from the root of a checkout (the directory holding src/capax):

    python3 perfbench/run.py --workload series-generic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload with one client: each task starts only after
the previous one has finished and been checked.  BLAS and OpenMP are pinned
to one thread before numpy loads.  The last line of standard output is the
result object; the line before it is a report with every metric, the
environment and the failures.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2          # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT_S = 60
SMOKE_TIMEOUT_S = 170

REF_PERIOD_S = 0.5       # the reference kernel runs this often in untraced runs

# The end-to-end metrics on the result line: the ones every workload has
# that stay steady from seed to seed, with throughput normalised to the
# reference machine speed (see reference.py).  The report line holds the
# rest: medians (a median of a dozen draws whose costs differ by +-20 %
# moves more than their mean), raw times, the tail, failed_ratio and the
# per-workload quality metrics.
RESULT_METRICS = ("setup_s", "tasks_per_s.norm", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "tasks_per_s.norm": "1/s",
    "task_s.p50.norm": "s",
    "tasks_per_s": "1/s",
    "task_s.p50": "s",
    "ref_kernel_s": "s",
    "task_s.tail": "s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "certified_ratio": "ratio",
    "diam_err.max": "ratio",
    "lift_defect_ratio": "ratio",
    "telescoping_fail_ratio": "ratio",
    "root_residual.max": "ratio",
    "fit_residual.max": "1",
}
# The names again here, because importing workloads imports capax, which
# belongs to the timed set-up.
WORKLOAD_NAMES = ("series-generic", "pullback-cli", "lift-generic", "identities-seeded")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="sizes the run: it makes round(seconds * tasks_per_run_second) "
                        "tasks, a fixed rate per workload (see workloads.py)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="8x8 meshes, n = 2, one task (used by --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload tiny, traced and untraced, and check "
                        "that every metric is printed with its unit")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up and reference-kernel "
                        "times as JSON (a run starts a few of these for setup_s)")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# set-up


def setup(args, tmp: str):
    """Import capax, draw the seeded inputs (one per task) and write the map
    files.  Returns the workload, sizes, inputs and the set-up's timing: its
    raw seconds and the reference kernel's time right after it."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sizes = workloads.SMOKE if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload]
    count = 1 if args.tiny else max(1, round(args.seconds * wl.tasks_per_run_second))
    inputs = wl.make_inputs(random.Random(f"{args.workload}:{args.seed}"), sizes, tmp, count)
    raw = time.perf_counter() - t0
    import reference

    return wl, sizes, inputs, {"raw_s": raw, "kernel_s": reference.kernel_s()}


def setup_in_fresh_process(args) -> dict:
    """The timing of one set-up in a fresh process (interpreter start-up is
    not in it)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(timings) -> float:
    """Median set-up time at the reference kernel's nominal speed: each
    set-up's raw seconds scaled by the kernel's nominal over its measured
    time right after that set-up."""
    import reference

    return statistics.median(t["raw_s"] * reference.NOMINAL_S / t["kernel_s"] for t in timings)


def scratch_dir(kind: str) -> str:
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=kind + "-", dir=base)


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """Task timings, failures and quality samples of one sequence of tasks."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) per task
        self.durations: list[float] = []
        self.normalised: list[float] = []  # at nominal speed, where measured
        self.ref_s: list[float] = []
        self.completed = 0
        self.failures: list[str] = []
        self.findings: list[str] = []
        self.samples: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.spans)


def run_one(wl, sizes, inp, i: int, ctx, result: Pass, tracer=None) -> None:
    """One task, then its output check; with a tracer, only the task is traced."""
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out = wl.run(inp, sizes)
        except Exception:  # a failing task is counted, not raised
            out, error = None, traceback.format_exc(limit=-2).strip()
        else:
            error = None
        result.spans.append((t0, time.perf_counter()))
    if error is not None:
        result.failures.append(f"task {i}: {error}")
        return
    result.completed += 1
    try:
        check = wl.check(inp, out, sizes, ctx)
    except Exception:
        result.failures.append(f"task {i} check: " + traceback.format_exc(limit=-2).strip())
    else:
        result.samples.append(check.samples)
        if check.finding:
            result.findings.append(f"task {i}: {check.finding}")
        if not check.ok:
            result.failures.append(f"task {i}: {check.reason}")


def run_calibrated(wl, sizes, inputs, ctx) -> Pass:
    """One task per input while the reference kernel samples the machine's
    speed (see reference.py).  Task times exclude the kernel's time inside
    them, and each is also given at nominal speed: scaled by the kernel's
    nominal time over its mean time during the task."""
    import reference

    result = Pass()
    with reference.Sampler(REF_PERIOD_S) as sampler:
        for i, inp in enumerate(inputs):
            run_one(wl, sizes, inp, i, ctx, result)
    for start, end in result.spans:
        result.ref_s.append(sampler.kernel_s(start, end))
    result.durations = [end - start - sampler.busy(start, end) for start, end in result.spans]
    result.normalised = [d * reference.NOMINAL_S / r for d, r in zip(result.durations, result.ref_s)]
    return result


def tail(durations):
    """(p, value): the highest whole percentile with at least ten tasks above
    it, by nearest rank; (None, None) with fewer than eleven tasks."""
    xs = sorted(durations)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None, None


def quality(names, samples) -> dict:
    out = {}
    for name in names:
        values = [s[name] for s in samples if s.get(name) is not None]
        if not values:
            out[name] = None  # not observable at this commit
        elif name.endswith(".max"):
            out[name] = max(values)
        else:
            den = sum(d for _, d in values)
            out[name] = sum(n for n, _ in values) / den if den else 0.0
    return out


def metric(value, unit):
    entry = {"value": value, "unit": unit}
    if value is None:
        entry["absent"] = True
    return entry


# ---------------------------------------------------------------------------
# environment


def environment(args) -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config["Build Dependencies"].get("blas"),
        "lapack": config["Build Dependencies"].get("lapack"),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(args) -> tuple[dict, dict]:
    tmp = scratch_dir(args.workload)
    try:
        wl, sizes, inputs, own_setup = setup(args, tmp)
        probes = 1 if args.tiny else SETUP_PROBES
        setups = [own_setup] + [setup_in_fresh_process(args) for _ in range(probes)]
        ctx: dict = {}
        if args.trace:
            return traced(args, wl, sizes, inputs, ctx, setups)
        return untraced(args, wl, sizes, inputs, ctx, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def untraced(args, wl, sizes, inputs, ctx, setups):
    done = run_calibrated(wl, sizes, inputs, ctx)
    p, tail_value = tail(done.durations)
    values = {
        "setup_s": setup_seconds(setups),
        "tasks_per_s.norm": done.completed / sum(done.normalised),
        "task_s.p50.norm": statistics.median(done.normalised),
        "tasks_per_s": done.completed / sum(done.durations),
        "task_s.p50": statistics.median(done.durations),
        "task_s.tail": tail_value,
        "failed_ratio": len(done.failures) / done.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_kernel_s": statistics.median(done.ref_s),
        **quality(wl.quality, done.samples),
    }
    metrics = {k: metric(v, UNITS[k]) for k, v in values.items()}
    report = {
        "tasks": done.attempted,
        "task_s.tail.percentile": p,
        "task_s.each": done.durations,
        "task_s.norm.each": done.normalised,
        "ref_kernel_s.each": done.ref_s,
        "setups": setups,
        "metrics": metrics,
        "failures": done.failures,
        "findings": done.findings,
    }
    result = {
        "correct": not done.failures,
        "attempted": done.attempted,
        "failed": len(done.failures),
        "metrics": {k: metrics[k] for k in RESULT_METRICS},
    }
    return report, result


def traced(args, wl, sizes, inputs, ctx, setups):
    """The first third of the inputs, each run three times in a row: untraced
    (A), traced (B) and traced again (C).

    B gives the per-layer metrics and, against A, the tracing overhead; C
    checks that every count repeats.  For the overhead, A and B swap order
    from one input to the next, and each is timed at nominal speed by the
    reference kernel run just before and just after it (a sampler that
    interrupts the tasks would land inside the spans).
    """
    import reference
    from layers import Tracer, layer_metrics

    k = max(1, round(len(inputs) / 3))
    plain, traced_pass, repeat = Pass(), Pass(), Pass()
    first, second = Tracer(), Tracer()
    for i, inp in enumerate(inputs[:k]):
        order = [(plain, None), (traced_pass, first)]
        speed = reference.kernel_s()
        for result, tracer in order if i % 2 == 0 else order[::-1]:
            run_one(wl, sizes, inp, i, ctx, result, tracer)
            after = reference.kernel_s()
            result.ref_s.append((speed + after) / 2)
            speed = after
        run_one(wl, sizes, inp, i, ctx, repeat, second)
    for result in (plain, traced_pass):
        result.durations = [end - start for start, end in result.spans]
        result.normalised = [d * reference.NOMINAL_S / r for d, r in zip(result.durations, result.ref_s)]
    counts_b, counts_c = first.raw_counts(), second.raw_counts()
    mismatched = sorted(n for n in counts_b.keys() | counts_c.keys()
                        if counts_b.get(n) != counts_c.get(n))

    layers = layer_metrics(first, k)
    task_s = sum(traced_pass.durations) / k
    layers["trace.overhead_ratio"] = (sum(traced_pass.normalised) / sum(plain.normalised) - 1.0, "ratio")
    layers["trace.task_s"] = (task_s, "s/task")
    layers["trace.count_mismatches"] = (float(len(mismatched)), "count")
    metrics = {name: metric(v, u) for name, (v, u) in layers.items()}

    def share(name):
        value = layers[name][0]
        return None if value is None else value / task_s

    def per_series(name):
        value, series = layers[name][0], layers["diameters.transfinite_diameter.calls"][0]
        return value / series if value is not None and series else None

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"tasks": k, "spans": first.spans}, fh)

    failures = plain.failures + traced_pass.failures + repeat.failures
    attempted = plain.attempted + traced_pass.attempted + repeat.attempted
    report = {
        "tasks_per_pass": k,
        "setups": setups,
        "metrics": metrics,
        "absent": sorted(first.absent),
        "count_mismatches": {n: [counts_b.get(n), counts_c.get(n)] for n in mismatched},
        "shares_of_task": {
            "chebyshev.minimax.s": share("chebyshev.minimax.s"),
            "sets.graph_lift.s": share("sets.graph_lift.s"),
            "sets.fiber.self_s": share("sets.fiber.self_s"),
        },
        "evaluate_monomials_calls_per_series": per_series("chebyshev.evaluate_monomials.calls"),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures,
        "findings": plain.findings + traced_pass.findings + repeat.findings,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return report, result


# ---------------------------------------------------------------------------
# smoke


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def smoke() -> int:
    """Every workload tiny, untraced and traced, in fresh processes; checks
    the result line against BENCHMARK.json and the report line against the
    full metric list."""
    expected = declared()
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT_S)
            label = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            lines = done.stdout.strip().splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: result metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{label}: {k} = {v['value']!r}")
            if trace == 0:
                import workloads

                wanted = set(RESULT_METRICS) | {"task_s.tail", "failed_ratio"}
                wanted |= set(workloads.WORKLOADS[name].quality)
                printed = {k: v["unit"] for k, v in report["metrics"].items()}
                missing = sorted(k for k in wanted if printed.get(k) != UNITS[k])
                if missing:
                    problems.append(f"{label}: report lacks {missing}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} tasks, {result['failed']} failed", flush=True)
            if result["failed"]:
                problems.append(f"{label}: {report['failures']}")
    for line in problems:
        print("SMOKE PROBLEM " + line, file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "capax" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/capax; run from the root of a capax checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        sys.path.insert(0, str(ROOT / "src"))
        return smoke()
    if args.setup_only:
        tmp = scratch_dir("setup")
        try:
            *_, timing = setup(args, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(json.dumps(timing))
        return 0
    report, result = run_workload(args)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args), **report}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the exactlaws separation engine: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--size smoke]

One process runs one workload as a closed loop: a single client starts the
next operation when the previous one returns.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics.  Every operation's outputs are checked;
the last line of standard output is the JSON result.  ``--workload all``
runs each workload in its own process, untraced then traced, and prints a
table.  ``--size smoke`` shrinks every workload to a few seconds;
``--size full`` runs the 10-20 s operations of a full study.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one operation at a time on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import functools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-bandlimited", "ballshell-multilaw", "exact-gates-abc", "sweep-fullspectrum")
SETUP_ROUNDS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import exactlaws; print(time.perf_counter() - t)"
COUNT_UNITS = {"kernels.reduced_m": "points", "kernels.kmax": "wavenumber",
               "kernels.alias_free": "flag", "kernels.fft_points": "points"}
SETUP_ONLY = ("grid.write_field_s", "synth.random_solenoidal_s")  # timed in set-up, not per operation
# Median time of reference_seconds() on the 2-vCPU Intel Xeon virtual machine
# where the benchmark was defined; rescaled times read close to seconds there.
REF_NOMINAL_S = 0.139


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def listed_benchmark() -> dict:
    """BENCHMARK.json: run length and the metrics the result line carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance(seed: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (git not available)"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "trace": trace,
    }


class QuietStdout:
    """Send file descriptor 1 to a log while the program runs (its verdict
    lines would otherwise precede the result line)."""

    def __init__(self, log_path: Path):
        self.log_path = log_path

    def __enter__(self):
        sys.stdout.flush()
        self.saved = os.dup(1)
        self.log = open(self.log_path, "ab")
        os.dup2(self.log.fileno(), 1)

    def __exit__(self, *exc):
        sys.stdout.flush()
        os.dup2(self.saved, 1)
        os.close(self.saved)
        self.log.close()


def probe_import() -> float:
    """Import time of exactlaws in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_ticks() -> tuple[int, int]:
    """(total, stolen) clock ticks of all CPUs so far; (0, 0) where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields[:8]), (fields[7] if len(fields) > 7 else 0)


@functools.cache
def _reference_field():
    import numpy as np

    return np.random.default_rng(0).standard_normal((3, 48, 48, 48))


def reference_seconds() -> float:
    """Time of a fixed computation that shares no code with exactlaws: an
    interpreter loop and numpy FFT round trips of a sweep's grid size.  Run
    just before each timed step, it gives the speed of the host at that
    moment, which on a shared host drifts by tens of percent over minutes."""
    import numpy as np

    field = _reference_field()
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(6):
        spec = np.fft.rfftn(field, axes=(1, 2, 3))
        back = np.fft.irfftn(spec * spec, s=field.shape[1:], axes=(1, 2, 3))
        (back * field * back).mean(axis=(1, 2, 3))
    return time.perf_counter() - start


def timed_loop(seconds: float, min_ops: int, run_one) -> float:
    """Run operations until the next one would end past ``seconds``; returns
    the share of CPU time the hypervisor stole meanwhile (context only)."""
    start, (total0, steal0) = time.perf_counter(), cpu_ticks()
    walls: list[float] = []
    while True:
        walls.append(run_one(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_ops and elapsed + statistics.median(walls) > seconds:
            total, steal = cpu_ticks()
            return (steal - steal0) / max(total - total0, 1)


def run_op(wl, cli, inputs, work: Path, quiet: QuietStdout) -> dict:
    """One operation: its wall and CPU time, its output digest and payload, and any problems."""
    problems = []
    for path in wl.output_paths(work):  # a stale output must not pass for a new one
        path.unlink(missing_ok=True)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with quiet:
            for argv in wl.argvs(inputs, work):
                rc = cli.main(argv)
                if rc != 0:
                    problems.append(f"exactlaws {argv[0]} exited {rc}")
    except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    digest = payload = None
    if not problems:
        try:
            digest, payload = wl.outputs(work)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable outputs: {exc}")
    return {"wall": wall, "cpu": cpu, "digest": digest, "payload": payload, "problems": problems}


def check_ops(wl, inputs, ops: list[dict]) -> None:
    """Compare every operation with the reference and with the first repeat;
    then confirm that deliberately perturbed references are caught."""
    ref = wl.reference(inputs)
    first = next((op["digest"] for op in ops if op["digest"] is not None), None)
    for op in ops:
        if op["payload"] is None:
            continue
        op["problems"] += wl.check(op["payload"], ref)
        if op["digest"] != first:
            op["problems"].append("output hash differs from the first repeat in this run")
    good = next((op for op in ops if not op["problems"]), None)
    if good is not None:
        for label, bad in wl.perturbed(ref):
            if not wl.check(good["payload"], bad):
                raise BenchmarkError(f"comparison missed a perturbed reference ({label})")


def layer_metrics(tracer, traced: list[int], separations: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics (medians over traced operations) and exact work counts."""
    spans = tracer.spans
    selfs = tracer.self_times()
    per_op = {op: {} for op in traced + ["setup"]}
    durations = []
    for i, s in enumerate(spans):
        acc = per_op[s.op]
        nested = s.parent is not None and spans[s.parent].name == s.name
        if not nested:
            acc[s.name + ":total"] = acc.get(s.name + ":total", 0.0) + s.duration
        acc[s.name + ":self"] = acc.get(s.name + ":self", 0.0) + selfs[i]
        acc[s.name + ":calls"] = acc.get(s.name + ":calls", 0) + 1
        if s.name == "kernels.increments" and s.op != "setup":
            durations.append(s.duration)
            acc["fft_points"] = acc.get("fft_points", 0) + s.info
        if s.name == "kernels.engine_build":
            m, kmax, _ = s.info
            acc["reduced_m"] = max(acc.get("reduced_m", 0), m)
            acc["kmax"] = max(acc.get("kmax", 0), kmax)
            acc["alias_free"] = min(acc.get("alias_free", 1), int(m > 3 * kmax))

    counts = []
    for op in traced:
        acc = per_op[op]
        counts.append({
            "work.separations": separations,
            "kernels.increments_calls": acc.get("kernels.increments:calls", 0),
            "kernels.term_means_calls": acc.get("kernels.term_means:calls", 0),
            "kernels.engine_builds": acc.get("kernels.engine_build:calls", 0),
            "kernels.reduced_m": acc.get("reduced_m", 0),
            "kernels.kmax": acc.get("kmax", 0),
            "kernels.alias_free": acc.get("alias_free", 0),
            "kernels.fft_points": acc.get("fft_points", 0),
        })

    def med(key):
        return statistics.median(per_op[op].get(key, 0.0) for op in traced)

    def setup(key):  # write_field and random_solenoidal run only in set-up
        return per_op["setup"].get(key, 0.0)

    metrics = {
        "kernels.increments_s": (med("kernels.increments:total"), "s"),
        "kernels.increments_ms_p50": (1e3 * statistics.median(durations) if durations else 0.0, "ms"),
        "kernels.term_means_s": (med("kernels.term_means:total"), "s"),
        "kernels.angular_sums_self_s": (med("kernels.angular_sums:self"), "s"),
        "kernels.engine_build_s": (med("kernels.engine_build:total"), "s"),
        "laws.sweep_structure_self_s": (med("laws.sweep_structure:self"), "s"),
        "mollifier.assembly_self_s": (med("mollifier.assembly:self"), "s"),
        "mollifier.coefficient_oracle_s": (med("mollifier.coefficient_oracle:total"), "s"),
        "geometry.identity227_batch_s": (med("geometry.identity227_batch:total"), "s"),
        "geometry.direction_set_s": (med("geometry.direction_set:total"), "s"),
        "grid.read_field_s": (med("grid.read_field:total"), "s"),
        "grid.write_field_s": (setup("grid.write_field:total"), "s"),
        "grid.curl_s": (med("grid.curl:total"), "s"),
        "synth.random_solenoidal_s": (setup("synth.random_solenoidal:total"), "s"),
        "report.write_report_s": (med("report.write_report:total"), "s"),
        "report.write_csv_s": (med("report.write_csv:total"), "s"),
        "cli.self_s": (med("cli.main:self"), "s"),
    }
    return metrics, counts


def run_workload(args) -> dict:
    wl = workloads.make_workloads(args.size)[args.workload]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from exactlaws import cli

    import_s = time.perf_counter() - start
    work = OUT / "work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    quiet = QuietStdout(work / "program-stdout.log")
    try:
        return measure(args, wl, cli, work, quiet, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, cli, work, quiet, import_s) -> dict:
    ops: list[dict] = []
    counts: list[dict] = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.op = "setup"
        tracer.install()
        try:
            with quiet:
                inputs = wl.setup(work, args.seed, cli)
        finally:
            tracer.uninstall()
        traced: list[int] = []

        def one(i):
            if i % 2:
                tracer.op = i
                traced.append(i)
                tracer.install()
                try:
                    op = run_op(wl, cli, inputs, work, quiet)
                finally:
                    tracer.uninstall()
            else:
                op = run_op(wl, cli, inputs, work, quiet)
            op["traced"] = bool(i % 2)
            ops.append(op)
            return op["wall"]

        steal = timed_loop(args.seconds, 2, one)
        check_ops(wl, inputs, ops)
        metrics, counts = layer_metrics(tracer, traced, wl.separations)
        for op, c in zip(traced, counts):
            if c != counts[0]:
                ops[op]["problems"].append(f"work counts {c} differ from the first traced operation {counts[0]}")
        # Each traced operation minus the untraced one just before it; the
        # first pair pays one-time lazy imports.
        pairs = range(3 if len(ops) >= 4 else 1, len(ops), 2)
        metrics["trace.overhead_s"] = (statistics.median(ops[i]["wall"] - ops[i - 1]["wall"] for i in pairs), "s")
        metrics.update({k: (v, COUNT_UNITS.get(k, "count")) for k, v in counts[0].items()})
        spans_path = OUT / "spans" / f"{wl.name}-seed{args.seed}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(spans_path)
    else:
        setups, setup_refs = [], []
        for _ in range(1 if args.size == "smoke" else SETUP_ROUNDS):
            setup_refs.append(reference_seconds())
            probe = probe_import()
            start = time.perf_counter()
            with quiet:
                inputs = wl.setup(work, args.seed, cli)
            setups.append(probe + time.perf_counter() - start)

        def one(i):
            ref = reference_seconds()
            ops.append(run_op(wl, cli, inputs, work, quiet))
            ops[-1]["ref"] = ref
            return ref + ops[-1]["wall"]

        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        steal = timed_loop(args.seconds, 2, one)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mb = usage.ru_maxrss / 1024.0
        minor_faults_per_op = (usage.ru_minflt - faults) / len(ops)
        check_ops(wl, inputs, ops)
        wall_s = statistics.median(op["wall"] for op in ops)
        # Each step's time rescaled by the reference computation run just before it.
        wall_ref_s = statistics.median(op["wall"] * REF_NOMINAL_S / op["ref"] for op in ops)
        setup_s = statistics.median(t * REF_NOMINAL_S / ref for t, ref in zip(setups, setup_refs))
        metrics = {
            "wall_ref_s": (wall_ref_s, "s"),
            "separations_per_ref_s": (wl.separations / wall_ref_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "wall_s": (wall_s, "s"),
            "separations_per_s": (wl.separations / wall_s, "1/s"),
            "setup_raw_s": (statistics.median(setups), "s"),
            "reference_s": (statistics.median(op["ref"] for op in ops), "s"),
        }

    listed = listed_benchmark()
    result_metrics = {}
    for entry in listed["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise BenchmarkError(f"{entry['name']} is measured in {unit}, listed in {entry['unit']}")
        result_metrics[entry["name"]] = {"value": value, "unit": unit}
    failed = sum(1 for op in ops if op["problems"])
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
    record = {
        "workload": wl.name,
        "config": repr(wl),
        "provenance": provenance(args.seed, args.trace),
        "in_process_import_s": import_s,
        "cpu_steal_share": steal,
        "minor_faults_per_op": None if args.trace else minor_faults_per_op,
        "walls_s": [op["wall"] for op in ops],
        "traced_op_wall_s": statistics.median(op["wall"] for op in ops if op.get("traced")) if args.trace else None,
        "cpu_s": [op["cpu"] for op in ops],
        "reference_s": [op.get("ref") for op in ops],
        "traced": [op.get("traced", False) for op in ops],
        "problems": [op["problems"] for op in ops],
        "work_counts": counts,
        "metrics": result_metrics,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(ops),
        "failed": failed,
    }
    results = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_summary(record: dict) -> None:
    n = record["attempted"]
    print(f"workload {record['workload']}: {n} operations, {record['failed']} failed, "
          f"error_rate {record['failed'] / n:g}")
    if not record["provenance"]["trace"]:
        if n >= 100:
            p90 = statistics.quantiles(record["walls_s"], n=10)[-1]
            print(f"  wall_s is the median of {n} samples; their 90th percentile is {p90:.6g} s")
        else:
            print(f"  wall_s and wall_ref_s are medians of {n} samples, too few for a tail "
                  "percentile with ten samples beyond it")
        print(f"  reference computation: median {record['all_metrics']['reference_s']['value']:.6g} s "
              f"(nominal {REF_NOMINAL_S} s)")
        print(f"  process CPU time per operation: median {statistics.median(record['cpu_s']):.6g} s; "
              f"CPU time stolen by the host: {record['cpu_steal_share']:.3f} of all CPUs; "
              f"minor page faults per operation: {record['minor_faults_per_op']:.0f}")
    op_wall = record["traced_op_wall_s"]
    if op_wall is not None:
        print(f"  a traced operation takes {op_wall:.6g} s (median); layer times below give their share of it")
    for name, m in record["all_metrics"].items():
        share = ""
        if op_wall is not None and m["unit"] == "s" and name not in SETUP_ONLY:
            share = f" ({m['value'] / op_wall:7.2%})"
        note = "" if name in record["metrics"] else "  (recorded, not in the result line)"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{share}{note}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--size", args.size]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.append((name, trace, result))
    print(f"\n{'workload':20s} {'metric':32s} {'value':>14s} unit")
    for name, trace, result in rows:
        if not trace:
            rate = result["failed"] / result["attempted"]
            print(f"{name:20s} {'error_rate':32s} {rate:14.6g} failed/attempted")
        for metric, m in result["metrics"].items():
            print(f"{name:20s} {metric:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="standard",
                        help="operation size: smoke (seconds per workload), standard, full (10-20 s operations)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "exactlaws" / "__init__.py").is_file():
        print(f"error: no exactlaws sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1 if args.size != "standard" else listed_benchmark()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_summary(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

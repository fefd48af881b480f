"""Benchmark of meqlab: seeded workloads, timed end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all --seconds S     # the four groups in turn
    python3 perfbench/run.py --self-test                     # tiny sizes, seconds

NAME is one of the job groups verify_3node, verify_star, search and rewrite,
or rewrite_search, which runs the last two in each pass (see NOTES.md).
The seed picks the generated inputs; the program only receives the files.
Each pass runs the workload's job list once in a fresh interpreter
(child.py), closed loop, one process at a time, until the next pass would
end after S seconds. Every job's output is checked.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones.
The exit code is 0 when every job passed its check, 1 when one failed, and
2 when the checkout holds no ``src/meqlab`` to benchmark.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT, SRC = child.ROOT, child.SRC
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 3  # untraced passes per run, and traced passes in a traced run
CHILD_TIMEOUT = 170


def _median_and_tail(samples):
    """Median, plus the highest percentile with at least ten samples above
    it (nearest rank) when there are more than ten samples."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = (round(100 * (n - 10) / n), ordered[n - 11])
    return statistics.median(ordered), tail


def _spawn(workdir, manifest, mode):
    """Run one child; return its result with `setup_s` added, or None when
    it died or wrote nothing."""
    for name in manifest["outputs"]:
        (workdir / name).unlink(missing_ok=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(workdir / "manifest.json"), str(result_path)]
    if mode:
        argv.append(mode)
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not result_path.exists():
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["first_job_at"] - spawned_at
    return result


def measure(name, seed, seconds, trace, tiny=False, tamper=False):
    """Generate the inputs, run passes for `seconds`, return the summary."""
    workdir = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        manifest = workloads.generate(name, seed, workdir, tiny=tiny, tamper=tamper)
        deadline = time.perf_counter() + seconds
        setups = []
        runs = {None: [], "--trace": []}
        cycle_s = {None: [], "--trace": []}  # wall time of probe plus pass
        modes = [None, "--trace"] if trace else [None]
        attempted = failed = 0
        errors = []
        while True:
            mode = modes[sum(len(r) for r in runs.values()) % len(modes)]
            done = runs[mode]
            cycle_start = time.perf_counter()
            if len(done) >= MIN_PASSES and cycle_start + statistics.median(cycle_s[mode]) > deadline:
                break
            if not trace:  # a set-up probe just before each pass
                probe = _spawn(workdir, manifest, "--setup-only")
                if probe is not None:
                    setups.append(probe["setup_s"])
            result = _spawn(workdir, manifest, mode)
            done.append(result)
            cycle_s[mode].append(time.perf_counter() - cycle_start)
            attempted += len(manifest["jobs"])
            if result is None:
                failed += len(manifest["jobs"])
                errors.append("pass process failed")
                continue
            for job in result["jobs"]:
                if job["error"] is not None:
                    failed += 1
                    errors.append(f"{job['id']}: {job['error']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in runs[None] if r is not None]
    traced = [r for r in runs["--trace"] if r is not None]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{name}: no pass completed: {errors[:3]}")
    setups += [r["setup_s"] for r in plain]
    return {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": failed, "errors": errors,
        "setup_s": setups,
        "pass_s": [r["pass_s"] for r in plain],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in plain],
        "jobs": {job["id"]: [next(j["s"] for j in r["jobs"] if j["id"] == job["id"]) for r in plain]
                 for job in manifest["jobs"]},
        "traced_pass_s": [r["pass_s"] for r in traced],
        "layers": [tracing.layer_metrics(r["spans"], r["absent"]) for r in traced],
    }


def metrics_of(summary):
    """The metrics of the last output line, name -> value."""
    if not summary["trace"]:
        return {name: statistics.median(summary[name]) for name in END_TO_END_UNITS}
    values = tracing.median_metrics(summary["layers"])
    values["trace.overhead_s"] = (statistics.median(summary["traced_pass_s"])
                                  - statistics.median(summary["pass_s"]))
    return values


def report(summary, values):
    """Human-readable lines: every metric by name, unit and sample count."""
    name, attempted, failed = summary["workload"], summary["attempted"], summary["failed"]
    print(f"[{name}] seed={summary['seed']} trace={summary['trace']} "
          f"jobs attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f}")
    if not summary["trace"]:
        for metric, unit in END_TO_END_UNITS.items():
            samples = summary[metric]
            median, tail = _median_and_tail(samples)
            tail_text = f"p{tail[0]}={tail[1]:.4f}" if tail else "no percentile with 10 samples beyond"
            print(f"  {metric:<40} {median:12.4f} {unit:<6} median of {len(samples)}; {tail_text}")
    else:
        for metric, unit in tracing.PER_LAYER_UNITS.items():
            value = values[metric]
            shown = "null" if value is None else f"{value:12.4f}"
            print(f"  {metric:<40} {shown:>12} {unit:<6} median of {len(summary['layers'])} traced passes")
    for job, samples in summary["jobs"].items():
        print(f"  job {job:<36} {statistics.median(samples):12.4f} s      median of {len(samples)}")
    for error in summary["errors"][:5]:
        print(f"  FAILED {error}")


def run_record(seed):
    """Recorded with each result, not gated."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "meqlab").rglob("*.py")))
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "src_lines": src_lines}


def self_test():
    """Every workload at tiny size, traced and untraced, on two seeds, plus a
    tampered input per workload that must fail; metric names must match
    BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for name in workloads.WORKLOADS:
        cases = [(workloads.DEFAULT_SEED, 0, False), (workloads.DEFAULT_SEED, 1, False),
                 (workloads.DEFAULT_SEED + 1, 0, False), (workloads.DEFAULT_SEED, 0, True)]
        for seed, trace, tamper in cases:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), "--tiny"] + (["--tamper"] if tamper else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            label = f"{name} seed={seed} trace={trace}{' tampered' if tamper else ''}"
            try:
                last = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if tamper:
                ok = proc.returncode != 0 and not last["correct"] and last["failed"] > 0
            else:
                ok = proc.returncode == 0 and last["correct"] and last["failed"] == 0
            if sorted(last["metrics"]) != sorted(names[trace]):
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            if not ok:
                problems.append(f"{label}: exit {proc.returncode}, correct={last['correct']}, "
                                f"failed={last['failed']}/{last['attempted']}")
            print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {proc.returncode}, "
                  f"failed {last['failed']}/{last['attempted']}")
    for problem in problems:
        print(f"problem: {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--tamper", action="store_true", help="corrupt one input, for the self-test")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        child.import_meqlab()
    except ImportError as err:
        print(f"nothing to benchmark: {err}", file=sys.stderr)
        return 2
    # Byte-compile once, as installing a package does, so that every pass
    # interpreter loads bytecode whether or not it may write it itself.
    for directory in (SRC / "meqlab", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.GROUPS if args.workload == "all" else (args.workload,)
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = run_record(args.seed)
    print(f"record {json.dumps(record)}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        summary = measure(name, args.seed, args.seconds, args.trace, args.tiny, args.tamper)
        values = metrics_of(summary)
        report(summary, values)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in values.items()})
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct = correct and summary["failed"] == 0
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, "metrics": values, "summary": summary}, indent=1),
            encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

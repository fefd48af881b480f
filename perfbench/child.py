"""One pass of a workload, in a fresh interpreter, as a user's command runs.

Usage: child.py MANIFEST RESULT [--trace | --setup-only]

Imports meqlab from the checkout's ``src``, runs the manifest's jobs in
order (CLI jobs through ``meqlab.cli.run`` in this process, search jobs as
library calls), then checks every job's output and writes RESULT as JSON.
``first_job_at`` is a ``time.perf_counter`` reading, which on Linux is the
system-wide monotonic clock, so the parent can subtract its own spawn time
from it. With ``--setup-only`` the child stops right there.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_meqlab():
    """meqlab from this checkout's ``src``, never an installed copy."""
    if not (SRC / "meqlab" / "__init__.py").is_file():
        raise ImportError(f"no meqlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import meqlab
    import meqlab.cli

    if not Path(meqlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"meqlab was imported from {meqlab.__file__}, not from {SRC}")
    return meqlab


def _run_job(meqlab, job):
    """Run one job; return what its check needs. Exceptions propagate."""
    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = meqlab.cli.run(list(job["argv"]))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if job["kind"] == "search":
        return meqlab.optimal_search(job["M"], max_alphabet=job["max_alphabet"])
    raise ValueError(f"unknown job kind {job['kind']!r}")


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, (list, tuple)) else value


def _check(job, outcome):
    """Reason the job's output is wrong, or None when it is right."""
    if job["kind"] == "search":
        want = job["expect"]
        got = {
            "product": outcome.product,
            "sizes": (outcome.U_size, outcome.V_size, outcome.W_size),
            "infeasible": outcome.infeasible,
            "edges": outcome.witness.graph.edges,
            "colors": outcome.witness.colors,
        }
        for key, value in want.items():
            if _tuples(got[key]) != _tuples(value):
                return f"{key}: got {got[key]}, expected {_tuples(value)}"
        return None
    if outcome["exit"] != job["exit"]:
        return f"exit {outcome['exit']}, expected {job['exit']}: {outcome['stderr'].strip()}"
    if "stdout_has" in job and job["stdout_has"] not in outcome["stdout"]:
        return f"stdout {outcome['stdout'].strip()!r} lacks {job['stdout_has']!r}"
    if "same_bytes" in job:
        a, b = job["same_bytes"]
        if Path(a).read_bytes() != Path(b).read_bytes():
            return f"{a} differs from {b}"
    for name, digest in job.get("sha256", {}).items():
        got = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        if got != digest:
            return f"sha256 of {name} is {got}, expected {digest}"
    return None


def main(argv):
    manifest_path, result_path = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    mode = argv[2] if len(argv) > 2 else None
    meqlab = import_meqlab()
    tracer = None
    if mode == "--trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    os.chdir(manifest_path.parent)

    first_job_at = time.perf_counter()
    if mode == "--setup-only":
        result_path.write_text(json.dumps({"first_job_at": first_job_at}), encoding="utf-8")
        return 0

    outcomes = []
    for job in manifest["jobs"]:
        if tracer:
            tracer.job = job["id"]
        start = time.perf_counter()
        try:
            outcome, error = _run_job(meqlab, job), None
        except Exception as exc:  # a failed job is counted, not fatal
            outcome, error = None, f"raised {type(exc).__name__}: {exc}"
        outcomes.append((job, outcome, error, time.perf_counter() - start))
    pass_s = time.perf_counter() - first_job_at

    jobs = []
    for job, outcome, error, seconds in outcomes:
        if error is None:
            try:
                error = _check(job, outcome)
            except (OSError, AttributeError, TypeError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        jobs.append({"id": job["id"], "s": seconds, "error": error})

    result = {
        "first_job_at": first_job_at,
        "pass_s": pass_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the specsplit library: one workload, one seed, one process.

    python3 perfbench/run.py --workload split-blocks --seed 1 --seconds 30 --trace 0

Runs the workload's job list (see perfbench/README.md) in passes until
``--seconds`` are used up, checks every job, and prints each metric by name
with its unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a traced run with
``--trace 1``.  A run record (environment, per-job times, failure classes and
payload hashes) is written to perfbench/out/, next to the printed metrics.

The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in the set-up probes
# that inherit this environment.  One thread: the batched solves are many
# small LAPACK calls that gain nothing from a second thread, and one thread
# keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import ctypes  # noqa: E402

# Return every allocation of 128 KiB or more to the system when it is freed.
# glibc otherwise raises this threshold as the run goes, and the peak resident
# memory then depends on heap fragmentation, that is on the job order.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
CLASSES = ("spectral", "numeric", "usage", "wrong")

END_TO_END_UNITS = {"wall_s": "s", "job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _load_library():
    if not (SRC / "specsplit" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'specsplit'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import specsplit

    if Path(specsplit.__file__).resolve().parent != SRC / "specsplit":
        print(f"error: imported specsplit from {specsplit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return specsplit


def _setup_probe(args) -> int:
    """Child process: time the import of specsplit plus the workload set-up."""
    start = time.perf_counter()
    _load_library()
    import jobs

    jobs.build(args.workload, args.seed, args.smoke)
    print(repr(time.perf_counter() - start))
    return 0


def _measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _classify(exc, ss) -> str | None:
    if isinstance(exc, ss.NearSpectrumError):
        return "spectral"
    if isinstance(exc, (ss.QuadratureError, ss.SplittingMismatchError)):
        return "numeric"
    if isinstance(exc, (ss.OperatorError, ValueError)):
        return "usage"
    return None


def run_job(job, ss) -> dict:
    start = time.perf_counter()
    try:
        payload, failed = job.run()
        outcome = "wrong" if failed else "ok"
        detail = "; ".join(failed)
    except Exception as exc:  # classified below; anything else is a benchmark bug
        outcome = _classify(exc, ss)
        if outcome is None:
            raise
        payload = {"error": type(exc).__name__, "message": str(exc)}
        detail = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = json.dumps(payload, sort_keys=True, default=repr)
    return {"job": job.name, "command": job.command, "s": seconds, "outcome": outcome,
            "detail": detail, "hash": hashlib.sha256(text.encode()).hexdigest()}


def run_pass(workload, ss, tracer=None) -> dict:
    gc.collect()
    records = []
    start = time.perf_counter()
    for index, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = index
        records.append(run_job(job, ss))
    return {"wall_s": time.perf_counter() - start, "traced": tracer is not None,
            "jobs": records}


def run_passes(workload, ss, seconds: float, tracer=None):
    """Whole passes until the next one would overrun ``seconds``; at least
    one.  With a tracer, untraced and traced passes alternate, at least one
    of each.  Returns the passes and the peak RSS after the first one."""
    trace = tracer is not None
    passes = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(workload, ss, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if peak_rss_mb is None:
            # after the first pass, so that the figure does not depend on how
            # many passes fit into the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace and len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds:
            return passes, peak_rss_mb


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, ss) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "specsplit": ss.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("split-blocks", "split-dense", "diagnose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced job list, no probes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)

    ss = _load_library()
    import jobs
    import tracing

    # set-up time is an end-to-end metric only; the traced run skips it
    setup_times = [] if args.trace else _measure_setup(args)
    workload = jobs.build(args.workload, args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    passes, peak_rss_mb = run_passes(workload, ss, args.seconds, tracer)
    probes = [run_job(job, ss) for job in workload.probes]

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    plain_jobs = [r for p in plain for r in p["jobs"]]

    # Determinism guard: every pass, traced or not, must give each job the
    # payload hash of the first pass.
    mismatches = sorted({
        r["job"] for p in passes for r, first in zip(p["jobs"], passes[0]["jobs"])
        if r["hash"] != first["hash"]
    })
    counts = {c: sum(r["outcome"] == c for r in plain_jobs) for c in CLASSES}
    failed = sum(counts.values())
    bad_probes = [r for r in probes if r["outcome"] not in ("ok", "numeric")]
    correct = failed == 0 and not mismatches and not bad_probes

    n_jobs = len(workload.jobs)
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics.update(tracing.kernel_probe(ss))
        metrics["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / wall - 1.0
        units = tracing.UNITS
    else:
        metrics = {
            "wall_s": wall,
            # median over jobs of each job's median over passes, so that the
            # sample count is the job count however many passes ran
            "job_s.p50": statistics.median(
                statistics.median(p["jobs"][i]["s"] for p in plain) for i in range(n_jobs)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    env = _environment(args, ss)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "setup_s": setup_times, "passes": passes, "probes": probes,
              "failure_classes": counts, "hash_mismatches": mismatches, "metrics": metrics,
              "correct": correct}
    record_path = OUT / f"record-{stem}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {n_jobs} jobs x {len(plain)} untraced "
          f"+ {len(traced)} traced passes; BLAS threads {BLAS_THREADS} of nproc {env['nproc']}; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for p_index, p in enumerate(passes):
        for r in p["jobs"]:
            print(f"  pass {p_index}{' traced' if p['traced'] else ''}: {r['s']:8.3f} s "
                  f"{r['outcome']:8s} {r['job']}" + (f" -- {r['detail']}" if r["detail"] else ""))
    for r in probes:
        print(f"  probe: {r['s']:8.3f} s {r['outcome']:8s} {r['job']}"
              + (f" -- {r['detail']}" if r["detail"] else ""))
    print("failure classes: " + ", ".join(f"{c} {counts[c]}" for c in CLASSES)
          + f" (of {len(plain_jobs)} untraced jobs)")
    if probes:
        print("known-defect probes: " + ", ".join(f"{r['job']}: {r['outcome']}" for r in probes))
    print("payload hashes: " + ("MISMATCH " + ", ".join(mismatches) if mismatches
                                else "identical across all passes"))
    for name, value in metrics.items():
        extra = f"  (median over {n_jobs} jobs)" if name == "job_s.p50" else ""
        print(f"  {name:42s} {value!r} {units[name]}{extra}")
    print(f"run record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": len(plain_jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

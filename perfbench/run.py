"""Run one hetcache benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_budget --seed 0 --seconds 20 --trace 0

One client calls ``hetcache.cli.main(argv)`` in this process, one command
after the other (a closed loop), with BLAS and OpenMP pinned to one thread.
The seed fixes a *job*, a list of commands; a run repeats the job as often
as fits in ``--seconds`` at the workload's nominal job time.  Every
command's output is checked against an independent reference, untimed.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced jobs alternate
and it holds the per-layer metrics.
Earlier lines are a human-readable record; the full record, and the spans of
a traced run, go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# must happen before anything imports numpy
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB"}
LAYER_UNITS = {
    "lp_core.ms_per_iter": "ms",
    "closed_form.s": "s",
    "simulator.slack_used": "ratio",
    "simulator.max_discrepancy": "load",
    "simulator.discrepancy_bound": "load",
    "simulator.library_bytes_computed": "bytes",
    "simulator.bits_sent": "bits",
}


def unit_of(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples no such percentile exists; the maximum
    is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Job:
    """One pass over the workload's command list."""

    times: list = field(default_factory=list)
    digest: str = ""
    failures: list = field(default_factory=list)
    layers: dict | None = None
    solve_ms: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.times)


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and the CLI.

    This process pays that cost only once, so its own import time is a single
    noisy sample; fresh interpreters can be started several times.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, hetcache.cli"],
                   env=env, check=True, timeout=120)
    return time.perf_counter() - start


def call_cli(main, argv, tracer=None) -> tuple:
    """(exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span:
                rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing command is a failed command, not a crashed run
            error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
    return rc, out.getvalue(), error


def run_job(main, commands, tracer=None) -> Job:
    job = Job()
    digest = hashlib.sha256()
    for i, command in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        start = time.perf_counter()
        rc, stdout, error = call_cli(main, command.argv, tracer)
        job.times.append(time.perf_counter() - start)
        digest.update(stdout.encode())
        problems = [error] if error else command.check(rc, stdout)
        if problems:
            job.failures.append({"command": i, "argv": list(command.argv),
                                 "problems": problems[:5]})
    job.digest = digest.hexdigest()
    return job


def measure(main, tracing, commands, jobs: int, trace: bool) -> tuple:
    """Run the job ``jobs`` times; with ``trace``, every second job is traced."""
    untraced, traced, spans, missing = [], [], [], set()
    for i in range(max(jobs, 2 if trace else 1)):
        if trace and i % 2:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                job = run_job(main, commands, tracer)
            job.layers = tracing.job_layers(tracer)
            job.solve_ms = tracing.solve_times_ms(tracer.spans)
            spans.append(tracer.spans)
            missing.update(tracer.missing)
            traced.append(job)
        else:
            untraced.append(run_job(main, commands))
    return untraced, traced, spans, sorted(missing)


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(untraced: list, setup_s: float) -> tuple:
    times = [t for job in untraced for t in job.times]
    tail_s, pct = tail(times)
    metrics = {
        "job_s": statistics.median(job.seconds for job in untraced),
        "cmd_p50_ms": statistics.median(times) * 1e3,
        "cmd_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"cmd_tail_pct": pct, "cmd_samples": len(times)}


def per_layer(untraced: list, traced: list, tracing) -> tuple:
    metrics = tracing.median_layers([job.layers for job in traced])
    solve_ms = [ms for job in traced for ms in job.solve_ms]
    if solve_ms:
        solve_tail, pct = tail(solve_ms)
        metrics["lp_core.solve_p50_ms"] = statistics.median(solve_ms)
        metrics["lp_core.solve_tail_ms"] = solve_tail
    else:
        pct = 0.0
        metrics["lp_core.solve_p50_ms"] = metrics["lp_core.solve_tail_ms"] = 0.0
    metrics["trace.overhead_s"] = (statistics.median(job.seconds for job in traced)
                                   - statistics.median(job.seconds for job in untraced))
    counts = [{key: job.layers[key] for key in tracing.COUNTS} for job in traced]
    info = {"solve_tail_pct": pct, "solve_samples": len(solve_ms),
            "counts_repeat": all(c == counts[0] for c in counts)}
    return metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a job of a few small instances, for testing the benchmark")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hetcache", "cli.py")):
        print(f"error: no hetcache sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    from hetcache import cli

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    make_job = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        startup_s = [startup_seconds() for _ in range(SETUP_REPEATS)]
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            commands = make_job(args.seed, workdir, sizes,
                                lambda argv: call_cli(cli.main, argv)[:2])
            prepare_s.append(time.perf_counter() - start)
        setup_s = statistics.median(startup_s) + statistics.median(prepare_s)
        repeats = max(1, round(args.seconds / workloads.JOB_SECONDS[args.workload]))
        untraced, traced, spans, missing = measure(cli.main, tracing, commands,
                                                   repeats, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = untraced + traced
    failures = [f for job in jobs for f in job.failures]
    attempted = len(commands) * len(jobs)
    digests = sorted({job.digest for job in jobs})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(numpy),
        "commands_per_job": len(commands),
        "untraced_jobs": len(untraced),
        "traced_jobs": len(traced),
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "digests_repeat": len(digests) == 1,
        "command_s": [statistics.median(times) for times in zip(*(j.times for j in untraced))],
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "setup": {"import_s": import_s, "startup_s": startup_s, "prepare_s": prepare_s},
    }
    if args.trace:
        metrics, info = per_layer(untraced, traced, tracing)
        info["untraced_targets"] = missing
        correct = not failures and len(digests) == 1 and info["counts_repeat"]
    else:
        metrics, info = end_to_end(untraced, setup_s)
        correct = not failures and len(digests) == 1
    record.update(info)
    record["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for job_id, job_spans in enumerate(spans):
                for span_id, s in enumerate(job_spans):
                    fh.write(json.dumps({"job": job_id, "id": span_id, "name": s.name,
                                         "start": s.start, "end": s.end,
                                         "parent": s.parent, "command": s.command}) + "\n")

    print(f"# env {json.dumps(record['env'])}")
    print(f"# {args.workload} seed {args.seed}: {len(commands)} commands per job, "
          f"{len(untraced)} untraced + {len(traced)} traced jobs, "
          f"output sha256 {' '.join(digests)}")
    print(f"# failed_frac {len(failures)}/{attempted} = {record['failed_frac']:.4g}")
    for f in failures:
        print(f"#   failed command {f['command']}: {' '.join(f['argv'])}: {f['problems']}")
    for key, value in sorted(info.items()):
        print(f"# {key} {value}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

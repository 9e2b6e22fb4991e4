"""Benchmark of the ifestates CLI: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload battery --seed 1 --seconds 30 --trace 0

The CLI is driven in-process through ``ifestates.cli.main(argv)`` over
input files generated from ``--seed``; every report is checked.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics (from wrappers installed around
the package's functions) with ``--trace 1``.  End-to-end timings are
corrected for the machine's speed with a probe kernel timed during the
run.  Earlier lines carry the run's environment and a summary with
sample counts, tail latencies and the uncorrected figures.
See ``benchmarks/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# Single-threaded BLAS baseline; must be set before numpy is imported.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 3
# Speed probe (see README): sampled at most this often during untraced
# runs; the nominal time timings are scaled to, about the probe's median on
# the 2-core Xeon VM the bounds were set on; and the fewest samples a stretch
# needs for its own correction (otherwise the whole run's median is used).
PROBE_INTERVAL_S = 0.4
PROBE_NOMINAL_MS = 10.0
PROBE_MIN_SAMPLES = 5
# cli start-up samples: this many after each pass, and at least STARTUP_MIN.
STARTUP_PER_PASS = 3
STARTUP_MIN = 11
# The traced run spends this share of --seconds untraced, to measure the
# tracing overhead against, and the rest traced.
UNTRACED_SHARE = 0.4

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s",
    "sectors_p50_ms": "ms", "oracle_diff_p50_ms": "ms", "verify_p50_ms": "ms",
    "mixed_p50_ms": "ms", "spin_star_p50_ms": "ms",
    "cli_startup_ms": "ms", "peak_rss_mb": "MB",
}
COMMANDS = ("sectors", "oracle_diff", "verify", "mixed", "spin_star")


def import_package():
    """Import the package from this checkout's ``src``.

    Returns its cli module and a validator for its report schema.
    """
    if not (SRC / "ifestates" / "cli.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import jsonschema

    import ifestates.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ifestates":
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's package")
    schema_path = SRC / "ifestates" / "schemas" / "report-v1.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return cli, jsonschema.Draft7Validator(schema)


class SpeedProbe:
    """Times a fixed numpy and interpreter kernel, at most every PROBE_INTERVAL_S.

    The kernel does not touch the package, so its times follow only the
    machine's speed.  :meth:`factor` turns them into the correction for
    a stretch of the run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.matrix = z + z.conj().T
        self.floats = rng.standard_normal(3000).tolist()
        self.samples: list[tuple[float, float]] = []   # (end time, kernel seconds)
        self._last = float("-inf")

    def kernel(self) -> None:
        np.linalg.eigh(self.matrix)
        np.linalg.svd(self.matrix)
        json.loads(json.dumps([format(x, ".17g") for x in self.floats]))

    def sample(self) -> None:
        if time.perf_counter() - self._last < PROBE_INTERVAL_S:
            return
        started = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self.samples.append((self._last, self._last - started))

    def median_ms(self, start=float("-inf"), end=float("inf")) -> float:
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            inside = [dt for _, dt in self.samples]
        return 1000 * statistics.median(inside)

    def factor(self, start=float("-inf"), end=float("inf")) -> float:
        """Multiplier taking times measured in ``[start, end]`` to the nominal speed."""
        return PROBE_NOMINAL_MS / self.median_ms(start, end)


class Runner:
    """Runs jobs through ``cli.main`` and checks every report."""

    def __init__(self, cli, validator):
        self.cli = cli
        self.validator = validator
        self.tracer = None
        self.probe = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job) -> float:
        """Run one job; return its wall time in seconds."""
        argv = job.argv + ["--out", str(job.out)]
        if job.out.exists():
            job.out.unlink()
        self.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer:
                with self.tracer.call(job):
                    code = self.cli.main(argv)
            else:
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            elapsed = time.perf_counter() - started
            self.failures.append(f"{' '.join(job.argv)}: raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - started
        if self.probe:
            self.probe.sample()
        problem = self.check(job, code)
        if problem:
            self.failures.append(f"{' '.join(job.argv)}: {problem}")
        return elapsed

    def check(self, job, code) -> str | None:
        if code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}"
        try:
            text = job.out.read_text(encoding="utf-8")
            report = json.loads(text)
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        errors = sorted(e.message for e in self.validator.iter_errors(report))
        if errors:
            return f"schema: {errors[0]}"
        if report["exit_code"] != code:
            return f"report exit_code {report['exit_code']} != {code}"
        if self.tracer:
            self.tracer.observe_report(job, report, len(text.encode("utf-8")))
        try:
            return job.check(report)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"report lacks what the check needs: {exc!r}"


def build_jobs(workload: str, seed: int, directory: Path, tiny: bool):
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    jobs = workloads.WORKLOADS[workload](directory, seed, tiny)
    for i, job in enumerate(jobs):
        job.out = directory / f"report_{i:03d}.json"
    return jobs


def set_up(runner, workload, seed, directory, tiny):
    """Write the workload's inputs, then warm up on a tiny copy of the workload.

    The warm-up runs every job of the tiny variant once, so each
    (command, mode) path has run before timing starts, at a cost that
    does not grow with the workload's sizes.
    """
    jobs = build_jobs(workload, seed, directory / "inputs", tiny)
    for job in build_jobs(workload, seed, directory / "warmup", True):
        runner.run(job)
    return jobs


def time_passes(runner, jobs, seconds: float, between=None):
    """Timed passes over the job list for about ``seconds``.

    Returns each job's call times, one per pass, and each pass's
    (start, end) including ``between``.  Only the calls are
    timed, not the benchmark's checks between them.  Another pass starts
    while at least half a pass of time remains, so a run lasts
    ``seconds`` give or take half a pass, and at least one pass.
    ``between`` runs after every pass, inside the time budget.
    """
    started = time.perf_counter()
    times = [[] for _ in jobs]
    windows = []
    while True:
        gc.collect()
        if runner.tracer:
            runner.tracer.start_pass()
        pass_started = time.perf_counter()
        for job, job_times in zip(jobs, times):
            job_times.append(runner.run(job))
        now = time.perf_counter()
        if between:
            between()
        windows.append((pass_started, time.perf_counter()))
        if now - started + (now - pass_started) / 2 > seconds:
            return times, windows


def pass_wall(times) -> float:
    """One pass over the job list, each job at its median time over the passes."""
    return sum(statistics.median(t) for t in times)


def cli_startup_seconds(count: int, probe) -> list[float]:
    """Wall times of ``count`` runs of ``python -m ifestates.cli --version``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        probe.sample()
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "ifestates.cli", "--version"],
                              cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise SystemExit(f"error: cli --version exited {done.returncode}: {done.stderr!r}")
    return times


def command_p50(jobs, times, command) -> float:
    """The median over the command's jobs of each job's median over the passes.

    A short burst of contention or of spare capacity on the machine moves
    one pass's samples, not the result.
    """
    mine = [job_times for job, job_times in zip(jobs, times) if job.command == command]
    if not mine:
        raise SystemExit(f"error: workload runs no {command} job")
    return statistics.median(statistics.median(job_times) for job_times in mine)


def end_to_end(runner, jobs, seconds):
    """Untraced timed passes; every end-to-end metric but ``setup_s``.

    Each pass's call times, and the start-up samples taken right after
    it, are multiplied by the speed probe's factor over that stretch.
    The raw figures go to the summary.
    """
    probe = runner.probe
    batches = []
    times, windows = time_passes(
        runner, jobs, seconds,
        between=lambda: batches.append(cli_startup_seconds(STARTUP_PER_PASS, probe)))
    batches[-1] += cli_startup_seconds(max(0, STARTUP_MIN - sum(map(len, batches))), probe)
    factors = [probe.factor(start, end) for start, end in windows]
    corrected = [[t * f for t, f in zip(job_times, factors)] for job_times in times]
    startup = [t * f for batch, f in zip(batches, factors) for t in batch]

    values = {
        "setup_s": None,
        "wall_s": pass_wall(corrected),
        "cli_startup_ms": 1000 * statistics.median(startup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"wall_s": pass_wall(times),
           "cli_startup_ms": 1000 * statistics.median(t for b in batches for t in b)}
    summary = {"passes": len(times[0]), "jobs_per_pass": len(jobs),
               "pass_walls_s": [sum(p) for p in zip(*times)], "startup_n": len(startup),
               "probe_ms": probe.median_ms(), "probe_n": len(probe.samples),
               "speed_factors": factors, "raw": raw}
    for command in COMMANDS:
        values[f"{command}_p50_ms"] = 1000 * command_p50(jobs, corrected, command)
        raw[f"{command}_p50_ms"] = 1000 * command_p50(jobs, times, command)
        samples = [t for job, job_times in zip(jobs, corrected) if job.command == command
                   for t in job_times]
        summary[command] = {"n": len(samples), "jobs": sum(j.command == command for j in jobs)}
        tail = percentile_tail(samples)
        if tail:
            summary[command][f"p{tail[0]}_ms"] = 1000 * tail[1]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, summary


def per_layer(runner, jobs, seconds):
    """Untraced, then traced passes; per-layer metrics and the tracing overhead."""
    import tracing

    untraced, _ = time_passes(runner, jobs, seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    runner.tracer = tracer
    try:
        with tracer.installed():
            traced, _ = time_passes(runner, jobs, seconds * (1 - UNTRACED_SHARE))
    finally:
        runner.tracer = None
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": pass_wall(traced) - pass_wall(untraced), "unit": "s"}
    repeat = tracer.counts_repeat()
    if not repeat:
        runner.failures.append("per-pass trace counts differ between traced passes")
    summary = {"untraced_passes": len(untraced[0]), "traced_passes": len(traced[0]),
               "counts_repeat": repeat, "unwrapped": tracer.missing}
    return metrics, summary


def percentile_tail(samples):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            best = (q, float(np.percentile(samples, q)))
    return best


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
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
    return "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": THREAD_PIN, "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    cli, validator = import_package()
    import_s = time.perf_counter() - started

    runner = Runner(cli, validator)
    if not args.trace:
        runner.probe = SpeedProbe()
    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        set_up_started = time.perf_counter()
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = set_up(runner, args.workload, args.seed, base / f"setup{k}", args.tiny)
            setups.append(time.perf_counter() - t0)
        set_up_window = (set_up_started, time.perf_counter())
        if args.trace:
            metrics, summary = per_layer(runner, jobs, args.seconds)
        else:
            metrics, summary = end_to_end(runner, jobs, args.seconds)
            setup_s = import_s + statistics.median(setups)
            metrics["setup_s"]["value"] = setup_s * runner.probe.factor(*set_up_window)
            summary.update(setup_runs_s=setups, import_s=import_s)
            summary["raw"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    summary["failed_frac"] = len(runner.failures) / runner.attempted
    for problem in runner.failures[:20]:
        print(f"# failed: {problem}")
    print("# env " + json.dumps(environment(args)))
    print("# summary " + json.dumps(summary))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

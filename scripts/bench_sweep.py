#!/usr/bin/env python3
"""Sweep spin stars N = 3..8 through the CLI and write ``BENCH_<sha>.json``.

For each star (``omega0 = 1``, ``omega = 1.3``, ``gammas = 1 + 0.3 U(0, 1)``
drawn from ``default_rng(N)``) it times ``verify --sector 0``,
``sectors --include-bases``, ``oracle-diff`` and ``spin-star --check-all``
on the star's own flags in-process (``cli.main``) and as subprocesses
(``python -m ifestates.cli``), and ``canonical_dumps`` alone on each
command's report.  Every timing keeps its raw samples next to their
median and interquartile range.  BLAS runs on one thread.  Run from the
repository root:

    python scripts/bench_sweep.py [--src PATH [--src PATH ...]]

``--src`` names a package source to time (this checkout's ``src`` by
default).  Given twice, say for a parent commit and a change, each repeat
times both, alternating which goes first, so the two files form an A/B
pair.  Each source is timed in-process by a worker process of its own and
gets one file, named after ``git describe --always --dirty`` of the
repository that holds it.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, for numpy here and for every worker and subprocess.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = range(3, 9)
REPEATS = 9

_report: dict = {}  # in a worker: the warmed-up command's argv and report


def summary(samples: list[float]) -> dict:
    """Median, interquartile range and raw samples, in milliseconds."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": median, "iqr_ms": q3 - q1, "raw_ms": samples}


def git(src: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_digest(src: Path) -> str:
    """sha256 over the package's Python files, in path order: names the code timed."""
    digest = hashlib.sha256()
    for path in sorted((src / "ifestates").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def header(src: Path) -> dict:
    """What a file records about the source timed and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git(src, "rev-parse", "HEAD"),
        "git_describe": git(src, "describe", "--always", "--dirty", "--abbrev=7"),
        "src_sha256": src_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_pin": THREAD_PIN,
        "machine": {"processor": platform.processor() or platform.machine(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "stars": {},
    }


# The functions below run in a worker whose ``sys.path`` starts with its source.

def use_source(src: str) -> None:
    sys.path.insert(0, src)


def package_dir() -> str:
    import ifestates

    return str(Path(ifestates.__file__).resolve().parent)


def star_gammas(n: int) -> tuple[float, ...]:
    rng = np.random.default_rng(n)
    return tuple(float(g) for g in 1.0 + 0.3 * rng.uniform(0.0, 1.0, n))


def command_argvs(n: int, path: Path) -> dict[str, list[str]]:
    """Each timed command's argv on the star of ``n`` bath spins saved at ``path``."""
    out = ["--out", f"{path}.out"]
    return {
        "verify": ["verify", str(path), "--sector", "0", *out],
        "sectors": ["sectors", str(path), "--include-bases", *out],
        "oracle-diff": ["oracle-diff", str(path), *out],
        "spin-star": ["spin-star", "--n", str(n), "--omega0", "1", "--omega", "1.3",
                      "--gammas", ",".join(repr(g) for g in star_gammas(n)), "--check-all", *out],
    }


def write_star(n: int, path: str) -> None:
    from ifestates import SpinStarParams, build_spin_star, serialize

    serialize.save_system(build_spin_star(SpinStarParams(n, 1.0, 1.3, star_gammas(n))), path)


def warm_up(argv: list[str]) -> None:
    """Run ``argv`` once, untimed, and keep its report for ``time_once``."""
    from ifestates import cli

    write = cli.write_canonical

    def keep(report, target):
        _report.update(argv=argv, report=report)
        write(report, target)

    cli.write_canonical = keep
    try:
        if cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} did not exit 0")
    finally:
        cli.write_canonical = write


def time_once(argv: list[str]) -> tuple[float, float]:
    """Milliseconds of one ``cli.main(argv)`` and of one ``canonical_dumps`` of its report."""
    from ifestates import cli, serialize

    assert _report["argv"] == argv
    start = time.perf_counter()
    cli.main(argv)
    run_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    serialize.canonical_dumps(_report["report"])
    return run_ms, (time.perf_counter() - start) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="package source to time; give it twice to alternate two "
                             "(default: this checkout's src)")
    sources = [src.resolve() for src in parser.parse_args().src or [ROOT / "src"]]
    docs = [header(src) for src in sources]
    names = [doc["git_describe"] for doc in docs]
    if len(set(names)) < len(names):
        parser.error(f"two sources share the name {names}")
    for doc, name in zip(docs, names):
        doc["alternated_with"] = [other for other in names if other != name]
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        workers = []
        for src in sources:
            worker = stack.enter_context(ProcessPoolExecutor(
                1, mp_context=spawn, initializer=use_source, initargs=(str(src),)))
            if worker.submit(package_dir).result() != str(src / "ifestates"):
                raise SystemExit(f"error: a worker did not import ifestates from {src}")
            workers.append(worker)
        for n in SIZES:
            stars = [{"dim": 2 ** (n + 1)} for _ in sources]
            paths = [Path(tmp) / f"star_n{n}_{i}.json" for i in range(len(sources))]
            for worker, path in zip(workers, paths):
                worker.submit(write_star, n, str(path)).result()
            per_source = [command_argvs(n, path) for path in paths]
            for command in per_source[0]:
                argvs = [argvs_of[command] for argvs_of in per_source]
                for worker, argv in zip(workers, argvs):
                    worker.submit(warm_up, argv).result()
                times = [{"in_process": [], "subprocess": [], "canonical_dumps": []} for _ in sources]
                for repeat in range(REPEATS):
                    order = range(len(sources))
                    for i in order if repeat % 2 == 0 else reversed(order):
                        run_ms, dumps_ms = workers[i].submit(time_once, argvs[i]).result()
                        start = time.perf_counter()
                        subprocess.run([sys.executable, "-m", "ifestates.cli", *argvs[i]],
                                       env={**os.environ, "PYTHONPATH": str(sources[i])},
                                       check=True, stdout=subprocess.DEVNULL)
                        times[i]["subprocess"].append((time.perf_counter() - start) * 1e3)
                        times[i]["in_process"].append(run_ms)
                        times[i]["canonical_dumps"].append(dumps_ms)
                for star, name, samples, argv in zip(stars, names, times, argvs):
                    star[command] = {key: summary(values) for key, values in samples.items()}
                    star[command]["report_bytes"] = Path(argv[-1]).stat().st_size
                    print(f"{name} N={n} {command:11s} in-process "
                          f"{star[command]['in_process']['median_ms']:9.2f} ms  subprocess "
                          f"{star[command]['subprocess']['median_ms']:9.2f} ms  canonical_dumps "
                          f"{star[command]['canonical_dumps']['median_ms']:8.2f} ms", flush=True)
            for doc, star in zip(docs, stars):
                doc["stars"][str(n)] = star
    for doc, name in zip(docs, names):
        target = ROOT / f"BENCH_{name}.json"
        target.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the zeroset pipeline, end to end and layer by layer.

One client process runs a closed loop: it calls `zeroset.cli.main(argv)`
in-process for each job of the chosen workload, waits for the report, checks
it, and only then sends the next job.  Interpreter start-up and imports are
paid once and reported as `setup_s`.

    python3 perfbench/run.py --workload mc-line --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same passes
untraced and then traced and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the full record, with the environment, the result
digest and every failure, goes to `perfbench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "polynomial.restrict_s": "s",
    "polynomial.restrict_calls": "count",
    "rng.unit_fraction_s": "s",
    "crofton.self_s": "s",
    "crofton.lines": "count",
    "sturm.count_s": "s",
    "sturm.count_calls": "count",
    **{f"sturm.lines_deg{b}": "count" for b in tracing.STURM_BUCKETS + ("zero",)},
    **{f"sturm.count_s.deg{b}": "s" for b in tracing.STURM_BUCKETS},
    "sturm.us_per_line": "us",
    "crofton.pools_opened": "count",
    "crofton.pool_tasks": "count",
    "crofton.pool_bytes_sent": "bytes",
    "crofton.pool_s": "s",
    "meshing.squares_s": "s",
    "meshing.cubes_s": "s",
    "meshing.cells": "count",
    "meshing.cells_crossed": "count",
    "meshing.ns_per_cell": "ns",
    "polynomial.parse_s": "s",
    "experiment.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}

SETUP_REPEATS = 7
SEGMENT_S = 0.5
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import zeroset.cli"
# Set-up is scaled by a fresh interpreter importing only NumPy, most of the
# program's own import, timed before each set-up sample.  Its median time on
# the tuning machine, so scaled set-up reads close to seconds there.
REFERENCE_IMPORT_CODE = "import numpy"
REFERENCE_IMPORT_SECONDS = 0.18


class SetupError(Exception):
    """The program under test cannot be found or imported."""


def load_program() -> dict:
    """Import zeroset from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "zeroset" / "cli.py").is_file():
        raise SetupError(f"no zeroset sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import zeroset.cli
        import zeroset.crofton
        import zeroset.experiment
        import zeroset.polynomial
    except ImportError as exc:
        raise SetupError(f"cannot import zeroset: {exc}") from exc
    if not Path(zeroset.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"zeroset was imported from {zeroset.__file__}, not {SRC}")
    return {
        "cli": zeroset.cli,
        "crofton": zeroset.crofton,
        "experiment": zeroset.experiment,
        "polynomial": zeroset.polynomial,
    }


# -- environment -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


# -- running jobs ----------------------------------------------------------


def run_job(main, argv) -> tuple[float, object, str]:
    """(wall seconds, exit code or error text, report text) of one in-process call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job; the loop goes on
        code = traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue()


class Gauge:
    """The reference work (`reference.py`) in an interpreter of its own, timed on request."""

    def __enter__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "reference.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()


@dataclass
class Phase:
    """One closed-loop phase; times in reference seconds, `raw_*` as measured."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    job_s: list[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    raw_job_s: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    segment_raw_wall_s: list[float] = field(default_factory=list)
    jobs_per_pass: int = 1
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    digest: str = ""

    def job_medians(self, raw: bool = False) -> list[float]:
        """Each job's wall time: the median over the passes of its samples."""
        times, n = (self.raw_job_s if raw else self.job_s), self.jobs_per_pass
        return [statistics.median(times[j::n]) for j in range(n)]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_phase(gauge: Gauge, main, jobs, passes: int, workload: str,
              tracer: tracing.Tracer | None = None) -> Phase:
    """Closed loop over `passes` passes of the job list.

    After at least SEGMENT_S of jobs the loop samples the reference work
    (outside the timed segments); each segment's times are then scaled by
    the reference times around it, raised to
    `workloads.REFERENCE_EXPONENT[workload]`.  The digest is the SHA-256 of
    the first pass's report bytes in job order; a later pass whose report
    differs from the first counts as a failure.
    """
    phase = Phase(jobs_per_pass=len(jobs))
    first: list[bytes | None] = [None] * len(jobs)
    digest = hashlib.sha256()
    gc.collect()
    refs = [gauge.sample()]
    segments: list[tuple[float, float, list[float]]] = []
    segment: list[float] = []
    seg_start, seg_cpu = time.perf_counter(), _cpu_seconds()
    for p in range(passes):
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = p * len(jobs) + j
            elapsed, code, text = run_job(main, job.argv)
            data = text.encode()
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += len(data)
            segment.append(elapsed)
            phase.attempted += 1
            problems = [f"exit {code}"] if code != 0 else workloads.check_report(job, text)
            if first[j] is None:
                first[j] = data
                digest.update(data)
            elif first[j] != data:
                problems.append("report differs from the first pass")
            if problems:
                phase.failures.append({"pass": p, "job": j, "argv": list(job.argv),
                                       "problems": problems})
            wall = time.perf_counter() - seg_start
            if wall >= SEGMENT_S or (p == passes - 1 and j == len(jobs) - 1):
                segments.append((wall, _cpu_seconds() - seg_cpu, segment))
                refs.append(gauge.sample())
                segment = []
                seg_start, seg_cpu = time.perf_counter(), _cpu_seconds()
    phase.factors = reference.factors(refs, workloads.REFERENCE_EXPONENT[workload])
    phase.reference_s = refs
    phase.segment_raw_wall_s = [wall for wall, _, _ in segments]
    for (wall, cpu, times), factor in zip(segments, phase.factors):
        phase.raw_wall_s += wall
        phase.raw_cpu_s += cpu
        phase.raw_job_s += times
        phase.wall_s += wall / factor
        phase.cpu_s += cpu / factor
        phase.job_s += [t / factor for t in times]
    phase.digest = digest.hexdigest()
    return phase


def _interpreter_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                   check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(make_jobs) -> tuple[float, list[float], list[float]]:
    """Fresh interpreter importing zeroset.cli, plus input generation; repeated.

    Returns the median set-up time scaled by the reference import, the
    set-up samples as measured and the reference import samples.  Set-up
    does not follow the reference work of `reference.py` (scaling by it
    widened the spread of `setup_s`); over 4 minutes of alternating samples,
    scaling by the NumPy import narrowed the spread of 7-sample medians from
    7.4% to 4.6%.
    """
    samples, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(_interpreter_seconds(REFERENCE_IMPORT_CODE))
        imported = _interpreter_seconds(IMPORT_CODE)
        start = time.perf_counter()
        make_jobs()
        samples.append(imported + time.perf_counter() - start)
    scaled = statistics.median(samples) * REFERENCE_IMPORT_SECONDS / statistics.median(references)
    return scaled, samples, references


# -- metrics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no such percentile exists and the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mib() -> dict[str, float]:
    return {
        "client": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def end_to_end(phase: Phase, rss_mib: float, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; `job_s.*` are taken over the jobs' median times."""
    per_job = phase.job_medians()
    return {
        "wall_s": phase.wall_s,
        "job_s.p50": statistics.median(per_job),
        "job_s.tail": tail(per_job)[0],
        "cpu_s": phase.cpu_s,
        "peak_rss_mb": rss_mib,
        "setup_s": setup_s,
    }


def _spread(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values),
            "n": len(values)}


def _per_pass(value, passes: int):
    return value // passes if isinstance(value, int) and value % passes == 0 else value / passes


def per_layer(tracer: tracing.Tracer, traced: Phase, plain: Phase, passes: int) -> dict:
    """Per-layer metrics of the traced phase, each per pass over the job list.

    Layer times are raw seconds as measured: they carry no bound, and their
    shares of `trace.wall_s` are what matters.
    """
    totals = tracer.totals()

    def get(span: str, key: str):
        return totals.get(span, {}).get(key, 0)

    m = {metric: get(span, "self_s") / passes
         for span, metric in tracing.SELF_TIME_METRICS.items()}
    sturm_s, calls = 0.0, 0
    for b in tracing.STURM_BUCKETS + ("zero",):
        seconds, n = get(f"sturm.count.deg{b}", "self_s"), get(f"sturm.count.deg{b}", "calls")
        if b != "zero":
            m[f"sturm.count_s.deg{b}"] = seconds / passes
        m[f"sturm.lines_deg{b}"] = _per_pass(n, passes)
        sturm_s += seconds
        calls += n
    m["sturm.count_s"] = sturm_s / passes
    m["sturm.count_calls"] = _per_pass(calls, passes)
    m["sturm.us_per_line"] = sturm_s / calls * 1e6 if calls else 0.0
    m["polynomial.restrict_calls"] = _per_pass(get("polynomial.restrict", "calls"), passes)
    m["crofton.pools_opened"] = _per_pass(get("crofton.pool", "calls"), passes)
    for counter in ("crofton.lines", "crofton.pool_tasks", "crofton.pool_bytes_sent",
                    "meshing.cells", "meshing.cells_crossed", "cli.report_bytes"):
        m[counter] = _per_pass(tracer.counts[counter], passes)
    mesh_s = (get("meshing.squares", "self_s") + get("meshing.cubes", "self_s")) / passes
    m["meshing.ns_per_cell"] = mesh_s / m["meshing.cells"] * 1e9 if m["meshing.cells"] else 0.0
    # Spans are raw seconds, so their sum is compared with the raw wall time;
    # the overhead compares the two phases in reference seconds.
    m["trace.wall_s"] = traced.raw_wall_s / passes
    m["other_s"] = (traced.raw_wall_s - sum(t["self_s"] for t in totals.values())) / passes
    m["trace.overhead"] = traced.wall_s / plain.wall_s - 1
    return m


# -- one workload ----------------------------------------------------------


def bench(gauge: Gauge, modules: dict, workload: str, seed: int, seconds: float,
          trace: bool, tiny: bool, workers: int | None) -> dict:
    env = environment(seed)
    workers = min(workers or 2, env["affinity_cpus"])
    make_jobs = functools.partial(workloads.WORKLOADS[workload], seed, tiny, workers)
    jobs = make_jobs()
    passes = 2 if tiny else max(2, round(seconds / 30 * workloads.PASSES_PER_30S[workload]))
    main = modules["cli"].main

    warmup = run_phase(gauge, main, jobs[:1], 1, workload)
    record = {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace), "tiny": tiny, "workers": workers,
        "jobs_per_pass": len(jobs),
        "reference_exponent": workloads.REFERENCE_EXPONENT[workload],
        "environment": env,
    }
    problems = []
    if not trace:
        phase = run_phase(gauge, main, jobs, passes, workload)
        phases = [warmup, phase]
        rss = peak_rss_mib()
        # Set-up runs last, so its import subprocesses do not count as pool
        # children in the peak RSS.
        setup_s, setup_samples, setup_references = measure_setup(make_jobs)
        metrics = end_to_end(phase, max(rss.values()), setup_s)
        units = END_TO_END
        _, percentile, n = tail(phase.job_medians())
        record.update(passes=passes, digest=phase.digest,
                      job_s={"jobs": n, "tail_percentile": percentile,
                             "jobs_beyond_tail": 10 if n > 10 else 0,
                             "samples_per_job": passes},
                      raw={"wall_s": phase.raw_wall_s, "cpu_s": phase.raw_cpu_s,
                           "job_s.p50": statistics.median(phase.job_medians(raw=True)),
                           "job_s.tail": tail(phase.job_medians(raw=True))[0]},
                      setup_s_samples=setup_samples, setup_reference_s=setup_references,
                      peak_rss_mib=rss,
                      speed_factor=_spread(phase.factors),
                      segments={"raw_wall_s": phase.segment_raw_wall_s,
                                "reference_s": phase.reference_s})
    else:
        half = max(1, passes // 2)
        plain = run_phase(gauge, main, jobs, half, workload)
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            traced = run_phase(gauge, tracer.wrap("cli", main), jobs, half, workload, tracer)
        finally:
            tracer.uninstall()
            tracer.close_open_spans()
        phases = [warmup, plain, traced]
        metrics = per_layer(tracer, traced, plain, half)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{workload}.spans.npz"
        tracer.save(spans_file)
        record.update(passes=half, digest=plain.digest, digest_traced=traced.digest,
                      speed_factor={"untraced": _spread(plain.factors),
                                    "traced": _spread(traced.factors)},
                      spans_file=str(spans_file.relative_to(ROOT)), unwrapped=tracer.missing,
                      layer_calls={k: v["calls"] for k, v in tracer.totals().items()})
        if plain.digest != traced.digest:
            problems.append("result digest differs with tracing on and off")
        if metrics["other_s"] < 0:
            problems.append("layer self times exceed the traced wall time")
        if tracer.missing:
            print(f"warning: not traced (attribute missing): {tracer.missing}", file=sys.stderr)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update(
        attempted=attempted, failed=len(failures), failed_frac=len(failures) / attempted,
        failures=failures[:20], problems=problems,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    record["correct"] = not failures and not problems
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    record["result_file"] = str(path.relative_to(ROOT))
    return record


def _summary(record: dict) -> str:
    lines = [f"{record['workload']}: failed_frac={record['failed_frac']:g} "
             f"({record['failed']}/{record['attempted']}) digest={record['digest'][:16]} "
             f"-> {record['result_file']}"]
    for problem in record["problems"] + [str(f) for f in record["failures"][:3]]:
        lines.append(f"  PROBLEM {problem}")
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the number of passes over the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for sharpness-w2 (default 2, capped at the CPUs available)")
    args = parser.parse_args(argv)
    try:
        modules = load_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with Gauge() as gauge:
        records = [bench(gauge, modules, name, args.seed, args.seconds, bool(args.trace),
                         args.tiny, args.workers) for name in names]
    for record in records:
        print(_summary(record))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

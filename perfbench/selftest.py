"""Self-test of the benchmark: tiny sizes of every workload, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run prints a last line with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; that the metric names and units match
BENCHMARK.json; that no job fails; that the result digest is the same with
tracing on and off, and for sharpness-w2 at --workers 1; that the layers'
self times plus `other_s` add up to the traced wall time; and that a
directory holding only the benchmark, without the program, fails without
printing a result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SELF_TIMES = (
    "cli.self_s", "polynomial.parse_s", "experiment.self_s", "crofton.self_s", "crofton.pool_s",
    "rng.unit_fraction_s", "polynomial.restrict_s", "sturm.count_s", "meshing.squares_s",
    "meshing.cubes_s", "other_s",
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """(last stdout line, full record) of one tiny run."""
    done = run(ROOT, workload, trace, *extra)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited with {done.returncode}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return last, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            last, record = result(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            printed = {name: m["unit"] for name, m in last["metrics"].items()}
            check(printed == units[trace], f"{tag}: metric names and units match BENCHMARK.json")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                  f"{tag}: correct, failed_frac == 0 ({last['failed']}/{last['attempted']})")
            digests[workload, trace] = record["digest"]
            if trace:
                m = {name: v["value"] for name, v in last["metrics"].items()}
                check(record["digest_traced"] == record["digest"],
                      f"{tag}: digest identical with tracing on and off")
                total = sum(m[name] for name in SELF_TIMES)
                check(abs(total - m["trace.wall_s"]) <= 1e-9 * max(1.0, m["trace.wall_s"]),
                      f"{tag}: self times + other_s == traced wall ({total} vs {m['trace.wall_s']})")
                pools = m["crofton.pools_opened"]
                if workload == "sharpness-w2" and record["workers"] >= 2:
                    # tiny sizes: d=2 and d=3 with two n each, one pool per axis per n
                    check(pools == 2 * 2 + 3 * 2, f"{tag}: one pool per axis per n ({pools})")
                elif workload != "sharpness-w2":
                    check(pools == 0, f"{tag}: no pool ({pools})")
        check(digests[workload, 0] == digests[workload, 1],
              f"{workload}: digest identical across the untraced and traced runs")

    _, record = result("sharpness-w2", 0, "--workers", "1")
    check(record["digest"] == digests["sharpness-w2", 0],
          "sharpness-w2: digest identical at --workers 1")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "perfbench")
    done = run(bare, "mc-line", 0)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"without the program: exit {done.returncode}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())

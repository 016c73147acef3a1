"""Small-size self-test of the benchmark.

Runs every workload at tiny sizes, traced and untraced, and asserts that
the last stdout line is the result object and that it carries every metric
named in BENCHMARK.json with its unit. Then checks that each workload's
set-up config resolves for many seeds. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIMEOUT_S = 170


def run(workload: str, trace: int):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace}: incorrect output\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    )
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric["name"], got["unit"], metric["unit"])
        assert isinstance(got["value"], (int, float)), (metric["name"], got)
    print(f"ok  {workload} trace={trace}: {len(wanted)} metrics, "
          f"attempted {result['attempted']}, failed {result['failed']}")


def check_setup_seeds(spec: dict, seeds: range) -> None:
    """Every workload's set-up config resolves for every seed, as the set-up timing needs."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import eventfdi
    import workloads

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            eventfdi.config_from_dict(workloads.setup_payload(workload, seed, workloads.SMALL))
    print(f"ok  set-up configs resolve for seeds {seeds.start}..{seeds.stop - 1}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_setup_seeds(spec, range(48))
    return 0


if __name__ == "__main__":
    sys.exit(main())

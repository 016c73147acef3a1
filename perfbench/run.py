"""eventfdi benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_wide_attacked --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the per-layer metrics instead (see README.md).
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it give the environment and every check's result. Spans
and a copy of the result go to .perfbench_out/ in the checkout.
"""

import argparse
import os
import sys

# one thread per run: pin BLAS/OpenMP before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# A fixed string-hash seed: with a random one, how dicts and sets of str keys
# lay out changes the interpreter's speed from process to process by a few
# percent. Restart this same process (exec, no child) with the seed fixed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("mc_wide_attacked", "trace_deep_nominal", "analysis_grid")
SETUP_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(payload: dict, repeats: int) -> tuple:
    """(scaled, raw) fresh-process set-up times after one untimed warm-up process.

    Each child times its own set-up, then the machine-speed reference, and
    its set-up time is scaled by that reference.
    """
    script = os.path.join(BENCH_DIR, "setup_child.py")
    scaled, raw = [], []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, script, SRC],
            input=json.dumps(payload), capture_output=True, text=True, cwd=ROOT,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        seconds, reference = map(float, proc.stdout.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds * speed.NOMINAL_S / reference)
    return scaled, raw


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"],
    }


def end_to_end(outcome, setup: list) -> dict:
    """The end-to-end metrics; every time is scaled to the reference speed."""
    op_ms = [1e3 * s for s in outcome.op_seconds]
    return {
        "ops_per_s": (outcome.ops_per_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "op_ms_p50": (float(numpy.percentile(op_ms, 50.0)), "ms"),
        "op_ms_p95": (float(numpy.percentile(op_ms, 95.0)), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eventfdi", "__init__.py")):
        fail(f"no eventfdi sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import workloads as wl

    sizes = wl.SMALL if args.small else wl.Sizes()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"

    if args.trace:
        import traced

        measured, attempted, failed, checks = traced.traced_run(
            args.workload, args.seed, args.seconds, sizes, OUT_DIR, run_id
        )
    else:
        setup, setup_raw = setup_seconds(wl.setup_payload(args.workload, args.seed, sizes),
                                         sizes.setup_repeats)
        run = {"mc_wide_attacked": wl.run_mc, "analysis_grid": wl.run_grid}.get(args.workload)
        if run is None:
            outcome = wl.run_deep(args.seed, args.seconds, sizes, OUT_DIR)
        else:
            outcome = run(args.seed, args.seconds, sizes)
        measured = end_to_end(outcome, setup)
        attempted, failed, checks = outcome.attempted, outcome.failed, outcome.checks
        outcome.info["raw_setup_s"] = statistics.median(setup_raw)
        print("perfbench info: " + json.dumps(outcome.info, sort_keys=True))

    result = {
        "correct": checks.exact_ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }
    print("perfbench env: " + json.dumps(env, sort_keys=True))
    print("perfbench checks: " + json.dumps(checks.as_dict(), sort_keys=True))
    for name, (value, unit) in measured.items():
        print(f"perfbench metric {args.workload} {name} = {value:.6g} {unit}")
    result_path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "checks": checks.as_dict(), "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

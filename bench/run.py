"""uwblab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file. Uses only the
standard library and numpy, and imports uwblab from src/ of the same
checkout, so nothing needs installing. Each workload runs in its own
processes (worker.py) with OMP/OpenBLAS/MKL thread pools pinned to one
thread. Workloads, metrics and bounds are declared in BENCHMARK.json;
workloads.py says what each workload runs and why.

With --trace 0 the benchmark sets the workload up and measures it for S
seconds in one process, and sets it up SETUP_REPEATS more times in
processes that only set up, half before the measurement and half after;
setup_s is the median of all those set-ups. With
--trace 1 it reports the per-layer metrics of one traced measurement.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it, starting with '#', give
the run's provenance and extra information; the same goes with the spans of
a traced run into .bench_out/ at the repository root.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
DEADLINE_MARGIN_S = 60.0  # for the set-ups and the pass that overruns --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_sha():
    """Commit of the checkout; None outside a git repository or without git."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(args, env, deadline):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="uwblab benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "uwblab" / "__init__.py").is_file():
        print("error: no uwblab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    deadline = start + 2 * args.seconds + DEADLINE_MARGIN_S
    job = (args.workload, args.seed)
    try:
        # half the set-ups before the measurement and half after, so they
        # see the machine at different moments of the run
        repeats = 0 if args.trace else SETUP_REPEATS
        setups = [run_worker((*job, 0, 0), env, deadline)["setup_s"]
                  for _ in range(repeats // 2)]
        res = run_worker((*job, args.seconds, args.trace), env, deadline)
        setups += [run_worker((*job, 0, 0), env, deadline)["setup_s"]
                   for _ in range(repeats - repeats // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [res["setup_s"]])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    bad = sorted(names ^ set(values)) + sorted(
        n for n, v in values.items() if not math.isfinite(v))
    if bad:
        print("error: metrics missing, undeclared or not finite: %s" % bad, file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "git_sha": git_sha(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    info = dict(res["info"], setup_runs_s=setups + [res["setup_s"]],
                fail_frac=out["failed"] / out["attempted"])
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / ("run-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.write_text(json.dumps({"provenance": provenance, "result": out, "info": info},
                                 indent=1) + "\n", encoding="utf-8")
    print("# provenance " + json.dumps(provenance))
    print("# info " + json.dumps({k: v for k, v in info.items() if k != "self_by_span"}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, then measure it.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

run.py starts it with thread pools pinned to one thread and src/ on the
path. SECONDS = 0 only sets up. The last line of standard output is one
JSON object with the set-up time and, after a measurement, the metric
values, the check tallies and extra information for the run record.

setup_s runs from the first line of this file to the end of the warm-up,
so it covers imports, input generation and one warm-up call.

With TRACE = 0 the worker repeats passes until SECONDS have elapsed. A
pass is a fixed mix of operations: the same kinds and sizes every pass,
with fresh seeds. Every operation and every pass counts. Between
operations the worker runs the gauge kernel of gauge.py, and each
operation's wall time is scaled by the kernel's nominal time over its
times measured around that operation, which takes out most of the host's
changes of speed. pass_s is the median scaled pass, the sum of its scaled
operations; op_p50_ms and op_p90_ms are nearest-rank percentiles over all
scaled operations. The '# info' line gives the same figures unscaled.
peak_rss_mb is the peak resident set of the whole process.

With TRACE = 1 it first runs pass 0 with count hooks and tracemalloc peaks
(the observe pass, whose counts are exact for a seed), then alternates an
untraced and a traced run of the same pass until SECONDS have elapsed.
Per-layer times are means over the traced passes; the untraced ones give
trace.overhead_s.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
from array import array  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import Recorder, layer_of  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("codec", "channel", "adversary", "receiver", "analytic", "montecarlo", "protocol", "cli")
ROOT_SPAN = "bench.op"

# re-anchor figures from ROADMAP.md: (workload, label, value)
BASELINE = (
    ("estimators", "attack_s_per_4096_trials", 2.27),
    ("estimators", "false_positive_us_per_candidate", 56.0),
    ("sessions", "run_session_ms", 1.0),
)


class Tally:
    def __init__(self):
        self.walls = []  # per pass, seconds
        self.cpus = []  # per pass, CPU seconds of this process
        # per operation, in compact arrays so that the record of a run with
        # many operations adds little to the process's peak resident set
        self.starts = array("d")  # perf_counter at the start
        self.latencies = array("d")  # seconds
        self.ends = array("l")  # per pass, the index one past its last operation
        self.attempted = 0
        self.failed = 0
        self.kinds = defaultdict(lambda: [0, 0, 0.0])  # kind -> ops, work, seconds


def run_pass(wl, pass_idx, tally, gauge=None, rec=None):
    ops = wl.ops(pass_idx)
    start, start_cpu = time.perf_counter(), time.process_time()
    for op in ops:
        if rec is not None:
            rec.op += 1
            root = rec.begin(ROOT_SPAN)
        t0 = time.perf_counter()
        result = op.call()
        t1 = time.perf_counter()
        if rec is not None:
            rec.end(root)
        tally.failed += op.check(result)
        tally.starts.append(t0)
        tally.latencies.append(t1 - t0)
        if gauge is not None:
            gauge.after(t1 - t0)
        kind = tally.kinds[op.kind]
        kind[0] += 1
        kind[1] += op.work
        kind[2] += t1 - t0
    tally.cpus.append(time.process_time() - start_cpu)
    tally.walls.append(time.perf_counter() - start)
    tally.ends.append(len(tally.latencies))
    tally.attempted += len(ops)


def nearest_rank(values, q):
    return sorted(values)[math.ceil(q * len(values)) - 1]


def measure(wl, seconds):
    tally = Tally()
    gauge = Gauge(wl.gauge_rows)
    gauge.sample()
    deadline = time.perf_counter() + seconds
    pass_idx = 0
    while True:
        run_pass(wl, pass_idx, tally, gauge)
        pass_idx += 1
        if time.perf_counter() >= deadline:
            break
    gauge.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.failed += wl.finish()
    scaled = [gauge.scale(t0, t) for t0, t in zip(tally.starts, tally.latencies)]
    bounds = list(zip([0, *tally.ends], tally.ends))
    metrics = {
        "pass_s": statistics.median(sum(scaled[i:j]) for i, j in bounds),
        "op_p50_ms": 1e3 * nearest_rank(scaled, 0.5),
        "op_p90_ms": 1e3 * nearest_rank(scaled, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "passes": len(bounds),
        "ops": tally.attempted,
        "kinds": _kinds(tally),
        # the time figures as measured, before scaling by the gauge
        "unscaled": {
            "pass_s": statistics.median(sum(tally.latencies[i:j]) for i, j in bounds),
            "op_p50_ms": 1e3 * nearest_rank(tally.latencies, 0.5),
            "op_p90_ms": 1e3 * nearest_rank(tally.latencies, 0.9),
        },
        "gauge": {
            "rows": gauge.rows,
            "samples": len(gauge.seconds),
            "median_s": statistics.median(gauge.seconds),
            "nominal_s": gauge.nominal_s,
            "share": sum(gauge.seconds) / (sum(tally.latencies) + sum(gauge.seconds)),
        },
        # the share of the run this process had a CPU; below 1 when others take it
        "cpu_share": sum(tally.cpus) / sum(tally.walls),
    }
    return metrics, [tally], info


def _kinds(tally):
    return {
        kind: {"ops": n, "work": work, "seconds": sec, "work_per_s": work / sec}
        for kind, (n, work, sec) in sorted(tally.kinds.items())
    }


def measure_traced(wl, seconds):
    deadline = time.perf_counter() + seconds
    rec = Recorder()
    observe, plain, traced = Tally(), Tally(), Tally()
    workloads.install(rec, wl, traced=False)
    run_pass(wl, 0, observe)
    rec.restore()
    counts, peaks = dict(wl.counts), dict(rec.peaks)
    pass_idx = 0
    while True:
        # alternate which of the pair runs first, so order effects cancel
        for traced_now in ((False, True) if pass_idx % 2 == 0 else (True, False)):
            if traced_now:
                workloads.install(rec, wl, traced=True)
                run_pass(wl, pass_idx, traced, rec=rec)
                rec.restore()
            else:
                run_pass(wl, pass_idx, plain)
        pass_idx += 1
        if time.perf_counter() >= deadline:
            break
    traced.failed += wl.finish()

    total, calls = rec.self_times()
    spans = rec.spans
    passes = len(traced.walls)
    traced_wall = sum(traced.walls)
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    layer_total = defaultdict(float)
    for name, t in total.items():
        layer_total[layer_of(name)] += t
    layer_total["bench"] += traced_wall - roots

    def per_call(name, scale):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    def inclusive_mean_ms(name):
        durations = [end - start for n, start, end, _, _ in spans if n == name]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    overlay = sum(
        end - start for name, start, end, parent, _ in spans
        if parent >= 0 and layer_of(name) == "analytic"
        and layer_of(spans[parent][0]) == "montecarlo"
    )
    voted = counts.get("receiver.candidates_voted", 0)
    kinds = _kinds(plain)

    def rate(kind):
        return kinds[kind]["work_per_s"] if kind in kinds else 0.0

    metrics = {
        "trace.wall_s": traced_wall / passes,
        "trace.overhead_s": (traced_wall - sum(plain.walls)) / passes,
        "trace.layer_frac": sum(layer_total[layer] for layer in LAYERS) / traced_wall,
        "bench.self_s": layer_total["bench"] / passes,
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = layer_total[layer] / passes
    metrics.update({
        "codec.generate_code.calls": counts.get("codec.generate_code.calls", 0),
        "codec.generate_code.self_us": per_call("codec.generate_code", 1e6),
        "channel.synthesize_timeline.self_us": per_call("channel.synthesize_timeline", 1e6),
        "channel.timeline_bins": counts.get("channel.timeline_bins", 0),
        "adversary.plan_attack.self_us": per_call("adversary.plan_attack", 1e6),
        "adversary.replay_frame.self_us": per_call("adversary.replay_frame", 1e6),
        "receiver.backtrack_detect.self_ms": per_call("receiver.backtrack_detect", 1e3),
        "receiver.backtrack_detect.peak_alloc_mb":
            peaks.get("receiver.backtrack_detect", 0) / 2**20,
        "receiver.candidates_scanned": counts.get("receiver.candidates_scanned", 0),
        "receiver.candidates_voted": voted,
        "receiver.votes_cast": counts.get("receiver.votes_cast", 0),
        "receiver.vote_key_bytes": counts.get("receiver.vote_key_bytes", 0),
        "receiver.candidates_accepted": counts.get("receiver.candidates_accepted", 0),
        "receiver.noise_accept_ratio":
            counts.get("receiver.noise_accepted", 0) / voted if voted else 0.0,
        "receiver.early_false_accepts": counts.get("receiver.early_false_accepts", 0),
        "analytic.prob_evade_rcv.ms_per_call": per_call("analytic.prob_evade_rcv", 1e3),
        "analytic.prob_success.ms_per_call": per_call("analytic.prob_success", 1e3),
        "analytic.overlay_s": overlay / passes,
        "montecarlo.evade.self_s": total["montecarlo.evade"] / passes,
        "montecarlo.attack.self_s": total["montecarlo.attack"] / passes,
        "montecarlo.noise.self_s": total["montecarlo.noise"] / passes,
        "montecarlo.evade.trials": counts.get("montecarlo.evade.trials", 0),
        "montecarlo.attack.trials": counts.get("montecarlo.attack.trials", 0),
        "montecarlo.noise.candidates": counts.get("montecarlo.noise.candidates", 0),
        "montecarlo.noise.accepted": counts.get("montecarlo.noise.accepted", 0),
        "montecarlo.chunk_peak_alloc_mb": max(
            [peaks.get(n, 0) for n in ("montecarlo.evade", "montecarlo.attack",
                                       "montecarlo.noise")]) / 2**20,
        "evade_trials_per_s": rate("validate"),
        "attack_trials_per_s": rate("attack"),
        "noise_candidates_per_s": rate("noise"),
        "protocol.run_session.self_us": per_call("protocol.run_session", 1e6),
        "protocol.verified": counts.get("protocol.verified", 0),
        "protocol.alarm.tof_mismatch": counts.get("protocol.alarm.tof_mismatch", 0),
        "protocol.alarm.energy_exceeded": counts.get("protocol.alarm.energy_exceeded", 0),
        "protocol.alarm.range_exceeded": counts.get("protocol.alarm.range_exceeded", 0),
        "cli.main.self_ms": per_call("cli.main", 1e3),
    })

    measured = {
        "attack_s_per_4096_trials": 4096 * total["montecarlo.attack"] / passes
        / max(counts.get("montecarlo.attack.trials", 0), 1),
        "false_positive_us_per_candidate": 1e6 * total["montecarlo.noise"] / passes
        / max(counts.get("montecarlo.noise.candidates", 0), 1),
        "run_session_ms": inclusive_mean_ms("protocol.run_session"),
    }
    baseline = {
        label: {"measured": measured[label], "roadmap": ref, "ratio": measured[label] / ref}
        for name, label, ref in BASELINE if name == wl.name
    }
    self_by_span = {
        name: {"calls": calls[name], "self_s_per_pass": t / passes}
        for name, t in sorted(total.items())
    }
    info = {
        "passes": passes,
        "counts_pass0": counts,
        "baseline": baseline,
        "self_by_span": self_by_span,
        "kinds_untraced": kinds,
    }
    OUT_DIR.mkdir(exist_ok=True)
    rec.dump(OUT_DIR / ("spans-%s-seed%d.jsonl" % (wl.name, wl.seed)))
    return metrics, [observe, plain, traced], info


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    wl = workloads.WORKLOADS[name](seed)
    wl.name = name
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if seconds > 0:
        metrics, tallies, info = (measure_traced if trace else measure)(wl, seconds)
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        result.update(metrics=metrics, attempted=attempted, failed=failed,
                      correct=failed == 0, info=info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the obs_gprm simulator: one workload, one seed, one mode.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it measures the end-to-end metrics: untraced repetitions,
each in a fresh process, for --seconds, then two repetitions with the public
trace hook that count the events and check that tracing changes nothing.
With --trace 1 it runs one untraced repetition and then traced repetitions
for --seconds, and reports the per-layer metrics.

Every repetition's outputs are checked (workloads.py); a failed check marks
that repetition's runs as failed and the benchmark goes on. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it give the host numbers in wall-clock seconds
and record the machine and the raw repetitions. Host times are reported at
a reference speed, measured by calibration loops around each timed run.
Workloads, metrics and the reasons for them: perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Sweep  # noqa: E402

MIN_TIMED_REPS = 3
# worker.calibrate() before plus after a run, in seconds, on the machine the
# benchmark was tuned on (README.md); host times are reported at that speed
REFERENCE_CALIB_S = 0.5
DEADLINE_S = 170  # a repetition still running then is killed and counts as failed
LAYERS = ("signaling", "gprm", "routing", "traffic", "metrics")
# per-layer spans reported as <name>.calls and <name>.self_s
CALL_SPANS = (
    "signaling.heap.push", "signaling.heap.pop",
    "signaling.schedule.try_reserve", "signaling.schedule.first_fit",
    "signaling.schedule.release",
    "gprm.extract_evidence", "gprm.loss_window.ratio", "gprm.sp_update",
    "gprm.epoch_success_prob", "gprm.nb_scores", "gprm.begin_epoch",
    "routing.lookup", "routing.maybe_roll",
    "traffic.next_arrival",
    "metrics.add_busy", "metrics.add_drop",
    "metrics.series.add_sent", "metrics.series.add_drop",
)
EVENT_KINDS = ("BURST_ARRIVAL", "BHP_ARRIVE", "BURST_ARRIVE", "NOTIFICATION_ARRIVE")
# set-up spans, outside Simulator.run and so outside the run shares
SETUP_SPANS = ("traffic.scale_to_load", "topology.load_topology", "topology.hop_counts")


class Repetitions:
    """Runs worker.py repetitions and keeps their outputs and failures."""

    def __init__(self, workload, seed, work_dir):
        self.started = time.monotonic()
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reps = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, mode, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload,
               str(self.seed), self.work_dir, *extra]
        runs = WORKLOADS[self.workload].n_runs if isinstance(
            WORKLOADS[self.workload], Sweep) else 1 + len(extra)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        # a process group of its own, so that a kill also reaches sweep pool workers
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self._fail(mode, runs, f"still running {DEADLINE_S} s after the start")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._fail(mode, runs, f"exit {proc.returncode}: {stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        out["mode"] = mode
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems += [f"{mode}: {p}" for p in out["problems"]]
        self.reps.append(out)
        return out

    def _fail(self, mode, runs, why):
        self.attempted += runs
        self.failed += runs
        self.problems.append(f"{mode}: {why}")
        return None

    def ok(self, mode):
        return [r for r in self.reps if r["mode"] == mode and not r["problems"]]

    def require_equal(self, what, reps, key):
        """Fail every repetition whose `key` differs from the first one's."""
        for r in reps[1:]:
            if r[key] != reps[0][key]:
                self.failed += r["attempted"]
                self.problems.append(f"{what}: {key} differs between repetitions")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, seconds):
    """Untraced repetitions for `seconds`, then two counting repetitions."""
    start = time.monotonic()
    launched = 0
    while launched < MIN_TIMED_REPS or time.monotonic() - start < seconds:
        reps.run("timed")
        launched += 1
    w = WORKLOADS[reps.workload]
    counting = ["--counterpart"] if not isinstance(w, Sweep) else []
    reps.run("count", *counting)
    reps.run("count")
    timed, counted = reps.ok("timed"), reps.ok("count")
    # untraced and traced runs, and every repetition, must compute the same
    reps.require_equal("untraced vs traced", timed + counted, "fingerprint")
    reps.require_equal("event count", counted, "events")
    if not timed or not counted:
        return {}
    events = sum(counted[0]["events"].values())
    sim = timed[0]["sim"]
    ratio = next((r["blr_ratio"] for r in timed + counted if "blr_ratio" in r), None)
    if ratio is None:
        return {}
    med = statistics.median
    raw = {"bursts_per_s": med(r["bursts"] / r["run_s"] for r in timed),
           "setup_s": med(s for r in timed for s in r["setup_s"]),
           "makespan_s": med(r["run_s"] for r in timed)}
    print("wall-clock " + json.dumps(raw))
    # host seconds at the reference speed, taken from the loops around each run
    scale = {id(r): REFERENCE_CALIB_S / r["calib_s"] for r in timed}
    run_s = [r["run_s"] * scale[id(r)] for r in timed]
    return {
        "bursts_per_s": metric(med(r["bursts"] / t for r, t in zip(timed, run_s)), "1/s"),
        "events_per_s": metric(med(events / t for t in run_s), "1/s"),
        "setup_s": metric(med(s * scale[id(r)] for r in timed for s in r["setup_s"]), "s"),
        "peak_rss_mb": metric(med(r["peak_rss_mb"] for r in timed), "MB"),
        "makespan_s": metric(med(run_s), "s"),
        "blr": metric(sim["blr"], "ratio"),
        "mean_delay_ms": metric(sim["mean_delay_ms"], "ms"),
        "utilization": metric(sim["utilization"], "ratio"),
        "blr_ratio": metric(ratio, "ratio"),
    }


def layer_metrics(rep, untraced_run_s, threads):
    """Per-layer metrics from one traced repetition."""
    stats = rep["trace"]["stats"]
    counts = rep["trace"]["counts"]
    zero = [0, 0.0, 0.0]

    def calls(name):
        return stats.get(name, zero)[0]

    def self_s(name):
        return stats.get(name, zero)[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"signaling.self_s": metric(self_s("signaling.run"), "s")}
    for kind in EVENT_KINDS:
        m[f"signaling.events.{kind}"] = metric(rep["events"].get(kind, 0), "count")
    for name in CALL_SPANS:
        m[f"{name}.calls"] = metric(calls(name), "count")
        m[f"{name}.self_s"] = metric(self_s(name), "s")
    m["signaling.schedule.reserve_success_ratio"] = metric(
        ratio(counts.get("signaling.schedule.reserved", 0),
              calls("signaling.schedule.try_reserve")), "ratio")
    m["routing.row_hit_ratio"] = metric(
        ratio(counts.get("routing.lookup.hits", 0), calls("routing.lookup")), "ratio")
    m["gprm.table_entries"] = metric(counts.get("gprm.table_entries", 0), "count")
    m["topology.load_topology_s"] = metric(self_s("topology.load_topology"), "s")
    m["topology.hop_counts_s"] = metric(self_s("topology.hop_counts"), "s")
    m["traffic.scale_to_load_s"] = metric(self_s("traffic.scale_to_load"), "s")
    busy = stats.get("experiment.run_single", zero)[2]
    makespan = stats.get("experiment.run_experiment", zero)[2]
    m["experiment.run_single.busy_s"] = metric(busy, "s")
    m["experiment.pool_efficiency"] = metric(ratio(busy, threads * makespan), "ratio")
    m["experiment.write_s"] = metric(
        sum(self_s(n) for n in stats if n.startswith("experiment.write.")), "s")
    run_total = stats.get("signaling.run", zero)[2]
    for layer in LAYERS:
        spent = sum(self_s(n) for n in stats
                    if n.startswith(layer + ".") and n not in SETUP_SPANS)
        m[f"{layer}.run_share"] = metric(ratio(spent, run_total), "ratio")
    m["trace.overhead_ratio"] = metric(rep["run_s"] / untraced_run_s - 1.0, "ratio")
    return m


def per_layer(reps, seconds):
    """One untraced repetition, then traced repetitions for `seconds`."""
    start = time.monotonic()
    untraced = reps.run("timed")
    while True:
        rep = reps.run("traced")
        if rep is None or rep["problems"] or time.monotonic() - start >= seconds:
            break
    traced = reps.ok("traced")
    if untraced is None or untraced["problems"] or not traced:
        return {}
    reps.require_equal("untraced vs traced", [untraced] + traced, "fingerprint")
    reps.require_equal("event count", traced, "events")
    for r in traced:
        pops = r["trace"]["stats"]["signaling.heap.pop"][0]
        if pops != sum(r["events"].values()):
            reps.failed += r["attempted"]
            reps.problems.append(f"traced: {pops} heap pops but "
                                 f"{sum(r['events'].values())} events traced")
    w = WORKLOADS[reps.workload]
    threads = w.threads if isinstance(w, Sweep) else 1
    per_rep = [layer_metrics(r, untraced["run_s"], threads) for r in traced]
    return {name: metric(statistics.median(m[name]["value"] for m in per_rep),
                         per_rep[0][name]["unit"])
            for name in per_rep[0]}


def machine():
    """nproc, interpreter, numpy, CPU model and git commit of the checkout."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "obs_gprm", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    reps = Repetitions(args.workload, args.seed, work_dir)
    try:
        if args.trace:
            metrics = per_layer(reps, args.seconds)
        else:
            metrics = end_to_end(reps, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in reps.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine " + json.dumps(machine()))
    detail = [{k: v for k, v in r.items() if k not in ("fingerprint", "trace")}
              for r in reps.reps]
    print("repetitions " + json.dumps(detail))
    correct = reps.failed == 0 and not reps.problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, reps.attempted),
                      "failed": reps.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

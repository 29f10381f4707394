"""One repetition of a benchmark workload, in a process of its own.

    python3 perfbench/worker.py <mode> <workload> <seed> <work dir> [--counterpart]

Modes:
  timed   set up several times, then one untraced run; host times
  count   one run with the public trace hook counting events; with
          --counterpart also the other policy on the same traffic
  traced  one run with every layer wrapped by tracer.py

Prints one JSON object as its last line of standard output. Run by run.py,
which makes each repetition a fresh process so that peak RSS belongs to one
workload and no state carries over.
"""

import bisect
import csv
import hashlib
import json
import os
import random
import resource
import sys
import time
from dataclasses import replace
from heapq import heappop, heappush
from multiprocessing import Pool

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import obs_gprm  # noqa: E402
from obs_gprm import experiment, signaling, topology, traffic  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import (WORKLOADS, EventCounter, Sweep, check_run,  # noqa: E402
                       fingerprint)

SETUPS_PER_REP = 7
CALIBRATION_STEPS = 150_000


def calibrate():
    """Seconds for a fixed piece of interpreter work with the simulator's mix
    of operations: heap, dict, bisect, random draws and small tuples.

    Timed right before and after the measured run, it tracks how fast the
    host executes Python at that moment; run.py divides by it.
    """
    rng = random.Random(7)
    heap, counts, starts = [], {}, []
    t0 = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        heappush(heap, (rng.expovariate(1.0), i, i & 7))
        key = (i & 63, i & 15)
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heappop(heap)
        bisect.insort(starts, i & 1023)
        if len(starts) > 32:
            del starts[0]
    return time.perf_counter() - t0


def peak_rss_mb():
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def sim_metrics(result, topo):
    return {"blr": result.blr(), "mean_delay_ms": result.mean_delay() * 1e3,
            "utilization": result.utilization(topo)}


# -- single runs ---------------------------------------------------------------

def setup_single(w, seed, policy=None, trace=None):
    """Topology, matrix, connections and simulator, through the module
    attributes so that traced runs see the wrapped functions."""
    topo = topology.load_topology(obs_gprm.data_path("nsfnet.topo"))
    matrix = traffic.load_matrix(obs_gprm.data_path("us_ref.matrix"))
    caps = {n: topo.egress_capacity(n) for n in topo.nodes}
    conns = traffic.scale_to_load(matrix, traffic.LoadSpec(w.load, caps),
                                  w.mean_burst_size, master_seed=seed)
    sim = signaling.Simulator(topo, conns, policy=policy or w.policy,
                              config=signaling.SimConfig(**w.config), trace=trace)
    return topo, sim


def run_once(w, sim, topo):
    """One checked `Simulator.run`: wall time, bursts, sim metrics, counters."""
    t0 = time.perf_counter()
    result = sim.run(w.duration)
    run_s = time.perf_counter() - t0
    problems = check_run(sim, result)
    out = {"run_s": run_s, "bursts": result.counters_total.bursts_sent,
           "problems": problems, "attempted": 1, "failed": 1 if problems else 0}
    if not problems:
        out["sim"] = sim_metrics(result, topo)
        out["fingerprint"] = fingerprint(result)
    return out


def single(mode, w, seed, counterpart):
    if mode == "timed":
        setup_s = []
        for _ in range(SETUPS_PER_REP):
            t0 = time.perf_counter()
            topo, sim = setup_single(w, seed)
            setup_s.append(time.perf_counter() - t0)
        calib_s = calibrate()
        out = run_once(w, sim, topo)
        out["calib_s"] = calib_s + calibrate()
        out["setup_s"] = setup_s
        return out
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracing.install_spans(tracer)
        counter = EventCounter()
        hook = tracer.span("trace.hook", counter)  # not part of the engine's time
    else:
        hook = counter = EventCounter()
    topo, sim = setup_single(w, seed, trace=hook)
    out = run_once(w, sim, topo)
    out["events"] = counter.events()
    if tracer is not None:
        if sim.policy == "gprm":
            tracer.count("gprm.table_entries", tracing.table_entries(sim))
        out["trace"] = tracer.snapshot()
    if counterpart:
        topo, other = setup_single(w, seed, policy=w.counterpart)
        ref = run_once(w, other, topo)
        out["attempted"] += 1
        out["failed"] += ref["failed"]
        out["problems"] += [f"{w.counterpart}: {p}" for p in ref["problems"]]
        if "sim" in out and "sim" in ref:
            blr = {w.policy: out["sim"]["blr"], w.counterpart: ref["sim"]["blr"]}
            out["blr_ratio"] = blr["gprm"] / blr["sp"]
    return out


# -- sweep ---------------------------------------------------------------------

def sweep_scenario(w, seed):
    scenario = experiment.parse_scenario(obs_gprm.data_path("nsfnet_paper.scn"))
    return replace(scenario, policies=["sp", "gprm"], loads=list(w.loads), seeds=[seed],
                   duration=w.duration, warmup=w.warmup)


def setup_sweep_once(w, seed):
    """Scenario parsing and validation through pool start, as in run_experiment."""
    t0 = time.perf_counter()
    scenario = sweep_scenario(w, seed)
    errors = experiment.validate(scenario)
    pool = Pool(w.threads)
    elapsed = time.perf_counter() - t0
    pool.close()
    pool.join()
    if errors:
        raise ValueError(f"invalid sweep scenario: {errors}")
    return elapsed


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(w, seed, out_dir):
    """Sweep outputs: problems, a digest of the result files, sim metrics."""
    problems = []
    names = sorted(os.listdir(out_dir))
    expected = {(p, load) for p in ("sp", "gprm") for load in w.loads}
    digest = hashlib.sha256()
    for name in names:
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
        elif not name.startswith("trace_"):
            problems.append(f"unexpected file {name}")
    if "results.csv" not in names or "gains.csv" not in names:
        return problems + ["results.csv or gains.csv missing"], None, None, 0
    rows = read_csv(os.path.join(out_dir, "results.csv"))
    got = {(r["policy"], float(r["load"])) for r in rows}
    if len(rows) != w.n_runs or got != expected:
        problems.append(f"results.csv has runs {sorted(got)}, expected {sorted(expected)}")
    bursts = 0
    for r in rows:
        if int(r["seed"]) != seed:
            problems.append(f"results.csv row with seed {r['seed']}")
        if not (0.0 < float(r["blr"]) < 1.0 and float(r["mean_delay_s"]) > 0.0
                and 0.0 < float(r["utilization"]) <= 1.0):
            problems.append(f"results.csv row out of range: {r}")
        learning = f"learning_{r['policy']}_load{float(r['load']):g}_seed{seed}.csv"
        if learning not in names:
            problems.append(f"{learning} missing")
            continue
        bursts += sum(int(x["sent"]) for x in read_csv(os.path.join(out_dir, learning)))
    gains = {g["load"]: g for g in read_csv(os.path.join(out_dir, "gains.csv"))}
    if set(gains) != {f"{float(load):.9g}" for load in w.loads} | {"sum", "mean"}:
        problems.append(f"gains.csv has rows {sorted(gains)}")
    if problems:
        return problems, None, None, 0
    n = len(rows)
    sim = {"blr": sum(float(r["blr"]) for r in rows) / n,
           "mean_delay_ms": sum(float(r["mean_delay_s"]) for r in rows) / n * 1e3,
           "utilization": sum(float(r["utilization"]) for r in rows) / n,
           "blr_reduction": float(gains["mean"]["blr_gain_point"])}
    return problems, digest.hexdigest(), sim, bursts


def sweep(mode, w, seed, work_dir):
    out_dir = os.path.join(work_dir, f"out-{os.getpid()}")
    out = {}
    tracer = None
    if mode == "timed":
        out["setup_s"] = [setup_sweep_once(w, seed) for _ in range(SETUPS_PER_REP)]
    else:
        # the checks run inside the pool workers and come back through the spool
        spool = os.path.join(work_dir, f"spool-{os.getpid()}")
        os.makedirs(spool)
        tracer = tracing.Tracer(spool)
        if mode == "traced":
            tracing.install_spans(tracer)
        tracing.install_checks(tracer, check_run)
    scenario = sweep_scenario(w, seed)
    calib_s = calibrate() if mode == "timed" else 0.0
    t0 = time.perf_counter()
    experiment.run_experiment(scenario, out_dir=out_dir, trace=mode != "timed",
                              threads=w.threads)
    out["run_s"] = time.perf_counter() - t0
    if mode == "timed":
        out["calib_s"] = calib_s + calibrate()
    problems, digest, sim, bursts = check_sweep(w, seed, out_dir)
    if tracer is not None:
        tracer.merge_spool()
        problems += tracer.problems
        if tracer.counts.get("runs") != w.n_runs:
            problems.append(f"checked {tracer.counts.get('runs')} runs, "
                            f"expected {w.n_runs}")
        counter = EventCounter()
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("trace_"):
                counter.add_trace_file(os.path.join(out_dir, name))
        out["events"] = counter.events()
        if mode == "traced":
            out["trace"] = tracer.snapshot()
    out.update(problems=problems, attempted=w.n_runs, failed=w.n_runs if problems else 0,
               bursts=bursts)
    if not problems:
        out["fingerprint"] = digest
        out["sim"] = {k: v for k, v in sim.items() if k != "blr_reduction"}
        out["blr_reduction"] = sim["blr_reduction"]
        out["blr_ratio"] = 1.0 - sim["blr_reduction"]
    return out


def main(argv):
    mode, name, seed, work_dir = argv[:4]
    counterpart = "--counterpart" in argv[4:]
    w = WORKLOADS[name]
    seed = int(seed)
    if isinstance(w, Sweep):
        out = sweep(mode, w, seed, work_dir)
    else:
        out = single(mode, w, seed, counterpart)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

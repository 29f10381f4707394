"""Experiment orchestration: scenario files, load/seed sweeps, result CSVs.

A sweep runs every (policy, load, seed) combination on an identical traffic
realization (the arrival streams depend only on the seed, never on the
policy) and emits one results CSV, one learning CSV per run, and a per-load
gain summary when both policies were run.
"""

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace
from multiprocessing import Pool
from typing import get_args, get_origin

from .metrics import blr_gain_terms, u_gain_terms
from .signaling import SimConfig, Simulator
from .topology import TopologyError, load_topology
from .traffic import LoadSpec, load_matrix, scale_to_load

RESULT_COLUMNS = ("policy", "seed", "load", "blr", "mean_delay_s", "utilization",
                  "drops_contention", "drops_offset", "drops_noroute", "drops_ingress")
LEARNING_COLUMNS = ("t_bucket", "sent", "dropped", "rolling_blr")
GAINS_COLUMNS = ("load", "blr_sp", "blr_gprm", "blr_gain_point", "delay_sp_s", "delay_gprm_s",
                 "util_sp", "util_gprm", "util_gain_point")
ROLLING_WINDOW_BUCKETS = 20


class ScenarioError(Exception):
    """Scenario failed validation; `errors` lists every problem found."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class Scenario(SimConfig):
    """A sweep: the simulator settings it inherits, plus the network, the
    workload and the (policy, load, seed) grid. Every field is a scenario key."""

    topology: str = ""
    matrix: str = ""
    policies: list[str] = field(default_factory=lambda: ["sp", "gprm"])
    loads: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [1])
    duration: float = 20.0
    # a sweep's default run lasts 20 s, long enough to cut its first tenth as
    # the warm-up transient; SimConfig's 1 s default suits shorter single runs
    warmup: float = 2.0
    mean_burst_size: float = 3.2e6
    signal_speed: float = 2.0e8
    connections_per_pair: int = 1


def _parse_value(kind, value):
    """Convert one scenario value to its field's declared type."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [item(v.strip()) for v in value.split(",")]
    return kind(value)


def parse_scenario(path):
    """Read a flat `key = value` scenario file; lists are comma separated and
    file paths resolve relative to the scenario file."""
    base = os.path.dirname(os.path.abspath(path))
    types = {f.name: f.type for f in fields(Scenario)}
    scenario = Scenario()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError([f"{path}:{lineno}: expected key = value, got {line!r}"])
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ScenarioError([f"{path}:{lineno}: unknown key {key!r}"])
            if key in ("topology", "matrix") and not os.path.isabs(value):
                value = os.path.join(base, value)
            try:
                setattr(scenario, key, _parse_value(types[key], value))
            except ValueError as exc:
                raise ScenarioError([f"{path}:{lineno}: bad value for {key}: {exc}"]) from exc
    return scenario


def _load(errors, key, path, loader):
    """Parse one input file of a scenario; on failure add a `key:` error
    (with the loader's `path:line` where it has one) and return None."""
    if not path:
        errors.append(f"{key}: missing")
        return None
    try:
        return loader(path)
    except FileNotFoundError:
        errors.append(f"{key}: file not found: {path}")
    except (OSError, ValueError, TopologyError) as exc:
        errors.append(f"{key}: {exc}")
    return None


def validate(scenario):
    """All scenario invariants; returns a list of `field: reason` strings.

    Parses the topology and matrix files, as each run will, so that a bad
    record or a matrix node the topology lacks is reported here."""
    errors = scenario.problems()
    topology = _load(errors, "topology", scenario.topology, load_topology)
    matrix = _load(errors, "matrix", scenario.matrix, load_matrix)
    if topology is not None and matrix is not None:
        missing = sorted({n for pair in matrix.weights for n in pair} - set(topology.nodes))
        if missing:
            errors.append(f"matrix: nodes {missing} are not in the topology")
    for p in scenario.policies:
        if p not in ("sp", "gprm"):
            errors.append(f"policies: unknown policy {p!r}")
    if not scenario.policies:
        errors.append("policies: must not be empty")
    if not scenario.loads:
        errors.append("loads: must not be empty")
    if not all(0 < l < math.inf for l in scenario.loads):
        errors.append("loads: every load must be finite and > 0")
    if not scenario.seeds:
        errors.append("seeds: must not be empty")
    if scenario.duration <= scenario.warmup:
        errors.append("warmup: must be < duration")
    if scenario.mean_burst_size <= 0:
        errors.append("mean_burst_size: must be > 0")
    if scenario.signal_speed <= 0:
        errors.append("signal_speed: must be > 0")
    if scenario.connections_per_pair < 1:
        errors.append("connections_per_pair: must be >= 1")
    return errors


def run_single(scenario, policy, load, seed, trace_path=None):
    """One simulation run; returns (result row dict, learning arrays)."""
    topology = load_topology(scenario.topology, scenario.signal_speed)
    matrix = load_matrix(scenario.matrix, scenario.connections_per_pair)
    capacities = {n: topology.egress_capacity(n) for n in topology.nodes}
    connections = scale_to_load(matrix, LoadSpec(load, capacities),
                                scenario.mean_burst_size, master_seed=seed)
    trace_fh = None
    trace = None
    if trace_path:
        trace_fh = open(trace_path, "w")
        trace = lambda t, kind, node, bid, detail: trace_fh.write(
            f"{t:.9f} {kind} {node} {bid} {detail}\n")
    try:
        sim = Simulator(topology, connections, policy=policy,
                        config=scenario, trace=trace)
        result = sim.run(scenario.duration)
    finally:
        if trace_fh:
            trace_fh.close()
    counters = result.counters
    row = {
        "policy": policy,
        "seed": seed,
        "load": load,
        "blr": result.blr() if counters.bursts_sent else float("nan"),
        "mean_delay_s": result.mean_delay() if counters.bursts_delivered else float("nan"),
        "utilization": result.utilization(topology),
        "drops_contention": counters.drops_contention,
        "drops_offset": counters.drops_offset,
        "drops_noroute": counters.drops_noroute,
        "drops_ingress": counters.drops_ingress,
    }
    times, sent, dropped = result.series.arrays()
    _, rolling = result.series.rolling_blr(ROLLING_WINDOW_BUCKETS)
    return row, (times, sent, dropped, rolling)


def _pool_worker(args):
    return run_single(*args)


def _learning_name(policy, load, seed):
    return f"learning_{policy}_load{load:g}_seed{seed}.csv"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_results_csv(path, rows):
    _write_csv(path, RESULT_COLUMNS, ([_fmt(row[c]) for c in RESULT_COLUMNS] for row in rows))


def _write_learning_csv(path, arrays):
    times, sent, dropped, rolling = arrays
    _write_csv(path, LEARNING_COLUMNS, ([_fmt(float(t)), int(s), int(d), _fmt(float(r))]
                                        for t, s, d, r in zip(times, sent, dropped, rolling)))


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return v


def _gains_rows(rows, loads, seeds):
    """Per-load gains from seed-averaged BLR and utilization (both policies),
    as the rows of gains.csv; raises ValueError on a zero baseline."""
    by_key = {(r["policy"], r["load"], r["seed"]): r for r in rows}

    def seed_mean(policy, load, column):
        vals = [by_key[(policy, load, s)][column] for s in seeds]
        return sum(vals) / len(vals)

    blr_sp = [seed_mean("sp", l, "blr") for l in loads]
    blr_gp = [seed_mean("gprm", l, "blr") for l in loads]
    u_sp = [seed_mean("sp", l, "utilization") for l in loads]
    u_gp = [seed_mean("gprm", l, "utilization") for l in loads]
    d_sp = [seed_mean("sp", l, "mean_delay_s") for l in loads]
    d_gp = [seed_mean("gprm", l, "mean_delay_s") for l in loads]
    blr_terms = blr_gain_terms(blr_sp, blr_gp)
    u_terms = u_gain_terms(u_sp, u_gp)
    out = []
    for i, l in enumerate(loads):
        out.append([_fmt(float(v)) for v in
                    (l, blr_sp[i], blr_gp[i], blr_terms[i],
                     d_sp[i], d_gp[i], u_sp[i], u_gp[i], u_terms[i])])
    blr_sum, u_sum = sum(blr_terms), sum(u_terms)
    out.append(["sum", "", "", _fmt(blr_sum), "", "", "", "", _fmt(u_sum)])
    out.append(["mean", "", "", _fmt(blr_sum / len(loads)),
                "", "", "", "", _fmt(u_sum / len(loads))])
    return out


def _write_gains_csv(path, gains_rows):
    _write_csv(path, GAINS_COLUMNS, gains_rows)


def worker_count(n_runs, threads=None):
    if threads is None:
        env = os.environ.get("OBS_SIM_THREADS", "")
        try:
            threads = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ScenarioError([f"OBS_SIM_THREADS: expected an integer, got {env!r}"]) from None
    return max(1, min(threads, n_runs))


def run_experiment(scenario, out_dir=".", trace=False, policy=None,
                   seed_override=None, util_mode=None, threads=None, log=None):
    """Run the full sweep and write results.csv, learning CSVs, and gains.csv.

    Every output file, CSV or trace, is written under a `.tmp` name, and
    all of them are renamed into place only after every run, the gains and
    every write have succeeded. Any failure removes every staged file, so
    a failed sweep leaves no result file.
    """
    if policy and policy != "both":
        scenario = replace(scenario, policies=[policy])
    if seed_override is not None:
        scenario = replace(scenario, seeds=[seed_override])
    if util_mode:
        scenario = replace(scenario, util_mode=util_mode)
    errors = validate(scenario)
    if errors:
        raise ScenarioError(errors)
    os.makedirs(out_dir, exist_ok=True)
    specs = []
    for pol in scenario.policies:
        for load in scenario.loads:
            for seed in scenario.seeds:
                name = f"trace_{pol}_load{load:g}_seed{seed}.log.tmp"
                trace_path = os.path.join(out_dir, name) if trace else None
                specs.append((scenario, pol, load, seed, trace_path))
    staged = [spec[4] for spec in specs if trace]  # every output so far, by .tmp name

    def stage(name, write, data):
        staged.append(os.path.join(out_dir, name + ".tmp"))
        write(staged[-1], data)

    workers = worker_count(len(specs), threads)
    if log:
        log(f"running {len(specs)} simulations on {workers} worker(s)")
    try:
        if workers > 1:
            with Pool(workers) as pool:
                outcomes = pool.map(_pool_worker, specs)
        else:
            outcomes = [run_single(*spec) for spec in specs]
        rows = [row for row, _ in outcomes]
        gains = None
        if {"sp", "gprm"} <= set(scenario.policies):
            gains = _gains_rows(rows, scenario.loads, scenario.seeds)
        stage("results.csv", _write_results_csv, rows)
        for row, arrays in outcomes:
            stage(_learning_name(row["policy"], row["load"], row["seed"]),
                  _write_learning_csv, arrays)
        if gains is not None:
            stage("gains.csv", _write_gains_csv, gains)
    except BaseException:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise
    for tmp in staged:
        os.replace(tmp, tmp[:-len(".tmp")])
    written = {"results": os.path.join(out_dir, "results.csv")}
    if gains is not None:
        written["gains"] = os.path.join(out_dir, "gains.csv")
    if log:
        log(f"wrote {written['results']}")
    return written

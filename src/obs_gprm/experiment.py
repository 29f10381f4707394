"""Experiment orchestration: scenario files, load/seed sweeps, result CSVs.

A sweep parses its input files once, in its check, and runs every
(policy, load, seed) combination; both policies of a (load, seed) replay one
connection list. It emits one results CSV, one learning CSV per run, and a
per-load gain summary when both policies were run.
"""

import csv
import math
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import starmap
from multiprocessing import Pool
from typing import get_args, get_origin

from .gprm import PER_HOP_PROCESSING
from .metrics import BUCKET_WIDTH, DROP_CAUSES, MAX_BUCKETS, MAX_BURSTS, rolling_ratio
from .signaling import POLICIES, Interval, SimConfig, Simulator, key
from .topology import TopologyError, load_topology, propagation_delay
from .traffic import LoadSpec, PairError, arrival_rates, load_matrix, scale_to_load

RESULT_COLUMNS = ("policy", "seed", "load", "blr", "mean_delay_s", "utilization",
                  *(f"drops_{cause}" for cause in DROP_CAUSES))
LEARNING_COLUMNS = ("t_bucket", "sent", "dropped", "rolling_blr")
GAINS_COLUMNS = ("load", "blr_sp", "blr_gprm", "blr_gain_point", "delay_sp_s", "delay_gprm_s",
                 "util_sp", "util_gprm", "util_gain_point")


class ScenarioError(Exception):
    """Scenario failed validation; `errors` lists every problem found."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class Scenario(SimConfig):
    """A sweep: the simulator settings it inherits, plus the network, the
    workload and the (policy, load, seed) grid. Every field is a scenario
    key; the two file keys take a `str` and have no rule, as `_check`
    parses each file once its key has passed."""

    topology: str = ""
    matrix: str = ""
    policies: list[str] = POLICIES
    loads: list[float] = key([], Interval("(0, inf)"))
    # `traffic.connection_seed` keeps 63 bits, so a larger seed would alias
    seeds: list[int] = key([1], Interval(f"[0, {2**63})"))
    duration: float = key(20.0, Interval("(0, inf)"))
    mean_burst_size: float = key(3.2e6, Interval("(0, inf)"))


def _parse_value(kind, value):
    """Convert one scenario value to its field's declared type."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [item(v.strip()) for v in value.split(",")]
    return kind(value)


def parse_scenario(path):
    """Read a flat `key = value` scenario file; lists are comma separated,
    file paths resolve relative to the scenario file, and each key may be set
    once."""
    base = os.path.dirname(os.path.abspath(path))
    types = {f.name: f.type for f in fields(Scenario)}
    scenario = Scenario()
    set_on = {}  # key -> line that set it
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:  # its text names the path
        raise ScenarioError([f"cannot read scenario: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"cannot read scenario: {path}: {exc}"]) from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError([f"{path}:{lineno}: expected key = value, got {line!r}"])
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ScenarioError([f"{path}:{lineno}: unknown key {key!r}"])
        if key in set_on:
            raise ScenarioError([f"{path}:{lineno}: key {key!r} is already set "
                                 f"on line {set_on[key]}"])
        set_on[key] = lineno
        if key in ("topology", "matrix") and value and not os.path.isabs(value):
            value = os.path.join(base, value)
        try:
            setattr(scenario, key, _parse_value(types[key], value))
        except ValueError as exc:
            raise ScenarioError([f"{path}:{lineno}: bad value for {key}: {exc}"]) from exc
    return scenario


def _load(errors, key, path, loader):
    """Parse one input file of a scenario if its key passed its type check
    in `errors`; on failure add a `key:` error (with the loader's
    `path:line` where it has one) and return None."""
    if any(e.startswith(f"{key}:") for e in errors):
        return None
    if not path:
        errors.append(f"{key}: missing")
        return None
    try:
        return loader(path)
    except FileNotFoundError:
        errors.append(f"{key}: file not found: {path}")
    except UnicodeDecodeError as exc:  # its text names no file
        errors.append(f"{key}: {path}: {exc}")
    except (OSError, ValueError, TopologyError) as exc:
        errors.append(f"{key}: {exc}")
    return None


def validate(scenario):
    """The errors of `run_experiment`'s check, as `field: reason` strings."""
    return _check(scenario)[0]


def _check(scenario, threads=None):
    """The one check of a sweep's inputs: returns (errors, worker count,
    topology, matrix), the last three None where they are at fault.

    Checks each key by its type and rule, in `scenario.problems()`, and
    parses the topology and matrix files whose keys passed. Then it scales
    the matrix to every load, ascending, through `arrival_rates`, as each
    run's `scale_to_load` will, so that a matrix node the topology lacks,
    an egress capacity that overflows or a weight whose rate a run would
    reject is reported here; of the rate problems, the one at the lowest
    load, with the matrix line of its pair. A run whose learning series
    would have more than `MAX_BUCKETS` buckets, counting the drops of
    bursts that drain after `duration`, or that expects more than
    `MAX_BURSTS` bursts, is rejected. Each such rule of several keys runs
    only if each passed its own rule."""
    errors = scenario.problems()
    topology = _load(errors, "topology", scenario.topology, load_topology)
    matrix = _load(errors, "matrix", scenario.matrix, load_matrix)
    passed = {e.partition(":")[0] for e in errors}.isdisjoint  # passed(keys): no error names one
    if passed({"topology", "matrix"}):
        missing = sorted({n for pair in matrix.weights for n in pair} - set(topology.nodes))
        capacities = {n: topology.egress_capacity(n) for n in topology.nodes}
        overflow = [n for n, c in capacities.items() if c == math.inf]
        if missing:
            errors.append(f"matrix: nodes {missing} are not in the topology")
        elif overflow:
            errors.append(f"topology: egress capacity of nodes {overflow} overflows")
        elif passed({"loads", "mean_burst_size"}):
            for load in sorted(scenario.loads):
                try:
                    rates = arrival_rates(matrix, LoadSpec(load, capacities),
                                          scenario.mean_burst_size)
                except PairError as exc:
                    errors.append(f"matrix: {matrix.path}:{matrix.linenos[exc.pair]}: "
                                  f"at load {load:g}, {exc}")
                    break
            else:  # `rates` are the highest load's
                if passed({"duration"}) and (
                        bursts := sum(rates.values()) * scenario.duration) > MAX_BURSTS:
                    errors.append(f"mean_burst_size: {scenario.mean_burst_size:g} bits at load "
                                  f"{load:g} makes a {scenario.duration:g} s run expect "
                                  f"{bursts:.3g} bursts, more than {MAX_BURSTS}")
    if passed({"warmup", "duration"}) and scenario.duration <= scenario.warmup:
        errors.append("warmup: must be < duration")
    if passed({"topology", "duration"}):
        # the last drop comes at most N - 1 hops after `duration`: a BHP visits
        # each node once, and a hop takes its processing and one propagation delay
        longest = max(map(propagation_delay, topology.links.values()), default=0.0)
        drain = (len(topology.nodes) - 1) * (PER_HOP_PROCESSING + longest)
        # one bucket of slack for the engine's float sums of event times
        if MAX_BUCKETS * BUCKET_WIDTH < scenario.duration + drain + BUCKET_WIDTH:
            errors.append(f"duration: a duration of {scenario.duration:g} s and a drain of "
                          f"{drain:.3g} s make more than {MAX_BUCKETS} buckets of "
                          f"{BUCKET_WIDTH:g} s")
    runs = (len(scenario.policies) * len(scenario.loads) * len(scenario.seeds)
            if passed({"policies", "loads", "seeds"}) else 1)
    try:
        workers = worker_count(runs, threads)
    except ScenarioError as exc:
        errors, workers = errors + exc.errors, None
    return errors, workers, topology, matrix


def run_single(scenario, topology, connections, policy, load, seed, trace_path=None):
    """One simulation run on parsed inputs, left unchanged; returns (row, learning arrays).
    The row's metrics are `RunResult`'s, so an undefined one is NaN."""
    with open(trace_path, "w") if trace_path else nullcontext() as fh:
        trace = None if fh is None else lambda t, kind, node, bid, detail: fh.write(
            f"{t:.9f} {kind} {node} {bid} {detail}\n")
        result = Simulator(topology, connections, policy=policy, config=scenario,
                           trace=trace).run(scenario.duration)
    counters = result.counters
    row = {
        "policy": policy,
        "seed": seed,
        "load": load,
        "blr": result.blr(),
        "mean_delay_s": result.mean_delay(),
        "utilization": result.utilization(topology),
        **{f"drops_{cause}": getattr(counters, f"drops_{cause}") for cause in DROP_CAUSES},
    }
    times, sent, dropped = result.series.arrays()
    return row, (times, sent, dropped, rolling_ratio(sent, dropped))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_results_csv(path, rows):
    _write_csv(path, RESULT_COLUMNS, ([_fmt(row[c]) for c in RESULT_COLUMNS] for row in rows))


def _write_learning_csv(path, arrays):
    times, sent, dropped, rolling = arrays
    _write_csv(path, LEARNING_COLUMNS, ([_fmt(t), s, d, _fmt(r)]
                                        for t, s, d, r in zip(times, sent, dropped, rolling)))


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return v


def _gains_rows(rows, loads, seeds):
    """Per-load seed means of both policies and the relative gains of `gprm`
    over `sp` (BLR reduction, utilization increase), as the rows of
    gains.csv; raises ValueError on a zero or NaN baseline."""
    by_key = {(r["policy"], r["load"], r["seed"]): r for r in rows}

    def seed_means(load, column):
        """The (sp, gprm) means of `column` over the seeds."""
        return [sum(by_key[(p, load, s)][column] for s in seeds) / len(seeds)
                for p in ("sp", "gprm")]

    out, blr_gains, u_gains = [], [], []
    for l in loads:
        b_sp, b_gp = seed_means(l, "blr")
        d_sp, d_gp = seed_means(l, "mean_delay_s")
        u_sp, u_gp = seed_means(l, "utilization")
        # `not x > 0`: a NaN mean (a seed whose steady window sent no burst)
        # compares false with every bound and must fail as a zero one does
        if not b_sp > 0 or not u_sp > 0:
            raise ValueError(f"load {l:g}: baseline values must be > 0, "
                             f"got blr_sp={b_sp}, util_sp={u_sp}")
        blr_gains.append((b_sp - b_gp) / b_sp)
        u_gains.append((u_gp - u_sp) / u_sp)
        out.append([_fmt(float(v)) for v in
                    (l, b_sp, b_gp, blr_gains[-1], d_sp, d_gp, u_sp, u_gp, u_gains[-1])])
    blr_sum, u_sum = sum(blr_gains), sum(u_gains)
    out.append(["sum", "", "", _fmt(blr_sum), "", "", "", "", _fmt(u_sum)])
    out.append(["mean", "", "", _fmt(blr_sum / len(loads)),
                "", "", "", "", _fmt(u_sum / len(loads))])
    return out


def _write_gains_csv(path, gains_rows):
    _write_csv(path, GAINS_COLUMNS, gains_rows)


def worker_count(n_runs, threads=None):
    """Pool size for `n_runs` runs: `threads`, else `OBS_SIM_THREADS`, else
    the CPU count, capped at `n_runs`. A `threads` or `OBS_SIM_THREADS`
    that is not an integer >= 1 is a ScenarioError."""
    if threads is None:
        env = os.environ.get("OBS_SIM_THREADS", "")
        try:
            threads = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ScenarioError([f"OBS_SIM_THREADS: expected an integer, got {env!r}"]) from None
        if threads < 1:
            raise ScenarioError([f"OBS_SIM_THREADS: must be >= 1, got {env!r}"])
    elif type(threads) is not int or threads < 1:  # a bool is an int subclass
        raise ScenarioError([f"threads: must be an integer >= 1, got {threads!r}"])
    return max(1, min(threads, n_runs))


def run_experiment(scenario, out_dir=".", trace=False, threads=None, log=None):
    """Run the full sweep and write results.csv, learning CSVs, and gains.csv.

    The inputs are parsed once, in the check `validate` runs too, and each
    (load, seed) connection list is built once and run under every policy.
    The runs start longest first: by load, highest first, and `gprm` before
    `sp` at equal load. With more than one worker they go to a process pool
    one run per task, so the slowest run does not start last while the other
    workers sit idle; with one they run in this process in the same order. The
    outcomes are put back in grid order (policy, load, seed), so every output
    file is the same for any worker count. Each run's tag
    `<policy>_load<l:g>_seed<s>` names its trace and its learning CSV.

    Every output file, CSV or trace, is written into a staging directory
    inside `out_dir` and moved into `out_dir` only after every run, the
    gains and every write have succeeded. On any failure the staging
    directory removes itself, so a failed sweep leaves no result file.
    A bad scenario or worker count raises ScenarioError before any run or
    file; a zero or undefined (NaN) `sp` baseline raises ValueError.
    """
    errors, workers, topology, matrix = _check(scenario, threads)
    if errors:
        raise ScenarioError(errors)
    capacities = {n: topology.egress_capacity(n) for n in topology.nodes}
    connections = {(load, seed): scale_to_load(matrix, LoadSpec(load, capacities),
                                               scenario.mean_burst_size, master_seed=seed)
                   for load in scenario.loads for seed in scenario.seeds}
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as stage:
        grid = [(pol, load, seed) for pol in scenario.policies for load in scenario.loads
                for seed in scenario.seeds]
        tags = [f"{pol}_load{load:g}_seed{seed}" for pol, load, seed in grid]
        specs = [(scenario, topology, connections[(load, seed)], pol, load, seed,
                  os.path.join(stage, f"trace_{tag}.log") if trace else None)
                 for (pol, load, seed), tag in zip(grid, tags)]
        if log:
            log(f"running {len(specs)} simulations on {workers} worker(s)")
        # a run's cost grows with its load, and gprm replays sp's arrivals
        # plus ACK hops and learning; seed and duration are shared by all
        order = sorted(range(len(specs)), key=lambda i: (-grid[i][1], grid[i][0] != "gprm"))
        longest_first = [specs[i] for i in order]
        if workers > 1:
            with Pool(workers) as pool:
                done = pool.starmap(run_single, longest_first, chunksize=1)
        else:
            done = list(starmap(run_single, longest_first))
        outcomes = [None] * len(specs)
        for i, outcome in zip(order, done):
            outcomes[i] = outcome
        rows = [row for row, _ in outcomes]
        _write_results_csv(os.path.join(stage, "results.csv"), rows)
        for tag, (_, arrays) in zip(tags, outcomes):
            _write_learning_csv(os.path.join(stage, f"learning_{tag}.csv"), arrays)
        both = {"sp", "gprm"} <= set(scenario.policies)
        if both:
            _write_gains_csv(os.path.join(stage, "gains.csv"),
                             _gains_rows(rows, scenario.loads, scenario.seeds))
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    written = {"results": os.path.join(out_dir, "results.csv")}
    if both:
        written["gains"] = os.path.join(out_dir, "gains.csv")
    if log:
        log(f"wrote {written['results']}")
    return written

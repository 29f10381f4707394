"""Per-layer tracing of the simulator, installed from outside the package.

`install_spans(tracer)` replaces the functions and methods that each module
of `obs_gprm` offers to the others with wrappers that time every call. Nothing
under `src/` changes: the wrappers are set on the module attributes and
classes at run time, so the simulator's own code picks them up through its
normal global and attribute lookups.

Spans are kept in memory as per-name aggregates. Each wrapper pushes a frame
on a shared stack, so a span's self time is its duration minus the time of
the wrapped spans it encloses; whatever is left of `Simulator.run` after all
its children is the engine's own time (handlers and event plumbing).

In a sweep the simulations run in forked pool workers. A worker starts from
empty aggregates (`os.register_at_fork`) and writes them to the spool
directory after each `run_single`, from where `merge_spool` collects them.
"""

import functools
import importlib
import json
import os
import sys
import time

# span name -> (module path, attribute path); every module of the package that
# imported the same object by name gets the wrapper too
SPANS = {
    "signaling.run": ("obs_gprm.signaling", "Simulator.run"),
    "signaling.heap.push": ("obs_gprm.signaling", "heappush"),
    "signaling.heap.pop": ("obs_gprm.signaling", "heappop"),
    "signaling.schedule.try_reserve": ("obs_gprm.signaling", "ChannelSchedule.try_reserve"),
    "signaling.schedule.first_fit": ("obs_gprm.signaling", "ChannelSchedule.first_fit"),
    "signaling.schedule.release": ("obs_gprm.signaling", "ChannelSchedule.release"),
    "gprm.extract_evidence": ("obs_gprm.gprm", "extract_evidence"),
    "gprm.loss_window.ratio": ("obs_gprm.gprm", "LossRateWindow.ratio"),
    "gprm.sp_update": ("obs_gprm.gprm", "SuccessTable.sp_update"),
    "gprm.epoch_success_prob": ("obs_gprm.gprm", "SuccessTable.epoch_success_prob"),
    # private, but the only entry to the naive-Bayes estimator
    "gprm.nb_scores": ("obs_gprm.gprm", "SuccessTable._nb_scores"),
    "gprm.begin_epoch": ("obs_gprm.gprm", "SuccessTable.begin_epoch"),
    "routing.lookup": ("obs_gprm.routing", "LazyRoutingTable.lookup"),
    "routing.maybe_roll": ("obs_gprm.routing", "LazyRoutingTable.maybe_roll"),
    "traffic.next_arrival": ("obs_gprm.traffic", "next_arrival"),
    "traffic.scale_to_load": ("obs_gprm.traffic", "scale_to_load"),
    "metrics.add_busy": ("obs_gprm.metrics", "RunCounters.add_busy"),
    "metrics.add_drop": ("obs_gprm.metrics", "RunCounters.add_drop"),
    "metrics.series.add_sent": ("obs_gprm.metrics", "TimeSeries.add_sent"),
    "metrics.series.add_drop": ("obs_gprm.metrics", "TimeSeries.add_drop"),
    "topology.load_topology": ("obs_gprm.topology", "load_topology"),
    "topology.hop_counts": ("obs_gprm.topology", "Topology.hop_counts"),
    "experiment.run_experiment": ("obs_gprm.experiment", "run_experiment"),
    "experiment.run_single": ("obs_gprm.experiment", "run_single"),
    "experiment.write.results": ("obs_gprm.experiment", "_write_results_csv"),
    "experiment.write.learning": ("obs_gprm.experiment", "_write_learning_csv"),
    "experiment.write.gains": ("obs_gprm.experiment", "_write_gains_csv"),
}

PACKAGE_MODULES = ("topology", "traffic", "gprm", "routing", "signaling", "metrics",
                   "experiment")


class Tracer:
    """Per-name call counts and self/total seconds, plus named counters."""

    def __init__(self, spool_dir=None):
        self.stats = {}     # span name -> [calls, self seconds, total seconds]
        self.counts = {}    # counter name -> number
        self.problems = []  # failed output checks
        self._stack = []    # child seconds accumulated by each open span
        self.spool_dir = spool_dir
        self.in_worker = False
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.reset()
        self.in_worker = True

    def reset(self):
        # reset in place: the wrappers hold references to these lists
        for rec in self.stats.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.counts.clear()
        del self.problems[:]
        del self._stack[:]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn):
        """Wrap `fn` so each call adds to the aggregates of `name`."""
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt - stack.pop()
                rec[2] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "problems": list(self.problems)}

    def flush(self):
        """Write this worker's aggregates to the spool and start afresh."""
        self._flushes += 1
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}-{self._flushes}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)
        self.reset()

    def merge_spool(self):
        """Add every aggregate the workers wrote to this tracer's own."""
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("spans-"):
                continue
            with open(os.path.join(self.spool_dir, fname)) as fh:
                part = json.load(fh)
            for name, (calls, self_s, total_s) in part["stats"].items():
                rec = self.stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += total_s
            for name, n in part["counts"].items():
                self.count(name, n)
            self.problems.extend(part["problems"])


def _resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _patch(owner, attr, wrapper, original):
    """Set `wrapper` on `owner` and on every package module holding `original`."""
    setattr(owner, attr, wrapper)
    for short in PACKAGE_MODULES:
        mod = sys.modules.get(f"obs_gprm.{short}")
        if mod is None:
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def table_entries(sim):
    """Learned success-table entries over all nodes of a finished run."""
    return sum(len(state.success.values) for state in sim.nodes.values())


def install_spans(tracer):
    """Wrap every span in SPANS, plus the counters the layer ratios need."""
    for name, (module_name, attr_path) in SPANS.items():
        owner, attr = _resolve(module_name, attr_path)
        original = getattr(owner, attr)
        _patch(owner, attr, tracer.span(name, original), original)

    # a lookup that builds no row never asks the success table for a value
    esp = tracer.stats["gprm.epoch_success_prob"]
    owner, attr = _resolve(*SPANS["routing.lookup"])
    lookup = getattr(owner, attr)

    @functools.wraps(lookup)
    def lookup_counting_hits(*args, **kwargs):
        before = esp[0]
        out = lookup(*args, **kwargs)
        if esp[0] == before:
            tracer.count("routing.lookup.hits")
        return out

    setattr(owner, attr, lookup_counting_hits)

    owner, attr = _resolve(*SPANS["signaling.schedule.try_reserve"])
    try_reserve = getattr(owner, attr)

    @functools.wraps(try_reserve)
    def try_reserve_counting(*args, **kwargs):
        ok = try_reserve(*args, **kwargs)
        if ok:
            tracer.count("signaling.schedule.reserved")
        return ok

    setattr(owner, attr, try_reserve_counting)


def install_checks(tracer, check_run):
    """Call `check_run(sim, result)` after every `Simulator.run`, in the
    process that ran it, and record the learned table size.

    Installed after `install_spans`, so neither costs time inside a span.
    Sweep workers send their findings back through the spool.
    """
    owner, attr = _resolve(*SPANS["signaling.run"])
    run = getattr(owner, attr)

    @functools.wraps(run)
    def run_checked(sim, *args, **kwargs):
        result = run(sim, *args, **kwargs)
        if sim.policy == "gprm":
            tracer.count("gprm.table_entries", table_entries(sim))
        tracer.count("runs")
        tracer.problems.extend(check_run(sim, result))
        return result

    setattr(owner, attr, run_checked)

    owner, attr = _resolve(*SPANS["experiment.run_single"])
    run_single = getattr(owner, attr)

    @functools.wraps(run_single)
    def run_single_flushing(*args, **kwargs):
        try:
            return run_single(*args, **kwargs)
        finally:
            if tracer.in_worker:
                tracer.flush()

    _patch(owner, attr, run_single_flushing, run_single)

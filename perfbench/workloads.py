"""The benchmark's workloads and the output checks each run must pass.

All four run on the shipped NSFnet topology and gravity matrix; the
workload seed is the master seed of `scale_to_load`. README.md says why
each one is here and which layer it stresses.
"""

from dataclasses import dataclass

# learning settings of nsfnet_paper.scn, with a warm start
WARM = dict(warmup=2.0, alpha=0.97, refresh_period=0.02, initial_mode="warm",
            detour_penalty=0.8, blr_low=0.01, blr_high=0.05, blr_window=0.3,
            offset_guard=3e-4)
# the cold start of acceptance criterion 5; the BLR is taken after the first
# simulated second, by when the learning has caught up with the min-hop policy
COLD = dict(warmup=1.0, alpha=0.75, refresh_period=0.01, initial_mode="cold",
            initial_sp=0.5, blr_low=0.05, blr_high=0.15, blr_window=1.0,
            offset_guard=3e-4)


@dataclass(frozen=True)
class SingleRun:
    """One `Simulator.run` of one policy at one load."""

    policy: str
    load: float
    mean_burst_size: float  # bits
    duration: float         # simulated seconds
    config: dict            # SimConfig fields

    @property
    def counterpart(self):
        """The other policy, run on the same traffic for `blr_ratio`."""
        return "sp" if self.policy == "gprm" else "gprm"


@dataclass(frozen=True)
class Sweep:
    """`run_experiment` on nsfnet_paper.scn, cut down to one seed."""

    loads: tuple
    duration: float
    warmup: float
    threads: int

    @property
    def n_runs(self):
        return 2 * len(self.loads)


WORKLOADS = {
    "gprm-warm": SingleRun("gprm", 0.4, 3.2e6, 20.0, WARM),
    "sp-heavy": SingleRun("sp", 0.8, 3.2e6, 20.0, WARM),
    "gprm-cold": SingleRun("gprm", 0.4, 3.2e5, 3.0, COLD),
    # two workers, the core count of the machine the benchmark was tuned on
    "sweep": Sweep(loads=(0.2, 0.4, 0.6), duration=12.0, warmup=2.0, threads=2),
}


def check_run(sim, result):
    """Problems with one finished run; empty when its counters conserve."""
    problems = []
    for name, c in (("counters", result.counters), ("counters_total", result.counters_total)):
        if c.bursts_sent != c.bursts_delivered + c.bursts_dropped:
            problems.append(f"{name}: sent {c.bursts_sent} != delivered "
                            f"{c.bursts_delivered} + dropped {c.bursts_dropped}")
        if c.in_flight != 0:
            problems.append(f"{name}: {c.in_flight} bursts still in flight")
    if result.counters.bursts_delivered == 0 or result.counters.bursts_dropped == 0:
        problems.append("steady state delivered or dropped nothing: BLR and delay "
                        "are not well defined")
    return problems


def fingerprint(result):
    """Everything a run computed, in a form that compares exactly."""
    out = {}
    for name, c in (("steady", result.counters), ("total", result.counters_total)):
        out[name] = [c.bursts_sent, c.bursts_delivered, c.drops_contention,
                     c.drops_offset, c.drops_noroute, c.drops_ingress, c.delay_sum,
                     sorted([list(k), v] for k, v in c.busy_time.items())]
    times, sent, dropped = result.series.arrays()
    out["series"] = [sent.tolist(), dropped.tolist()]
    return out


class EventCounter:
    """`Simulator` trace hook counting processed events by kind.

    The hook gets one call per processed event, except that an ingress drop
    adds a second `BURST_ARRIVAL` call with detail `drop ingress`.
    """

    def __init__(self):
        self.lines = {}
        self.ingress_drops = 0

    def __call__(self, time, kind, node, burst_id, detail):
        self.add(kind, detail)

    def add(self, kind, detail):
        self.lines[kind] = self.lines.get(kind, 0) + 1
        if detail == "drop ingress":
            self.ingress_drops += 1

    def add_trace_file(self, path):
        """Count the lines of a trace file written by `run_experiment`."""
        with open(path) as fh:
            for line in fh:
                _, kind, _, _, detail = line.rstrip("\n").split(" ", 4)
                self.add(kind, detail)

    def events(self):
        events = dict(self.lines)
        if self.ingress_drops:
            events["BURST_ARRIVAL"] -= self.ingress_drops
        return events

"""Discrete-event engine for JET signaling.

A burst header packet (BHP) travels one offset ahead of its data burst,
reserving the exact burst interval on one wavelength per link (no conversion,
no buffering). Every node on the path, the source included, makes the same
one-hop decision in `Simulator._on_bhp`: the source picks the lowest free
wavelength, later hops must reserve that same one. Reaching the destination
triggers an ACK along the reverse path; any failure (no viable next hop,
exhausted offset, reservation conflict) drops the burst and sends a NACK that
also releases the upstream reservations it passes. An untraced run under the
min-hop policy sends no ACK, since there it changes nothing; a traced run
sends and traces every ACK under both policies. The notification carries
the BHP record itself and is sent one reverse hop at a time by
`Simulator._notify`. Under the adaptive policy a node's state is its
`LazyRoutingTable` in `Simulator.nodes`, which owns the node's success table,
plus its loss window. A hop takes the first neighbor of its ranked row that
no `path_log` record names; every notification updates the learning state of
each node on the path, taking effect at that node's next routing refresh.

One run is strictly single-threaded over a global (time, sequence) ordered
event queue, so identical inputs replay bit-identically.
"""

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import get_args, get_origin

from .gprm import (
    BLR_CLASSES,
    HOP_CLASSES,
    LossRateWindow,
    OFFSET_CLASSES,
    PER_HOP_PROCESSING,
    SuccessTable,
    cold_start_prior,
    extract_evidence,
    warm_start_prior,
)
from .metrics import RunCounters, RunResult, TimeSeries
from .routing import LazyRoutingTable, shortest_path_table
from .topology import propagation_delay
from .traffic import next_arrival

OFFSET_EPS = 1e-12  # tolerance for exact-multiple offset arithmetic


# event kinds, plain ints for the event tuples (time, seq, kind, a, b); they
# index the handler tuple of `Simulator.run`
BURST_ARRIVAL, BHP_ARRIVE, BURST_ARRIVE, NOTIFICATION_ARRIVE = range(4)


class Bhp:
    """Control packet reserving ahead of its burst; its ACK/NACK carries it back.

    `remaining_offset` is the gap between this packet and its burst at the
    node currently processing it; each forwarding decision consumes one
    per-hop processing budget. `path_log` records, per forwarding node, the
    evidence used, the chosen next hop and the reserved interval start; its
    nodes are the ones a GPRM hop may not send the burst back to.
    `wavelength` stays None until the source hop reserves one, and until then
    `duration` holds the burst size in bits, which that hop divides by its
    link's rate. `success` is set when the notification is sent. `cohort`, the
    run's steady `counters` if the burst was created at or after warm-up and
    its transient ones otherwise, counts the burst's send, drop and delivery.
    """

    __slots__ = ("burst_id", "dest", "wavelength", "duration", "remaining_offset",
                 "created_at", "path_log", "success", "cohort")

    def __init__(self, burst_id, dest, size, offset, created_at, cohort):
        self.burst_id = burst_id
        self.dest = dest
        self.wavelength = None
        self.duration = size
        self.remaining_offset = offset
        self.created_at = created_at
        self.path_log = []
        self.success = None
        self.cohort = cohort


def _reserve(lane, start, duration, now):
    """Insert [start, start+duration) into one wavelength's sorted (starts,
    ends) lists if it overlaps nothing; report success."""
    starts, ends = lane
    if ends and ends[0] <= now:  # expired reservations can never conflict
        n = bisect.bisect_right(ends, now)
        del starts[:n]
        del ends[:n]
    i = bisect.bisect_left(starts, start)
    if i > 0 and ends[i - 1] > start:
        return False
    end = start + duration
    if i < len(starts) and starts[i] < end:
        return False
    starts.insert(i, start)
    ends.insert(i, end)
    return True


class ChannelSchedule:
    """Reserved half-open intervals per directed link and wavelength.

    Built from `{(u, v): data_channels}`: each link (u, v) holds one
    `(starts, ends)` pair of lists per wavelength it has, made up front.
    Intervals on one wavelength never overlap, so both lists stay sorted.
    """

    def __init__(self, channels):
        self._res = {uv: [([], []) for _ in range(n)] for uv, n in channels.items()}

    def try_reserve(self, u, v, wavelength, start, duration, now=0.0):
        """Insert [start, start+duration) if the link has this wavelength free; report success."""
        lanes = self._res[(u, v)]
        return wavelength < len(lanes) and _reserve(lanes[wavelength], start, duration, now)

    def first_fit(self, u, v, start, duration, now=0.0):
        """Reserve on the lowest-index free wavelength; None if all conflict."""
        for w, lane in enumerate(self._res[(u, v)]):
            if _reserve(lane, start, duration, now):
                return w
        return None

    def release(self, u, v, wavelength, start):
        """Remove a reservation by its start time; missing entries are ignored
        (the interval may already lie in the past and have been pruned)."""
        starts, ends = self._res[(u, v)][wavelength]
        i = bisect.bisect_left(starts, start)
        if i < len(starts) and starts[i] == start:
            del starts[i]
            del ends[i]

    def intervals(self, u, v, wavelength):
        starts, ends = self._res[(u, v)][wavelength]
        return list(zip(starts, ends))


class Interval(str):
    """A key's rule, written as in mathematics: "(0, 1]" holds the numbers
    above 0 and up to 1, 1 included. NaN is in no interval."""

    def __init__(self, text):
        self.low, self.high = map(float, text[1:-1].split(","))

    def __contains__(self, x):
        return ((self.low <= x if self[0] == "[" else self.low < x)
                and (x <= self.high if self[-1] == "]" else x < self.high))


def key(default, rule):
    """The field of a scenario key: its default, and its rule, an `Interval`
    or a tuple of words, which applies to each item of a list key."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


def _is_a(kind, x):
    """Whether `x` is a value of type `kind`: a bool is not a number, and an
    int is a float only if it converts to one."""
    if kind is float and type(x) is int:
        return abs(x) <= sys.float_info.max
    return isinstance(x, kind) and type(x) is not bool


# `experiment.Scenario.policies`, whose words are the policies `Simulator` takes
POLICIES = key(["sp", "gprm"], ("sp", "gprm"))


@dataclass
class SimConfig:
    offset_guard: float = key(0.0, Interval("[0, inf)"))  # extra offset beyond the hop budget
    alpha: float = key(0.9, Interval("[0, 1]"))
    initial_sp: float = key(0.5, Interval("[0, 1]"))
    refresh_period: float = key(0.1, Interval("(0, inf)"))
    initial_mode: str = key("warm", ("warm", "cold"))
    detour_penalty: float = key(0.8, Interval("(0, 1]"))  # warm-prior multiplier per extra hop
    blr_low: float = key(0.01, Interval("(0, 1)"))
    blr_high: float = key(0.05, Interval("(0, 1)"))
    blr_window: float = key(0.1, Interval("(0, inf)"))
    warmup: float = key(2.0, Interval("[0, inf)"))

    def problems(self):
        """Every invalid field, as a list of `field: reason` strings: at most
        one per field, by its declared type and then its rule, where it
        declares one, then `blr_low < blr_high` if both passed. A list key
        must be a `list` with items, each of the item type and passing the
        rule, and no two giving the same tag, as the tags name a run's output
        files."""
        errors = []
        for f in fields(self):
            rule = f.metadata.get("rule")
            value = getattr(self, f.name)
            listed = get_origin(f.type) is list
            kind = (get_args(f.type) or (f.type,))[0]
            items = value if listed else [value]
            if listed and not isinstance(value, list):
                errors.append(f"{f.name}: must be of type list, got {value!r}")
            elif wrong := [x for x in items if not _is_a(kind, x)]:
                errors.append(f"{f.name}: must be of type {kind.__name__}, got {wrong[0]!r}")
            elif not items:
                errors.append(f"{f.name}: must not be empty")
            elif rule and (bad := list(itertools.filterfalse(rule.__contains__, items))):
                expected = " or ".join(rule) if isinstance(rule, tuple) else f"in {rule}"
                errors.append(f"{f.name}: must be {expected}, got {bad[0]!r}")
            elif len(items) > 1:
                tags = [f"{v:g}" if isinstance(v, float) else str(v) for v in items]
                if repeated := sorted({t for t in tags if tags.count(t) > 1}):
                    errors.append(f"{f.name}: {', '.join(repeated)} repeated; "
                                  "two runs would write the same files")
        failed = {e.partition(":")[0] for e in errors}
        if not failed & {"blr_low", "blr_high"} and self.blr_low >= self.blr_high:
            errors.append(f"blr_high: must be > blr_low, got {self.blr_high!r} "
                          f"<= {self.blr_low!r}")
        return errors


class Simulator:
    """One simulation run: a topology, a connection set, and one policy."""

    def __init__(self, topology, connections, policy="sp", config=None, trace=None):
        if policy not in POLICIES.metadata["rule"]:
            raise ValueError(f"unknown policy {policy!r}")
        self.topology = topology
        self.connections = list(connections)
        for conn in self.connections:
            if conn.src == conn.dst:
                raise ValueError(f"{conn}: source and destination are the same node")
            if conn.src not in topology.neighbors or conn.dst not in topology.neighbors:
                raise ValueError(f"{conn}: endpoint not in the topology")
        self.policy = policy
        self.config = cfg = config or SimConfig()
        problems = cfg.problems()
        if problems:
            raise ValueError("invalid SimConfig: " + "; ".join(problems))
        self.trace = trace  # callable(time, kind, node, burst_id, detail) or None
        self.hop_counts = topology.hop_counts()
        # only the schedule holds each link's wavelength count
        self.schedule = ChannelSchedule({uv: l.data_channels for uv, l in topology.links.items()})
        self._gprm = policy == "gprm"
        self._warmup = cfg.warmup
        # directed link -> (channel rate, propagation, processing + propagation):
        # a BHP hop adds the two delays to the clock in turn and a notification
        # hop adds their sum; the golden outputs fix that float order
        self._links = {}
        for uv, link in topology.links.items():
            prop = propagation_delay(link)
            self._links[uv] = (link.channel_rate, prop, PER_HOP_PROCESSING + prop)
        self._heap = []
        self._seq = itertools.count(1)  # event tie-break, in push order
        self._burst_ids = itertools.count(1)
        # min-hop (node, dest) -> (next hop,) + that link's `_links` record, so
        # an `sp` hop reads its link with the same lookup that picks it
        self._sp_hops = None if self._gprm else {
            (node, dest): (next_hop,) + self._links[(node, next_hop)]
            for (node, dest), next_hop in shortest_path_table(topology).items()}
        self.nodes = {}  # GPRM node -> its router, which owns its success table
        self._loss = {}  # GPRM node -> its loss window
        if self._gprm:
            cold = cfg.initial_mode == "cold"
            # a cold start scores unseen evidence by naive Bayes over these field sizes
            nb_space = (OFFSET_CLASSES, BLR_CLASSES, HOP_CLASSES, len(topology.nodes)) \
                if cold else None
            for n in topology.nodes:
                prior = (cold_start_prior(cfg.initial_sp) if cold else
                         warm_start_prior(self.hop_counts, n, cfg.detour_penalty))
                success = SuccessTable(n, topology.neighbors[n], cfg.alpha, prior, nb_space)
                self.nodes[n] = LazyRoutingTable(success, cfg.refresh_period)
                self._loss[n] = LossRateWindow(cfg.blr_window)
        self.counters = RunCounters()    # steady-state cohort
        self._transient = RunCounters()  # bursts created before warm-up; no busy time
        self.series = TimeSeries()
        self._duration = None

    # -- helpers -----------------------------------------------------------

    def _notify(self, now, node, bhp, idx):
        """Send the ACK/NACK of `bhp` from `node` to the forwarding node at `path_log[idx]`."""
        heappush(self._heap, (now + self._links[(bhp.path_log[idx][0], node)][2],
                              next(self._seq), NOTIFICATION_ARRIVE, idx, bhp))

    def _drop(self, now, bhp, cause, node):
        """Drop `bhp` at `node`; a burst that left its source is NACKed back."""
        bhp.cohort.add_drop(cause)
        self.series.add_drop(now)
        if self._gprm:
            self._loss[node].record_failure(now)
        if self.trace is not None:  # an ingress drop is the source's, at burst arrival
            self.trace(now, "BURST_ARRIVAL" if cause == "ingress" else "BHP_ARRIVE", node,
                       bhp.burst_id, f"drop {cause}")
        if bhp.path_log:
            bhp.success = False
            self._notify(now, node, bhp, len(bhp.path_log) - 1)

    # -- handlers, one per event kind, each called as (now, a, b) ------------

    def _on_burst_arrival(self, now, conn_idx, size):
        """A burst enters at its source, where its BHP takes the first hop."""
        conn, rng, offset = self._streams[conn_idx]
        dt, next_size = next_arrival(conn, rng)
        t_next = now + dt
        if t_next < self._duration:
            heappush(self._heap, (t_next, next(self._seq), BURST_ARRIVAL, conn_idx, next_size))
        source = conn.src
        cohort = self.counters if self._warmup <= now else self._transient
        cohort.bursts_sent += 1
        self.series.add_sent(now)
        bhp = Bhp(next(self._burst_ids), conn.dst, size, offset, now, cohort)
        if self.trace is not None:
            self.trace(now, "BURST_ARRIVAL", source, bhp.burst_id,
                       f"dest {conn.dst} size {size:.0f}")
        self._on_bhp(now, source, bhp)

    def _on_bhp(self, now, node, bhp):
        """A BHP reaches `node`: deliver it, or forward it one more hop (the
        first hop, at its source, when it has no wavelength yet)."""
        if node == bhp.dest:
            # burst tail arrives one remaining offset plus one transmission later
            heappush(self._heap, (now + bhp.remaining_offset + bhp.duration, next(self._seq),
                                  BURST_ARRIVE, node, bhp))
            if self.trace is not None:
                self.trace(now, "BHP_ARRIVE", node, bhp.burst_id, "at destination")
            bhp.success = True
            # under `sp` an ACK releases nothing and feeds no learning, so only
            # a traced run sends one; skipping its pushes keeps every other
            # event's (time, seq) order, and so every result
            if self._gprm or self.trace is not None:
                self._notify(now, node, bhp, len(bhp.path_log) - 1)
            return
        offset = bhp.remaining_offset
        # Neither the noroute nor the offset drop can fire at the source: its
        # path log is empty, so every neighbour is a candidate, and its offset
        # holds at least one hop budget.
        if self._gprm:
            loss = self._loss[node]
            cfg = self.config
            evidence = extract_evidence(node, bhp.dest, offset, loss.ratio(now),
                                        self.hop_counts, cfg.blr_low, cfg.blr_high)
            # the first neighbour in the ranked row that the burst has not passed
            for next_hop in self.nodes[node].lookup(evidence, now):
                for hop in bhp.path_log:
                    if hop[0] == next_hop:  # passed: try the next one
                        break
                else:  # no path record names it
                    break
            else:  # the burst has passed every neighbour
                self._drop(now, bhp, "noroute", node)
                return
            rate, prop, _ = self._links[(node, next_hop)]
        else:
            evidence = None
            next_hop, rate, prop, _ = self._sp_hops[(node, bhp.dest)]
        remaining = offset - PER_HOP_PROCESSING
        if remaining < -OFFSET_EPS:
            self._drop(now, bhp, "offset", node)
            return
        start = now + offset  # burst reaches this node then
        wavelength = bhp.wavelength
        at_source = wavelength is None
        if at_source:  # the lowest free wavelength; none is an ingress drop
            bhp.duration /= rate  # size -> transmission time on this link
            wavelength = self.schedule.first_fit(node, next_hop, start, bhp.duration, now)
            if wavelength is None:
                self._drop(now, bhp, "ingress", node)
                return
            bhp.wavelength = wavelength
        # no conversion: the ingress wavelength must exist and be free here
        elif not self.schedule.try_reserve(node, next_hop, wavelength, start,
                                           bhp.duration, now):
            self._drop(now, bhp, "contention", node)
            return
        bhp.remaining_offset = remaining
        bhp.path_log.append((node, evidence, next_hop, start))
        if self._gprm:
            loss.record_forward(now)
        if self.trace is not None and not at_source:
            self.trace(now, "BHP_ARRIVE", node, bhp.burst_id, f"forward {next_hop}")
        heappush(self._heap, (now + PER_HOP_PROCESSING + prop, next(self._seq), BHP_ARRIVE,
                              next_hop, bhp))

    def _on_burst_arrive(self, now, node, bhp):
        """A burst's tail reaches its destination."""
        cohort = bhp.cohort
        cohort.bursts_delivered += 1
        cohort.delay_sum += now - bhp.created_at
        if cohort is self.counters:  # its hops' channel time, clipped at the run end
            run_end, duration, wavelength = self._duration, bhp.duration, bhp.wavelength
            for hop, _, next_hop, start in bhp.path_log:
                end = start + duration
                busy = (run_end if run_end < end else end) - start  # min() without the call
                if busy > 0:
                    cohort.add_busy((hop, next_hop, wavelength), busy)
        if self.trace is not None:
            self.trace(now, "BURST_ARRIVE", node, bhp.burst_id, "delivered")

    def _on_notification(self, now, idx, bhp):
        """The ACK/NACK of `bhp` reaches the forwarding node at `path_log[idx]`."""
        node, evidence, next_hop, start = bhp.path_log[idx]
        if not bhp.success:
            self.schedule.release(node, next_hop, bhp.wavelength, start)
        if self._gprm:
            if not bhp.success:
                self._loss[node].record_failure(now)
            router = self.nodes[node]
            router.maybe_roll(now)
            router.success.sp_update(next_hop, evidence, bhp.success)
        if self.trace is not None:
            self.trace(now, "NOTIFICATION_ARRIVE", node, bhp.burst_id,
                       "ACK" if bhp.success else "NACK")
        if idx > 0:
            self._notify(now, node, bhp, idx - 1)

    # -- main loop ---------------------------------------------------------

    def run(self, duration):
        """Process arrivals up to `duration`, then drain all in-flight events.

        A Simulator runs once: its counters and schedules are not reset.
        """
        if self._duration is not None:
            raise RuntimeError("Simulator.run was already called; make a new Simulator")
        if not math.isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration}")
        if duration <= self.config.warmup:
            raise ValueError("duration must exceed the warm-up interval")
        self._duration = duration
        # per connection: arrival stream, ingress offset (a budget per hop + guard)
        guard = self.config.offset_guard
        self._streams = [(conn, conn.make_rng(),
                          self.hop_counts[(conn.src, conn.dst)] * PER_HOP_PROCESSING + guard)
                         for conn in self.connections]
        for idx, (conn, rng, _) in enumerate(self._streams):
            dt, size = next_arrival(conn, rng)
            if dt < duration:
                heappush(self._heap, (dt, next(self._seq), BURST_ARRIVAL, idx, size))
        handlers = (self._on_burst_arrival, self._on_bhp, self._on_burst_arrive,
                    self._on_notification)  # indexed by event kind
        heap = self._heap
        while heap:
            now, _, kind, a, b = heappop(heap)
            handlers[kind](now, a, b)
        for router in self.nodes.values():  # the learned state holds every notification
            router.success.begin_epoch()
        steady, transient = self.counters, self._transient  # the sum has no busy time
        counters_total = RunCounters(**{f.name: getattr(steady, f.name) + getattr(transient, f.name)
                                        for f in fields(RunCounters) if f.type is not dict})
        return RunResult(steady, counters_total, self.series, duration, self.config.warmup)

"""Discrete-event engine for JET signaling.

A burst header packet (BHP) travels one offset ahead of its data burst,
reserving the exact burst interval on one wavelength per link (no conversion,
no buffering). Reaching the destination triggers an ACK along the reverse
path; any failure (no viable next hop, exhausted offset, reservation
conflict) drops the burst and sends a NACK that also releases the upstream
reservations it passes. Under the adaptive policy every notification updates
the learning state of each node on the path.

One run is strictly single-threaded over a global (time, sequence) ordered
event queue, so identical inputs replay bit-identically.
"""

import bisect
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush

from .gprm import (
    BlrClassifier,
    EvidenceVector,
    HOP_CLASSES,
    LossRateWindow,
    OFFSET_CLASSES,
    Outcome,
    SuccessTable,
    UpdateParams,
    cold_start_prior,
    extract_evidence,
    warm_start_prior,
)
from .metrics import RunCounters, RunResult, TimeSeries
from .routing import LazyRoutingTable, shortest_path_table
from .topology import propagation_delay
from .traffic import next_arrival

OFFSET_EPS = 1e-12  # tolerance for exact-multiple offset arithmetic


class EventKind(IntEnum):
    BURST_ARRIVAL = 0
    BHP_ARRIVE = 1
    BURST_ARRIVE = 2
    NOTIFICATION_ARRIVE = 3


class Bhp:
    """Control packet reserving ahead of its burst.

    `remaining_offset` is the gap between this packet and its burst at the
    node currently processing it; each forwarding decision consumes one
    per-hop processing budget. `path_log` records, per forwarding node, the
    evidence used, the chosen next hop and the reserved interval start.
    """

    __slots__ = ("burst_id", "dest", "wavelength", "duration",
                 "remaining_offset", "created_at", "path_log", "visited")

    def __init__(self, burst_id, source, dest, duration, remaining_offset, created_at):
        self.burst_id = burst_id
        self.dest = dest
        self.wavelength = None
        self.duration = duration
        self.remaining_offset = remaining_offset
        self.created_at = created_at
        self.path_log = []
        self.visited = {source}


class Notification:
    """ACK/NACK walking the reverse path on the control channel."""

    __slots__ = ("outcome", "burst_id", "path_log", "wavelength")

    def __init__(self, outcome, burst_id, path_log, wavelength):
        self.outcome = outcome
        self.burst_id = burst_id
        self.path_log = path_log
        self.wavelength = wavelength

    @property
    def kind(self):
        return "ACK" if self.outcome is Outcome.SUCCESS else "NACK"


class ChannelSchedule:
    """Per (link, wavelength) sets of reserved half-open intervals."""

    def __init__(self):
        self._res = {}

    def try_reserve(self, u, v, wavelength, start, duration, now=0.0):
        """Insert [start, start+duration) if it overlaps nothing; report success."""
        key = (u, v, wavelength)
        slots = self._res.get(key)
        if slots is None:
            slots = self._res[key] = ([], [])
        starts, ends = slots
        while starts and ends[0] <= now:  # expired reservations can never conflict
            del starts[0]
            del ends[0]
        i = bisect.bisect_left(starts, start)
        if i > 0 and ends[i - 1] > start:
            return False
        end = start + duration
        if i < len(starts) and starts[i] < end:
            return False
        starts.insert(i, start)
        ends.insert(i, end)
        return True

    def first_fit(self, u, v, n_channels, start, duration, now=0.0):
        """Reserve on the lowest-index free wavelength; None if all conflict."""
        for w in range(n_channels):
            if self.try_reserve(u, v, w, start, duration, now):
                return w
        return None

    def release(self, u, v, wavelength, start):
        """Remove a reservation by its start time; missing entries are ignored
        (the interval may already lie in the past and have been pruned)."""
        slots = self._res.get((u, v, wavelength))
        if slots is None:
            return
        starts, ends = slots
        i = bisect.bisect_left(starts, start)
        if i < len(starts) and starts[i] == start:
            del starts[i]
            del ends[i]

    def intervals(self, u, v, wavelength):
        starts, ends = self._res.get((u, v, wavelength), ([], []))
        return list(zip(starts, ends))


@dataclass
class SimConfig:
    per_hop_processing: float = 1e-4  # BHP processing per node, seconds
    offset_guard: float = 0.0         # extra initial offset beyond hop budget
    alpha: float = 0.9
    initial_sp: float = 0.5
    refresh_period: float = 0.1
    initial_mode: str = "warm"        # "warm" | "cold"
    detour_penalty: float = 0.8       # warm-prior multiplier per extra hop
    blr_low: float = 0.01
    blr_high: float = 0.05
    blr_window: float = 0.1
    util_mode: str = "delivered"      # "delivered" | "all"
    bucket_width: float = 0.01
    warmup: float = 1.0

    def problems(self):
        """Every invalid field, as a list of `field: reason` strings."""
        errors = []
        if self.warmup < 0:
            errors.append("warmup: must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            errors.append("alpha: out of [0,1]")
        if not 0.0 <= self.initial_sp <= 1.0:
            errors.append("initial_sp: out of [0,1]")
        if self.refresh_period <= 0:
            errors.append("refresh_period: must be > 0")
        if self.initial_mode not in ("warm", "cold"):
            errors.append(f"initial_mode: expected warm or cold, got {self.initial_mode!r}")
        if not 0.0 < self.detour_penalty <= 1.0:
            errors.append("detour_penalty: must be in (0,1]")
        if not 0.0 < self.blr_low < self.blr_high < 1.0:
            errors.append("blr thresholds: need 0 < low < high < 1")
        if self.blr_window <= 0:
            errors.append("blr_window: must be > 0")
        if self.per_hop_processing <= 0:
            errors.append("per_hop_processing: must be > 0")
        if self.offset_guard < 0:
            errors.append("offset_guard: must be >= 0")
        if self.bucket_width <= 0:
            errors.append("bucket_width: must be > 0")
        if self.util_mode not in ("delivered", "all"):
            errors.append(f"util_mode: expected delivered or all, got {self.util_mode!r}")
        return errors


class _NodeState:
    __slots__ = ("success", "router", "loss_window")

    def __init__(self, success, router, loss_window):
        self.success = success
        self.router = router
        self.loss_window = loss_window


class Simulator:
    """One simulation run: a topology, a connection set, and one policy."""

    def __init__(self, topology, connections, policy="sp", config=None, trace=None):
        if policy not in ("sp", "gprm"):
            raise ValueError(f"unknown policy {policy!r}")
        self.topology = topology
        self.connections = list(connections)
        self.policy = policy
        self.config = config or SimConfig()
        problems = self.config.problems()
        if problems:
            raise ValueError("invalid SimConfig: " + "; ".join(problems))
        self.trace = trace  # callable(time, kind, node, burst_id, detail) or None
        self.hop_counts = topology.hop_counts()
        self.schedule = ChannelSchedule()
        self.classifier = BlrClassifier(self.config.blr_low, self.config.blr_high,
                                        self.config.blr_window)
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._burst_ids = 0
        self._prop_cache = {}
        self._sp_next = shortest_path_table(topology) if policy == "sp" else None
        self.nodes = {}
        n_dest = len(topology.nodes)
        for n in topology.nodes:
            success = router = None
            if policy == "gprm":
                params = UpdateParams(self.config.alpha, self.config.initial_sp)
                if self.config.initial_mode == "warm":
                    initial = warm_start_prior(self.hop_counts, n,
                                               detour_base=self.config.detour_penalty)
                    fallback = False
                else:
                    initial = cold_start_prior(self.config.initial_sp)
                    fallback = True
                success = SuccessTable(
                    n, topology.neighbors[n], params=params,
                    state_counts=(OFFSET_CLASSES, 3, HOP_CLASSES, n_dest),
                    initial_sp=initial, nb_fallback=fallback,
                )
                router = LazyRoutingTable(success, topology.neighbors[n],
                                          self.config.refresh_period)
            self.nodes[n] = _NodeState(success, router,
                                       LossRateWindow(self.config.blr_window))
        self.counters = RunCounters()        # steady-state cohort
        self.counters_total = RunCounters()  # every burst
        self.series = TimeSeries(self.config.bucket_width)
        self._duration = None

    # -- event plumbing ----------------------------------------------------

    def _push(self, time, kind, a, b):
        self._seq += 1
        heappush(self._heap, (time, self._seq, kind, a, b))

    def _emit(self, kind, node, burst_id, detail):
        if self.trace is not None:
            self.trace(self._now, EventKind(kind).name, node, burst_id, detail)

    # -- helpers -----------------------------------------------------------

    def _steady(self, bhp_created_at):
        return self.config.warmup <= bhp_created_at

    def _record_sent(self, created_at):
        self.counters_total.bursts_sent += 1
        if self._steady(created_at):
            self.counters.bursts_sent += 1
        self.series.add_sent(created_at)

    def _drop(self, bhp, cause, node, kind=EventKind.BHP_ARRIVE):
        self.counters_total.add_drop(cause)
        if self._steady(bhp.created_at):
            self.counters.add_drop(cause)
        self.series.add_drop(self._now)
        self.nodes[node].loss_window.record_failure(self._now)
        self._emit(kind, node, bhp.burst_id, f"drop {cause}")
        if bhp.path_log:
            notif = Notification(Outcome.FAILURE, bhp.burst_id, bhp.path_log,
                                 bhp.wavelength)
            prev_node = bhp.path_log[-1][0]
            delay = self.config.per_hop_processing + self._prop(prev_node, node)
            self._push(self._now + delay, EventKind.NOTIFICATION_ARRIVE,
                       prev_node, (notif, len(bhp.path_log) - 1))

    def _prop(self, u, v):
        d = self._prop_cache.get((u, v))
        if d is None:
            d = self._prop_cache[(u, v)] = propagation_delay(
                self.topology.link(u, v), self.topology.signal_speed)
        return d

    def _evidence(self, node, dest, remaining_offset):
        local_blr = self.nodes[node].loss_window.ratio(self._now)
        return extract_evidence(node, dest, remaining_offset, local_blr,
                                self.hop_counts, self.classifier,
                                self.config.per_hop_processing)

    def _choose(self, node, dest, evidence, visited):
        if self.policy == "sp":
            return self._sp_next[(node, dest)]
        return self.nodes[node].router.lookup(evidence, visited, self._now)

    def _add_busy(self, key, start, duration, steady):
        lo = max(start, self.config.warmup)
        hi = min(start + duration, self._duration)
        self.counters_total.add_busy(key, duration)
        if steady and hi > lo:
            self.counters.add_busy(key, hi - lo)

    # -- handlers ----------------------------------------------------------

    def _handle_burst_arrival(self, conn_idx, size):
        conn, rng = self._streams[conn_idx]
        dt, next_size = next_arrival(conn, rng)
        t_next = self._now + dt
        if t_next < self._duration:
            self._push(t_next, EventKind.BURST_ARRIVAL, conn_idx, next_size)
        self._ingress_admit(conn.src, conn.dst, size)

    def _ingress_admit(self, source, dest, size):
        now = self._now
        cfg = self.config
        self._record_sent(now)
        self._burst_ids += 1
        burst_id = self._burst_ids
        offset = self.hop_counts[(source, dest)] * cfg.per_hop_processing + cfg.offset_guard
        evidence = self._evidence(source, dest, offset) if self.policy == "gprm" else None
        next_hop = self._choose(source, dest, evidence, {source})
        link = self.topology.link(source, next_hop)
        duration = size / link.channel_rate
        start = now + offset
        bhp = Bhp(burst_id, source, dest, duration, offset, now)
        self._emit(EventKind.BURST_ARRIVAL, source, burst_id, f"dest {dest} size {size:.0f}")
        wavelength = self.schedule.first_fit(source, next_hop, link.data_channels,
                                             start, duration, now)
        if wavelength is None:
            self._drop(bhp, "ingress", source, EventKind.BURST_ARRIVAL)
            return
        bhp.wavelength = wavelength
        bhp.remaining_offset = offset - cfg.per_hop_processing
        bhp.path_log.append((source, evidence, next_hop, start))
        bhp.visited.add(next_hop)
        self.nodes[source].loss_window.record_forward(now)
        if cfg.util_mode == "all":
            self._add_busy((source, next_hop, wavelength), start, duration,
                           self._steady(now))
        self._push(now + cfg.per_hop_processing + self._prop(source, next_hop),
                   EventKind.BHP_ARRIVE, next_hop, bhp)

    def _handle_bhp(self, node, bhp):
        now = self._now
        cfg = self.config
        if node == bhp.dest:
            # burst tail arrives one remaining offset plus one transmission later
            self._push(now + bhp.remaining_offset + bhp.duration,
                       EventKind.BURST_ARRIVE, node, bhp)
            self._emit(EventKind.BHP_ARRIVE, node, bhp.burst_id, "at destination")
            if bhp.path_log:
                notif = Notification(Outcome.SUCCESS, bhp.burst_id, bhp.path_log,
                                     bhp.wavelength)
                prev_node = bhp.path_log[-1][0]
                delay = cfg.per_hop_processing + self._prop(prev_node, node)
                self._push(now + delay, EventKind.NOTIFICATION_ARRIVE,
                           prev_node, (notif, len(bhp.path_log) - 1))
            return
        evidence = (self._evidence(node, bhp.dest, bhp.remaining_offset)
                    if self.policy == "gprm" else None)
        next_hop = self._choose(node, bhp.dest, evidence, bhp.visited)
        if next_hop is None:
            self._drop(bhp, "noroute", node)
            return
        remaining = bhp.remaining_offset - cfg.per_hop_processing
        if remaining < -OFFSET_EPS:
            self._drop(bhp, "offset", node)
            return
        start = now + bhp.remaining_offset  # burst reaches this node then
        link = self.topology.link(node, next_hop)
        # no conversion: the ingress wavelength must exist and be free here
        if bhp.wavelength >= link.data_channels or not self.schedule.try_reserve(
                node, next_hop, bhp.wavelength, start, bhp.duration, now):
            self._drop(bhp, "contention", node)
            return
        bhp.remaining_offset = remaining
        bhp.path_log.append((node, evidence, next_hop, start))
        bhp.visited.add(next_hop)
        self.nodes[node].loss_window.record_forward(now)
        if cfg.util_mode == "all":
            self._add_busy((node, next_hop, bhp.wavelength), start, bhp.duration,
                           self._steady(bhp.created_at))
        self._emit(EventKind.BHP_ARRIVE, node, bhp.burst_id, f"forward {next_hop}")
        self._push(now + cfg.per_hop_processing + self._prop(node, next_hop),
                   EventKind.BHP_ARRIVE, next_hop, bhp)

    def _handle_burst_arrive(self, node, bhp):
        steady = self._steady(bhp.created_at)
        self.counters_total.bursts_delivered += 1
        self.counters_total.delay_sum += self._now - bhp.created_at
        if steady:
            self.counters.bursts_delivered += 1
            self.counters.delay_sum += self._now - bhp.created_at
        if self.config.util_mode == "delivered":
            for hop_node, _, next_hop, start in bhp.path_log:
                self._add_busy((hop_node, next_hop, bhp.wavelength), start,
                               bhp.duration, steady)
        self._emit(EventKind.BURST_ARRIVE, node, bhp.burst_id, "delivered")

    def _handle_notification(self, node, notif, idx):
        hop_node, evidence, next_hop, start = notif.path_log[idx]
        state = self.nodes[node]
        if notif.outcome is Outcome.FAILURE:
            state.loss_window.record_failure(self._now)
            self.schedule.release(node, next_hop, notif.wavelength, start)
        if self.policy == "gprm":
            state.router.maybe_roll(self._now)
            state.success.sp_update(next_hop, evidence, notif.outcome)
        self._emit(EventKind.NOTIFICATION_ARRIVE, node, notif.burst_id, notif.kind)
        if idx > 0:
            prev_node = notif.path_log[idx - 1][0]
            delay = self.config.per_hop_processing + self._prop(prev_node, node)
            self._push(self._now + delay, EventKind.NOTIFICATION_ARRIVE,
                       prev_node, (notif, idx - 1))

    # -- main loop ---------------------------------------------------------

    def run(self, duration):
        """Process arrivals up to `duration`, then drain all in-flight events.

        A Simulator runs once: its counters and schedules are not reset.
        """
        if self._duration is not None:
            raise RuntimeError("Simulator.run was already called; make a new Simulator")
        if duration <= self.config.warmup:
            raise ValueError("duration must exceed the warm-up interval")
        self._duration = duration
        self._streams = []
        for conn in self.connections:
            rng = conn.make_rng()
            self._streams.append((conn, rng))
        for idx, (conn, rng) in enumerate(self._streams):
            dt, size = next_arrival(conn, rng)
            if dt < duration:
                self._push(dt, EventKind.BURST_ARRIVAL, idx, size)
        heap = self._heap
        while heap:
            t, _, kind, a, b = heappop(heap)
            self._now = t
            if kind == EventKind.BHP_ARRIVE:
                self._handle_bhp(a, b)
            elif kind == EventKind.BURST_ARRIVAL:
                self._handle_burst_arrival(a, b)
            elif kind == EventKind.NOTIFICATION_ARRIVE:
                self._handle_notification(a, b[0], b[1])
            elif kind == EventKind.BURST_ARRIVE:
                self._handle_burst_arrive(a, b)
            else:  # pragma: no cover - no other kinds are scheduled
                raise AssertionError(f"unexpected event kind {kind}")
        return RunResult(self.counters, self.counters_total, self.series,
                         duration, self.config.warmup)

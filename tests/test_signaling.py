import heapq
import math
from collections import Counter, defaultdict
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obs_gprm.signaling as signaling
from conftest import TraceLog, bidir, nsfnet_workload, path_topology, ring_topology, star_into_chain
from obs_gprm.gprm import PER_HOP_PROCESSING
from obs_gprm.metrics import RunCounters
from obs_gprm.signaling import ChannelSchedule, SimConfig, Simulator
from obs_gprm.topology import Topology
from obs_gprm.traffic import ConnectionSpec

MS = 1e-3


def two_way():
    """A schedule for both directions of one fiber with 4 wavelengths."""
    return ChannelSchedule({(0, 1): 4, (1, 0): 4})


class TestChannelSchedule:
    def test_reserve_on_empty(self):
        s = two_way()
        assert s.try_reserve(0, 1, 0, 10 * MS, 3.2 * MS)

    def test_overlap_conflicts_and_leaves_schedule_unchanged(self):
        s = two_way()
        assert s.try_reserve(0, 1, 0, 10 * MS, 3.2 * MS)
        before = s.intervals(0, 1, 0)
        assert not s.try_reserve(0, 1, 0, 12 * MS, 3 * MS)
        assert s.intervals(0, 1, 0) == before

    def test_half_open_adjacency_fits(self):
        s = two_way()
        assert s.try_reserve(0, 1, 0, 10 * MS, 3.2 * MS)
        assert s.try_reserve(0, 1, 0, 13.2 * MS, 2.8 * MS)
        assert s.try_reserve(0, 1, 0, 5 * MS, 5 * MS)

    def test_other_wavelength_and_link_independent(self):
        s = two_way()
        assert s.try_reserve(0, 1, 0, 10 * MS, 3 * MS)
        assert s.try_reserve(0, 1, 1, 10 * MS, 3 * MS)
        assert s.try_reserve(1, 0, 0, 10 * MS, 3 * MS)

    def test_first_fit_skips_busy(self):
        s = two_way()
        assert s.first_fit(0, 1, 10 * MS, 3 * MS) == 0
        assert s.first_fit(0, 1, 11 * MS, 3 * MS) == 1
        assert s.first_fit(0, 1, 12 * MS, 3 * MS) == 2
        assert s.first_fit(0, 1, 12.5 * MS, 3 * MS) == 3
        assert s.first_fit(0, 1, 12.7 * MS, 3 * MS) is None

    def test_release(self):
        s = two_way()
        s.try_reserve(0, 1, 0, 10 * MS, 3 * MS)
        s.release(0, 1, 0, 10 * MS)
        assert s.try_reserve(0, 1, 0, 11 * MS, 3 * MS)
        s.release(0, 1, 0, 99.0)  # missing start is a no-op

    def test_expired_intervals_pruned(self):
        s = two_way()
        s.try_reserve(0, 1, 0, 1 * MS, 1 * MS)
        s.try_reserve(0, 1, 0, 100 * MS, 1 * MS, now=50 * MS)
        assert s.intervals(0, 1, 0) == [(100 * MS, 101 * MS)]


class NaiveSchedule:
    """Oracle for ChannelSchedule: one unsorted interval list per (link,
    wavelength), every pair checked for overlap."""

    def __init__(self, channels):
        self.channels = channels
        self.lanes = defaultdict(list)

    def try_reserve(self, u, v, w, start, duration, now):
        if w >= self.channels[(u, v)]:  # no such wavelength on this link
            return False
        # expired intervals go when their lane is next touched, as in ChannelSchedule
        lane = self.lanes[(u, v, w)] = [iv for iv in self.lanes[(u, v, w)] if iv[1] > now]
        end = start + duration
        if any(s < end and start < e for s, e in lane):
            return False
        lane.append((start, end))
        return True

    def first_fit(self, u, v, start, duration, now):
        for w in range(self.channels[(u, v)]):
            if self.try_reserve(u, v, w, start, duration, now):
                return w
        return None

    def release(self, u, v, w, start):
        self.lanes[(u, v, w)] = [iv for iv in self.lanes[(u, v, w)] if iv[0] != start]

    def intervals(self, u, v, w):
        return sorted(self.lanes[(u, v, w)])


LINKS = {(0, 1): 4, (1, 0): 2, (2, 1): 1}  # directed link -> wavelength count
MAX_CHANNELS = max(LINKS.values())
# (operation, link, wavelength, start - now, duration, now step); a try_reserve
# may ask for a wavelength the link lacks, a release only for one it has;
# small integers make touching and identical intervals common
SCHEDULE_OPS = st.lists(st.tuples(
    st.sampled_from(["try_reserve", "first_fit", "release"]),
    st.sampled_from(sorted(LINKS)), st.integers(0, MAX_CHANNELS - 1),
    st.integers(0, 12), st.integers(1, 6), st.integers(0, 3)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(SCHEDULE_OPS)
def test_schedule_matches_naive_oracle(ops):
    real, naive = ChannelSchedule(LINKS), NaiveSchedule(LINKS)
    now = 0.0
    for op, (u, v), w, ahead, duration, step in ops:
        now += step
        start = now + ahead
        if op == "try_reserve":
            args = (u, v, w, start, float(duration), now)
        elif op == "first_fit":
            args = (u, v, start, float(duration), now)
        else:
            args = (u, v, w % LINKS[(u, v)], start)
        assert getattr(real, op)(*args) == getattr(naive, op)(*args), (op, args)
        for (u, v), channels in LINKS.items():
            for w in range(channels):
                got = real.intervals(u, v, w)
                assert got == naive.intervals(u, v, w)
                assert all(a[1] <= b[0] for a, b in zip(got, got[1:]))


def scripted_arrivals(script):
    """Replace the arrival sampler with fixed (dt, size) queues per (src, dst)."""
    queues = {pair: list(items) for pair, items in script.items()}

    def fake(conn, rng):
        q = queues.get((conn.src, conn.dst), [])
        if q:
            return q.pop(0)
        return math.inf, 0.0

    return fake


@pytest.fixture
def arrivals(monkeypatch):
    def install(script):
        monkeypatch.setattr(signaling, "next_arrival", scripted_arrivals(script))
    return install


def conn(src, dst, seed=1):
    return ConnectionSpec(src, dst, lambda_=1.0, mean_burst_size=1e6, seed=seed)


def test_single_burst_end_to_end_timing(arrivals):
    # 3 nodes in a row, 0.2 km links (1 us propagation each)
    topo = path_topology(3)
    arrivals({(0, 2): [(1 * MS, 1e6)]})
    trace = TraceLog()
    cfg = SimConfig(warmup=0.0)
    sim = Simulator(topo, [conn(0, 2)], policy="sp", config=cfg, trace=trace)
    res = sim.run(1.0)
    c = res.counters
    assert (c.bursts_sent, c.bursts_delivered, c.bursts_dropped) == (1, 1, 0)
    # delay = offset (2 hops) + propagation (2 us) + transmission (1 ms)
    expect = 2 * PER_HOP_PROCESSING + 2e-6 + 1e6 / 1e9
    assert res.mean_delay() == pytest.approx(expect, rel=1e-9)
    # single ACK arrived at each forwarding node on the reverse path
    acks = [l for l in trace.of_kind("NOTIFICATION_ARRIVE") if l[4] == "ACK"]
    assert [l[2] for l in acks] == [1, 0]


def test_link_length_sets_propagation_delay(arrivals):
    # one link: 1 ms of propagation at 200 km, 2 ms at 400 km, in fiber
    delays = {}
    for km in (200.0, 400.0):
        arrivals({(0, 1): [(1 * MS, 1e6)]})
        sim = Simulator(path_topology(2, km=km), [conn(0, 1)], policy="sp",
                        config=SimConfig(warmup=0.0))
        delays[km] = sim.run(1.0).mean_delay()
    assert delays[400.0] - delays[200.0] == pytest.approx(1 * MS, abs=1e-12)


def test_burst_arrives_after_bhp_everywhere(arrivals):
    topo = path_topology(4)
    arrivals({(0, 3): [(1 * MS, 2e6)]})
    trace = TraceLog()
    sim = Simulator(topo, [conn(0, 3)], policy="sp",
                    config=SimConfig(warmup=0.0), trace=trace)
    sim.run(1.0)
    bhp_times = {l[2]: l[0] for l in trace.of_kind("BHP_ARRIVE")}
    delivery = trace.of_kind("BURST_ARRIVE")[0]
    assert delivery[0] > bhp_times[3]  # JET causality at the destination


def test_contention_drop_nack_and_update(arrivals):
    # Y topology, one data channel: 0->2 and 3->2 fight for link (1, 2)
    topo = star_into_chain(data=1)
    arrivals({(0, 2): [(1 * MS, 1e6)], (3, 2): [(1.5 * MS, 1e6)]})
    trace = TraceLog()
    cfg = SimConfig(warmup=0.0, initial_mode="cold", alpha=0.9)
    sim = Simulator(topo, [conn(0, 2), conn(3, 2, seed=2)], policy="gprm",
                    config=cfg, trace=trace)
    # cold ties break toward node 0; nudge the relay toward the destination
    sim.nodes[1].success.values[(2, 1, 0, 1, 2)] = 0.99
    res = sim.run(1.0)
    c = res.counters
    assert c.bursts_delivered == 1
    assert c.drops_contention == 1
    nacks = [l for l in trace.of_kind("NOTIFICATION_ARRIVE") if l[4] == "NACK"]
    assert [l[2] for l in nacks] == [3]  # only the loser's source hears the NACK
    # Algorithm-3 arithmetic at the updated node: 0.9 * 0.5 + 0.1 * 0 = 0.45
    e = (2, 0, 2, 2)
    assert sim.nodes[3].success.epoch_success_prob(1, e) == pytest.approx(0.45)
    # and the winner's path learned success: 0.9 * 0.5 + 0.1 * 1 = 0.55
    assert sim.nodes[0].success.epoch_success_prob(1, e) == pytest.approx(0.55)


def test_relay_skips_the_node_the_burst_came_from(arrivals):
    # Y topology: the relay 1 ranks 0, where the burst for 2 came from, first;
    # the burst goes to the second-ranked neighbor instead
    topo = star_into_chain(data=4)
    arrivals({(0, 2): [(1 * MS, 1e6)]})
    trace = TraceLog()
    cfg = SimConfig(warmup=0.0, initial_mode="cold", alpha=0.9)
    sim = Simulator(topo, [conn(0, 2)], policy="gprm", config=cfg, trace=trace)
    e_at_1 = (1, 0, 1, 2)  # one hop budget left, low loss, one hop from 2
    sim.nodes[1].success.values[(0, *e_at_1)] = 0.99  # above the destination's 0.95
    assert sim.nodes[1].lookup(e_at_1, 0.0) == (0, 2, 3)
    res = sim.run(1.0)
    assert [l[1:] for l in trace.lines if l[4].startswith("forward")] == [
        ("BHP_ARRIVE", 1, 1, "forward 2")]
    assert res.counters.bursts_delivered == 1


def test_dead_end_drop_noroute_nack(arrivals):
    # Y topology; lure a burst for node 0 into the stub node 2, whose only
    # neighbor is already on the path: no viable candidate remains
    topo = star_into_chain(data=4)
    arrivals({(3, 0): [(1 * MS, 1e6)]})
    cfg = SimConfig(warmup=0.0, initial_mode="cold", alpha=0.9, offset_guard=1e-3)
    sim = Simulator(topo, [conn(3, 0)], policy="gprm", config=cfg)
    sim.nodes[1].success.values[(2, 11, 0, 1, 0)] = 0.99  # prefer the stub
    res = sim.run(1.0)
    c = res.counters
    assert c.drops_noroute == 1
    assert c.bursts_delivered == 0
    # NACK walked back through both forwarding nodes
    e_at_1 = (11, 0, 1, 0)
    e_at_3 = (12, 0, 2, 0)
    assert sim.nodes[1].success.epoch_success_prob(2, e_at_1) == pytest.approx(0.9 * 0.99)
    assert sim.nodes[3].success.epoch_success_prob(1, e_at_3) == pytest.approx(0.45)


def test_ingress_drop_when_first_hop_full(arrivals):
    # one data channel, two bursts from the same source overlapping in time
    topo = path_topology(2, data=1)
    arrivals({(0, 1): [(1 * MS, 1e6), (0.5 * MS, 1e6)]})
    trace = TraceLog()
    sim = Simulator(topo, [conn(0, 1)], policy="sp", config=SimConfig(warmup=0.0),
                    trace=trace)
    res = sim.run(1.0)
    c = res.counters
    assert c.drops_ingress == 1
    assert c.bursts_delivered == 1
    assert c.bursts_sent == 2
    # the dropped burst leaves its arrival line, then the drop, and nothing else
    assert [l[1:] for l in trace.lines if l[3] == 2] == [
        ("BURST_ARRIVAL", 0, 2, "dest 1 size 1000000"),
        ("BURST_ARRIVAL", 0, 2, "drop ingress")]
    assert not [l for l in trace.lines if l[2] == 0 and l[4].startswith("forward")]


def test_wavelength_missing_downstream_is_contention(arrivals):
    # 4 wavelengths on 0-1 but 1 on 1-2: the second of two overlapping bursts
    # takes wavelength 1 at the source, which link (1, 2) does not have
    topo = Topology([0, 1, 2], bidir(0, 1, data=4) + bidir(1, 2, data=1))
    arrivals({(0, 2): [(1 * MS, 1e6), (0.05 * MS, 1e6)]})
    trace = TraceLog()
    sim = Simulator(topo, [conn(0, 2)], policy="sp", config=SimConfig(warmup=0.0),
                    trace=trace)
    res = sim.run(1.0)
    c = res.counters
    assert (c.bursts_sent, c.bursts_delivered, c.drops_contention) == (2, 1, 1)
    assert [l[1:] for l in trace.lines if l[3] == 2 and l[4].startswith(("drop", "NACK"))] == [
        ("BHP_ARRIVE", 1, 2, "drop contention"), ("NOTIFICATION_ARRIVE", 0, 2, "NACK")]
    # the NACK released the loser's 0->1 reservation; the winner keeps its own
    assert sim.schedule.intervals(0, 1, 1) == []
    assert len(sim.schedule.intervals(0, 1, 0)) == 1


def test_insufficient_offset_detour_drop(arrivals):
    # ring of 5; forcing the long way around exhausts the offset budget
    topo = ring_topology(5)
    arrivals({(0, 2): [(1 * MS, 1e6)]})
    cfg = SimConfig(warmup=0.0, initial_mode="cold", alpha=0.9)
    sim = Simulator(topo, [conn(0, 2)], policy="gprm", config=cfg)
    e = (2, 0, 2, 2)
    sim.nodes[0].success.values[(4, *e)] = 0.99  # lure the burst backwards
    res = sim.run(1.0)
    c = res.counters
    assert c.drops_offset == 1
    assert c.bursts_delivered == 0
    # the luring entry was punished by the NACK
    assert sim.nodes[0].success.epoch_success_prob(4, e) == pytest.approx(0.9 * 0.99)


def test_wavelength_continuity_on_delivery(arrivals):
    topo = path_topology(4)
    arrivals({(0, 3): [(1 * MS, 1e6), (0.05 * MS, 1e6), (0.05 * MS, 1e6)]})
    sim = Simulator(topo, [conn(0, 3)], policy="sp", config=SimConfig(warmup=0.0))
    res = sim.run(1.0)
    assert res.counters.bursts_delivered == 3
    # busy time recorded per wavelength: each delivered burst on one index end to end
    waves = defaultdict(set)
    for (u, v, w) in res.counters.busy_time:
        waves[w].add((u, v))
    for w, links in waves.items():
        assert links == {(0, 1), (1, 2), (2, 3)}


def test_zero_traffic_run():
    topo = path_topology(2)
    sim = Simulator(topo, [], policy="sp", config=SimConfig(warmup=0.0))
    assert sim.nodes == {}  # min-hop routing keeps no learning state
    res = sim.run(0.5)
    assert res.counters.bursts_sent == 0
    assert math.isnan(res.blr())
    assert res.utilization(topo) == 0.0
    # a misspelled mode must not silently select the other branch, and the
    # learning values are checked here, once, before any table is built
    for bad, error in (({"initial_mode": "Warm"}, "initial_mode"),
                       ({"refresh_period": 0}, "refresh_period"),
                       ({"alpha": 1.2}, "alpha"),
                       ({"initial_sp": -0.1}, "initial_sp"),
                       ({"blr_low": 0.5, "blr_high": 0.1}, "blr_high: must be > blr_low"),
                       ({"warmup": -1.0}, "warmup"),
                       ({"detour_penalty": 0.0}, "detour_penalty"),
                       ({"blr_window": 0.0}, "blr_window"),
                       ({"offset_guard": -1e-4}, "offset_guard")):
        with pytest.raises(ValueError, match=error):
            Simulator(topo, [], policy="gprm", config=SimConfig(**bad))


def test_second_run_raises_instead_of_accumulating(arrivals):
    arrivals({(0, 2): [(1 * MS, 1e6)]})
    topo = path_topology(3)
    sim = Simulator(topo, [conn(0, 2)], policy="sp", config=SimConfig(warmup=0.0))
    sent = sim.run(0.01).counters_total.bursts_sent
    assert sent == 1
    with pytest.raises(RuntimeError, match="already"):
        sim.run(0.01)
    assert sim.counters.bursts_sent == sent


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_run_rejects_non_finite_duration(duration):
    # NaN passes `duration <= warmup`, and an infinite run never ends
    sim = Simulator(path_topology(3), [conn(0, 2)], policy="sp", config=SimConfig(warmup=0.0))
    with pytest.raises(ValueError, match="duration must be finite"):
        sim.run(duration)


@pytest.mark.parametrize("duration", [0.5, 1.0])
def test_run_rejects_a_duration_within_the_warmup(duration):
    # no burst of the steady cohort could be created
    sim = Simulator(path_topology(3), [conn(0, 2)], policy="sp", config=SimConfig(warmup=1.0))
    with pytest.raises(ValueError, match="duration must exceed the warm-up interval"):
        sim.run(duration)


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="unknown policy 'ospf'"):
        Simulator(path_topology(3), [conn(0, 2)], policy="ospf")


@pytest.mark.parametrize("policy", ["sp", "gprm"])
@pytest.mark.parametrize("src, dst, error", [(1, 1, "same node"),
                                             (1, 99, "not in the topology"),
                                             (99, 1, "not in the topology")])
def test_unroutable_connection_is_rejected(policy, src, dst, error):
    with pytest.raises(ValueError, match=error) as exc:
        Simulator(path_topology(3), [conn(0, 2), conn(src, dst)], policy=policy)
    assert f"src={src}, dst={dst}," in str(exc.value)


def nsfnet_sim(policy, seed, load=0.4, trace=None, simulator=Simulator, **config):
    """A `simulator` on the shipped NSFnet and gravity matrix; `config` overrides
    SimConfig fields (no warm-up and a 0.3 ms offset guard by default)."""
    topo, _, conns = nsfnet_workload(load, seed)
    cfg = SimConfig(**{"warmup": 0.0, "offset_guard": 3e-4, **config})
    return simulator(topo, conns, policy=policy, config=cfg, trace=trace)


def run_nsfnet(policy, seed, duration=6.0, load=0.4, trace=None, initial_mode="warm"):
    sim = nsfnet_sim(policy, seed, load, trace, initial_mode=initial_mode)
    return sim.run(duration), sim.topology


@pytest.fixture
def heap_pops(monkeypatch):
    """A one-item list counting the engine's heap pops, one per processed event."""
    pops = [0]

    def counting_heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(signaling, "heappop", counting_heappop)
    return pops


def untraced_and_traced(policy, heap_pops):
    """One run without and one with a trace hook, each as (simulator, result,
    heap pops, trace log or None)."""
    runs = []
    for trace in (None, TraceLog()):
        sim = nsfnet_sim(policy, seed=11, load=0.8, trace=trace, warmup=1.0)
        heap_pops[0] = 0
        res = sim.run(3.0)
        runs.append((sim, res, heap_pops[0], trace))
    return runs


@pytest.mark.parametrize("policy", ["sp", "gprm"])
@pytest.mark.parametrize("seed", [1, 2])
def test_conservation_after_drain(policy, seed):
    # the warm-up puts bursts in both cohorts, so the whole run is checked too
    res = nsfnet_sim(policy, seed, warmup=1.0).run(6.0)
    c, total = res.counters, res.counters_total
    assert total.bursts_sent > 8000 and total.bursts_sent > c.bursts_sent > 0
    assert c.bursts_sent == c.bursts_delivered + c.bursts_dropped
    assert c.in_flight == 0
    assert total.bursts_sent == total.bursts_delivered + total.bursts_dropped


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_cohort_counts_match_the_trace(policy):
    # each burst is counted once, in the cohort of its creation time: tally
    # the trace per burst id (created, then delivered or dropped for a cause)
    warmup, trace = 1.0, TraceLog()
    res = nsfnet_sim(policy, seed=12, load=0.8, trace=trace, warmup=warmup).run(3.0)
    created, steady, every = {}, Counter(), Counter()
    delay_sum = 0.0  # of the steady cohort, in trace order as the engine sums it
    for t, _, _, bid, detail in trace.lines:
        if detail.startswith("dest "):
            created[bid] = t
            field = "bursts_sent"
        elif detail == "delivered":
            field = "bursts_delivered"
        elif detail.startswith("drop "):
            field = "drops_" + detail.removeprefix("drop ")
        else:
            continue
        every[field] += 1
        if warmup <= created[bid]:
            steady[field] += 1
            if field == "bursts_delivered":
                delay_sum += t - created[bid]
    ints = [f.name for f in fields(RunCounters) if f.type is int]
    assert res.counters == RunCounters(**steady, delay_sum=delay_sum,
                                       busy_time=res.counters.busy_time)
    total = res.counters_total
    assert [getattr(total, f) for f in ints] == [every[f] for f in ints]
    transient = RunCounters(**{f: getattr(total, f) - getattr(res.counters, f) for f in ints})
    assert transient.bursts_sent > 0 and transient.in_flight == 0
    assert steady["bursts_sent"] > 0 and steady["bursts_delivered"] > 0


class CheckedSchedule(ChannelSchedule):
    """A `ChannelSchedule` that checks the lane each call touched: its
    intervals stay non-empty, sorted and disjoint (each end <= the next start)."""

    def __init__(self, channels):
        super().__init__(channels)
        self.channels = channels
        self.checks = 0

    def check(self, u, v, wavelength):
        lane = self.intervals(u, v, wavelength)
        assert all(start < end for start, end in lane), (u, v, wavelength)
        assert all(end <= nxt for (_, end), (nxt, _) in zip(lane, lane[1:])), (u, v, wavelength)
        self.checks += 1

    def try_reserve(self, u, v, wavelength, start, duration, now=0.0):
        ok = super().try_reserve(u, v, wavelength, start, duration, now)
        if wavelength < self.channels[(u, v)]:
            self.check(u, v, wavelength)
        return ok

    def first_fit(self, u, v, start, duration, now=0.0):
        wavelength = super().first_fit(u, v, start, duration, now)
        if wavelength is not None:
            self.check(u, v, wavelength)
        return wavelength

    def release(self, u, v, wavelength, start):
        super().release(u, v, wavelength, start)
        self.check(u, v, wavelength)


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_loop_freedom_and_schedule_integrity(policy):
    trace = TraceLog()
    sim = nsfnet_sim(policy, seed=3, load=0.4, trace=trace, initial_mode="cold")
    channels = {uv: l.data_channels for uv, l in sim.topology.links.items()}
    sim.schedule = schedule = CheckedSchedule(channels)
    res = sim.run(4.0)
    for bid, nodes in trace.forwards().items():
        assert len(nodes) == len(set(nodes)), f"burst {bid} revisited a node"
    assert schedule.checks > res.counters.bursts_sent
    for (u, v), n in channels.items():
        for wavelength in range(n):
            schedule.check(u, v, wavelength)


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_trace_calls_are_events_plus_ingress_drops(policy, heap_pops):
    # the trace hook is called once per processed event (one heap pop), plus
    # once more for each burst dropped at its source; sources never forward
    trace = TraceLog()
    res, _ = run_nsfnet(policy, seed=4, duration=1.0, load=0.8, trace=trace)
    ingress = [l for l in trace.lines if l[4] == "drop ingress"]
    assert len(ingress) == res.counters_total.drops_ingress > 0
    assert len(trace.lines) == heap_pops[0] + len(ingress)
    source = {l[3]: l[2] for l in trace.of_kind("BURST_ARRIVAL")}
    assert not [l for l in trace.lines
                if l[4].startswith("forward") and l[2] == source[l[3]]]


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_untraced_run_computes_what_traced_does(policy, heap_pops):
    # an untraced `sp` run sends no ACK; every counter, busy time, series
    # bucket and learned value must still equal the traced run's
    (sim, res, _, _), (tsim, tres, _, _) = untraced_and_traced(policy, heap_pops)
    assert res.counters == tres.counters
    assert res.counters_total == tres.counters_total
    assert res.counters.busy_time and res.counters.delay_sum > 0
    for a, b in zip(res.series.arrays(), tres.series.arrays()):
        assert a.tolist() == b.tolist()
    assert sim.nodes.keys() == tsim.nodes.keys()
    for n, router in sim.nodes.items():
        assert router.success.values == tsim.nodes[n].success.values


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_untraced_sp_run_skips_exactly_its_acks(policy, heap_pops):
    # the speed of an untraced `sp` run: one heap pop fewer per ACK hop, and
    # nothing else skipped; under `gprm` every ACK feeds learning and is sent
    (_, _, pops, _), (_, res, traced_pops, trace) = untraced_and_traced(policy, heap_pops)
    acks = [l for l in trace.of_kind("NOTIFICATION_ARRIVE") if l[4] == "ACK"]
    assert len(acks) > res.counters_total.bursts_delivered > 0
    assert pops == traced_pops - (len(acks) if policy == "sp" else 0)


def test_series_buckets_match_counters():
    # the series counts both cohorts, and the warm-up puts bursts in each
    res = nsfnet_sim("sp", seed=5, warmup=1.0).run(4.0)
    _, sent, dropped = res.series.arrays()
    assert res.counters_total.bursts_sent > res.counters.bursts_sent > 0
    assert sum(sent) == res.counters_total.bursts_sent
    assert sum(dropped) == res.counters_total.bursts_dropped


def test_busy_time_bounded_by_elapsed():
    res, topo = run_nsfnet("sp", seed=6, duration=4.0)
    for key, busy in res.counters.busy_time.items():
        assert busy <= res.elapsed + 1e-9


class ReservationLog(Simulator):
    """A Simulator that logs, in event order, the reservations of each
    delivered burst when its tail arrives, as (lane, start, duration,
    created_at)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reservations = []

    def _on_burst_arrive(self, now, node, bhp):
        super()._on_burst_arrive(now, node, bhp)
        self.reservations += [((hop, next_hop, bhp.wavelength), start, bhp.duration,
                               bhp.created_at) for hop, _, next_hop, start in bhp.path_log]


def clipped_busy_time(reservations, warmup, run_end):
    """Busy time per lane of the bursts created at or after `warmup`, each
    reservation clipped to [warmup, run_end], summed in the order given."""
    busy = {}
    for lane, start, duration, created_at in reservations:
        lo = max(start, warmup)
        hi = min(start + duration, run_end)
        if warmup <= created_at and hi > lo:
            busy[lane] = busy.get(lane, 0.0) + (hi - lo)
    return busy


@pytest.mark.parametrize("policy", ["sp", "gprm"])
def test_busy_time_is_the_steady_reservations_clipped_at_both_ends(policy):
    warmup, run_end = 1.0, 3.0
    sim = nsfnet_sim(policy, seed=8, load=0.8, warmup=warmup, simulator=ReservationLog)
    res = sim.run(run_end)
    # the log holds bursts from before warm-up and reservations past the run end
    assert any(created_at < warmup for *_, created_at in sim.reservations)
    assert any(start + duration > run_end and created_at >= warmup
               for _, start, duration, created_at in sim.reservations)
    # a lane's logged reservations never overlap, so it is busy at most
    # `elapsed` seconds: utilization is an occupancy, counting no time twice
    lanes = defaultdict(list)
    for lane, start, duration, _ in sim.reservations:
        lanes[lane].append((start, start + duration))
    for intervals in lanes.values():
        intervals.sort()
        assert all(end <= start for (_, end), (start, _) in zip(intervals, intervals[1:]))
    # same lanes, in the same order, with bit-identical sums
    expected = clipped_busy_time(sim.reservations, warmup, run_end)
    assert list(res.counters.busy_time.items()) == list(expected.items())
    assert res.counters_total.busy_time == {}


def test_replay_is_bit_identical():
    t1, t2 = TraceLog(), TraceLog()
    r1, _ = run_nsfnet("gprm", seed=7, duration=3.0, trace=t1)
    r2, _ = run_nsfnet("gprm", seed=7, duration=3.0, trace=t2)
    assert t1.lines == t2.lines
    assert r1.counters == r2.counters
    assert r1.mean_delay() == r2.mean_delay()


def test_different_seeds_differ():
    r1, _ = run_nsfnet("sp", seed=1, duration=3.0)
    r2, _ = run_nsfnet("sp", seed=2, duration=3.0)
    assert r1.counters.bursts_sent != r2.counters.bursts_sent


def test_workload_identical_across_policies():
    logs = {}
    for policy in ("sp", "gprm"):
        trace = TraceLog()
        run_nsfnet(policy, seed=9, duration=3.0, trace=trace)
        logs[policy] = [(round(l[0], 12), l[2], l[4])
                        for l in trace.of_kind("BURST_ARRIVAL")
                        if l[4].startswith("dest")]
    assert logs["sp"] == logs["gprm"]

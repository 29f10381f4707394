import copy
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import obs_gprm
from conftest import bidir, flat, triangle, update_and_read, walk_row
from obs_gprm.gprm import (INFEASIBLE_SP, EvidenceVector, SuccessTable, cold_start_prior,
                           warm_start_prior)
from obs_gprm.routing import LazyRoutingTable, shortest_path_table
from obs_gprm.topology import Topology, load_topology

SMALL = (2, 3, 4, 5)


def table_with(values, neighbors=(1, 2), initial=0.5):
    """SuccessTable with specific stored values injected."""
    t = SuccessTable(0, neighbors, 0.9, flat(initial))
    t.values.update(values)
    return t


def cost(t, k, e):
    return 1.0 - t.epoch_success_prob(k, e)


def test_lazy_row_costs_and_order():
    e = EvidenceVector(0, 0, 0, 0)
    t = table_with({(1, *e): 0.6, (2, *e): 0.8})
    assert walk_row(LazyRoutingTable(t, refresh_period=1.0), e) == [2, 1]
    assert cost(t, 2, e) == pytest.approx(0.2)
    assert cost(t, 1, e) == pytest.approx(0.4)


def test_lazy_row_id_tie_break():
    t = SuccessTable(0, (3, 7), 0.9, flat(0.5))
    e = EvidenceVector(1, 2, 3, 4)
    assert walk_row(LazyRoutingTable(t, refresh_period=1.0), e) == [3, 7]
    assert cost(t, 3, e) == cost(t, 7, e) == pytest.approx(0.5)


def test_row_count_identity_small_space():
    t = SuccessTable(0, (1, 2), 0.9, flat(0.5))
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    rows = [walk_row(lazy, EvidenceVector(*combo))
            for combo in product(*(range(c) for c in SMALL))]
    assert len(rows) == 120
    # beta_i = 2 candidates for every permutation
    assert sum(len(row) for row in rows) == 240
    assert all(sorted(row) == [1, 2] for row in rows)


def test_lookup_picks_first_then_skips_excluded():
    e = EvidenceVector(0, 0, 0, 0)
    t = table_with({(3, *e): 0.8, (7, *e): 0.6}, neighbors=(3, 7))
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    assert lazy.lookup(e, set(), 0.0) == 3
    assert lazy.lookup(e, {3}, 0.0) == 7
    assert lazy.lookup(e, {3, 7}, 0.0) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 3),
                          st.integers(0, 4), st.integers(1, 3), st.floats(0, 1)),
                min_size=0, max_size=40))
def test_sort_invariant_random_tables(entries):
    values = {}
    for o, b, nb, d, k, sp in entries:
        values[(k, o, b, nb, d)] = sp
    t = table_with(values, neighbors=(1, 2, 3))
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    for combo in product(range(2), range(3), range(4), range(5)):
        e = EvidenceVector(*combo)
        row = [(cost(t, k, e), k) for k in walk_row(lazy, e)]
        assert len(row) == 3
        # non-decreasing cost, equal costs in ascending id
        assert row == sorted(row)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 3), st.integers(0, 1), st.integers(0, 2),
                                 st.integers(0, 3), st.integers(0, 4)),
                       st.floats(0, 1), max_size=50))
def test_lookup_equals_exhaustive_min(raw):
    values = {(k, o, b, nb, d): sp for (k, o, b, nb, d), sp in raw.items()}
    t = table_with(values, neighbors=(1, 2, 3))
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    for combo in product(range(2), range(3), range(4), range(5)):
        e = EvidenceVector(*combo)
        best = min((cost(t, k, e), k) for k in (1, 2, 3))
        assert lazy.lookup(e, set(), 0.0) == best[1]


def test_lazy_table_freezes_within_period():
    e = EvidenceVector(0, 0, 0, 0)
    t = table_with({(1, *e): 0.9, (2, *e): 0.4})
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    assert lazy.lookup(e, set(), now=0.1) == 1
    # updates inside the period do not change the frozen view...
    for _ in range(10):
        t.sp_update(1, e, False)
    assert lazy.lookup(e, set(), now=0.5) == 1
    # ...but the next period sees them
    assert lazy.lookup(e, set(), now=1.2) == 2


def test_lazy_roll_before_update_keeps_boundary_semantics():
    e = EvidenceVector(0, 0, 0, 0)
    t = table_with({(1, *e): 0.9, (2, *e): 0.4})
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    assert lazy.lookup(e, set(), now=0.1) == 1
    lazy.maybe_roll(1.05)  # boundary passed before this update arrives
    t.sp_update(1, e, False)  # 0.81, still best
    assert lazy.lookup(e, set(), now=1.1) == 1
    assert lazy.lookup(e, set(), now=2.1) == 1


def counting_prob(table):
    """Record every (k, e) that `table.epoch_success_prob` is asked for."""
    calls = []
    prob = table.epoch_success_prob

    def counted(k, e):
        calls.append((k, e))
        return prob(k, e)

    table.epoch_success_prob = counted
    return calls


@pytest.mark.parametrize("naive_bayes", [False, True])
def test_refresh_recosts_only_updated_rows(naive_bayes):
    t = SuccessTable(0, (1, 2, 3), 0.9, flat(0.5), SMALL if naive_bayes else None)
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    calls = counting_prob(t)
    e, f = EvidenceVector(0, 0, 0, 0), EvidenceVector(1, 0, 0, 0)
    assert walk_row(lazy, e, 0.5) == walk_row(lazy, f, 0.5) == [1, 2, 3]
    assert len(calls) == 6
    # a refresh that applied nothing keeps every row as built
    calls.clear()
    assert walk_row(lazy, e, 1.5) == [1, 2, 3]
    assert calls == []
    t.sp_update(2, e, False)  # 0.45: neighbor 2 drops to the end of row e
    calls.clear()
    assert walk_row(lazy, e, 2.5) == [1, 3, 2]
    if naive_bayes:  # the outcome moves every estimate of 2, so both rows are rebuilt
        assert walk_row(lazy, f, 2.5) == [1, 3, 2]
        assert sorted(calls) == sorted((k, x) for x in (e, f) for k in (1, 2, 3))
    else:
        assert walk_row(lazy, f, 2.5) == [1, 2, 3]
        assert calls == [(2, e)]


NEIGHBORS = (1, 2, 3)
OWNER = 4
TINY = (3, 1, 1, 2)  # six evidence vectors, so rows are often reused
# a small graph around OWNER: from its neighbors, destination 1 is 0, 1 and
# 2 hops away and destination 0 is 1, 2 and 3 hops away, so with offset
# classes 0..2 the warm prior finds some neighbors feasible and others not
HOPS = Topology([0, 1, 2, 3, 4], bidir(0, 1) + bidir(1, 2) + bidir(1, 4) + bidir(2, 3)
                + bidir(2, 4) + bidir(3, 4)).hop_counts()
PRIORS = {"flat": flat(0.5), "cold": cold_start_prior(0.5),
          "warm": warm_start_prior(HOPS, OWNER, 0.8)}
# (operation, neighbor, evidence, success?, excluded next hops, time step);
# steps of 0.3 and 1.0 against a period of 1.0 cross boundaries often
LAZY_OPS = st.lists(st.tuples(
    st.sampled_from(["sp_update", "maybe_roll", "lookup"]), st.sampled_from(NEIGHBORS),
    st.tuples(*(st.integers(0, c - 1) for c in TINY)), st.booleans(),
    st.frozensets(st.sampled_from(NEIGHBORS), max_size=2),
    st.sampled_from([0.0, 0.3, 1.0])), min_size=10, max_size=60)


def test_warm_prior_of_the_oracle_mixes_feasible_and_infeasible():
    prior = PRIORS["warm"]
    e = EvidenceVector(2, 0, 0, 1)
    assert [prior(k, e) for k in NEIGHBORS] == [1.0, pytest.approx(0.8), INFEASIBLE_SP]
    assert [prior(k, EvidenceVector(1, 0, 0, 1)) for k in NEIGHBORS] == \
        [1.0, INFEASIBLE_SP, INFEASIBLE_SP]


@settings(max_examples=200, deadline=None)
@given(LAZY_OPS, st.booleans(), st.sampled_from(sorted(PRIORS)))
def test_lazy_table_matches_snapshot_argmin(ops, naive_bayes, prior):
    def table():
        return SuccessTable(OWNER, NEIGHBORS, 0.7, PRIORS[prior], TINY if naive_bayes else None)

    t, reference = table(), table()
    lazy = LazyRoutingTable(t, refresh_period=1.0)
    # a copy of the reference, which applies each update at once, as it stood
    # when the period began
    frozen, epoch, now = copy.deepcopy(reference), 0, 0.0
    for op, k, e, success, excluded, step in ops:
        now += step
        e = EvidenceVector(*e)
        if op == "sp_update":
            t.sp_update(k, e, success)
            update_and_read(reference, k, e, success)
            continue
        if int(now) != epoch:  # this call is the first of a new period
            epoch = int(now)
            frozen = copy.deepcopy(reference)
        if op == "maybe_roll":
            lazy.maybe_roll(now)
            continue
        left = [(cost(frozen, k, e), k) for k in NEIGHBORS if k not in excluded]
        expect = min(left)[1] if left else None
        assert lazy.lookup(e, excluded, now) == expect, (op, e, now)


def test_sp_next_hop_adjacent():
    assert shortest_path_table(triangle())[(0, 1)] == 1


def test_sp_next_hop_tie_break():
    # square 0-2, 0-5 ... renumber: nodes 0..3 with two equal paths 0-1-3, 0-2-3
    t = Topology([0, 1, 2, 3], bidir(0, 1, km=100.0) + bidir(0, 2, km=100.0)
                 + bidir(1, 3, km=100.0) + bidir(2, 3, km=100.0))
    assert shortest_path_table(t)[(0, 3)] == 1  # min id among {1, 2}


def enumerate_paths(topology, src, dst, limit):
    """Oracle: all simple paths up to `limit` hops, by DFS."""
    out = []

    def walk(node, path):
        if len(path) - 1 > limit:
            return
        if node == dst:
            out.append(list(path))
            return
        for k in topology.neighbors[node]:
            if k not in path:
                path.append(k)
                walk(k, path)
                path.pop()

    walk(src, [src])
    return out


def test_sp_next_hop_matches_path_enumeration_oracle():
    t = load_topology(obs_gprm.data_path("nsfnet.topo"))
    hops = t.hop_counts()
    table = shortest_path_table(t)
    for src in (0, 5, 11):
        for dst in t.nodes:
            if src == dst:
                continue
            paths = enumerate_paths(t, src, dst, hops[(src, dst)])
            shortest = [p for p in paths if len(p) - 1 == hops[(src, dst)]]
            expect = min(p[1] for p in shortest)
            assert table[(src, dst)] == expect


def test_sp_paths_are_loop_free_and_minimal():
    t = load_topology(obs_gprm.data_path("nsfnet.topo"))
    hops = t.hop_counts()
    table = shortest_path_table(t)
    for src in t.nodes:
        for dst in t.nodes:
            if src == dst:
                continue
            node, steps, seen = src, 0, {src}
            while node != dst:
                node = table[(node, dst)]
                steps += 1
                assert node not in seen
                seen.add(node)
            assert steps == hops[(src, dst)]


import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import obs_gprm
from conftest import bidir, triangle
from obs_gprm.topology import (
    MAX_DATA_CHANNELS,
    Link,
    Topology,
    TopologyError,
    load_topology,
    propagation_delay,
)


def floyd_warshall_hops(nodes, links):
    """Independent oracle: all-pairs hop counts without BFS, `inf` for a
    pair that no path joins."""
    dist = {(i, j): 0 if i == j else math.inf for i in nodes for j in nodes}
    for (u, v) in links:
        dist[(u, v)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def test_triangle_layout(tmp_path):
    path = tmp_path / "tri.topo"
    path.write_text(
        "node 0 a\nnode 1 b\nnode 2 c\n"
        "link 0 1 100 2 4 1e9\nlink 1 2 100 2 4 1e9\nlink 0 2 100 2 4 1e9\n"
    )
    t = load_topology(str(path))
    assert len(t.nodes) == 3
    assert len(t.links) == 6


def test_shipped_nsfnet():
    t = load_topology(obs_gprm.data_path("nsfnet.topo"))
    assert len(t.nodes) == 14
    assert len(t.links) == 42  # 21 bidirectional fibers
    assert t.names[0] == "Seattle" and t.names[13] == "CollegePark"
    assert len(t.names) == 14
    for link in t.links.values():
        assert link.control_channels == 2
        assert link.data_channels == 4
        assert link.channel_rate == 1e9


def test_undeclared_endpoint_rejected(tmp_path):
    path = tmp_path / "bad.topo"
    path.write_text("node 0 a\nnode 1 b\nlink 0 99 10 2 4 1e9\n")
    with pytest.raises(TopologyError):
        load_topology(str(path))


def test_disconnected_rejected():
    links = bidir(0, 1, km=100.0) + bidir(2, 3, km=100.0)
    with pytest.raises(TopologyError, match="disconnected"):
        Topology([0, 1, 2, 3], links)


def test_missing_reverse_link_rejected():
    links = [Link(0, 1, 100.0, 2, 4, 1e9)]
    with pytest.raises(TopologyError, match="reverse"):
        Topology([0, 1], links)


def test_non_dense_ids_rejected():
    links = bidir(0, 5, km=100.0)
    with pytest.raises(TopologyError, match="dense"):
        Topology([0, 5], links)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.topo"
    path.write_text("node 0 a\nnode 1 b\nlink 0 1 oops 2 4 1e9\n")
    with pytest.raises(TopologyError, match="malformed"):
        load_topology(str(path))


def test_duplicate_link_rejected(tmp_path):
    # a repeated directed link used to keep its last declaration silently
    with pytest.raises(TopologyError, match="link 0->1 is declared twice"):
        Topology([0, 1], bidir(0, 1, km=100.0) + bidir(0, 1, km=500.0, data=1))
    path = tmp_path / "dup.topo"
    path.write_text("node 0 a\nnode 1 b\nlink 0 1 100 2 4 1e9\nlink 1 0 500 2 1 1e9\n")
    with pytest.raises(TopologyError,
                       match=re.escape(f"{path}:4: link 1->0 is already declared on line 3")):
        load_topology(str(path))


@pytest.mark.parametrize("record, reason", [
    ("link 0 0 100 2 4 1e9", "self-loop link at node 0"),
    ("link 0 2 -5 2 4 1e9", "link 0->2: length must be > 0"),
    ("link 1 0 500 2 1 1e9", "link 1->0 is already declared on line 4"),
    ("link 0 2 nan 2 4 1e9", "link 0->2: length must be finite"),
    ("link 0 2 inf 2 4 1e9", "link 0->2: length must be finite"),
    ("link 0 2 100 2 4 nan", "link 0->2: channel rate must be finite"),
    ("link 0 2 100 2 4 inf", "link 0->2: channel rate must be finite"),
    ("node 1 d", "node 1 is already declared on line 2"),
    ("link 1 7 100 2 4 1e9", "link 1->7 references undeclared node"),
    ("nodes 3 d", "unknown record 'nodes'"),
    # rejected before any per-channel schedule exists
    ("link 0 2 100 2 1000000000000 1e9",
     f"link 0->2: needs >= 1 control channel and 1..{MAX_DATA_CHANNELS} data channels"),
])
def test_bad_link_record_names_its_line(tmp_path, record, reason):
    path = tmp_path / "bad.topo"
    path.write_text(f"node 0 a\nnode 1 b\nnode 2 c\nlink 0 1 100 2 4 1e9\n{record}\n")
    with pytest.raises(TopologyError) as exc:
        load_topology(str(path))
    assert str(exc.value) == f"{path}:5: {reason}"


@pytest.mark.parametrize("text, where, reason", [
    ("node 0 a\nnode 2 c\nlink 0 2 100 2 4 1e9\n", ":2",
     "node ids must be dense 0..1, got [0, 2]"),
    ("", "", "topology has no nodes"),
], ids=["non-dense-ids", "empty-file"])
def test_graph_rule_names_its_file_line(tmp_path, text, where, reason):
    path = tmp_path / "bad.topo"
    path.write_text(text)
    with pytest.raises(TopologyError) as exc:
        load_topology(str(path))
    assert str(exc.value) == f"{path}{where}: {reason}"


def test_link_invariants():
    with pytest.raises(TopologyError):
        Link(0, 0, 10, 2, 4, 1e9)
    with pytest.raises(TopologyError):
        Link(0, 1, -5, 2, 4, 1e9)
    with pytest.raises(TopologyError):
        Link(0, 1, 10, 2, 0, 1e9)
    assert Link(0, 1, 10, 2, MAX_DATA_CHANNELS, 1e9).data_channels == MAX_DATA_CHANNELS
    with pytest.raises(TopologyError):
        Link(0, 1, 10, 2, MAX_DATA_CHANNELS + 1, 1e9)


def test_triangle_hop_counts():
    hops = triangle().hop_counts()
    assert hops[(0, 1)] == 1
    assert hops[(0, 0)] == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True))))
def test_hop_counts_match_oracle_on_random_graphs(tmp_path_factory, graph):
    # nodes are declared in a random order, so each has its own line
    order, fibers = graph
    path = tmp_path_factory.mktemp("graph") / "g.topo"
    path.write_text("".join(f"node {m} n{m}\n" for m in order)
                    + "".join(f"link {u} {v} 100 2 4 1e9\n" for u, v in fibers))
    oracle = floyd_warshall_hops(sorted(order), fibers + [(v, u) for u, v in fibers])
    unreachable = [m for m in sorted(order) if oracle[(0, m)] == math.inf]
    if not unreachable:
        assert load_topology(str(path)).hop_counts() == oracle
        return
    with pytest.raises(TopologyError) as exc:
        load_topology(str(path))
    assert str(exc.value) == (f"{path}:{order.index(unreachable[0]) + 1}: graph is "
                              f"disconnected; unreachable nodes {unreachable}")


def test_hop_count_triangle_inequality():
    t = load_topology(obs_gprm.data_path("nsfnet.topo"))
    hops = t.hop_counts()
    for i in t.nodes:
        for j in t.nodes:
            for k in t.nodes:
                assert hops[(i, j)] <= hops[(i, k)] + hops[(k, j)]


def test_propagation_delay():
    assert propagation_delay(Link(0, 1, 200.0, 2, 4, 1e9), 2e8) == pytest.approx(1e-3)
    assert propagation_delay(Link(0, 1, 0.2, 2, 4, 1e9), 2e8) == pytest.approx(1e-6)
    assert propagation_delay(Link(0, 1, 1000.0, 2, 4, 1e9), 2e8) == pytest.approx(5e-3)


def test_egress_capacity():
    t = triangle()
    assert t.egress_capacity(0) == 2 * 4 * 1e9
    assert t.total_data_channels() == 6 * 4

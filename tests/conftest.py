"""Helpers shared by the test modules: each topology, workload, oracle and
trace recorder is written once, here."""

from collections import defaultdict

import obs_gprm
from obs_gprm.topology import Link, Topology, load_topology
from obs_gprm.traffic import LoadSpec, load_matrix, scale_to_load


def bidir(u, v, km=0.2, ctrl=2, data=4, rate=1e9):
    return [Link(u, v, km, ctrl, data, rate), Link(v, u, km, ctrl, data, rate)]


def path_topology(n, km=0.2, data=4, rate=1e9):
    links = []
    for i in range(n - 1):
        links += bidir(i, i + 1, km=km, data=data, rate=rate)
    return Topology(list(range(n)), links)


def ring_topology(n, km=0.2, data=4, rate=1e9):
    links = []
    for i in range(n):
        links += bidir(i, (i + 1) % n, km=km, data=data, rate=rate)
    return Topology(list(range(n)), links)


def triangle():
    """Nodes 0, 1 and 2, each pair joined by one 100 km fiber."""
    return Topology([0, 1, 2], bidir(0, 1, km=100.0) + bidir(1, 2, km=100.0)
                    + bidir(0, 2, km=100.0))


def star_into_chain(data=1, km=0.2):
    """Y shape: 0-1, 3-1, 1-2; contention meets on link (1, 2)."""
    links = bidir(0, 1, km=km, data=data) + bidir(3, 1, km=km, data=data) \
        + bidir(1, 2, km=km, data=data)
    return Topology([0, 1, 2, 3], links)


def nsfnet_workload(load, seed, mean_burst_size=3.2e6):
    """The shipped NSFnet, its egress capacities, and the gravity matrix's
    connections scaled to `load` under master seed `seed`."""
    topology = load_topology(obs_gprm.data_path("nsfnet.topo"))
    capacities = {n: topology.egress_capacity(n) for n in topology.nodes}
    connections = scale_to_load(load_matrix(obs_gprm.data_path("us_ref.matrix")),
                                LoadSpec(load, capacities), mean_burst_size, master_seed=seed)
    return topology, capacities, connections


class TraceLog:
    """A trace hook that keeps every call as one `(t, kind, node, burst_id,
    detail)` line."""

    def __init__(self):
        self.lines = []

    def __call__(self, t, kind, node, burst_id, detail):
        self.lines.append((t, kind, node, burst_id, detail))

    def of_kind(self, kind):
        return [l for l in self.lines if l[1] == kind]

    def forwards(self):
        """The nodes each burst was forwarded from, in order, by burst id."""
        nodes = defaultdict(list)
        for _, kind, node, burst_id, detail in self.lines:
            if kind == "BHP_ARRIVE" and detail.startswith("forward"):
                nodes[burst_id].append(node)
        return nodes


def flat(p):
    """A success-table prior that gives every (neighbor, evidence) pair `p`."""
    return lambda k, e: p


def ranked(table, e):
    """Oracle of a routing row: the neighbors of `table` by cost 1 - success
    under evidence `e`, ascending, equal costs by ascending id."""
    return tuple(k for _, k in sorted((1.0 - table.epoch_success_prob(k, e), k)
                                      for k in table.neighbors))


def update_and_read(table, k, e, success):
    """Apply one notification at once: queue it, start a refresh period, and
    return the success value routing then sees for (k, e)."""
    table.sp_update(k, e, success)
    table.begin_epoch()
    return table.epoch_success_prob(k, e)


def nb_oracle(history, e, nb_space):
    """Brute-force evaluation of the smoothed independence product, counted
    from the `(evidence, success)` history the table was fed:
    [success score, failure score]."""
    scores = []
    for outcome in (True, False):
        seen = [h for h, ok in history if ok == outcome]
        p = (len(seen) + 1) / (len(history) + 2)
        for f in range(4):
            c = sum(1 for h in seen if h[f] == e[f])
            p *= (c + 1) / (len(seen) + nb_space[f])
        scores.append(p)
    return scores


def offered_load(connections, capacities):
    """The README's offered load: the sum over connections of
    `rate * mean_size / source_egress_capacity`."""
    return sum(c.lambda_ * c.mean_burst_size / capacities[c.src] for c in connections)

"""Routing tables: compiled cost lookups for GPRM and the min-hop baseline.

A GPRM routing table row maps one evidence permutation to all candidate next
hops, each costed 1 - success_probability and sorted ascending (ties by node
id). Rows are rebuilt from the learning state every refresh period; the lazy
table materializes a row only when it is first consulted in a period, which
is observationally identical to a full periodic rebuild, and keeps only the
row's next hops in cost order.
"""

from itertools import product
from typing import NamedTuple

from .gprm import EvidenceVector


def permutation_count(state_counts):
    """Number of evidence permutations for the given per-field state counts."""
    g, d, h, t = state_counts
    if min(state_counts) < 1:
        raise ValueError(f"state counts must be >= 1, got {state_counts}")
    return g * d * h * t


class RouteEntry(NamedTuple):
    next_hop: int
    cost: float


class RoutingTable:
    """Fully materialized table over every evidence permutation."""

    def __init__(self, owner, rows):
        self.owner = owner
        self.rows = rows

    def lookup(self, e, excluded=frozenset()):
        """Lowest-cost next hop not excluded, or None if all are."""
        return next((r.next_hop for r in self.rows[e] if r.next_hop not in excluded), None)

    def total_entries(self):
        return sum(len(row) for row in self.rows.values())

    def dump(self, fh):
        """Debug dump: `o b nb d | next_hop cost | ...` per row."""
        for e in sorted(self.rows):
            cells = " | ".join(f"{r.next_hop} {r.cost:.6g}" for r in self.rows[e])
            fh.write(f"{e[0]} {e[1]} {e[2]} {e[3]} | {cells}\n")


def build_table(success_table, neighbors, state_counts=None):
    """Materialize every evidence permutation into a RoutingTable.

    Intended for small state spaces (tests, debugging); the simulator uses
    LazyRoutingTable instead.
    """
    neighbors = sorted(neighbors)
    if not neighbors:
        raise ValueError("neighbors must be nonempty")
    counts = state_counts or success_table.state_counts
    prob = success_table.routing_success_prob
    rows = {}
    for combo in product(*(range(c) for c in counts)):
        e = EvidenceVector(*combo)
        row = [RouteEntry(k, 1.0 - prob(k, e)) for k in neighbors]
        rows[e] = sorted(row, key=lambda r: (r.cost, r.next_hop))
    return RoutingTable(success_table.owner, rows)


class LazyRoutingTable:
    """Periodically refreshed table with on-demand row materialization.

    At each refresh boundary (every `refresh_period`) the learning state is
    frozen; rows consulted during the period are built once from that frozen
    view and cached. `maybe_roll` must be called before any lookup or any
    learning update so the freeze happens exactly at the boundary state.
    The candidate next hops are the success table's neighbors.
    """

    def __init__(self, success_table, refresh_period):
        self.success_table = success_table
        self.refresh_period = refresh_period
        self.built_at = 0.0
        self._epoch = 0
        self._rows = {}
        success_table.begin_epoch()

    def maybe_roll(self, now):
        epoch = int(now / self.refresh_period)
        if epoch != self._epoch:
            self._epoch = epoch
            self.built_at = epoch * self.refresh_period
            self._rows = {}
            self.success_table.begin_epoch()

    def lookup(self, e, excluded, now):
        if int(now / self.refresh_period) != self._epoch:
            self.maybe_roll(now)
        row = self._rows.get(e)
        if row is None:
            table = self.success_table
            prob = table.epoch_success_prob
            cost = {k: 1.0 - prob(k, e) for k in table.neighbors}
            # a stable sort keeps equal costs in the ascending id order of neighbors
            row = self._rows[e] = tuple(sorted(table.neighbors, key=cost.__getitem__))
        for k in row:
            if k not in excluded:
                return k
        return None


def shortest_path_next_hop(topology, frm, dest):
    """Deterministic min-hop next hop: smallest-id neighbor on a shortest path."""
    if frm == dest:
        raise ValueError("no next hop needed: already at destination")
    hops = topology.hop_counts()
    want = hops[(frm, dest)] - 1
    for k in topology.neighbors[frm]:  # neighbors sorted, so first hit is min id
        if hops[(k, dest)] == want:
            return k
    raise AssertionError("connected topology must always yield a next hop")


def shortest_path_table(topology):
    """Precomputed (node, dest) -> next hop map for the baseline policy."""
    return {
        (n, d): shortest_path_next_hop(topology, n, d)
        for n in topology.nodes
        for d in topology.nodes
        if n != d
    }

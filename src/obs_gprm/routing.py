"""Next-hop selection: the lazy GPRM cost table and the min-hop baseline.

Under GPRM each node's state is one `LazyRoutingTable`, whose `success` is
that node's `SuccessTable`. For one evidence vector, a row lists the node's
neighbors by cost 1 - success probability, ascending, ties by node id; a
lookup returns that row, a tuple callers read and never mutate; the engine,
which owns the path, skips the neighbors a burst has passed. Learning
updates take effect at the next refresh: the success table applies them at
the start of a refresh period. A row is built from that view the first time
it is consulted and is kept across refreshes; a refresh re-costs and
re-ranks only the rows whose (neighbor, evidence) values it changed, or
drops every row under naive Bayes (a cold start). The baseline maps (node,
destination) to the smallest-id neighbor on a minimum-hop path.
"""


class LazyRoutingTable:
    """Periodically refreshed table with on-demand row materialization.

    At each refresh boundary (every `refresh_period`) the success table
    `success` applies the updates queued since the last one. A row is built
    from that view the first time it is consulted, and it is kept, with its
    cost per neighbor, across refreshes: each applied update to (k, e)
    re-costs k in row e and re-sorts that row. This equals a fresh build
    because, with naive Bayes off, an unseen estimate is a fixed function of
    (k, e) and a stored value changes only in `begin_epoch`. With naive Bayes
    on, one outcome moves every estimate of its neighbor, so a refresh that
    applied any update drops every row. Hence a built row does not see direct
    writes into `success.values`; make them before the first lookup. A row
    is the cached tuple itself: callers read it and never mutate it.

    The first period routes on the table as it is given. `maybe_roll` must be
    called before any lookup or any learning update, so that an update which
    arrives after a boundary takes effect at the next refresh, not this one.
    The candidate next hops are the success table's neighbors.
    """

    def __init__(self, success, refresh_period):
        self.success = success
        self.refresh_period = refresh_period
        self._epoch = 0
        self._rows = {}   # evidence -> next hops in lookup order
        self._costs = {}  # evidence -> {neighbor: cost} the row is sorted by

    def maybe_roll(self, now):
        # int(now / period) as a float: a quotient that overflows floors to
        # NaN, not OverflowError, so every call then starts a new period
        epoch = now / self.refresh_period // 1.0
        if epoch != self._epoch:
            self._epoch = epoch
            table = self.success
            applied = table.begin_epoch()
            if table.nb_space is not None and applied:
                self._rows = {}
                self._costs = {}
                return
            rows, costs = self._rows, self._costs
            for k, e, _ in applied:
                cost = costs.get(e)
                if cost is not None:
                    cost[k] = 1.0 - table.epoch_success_prob(k, e)
                    rows[e] = tuple(sorted(table.neighbors, key=cost.__getitem__))

    def lookup(self, e, now):
        """The row of evidence `e` at `now`: every neighbor by cost, ties by id."""
        if now / self.refresh_period // 1.0 != self._epoch:
            self.maybe_roll(now)
        row = self._rows.get(e)
        if row is None:
            table = self.success
            prob = table.epoch_success_prob
            cost = self._costs[e] = {k: 1.0 - prob(k, e) for k in table.neighbors}
            # a stable sort keeps equal costs in the ascending id order of neighbors
            row = self._rows[e] = tuple(sorted(table.neighbors, key=cost.__getitem__))
        return row


def shortest_path_table(topology):
    """(node, dest) -> next hop of the baseline policy: the smallest-id
    neighbor on a minimum-hop path."""
    hops = topology.hop_counts()
    table = {}
    for n in topology.nodes:
        for d in topology.nodes:
            if n == d:
                continue
            want = hops[(n, d)] - 1
            for k in topology.neighbors[n]:  # sorted, so the first hit has the smallest id
                if hops[(k, d)] == want:
                    table[(n, d)] = k
                    break
    return table

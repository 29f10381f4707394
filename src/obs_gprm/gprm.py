"""Per-node probabilistic learning state for adaptive next-hop selection.

Every node keeps one SuccessTable: for each neighbor k and each observed
evidence tuple (offset class, loss-rate class, hop-count class, destination)
it stores the learned probability that forwarding via k succeeds. ACK/NACK
notifications drive an exponential-smoothing update; updates take effect at
the next routing refresh. An unseen pair scores the table's prior. A cold
start also counts outcomes per evidence field, and a naive-Bayes estimator
over those counts generalizes to evidence combinations never hit directly;
a warm start keeps no counts. `signaling.SimConfig` holds every default.
"""

from collections import deque

PER_HOP_PROCESSING = 1e-4  # BHP processing time per node, s
OFFSET_CLASSES = 16  # offset classes 0..15, measured in per-hop processing units
BLR_CLASSES = 3      # loss-rate classes 0 low, 1 medium, 2 high
HOP_CLASSES = 16     # hop-count classes 0..15
DEST_NEIGHBOR_SP = 0.95  # cold prior of handing a burst straight to its destination
INFEASIBLE_SP = 0.02     # warm prior of a neighbor too far for the remaining offset


class LossRateWindow:
    """Sliding-window loss ratio seen by one node as a forwarder.

    Failures are local drop decisions plus NACKs received for bursts this
    node forwarded earlier; the denominator is bursts forwarded.
    """

    def __init__(self, window):
        self.window = window
        self._forwards = deque()
        self._failures = deque()

    def record_forward(self, now):
        self._forwards.append(now)

    def record_failure(self, now):
        self._failures.append(now)

    def ratio(self, now):
        cutoff = now - self.window
        fw, fl = self._forwards, self._failures
        while fw and fw[0] < cutoff:
            fw.popleft()
        while fl and fl[0] < cutoff:
            fl.popleft()
        if not fw:
            return 0.0
        return min(1.0, len(fl) / len(fw))


def extract_evidence(node, dest, remaining_offset, local_blr, hop_counts, blr_low, blr_high):
    """The evidence a node sees for one burst, as the plain tuple
    `(offset_class, blr_class, hop_class, dest)`.

    The offset class counts how many per-hop processing budgets remain; the
    small epsilon keeps exact multiples from flooring down a class. The loss
    class is 0 below `blr_low`, 1 below `blr_high` and 2 from there on; the
    thresholds are checked once, by their `SimConfig` field rules and
    `SimConfig.problems()`.
    """
    q = remaining_offset / PER_HOP_PROCESSING + 1e-9
    # capped before int(), which raises on a quotient that overflowed to inf
    o = int(q) if q < OFFSET_CLASSES else OFFSET_CLASSES - 1
    b = 0 if local_blr < blr_low else 1 if local_blr < blr_high else 2
    nb = hop_counts[(node, dest)]
    if nb >= HOP_CLASSES:
        nb = HOP_CLASSES - 1
    return (o, b, nb, dest)


def cold_start_prior(initial_sp):
    """Initial success probability for learning with no routing information.

    Uniform over neighbors, except that a neighbor which *is* the burst's
    destination starts high: a node knows the far end of its own links, and
    handing a burst straight to its destination needs no routing knowledge.
    """

    def prior(k, e):
        return DEST_NEIGHBOR_SP if k == e[3] else initial_sp

    return prior


def warm_start_prior(hop_counts, owner, detour_base):
    """Initial success probability favoring minimum-hop neighbors.

    A neighbor on a shortest path gets 1.0 and every extra hop a detour would
    cost multiplies the prior by `detour_base`. The penalty is deliberately
    mild: it keeps detours one small step behind the direct choice, so they
    are tried as soon as the direct path shows losses, and the smoothing
    update then settles every candidate at its observed success rate.
    A neighbor whose own distance to the destination cannot fit into the
    remaining offset budget would lose the burst to offset exhaustion, so it
    starts near zero instead.
    """

    def prior(k, e):  # e[0] is the offset class, e[3] the destination
        k_hops = hop_counts[(k, e[3])]
        if k_hops + 1 > e[0]:
            return INFEASIBLE_SP
        extra = k_hops + 1 - hop_counts[(owner, e[3])]
        return detour_base ** extra

    return prior


class SuccessTable:
    """Learned P(success | evidence) for each neighbor of one node.

    `alpha` is the smoothing factor (1.0 freezes the table) and `prior(k, e)`
    the success probability of an unseen pair; the rules declared on the
    `SimConfig` fields they come from check them. Naive Bayes is on exactly
    when `nb_space`, the number of states of each evidence field, is given
    (cold starts): the table counts outcomes per field, and a vector never observed
    for a neighbor is scored by naive Bayes instead of the prior as soon as
    that neighbor has any recorded outcome. Without it (warm starts) no
    counts are kept and unseen vectors always get the prior.

    Preconditions: every ``k`` passed in is one of ``neighbors``, which the
    engine keeps to by choosing each next hop from them; and under naive
    Bayes each evidence field value ``e[f]`` lies in ``range(nb_space[f])``,
    since the counts of field f are a list of that length. The engine keeps
    to that too: offset and hop classes are capped at 15, the loss class is
    at most 2, and destinations are node ids, which are below the node
    count. A larger value raises IndexError when it is scored or counted.

    The learned state is the routing view of the current refresh period:
    ``sp_update`` queues a notification, and updates take effect at the next
    refresh, when ``begin_epoch`` applies the queue in arrival order.
    """

    def __init__(self, owner, neighbors, alpha, prior, nb_space=None):
        self.owner = owner
        self.neighbors = tuple(sorted(neighbors))
        self.alpha = alpha
        self._prior = prior
        # (offset states, blr states, hop states, destination states), or None
        self.nb_space = nb_space
        self.values = {}
        # under naive Bayes, per neighbor and outcome: the total count, and
        # one count list per evidence field, indexed by the field's value
        nb_neighbors = self.neighbors if nb_space is not None else ()
        self._totals = {k: [0, 0] for k in nb_neighbors}
        self._factor_counts = {k: ([[0] * s for s in nb_space], [[0] * s for s in nb_space])
                               for k in nb_neighbors}
        self._pending = []  # (k, e, success) of this period, in arrival order

    def _unseen_prob(self, k, e):
        """Estimate for a (k, e) with no stored value: the naive-Bayes
        generalization when enabled and k has history, else the prior."""
        if self.nb_space is not None and any(self._totals[k]):
            s_succ, s_fail = self._nb_scores(k, e)
            return s_succ / (s_succ + s_fail)
        return self._prior(k, e)

    def sp_update(self, k, e, success):
        """Queue the notification of one forwarding outcome via `k` under `e`,
        `success` True for an ACK; ``begin_epoch`` applies it."""
        self._pending.append((k, e, success))

    def _nb_scores(self, k, e):
        """[success, failure] scores of the smoothed independence product: per
        outcome, (n_phi + 1) / (n + 2) times (count + 1) / (n_phi + states)
        for each evidence field in turn, multiplied left to right."""
        n_succ, n_fail = self._totals[k]
        n2 = n_succ + n_fail + 2.0
        (s_o, s_b, s_nb, s_d), (f_o, f_b, f_nb, f_d) = self._factor_counts[k]
        c_o, c_b, c_nb, c_d = self.nb_space
        o, b, nb, d = e
        return [(n_succ + 1.0) / n2 * ((s_o[o] + 1.0) / (n_succ + c_o))
                * ((s_b[b] + 1.0) / (n_succ + c_b)) * ((s_nb[nb] + 1.0) / (n_succ + c_nb))
                * ((s_d[d] + 1.0) / (n_succ + c_d)),
                (n_fail + 1.0) / n2 * ((f_o[o] + 1.0) / (n_fail + c_o))
                * ((f_b[b] + 1.0) / (n_fail + c_b)) * ((f_nb[nb] + 1.0) / (n_fail + c_nb))
                * ((f_d[d] + 1.0) / (n_fail + c_d))]

    def begin_epoch(self):
        """Apply the queued notifications in arrival order; the result is the
        routing view of the next period. Returns the applied ``(k, e, success)``
        list, so that routing can re-cost exactly the rows it touched.

        Each is an exponential-smoothing update, SP' = alpha * SP +
        (1 - alpha) * A with A = 1 on success, 0 on failure, and with
        ``nb_space`` given it also feeds the naive-Bayes observation counts.
        The entries are applied one at a time: each reads its base, then
        stores its value, then (under naive Bayes) adds its outcome to the
        counts. The base of a row's first update is `_unseen_prob` at that
        moment. Without naive Bayes that is the prior, which routing was
        already using for the row. Under naive Bayes it is the estimate from
        counts that already hold every earlier entry of this queue, so it
        differs from routing's view of the ending period as soon as an
        earlier entry in the queue has the same neighbor.
        """
        values = self.values
        alpha = self.alpha
        applied, self._pending = self._pending, []
        for k, e, success in applied:
            key = (k, *e)
            old = values.get(key)
            base = old if old is not None else self._unseen_prob(k, e)
            values[key] = alpha * base + (1.0 - alpha) * (1.0 if success else 0.0)
            if self.nb_space is not None:
                idx = 0 if success else 1
                self._totals[k][idx] += 1
                c_o, c_b, c_nb, c_d = self._factor_counts[k][idx]
                o, b, nb, d = e
                c_o[o] += 1
                c_b[b] += 1
                c_nb[nb] += 1
                c_d[d] += 1
        return applied

    def epoch_success_prob(self, k, e):
        """Success estimate used for route costs in this period: the stored
        value when (k, e) has been observed, else `_unseen_prob`."""
        v = self.values.get((k, *e))
        if v is not None:
            return v
        return self._unseen_prob(k, e)

    def dump(self, fh):
        """Write observed entries to the open text file `fh` as flat text:
        `k o b nb d sp` per line."""
        fh.write(f"# success table of node {self.owner}\n")
        for key in sorted(self.values):
            k, o, b, nb, d = key
            fh.write(f"{k} {o} {b} {nb} {d} {self.values[key]:.12g}\n")

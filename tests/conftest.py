from obs_gprm.topology import Link, Topology


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


def star_into_chain(data=1, km=0.2):
    """Y shape: 0-1, 3-1, 1-2; contention meets on link (1, 2)."""
    links = bidir(0, 1, km=km, data=data) + bidir(3, 1, km=km, data=data) \
        + bidir(1, 2, km=km, data=data)
    return Topology([0, 1, 2, 3], links)


def flat(p):
    """A success-table prior that gives every (neighbor, evidence) pair `p`."""
    return lambda k, e: p


def walk_row(router, e, now=0.0):
    """The next hops of one routing row in lookup order: each lookup excludes
    the hops already returned, until none is left."""
    hops = []
    while (k := router.lookup(e, hops, now)) is not None:
        hops.append(k)
    return hops


def update_and_read(table, k, e, success):
    """Apply one notification at once: queue it, start a refresh period, and
    return the success value routing then sees for (k, e)."""
    table.sp_update(k, e, success)
    table.begin_epoch()
    return table.epoch_success_prob(k, e)


def offered_load(connections, capacities):
    """The README's offered load: the sum over connections of
    `rate * mean_size / source_egress_capacity`."""
    return sum(c.lambda_ * c.mean_burst_size / capacities[c.src] for c in connections)

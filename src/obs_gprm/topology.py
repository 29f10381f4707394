"""Network graph model: nodes, directed links with their lengths, hop counts.

Fibers are bidirectional but modeled as two directed links so that each
direction has its own data channels and its own reservation schedule.
"""

import math
from collections import deque
from dataclasses import dataclass


class TopologyError(Exception):
    """Malformed topology file or violated graph invariant."""


@dataclass(frozen=True)
class Link:
    src: int
    dst: int
    length_km: float
    control_channels: int
    data_channels: int
    channel_rate: float  # bit/s

    def __post_init__(self):
        if self.src == self.dst:
            raise TopologyError(f"self-loop link at node {self.src}")
        if self.control_channels < 1 or self.data_channels < 1:
            raise TopologyError(f"link {self.src}->{self.dst}: needs >= 1 channel of each kind")
        for name, x in (("length", self.length_km), ("channel rate", self.channel_rate)):
            if not 0 < x < math.inf:  # NaN fails this too
                raise TopologyError(f"link {self.src}->{self.dst}: {name} must be "
                                    f"{'> 0' if x <= 0 else 'finite'}")


def propagation_delay(link, signal_speed):
    """One-way propagation delay of a link in seconds, at `signal_speed` m/s."""
    return link.length_km * 1000.0 / signal_speed


class Topology:
    """Validated directed graph with per-link channel counts and distances.

    Immutable after construction; hop counts are computed once on demand and
    cached.
    """

    def __init__(self, nodes, links, names=None):
        self.nodes = sorted(nodes)
        self.links = {}
        for l in links:
            if (l.src, l.dst) in self.links:
                raise TopologyError(f"link {l.src}->{l.dst} is declared twice")
            self.links[(l.src, l.dst)] = l
        self.names = dict(names) if names else {}
        self._hop_counts = None
        self._validate()

    def _validate(self):
        """Check the graph invariants and build `neighbors` on the way."""
        n = len(self.nodes)
        if n == 0:
            raise TopologyError("topology has no nodes")
        if self.nodes != list(range(n)):
            raise TopologyError(f"node ids must be dense 0..{n - 1}, got {self.nodes}")
        for (u, v) in self.links:
            if u not in self.nodes or v not in self.nodes:
                raise TopologyError(f"link {u}->{v} references undeclared node")
            if (v, u) not in self.links:
                raise TopologyError(f"link {u}->{v} has no reverse link")
        nbrs = {m: [] for m in self.nodes}
        for (u, v) in self.links:
            nbrs[u].append(v)
        self.neighbors = {m: tuple(sorted(ks)) for m, ks in nbrs.items()}
        # reverse links exist, so one sweep from node 0 decides connectivity
        seen = _hops_from(self.neighbors, 0)
        if len(seen) != n:
            missing = sorted(set(self.nodes) - seen.keys())
            raise TopologyError(f"graph is disconnected; unreachable nodes {missing}")

    def hop_counts(self):
        """Cached all-pairs minimum hop counts."""
        if self._hop_counts is None:
            self._hop_counts = all_pairs_hop_counts(self)
        return self._hop_counts

    def total_data_channels(self):
        return sum(l.data_channels for l in self.links.values())

    def egress_capacity(self, node):
        """Total data-plane egress rate of a node in bit/s."""
        return sum(
            l.data_channels * l.channel_rate for (u, _), l in self.links.items() if u == node
        )


def _hops_from(neighbors, s):
    """Minimum hop count from `s` to every node it reaches, in BFS order."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_hop_counts(topology):
    """Minimum hop count for every ordered node pair, via BFS per source."""
    hops = {}
    for s in topology.nodes:
        for v, d in _hops_from(topology.neighbors, s).items():
            hops[(s, v)] = d
    return hops


def load_topology(path):
    """Parse a topology file.

    Format, one record per line, `#` starts a comment:
        node <id> <name>
        link <src> <dst> <km> <ctrl_channels> <data_channels> <bit_rate>
    Each `link` line declares one bidirectional fiber (two directed links).
    A node declared twice, a fiber declared twice (in either direction) or
    a link to a node that no `node` line declares raises a `TopologyError`
    naming the record's `path:line`.
    """
    names = {}
    links = []
    node_lines = {}  # node id -> line number of its declaration
    link_lines = {}  # directed link -> line number of its declaration
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "node":
                    nid = int(parts[1])
                    if nid in node_lines:
                        raise TopologyError(f"node {nid} is already declared on "
                                            f"line {node_lines[nid]}")
                    node_lines[nid] = lineno
                    names[nid] = parts[2] if len(parts) > 2 else str(nid)
                elif parts[0] == "link":
                    src, dst = int(parts[1]), int(parts[2])
                    km = float(parts[3])
                    ctrl, data = int(parts[4]), int(parts[5])
                    rate = float(parts[6])
                    if (src, dst) in link_lines:  # a line declares both directions
                        raise TopologyError(f"link {src}->{dst} is already declared on "
                                            f"line {link_lines[(src, dst)]}")
                    link_lines[(src, dst)] = link_lines[(dst, src)] = lineno
                    links.append(Link(src, dst, km, ctrl, data, rate))
                    links.append(Link(dst, src, km, ctrl, data, rate))
                else:
                    raise TopologyError(f"unknown record '{parts[0]}'")
            except (IndexError, ValueError) as exc:
                raise TopologyError(f"{path}:{lineno}: malformed line: {line!r}") from exc
            except TopologyError as exc:  # a bad record, or a `Link` field out of range
                raise TopologyError(f"{path}:{lineno}: {exc}") from exc
    for (src, dst), lineno in link_lines.items():
        if src not in node_lines or dst not in node_lines:
            raise TopologyError(f"{path}:{lineno}: link {src}->{dst} references undeclared node")
    return Topology(list(node_lines), links, names=names)

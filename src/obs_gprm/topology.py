"""Network graph model: nodes, directed links with their lengths, hop counts.

Fibers are bidirectional but modeled as two directed links so that each
direction has its own data channels and its own reservation schedule.
"""

import math
from collections import deque
from dataclasses import dataclass


class TopologyError(Exception):
    """Malformed topology file or broken graph rule; `record`: the node or link at fault."""

    def __init__(self, msg, record=None):
        super().__init__(msg)
        self.record = record


# a link holds one reservation schedule per data channel, made up front
MAX_DATA_CHANNELS = 1024
SIGNAL_SPEED = 2.0e8  # m/s, light in fiber


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
        if self.control_channels < 1 or not 1 <= self.data_channels <= MAX_DATA_CHANNELS:
            raise TopologyError(f"link {self.src}->{self.dst}: needs >= 1 control channel "
                                f"and 1..{MAX_DATA_CHANNELS} data channels")
        for name, x in (("length", self.length_km), ("channel rate", self.channel_rate)):
            if not 0 < x < math.inf:  # NaN fails this too
                raise TopologyError(f"link {self.src}->{self.dst}: {name} must be "
                                    f"{'> 0' if x <= 0 else 'finite'}")
        if propagation_delay(self) == math.inf:
            raise TopologyError(f"link {self.src}->{self.dst}: length {self.length_km:g} km "
                                "makes its propagation delay overflow")


def propagation_delay(link):
    """One-way propagation delay of a link in seconds, at `SIGNAL_SPEED`."""
    return link.length_km * 1000.0 / SIGNAL_SPEED


class Topology:
    """Validated directed graph with per-link channel counts and distances,
    and the all-pairs hop counts; immutable after construction."""

    def __init__(self, nodes, links, names=None):
        self.nodes = sorted(nodes)
        self.links = {}
        for l in links:
            if (l.src, l.dst) in self.links:
                raise TopologyError(f"link {l.src}->{l.dst} is declared twice")
            self.links[(l.src, l.dst)] = l
        self.names = dict(names) if names else {}
        self._validate()

    def _validate(self):
        """Check the graph invariants; build `neighbors` and the hop counts on the way."""
        n = len(self.nodes)
        if n == 0:
            raise TopologyError("topology has no nodes")
        if self.nodes != list(range(n)):
            raise TopologyError(f"node ids must be dense 0..{n - 1}, got {self.nodes}",
                                next((m for m in self.nodes if not 0 <= m < n), None))
        nbrs = {m: [] for m in self.nodes}
        for (u, v) in self.links:
            if u not in nbrs or v not in nbrs:
                raise TopologyError(f"link {u}->{v} references undeclared node", (u, v))
            if (v, u) not in self.links:
                raise TopologyError(f"link {u}->{v} has no reverse link", (u, v))
            nbrs[u].append(v)
        self.neighbors = {m: tuple(sorted(ks)) for m, ks in nbrs.items()}
        self._hops = hops = {}
        for s in self.nodes:
            row = _hops_from(self.neighbors, s)
            if len(row) != n:  # reverse links exist, so node 0's row decides connectivity
                missing = sorted(nbrs.keys() - row.keys())
                raise TopologyError(f"graph is disconnected; unreachable nodes {missing}",
                                    missing[0])
            for v, d in row.items():
                hops[(s, v)] = d

    def hop_counts(self):
        """All-pairs minimum hop counts, `{(src, dst): hops}`."""
        return self._hops

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


def load_topology(path):
    """Parse a topology file.

    Format, one record per line, `#` starts a comment:
        node <id> <name>
        link <src> <dst> <km> <ctrl_channels> <data_channels> <bit_rate>
    Each `link` line declares one bidirectional fiber (two directed links).
    The name is optional and one word; a record with extra fields is malformed.
    A malformed or repeated record, and a broken graph rule, raise a
    `TopologyError` naming the `path:line` of the record at fault, or the
    `path` alone when no record is (a file without nodes).
    """
    names = {}
    links = []
    node_lines = {}  # node id -> line number of its declaration
    link_lines = {}  # directed link -> line number of its declaration
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "node":
                    if len(parts) > 3:  # a name is one word
                        raise ValueError("extra fields")
                    nid = int(parts[1])
                    if nid in node_lines:
                        raise TopologyError(f"node {nid} is already declared on "
                                            f"line {node_lines[nid]}")
                    node_lines[nid] = lineno
                    names[nid] = parts[2] if len(parts) > 2 else str(nid)
                elif parts[0] == "link":
                    _, src, dst, km, ctrl, data, rate = parts  # exactly seven fields
                    src, dst = int(src), int(dst)
                    km, rate = float(km), float(rate)
                    ctrl, data = int(ctrl), int(data)
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
    try:
        return Topology(list(node_lines), links, names=names)
    except TopologyError as exc:  # a graph rule, checked once the whole file is read
        lineno = (link_lines if isinstance(exc.record, tuple) else node_lines).get(exc.record)
        raise TopologyError(f"{path}:{lineno}: {exc}" if lineno else f"{path}: {exc}") from exc

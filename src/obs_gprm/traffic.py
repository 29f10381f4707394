"""Burst workload generation: Poisson arrivals, exponential sizes, and the
offered-load accounting used to scale a traffic matrix to a target load.
"""

import math
import random
from math import log
from dataclasses import dataclass


@dataclass
class ConnectionSpec:
    src: int
    dst: int
    lambda_: float          # bursts per second
    mean_burst_size: float  # bits
    seed: int

    def __post_init__(self):
        # `not 0 < x < inf` also rejects NaN, which passes every `x <= 0` check
        if not 0 < self.lambda_ < math.inf:
            raise ValueError("arrival rate must be finite and > 0")
        if not 0 < self.mean_burst_size < math.inf:
            raise ValueError("mean burst size must be finite and > 0")

    def make_rng(self):
        return random.Random(self.seed)


@dataclass
class LoadSpec:
    target_load: float
    node_capacity: dict  # node id -> bits per second of egress capacity

    def __post_init__(self):
        if not 0 < self.target_load < math.inf:
            raise ValueError("target load must be finite and > 0")
        if not all(0 < mu < math.inf for mu in self.node_capacity.values()):
            raise ValueError("node capacities must be finite and > 0")


class TrafficMatrix:
    """Relative demand weights between node pairs; each positive weight is
    one connection. A matrix read by `load_matrix` keeps its file `path`
    and, in `linenos`, the line of each pair's record."""

    def __init__(self, weights):
        self.weights = {}
        self.path, self.linenos = None, {}
        for (i, j), w in weights.items():
            if not 0 <= w < math.inf:  # fails for NaN too
                raise PairError((i, j), f"{'negative' if w < 0 else 'non-finite'} weight "
                                        f"for pair {(i, j)}")
            if w and i == j:
                raise PairError((i, j), f"self-traffic weight at node {i}")
            if w > 0:
                self.weights[(i, j)] = float(w)
        if not self.weights:
            raise ValueError("traffic matrix has no positive weights")


class PairError(ValueError):
    """A matrix weight that `TrafficMatrix` or `arrival_rates` rejects;
    `pair` lets a caller name the file line it came from."""

    def __init__(self, pair, msg):
        super().__init__(msg)
        self.pair = pair


def load_matrix(path):
    """Parse a matrix file: lines `src dst weight`, `#` comments; missing
    pairs default to weight 0, and a pair listed twice raises ValueError."""
    weights, linenos = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                s, d, w = line.split()
                pair, weight = (int(s), int(d)), float(w)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed matrix line {line!r}") from exc
            if pair in weights:
                raise ValueError(f"{path}:{lineno}: pair {s} {d} is already listed "
                                 f"on line {linenos[pair]}")
            weights[pair], linenos[pair] = weight, lineno
    try:
        matrix = TrafficMatrix(weights)
    except PairError as exc:
        raise ValueError(f"{path}:{linenos[exc.pair]}: {exc}") from None
    except ValueError as exc:  # no positive weight: no line is at fault
        raise ValueError(f"{path}: {exc}") from None
    matrix.path, matrix.linenos = path, linenos
    return matrix


def next_arrival(conn, rng):
    """Draw (inter-arrival gap, burst size in bits) from a connection's stream.

    Both are exponential, drawn by inversion from two uniforms in turn:
    the gap is `-log(1 - u1) / lambda_` and the size
    `-log(1 - u2) / (1 / mean_burst_size)`, floored at 1 bit. The formula is
    written here rather than left to `random.expovariate`, so a seed's stream
    is the package's own; it is the float expression `expovariate` evaluates
    on Python 3.10-3.13, without its two calls per burst.
    """
    dt = -log(1.0 - rng.random()) / conn.lambda_
    size = -log(1.0 - rng.random()) / (1.0 / conn.mean_burst_size)
    return dt, (size if size > 1.0 else 1.0)


def connection_seed(master_seed, src, dst):
    """Stable per-connection seed so adding connections never perturbs
    existing streams."""
    return (master_seed * 1_000_003 + src * 100_003 + dst * 1_009) & 0x7FFFFFFFFFFFFFFF


def arrival_rates(matrix, target, mean_burst_size):
    """Per-pair arrival rates (bursts/s), in pair order, whose offered load
    hits the target exactly.

    Rates stay proportional to the matrix weights; a single global factor is
    solved from the load formula. Raises PairError naming a pair when the
    load sum overflows (that pair has the largest term) or underflows to 0,
    or when a pair's rate is not finite and > 0.
    """
    capacity = target.node_capacity
    denom = 0.0
    for (i, j), w in matrix.weights.items():
        denom += w * mean_burst_size / capacity[i]
    if not 0 < denom < math.inf:
        i, j = max(matrix.weights, key=lambda p: matrix.weights[p] / capacity[p[0]])
        raise PairError((i, j), f"pair {i} {j}: weight {matrix.weights[(i, j)]:g} and "
                                f"mean_burst_size {mean_burst_size:g} make the offered load "
                                f"{'overflow' if denom else 'underflow to 0'}")
    scale = target.target_load / denom
    rates = {pair: scale * w for pair, w in sorted(matrix.weights.items())}
    for (i, j), rate in rates.items():
        if not 0 < rate < math.inf:
            raise PairError((i, j), f"pair {i} {j}: weight {matrix.weights[(i, j)]:g} gives "
                                    f"arrival rate {rate:g}, which must be finite and > 0")
    return rates


def scale_to_load(matrix, target, mean_burst_size, master_seed=0):
    """Connection set whose offered load hits the target exactly, at the
    rates of `arrival_rates`."""
    return [ConnectionSpec(i, j, rate, mean_burst_size, connection_seed(master_seed, i, j))
            for (i, j), rate in arrival_rates(matrix, target, mean_burst_size).items()]

"""Run counters (one drop counter per cause in `DROP_CAUSES`), the
per-bucket learning series, and the metrics of a run: loss ratio, mean
end-to-end delay and utilization."""

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat

# every cause a burst can be dropped for; RunCounters has a `drops_<cause>`
# field for each, and results.csv a column, in this order
DROP_CAUSES = ("contention", "offset", "noroute", "ingress")


@dataclass
class RunCounters:
    """Counts of one cohort of bursts, steady or transient, or of their sum.
    `busy_time` maps (src, dst, wavelength) to the channel seconds, clipped at
    the run end, that the steady cohort's delivered bursts held on each hop;
    it is empty for the others. A delivered burst's reservations are never
    released, so no channel second is counted twice."""
    bursts_sent: int = 0
    bursts_delivered: int = 0
    drops_contention: int = 0
    drops_offset: int = 0
    drops_noroute: int = 0
    drops_ingress: int = 0
    delay_sum: float = 0.0
    busy_time: dict = field(default_factory=dict)

    @property
    def bursts_dropped(self):
        return sum(getattr(self, "drops_" + cause) for cause in DROP_CAUSES)

    @property
    def in_flight(self):
        return self.bursts_sent - self.bursts_delivered - self.bursts_dropped

    def add_drop(self, cause):
        setattr(self, "drops_" + cause, getattr(self, "drops_" + cause) + 1)

    def add_busy(self, key, seconds):
        self.busy_time[key] = self.busy_time.get(key, 0.0) + seconds


class TimeSeries:
    """Per-bucket sent/dropped counts for the learning-curve output."""

    def __init__(self):
        self._sent = {}
        self._dropped = {}

    def add_sent(self, t):
        i = int(t / BUCKET_WIDTH)
        self._sent[i] = self._sent.get(i, 0) + 1

    def add_drop(self, t):
        i = int(t / BUCKET_WIDTH)
        self._dropped[i] = self._dropped.get(i, 0) + 1

    def arrays(self):
        """(bucket start times, sent, dropped) as dense `array.array`s: times
        `i * BUCKET_WIDTH` ("d"), counts ("q"), one item per bucket up to the
        last one that saw a burst sent or dropped; all empty if none did."""
        n = 1 + max(chain(self._sent, self._dropped), default=-1)
        sent = array("q", [0]) * n
        dropped = array("q", [0]) * n
        for i, c in self._sent.items():
            sent[i] = c
        for i, c in self._dropped.items():
            dropped[i] = c
        return array("d", [i * BUCKET_WIDTH for i in range(n)]), sent, dropped


# the learning series' bucket (s); the golden outputs fix the float
# expressions `int(t / BUCKET_WIDTH)` and `i * BUCKET_WIDTH`, not `t * 100`
BUCKET_WIDTH = 0.01
# the learning CSVs' `rolling_blr` window: 20 buckets, 200 ms
ROLLING_WINDOW_BUCKETS = 20
# the most learning buckets `validate` allows a scenario, over `duration` and
# the drain of the bursts still in flight then, whose drops are bucketed too:
# `TimeSeries.arrays` and `rolling_ratio` allocate items for each; that is 10,000 s
MAX_BUCKETS = 1_000_000
# the most bursts (arrival rates at the highest load times `duration`)
# `validate` lets one run expect: at the 20-80k bursts/s of one 2-vCPU Xeon
# core that is 2-8 minutes, and a count that is not finite would never end
MAX_BURSTS = 10_000_000


def rolling_ratio(sent, dropped):
    """dropped / sent over the last `ROLLING_WINDOW_BUCKETS` buckets up to each
    one, as an `array.array("d")`; buckets whose window saw no traffic report 0."""
    # each bucket leaves the window `ROLLING_WINDOW_BUCKETS` buckets after it entered
    sent_out = chain(repeat(0, ROLLING_WINDOW_BUCKETS), sent)
    dropped_out = chain(repeat(0, ROLLING_WINDOW_BUCKETS), dropped)
    wsent = wdrop = 0
    out = []
    # the window sums are exact ints, so each ratio is one correctly rounded division
    for s, d, s_out, d_out in zip(sent, dropped, sent_out, dropped_out):
        wsent += s - s_out
        wdrop += d - d_out
        out.append(wdrop / wsent if wsent else 0.0)
    return array("d", out)


@dataclass
class RunResult:
    """Everything one simulation run produces.

    `counters` covers the steady-state cohort (bursts created at or after
    warm-up), which alone holds busy time: the channel time its delivered
    bursts held. `counters_total` is the field-wise sum of the steady and
    the transient cohort, so it covers every burst.
    A metric the run cannot define is NaN, as results.csv writes it.
    """

    counters: RunCounters
    counters_total: RunCounters
    series: TimeSeries
    duration: float
    warmup: float

    @property
    def elapsed(self):
        return self.duration - self.warmup

    def blr(self):
        """Burst loss ratio: dropped / sent; NaN if no burst was sent."""
        c = self.counters
        return c.bursts_dropped / c.bursts_sent if c.bursts_sent else math.nan

    def mean_delay(self):
        """Mean end-to-end delay of delivered bursts (offset + propagation +
        transmission); NaN if none was delivered."""
        c = self.counters
        return c.delay_sum / c.bursts_delivered if c.bursts_delivered else math.nan

    def utilization(self, topology):
        """Fraction of total data-channel capacity the steady cohort's
        delivered bursts occupied; NaN if the topology has no data channel,
        or if `elapsed <= 0`, which only a hand-built result can have."""
        capacity = self.elapsed * topology.total_data_channels()
        if capacity <= 0:
            return math.nan
        return sum(self.counters.busy_time.values()) / capacity

"""Open-loop arrival processes and Zipfian hotspot addressing.

The traffic models of :mod:`repro.core.tenants`: open-loop tenants
inject requests at times drawn from an arrival process (Poisson, bursty
on/off, diurnal) regardless of completions, and skew their addresses
with a :class:`ZipfianHotspot`.  Every generator draws from a
``random.Random`` the caller seeds, so a (spec, seed) pair always
reproduces the same trace (``tests/test_multitenant.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant mean rate (IOPS)."""

    rate_iops: float

    def next_gap_ns(self, rng: random.Random, now_ns: int) -> int:
        """Nanoseconds until the next arrival after ``now_ns``."""
        if self.rate_iops <= 0:
            raise ValueError("rate_iops must be positive")
        return max(1, int(rng.expovariate(self.rate_iops) * 1e9))


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off traffic: Poisson bursts at ``rate_iops`` separated by silence.

    Time is cut into fixed ``period_ns`` windows; the first
    ``duty_cycle`` fraction of each window is ON, the remainder OFF.
    Within ON windows gaps are exponential; an arrival that would land
    in an OFF stretch is deferred to the start of the next ON window.
    The window grid is deterministic, so two tenants with the same spec
    burst in phase unless their ``phase_ns`` offsets differ.
    """

    rate_iops: float
    period_ns: int = 50_000_000
    duty_cycle: float = 0.2
    phase_ns: int = 0

    def next_gap_ns(self, rng: random.Random, now_ns: int) -> int:
        """Nanoseconds until the next arrival after ``now_ns``."""
        if self.rate_iops <= 0 or not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("need rate_iops > 0 and duty_cycle in (0, 1]")
        on_ns = int(self.period_ns * self.duty_cycle)
        t = now_ns + max(1, int(rng.expovariate(self.rate_iops) * 1e9))
        offset = (t - self.phase_ns) % self.period_ns
        if offset >= on_ns:
            # skip the OFF remainder of this window
            t += self.period_ns - offset
        return max(1, t - now_ns)


@dataclass(frozen=True)
class DiurnalArrivals:
    """Slowly-modulated arrivals: a sinusoidal day/night cycle.

    Implemented by thinning a Poisson process at the peak rate: a
    candidate arrival at time ``t`` is kept with probability
    ``trough + (1 - trough) * (1 - cos(2*pi*t/period)) / 2``, which
    peaks mid-period and bottoms out at ``trough_fraction`` at the
    period boundaries.
    """

    peak_iops: float
    period_ns: int = 1_000_000_000
    trough_fraction: float = 0.1

    def next_gap_ns(self, rng: random.Random, now_ns: int) -> int:
        """Nanoseconds until the next (thinned) arrival after ``now_ns``."""
        if self.peak_iops <= 0 or not 0.0 <= self.trough_fraction <= 1.0:
            raise ValueError("need peak_iops > 0 and trough in [0, 1]")
        t = now_ns
        while True:
            t += max(1, int(rng.expovariate(self.peak_iops) * 1e9))
            cycle = (1.0 - math.cos(2.0 * math.pi * (t % self.period_ns)
                                    / self.period_ns)) / 2.0
            keep = self.trough_fraction + (1.0 - self.trough_fraction) * cycle
            if rng.random() < keep:
                return max(1, t - now_ns)


#: arrival spec "kind" -> constructor (JSON-able fleet parameters)
ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


def arrival_from_spec(spec: Dict) -> object:
    """Build an arrival process from a JSON-able ``{"kind": ..., ...}`` dict."""
    kind = spec.get("kind")
    if kind not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind {kind!r}; "
                         f"choose from {sorted(ARRIVAL_KINDS)}")
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    return ARRIVAL_KINDS[kind](**kwargs)


# -- Zipfian hotspot addressing -----------------------------------------------


class ZipfianHotspot:
    """Skewed block addressing: rank ``k`` drawn with p ∝ 1/k^theta.

    YCSB-style rejection-free Zipfian generator over ``n`` items with a
    deterministic scrambling multiplier so hot ranks spread over the
    address space instead of clustering at LBA 0.  ``theta = 0`` is
    uniform; the YCSB default 0.99 concentrates ~60% of accesses on the
    hottest few percent of blocks.
    """

    def __init__(self, n_items: int, theta: float = 0.99) -> None:
        if n_items < 1:
            raise ValueError("need at least one item")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.n_items = n_items
        self.theta = theta
        self._zetan = sum(1.0 / math.pow(k, theta)
                         for k in range(1, n_items + 1))
        self._zeta2 = 1.0 + math.pow(0.5, theta)
        self._alpha = 1.0 / (1.0 - theta) if theta else 1.0
        self._eta = ((1.0 - math.pow(2.0 / n_items, 1.0 - theta))
                     / (1.0 - self._zeta2 / self._zetan)) if theta else 0.0

    def rank(self, rng: random.Random) -> int:
        """Draw one item rank in ``[0, n_items)`` (0 = hottest)."""
        if not self.theta:
            return rng.randrange(self.n_items)
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._zeta2:
            return 1
        return int(self.n_items
                   * math.pow(self._eta * u - self._eta + 1.0, self._alpha))

    def item(self, rng: random.Random) -> int:
        """Draw one item, scrambled over the space (hot set spread out)."""
        return (self.rank(rng) * 0x5851F42D + 1) % self.n_items

"""Seeded input generators: every workload input is a pure function of the seed.

Each generator draws from its own ``random.Random`` stream, keyed by the
seed and the generator's name, so adding a draw to one workload never
shifts another's inputs.  Grid axes hold distinct values by construction
(sampled without replacement from a fixed-step lattice), so ``SweepSpec``
never drops a duplicate.  The library only ever receives the generated
specs.
"""

from __future__ import annotations

import random

from repro.spec import DesignSpec, SweepSpec

#: The joint DSE axes of Figs. 9/10 that every sweep workload crosses.
TIER_PAIRS = (1, 2, 4, 8)
PRECISIONS = (4, 8)
NETWORKS = ("resnet18", "mobilenet_v1")

#: Capacity lattice in hundredths of a MB.  Sweeps and the serve pool
#: draw below ``WARMUP_FLOOR``; warm-up specs draw at or above it, so
#: warm-up never pre-computes a measured point.
CAPACITY_FLOOR = 1600
WARMUP_FLOOR = 20000
CAPACITY_CEIL = 25600

#: Physical sweep clocks.  Designs close timing near 225-230 MHz, so
#: 100 MHz always closes and 228 MHz splits the grid.
PHYSICAL_FREQUENCIES_MHZ = (100.0, 228.0)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def distinct_values(rng: random.Random, count: int, low: int, high: int,
                    scale: float) -> list[float]:
    """``count`` distinct lattice values ``k / scale``, ``low <= k < high``,
    in ascending order."""
    return [k / scale for k in sorted(rng.sample(range(low, high), count))]


def _dse_sweep(rng: random.Random, capacities: int) -> SweepSpec:
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": distinct_values(
            rng, capacities, CAPACITY_FLOOR, WARMUP_FLOOR, 100.0),
        "arch.tier_pairs": list(TIER_PAIRS),
        "arch.precision_bits": list(PRECISIONS),
        "workload.network": list(NETWORKS),
    })


def batch_sweep(seed: int, capacities: int = 480) -> SweepSpec:
    """Capacities x tiers x precision x network for ``sweep-batch``."""
    return _dse_sweep(_rng(seed, "sweep-batch"), capacities)


def prune_sweep(seed: int, capacities: int = 40) -> SweepSpec:
    """The smaller grid of the same shape for ``sweep-prune-resume``."""
    return _dse_sweep(_rng(seed, "sweep-prune-resume"), capacities)


def physical_sweep(seed: int, capacities: int = 4) -> SweepSpec:
    """Capacities x network x aspect ratio x clock for ``sweep-physical``."""
    rng = _rng(seed, "sweep-physical")
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": distinct_values(
            rng, capacities, CAPACITY_FLOOR, WARMUP_FLOOR, 100.0),
        "workload.network": list(NETWORKS),
        "flow.aspect_ratio": distinct_values(rng, 2, 85, 121, 100.0),
        "flow.frequency_mhz": list(PHYSICAL_FREQUENCIES_MHZ),
    })


def physical_warmup(seed: int, points: int = 2) -> SweepSpec:
    """Physical points outside the measured grid, one per pool worker."""
    rng = _rng(seed, "sweep-physical-warmup")
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": distinct_values(
            rng, points, WARMUP_FLOOR, CAPACITY_CEIL, 100.0),
    })


def _random_specs(rng: random.Random, count: int, low: int,
                  high: int) -> list[DesignSpec]:
    capacities = distinct_values(rng, count, low, high, 100.0)
    rng.shuffle(capacities)
    return [
        DesignSpec().updated({
            "arch.capacity_mb": capacity,
            "arch.tier_pairs": rng.choice(TIER_PAIRS),
            "arch.precision_bits": rng.choice(PRECISIONS),
            "workload.network": rng.choice(NETWORKS),
        })
        for capacity in capacities
    ]


def serve_pool(seed: int, size: int = 300) -> list[DesignSpec]:
    """The distinct specs ``serve-eval`` requests, most popular first."""
    return _random_specs(_rng(seed, "serve-pool"), size,
                         CAPACITY_FLOOR, WARMUP_FLOOR)


def serve_warmup(seed: int, size: int = 40) -> list[DesignSpec]:
    """Warm-up specs, disjoint from :func:`serve_pool` by capacity."""
    return _random_specs(_rng(seed, "serve-warmup"), size,
                         WARMUP_FLOOR, CAPACITY_CEIL)


def serve_requests(seed: int, pool_size: int, count: int,
                   exponent: float = 1.1) -> list[int]:
    """Zipf-like request sequence: pool index ``i`` has weight
    ``1 / (i + 1) ** exponent``."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    return _rng(seed, "serve-requests").choices(
        range(pool_size), weights=weights, k=count)

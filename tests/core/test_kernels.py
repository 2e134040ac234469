"""Equivalence tests for the fast simulation kernels.

The kernels in :mod:`repro.core.kernels` promise to be *bit-identical* to
the reference engine, not merely close.  These tests enforce that promise
the hard way: randomized traces — mixed access kinds, line-straddling
sizes, purge intervals, warmup, limits — are replayed through both the
specialized replay kernel and the generic per-reference engine, and every
counter of every :class:`~repro.core.stats.CacheStats`, plus the final
resident lines, flags and recency order, must match exactly.  The
all-associativity sweep is likewise checked cell-for-cell against direct
simulation.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    COPY_BACK,
    WRITE_THROUGH,
    WRITE_THROUGH_ALLOCATE,
    CacheGeometry,
    FetchPolicy,
    SplitCache,
    UnifiedCache,
    WritePolicy,
    WriteStrategy,
    all_associativity_hit_counts,
    associativity_miss_surface,
    can_replay,
    policy_factory,
    simulate,
)
from repro.trace import Trace, TraceMetadata
from repro.trace.stream import _held_bytes


def random_trace(seed, length=600, span=4096, max_size=40):
    """A randomized trace: all four kinds, sizes that straddle 16B lines."""
    if isinstance(seed, str):  # stable across processes, unlike hash()
        seed = zlib.crc32(seed.encode())
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 4, size=length)
    # A mix of clustered and scattered addresses, so there are both
    # repeated lines (hits, evictions) and cold misses.
    clustered = rng.integers(0, span // 8, size=length) * 8
    scattered = rng.integers(0, span, size=length)
    addresses = np.where(rng.random(length) < 0.7, clustered, scattered)
    sizes = rng.integers(1, max_size + 1, size=length)
    return Trace(kinds, addresses, sizes, TraceMetadata(name=f"random-{seed}"))


def reports_and_state(trace, make_organization, **kwargs):
    """Run both engines; return their (report fields, final cache state)."""
    out = []
    for engine in ("generic", "kernel"):
        organization = make_organization()
        report = simulate(trace, organization, engine=engine, **kwargs)
        members, _routing = organization.replay_plan()
        state = [list(lines.items()) for cache in members for lines in cache._sets]
        out.append(((report.references, report.overall, report.instruction, report.data), state))
    return out


ORGANIZATIONS = {
    "unified-full": lambda: UnifiedCache(CacheGeometry(512, 16)),
    "unified-2way": lambda: UnifiedCache(CacheGeometry(1024, 16, associativity=2)),
    "unified-direct": lambda: UnifiedCache(CacheGeometry(256, 16, associativity=1)),
    "unified-wt": lambda: UnifiedCache(CacheGeometry(512, 16), write_policy=WRITE_THROUGH),
    "unified-wta": lambda: UnifiedCache(
        CacheGeometry(512, 16), write_policy=WRITE_THROUGH_ALLOCATE
    ),
    "split": lambda: SplitCache(CacheGeometry(512, 16, associativity=4)),
    "split-fetch-data": lambda: SplitCache(CacheGeometry(256, 16), fetch_routing="data"),
    "split-wt": lambda: SplitCache(CacheGeometry(512, 16), write_policy=WRITE_THROUGH),
}

SCHEDULES = [
    dict(),
    dict(purge_interval=97),
    dict(warmup=150),
    dict(purge_interval=100, warmup=150),  # purge lands exactly on warmup end
    dict(purge_interval=73, warmup=201, limit=401),
    dict(purge_interval=300, limit=600),  # final purge exactly at stream end
    dict(limit=0),
    dict(warmup=10_000),  # warmup beyond the trace
]


class TestReplayKernelEquivalence:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("schedule", range(len(SCHEDULES)))
    def test_identical_stats_and_state(self, organization, schedule):
        trace = random_trace(seed=organization + str(schedule))
        make = ORGANIZATIONS[organization]
        (generic, generic_state), (kernel, kernel_state) = reports_and_state(
            trace, make, **SCHEDULES[schedule]
        )
        assert kernel == generic
        assert kernel_state == generic_state

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity_lines=st.sampled_from([8, 16, 64]),
        associativity=st.sampled_from([1, 2, 4, None]),
        write=st.sampled_from(["copy-back", "write-through", "write-through-allocate"]),
        split=st.booleans(),
        purge=st.one_of(st.none(), st.integers(1, 300)),
        warmup=st.integers(0, 300),
    )
    def test_property_equivalence(
        self, seed, capacity_lines, associativity, write, split, purge, warmup
    ):
        trace = random_trace(seed, length=400)
        policy = {
            "copy-back": COPY_BACK,
            "write-through": WRITE_THROUGH,
            "write-through-allocate": WRITE_THROUGH_ALLOCATE,
        }[write]
        geometry = CacheGeometry(capacity_lines * 16, 16, associativity=associativity)
        organization_cls = SplitCache if split else UnifiedCache
        make = lambda: organization_cls(geometry, write_policy=policy)
        (generic, generic_state), (kernel, kernel_state) = reports_and_state(
            trace, make, purge_interval=purge, warmup=warmup
        )
        assert kernel == generic
        assert kernel_state == generic_state

    @pytest.mark.parametrize("purge_interval", [None, 71])
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_kernel_resumes_from_existing_state(self, policy, purge_interval):
        # A warm cache fed to the kernel must behave exactly like the same
        # warm cache fed to the generic engine: the dict loop seeds its
        # dicts from, and writes them back to, the organization's own sets,
        # and RANDOM continues drawing from the cache's own generators.
        first = random_trace(seed="warm-a", length=300)
        second = random_trace(seed="warm-b", length=300)
        results = []
        for engine in ("generic", "kernel"):
            organization = UnifiedCache(
                CacheGeometry(512, 16, associativity=2),
                replacement=policy_factory(policy, seed=5),
            )
            simulate(first, organization, engine=engine)
            report = simulate(
                second,
                organization,
                engine=engine,
                purge_interval=purge_interval,
                allow_warm=True,
            )
            state = [list(lines.items()) for lines in organization.cache._sets]
            rngs = _rng_states(organization) if policy == "random" else None
            results.append((report.overall, state, rngs))
        assert results[0] == results[1]

    def test_one_lean_bundle_serves_every_warmup(self):
        # Cold set-associative LRU replays with and without a warmup reset
        # share one memoized bundle, and that bundle holds only what the
        # stack-distance replay reads.
        trace = random_trace(seed="bundle-footprint", length=5000)
        make = lambda: UnifiedCache(CacheGeometry(1024, 16, associativity=2))
        for warmup in (0, 150):
            (generic, generic_state), (kernel, kernel_state) = reports_and_state(
                trace, make, purge_interval=97, warmup=warmup
            )
            assert kernel == generic
            assert kernel_state == generic_state
        compiled = trace.compiled(16)
        bundles = [
            value for key, (value, _size) in compiled._memo.items() if key[0] == "replay"
        ]
        assert len(bundles) == 1
        assert _held_bytes(bundles[0]) / len(compiled) <= 80


# ORGANIZATIONS with the replacement factory left as a parameter, for the
# FIFO/RANDOM equivalence grid below.
POLICY_ORGANIZATIONS = {
    "unified-full": lambda r: UnifiedCache(CacheGeometry(512, 16), replacement=r),
    "unified-2way": lambda r: UnifiedCache(
        CacheGeometry(1024, 16, associativity=2), replacement=r
    ),
    "unified-direct": lambda r: UnifiedCache(
        CacheGeometry(256, 16, associativity=1), replacement=r
    ),
    "unified-wt": lambda r: UnifiedCache(
        CacheGeometry(512, 16), replacement=r, write_policy=WRITE_THROUGH
    ),
    "unified-wta": lambda r: UnifiedCache(
        CacheGeometry(512, 16), replacement=r, write_policy=WRITE_THROUGH_ALLOCATE
    ),
    "split": lambda r: SplitCache(
        CacheGeometry(512, 16, associativity=4), replacement=r
    ),
    "split-fetch-data": lambda r: SplitCache(
        CacheGeometry(256, 16), replacement=r, fetch_routing="data"
    ),
    "split-wt": lambda r: SplitCache(
        CacheGeometry(512, 16), replacement=r, write_policy=WRITE_THROUGH
    ),
}


def _rng_states(organization):
    """Bit-generator state of every per-set random policy, in set order."""
    members, _routing = organization.replay_plan()
    return [
        policy._rng.bit_generator.state
        for cache in members
        for policy in cache._policies
    ]


class TestPolicyKernelEquivalence:
    """FIFO and RANDOM replay kernels against the generic engine.

    Same contract as the LRU suite above — every counter and the final
    per-set contents must match bit-for-bit — plus, for RANDOM, the
    per-set generator states must agree afterwards: the kernel draws
    victims from the cache's own rngs, consuming the exact sequence the
    generic engine would.
    """

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("schedule", range(len(SCHEDULES)))
    def test_identical_stats_and_state(self, policy, organization, schedule):
        trace = random_trace(seed=f"{policy}-{organization}-{schedule}")
        build = POLICY_ORGANIZATIONS[organization]
        # A fresh factory per organization: the random factory is stateful
        # (each call spawns the next per-set seed), so sharing one between
        # the two engines would give them different rng streams.
        make = lambda: build(policy_factory(policy, seed=schedule))
        (generic, generic_state), (kernel, kernel_state) = reports_and_state(
            trace, make, **SCHEDULES[schedule]
        )
        assert kernel == generic
        assert kernel_state == generic_state

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity_lines=st.sampled_from([8, 16, 64]),
        associativity=st.sampled_from([1, 2, 4, None]),
        split=st.booleans(),
        purge=st.one_of(st.none(), st.integers(1, 300)),
        warmup=st.integers(0, 300),
    )
    def test_property_equivalence(
        self, policy, seed, capacity_lines, associativity, split, purge, warmup
    ):
        trace = random_trace(seed, length=400)
        geometry = CacheGeometry(capacity_lines * 16, 16, associativity=associativity)
        organization_cls = SplitCache if split else UnifiedCache
        make = lambda: organization_cls(
            geometry, replacement=policy_factory(policy, seed=seed)
        )
        (generic, generic_state), (kernel, kernel_state) = reports_and_state(
            trace, make, purge_interval=purge, warmup=warmup
        )
        assert kernel == generic
        assert kernel_state == generic_state

    def test_random_kernel_consumes_identical_rng_sequence(self):
        trace = random_trace(seed="rng-sequence", length=800)
        states = []
        for engine in ("generic", "kernel"):
            organization = UnifiedCache(
                CacheGeometry(256, 16, associativity=4),
                replacement=policy_factory("random", seed=41),
            )
            simulate(trace, organization, engine=engine)
            states.append(_rng_states(organization))
        assert states[0] == states[1]


class TestKernelSelection:
    def test_standard_organization_qualifies(self):
        assert can_replay(UnifiedCache(CacheGeometry(512, 16)))
        assert can_replay(SplitCache(CacheGeometry(512, 16)))
        assert can_replay(
            UnifiedCache(CacheGeometry(512, 16), write_policy=WRITE_THROUGH)
        )

    def test_prefetch_disqualifies(self):
        organization = UnifiedCache(
            CacheGeometry(512, 16), fetch_policy=FetchPolicy.PREFETCH_ALWAYS
        )
        assert not can_replay(organization)
        with pytest.raises(ValueError, match="does not qualify"):
            simulate(random_trace(1, length=10), organization, engine="kernel")

    def test_fifo_and_random_now_qualify(self):
        for name in ("fifo", "random"):
            organization = UnifiedCache(
                CacheGeometry(512, 16), replacement=policy_factory(name)
            )
            assert can_replay(organization)

    def test_lfu_replacement_disqualifies(self):
        organization = UnifiedCache(
            CacheGeometry(512, 16), replacement=policy_factory("lfu")
        )
        assert not can_replay(organization)

    def test_write_combining_disqualifies(self):
        policy = WritePolicy(
            WriteStrategy.WRITE_THROUGH, allocate_on_write=False, combining_bytes=4
        )
        assert not can_replay(
            UnifiedCache(CacheGeometry(512, 16), write_policy=policy)
        )

    def test_auto_engine_falls_back(self):
        # auto on a disqualified organization silently takes the generic
        # engine and still produces the right answer.
        make = lambda: UnifiedCache(
            CacheGeometry(512, 16), replacement=policy_factory("lfu")
        )
        trace = random_trace(seed="fallback", length=200)
        auto = simulate(trace, make(), engine="auto")
        generic = simulate(trace, make(), engine="generic")
        assert auto.overall == generic.overall

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            simulate(random_trace(2, length=5), UnifiedCache(CacheGeometry(64, 16)), engine="warp")


class TestAllAssociativitySweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hit_counts_match_direct_simulation(self, seed):
        trace = random_trace(seed, length=500)
        lines = trace.compiled(16).lines
        for num_sets in (1, 4, 16):
            hits, total = all_associativity_hit_counts(lines, num_sets, max_ways=4)
            assert total == len(lines)
            assert hits[0] == 0
            assert (np.diff(hits) >= 0).all()  # inclusion property
            for way in (1, 2, 4):
                geometry = CacheGeometry(num_sets * way * 16, 16, associativity=way)
                report = simulate(trace, UnifiedCache(geometry), engine="generic")
                assert int(hits[way]) == report.overall.references - report.overall.misses

    def test_resets_match_purged_stack_profile(self):
        # Purging every set at the same instant preserves the inclusion
        # property; hit counts must match a simulation purged at the same
        # expanded positions.  Use num_sets=1 so purge positions map
        # directly onto trace references (single-line accesses).
        rng = np.random.default_rng(7)
        trace = Trace(
            rng.integers(0, 4, 300),
            rng.integers(0, 256, 300) * 16,
            np.full(300, 4),
            TraceMetadata(name="reset-check"),
        )
        lines = trace.compiled(16).lines
        interval = 50
        resets = np.arange(interval, len(lines), interval)
        hits, _total = all_associativity_hit_counts(lines, 1, max_ways=8, resets=resets)
        for way in (1, 4, 8):
            geometry = CacheGeometry(way * 16, 16)
            report = simulate(
                trace, UnifiedCache(geometry), engine="generic", purge_interval=interval
            )
            assert int(hits[way]) == report.overall.references - report.overall.misses

    @pytest.mark.parametrize("seed", ["surface-0", "surface-1"])
    def test_surface_bit_identical_to_simulation(self, seed):
        trace = random_trace(seed, length=500)
        ways = (1, 2, 4, None)
        capacities = (256, 1024)
        surface = associativity_miss_surface(trace, ways, capacities)
        for i, way in enumerate(ways):
            for j, capacity in enumerate(capacities):
                geometry = CacheGeometry(capacity, 16, associativity=way)
                report = simulate(trace, UnifiedCache(geometry), engine="generic")
                assert surface[i, j] == report.miss_ratio

    def test_validation(self):
        trace = random_trace(3, length=20)
        lines = trace.compiled(16).lines
        with pytest.raises(ValueError, match="power of two"):
            all_associativity_hit_counts(lines, 3, 4)
        with pytest.raises(ValueError, match="positive"):
            all_associativity_hit_counts(lines, 4, 0)
        with pytest.raises(ValueError, match="multiples"):
            associativity_miss_surface(trace, (1,), (100,))
        with pytest.raises(ValueError, match="divide"):
            associativity_miss_surface(trace, (8,), (64,))
        with pytest.raises(ValueError, match="positive"):
            associativity_miss_surface(trace, (0,), (256,))

    def test_empty_stream(self):
        hits, total = all_associativity_hit_counts(np.empty(0, dtype=np.int64), 4, 4)
        assert total == 0
        assert (hits == 0).all()

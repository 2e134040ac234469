"""Engine-equivalence suite for the replay schedule knobs.

:mod:`tests.core.test_kernels` sweeps organizations; this suite pins the
*schedule* corner cases — every meaningful interplay of ``limit``,
``warmup`` and ``purge_interval``, including the degenerate
``limit < warmup`` and ``limit == warmup`` edges where nothing is
measured — and demands bit-identical reports and final cache state from
every engine: the generic per-reference loop, the kernel's vectorized
cold-LRU path, the kernel's dict loops (no-allocate LRU, FIFO, RANDOM),
and its miss-stream replay of direct-mapped primaries carrying miss-path
mechanisms.  It also pins mechanism statistics across campaign worker
counts: fan-out must never change a result.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WRITE_THROUGH,
    WRITE_THROUGH_ALLOCATE,
    CacheGeometry,
    MechanismConfig,
    SplitCache,
    UnifiedCache,
    can_replay,
    policy_factory,
    simulate,
)

from .test_kernels import random_trace

_DM = CacheGeometry(512, 16, 1)


def _with(config, geometry=_DM, **kwargs):
    return lambda: UnifiedCache(geometry, miss_path=config.build(16), **kwargs)


_VC = MechanismConfig(victim_entries=4)
_MC = MechanismConfig(miss_entries=4)
_SB = MechanismConfig(stream_buffers=4, stream_depth=4)

#: Miss-path organizations the kernel replays miss by miss (direct-mapped
#: primaries).  ``l2-back-invalidating`` gives the L2 no more capacity
#: than the primary, wider lines and one way, so its replacements evict
#: resident primary lines all the time — the injected-miss rule's case.
MISS_PATH = {
    "vc": _with(_VC),
    "mc": _with(_MC),
    "sb": _with(_SB),
    "vc+sb": _with(MechanismConfig(victim_entries=4, stream_buffers=4)),
    "mc+sb": _with(MechanismConfig(miss_entries=4, stream_buffers=4)),
    "l2": _with(MechanismConfig(l2_size=4096, l2_line_size=32, l2_associativity=4)),
    "fifo-vc+l2": _with(
        MechanismConfig(victim_entries=2, l2_size=2048, l2_line_size=32),
        replacement=policy_factory("fifo"),
    ),
    "write-through-vc": _with(_VC, write_policy=WRITE_THROUGH_ALLOCATE),
    "split-shared-chain": lambda: SplitCache(
        CacheGeometry(256, 16, 1),
        _DM,
        miss_path=MechanismConfig(
            victim_entries=4, stream_buffers=2, l2_size=1024, l2_line_size=32,
            l2_associativity=2,
        ).build(16),
    ),
    "l2-back-invalidating": _with(
        MechanismConfig(l2_size=512, l2_line_size=64, l2_associativity=1)
    ),
}


#: Engine variants: (name, organization factory).  The kernel picks its
#: vectorized path only for cold allocate-on-write LRU, its dict loops for
#: the next three and its miss-stream replay for the miss-path variants
#: (see the kernel-selection matrix in
#: ``repro.core.kernels.lru_demand_replay``).
ENGINES = {
    "lru-vectorized": lambda: UnifiedCache(CacheGeometry(512, 16, 2)),
    "lru-dict": lambda: UnifiedCache(
        CacheGeometry(512, 16, 2), write_policy=WRITE_THROUGH
    ),
    "fifo-dict": lambda: UnifiedCache(
        CacheGeometry(512, 16, 2), replacement=policy_factory("fifo")
    ),
    "random-dict": lambda: UnifiedCache(
        CacheGeometry(512, 16, 2), replacement=policy_factory("random")
    ),
    **{f"miss-stream-{name}": make for name, make in MISS_PATH.items()},
}

#: The schedule grid.  Trace length is 600, so these cover: plain runs,
#: purges landing inside and exactly on the warmup boundary, limits
#: cutting the purge clock short, and the zero-measured edges.
SCHEDULES = {
    "plain": dict(),
    "limit-below-warmup": dict(limit=100, warmup=200),
    "limit-equals-warmup": dict(limit=200, warmup=200),
    "limit-just-above-warmup": dict(limit=201, warmup=200),
    "purge-inside-warmup": dict(purge_interval=50, warmup=175, limit=400),
    "purge-on-warmup-boundary": dict(purge_interval=100, warmup=200, limit=450),
    "purge-on-limit-boundary": dict(purge_interval=100, warmup=150, limit=500),
    "purge-beyond-limit": dict(purge_interval=1000, warmup=50, limit=300),
    "limit-beyond-trace": dict(limit=10_000, warmup=100, purge_interval=77),
    "warmup-beyond-limit-and-trace": dict(limit=10_000, warmup=20_000),
}


def _component_state(component) -> dict:
    state = {}
    if hasattr(component, "resident_lines"):
        state["resident"] = component.resident_lines()
    if hasattr(component, "pending_lines"):
        state["pending"] = component.pending_lines()
    if hasattr(component, "cache"):  # the L2's own array
        state["l2"] = [list(lines.items()) for lines in component.cache._sets]
    return state


def _run(make, trace, engine, schedule):
    """Report blocks plus every piece of final state, primaries and chain."""
    organization = make()
    report = simulate(trace, organization, engine=engine, **schedule)
    state = [
        list(lines.items())
        for cache in organization.replay_plan()[0]
        for lines in cache._sets
    ]
    if organization.miss_path is not None:
        state += [_component_state(c) for c in organization.miss_path.components]
    fields = (
        report.references,
        report.overall,
        report.instruction,
        report.data,
        report.mechanisms,
    )
    return report, fields, state


class TestScheduleEquivalence:
    @pytest.mark.parametrize("variant", ENGINES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bit_identical_across_engines(self, variant, schedule):
        trace = random_trace(seed=f"{variant}/{schedule}")
        make = ENGINES[variant]
        _, generic, generic_state = _run(make, trace, "generic", SCHEDULES[schedule])
        _, kernel, kernel_state = _run(make, trace, "kernel", SCHEDULES[schedule])
        assert kernel == generic
        assert kernel_state == generic_state

    @pytest.mark.parametrize("schedule", ["limit-below-warmup", "limit-equals-warmup"])
    @pytest.mark.parametrize("engine", ["generic", "kernel"])
    def test_zero_measured_references(self, schedule, engine):
        # When the limit exhausts the stream inside the warmup, nothing
        # is measured: zero references and NaN ratios, on every engine.
        trace = random_trace(seed=schedule)
        report, _, _ = _run(
            ENGINES["lru-vectorized"], trace, engine, SCHEDULES[schedule]
        )
        assert report.references == 0
        assert report.overall.references == 0
        assert math.isnan(report.miss_ratio)

    def test_warmup_clamps_to_limit_not_trace(self):
        # limit=100 < warmup=200: the warmup replays only the first 100
        # references, and they still advance the purge clock.
        trace = random_trace(seed="clamp")
        organization = UnifiedCache(CacheGeometry(512, 16, 2))
        report = simulate(
            trace, organization, limit=100, warmup=200, purge_interval=40
        )
        assert report.references == 0
        assert organization.cache.stats.references == 0  # reset after warmup
        # The purge clock ran inside the warmup (purges at 40 and 80): only
        # references 81..100 survive, fewer lines than a purge-free warmup.
        unpurged = UnifiedCache(CacheGeometry(512, 16, 2))
        simulate(trace, unpurged, limit=100, warmup=200)
        assert 0 < len(organization.cache) < len(unpurged.cache)


class TestMissPathEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(sorted(MISS_PATH)),
        purge=st.one_of(st.none(), st.integers(1, 400)),
        warmup=st.integers(0, 400),
        max_size=st.sampled_from([4, 40, 80]),
    )
    def test_property_equivalence(self, seed, variant, purge, warmup, max_size):
        # Sizes up to 80 bytes straddle several 16-byte lines per access.
        trace = random_trace(seed, length=800, max_size=max_size)
        schedule = dict(purge_interval=purge, warmup=warmup)
        _, generic, generic_state = _run(MISS_PATH[variant], trace, "generic", schedule)
        _, kernel, kernel_state = _run(MISS_PATH[variant], trace, "kernel", schedule)
        assert kernel == generic
        assert kernel_state == generic_state

    def test_back_invalidation_injects_misses(self):
        # The heavy-L2 case must really evict resident primary lines,
        # or the schedule grid never exercises the injected-miss rule.
        trace = random_trace(seed="back-invalidation", length=2000)
        report = simulate(trace, MISS_PATH["l2-back-invalidating"]())
        unbacked = simulate(trace, UnifiedCache(_DM))
        assert report.overall.misses > unbacked.overall.misses

    @pytest.mark.parametrize(
        "make",
        [
            _with(_VC, geometry=CacheGeometry(512, 16, 2)),
            _with(_VC, replacement=policy_factory("random", seed=3)),
            _with(_VC, write_policy=WRITE_THROUGH),
        ],
        ids=["two-way", "random", "no-allocate"],
    )
    def test_out_of_scope_members_take_the_generic_engine(self, make):
        assert not can_replay(make())

    def test_warm_primary_takes_the_generic_engine(self):
        organization = MISS_PATH["vc"]()
        simulate(random_trace(seed="warm", length=100), organization)
        assert not can_replay(organization)


class TestCampaignWorkerEquivalence:
    def test_mechanism_stats_identical_across_worker_counts(self):
        from repro.campaign import run_campaign
        from repro.core.jobs import CampaignCell, MechanismStudyJob, TraceSpec
        from repro.core.misspath import MechanismConfig

        spec = TraceSpec.catalog("VCCOM", length=4000)
        config = MechanismConfig(
            victim_entries=4, stream_buffers=2, stream_depth=4, l2_size=8192
        )
        cells = [
            CampaignCell(
                label=f"assoc-{ways}",
                trace=spec,
                job=MechanismStudyJob(
                    size=1024, associativity=ways, mechanisms=config
                ),
            )
            for ways in (1, 2)
        ]
        serial = run_campaign(cells, workers=1, cache=False, raise_on_error=True)
        pooled = run_campaign(cells, workers=2, cache=False, raise_on_error=True)
        for one, two in zip(serial.outcomes, pooled.outcomes):
            assert one.value.overall == two.value.overall
            assert one.value.mechanism_names == two.value.mechanism_names
            for (name, block), (_, other) in zip(
                one.value.mechanisms, two.value.mechanisms
            ):
                assert block == other, name
            assert one.value.effective_miss_ratio == pytest.approx(
                two.value.effective_miss_ratio, nan_ok=True
            )

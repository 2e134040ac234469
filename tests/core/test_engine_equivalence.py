"""Engine-equivalence suite for the replay schedule knobs.

:mod:`tests.core.test_kernels` sweeps organizations; this suite pins the
*schedule* corner cases — every meaningful interplay of ``limit``,
``warmup`` and ``purge_interval``, including the degenerate
``limit < warmup`` and ``limit == warmup`` edges where nothing is
measured — and demands bit-identical reports and final cache state from
every engine: the generic per-reference loop, the kernel's vectorized
cold-LRU path, the kernel's dict loops (no-allocate LRU, FIFO, RANDOM),
and its miss-stream replay of cold direct-mapped primaries, with or
without miss-path mechanisms.  It also pins mechanism statistics across
campaign worker counts: fan-out must never change a result.
"""

import math

import numpy as np
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
    kernels,
    policy_factory,
    simulate,
)
from repro.trace import AccessKind, Trace, TraceMetadata

from .test_kernels import random_trace

_DM = CacheGeometry(512, 16, 1)


def _with(config, geometry=_DM, **kwargs):
    return lambda: UnifiedCache(geometry, miss_path=config.build(16), **kwargs)


_VC = MechanismConfig(victim_entries=4)
_MC = MechanismConfig(miss_entries=4)
_SB = MechanismConfig(stream_buffers=4, stream_depth=4)

#: Miss-path organizations the kernel replays from the miss stream
#: (direct-mapped primaries): one component at a time without an L2, in
#: array passes with a lone L2 that back-invalidates no resident line,
#: miss by miss otherwise.  ``vc+mc`` probes the miss cache only on
#: victim-cache misses but fills it on every miss.
#: ``l2-back-invalidating`` gives the L2 no more capacity than the
#: primary, wider lines and one way, so its replacements evict resident
#: primary lines all the time — the injected-miss rule's case.
MISS_PATH = {
    "vc": _with(_VC),
    "mc": _with(_MC),
    "sb": _with(_SB),
    "vc+sb": _with(MechanismConfig(victim_entries=4, stream_buffers=4)),
    "mc+sb": _with(MechanismConfig(miss_entries=4, stream_buffers=4)),
    "vc+mc": _with(MechanismConfig(victim_entries=4, miss_entries=4)),
    "vc+mc+sb": _with(
        MechanismConfig(victim_entries=2, miss_entries=4, stream_buffers=2)
    ),
    "split-vc+sb": lambda: SplitCache(
        CacheGeometry(256, 16, 1),
        _DM,
        miss_path=MechanismConfig(victim_entries=4, stream_buffers=2).build(16),
    ),
    "write-through-mc+sb": _with(
        MechanismConfig(miss_entries=4, stream_buffers=4),
        write_policy=WRITE_THROUGH_ALLOCATE,
    ),
    "fifo-sb": _with(_SB, replacement=policy_factory("fifo")),
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
    "split-l2": lambda: SplitCache(
        CacheGeometry(256, 16, 1),
        _DM,
        miss_path=MechanismConfig(
            l2_size=4096, l2_line_size=32, l2_associativity=2
        ).build(16),
    ),
    "write-through-l2": _with(
        MechanismConfig(l2_size=4096, l2_line_size=32, l2_associativity=4),
        write_policy=WRITE_THROUGH_ALLOCATE,
    ),
    "l2-full-ratio1": _with(MechanismConfig(l2_size=4096, l2_line_size=16)),
}


#: Engine variants: (name, organization factory).  The kernel picks its
#: vectorized path only for cold allocate-on-write set-associative LRU,
#: its dict loops for the next three and its miss-stream replay for the
#: ``dm-*`` and miss-path variants (see the kernel-selection matrix in
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
    "dm-lru": lambda: UnifiedCache(_DM),
    "dm-fifo": lambda: UnifiedCache(_DM, replacement=policy_factory("fifo")),
    "dm-write-through-allocate": lambda: UnifiedCache(
        _DM, write_policy=WRITE_THROUGH_ALLOCATE
    ),
    "dm-split": lambda: SplitCache(CacheGeometry(256, 16, 1), _DM),
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
    @settings(max_examples=40, deadline=None)
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

    @pytest.mark.parametrize("variant", MISS_PATH)
    def test_reset_then_purge_with_no_miss_between(self, variant):
        # Scattered references fill the mechanisms; from reference 90 on,
        # a four-line loop hits, so no miss lies between the warmup reset
        # at 95 and the purge at 100.  The reset must still come first.
        rng = np.random.default_rng(95)
        kinds = np.full(600, int(AccessKind.READ))
        addresses = np.where(
            np.arange(600) < 90, rng.integers(0, 4096, size=600), np.arange(600) % 4 * 16
        )
        trace = Trace(kinds, addresses, np.full(600, 4), TraceMetadata(name="loop"))
        schedule = dict(warmup=95, purge_interval=100)
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


class TestMissCachePass:
    """The miss cache's array pass against its own hooks, miss by miss."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_several_purges_between_two_misses(self, warm):
        from repro.core.misspath import MissCache

        rng = np.random.default_rng(7)
        n = 60
        m_kind = rng.integers(0, 4, size=n)
        m_line = rng.integers(0, 9, size=n)
        probed = rng.random(n) < 0.7
        # Three purges before miss 10, two before miss 40, two after the
        # last miss; the warmup reset falls before miss 25.
        stops = np.array([10, 10, 10, 40, 40, n, n])
        reset_stop = 25
        counted = stops > reset_stop
        measured = np.arange(n) >= reset_stop

        def fresh():
            cache = MissCache(4)
            if warm:
                for line in (3, 5, 7):
                    cache.on_fill(0, line, None)
            return cache

        expected = fresh()
        purges = list(stops)
        for j in range(n + 1):
            if j == reset_stop:
                expected.reset_statistics()
            while purges and purges[0] == j:
                purges.pop(0)
                expected.purge()
            if j == n:
                break
            kind, line = int(m_kind[j]), int(m_line[j])
            source = None
            if probed[j] and expected.probe(kind, line) is not None:
                source = expected
            expected.on_fill(kind, line, source)

        replayed = fresh()
        hits = kernels._replay_miss_cache(
            replayed, m_kind, m_line, probed, stops, counted, measured, True
        )
        assert replayed.stats == expected.stats
        assert replayed.resident_lines() == expected.resident_lines()
        assert hits.any() and expected.stats.purge_pushes > 0


def _has_l2(variant: str) -> bool:
    return any(c.name == "l2" for c in MISS_PATH[variant]().miss_path.components)


def _lone_l2(variant: str) -> bool:
    return [c.name for c in MISS_PATH[variant]().miss_path.components] == ["l2"]


def _refuse(*args, **kwargs):
    raise AssertionError("entered the per-miss loop")


def _resident_back_invalidations(make, trace, **schedule) -> int:
    """How many primary lines the generic engine's L2 back-invalidates
    while they are resident."""
    organization = make()
    dropped = []
    for cache in organization.replay_plan()[0]:
        invalidate = cache.invalidate

        def counting(address, invalidate=invalidate):
            flags = invalidate(address)
            dropped.append(flags is not None)
            return flags

        cache.invalidate = counting
    simulate(trace, organization, engine="generic", **schedule)
    return sum(dropped)


class TestMissStreamRoute:
    """Which miss-stream replay a mechanism organization takes."""

    @pytest.mark.parametrize("variant", [v for v in MISS_PATH if not _has_l2(v)])
    def test_chains_without_an_l2_skip_the_per_miss_loop(self, monkeypatch, variant):
        monkeypatch.setattr(kernels, "_replay_miss_events", _refuse)
        trace = random_trace(seed=f"route/{variant}")
        simulate(trace, MISS_PATH[variant](), engine="kernel", purge_interval=150)

    def test_no_chain_skips_the_per_miss_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "_replay_miss_events", _refuse)
        trace = random_trace(seed="route/no-chain")
        simulate(trace, UnifiedCache(_DM), engine="kernel", warmup=100)

    @pytest.mark.parametrize(
        "variant", [v for v in MISS_PATH if _lone_l2(v) and v != "l2-back-invalidating"]
    )
    def test_a_lone_l2_without_back_invalidation_skips_the_per_miss_loop(
        self, monkeypatch, variant
    ):
        # The L2 does replace lines here, but never one covering a
        # resident primary line.
        trace = random_trace(seed=f"route/{variant}", length=1500)
        schedule = dict(purge_interval=1500, warmup=50)
        assert _resident_back_invalidations(MISS_PATH[variant], trace, **schedule) == 0
        monkeypatch.setattr(kernels, "_replay_miss_events", _refuse)
        organization = MISS_PATH[variant]()
        simulate(trace, organization, engine="kernel", **schedule)
        assert organization.miss_path.components[0].stats.replacement_pushes > 0

    @pytest.mark.parametrize(
        "variant",
        [v for v in MISS_PATH if _has_l2(v) and not _lone_l2(v)]
        + ["l2-back-invalidating"],
    )
    def test_chains_with_an_l2_take_the_per_miss_loop(self, monkeypatch, variant):
        # Every chain with an L2 except a lone one that never
        # back-invalidates a resident line; that case skips the loop.
        calls = []
        loop = kernels._replay_miss_events

        def record(*args, **kwargs):
            calls.append(args)
            return loop(*args, **kwargs)

        monkeypatch.setattr(kernels, "_replay_miss_events", record)
        trace = random_trace(seed=f"route/{variant}")
        simulate(trace, MISS_PATH[variant](), engine="kernel")
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", [v for v in MISS_PATH if _lone_l2(v)])
    def test_a_lone_l2_falls_back_exactly_when_it_back_invalidates(
        self, monkeypatch, variant
    ):
        # The array pass must give way to the per-miss loop on the first
        # resident back-invalidation, and only then.
        loop = kernels._replay_miss_events
        for seed in range(12):
            trace = random_trace(seed=f"fallback/{variant}/{seed}", length=800)
            schedule = dict(purge_interval=[None, 300][seed % 2], warmup=seed * 20)
            calls = []

            def record(*args, **kwargs):
                calls.append(args)
                return loop(*args, **kwargs)

            monkeypatch.setattr(kernels, "_replay_miss_events", record)
            simulate(trace, MISS_PATH[variant](), engine="kernel", **schedule)
            monkeypatch.setattr(kernels, "_replay_miss_events", loop)
            resident = _resident_back_invalidations(MISS_PATH[variant], trace, **schedule)
            assert len(calls) == (resident > 0), (seed, resident)


def _memo_kinds(trace) -> list[str]:
    """The artifact kinds the kernel memoized on ``trace``'s 16 B view."""
    return [key[0] for key in trace.compiled(16)._memo]


class TestDirectMappedRoute:
    """Which kernel path a plain direct-mapped organization takes."""

    def test_cold_plain_direct_mapped_streams_misses(self):
        trace = random_trace(seed="dm-route")
        simulate(trace, UnifiedCache(_DM), engine="kernel")
        assert _memo_kinds(trace) == ["miss-stream"]

    def test_baseline_shares_the_classification_with_its_variant(self):
        trace = random_trace(seed="dm-share")
        simulate(trace, UnifiedCache(_DM), engine="kernel")
        simulate(trace, MISS_PATH["vc"](), engine="kernel")
        assert _memo_kinds(trace) == ["miss-stream"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: UnifiedCache(_DM, replacement=policy_factory("random", seed=3)),
            lambda: UnifiedCache(_DM, write_policy=WRITE_THROUGH),
        ],
        ids=["random", "no-allocate"],
    )
    @pytest.mark.parametrize("schedule", ["plain", "purge-on-warmup-boundary"])
    def test_out_of_scope_members_keep_their_paths(self, make, schedule):
        trace = random_trace(seed=f"dm-out/{schedule}")
        _, kernel, kernel_state = _run(make, trace, "kernel", SCHEDULES[schedule])
        assert "miss-stream" not in _memo_kinds(trace)
        _, generic, generic_state = _run(make, trace, "generic", SCHEDULES[schedule])
        assert kernel == generic
        assert kernel_state == generic_state

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_warm_direct_mapped_keeps_its_path(self, policy):
        def warm():
            organization = UnifiedCache(_DM, replacement=policy_factory(policy))
            simulate(random_trace(seed="dm-warmer", length=200), organization)
            return organization

        trace = random_trace(seed=f"dm-warm/{policy}")
        schedule = dict(allow_warm=True)
        _, kernel, kernel_state = _run(warm, trace, "kernel", schedule)
        assert "miss-stream" not in _memo_kinds(trace)
        _, generic, generic_state = _run(warm, trace, "generic", schedule)
        assert kernel == generic
        assert kernel_state == generic_state


class TestCampaignWorkerEquivalence:
    def test_mechanism_stats_identical_across_worker_counts(self):
        from repro.campaign import run_campaign
        from repro.core.jobs import CampaignCell, SimulateJob, TraceSpec
        from repro.core.misspath import MechanismConfig

        spec = TraceSpec.catalog("VCCOM", length=4000)
        config = MechanismConfig(
            victim_entries=4, stream_buffers=2, stream_depth=4, l2_size=8192
        )
        cells = [
            CampaignCell(
                label=f"assoc-{ways}",
                trace=spec,
                job=SimulateJob(
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

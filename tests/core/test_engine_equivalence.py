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
        # Lines in recency order with their flags (a victim cache's
        # survive a swap back).
        state["resident"] = list(component._lines.items())
    if hasattr(component, "pending_lines"):
        state["pending"] = component.pending_lines()
        state["clock"] = (list(component._used), component._tick)
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


#: Purges and the warmup reset between misses, in firing order, as
#: ``(stop, tag)``: the event fires before miss ``stop``.  With purges:
#: three before miss 10, one the reset discounts and one it counts at
#: miss 25, and two before the last dozen misses.
_EVENTS = {
    "purges": [
        (10, "purge"), (10, "purge"), (10, "purge"), (25, "purge"), (25, "reset"),
        (25, "purge"), (40, "purge"), (48, "purge"), (48, "purge"),
    ],
    "reset-only": [(25, "reset")],
}


def _schedule_arrays(events, n: int):
    """``(stops, counted_purge, measured)`` for an :data:`_EVENTS` list."""
    stops = np.array([stop for stop, tag in events if tag == "purge"], dtype=np.int64)
    reset = [tag for _, tag in events].index("reset")
    counted = np.array(
        [i > reset for i, (_, tag) in enumerate(events) if tag == "purge"], dtype=bool
    )
    return stops, counted, np.arange(n) >= events[reset][0]


def _drive(component, events, n: int, step) -> None:
    """Run ``step(j)`` for every miss, firing ``events`` before the miss
    at their stop."""
    pending = list(events)
    for j in range(n + 1):
        while pending and pending[0][0] == j:
            if pending.pop(0)[1] == "purge":
                component.purge()
            else:
                component.reset_statistics()
        if j < n:
            step(j)


class TestVictimCacheAndStreamBufferPasses:
    """The victim cache's and stream buffers' lean loops against their
    own hooks, miss by miss."""

    @pytest.mark.parametrize("events", _EVENTS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("entries", [1, 4])
    def test_victim_cache(self, events, warm, entries):
        from repro.core import FLAG_DATA, FLAG_DIRTY, FLAG_REFERENCED
        from repro.core.misspath import VictimCache

        # Seed 10 makes every case swap some line back dirty twice.
        rng = np.random.default_rng(10)
        n = 60
        m_kind = rng.integers(0, 4, size=n)
        m_line = rng.integers(0, 8, size=n)
        probed = rng.random(n) < 0.8
        # A primary of four direct-mapped sets: miss j evicts the line the
        # set's previous miss filled, unless a purge emptied the set.
        m_victim = np.full(n, -1)
        stops, counted, measured = _schedule_arrays(_EVENTS[events], n)
        for j in range(n):
            begin = stops[stops <= j].max(initial=0)
            same = np.flatnonzero(m_line[begin:j] % 4 == m_line[j] % 4)
            if len(same):
                m_victim[j] = begin + same[-1]
        m_standard = np.where(
            m_victim >= 0,
            rng.choice([FLAG_REFERENCED, FLAG_REFERENCED | FLAG_DATA,
                        FLAG_REFERENCED | FLAG_DATA | FLAG_DIRTY], size=n),
            0,
        )

        def fresh():
            cache = VictimCache(entries)
            if warm:
                for line in (1, 2, 3):
                    cache.on_evict(line, FLAG_REFERENCED | FLAG_DATA | FLAG_DIRTY)
            return cache

        expected = fresh()
        extra = np.zeros(n, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)

        def step(j):
            if probed[j]:
                flags = expected.probe(int(m_kind[j]), int(m_line[j]))
                if flags is not None:
                    hit[j] = True
                    extra[j] = flags
            fill = m_victim[j]
            if fill >= 0:
                expected.on_evict(int(m_line[fill]), int(m_standard[j] | extra[fill]))

        _drive(expected, _EVENTS[events], n, step)

        replayed = fresh()
        replayed_extra = np.zeros(n, dtype=np.int64)
        hits = kernels._replay_victim_cache(
            replayed, m_kind, m_line, m_victim, m_standard, replayed_extra,
            probed, stops, counted, measured, True,
        )
        assert replayed.stats == expected.stats
        assert list(replayed._lines.items()) == list(expected._lines.items())
        assert hits.tolist() == hit.tolist()
        assert replayed_extra.tolist() == extra.tolist()
        assert expected.stats.replacement_pushes > 0 and len(expected._lines)
        assert (expected.stats.purge_pushes > 0) == (events == "purges")
        # Some line swaps back dirty twice: its dirty bit survived a round
        # trip through the primary and the victim cache.
        dirty_hits = m_line[hit & (extra & FLAG_DIRTY != 0)]
        assert np.bincount(dirty_hits).max() >= 2

    @pytest.mark.parametrize("events", _EVENTS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("buffers", [1, 2, 4])
    def test_stream_buffers(self, events, warm, buffers):
        rng = np.random.default_rng(buffers)
        n = 60
        # Short sequential runs over a few lines: heads collide often.
        steps = np.where(rng.random(n) < 0.6, 1, rng.integers(-6, 6, size=n))
        m_line = np.abs(np.cumsum(steps)) % 24
        # Two misses on line 5 leave two buffers headed at 6 (with more
        # than one buffer); the miss on 6 then consumes the lower one.
        m_line[12:15] = [5, 5, 6]
        hit, shared = self._check_stream_buffers(
            buffers, warm, rng.integers(0, 4, size=n), m_line, rng.random(n) < 0.9,
            _EVENTS[events],
        )
        assert hit.any()
        assert any(shared) == (buffers > 1)

    def test_stream_buffers_left_alone_keep_their_clock(self):
        # One sequential run hits the buffer headed at 7 throughout, so
        # the other warm buffers keep the ``_used`` their probes left.
        n = 60
        hit, _ = self._check_stream_buffers(
            4, True, np.zeros(n, dtype=np.int64), 7 + np.arange(n), np.ones(n, dtype=bool),
            _EVENTS["reset-only"],
        )
        assert hit.all()

    @staticmethod
    def _check_stream_buffers(buffers, warm, m_kind, m_line, probed, events):
        """Compare the loop with the hooks; returns the hooks' hits and, per
        probe, whether two buffers shared a head."""
        from repro.core.misspath import StreamBuffers

        n = len(m_line)
        stops, counted, measured = _schedule_arrays(events, n)

        def fresh():
            component = StreamBuffers(buffers, depth=3)
            if warm:
                for line in (30, 40, 6, 41):
                    component.probe(0, line)
            return component

        expected = fresh()
        hit = np.zeros(n, dtype=bool)
        shared = []

        def step(j):
            if probed[j]:
                heads = [h for h in expected._heads if h >= 0]
                shared.append(len(set(heads)) < len(heads))
                hit[j] = expected.probe(int(m_kind[j]), int(m_line[j])) is not None

        _drive(expected, events, n, step)

        replayed = fresh()
        hits = kernels._replay_stream_buffers(
            replayed, m_kind, m_line, probed, stops, counted, measured, True
        )
        assert replayed.stats == expected.stats
        assert replayed._heads == expected._heads
        assert (replayed._used, replayed._tick) == (expected._used, expected._tick)
        assert hits.tolist() == hit.tolist()
        return hit, shared


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
        # Nor does any component run its own per-miss hooks.
        from repro.core.misspath import MissCache, StreamBuffers, VictimCache

        monkeypatch.setattr(kernels, "_replay_miss_events", _refuse)
        for cls, hook in [
            (VictimCache, "probe"), (VictimCache, "on_evict"),
            (MissCache, "probe"), (MissCache, "on_fill"), (StreamBuffers, "probe"),
        ]:
            monkeypatch.setattr(cls, hook, _refuse)
        trace = random_trace(seed=f"route/{variant}")
        simulate(
            trace, MISS_PATH[variant](), engine="kernel", purge_interval=150, warmup=100
        )

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

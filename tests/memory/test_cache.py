"""Set-associative cache with MSHRs."""

import pytest

from repro.engine.simulator import Completion, Event, Simulator
from repro.engine.stats import StatsRegistry
from repro.memory.config import CacheConfig, PipeConfig
from repro.memory.cache import Cache
from repro.memory.pipe import LatencyBandwidthPipe
from repro.memory.request import AccessKind, MemRequest


def make_cache(**kwargs):
    sim = Simulator()
    stats = StatsRegistry()
    lower = LatencyBandwidthPipe(sim, PipeConfig(latency=20), stats=stats)
    defaults = dict(size_bytes=1024, ways=2, hit_latency=2, mshrs=2)
    defaults.update(kwargs)
    cache = Cache(sim, CacheConfig(**defaults), lower, name="c", stats=stats)
    return sim, cache, stats


def req(addr, size=8, kind=AccessKind.READ, source="t"):
    return MemRequest(addr=addr, size=size, kind=kind, source=source)


class TestHitMiss:
    def test_miss_then_hit(self):
        sim, cache, stats = make_cache()
        t_miss, t_hit = [], []
        cache.submit(req(0x100)).add_callback(lambda _v: t_miss.append(sim.now))
        sim.run()
        cache.submit(req(0x108)).add_callback(lambda _v: t_hit.append(sim.now))
        start = sim.now
        sim.run()
        assert stats.get("cache.c.misses") == 1
        assert stats.get("cache.c.hits") == 1
        assert t_hit[0] - start == 2  # hit latency
        assert t_miss[0] > 20  # paid the lower-level latency

    def test_contains_and_warm(self):
        _sim, cache, _stats = make_cache()
        assert not cache.contains(0x40)
        cache.warm(0x40)
        assert cache.contains(0x40)
        assert cache.contains(0x7F)  # same line

    def test_lru_eviction(self):
        sim, cache, stats = make_cache(size_bytes=128, ways=1)  # 2 sets
        cache.warm(0)  # set 0
        cache.warm(128)  # set 0 again (1-way): evicts line 0
        assert not cache.contains(0)
        assert cache.contains(128)

    def test_dirty_eviction_writes_back(self):
        sim, cache, stats = make_cache(size_bytes=128, ways=1)
        cache.submit(req(0, kind=AccessKind.WRITE))
        sim.run()
        cache.submit(req(128))  # evicts the dirty line
        sim.run()
        assert stats.get("cache.c.writebacks") == 1

    def test_amo_marks_dirty(self):
        sim, cache, stats = make_cache(size_bytes=128, ways=1)
        cache.submit(req(0, kind=AccessKind.AMO))
        sim.run()
        cache.submit(req(128))
        sim.run()
        assert stats.get("cache.c.writebacks") == 1


class TestMSHRs:
    def test_coalescing_same_line(self):
        sim, cache, stats = make_cache()
        done = []
        cache.submit(req(0x200)).add_callback(done.append)
        cache.submit(req(0x208)).add_callback(done.append)  # same line
        sim.run()
        assert len(done) == 2
        assert stats.get("cache.c.mshr_coalesced") == 1
        # Only one fill went to the lower level.
        assert stats.get("mem.requests.t") == 1

    def test_mshr_stall_queues_and_completes(self):
        sim, cache, stats = make_cache(mshrs=1)
        done = []
        for i in range(4):
            cache.submit(req(i * 64)).add_callback(done.append)
        sim.run()
        assert len(done) == 4
        assert stats.get("cache.c.mshr_stalls") >= 1

    def test_queued_miss_that_becomes_hit(self):
        sim, cache, stats = make_cache(mshrs=1)
        done = []
        cache.submit(req(0)).add_callback(done.append)
        cache.submit(req(64)).add_callback(done.append)  # stalls (MSHR full)
        cache.submit(req(8)).add_callback(done.append)  # same line as first
        sim.run()
        assert len(done) == 3


class TestMultiLine:
    def test_request_spanning_lines(self):
        sim, cache, stats = make_cache()
        done = []
        cache.submit(req(0x38, size=16)).add_callback(done.append)  # crosses
        sim.run()
        assert len(done) == 1
        assert stats.get("cache.c.misses") == 2

    def test_flush(self):
        sim, cache, _stats = make_cache()
        cache.warm(0, dirty=True)
        cache.warm(64, dirty=False)
        assert cache.flush() == 1
        assert not cache.contains(0)


class TestHierarchy:
    def test_two_level(self):
        sim = Simulator()
        stats = StatsRegistry()
        dram = LatencyBandwidthPipe(sim, PipeConfig(latency=40), stats=stats)
        l2 = Cache(sim, CacheConfig(size_bytes=4096, ways=4, hit_latency=10,
                                    mshrs=4), dram, name="l2", stats=stats)
        l1 = Cache(sim, CacheConfig(size_bytes=512, ways=2, hit_latency=1,
                                    mshrs=2), l2, name="l1", stats=stats)
        done = []
        l1.submit(req(0)).add_callback(lambda _v: done.append(sim.now))
        sim.run()
        cold = done[0]
        # Evict from L1 (tiny) but keep in L2: second access is an L2 hit.
        for i in range(1, 9):
            l1.submit(req(i * 64))
        sim.run()
        start = sim.now
        l1.submit(req(0)).add_callback(lambda _v: done.append(sim.now - start))
        sim.run()
        assert stats.get("cache.l2.hits") >= 1
        assert done[1] < cold


class TestCompletionPath:
    """Hits hand back a pre-resolved Completion (nothing scheduled at
    submit); misses hand back an Event the fill triggers."""

    @pytest.mark.parametrize("hit_latency", [1, 2, 10])
    def test_hit_is_completion_at_hit_latency(self, hit_latency):
        sim, cache, _stats = make_cache(hit_latency=hit_latency)
        cache.warm(0x40)
        sim.run(until=7)
        handle = cache.submit(req(0x48))
        assert isinstance(handle, Completion)
        assert handle.time == 7 + hit_latency
        assert sim.pending_events == 0

        def proc():
            yield handle
            return sim.now

        assert sim.run_until(sim.process(proc())) == 7 + hit_latency

    def test_miss_is_event(self):
        sim, cache, _stats = make_cache()
        handle = cache.submit(req(0x40))
        assert isinstance(handle, Event)
        assert not handle.triggered
        sim.run_until(handle)
        assert cache.contains(0x40)

"""Latency-bandwidth pipe model (the Fig. 17 memory system)."""

from repro.engine.simulator import Completion, Simulator
from repro.memory.config import PipeConfig
from repro.memory.pipe import LatencyBandwidthPipe
from repro.memory.request import AccessKind, MemRequest


def read(addr, size=64):
    return MemRequest(addr=addr, size=size, kind=AccessKind.READ, source="t")


def test_single_request_latency():
    sim = Simulator()
    pipe = LatencyBandwidthPipe(sim, PipeConfig(latency=1, bytes_per_cycle=8))
    done = []
    pipe.submit(read(0, size=64)).add_callback(done.append)
    sim.run()
    assert done == [64 // 8 + 1]  # 8 bus cycles + 1 latency


def test_bandwidth_serializes():
    """N 64-byte requests take ~N x 8 cycles: 8 GB/s means 64B per 8 cycles
    (the 'one request every 8 cycles would be the full bandwidth' of
    §VI-A)."""
    sim = Simulator()
    pipe = LatencyBandwidthPipe(sim, PipeConfig())
    n = 50
    done = []
    for i in range(n):
        pipe.submit(read(i * 64)).add_callback(done.append)
    sim.run()
    assert done[-1] == n * 8 + 1
    assert sim.now == n * 8 + 1


def test_small_requests_waste_bandwidth():
    """8-byte requests each hold the bus one cycle: more requests/second
    but less data — why the unit 'may not be able to use all 8 GB/s'."""
    sim = Simulator()
    pipe = LatencyBandwidthPipe(sim, PipeConfig())
    done = []
    for i in range(100):
        pipe.submit(read(i * 8, size=8)).add_callback(done.append)
    sim.run()
    assert done[-1] == 100 + 1
    assert sim.now == 100 + 1
    assert pipe.bandwidth.total_bytes == 800


def test_stats_attribution():
    sim = Simulator()
    pipe = LatencyBandwidthPipe(sim, PipeConfig())
    pipe.submit(MemRequest(addr=0, size=8, kind=AccessKind.AMO, source="m"))
    pipe.submit(MemRequest(addr=8, size=8, kind=AccessKind.WRITE, source="m"))
    sim.run()
    assert pipe.stats.get("mem.requests.m") == 2
    assert pipe.stats.get("dram.bytes_read") == 8
    assert pipe.stats.get("dram.bytes_written") == 16


def test_submit_returns_completion_scheduling_nothing():
    """The pipe knows every completion time at submit: each transfer is a
    Completion whose value is its finish cycle, queued behind the bus."""
    sim = Simulator()
    pipe = LatencyBandwidthPipe(sim, PipeConfig(latency=3, bytes_per_cycle=8))
    handles = [pipe.submit(read(i * 64)) for i in range(3)]
    assert all(isinstance(h, Completion) for h in handles)
    assert [(h.time, h.value) for h in handles] == [(11, 11), (19, 19),
                                                     (27, 27)]
    assert sim.pending_events == 0

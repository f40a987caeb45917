"""System bundle: physical memory + timing model + page tables + ports.

:func:`build_memory_system` assembles everything Table I describes into a
:class:`MemorySystem`. Units talk to memory through :class:`TileLinkPort`
objects, which (a) validate transfer sizes/alignment the way the prototype's
TileLink interconnect does, and (b) attribute each request to its source for
the paper's traffic breakdowns.

Functional data access and timing are deliberately split: functional reads
and writes go straight to :attr:`MemorySystem.phys` at issue time, while the
port's events model *when* the transaction would have completed. The GC
algorithms are deterministic, so executing data effects at issue order
preserves the same results the RTL produces, while the timing models
reproduce the performance behaviour.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.faultplane import plane_from_env
from repro.engine.simulator import Simulator
from repro.engine.stats import BandwidthTracker, StatsRegistry
from repro.memory.cache import Cache
from repro.memory.config import MemorySystemConfig
from repro.memory.dram import DRAMController
from repro.memory.memimage import PhysicalMemory
from repro.memory.paging import PageTable, VIRT_OFFSET
from repro.memory.pipe import LatencyBandwidthPipe
from repro.memory.request import AccessKind, MemRequest, validate_tilelink


class TileLinkPort:
    """A client port on the system interconnect.

    ``validate=True`` enforces the prototype interconnect's transfer rules
    (naturally aligned powers of two, 8–64 bytes) — the marker and tracer
    connect "to the TileLink interconnect directly" (§V-C) and must obey
    them. CPU-side caches issue full-line transfers which trivially satisfy
    the rules, so their ports skip validation for speed.
    """

    def __init__(self, target, source: str, validate: bool = True):
        # ``target`` is anything with submit(MemRequest) -> Event/Completion.
        # The port forwards the model's completion handle unchanged, so a
        # Completion propagates to the requester by callback with
        # no join process and no extra allocation at this layer.
        self.target = target
        self.source = source
        self.validate = validate

    def read(self, addr: int, size: int = 8):
        return self._submit(addr, size, AccessKind.READ)

    def write(self, addr: int, size: int = 8):
        return self._submit(addr, size, AccessKind.WRITE)

    def amo(self, addr: int, size: int = 8):
        return self._submit(addr, size, AccessKind.AMO)

    def _submit(self, addr: int, size: int, kind: AccessKind):
        req = MemRequest(addr=addr, size=size, kind=kind, source=self.source)
        # Inline the common legal-transfer case; delegate to
        # validate_tilelink only to raise its detailed error.
        if self.validate and (size & (size - 1) or size < 8 or size > 64
                              or addr % size):
            validate_tilelink(req)
        return self.target.submit(req)

    def submit(self, req: MemRequest):
        """Forward a pre-built request (keeps the request's own source)."""
        size = req.size
        if self.validate and (size & (size - 1) or size < 8 or size > 64
                              or req.addr % size):
            validate_tilelink(req)
        return self.target.submit(req)


class MemorySystem:
    """The assembled memory system shared by CPU and GC unit."""

    def __init__(
        self,
        sim: Simulator,
        config: MemorySystemConfig,
        phys: PhysicalMemory,
        model: Union[DRAMController, LatencyBandwidthPipe],
        page_table: PageTable,
        stats: StatsRegistry,
        bandwidth: BandwidthTracker,
    ):
        self.sim = sim
        self.config = config
        self.phys = phys
        self.model = model
        self.page_table = page_table
        self.stats = stats
        self.bandwidth = bandwidth
        self.address_map = config.address_map()

    def port(self, source: str, validate: bool = True) -> TileLinkPort:
        """A direct port to the memory model (bypassing CPU caches)."""
        return TileLinkPort(self.model, source=source, validate=validate)

    def virt_to_phys(self, vaddr: int) -> int:
        """Functional translation through the page table."""
        return self.page_table.translate(vaddr)

    @staticmethod
    def to_virtual(paddr: int) -> int:
        """The linear mapping used when building the heap image."""
        return paddr + VIRT_OFFSET

    @staticmethod
    def to_physical_linear(vaddr: int) -> int:
        """Inverse of :meth:`to_virtual` (functional shortcuts in tests)."""
        return vaddr - VIRT_OFFSET


def build_memory_system(
    sim: Simulator,
    config: Optional[MemorySystemConfig] = None,
) -> MemorySystem:
    """Construct physical memory, the timing model, and mapped page tables."""
    config = config if config is not None else MemorySystemConfig()
    stats = StatsRegistry()
    bandwidth = BandwidthTracker("mem")
    phys = PhysicalMemory(config.total_bytes)
    if config.model == "ddr3":
        model: Union[DRAMController, LatencyBandwidthPipe] = DRAMController(
            sim, config.dram, stats=stats, bandwidth=bandwidth
        )
    else:
        model = LatencyBandwidthPipe(sim, config.pipe, stats=stats, bandwidth=bandwidth)
    page_table = PageTable(phys, config.address_map().page_tables)
    # Linear-map the whole physical space (the JVM "currently has to map the
    # entire DRAM address space", §VII), optionally with superpages.
    page_table.map_linear(VIRT_OFFSET, 0, config.total_bytes,
                          superpages=config.use_superpages)
    # Arm the hardware fault plane if REPRO_HWFAULTS requests one. With the
    # variable unset this is a no-op and ``stats.hwfaults`` stays the
    # class-level None — the zero-cost disabled path.
    plane = plane_from_env()
    if plane is not None:
        plane.install(stats, phys)
    return MemorySystem(sim, config, phys, model, page_table, stats, bandwidth)

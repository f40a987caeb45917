"""Deterministic fault injection into the *modeled* accelerator hardware.

PR 4 made the harness crash-tolerant; this module creates failures one
level down, inside the simulated unit itself: a DRAM response that never
arrives, a marker request slot that is never freed, a bit flip on a spill
path. The paper's deployment story leans on a software escape hatch for
exactly this class of problem — "by replacing libhwgc, we can swap in a
software implementation of our GC, as well as a version that performs
software checks of the hardware unit" (§V-E) — and the driver's safety net
(:meth:`repro.core.driver.HWGCDriver.run_gc_safe`) is what these faults
exercise.

Spec syntax (environment variable ``REPRO_HWFAULTS``), comma-separated::

    REPRO_HWFAULTS=<kind>:<component>[:<nth>|@<cycle>]

* ``kind`` — ``drop`` (a response/entry is lost), ``delay`` (a response is
  postponed by :data:`DEFAULT_DELAY_CYCLES`, far past the watchdog's
  patience), ``corrupt`` (a payload bit flips), or ``stuck`` (the component
  wedges permanently from the trigger point on).
* ``component`` — ``dram``, ``tlb``, ``marker``, ``markqueue`` or
  ``sweeper`` (the five hook families in the model).
* trigger — ``nth`` (1-based count of matching operations at that hook
  site; default 1) or ``@cycle`` (the first matching operation at or after
  that simulation cycle).

Injection is a pure function of ``(spec, operation index, cycle)`` — no
randomness — so every faulted run is exactly reproducible.

Zero-cost disabled path: the plane attaches to the
:class:`~repro.engine.stats.StatsRegistry` (``stats.hwfaults``), exactly
like the trace bus. With ``REPRO_HWFAULTS`` unset the class-level default
is ``None`` and every hook is one attribute load plus a ``None`` check —
no events, no allocation, no trace emission — so fault-free runs stay
bit-identical to the recorded digests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

ENV_VAR = "REPRO_HWFAULTS"

KINDS = ("drop", "delay", "corrupt", "stuck")
COMPONENTS = ("dram", "tlb", "marker", "markqueue", "sweeper")

#: How far a ``delay`` fault postpones a response. Chosen far beyond the
#: watchdog's ``stall_cycles``/``request_timeout`` thresholds so a delayed
#: response is always diagnosed as a stall rather than silently absorbed.
DEFAULT_DELAY_CYCLES = 2_000_000

#: Bit flipped by ``corrupt`` faults. Bit 33 keeps word alignment intact
#: while throwing addresses/counts far off — corruption manifests loudly
#: (translation errors, mark divergence) instead of shearing low bits into
#: a plausibly-valid neighbour.
CORRUPT_BIT = 1 << 33


class FaultSpecGrammarError(ValueError):
    """A comma-separated ``kind:target[...]`` fault spec does not parse.

    Shared base for the spec grammars of this plane (``REPRO_HWFAULTS``)
    and the fleet tier's :class:`repro.fleet.faults.FleetFaultSpec`, so
    callers that accept either spec style can catch one exception type.
    """


class HWFaultSpecError(FaultSpecGrammarError):
    """The ``REPRO_HWFAULTS`` spec does not parse."""


def split_spec_entries(spec: str) -> List[str]:
    """Split a comma-separated fault spec into stripped non-empty entries.

    The shared front half of both fault grammars (hardware plane and
    fleet tier): tolerate stray whitespace and empty chunks so specs can
    be assembled programmatically (``",".join(parts)`` with optional
    parts) without tripping the parser.
    """
    return [chunk.strip() for chunk in spec.split(",") if chunk.strip()]


@dataclass(frozen=True)
class HWFault:
    """One injected hardware fault."""

    kind: str
    component: str
    #: 1-based count of matching operations before triggering (used when
    #: ``at_cycle`` is None).
    nth: int = 1
    #: Alternative trigger: the first matching operation at/after this cycle.
    at_cycle: Optional[int] = None
    #: Extra cycles a ``delay`` fault adds to the response.
    delay_cycles: int = DEFAULT_DELAY_CYCLES

    def spec(self) -> str:
        if self.at_cycle is not None:
            return f"{self.kind}:{self.component}:@{self.at_cycle}"
        return f"{self.kind}:{self.component}:{self.nth}"


@dataclass(frozen=True)
class FiredFault:
    """A fault the plane actually injected, for the run report."""

    kind: str
    component: str
    cycle: int
    op_index: int

    def __str__(self) -> str:
        return (f"{self.kind}:{self.component} at cycle {self.cycle} "
                f"(op #{self.op_index})")


@dataclass
class FaultPlane:
    """Armed faults plus per-site operation counters.

    Components call :meth:`fire` at their hook sites only when a plane is
    attached (``stats.hwfaults is not None``), passing the site's kinds so
    a ``drop`` armed for enqueues is never consumed by a dequeue counter.
    ``stuck`` faults latch: once triggered, :meth:`fire` keeps returning
    the fault for that component (and :meth:`is_stuck` reports it) until
    the plane is suspended or reset.
    """

    faults: Tuple[HWFault, ...] = ()
    fired: List[FiredFault] = field(default_factory=list)
    suspended: bool = False

    def __post_init__(self) -> None:
        self._seen: Dict[int, int] = {i: 0 for i in range(len(self.faults))}
        self._consumed: Set[int] = set()
        self._stuck: Dict[str, HWFault] = {}
        self._stats = None
        self._mem = None

    # -- wiring ------------------------------------------------------------

    def install(self, stats, mem=None) -> "FaultPlane":
        """Attach to a registry (``stats.hwfaults``); ``mem`` is the
        :class:`~repro.memory.memimage.PhysicalMemory` corrupt faults
        flip bits in."""
        stats.hwfaults = self
        self._stats = stats
        if mem is not None:
            self._mem = mem
        return self

    def uninstall(self) -> None:
        if self._stats is not None and self._stats.hwfaults is self:
            self._stats.hwfaults = None
        self._stats = None

    # -- lifecycle ---------------------------------------------------------

    def suspend(self) -> None:
        """Mask the plane (the driver's safety net runs fault-free: the
        escape hatch assumes the CPU path works, §V-E)."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def reset(self) -> None:
        """Re-arm every fault (clears counters, latches and the log)."""
        self._seen = {i: 0 for i in range(len(self.faults))}
        self._consumed.clear()
        self._stuck.clear()
        self.fired.clear()
        self.suspended = False

    # -- the hook API ------------------------------------------------------

    def fire(self, component: str, now: int,
             kinds: Tuple[str, ...] = KINDS) -> Optional[HWFault]:
        """Count one matching operation; return the fault to apply, if any.

        ``kinds`` restricts which fault kinds this hook site implements
        (and therefore which faults' counters the operation advances).
        Non-``stuck`` faults are one-shot; ``stuck`` latches permanently.
        """
        if self.suspended:
            return None
        latched = self._stuck.get(component)
        if latched is not None and "stuck" in kinds:
            return latched
        hit: Optional[HWFault] = None
        for i, fault in enumerate(self.faults):
            if fault.component != component or fault.kind not in kinds:
                continue
            if i in self._consumed:
                continue
            self._seen[i] += 1
            if fault.at_cycle is not None:
                triggered = now >= fault.at_cycle
            else:
                triggered = self._seen[i] == fault.nth
            if triggered and hit is None:
                hit = fault
                self._consumed.add(i)
                if fault.kind == "stuck":
                    self._stuck[component] = fault
                self._record(fault, now, self._seen[i])
        return hit

    def is_stuck(self, component: str) -> bool:
        """Whether ``component`` is latched stuck (and the plane active)."""
        return not self.suspended and component in self._stuck

    def corrupt_word(self, mem, paddr: int) -> int:
        """Flip :data:`CORRUPT_BIT` in the word at ``paddr``; returns the
        corrupted value. ``mem`` may be None if one was bound at install."""
        mem = mem if mem is not None else self._mem
        word = mem.read_word(paddr) ^ CORRUPT_BIT
        mem.write_word(paddr, word)
        return word

    @staticmethod
    def corrupt_value(value: int) -> int:
        """Flip :data:`CORRUPT_BIT` in an in-flight value (no memory)."""
        return value ^ CORRUPT_BIT

    def _record(self, fault: HWFault, now: int, op_index: int) -> None:
        self.fired.append(FiredFault(kind=fault.kind,
                                     component=fault.component,
                                     cycle=now, op_index=op_index))
        stats = self._stats
        if stats is not None:
            stats.inc(f"hwfault.{fault.kind}.{fault.component}")
            trace = stats.trace
            if trace is not None:
                trace.emit(now, "fault", fault.kind, fault.component,
                           op_index)

    def __bool__(self) -> bool:
        return bool(self.faults)


def parse_hwfault_spec(spec: str) -> FaultPlane:
    """Parse ``kind:component[:nth|@cycle],...`` into a :class:`FaultPlane`."""
    faults: List[HWFault] = []
    for chunk in split_spec_entries(spec):
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise HWFaultSpecError(
                f"bad hwfault {chunk!r}: expected kind:component[:nth|@cycle]")
        kind, component = parts[0], parts[1]
        if kind not in KINDS:
            raise HWFaultSpecError(
                f"bad hwfault {chunk!r}: kind must be one of "
                f"{'/'.join(KINDS)}")
        if component not in COMPONENTS:
            raise HWFaultSpecError(
                f"bad hwfault {chunk!r}: component must be one of "
                f"{'/'.join(COMPONENTS)}")
        nth = 1
        at_cycle: Optional[int] = None
        if len(parts) == 3:
            trigger = parts[2]
            try:
                if trigger.startswith("@"):
                    at_cycle = int(trigger[1:])
                    if at_cycle < 0:
                        raise ValueError
                else:
                    nth = int(trigger)
                    if nth < 1:
                        raise ValueError
            except ValueError:
                raise HWFaultSpecError(
                    f"bad hwfault {chunk!r}: trigger must be a count >= 1 "
                    f"or @cycle") from None
        faults.append(HWFault(kind=kind, component=component, nth=nth,
                              at_cycle=at_cycle))
    return FaultPlane(faults=tuple(faults))


def plane_from_env(environ=None) -> Optional[FaultPlane]:
    """The plane configured via ``REPRO_HWFAULTS``, or ``None`` if unset."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return parse_hwfault_spec(raw)
    except HWFaultSpecError as exc:
        raise HWFaultSpecError(f"{ENV_VAR}={raw!r}: {exc}") from None

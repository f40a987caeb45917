"""Deterministic fault injection for the suite runner.

The resumable runner (:mod:`repro.harness.parallel`) promises to survive
worker crashes, hangs and transient errors. This module provides the
machinery that *creates* those failures on demand, so the recovery paths
are testable — by the crash-injection suite and by hand:

.. code-block:: console

    REPRO_FAULTS=crash:fig16:1,hang:fig18:2 python -m repro run-all \
        --jobs 4 --retries 2 --timeout 120

The spec is a comma-separated list of ``kind:exp_id[:attempt]`` triples:

* ``kind`` — one of ``crash`` (the worker exits abnormally via
  ``os._exit(139)``, simulating a segfault/OOM kill), ``hang`` (the worker
  sleeps past any reasonable per-task timeout), or ``raise`` (the worker
  raises :class:`FaultInjected`, a plain in-band Python error).
* ``exp_id`` — the suite entry to fault (e.g. ``fig16``); ``run_suite``
  rejects an id that is not one, so a typo'd drill cannot pass silently.
* ``attempt`` — which attempt to fault, 1-based; ``*`` faults every
  attempt (exhausting retries deterministically). Omitted means ``1``:
  fault the first attempt only, so a retry succeeds. Attempts count per
  *cell*: each per-value cell of a sharded entry (``--shard-figures``)
  is faulted on its own attempts, in the pool worker running it.

Injection is purely a function of ``(spec, exp_id, attempt)`` — no
randomness, no clocks — which keeps crash tests reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

ENV_VAR = "REPRO_FAULTS"

#: How long a ``hang`` fault sleeps. Long enough that any sane per-task
#: timeout fires first; finite so a misconfigured run still terminates.
DEFAULT_HANG_SECONDS = 3600.0

KINDS = ("crash", "hang", "raise")


class FaultSpecError(ValueError):
    """The ``REPRO_FAULTS`` spec does not parse."""


class FaultInjected(RuntimeError):
    """The in-band error raised by a ``raise`` fault."""


@dataclass(frozen=True)
class Fault:
    """One injected failure: ``kind`` hits ``exp_id`` on ``attempt``."""

    kind: str
    exp_id: str
    #: 1-based attempt to fault; ``None`` means every attempt.
    attempt: Optional[int] = 1

    def matches(self, exp_id: str, attempt: int) -> bool:
        if self.exp_id != exp_id:
            return False
        return self.attempt is None or self.attempt == attempt

    def spec(self) -> str:
        nth = "*" if self.attempt is None else str(self.attempt)
        return f"{self.kind}:{self.exp_id}:{nth}"


@dataclass(frozen=True)
class FaultPlan:
    """A parsed spec, matched per ``(exp_id, cell attempt)`` by the runner.

    The runner resolves the matching fault in the *parent* process and
    ships it to the worker alongside the task, so the plan behaves
    identically under ``fork`` and ``spawn`` start methods.
    """

    faults: Tuple[Fault, ...] = ()
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def match(self, exp_id: str, attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(exp_id, attempt):
                return fault
        return None

    def check_ids(self, valid_ids: Sequence[str]) -> None:
        """Reject a fault naming an experiment id outside ``valid_ids``."""
        for fault in self.faults:
            if fault.exp_id not in valid_ids:
                raise FaultSpecError(
                    f"fault {fault.spec()!r} names unknown experiment id "
                    f"{fault.exp_id!r}; valid ids: {', '.join(valid_ids)}")

    def inject(self, exp_id: str, attempt: int) -> None:
        """Execute the matching fault, if any, in the current process."""
        execute(self.match(exp_id, attempt), hang_seconds=self.hang_seconds)


def execute(fault: Optional[Fault],
            hang_seconds: float = DEFAULT_HANG_SECONDS) -> None:
    """Carry out ``fault`` here: crash, hang, or raise. No-op on ``None``."""
    if fault is None:
        return
    if fault.kind == "crash":
        # os._exit skips atexit/finally handlers: the closest a pure-Python
        # worker gets to a segfault or an OOM kill.
        os._exit(139)
    if fault.kind == "hang":
        time.sleep(hang_seconds)
        return
    raise FaultInjected(f"injected fault {fault.spec()}")


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``kind:exp_id[:attempt],...`` spec into a :class:`FaultPlan`."""
    faults = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise FaultSpecError(
                f"bad fault {chunk!r}: expected kind:exp_id[:attempt]")
        kind, exp_id = parts[0], parts[1]
        if kind not in KINDS:
            raise FaultSpecError(
                f"bad fault {chunk!r}: kind must be one of {'/'.join(KINDS)}")
        if not exp_id:
            raise FaultSpecError(f"bad fault {chunk!r}: empty experiment id")
        attempt: Optional[int] = 1
        if len(parts) == 3:
            if parts[2] == "*":
                attempt = None
            else:
                try:
                    attempt = int(parts[2])
                except ValueError:
                    attempt = 0
                if attempt < 1:
                    raise FaultSpecError(
                        f"bad fault {chunk!r}: attempt must be >= 1 or '*'")
        faults.append(Fault(kind=kind, exp_id=exp_id, attempt=attempt))
    return FaultPlan(faults=tuple(faults))


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """The plan configured via ``REPRO_FAULTS``, or ``None`` if unset."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return parse_spec(raw)

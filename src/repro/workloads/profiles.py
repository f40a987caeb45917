"""Per-benchmark heap-shape profiles.

Each profile describes the heap statistics of one DaCapo benchmark (small
size, 200 MB max heap, as in §VI-A). The numbers are synthetic but chosen
to match the published characteristics of these workloads and the paper's
observations:

* mostly small objects (a few reference fields plus a handful of payload
  words — typical Java object sizes of 24-64 bytes);
* a small set of *hot* objects that a large fraction of references point
  at ("about 10% of mark operations access the same 56 objects", §V-C);
* per-benchmark live fractions and allocation intensities that produce the
  spread of GC times in Fig. 1a (roughly 10-35% of CPU time).

``n_objects`` is the object count at ``scale=1.0``; experiments typically
run at ``scale=0.1`` or smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


class ScaleError(ValueError):
    """A heap scale too small to build a heap from; the CLI reports it
    as bad input under the ``--scale`` flag."""


@dataclass(frozen=True)
class BenchmarkProfile:
    """Heap and mutator statistics for one benchmark."""

    name: str
    description: str
    # -- heap shape at collection time --------------------------------------
    n_objects: int  # objects in the MarkSweep space at scale = 1.0
    live_fraction: float  # fraction of objects reachable at GC time
    mean_refs: float  # mean reference fields per non-array object
    mean_payload_words: float  # mean non-reference payload words
    array_fraction: float  # fraction of objects that are reference arrays
    mean_array_refs: float  # mean elements in a reference array
    null_ref_fraction: float  # fraction of reference fields left null
    los_fraction: float  # fraction of objects large enough for the LOS
    # -- sharing skew ----------------------------------------------------------
    hot_objects: int  # count of highly shared objects (Fig. 21a)
    hot_ref_fraction: float  # fraction of cross-refs aimed at hot objects
    # -- mutator behaviour (Figs. 1a/1b) -----------------------------------------
    mutator_cycles_per_byte: float  # useful work per allocated byte
    gc_time_fraction_paper: float  # Fig. 1a's reported value (target shape)
    root_fraction: float = 0.004  # roots as a fraction of live objects

    def scaled_objects(self, scale: float) -> int:
        n = int(self.n_objects * scale)
        if n < 64:
            raise ScaleError(
                f"scale {scale} leaves only {n} objects; use a larger scale"
            )
        return n


def _profile(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


#: The six DaCapo benchmarks of §VI-A.
DACAPO_PROFILES: Dict[str, BenchmarkProfile] = {
    "avrora": _profile(
        name="avrora",
        description="AVR microcontroller simulator: many tiny event/state "
        "objects, moderate churn, deep linked structures.",
        n_objects=240_000,
        live_fraction=0.55,
        mean_refs=1.7,
        mean_payload_words=2.0,
        array_fraction=0.06,
        mean_array_refs=10.0,
        null_ref_fraction=0.15,
        los_fraction=0.002,
        hot_objects=56,
        hot_ref_fraction=0.10,
        mutator_cycles_per_byte=17.0,
        gc_time_fraction_paper=0.13,
    ),
    "luindex": _profile(
        name="luindex",
        description="Lucene indexing: token/term objects, string payloads, "
        "medium-lived index structures.",
        n_objects=180_000,
        live_fraction=0.50,
        mean_refs=1.8,
        mean_payload_words=3.0,
        array_fraction=0.10,
        mean_array_refs=12.0,
        null_ref_fraction=0.12,
        los_fraction=0.004,
        hot_objects=56,
        hot_ref_fraction=0.10,
        mutator_cycles_per_byte=21.0,
        gc_time_fraction_paper=0.10,
    ),
    "lusearch": _profile(
        name="lusearch",
        description="Lucene search: allocation-heavy query processing with "
        "short-lived result objects (the Fig. 1b latency workload).",
        n_objects=300_000,
        live_fraction=0.35,
        mean_refs=1.5,
        mean_payload_words=3.0,
        array_fraction=0.12,
        mean_array_refs=10.0,
        null_ref_fraction=0.18,
        los_fraction=0.003,
        hot_objects=56,
        hot_ref_fraction=0.10,
        mutator_cycles_per_byte=6.3,
        gc_time_fraction_paper=0.30,
    ),
    "pmd": _profile(
        name="pmd",
        description="Java source analyzer: AST-heavy heaps with high "
        "fan-out nodes and symbol tables.",
        n_objects=260_000,
        live_fraction=0.60,
        mean_refs=2.5,
        mean_payload_words=2.0,
        array_fraction=0.08,
        mean_array_refs=14.0,
        null_ref_fraction=0.10,
        los_fraction=0.004,
        hot_objects=64,
        hot_ref_fraction=0.11,
        mutator_cycles_per_byte=9.0,
        gc_time_fraction_paper=0.25,
    ),
    "sunflow": _profile(
        name="sunflow",
        description="Ray tracer: float-payload geometry objects and larger "
        "reference arrays (scene graph, photon maps).",
        n_objects=220_000,
        live_fraction=0.45,
        mean_refs=1.2,
        mean_payload_words=5.0,
        array_fraction=0.20,
        mean_array_refs=16.0,
        null_ref_fraction=0.10,
        los_fraction=0.006,
        hot_objects=48,
        hot_ref_fraction=0.09,
        mutator_cycles_per_byte=11.0,
        gc_time_fraction_paper=0.19,
    ),
    "xalan": _profile(
        name="xalan",
        description="XSLT processor: extreme allocation churn of DOM/SAX "
        "nodes, the heaviest GC load in Fig. 1a.",
        n_objects=320_000,
        live_fraction=0.40,
        mean_refs=2.2,
        mean_payload_words=2.0,
        array_fraction=0.10,
        mean_array_refs=12.0,
        null_ref_fraction=0.12,
        los_fraction=0.003,
        hot_objects=56,
        hot_ref_fraction=0.12,
        mutator_cycles_per_byte=5.2,
        gc_time_fraction_paper=0.35,
    ),
}

#: Stable plotting/order used across all figures.
BENCHMARK_ORDER: Tuple[str, ...] = (
    "avrora", "luindex", "lusearch", "pmd", "sunflow", "xalan",
)

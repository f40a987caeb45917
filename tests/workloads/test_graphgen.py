"""Graph generator: the live set is exactly the reachable set, by design."""

import hashlib

import numpy as np
import pytest

from repro.memory.memimage import block_span
from repro.workloads.graphgen import HeapGraphBuilder
from repro.workloads.profiles import DACAPO_PROFILES


SCALE = 0.006  # ~1-2k objects: fast but structurally representative


class TestReachabilityContract:
    @pytest.mark.parametrize("name", sorted(DACAPO_PROFILES))
    def test_every_profile_builds_consistently(self, name):
        built = HeapGraphBuilder(DACAPO_PROFILES[name], scale=SCALE,
                                 seed=3).build()
        # _verify already ran inside build(); double-check the partition.
        reachable = built.heap.reachable()
        assert reachable == built.live
        assert not (built.garbage & reachable)

    def test_live_fraction_approximates_profile(self):
        profile = DACAPO_PROFILES["avrora"]
        built = HeapGraphBuilder(profile, scale=0.01, seed=1).build()
        ms_total = len(built.live) + len(built.garbage)
        live_frac = (len(built.live) - len(built.roots)) / ms_total
        assert abs(live_frac - profile.live_fraction) < 0.1

    def test_hot_objects_are_live(self):
        built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=SCALE,
                                 seed=2).build()
        assert set(built.hot) <= built.live

    def test_hot_objects_receive_skewed_accesses(self):
        built = HeapGraphBuilder(DACAPO_PROFILES["luindex"], scale=0.02,
                                 seed=2).build()
        counts = built.incoming_access_counts()
        total = sum(counts.values())
        top = sorted(counts.values(), reverse=True)[:len(built.hot)]
        share = sum(top) / total
        assert share > 0.04  # a small set draws a disproportionate share

    def test_determinism(self):
        a = HeapGraphBuilder(DACAPO_PROFILES["pmd"], scale=SCALE, seed=9).build()
        b = HeapGraphBuilder(DACAPO_PROFILES["pmd"], scale=SCALE, seed=9).build()
        assert a.roots == b.roots
        assert a.live == b.live

    def test_different_seeds_differ(self):
        a = HeapGraphBuilder(DACAPO_PROFILES["pmd"], scale=SCALE, seed=1).build()
        b = HeapGraphBuilder(DACAPO_PROFILES["pmd"], scale=SCALE, seed=2).build()
        assert a.live != b.live

    def test_statics_are_roots(self):
        built = HeapGraphBuilder(DACAPO_PROFILES["avrora"], scale=SCALE,
                                 seed=4).build()
        immortal = built.heap.plan.immortal
        static_roots = [r for r in built.roots
                        if immortal.contains(built.heap.to_physical(r))]
        assert static_roots

    def test_los_objects_created(self):
        built = HeapGraphBuilder(DACAPO_PROFILES["sunflow"], scale=0.02,
                                 seed=5).build()
        assert built.heap.los_objects

    def test_scale_too_small_rejected(self):
        with pytest.raises(ValueError):
            HeapGraphBuilder(DACAPO_PROFILES["avrora"], scale=1e-5).build()


class TestProfiles:
    def test_all_profiles_well_formed(self):
        for name, profile in DACAPO_PROFILES.items():
            assert profile.name == name
            assert 0 < profile.live_fraction < 1
            assert 0 <= profile.null_ref_fraction < 1
            assert profile.hot_objects > 0
            assert profile.gc_time_fraction_paper <= 0.40

    def test_order_covers_all(self):
        from repro.workloads.profiles import BENCHMARK_ORDER
        assert set(BENCHMARK_ORDER) == set(DACAPO_PROFILES)


def build_digest(built) -> str:
    """sha256 of the image's live blocks (index and words) plus the roots."""
    mem = built.heap.mem
    h = hashlib.sha256()
    for block in sorted(mem.live_blocks()):
        h.update(block.to_bytes(8, "little"))
        h.update(mem.words[block_span(block)].tobytes())
    h.update(np.asarray(built.roots, dtype=np.uint64).tobytes())
    return h.hexdigest()


#: The benchmark's pool heaps at scale 0.05, as the per-object build
#: (one ``alloc`` and ``set_ref`` at a time) made them before the
#: columnar build replaced it; the columnar build must reproduce them
#: byte for byte, and leave the rng where the per-object build did.
BUILD_DIGESTS = [
    ("avrora", 1, "a672c7b2d6c9dd62a0235bcf7a4c686064df0eaa"
                  "cc94be87d98a6204997cc1e1", 0.860421072853361),
    ("avrora", 577_090_037, "fb63a77ceb72063ac5cd12448d60c065fe9d6b88"
                            "a7b72026d04db001a24bd78a", 0.8739131953375019),
    ("avrora", 271_041_745, "078ada5bba754017bb66a032a41ab57833b2c009"
                            "a429acc5e42706db6c178164", 0.9076060737172008),
    ("avrora", 1_095_513_148, "b825f59acf858bb1f4faaec3d35898f1bc4f9120"
                              "882af7ac6d2999529239e306", 0.9013596319109197),
    ("luindex", 13, "6e93bf60cda6e8f8d12c74cd2ae3739217174bd2"
                    "3be71614e8734cf896e18a5e", 0.6942168676567286),
    ("luindex", 1_112_433_019, "5b9c08fd26f8e4b7be1a19af9d188c3df4977918"
                               "3ddb404baedf9621cdaaadcd", 0.6014214152392361),
    ("luindex", 1_248_794_762, "6cff0aa0821afa70508de626aeec390ba935038f"
                               "f499f28482ba9ecca36e264e", 0.1843815336904574),
    ("luindex", 797_679_261, "167742e9837cc9c44201346801b3387f42bba57e"
                             "a552c93e475106942bf2d72c", 0.2548248873796627),
]


@pytest.mark.parametrize("profile,seed,digest,next_draw", BUILD_DIGESTS,
                         ids=[f"{p}-{s}" for p, s, _d, _r in BUILD_DIGESTS])
def test_pool_heaps_build_byte_identical(profile, seed, digest, next_draw):
    built = HeapGraphBuilder(DACAPO_PROFILES[profile], scale=0.05,
                             seed=seed).build()
    assert build_digest(built) == digest
    assert built.rng.random() == next_draw

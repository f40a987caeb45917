"""Shared fixtures: small heaps and built workloads sized for fast tests."""

import random

import pytest
from hypothesis import Phase, settings

from repro.engine.simulator import Simulator
from repro.heap.heapimage import ManagedHeap
from repro.memory.config import MemorySystemConfig
from repro.workloads.graphgen import HeapGraphBuilder
from repro.workloads.profiles import DACAPO_PROFILES

SMALL_MEM = 32 * 1024 * 1024

# Once an example fails, hypothesis's explain phase runs every later
# example, the whole shrink included, under a line tracer (sys.settrace
# before Python 3.12). Over simulated heaps that stretches seconds of
# shrinking into minutes. Every property keeps its examples and its
# shrinking; only the explanation of the minimal example is dropped.
settings.register_profile(
    "no-explain",
    phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("no-explain")


class BudgetedSimulator(Simulator):
    """Routes ``run``/``run_until`` through the kernel's ``max_events``
    drain loops, with a budget no test exhausts unless it asks for one."""

    BUDGET = 10**9

    def run(self, until=None, max_events=None):
        return super().run(
            until, self.BUDGET if max_events is None else max_events)

    def run_until(self, event, max_events=None):
        return super().run_until(
            event, self.BUDGET if max_events is None else max_events)


@pytest.fixture(params=["unbudgeted", "budgeted"])
def sim(request):
    """A fresh simulator at cycle 0, once per drain loop: the unbudgeted
    hot loops and the ``max_events`` loops are separate code that must
    agree on every ordering and accounting rule."""
    return Simulator() if request.param == "unbudgeted" else BudgetedSimulator()


@pytest.fixture
def small_heap():
    """A fresh small heap (32 MiB of simulated memory)."""
    return ManagedHeap(config=MemorySystemConfig(total_bytes=SMALL_MEM))


def make_random_heap(n_objects=400, seed=0, max_refs=4, max_payload=6,
                     root_count=20, wire_prob=0.8):
    """A quick random object graph, independent of the DaCapo profiles."""
    rng = random.Random(seed)
    heap = ManagedHeap(config=MemorySystemConfig(total_bytes=SMALL_MEM))
    views = [
        heap.new_object(rng.randint(0, max_refs), rng.randint(0, max_payload))
        for _ in range(n_objects)
    ]
    for view in views:
        for i in range(view.n_refs):
            if rng.random() < wire_prob:
                view.set_ref(i, rng.choice(views).addr)
    heap.set_roots([views[i].addr for i in range(min(root_count, n_objects))])
    return heap, views


@pytest.fixture
def random_heap():
    heap, _views = make_random_heap()
    return heap


@pytest.fixture(scope="session")
def tiny_built():
    """A profile-generated heap at minimal scale, shared across tests that
    only read it (tests that collect must checkpoint/restore)."""
    built = HeapGraphBuilder(DACAPO_PROFILES["avrora"], scale=0.008,
                             seed=11).build()
    return built, built.heap.checkpoint()

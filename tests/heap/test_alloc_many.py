"""The bulk allocation path against its oracle, a loop of ``alloc``.

``SegregatedFreeListAllocator.alloc_many`` computes every cell address
of a never-used allocator from the shapes and writes the heap in
vectorised stores. A twin heap allocating the same shapes one at a time
must end byte-identical: same image words, live blocks, block list and
allocator state, and it must stay identical through what the mutator
does next (one more ``alloc``; a collection, then ``refresh_free_lists``).
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GCUnit
from repro.heap.allocator import OutOfMemoryError, SegregatedFreeListAllocator
from repro.heap.blocks import BLOCK_BYTES, BlockList
from repro.heap.heapimage import ManagedHeap
from repro.heap.layout import ObjectShape
from repro.heap.sizeclass import SIZE_CLASSES_WORDS
from repro.memory.config import MemorySystemConfig
from repro.memory.memimage import PhysicalMemory, block_span

from tests.conftest import SMALL_MEM

#: Cells per block of each size class (32 B cells: 256; 2 KiB cells: 4).
CELLS = [BLOCK_BYTES // (8 * w) for w in SIZE_CLASSES_WORDS]


def heap_state(heap):
    """Everything the bulk path must reproduce, in comparable form."""
    mem = heap.mem
    alloc = heap.allocator
    blocks = sorted(mem.live_blocks())
    return {
        "live_blocks": blocks,
        "words": [mem.words[block_span(b)].tobytes() for b in blocks],
        "block_list": [(d.base_vaddr, d.cell_bytes, d.n_cells,
                        d.freelist_head) for d in heap.block_list],
        "class_blocks": alloc._class_blocks,
        "block_class": alloc._block_class,
        "cursor": alloc._fresh_cursor,
        "counters": (alloc.objects_allocated, alloc.bytes_allocated),
        "objects": heap.objects,
        "los_objects": heap.los_objects,
        "los_cursor": heap.plan.los.cursor,
    }


def assert_twins(bulk, loop):
    a, b = heap_state(bulk), heap_state(loop)
    for key in a:
        assert a[key] == b[key], key


def twins(shapes):
    """(bulk heap, loop heap) after allocating ``shapes`` each way."""
    # A collected heap is a reference cycle (simulator processes and the
    # components they drive), freed only by a full collection: free the
    # previous example's twins now, so shrinking a failure holds two
    # heaps at a time, not hundreds.
    gc.collect()
    config = MemorySystemConfig(total_bytes=SMALL_MEM)
    bulk, loop = ManagedHeap(config=config), ManagedHeap(config=config)
    addrs = bulk.alloc_many(*(list(zip(*shapes)) or ([], [], [])))
    expected = [loop.alloc(ObjectShape(*shape)) for shape in shapes]
    assert addrs == expected
    return bulk, loop


@st.composite
def shape_in_class(draw, cls):
    """A shape whose cell is exactly size class ``cls``."""
    low = 2 if cls == 0 else SIZE_CLASSES_WORDS[cls - 1] + 1
    words = draw(st.integers(low, SIZE_CLASSES_WORDS[cls]))
    n_refs = draw(st.integers(0, words - 2))
    return n_refs, words - 2 - n_refs, draw(st.booleans())


@st.composite
def shape_lists(draw):
    """Per class: none, an exact fill of one or two blocks, one cell
    spilling into a new block, or a few; shuffled together with a few
    shapes too big for any class (the large-object space)."""
    shapes = []
    for cls, cells in enumerate(CELLS):
        count = draw(st.sampled_from(
            [0, cells, cells + 1, 2 * cells, draw(st.integers(1, cells))]))
        shapes += [draw(shape_in_class(cls)) for _ in range(count)]
    shapes += draw(st.lists(st.tuples(st.integers(0, 40),
                                      st.integers(255, 300), st.booleans()),
                            max_size=2))
    return draw(st.permutations(shapes))


@given(shapes=shape_lists(), extra=st.integers(0, len(CELLS) - 1),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_bulk_allocation_equals_the_allocation_loop(shapes, extra, data):
    bulk, loop = twins(shapes)
    assert_twins(bulk, loop)
    # The next allocation continues from the state the bulk path left.
    shape = ObjectShape(*data.draw(shape_in_class(extra)))
    assert bulk.alloc(shape) == loop.alloc(shape)
    assert_twins(bulk, loop)


@given(shapes=shape_lists(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_twins_agree_after_a_sweep(shapes, data):
    bulk, loop = twins(shapes)
    if shapes:
        roots = data.draw(st.lists(st.sampled_from(loop.objects),
                                   max_size=20))
        bulk.set_roots(roots)
        loop.set_roots(roots)
    for heap in (bulk, loop):
        GCUnit(heap).collect()
        heap.complete_gc_cycle()
    assert_twins(bulk, loop)
    shape = ObjectShape(*data.draw(shape_in_class(0)))
    assert bulk.alloc(shape) == loop.alloc(shape)
    assert_twins(bulk, loop)


def test_one_block_of_every_class_plus_one_spill():
    """The cases the property names, pinned as one example: every class
    fills a block exactly; class 0 spills one cell into a second block."""
    shapes = []
    for cls, cells in enumerate(CELLS):
        words = SIZE_CLASSES_WORDS[cls]
        shapes += [(1, words - 3, False)] * cells
    shapes.append((0, 0, False))
    bulk, loop = twins(shapes)
    assert_twins(bulk, loop)
    alloc = bulk.allocator
    assert alloc.blocks_in_use == len(CELLS) + 1
    # Full blocks have no free head; each class lists its last block.
    heads = [d.freelist_head for d in bulk.block_list]
    assert heads[:len(CELLS)] == [0] * len(CELLS)
    assert heads[-1] != 0
    assert alloc._class_blocks[0] == [len(CELLS)]
    assert all(alloc._class_blocks[c] == [c] for c in range(1, len(CELLS)))


def test_used_allocator_is_refused():
    heap = ManagedHeap(config=MemorySystemConfig(total_bytes=SMALL_MEM))
    heap.alloc(ObjectShape(1, 1))
    with pytest.raises(ValueError, match="never-used allocator"):
        heap.alloc_many([1], [1], [False])


def test_oversized_shape_is_refused_by_the_allocator():
    mem = PhysicalMemory(2 * 1024 * 1024)
    alloc = SegregatedFreeListAllocator(
        mem, BlockList(mem, (4096, 256 * 1024)), 256 * 1024,
        256 * 1024 + 8 * BLOCK_BYTES, 0x4000_0000)
    with pytest.raises(ValueError, match="large object space"):
        alloc.alloc_many(np.array([1, 300]), np.array([0, 0]),
                         np.array([False, False]))
    assert len(alloc.block_list) == 0


def test_space_exhaustion_writes_nothing():
    mem = PhysicalMemory(2 * 1024 * 1024)
    alloc = SegregatedFreeListAllocator(
        mem, BlockList(mem, (4096, 256 * 1024)), 256 * 1024,
        256 * 1024 + BLOCK_BYTES, 0x4000_0000)
    dirty = set(mem.live_blocks())
    with pytest.raises(OutOfMemoryError):
        alloc.alloc_many(np.full(5, 100), np.full(5, 100),
                         np.zeros(5, dtype=bool))
    assert mem.live_blocks() == dirty
    assert alloc.objects_allocated == 0

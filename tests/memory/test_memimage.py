"""Physical-memory image: word access, atomics, bulk ops, snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.memimage import BLOCK_WORDS, PhysicalMemory

U64 = (1 << 64) - 1


@pytest.fixture
def mem():
    return PhysicalMemory(64 * 1024)


class TestScalar:
    def test_roundtrip(self, mem):
        mem.write_word(0x100, 0xDEAD_BEEF_CAFE_F00D)
        assert mem.read_word(0x100) == 0xDEAD_BEEF_CAFE_F00D

    def test_wraps_to_64_bits(self, mem):
        mem.write_word(8, (1 << 70) | 5)
        assert mem.read_word(8) == 5

    def test_unaligned_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.read_word(3)
        with pytest.raises(ValueError):
            mem.write_word(12, 0)  # 12 is not 8-aligned

    def test_out_of_range_rejected(self, mem):
        with pytest.raises(IndexError):
            mem.read_word(64 * 1024)

    def test_size_must_be_word_aligned(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)


class TestAtomics:
    def test_fetch_or_returns_old(self, mem):
        mem.write_word(0, 0b0101)
        assert mem.fetch_or(0, 0b0010) == 0b0101
        assert mem.read_word(0) == 0b0111

    def test_fetch_and_returns_old(self, mem):
        mem.write_word(0, 0b0111)
        assert mem.fetch_and(0, ~0b0010 & U64) == 0b0111
        assert mem.read_word(0) == 0b0101

    def test_fetch_or_idempotent_on_set_bit(self, mem):
        mem.fetch_or(0, 1)
        old = mem.fetch_or(0, 1)
        assert old == 1 and mem.read_word(0) == 1


class TestBulk:
    def test_read_write_words(self, mem):
        mem.write_words(0x200, [1, 2, 3])
        assert mem.read_words(0x200, 3) == [1, 2, 3]

    def test_fill(self, mem):
        mem.fill(0x300, 4, 9)
        assert mem.read_words(0x300, 4) == [9, 9, 9, 9]

    def test_bulk_bounds(self, mem):
        with pytest.raises(IndexError):
            mem.read_words(64 * 1024 - 8, 2)
        with pytest.raises(IndexError):
            mem.write_words(64 * 1024 - 8, [1, 2])


class TestSnapshot:
    def test_snapshot_restore(self, mem):
        mem.write_word(0x80, 42)
        snap = mem.snapshot()
        mem.write_word(0x80, 0)
        mem.restore(snap)
        assert mem.read_word(0x80) == 42

    def test_snapshot_is_a_copy(self, mem):
        snap = mem.snapshot()
        mem.write_word(0, 7)
        assert snap[0] == 0

    def test_shape_mismatch_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.restore(np.zeros(3, dtype=np.uint64))


class TestDirtyBlockRestore:
    """The block-sparse restore must be byte-exact vs. a dense copy.

    Every write helper, both atomics, and the out-of-band ``note_dirty``
    contract feed the dirty set; restoring the clean-point snapshot copies
    only those blocks, so a missed dirty bit would silently leave stale
    data behind — these tests pin exactness for every mutation path.
    """

    # A memory spanning several 32 KiB blocks.
    SIZE = 256 * 1024

    def _scribble_then_restore(self, mutate):
        mem = PhysicalMemory(self.SIZE)
        for addr in range(0, self.SIZE, 4096 * 8):
            mem.write_word(addr, addr | 1)
        snap = mem.snapshot()
        reference = snap.copy()
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)
        # The clean point survives a sparse restore: a second
        # mutate/restore round must also be exact.
        mutate(mem)
        mem.restore(snap)
        assert np.array_equal(mem.words, reference)

    def test_write_word_tracked(self):
        self._scribble_then_restore(
            lambda m: [m.write_word(a, 0xBAD) for a in (0, 40960, self.SIZE - 8)])

    def test_atomics_tracked(self):
        def mutate(m):
            m.fetch_or(32768, 0xFF)
            m.fetch_and(self.SIZE - 16, 0)
        self._scribble_then_restore(mutate)

    def test_bulk_writes_tracked(self):
        def mutate(m):
            m.write_words(8, list(range(100)))
            m.fill(65536, 5000, 7)  # spans a block boundary
        self._scribble_then_restore(mutate)

    def test_note_dirty_covers_direct_writes(self):
        def mutate(m):
            # The SoA fast-path idiom: raw array store + note_dirty.
            m.words[5000] = np.uint64(123)
            m.note_dirty(5000)
            m.words[9000:9300] = np.uint64(9)
            m.note_dirty(9000, 300)
        self._scribble_then_restore(mutate)

    def test_foreign_snapshot_restores_densely_and_rebases(self):
        mem = PhysicalMemory(self.SIZE)
        snap_a = mem.snapshot()
        mem.write_word(0, 1)
        foreign = mem.words.copy()  # not produced by snapshot()
        mem.write_word(0, 2)
        mem.restore(foreign)
        assert mem.read_word(0) == 1
        # ``foreign`` is now the clean point; sparse restore back to it
        # must still be exact.
        mem.write_word(0, 3)
        mem.write_word(self.SIZE - 8, 4)
        mem.restore(foreign)
        assert mem.read_word(0) == 1
        assert mem.read_word(self.SIZE - 8) == 0
        # And the original snapshot, no longer the clean point, still
        # restores exactly.
        mem.restore(snap_a)
        assert mem.read_word(0) == 0


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 1023), st.integers(0, U64)),
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_last_write_wins(writes):
    mem = PhysicalMemory(8 * 1024)
    expected = {}
    for word_index, value in writes:
        mem.write_word(word_index * 8, value)
        expected[word_index] = value
    for word_index, value in expected.items():
        assert mem.read_word(word_index * 8) == value


# -- block-sparse snapshots against a dense model ---------------------------

_WORD = st.integers(0, U64)
_INDEX = st.integers(0, 1 << 20)  # taken modulo the image size
_OPS = st.one_of(
    st.tuples(st.just("write_word"), _INDEX, _WORD),
    st.tuples(st.just("fetch_or"), _INDEX, _WORD),
    st.tuples(st.just("fetch_and"), _INDEX, _WORD),
    st.tuples(st.just("write_words"), _INDEX, st.lists(_WORD, max_size=40)),
    st.tuples(st.just("fill"), _INDEX, st.integers(0, 2 * BLOCK_WORDS), _WORD),
    # The SoA fast-path idiom: a raw array store plus note_dirty.
    st.tuples(st.just("raw"), _INDEX, st.integers(1, 300), _WORD),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore_own"), _INDEX),
    st.tuples(st.just("restore_foreign"),
              st.lists(st.tuples(_INDEX, _WORD), max_size=20)),
)


@given(
    # Whole blocks and ragged tails, from under one block to over three.
    n_words=st.sampled_from([1, 37, BLOCK_WORDS - 1, BLOCK_WORDS,
                             BLOCK_WORDS + 1, 2 * BLOCK_WORDS,
                             3 * BLOCK_WORDS + 513]),
    ops=st.lists(_OPS, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_sparse_snapshots_match_dense_model(n_words, ops):
    """Any mix of writes through every helper, own snapshots restored in
    any order, and foreign arrays restored, leaves the image equal to a
    dense model; every snapshot stays equal to the model at its taking."""
    mem = PhysicalMemory(n_words * 8)
    model = np.zeros(n_words, dtype=np.uint64)
    snaps = []  # (snapshot, the model when it was taken)
    for op in ops:
        kind = op[0]
        if kind == "write_word":
            i = op[1] % n_words
            mem.write_word(i * 8, op[2])
            model[i] = np.uint64(op[2])
        elif kind in ("fetch_or", "fetch_and"):
            i = op[1] % n_words
            assert getattr(mem, kind)(i * 8, op[2]) == int(model[i])
            if kind == "fetch_or":
                model[i] |= np.uint64(op[2])
            else:
                model[i] &= np.uint64(op[2])
        elif kind == "write_words":
            i = op[1] % n_words
            vals = op[2][:n_words - i]
            mem.write_words(i * 8, vals)
            model[i:i + len(vals)] = np.array(vals, dtype=np.uint64)
        elif kind in ("fill", "raw"):
            i = op[1] % n_words
            count = min(op[2], n_words - i)
            if kind == "fill":
                mem.fill(i * 8, count, op[3])
            elif count:
                mem.words[i:i + count] = np.uint64(op[3])
                mem.note_dirty(i, count)
            model[i:i + count] = np.uint64(op[3])
        elif kind == "snapshot":
            snap = mem.snapshot()
            assert np.array_equal(snap, model)
            snaps.append((snap, model.copy()))
        elif kind == "restore_own":
            if snaps:
                snap, at = snaps[op[1] % len(snaps)]
                mem.restore(snap)
                model = at.copy()
        else:
            foreign = np.zeros(n_words, dtype=np.uint64)
            for i, value in op[1]:
                foreign[i % n_words] = np.uint64(value)
            mem.restore(foreign)
            model = foreign.copy()
        assert np.array_equal(mem.words, model)
        nonzero = set((np.flatnonzero(mem.words) // BLOCK_WORDS).tolist())
        assert nonzero <= mem.live_blocks()
    for snap, at in snaps:
        assert np.array_equal(snap, at)

"""``SlabAllocator.live_ranges`` against its slot-by-slot spec.

The allocator answers "which bytes does the mirror invariant cover?" by
walking bitmap words and taking each run of set bits as one range.  The
spec below is the walk it replaced: test every slot's bit, coalesce
adjacent blocks.  Both must agree on any chunk table and any bitmap —
including bits past a chunk's last slot, which rot can set and which
name no block.
"""

from hypothesis import given, settings, strategies as st

from repro.heap.alloc import SIZE_CLASSES, SlabAllocator

CHUNK = 64 * 1024
WORD_BITS = 64


def slot_by_slot(allocator):
    ranges = [(0, allocator.data_off)]
    for ci, cls in enumerate(allocator._chunk_class):
        if cls == 0:
            continue
        base = allocator.data_off + ci * allocator.chunk_size
        words = allocator._words[ci]
        for slot in range(allocator.chunk_size // cls):
            if words[slot // WORD_BITS] & (1 << (slot % WORD_BITS)):
                off = base + slot * cls
                last_off, last_size = ranges[-1]
                if last_off + last_size == off:
                    ranges[-1] = (last_off, last_size + cls)
                else:
                    ranges.append((off, cls))
    return ranges


_word = st.one_of(
    st.just(0),
    st.just((1 << WORD_BITS) - 1),
    st.integers(0, (1 << WORD_BITS) - 1),
    # runs: a contiguous block of set bits
    st.tuples(st.integers(0, 63), st.integers(1, 64)).map(
        lambda t: (((1 << t[1]) - 1) << t[0]) & ((1 << WORD_BITS) - 1)
    ),
)


@st.composite
def allocators(draw):
    allocator = SlabAllocator(None, None, chunk_size=CHUNK)
    allocator.data_off = draw(st.sampled_from([64, 4096, 9152]))
    classes = draw(st.lists(st.sampled_from((0,) + SIZE_CLASSES), min_size=1, max_size=6))
    allocator._chunk_class = classes
    allocator._words = [
        [draw(_word) for _ in range(-(-(CHUNK // cls) // WORD_BITS))] if cls else []
        for cls in classes
    ]
    return allocator


@given(allocators())
@settings(max_examples=100, deadline=None)
def test_live_ranges_match_the_slot_by_slot_walk(allocator):
    assert allocator.live_ranges() == slot_by_slot(allocator)


def test_a_full_chunk_after_the_metadata_is_one_range():
    allocator = SlabAllocator(None, None, chunk_size=CHUNK)
    allocator.data_off = 4096
    allocator._chunk_class = [4096, 0, 32]
    allocator._words = [[(1 << 16) - 1], [], [0] * 31 + [1 << 63]]
    assert allocator.live_ranges() == [
        (0, 4096 + CHUNK),
        (4096 + 2 * CHUNK + (CHUNK - 32), 32),
    ]

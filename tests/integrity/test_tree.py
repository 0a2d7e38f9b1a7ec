"""IntegrityTree: geometry, coalesced propagation checked against the
dense definition, adversarial stale-replay detection, crash recovery,
and the closed coverage window."""

import random
import zlib

import pytest

import repro
from repro.errors import IntegrityTreeError, MediaError, RootMismatchError
from repro.integrity import FANOUT, IntegrityTree
from repro.integrity.tree import WATERMARK, ZERO_LINE_CRC
from repro.nvm import NVMDevice
from repro.nvm.latency import CACHE_LINE

from .dense_tree import dense_root, dense_root_of_leaves

SIZE = 1 << 16
N_LINES = SIZE // CACHE_LINE


def make_device(tree=True, seed=0):
    device = NVMDevice(SIZE, seed=seed)
    media = device.attach_media(seed=seed, tree=tree)
    return device, media


def persist(device, addr, data):
    device.write(addr, data)
    device.flush(addr, len(data))
    device.fence()


def blessed_tree():
    tree = IntegrityTree(N_LINES)
    tree.bless_all(bytearray(SIZE))
    return tree


class TestConstruction:
    def test_unknown_mode_rejected(self):
        """There is one propagation scheme; asking for a mode is an error."""
        with pytest.raises(TypeError):
            IntegrityTree(64, mode="eager")

    def test_bless_all_zero_device(self):
        tree = blessed_tree()
        assert tree.root_published == dense_root(bytearray(SIZE))
        assert all(v == ZERO_LINE_CRC for v in tree.leaves)
        assert not tree._nonzero

    def test_bless_covers_preexisting_content(self):
        """Content written before attach is committed by the root — the
        tree's coverage is total from the first instruction."""
        device = NVMDevice(SIZE, seed=0)
        persist(device, 512, b"pre-attach" * 6)
        media = device.attach_media(seed=0, tree=True)
        assert media.tree.scan(device._durable) == []
        assert media.tree.root_published == dense_root(device._durable)

    def test_errors_exported_from_repro_root(self):
        assert repro.IntegrityTree is IntegrityTree
        assert issubclass(repro.IntegrityTreeError, MediaError)
        assert issubclass(repro.RootMismatchError, IntegrityTreeError)

    def test_tree_requires_protection(self):
        device = NVMDevice(SIZE, seed=0)
        with pytest.raises(ValueError):
            device.attach_media(seed=0, protect=False, tree=True)


class TestSparseLevelBuild:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 255, 256, 257, 5000])
    def test_sparse_build_matches_dense(self, n):
        rng = random.Random(n)
        tree = IntegrityTree(n)
        for _ in range(min(n, 40)):
            tree._set_leaf(rng.randrange(n), rng.randrange(1 << 32))
        assert tree._build_levels(tree.leaves)[-1][0] == dense_root_of_leaves(tree.leaves)

    @pytest.mark.parametrize("n", [16, 100, 257])
    def test_fully_written_build_matches_dense(self, n):
        rng = random.Random(n * 7)
        tree = IntegrityTree(n)
        for i in range(n):
            tree._set_leaf(i, rng.randrange(1 << 32))
        assert tree._build_levels(tree.leaves)[-1][0] == dense_root_of_leaves(tree.leaves)


def _distinct_ancestors(lines, depth):
    """Interior nodes above ``lines``: one per distinct ancestor per level."""
    shift = FANOUT.bit_length() - 1
    return sum(len({ln >> (shift * d) for ln in lines}) for d in range(1, depth))


class TestModes:
    """Update propagation: the pending log and its coalesced batches."""

    def test_batch_root_matches_dense_oracle(self):
        durable = bytearray(SIZE)
        tree = IntegrityTree(N_LINES)
        tree.bless_all(durable)
        for i in range(200):
            line = i * 7 % N_LINES
            image = (i * 2654435761 & 0xFFFFFFFF).to_bytes(4, "little") * 16
            durable[line * CACHE_LINE : (line + 1) * CACHE_LINE] = image
            tree.note_line(line, zlib.crc32(image))
        tree.apply_pending()
        assert tree.root_published == tree.root() == dense_root(durable)

    def test_streamed_hashes_fewer_interior_nodes(self):
        """A batch spends exactly one hash per distinct dirty ancestor —
        never one per child update, which a root-to-leaf walk per noted
        line would spend."""
        clustered = [i % 64 for i in range(512)]  # hot lines, 6 ancestors
        scattered = [i * 97 % N_LINES for i in range(200)]
        spent = []
        for lines in (clustered, scattered, [5]):
            tree = blessed_tree()
            for i, line in enumerate(lines):
                tree.note_line(line, i)
            spent.append(tree.apply_pending())
            assert spent[-1] == tree.node_hashes == _distinct_ancestors(set(lines), tree.depth)
            assert tree.batches == 1
        path = tree.depth - 1  # interior nodes on one root-to-leaf path
        assert spent[2] == path
        assert spent[0] == 6 < len(clustered) * path / 4

    def test_watermark_triggers_auto_apply(self):
        tree = blessed_tree()
        for line in range(WATERMARK - 1):
            tree.note_line(line, line + 1)
        assert len(tree.pending) == WATERMARK - 1
        tree.note_line(WATERMARK - 1, WATERMARK)  # hits the watermark
        assert len(tree.pending) == 0
        assert tree.batches == 1

    def test_pending_is_latest_wins(self):
        tree = blessed_tree()
        tree.note_line(3, 111)
        tree.note_line(3, 222)
        assert tree.expected_crc(3) == 222
        tree.apply_pending()
        assert tree.expected_crc(3) == 222


class TestAdversarialReplay:
    def test_stale_replay_fools_sidecar_but_not_tree(self):
        device, media = make_device()
        line_addr = 4 * CACHE_LINE
        persist(device, line_addr, b"v1" * 32)
        snap = media.snapshot_lines([(line_addr, CACHE_LINE)])
        persist(device, line_addr, b"v2" * 32)
        replayed = media.replay_stale(snap, [4])
        assert replayed == [4]
        # internally consistent: the per-line checksum verifies clean
        assert media.sidecar.verify(4, device._durable)
        # ...but the tree's leaf kept moving with the v2 persist
        assert not media.verify_line(4)
        assert 4 in media.bad_lines()
        assert device.stats.media_stale == 1

    def test_checksum_only_misses_the_replay(self):
        """Regression pin for the failure class the tree closes: without
        a tree the consistent replay is silent."""
        device, media = make_device(tree=False)
        line_addr = 4 * CACHE_LINE
        persist(device, line_addr, b"v1" * 32)
        snap = media.snapshot_lines([(line_addr, CACHE_LINE)])
        persist(device, line_addr, b"v2" * 32)
        media.replay_stale(snap, [4])
        assert media.verify_line(4)  # silently wrong
        assert media.bad_lines() == []
        assert device.read(line_addr, 2) == b"v1"

    def test_repair_restores_tree_agreement(self):
        device, media = make_device()
        persist(device, 0, b"new" * 21 + b"!")
        snap_img = {0: b"\x00" * CACHE_LINE}
        media.replay_stale(snap_img, [0])
        assert not media.verify_line(0)
        media.repair_line(0, b"new" * 21 + b"!")
        assert media.verify_line(0)
        assert media.bad_lines() == []

    def test_replay_only_hits_snapshotted_lines(self):
        device, media = make_device()
        persist(device, 0, b"a" * 64)
        assert media.replay_stale({}, [0, 1, 2]) == []
        assert device.stats.media_stale == 0

    def test_replay_changed_draws_changed_lines_and_their_partners(self):
        device, media = make_device()
        for line in range(4):
            persist(device, line * CACHE_LINE, b"old" * 21 + b"!")
            persist(device, (line + 100) * CACHE_LINE, b"old" * 21 + b"!")
        snap = media.snapshot_lines([(0, 4 * CACHE_LINE), (100 * CACHE_LINE, 4 * CACHE_LINE)])
        persist(device, 2 * CACHE_LINE, b"new" * 21 + b"!")  # the one changed line
        partner = {line: line + 100 for line in range(4)}
        replayed = media.replay_changed(snap, 3, random.Random(0), partner)
        assert replayed == [2, 102]
        assert media.bad_lines() == [2]  # the partner was never changed
        assert media.replay_changed(snap, 3, random.Random(0), partner) == []


class TestCoverageWindow:
    """The sidecar's lazy-coverage window and how the tree closes it."""

    def _corrupt_silently(self, device):
        # direct durable mutation: corruption no injector API blesses
        device._durable[100] ^= 0xFF

    def test_checksum_only_window_pinned(self):
        """A line corrupted before its first persist verifies clean under
        the lazy sidecar."""
        device, media = make_device(tree=False)
        self._corrupt_silently(device)
        assert media.verify_line(100 // CACHE_LINE)
        assert media.bad_lines() == []

    def test_tree_closes_the_window(self):
        device, media = make_device(tree=True)
        self._corrupt_silently(device)
        assert not media.verify_line(100 // CACHE_LINE)
        assert 100 // CACHE_LINE in media.bad_lines()


class TestRecovery:
    def test_clone_recover_round_trip(self):
        device, media = make_device()
        for i in range(40):
            persist(device, i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE)
        tree = media.tree
        twin = tree.clone()  # the clone drops the volatile interior
        assert twin._levels is None
        twin.recover()
        tree.apply_pending()
        assert twin.root() == tree.root() == dense_root(device._durable)
        assert twin.scan(device._durable) == []

    def test_recovery_publishes_replayed_pending(self):
        tree = blessed_tree()
        dur = bytearray(SIZE)
        old_root = tree.root_published
        dur[0:64] = b"x" * 64
        tree.note_line(0, zlib.crc32(b"x" * 64))
        assert tree.root_published == old_root  # not yet applied
        tree.drop_interior()
        tree.recover()
        assert tree.root_published == dense_root(dur) != old_root
        assert tree.scan(dur) == []

    def test_root_mismatch_raises_typed(self):
        tree = blessed_tree()
        tree.root_published ^= 0xDEAD  # persist-domain corruption
        tree.drop_interior()
        with pytest.raises(RootMismatchError):
            tree.recover()

    def test_recover_before_bless_raises(self):
        with pytest.raises(IntegrityTreeError):
            IntegrityTree(N_LINES).recover()


class TestScan:
    def test_scan_bisects_into_untouched_space(self):
        device, media = make_device()
        tree = media.tree
        device._durable[8000] = 0x5A  # corruption in never-written space
        bad = tree.scan(device._durable)
        assert bad == [8000 // CACHE_LINE]

    def test_scan_range_bounds(self):
        device, media = make_device()
        device._durable[0] = 1
        device._durable[SIZE - 1] = 1
        tree = media.tree
        assert tree.scan(device._durable, first=0, last=0) == [0]
        assert tree.scan(device._durable, first=1, last=N_LINES - 2) == []
        assert tree.scan(device._durable, first=N_LINES - 1) == [N_LINES - 1]

"""Property: the integrity tree is pure observation on the fault-free path.

Differential sweeps over random persist programs.  (1) A tree-guarded device is byte- and stats-identical
to an unguarded one — leaf CRC streaming rides the persist path without
adding device operations, and nothing the tree disputes exists when no
fault was injected.  (2) Attaching a tree does not move the crash
fingerprint relative to the checksum-only sidecar — the explorer's dedup
key sees one crash state, not two.  (3) The coalesced root equals the
dense definition over the durable image after a batch, and again after
recovery replays the pending log into a rebuilt interior — the lazy
pending log is a scheduling choice, never a semantic one.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nvm import NVMDevice
from repro.nvm.latency import CACHE_LINE

from ..integrity.dense_tree import dense_root

DEVICE_SIZE = 16384
N_LINES = DEVICE_SIZE // CACHE_LINE

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def op_sequences(draw):
    nops = draw(st.integers(1, 12))
    ops = []
    for _ in range(nops):
        kind = draw(st.sampled_from(["write", "flush", "fence", "persist_all"]))
        if kind == "write":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            size = draw(st.integers(1, min(128, DEVICE_SIZE - addr)))
            data = bytes(draw(st.integers(0, 255)) for _ in range(size))
            ops.append(("write", addr, data))
        elif kind == "flush":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            ops.append(("flush", addr, min(256, DEVICE_SIZE - addr)))
        else:
            ops.append((kind,))
    return ops


def apply_ops(device, ops):
    for op in ops:
        if op[0] == "write":
            device.write(op[1], op[2])
        elif op[0] == "flush":
            device.flush(op[1], op[2])
        elif op[0] == "fence":
            device.fence()
        else:
            device.persist_all()
    device.persist_all()


def make_device(tree=False, protect=False):
    device = NVMDevice(DEVICE_SIZE, seed=0)
    if tree or protect:
        device.attach_media(seed=0, tree=tree)
    return device


class TestTreeIsFreeWithoutFaults:
    @given(ops=op_sequences())
    @SETTINGS
    def test_guarded_matches_unguarded(self, ops):
        plain = make_device()
        guarded = make_device(tree=True)
        apply_ops(plain, ops)
        apply_ops(guarded, ops)
        assert bytes(plain._durable) == bytes(guarded._durable)
        # nothing disputed: sidecar, tree, and fault maps all clean
        assert guarded.media.bad_lines() == []
        assert not guarded.media.faulty
        assert guarded.media.tree.scan(guarded._durable) == []
        for stat in ("media_flips", "media_dead", "media_stale",
                     "media_detected", "media_repaired"):
            assert getattr(guarded.stats, stat) == 0
        # the tree is host-side bookkeeping riding persists — it adds no
        # device operations to the data path
        assert plain.stats.stores == guarded.stats.stores
        assert plain.stats.store_bytes == guarded.stats.store_bytes
        assert plain.stats.flushes == guarded.stats.flushes
        assert plain.stats.fences == guarded.stats.fences

    @given(ops=op_sequences())
    @SETTINGS
    def test_tree_does_not_move_the_crash_fingerprint(self, ops):
        """The explorer dedups crash states by fingerprint; the tree must
        not split one state into two."""
        sidecar_only = make_device(protect=True)
        treed = make_device(tree=True)
        apply_ops(sidecar_only, ops)
        apply_ops(treed, ops)
        assert sidecar_only.overlay_fingerprint() == treed.overlay_fingerprint()

    @given(ops=op_sequences())
    @SETTINGS
    def test_root_matches_dense_oracle(self, ops):
        device = make_device(tree=True)
        apply_ops(device, ops)
        tree = device.media.tree
        expected = dense_root(device._durable)
        crashed = tree.clone()  # pending log kept, interior dropped
        tree.apply_pending()
        assert tree.root() == tree.root_published == expected
        tree.drop_interior()
        assert tree.recover().root() == expected
        assert crashed.recover().root() == expected

"""Crash-recovery tour: power-fail the device mid-transaction, recover.

Shows the failure window the paper's protocols close: a transaction is
interrupted by a power failure with *random per-8-byte-word survival*
of unflushed cache lines (the adversarial torn-write case), and recovery
restores a consistent heap — rolling back from the undo log or from the
Kamino backup, and rolling forward committed-but-unsynced transactions.

Run:  python examples/crash_recovery.py
"""

from repro.errors import DeviceCrashedError
from repro.heap import FixedStr, Int64, PersistentHeap, PersistentStruct
from repro.nvm import CrashPolicy, NVMDevice, PmemPool
from repro.tx import UndoLogEngine, kamino_simple, reopen_after_crash, verify_backup_consistency


class Account(PersistentStruct):
    fields = [("owner", FixedStr(24)), ("balance", Int64())]


def scenario(engine_factory, label: str) -> None:
    print(f"--- {label} " + "-" * (50 - len(label)))
    device = NVMDevice(16 << 20, seed=42)
    pool = PmemPool.create(device)
    heap = PersistentHeap.create(pool, engine_factory(), heap_size=4 << 20)

    with heap.transaction():
        alice = heap.alloc(Account)
        bob = heap.alloc(Account)
        alice.owner, alice.balance = "alice", 100
        bob.owner, bob.balance = "bob", 50
        heap.set_root(alice)
    heap.drain()
    bob_oid = bob.oid

    # a transfer transaction dies mid-flight: both writes issued, then a
    # scheduled power failure fires inside the engine's machinery
    device.schedule_crash(after_ops=8, policy=CrashPolicy.RANDOM, survival_prob=0.5)
    try:
        with heap.transaction():
            alice.tx_add()
            bob.tx_add()
            alice.balance = alice.balance - 30
            bob.balance = bob.balance + 30
        heap.drain()
        print("transfer committed before the fail-point fired")
    except DeviceCrashedError:
        print("power failed mid-transfer (unflushed words randomly torn)")
    device.cancel_scheduled_crash()
    if not device.crashed:
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)

    heap2, engine2, report = reopen_after_crash(device, engine_factory)
    alice2 = heap2.root(Account)
    bob2 = heap2.deref(bob_oid, Account)
    total = alice2.balance + bob2.balance
    print(f"recovery: {report}")
    print(f"after recovery: alice={alice2.balance}, bob={bob2.balance}, "
          f"total={total} (atomic: {'OK' if total == 150 else 'BROKEN'})")
    assert total == 150, "money was created or destroyed!"
    if engine2.backup is not None:
        verify_backup_consistency(heap2)
        print("backup verified consistent with the main heap")
    print()


def main() -> None:
    scenario(UndoLogEngine, "undo logging (NVML baseline)")
    scenario(kamino_simple, "Kamino-Tx-Simple")


if __name__ == "__main__":
    main()

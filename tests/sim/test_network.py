"""Simulated network: delivery, FIFO per link, failure injection."""

import random

from repro.sim import EventSimulator, LinkFaultPolicy, NetStats, SimNetwork


def make_net(hop=1000.0, seed=None):
    sim = EventSimulator()
    rng = random.Random(seed) if seed is not None else None
    net = SimNetwork(sim, hop_latency_ns=hop, rng=rng)
    return sim, net


class TestDelivery:
    def test_message_delivered_after_hop_latency(self):
        sim, net = make_net(hop=1000)
        got = []
        net.register("b", lambda src, msg: got.append((sim.now, src, msg)))
        net.send("a", "b", "hello")
        sim.run()
        assert got == [(1000, "a", "hello")]

    def test_fifo_per_link(self):
        sim, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        for i in range(5):
            net.send("a", "b", i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_extra_delay(self):
        sim, net = make_net(hop=1000)
        got = []
        net.register("b", lambda src, msg: got.append(sim.now))
        net.send("a", "b", "x", extra_delay_ns=500)
        sim.run()
        assert got == [1500]

    def test_unknown_destination_dropped(self):
        sim, net = make_net()
        net.send("a", "ghost", "x")
        sim.run()
        assert net.stats.dropped == 1


class TestFailures:
    def test_down_node_receives_nothing(self):
        sim, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.fail_node("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == []
        assert net.stats.dropped == 1

    def test_revive_restores_delivery(self):
        sim, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.fail_node("b")
        net.revive_node("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]

    def test_cut_link_is_directional(self):
        sim, net = make_net()
        got_a, got_b = [], []
        net.register("a", lambda src, msg: got_a.append(msg))
        net.register("b", lambda src, msg: got_b.append(msg))
        net.cut_link("a", "b")
        net.send("a", "b", "x")  # dropped
        net.send("b", "a", "y")  # delivered
        sim.run()
        assert got_b == []
        assert got_a == ["y"]

    def test_inflight_message_dropped_when_node_fails_before_delivery(self):
        sim, net = make_net(hop=1000)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.send("a", "b", "x")
        sim.schedule(500, net.fail_node, "b")
        sim.run()
        assert got == []


class TestSplitDropCounters:
    def test_cut_link_counts_as_link_drop(self):
        sim, net = make_net()
        net.register("b", lambda src, msg: None)
        net.cut_link("a", "b")
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.dropped_link == 1
        assert net.stats.dropped_node == 0
        assert net.stats.dropped_fault == 0

    def test_down_node_counts_as_node_drop(self):
        sim, net = make_net()
        net.register("b", lambda src, msg: None)
        net.fail_node("b")
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.dropped_node == 1
        assert net.stats.dropped_link == 0

    def test_policy_drop_counts_as_fault_drop(self):
        sim, net = make_net(seed=1)
        net.register("b", lambda src, msg: None)
        net.set_link_policy("a", "b", LinkFaultPolicy(drop_p=1.0))
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.dropped_fault == 1
        # the aggregate legacy view sums all three
        assert net.stats.dropped == 1

    def test_snapshot_delta_contract(self):
        sim, net = make_net()
        net.register("b", lambda src, msg: None)
        net.send("a", "b", "x")
        sim.run()
        before = net.stats.snapshot()
        net.send("a", "b", "y")
        net.send("a", "ghost", "z")
        sim.run()
        window = net.stats.delta(before)
        assert window.sent == 2
        assert window.delivered == 1
        assert window.dropped_node == 1
        # snapshot is detached from the live counters
        assert isinstance(before, NetStats)
        assert before.sent == 1


class TestLinkFaultPolicies:
    def test_deterministic_under_same_seed(self):
        def run(seed):
            sim, net = make_net(seed=seed)
            got = []
            net.register("b", lambda src, msg: got.append(msg))
            net.set_link_policy("a", "b", LinkFaultPolicy(drop_p=0.5, dup_p=0.3))
            for i in range(50):
                net.send("a", "b", i)
            sim.run()
            return got, net.stats.snapshot()

        got1, stats1 = run(seed=7)
        got2, stats2 = run(seed=7)
        got3, _ = run(seed=8)
        assert got1 == got2
        assert stats1 == stats2
        assert got1 != got3  # different seed, different faults

    def test_duplication_delivers_twice(self):
        sim, net = make_net(seed=3)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.set_link_policy("a", "b", LinkFaultPolicy(dup_p=1.0))
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x", "x"]
        assert net.stats.duplicated == 1
        assert net.stats.delivered == 2

    def test_corruption_detected_and_dropped(self):
        sim, net = make_net(seed=3)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.set_link_policy("a", "b", LinkFaultPolicy(corrupt_p=1.0))
        net.send("a", "b", "x")
        sim.run()
        assert got == []
        assert net.stats.corrupted == 1
        assert net.stats.dropped_fault == 1

    def test_reordering_can_break_fifo(self):
        sim, net = make_net(seed=11)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.set_link_policy(
            "a", "b",
            LinkFaultPolicy(reorder_p=0.5, jitter_min_ns=0.0,
                            jitter_max_ns=10_000.0),
        )
        for i in range(30):
            net.send("a", "b", i)
        sim.run()
        assert sorted(got) == list(range(30))  # nothing lost
        assert got != list(range(30))  # but not in order
        assert net.stats.reordered > 0

    def test_default_policy_applies_to_every_link(self):
        sim, net = make_net(seed=5)
        net.register("b", lambda src, msg: None)
        net.register("c", lambda src, msg: None)
        net.set_default_policy(LinkFaultPolicy(drop_p=1.0))
        net.send("a", "b", "x")
        net.send("a", "c", "y")
        sim.run()
        assert net.stats.dropped_fault == 2

    def test_clear_faults_restores_clean_delivery(self):
        sim, net = make_net(seed=5)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.set_default_policy(LinkFaultPolicy(drop_p=1.0))
        net.set_node_delay("b", 5_000.0)
        net.partition([["a"], ["b"]])
        net.clear_faults()
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]
        assert sim.now == 1000.0  # no residual slow-node delay

    def test_clear_faults_keeps_down_nodes_down(self):
        sim, net = make_net()
        net.register("b", lambda src, msg: None)
        net.fail_node("b")
        net.clear_faults()
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.dropped_node == 1


class TestPartitionsAndSlowNodes:
    def test_partition_blocks_cross_group_traffic(self):
        sim, net = make_net()
        got = []
        for n in ("a", "b", "c"):
            net.register(n, lambda src, msg, n=n: got.append((n, msg)))
        net.partition([["a", "b"], ["c"]])
        net.send("a", "b", "in-group")
        net.send("a", "c", "cross")
        sim.run()
        assert got == [("b", "in-group")]
        assert net.stats.dropped_link == 1

    def test_heal_partition(self):
        sim, net = make_net()
        got = []
        net.register("c", lambda src, msg: got.append(msg))
        net.partition([["a"], ["c"]])
        net.heal_partition()
        net.send("a", "c", "x")
        sim.run()
        assert got == ["x"]

    def test_slow_node_adds_delay_both_directions(self):
        sim, net = make_net(hop=1000)
        times = []
        net.register("a", lambda src, msg: times.append(sim.now))
        net.register("b", lambda src, msg: times.append(sim.now))
        net.set_node_delay("b", 2_000.0)
        net.send("a", "b", "to-slow")
        sim.run()
        net.send("b", "a", "from-slow")
        sim.run()
        assert times == [3000.0, 6000.0]


class TestGroupStats:
    """Per-group stat partitions for transports shared by many chains."""

    def make_grouped(self):
        sim, net = make_net(seed=11)
        for node, group in (("a0", "g0"), ("a1", "g0"),
                            ("b0", "g1"), ("b1", "g1")):
            net.register(node, lambda src, msg: None)
            net.assign_group(node, group)
        return sim, net

    def test_messages_charged_to_source_group(self):
        sim, net = self.make_grouped()
        net.send("a0", "a1", "x")
        net.send("b0", "b1", "y")
        net.send("b1", "b0", "z")
        sim.run()
        assert net.stats.group("g0").sent == 1
        assert net.stats.group("g1").sent == 2
        assert net.stats.group("g0").delivered == 1
        assert net.stats.group("g1").delivered == 2

    def test_group_counters_sum_to_totals_under_faults(self):
        sim, net = self.make_grouped()
        net.set_default_policy(LinkFaultPolicy(drop_p=0.5))
        for i in range(40):
            net.send("a0", "a1", i)
            net.send("b0", "b1", i)
        sim.run()
        s = net.stats
        g0, g1 = s.group("g0"), s.group("g1")
        assert g0.sent + g1.sent == s.sent == 80
        assert g0.delivered + g1.delivered == s.delivered
        assert g0.dropped_fault + g1.dropped_fault == s.dropped_fault
        assert s.dropped_fault > 0

    def test_cross_group_message_charged_to_source(self):
        sim, net = self.make_grouped()
        net.send("a0", "b0", "cross")
        sim.run()
        assert net.stats.group("g0").sent == 1
        assert net.stats.group("g1").sent == 0

    def test_ungrouped_node_falls_back_to_destination_group(self):
        sim, net = self.make_grouped()
        net.register("loner", lambda src, msg: None)
        net.send("loner", "a0", "in")
        sim.run()
        assert net.stats.group("g0").sent == 1
        assert net.group_of("loner") is None

    def test_snapshot_and_delta_carry_the_partition(self):
        sim, net = self.make_grouped()
        net.send("a0", "a1", "one")
        sim.run()
        snap = net.stats.snapshot()
        net.send("a0", "a1", "two")
        net.send("b0", "b1", "three")
        sim.run()
        window = net.stats.delta(snap)
        assert window.group("g0").sent == 1
        assert window.group("g1").sent == 1

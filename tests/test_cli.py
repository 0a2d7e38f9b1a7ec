"""CLI subcommands: smoke coverage via main() with small workloads."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_engine_list_parses(self):
        args = build_parser().parse_args(["ycsb", "--engines", "a, b ,c"])
        assert args.engines == "a, b ,c"

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ycsb", "--workload", "Z"])


class TestCommands:
    def test_ycsb(self, capsys):
        rc = main([
            "ycsb", "--workload", "C", "--records", "60", "--ops", "80",
            "--threads", "2", "--engines", "kamino-simple",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "YCSB-C" in out and "kamino-simple" in out

    def test_ycsb_dynamic_alpha(self, capsys):
        rc = main([
            "ycsb", "--workload", "A", "--records", "60", "--ops", "80",
            "--threads", "2", "--engines", "kamino-dynamic", "--alpha", "0.3",
        ])
        assert rc == 0
        assert "kamino-dynamic" in capsys.readouterr().out

    def test_tpcc(self, capsys):
        rc = main(["tpcc", "--ops", "40", "--engines", "undo"])
        assert rc == 0
        assert "TPC-C" in capsys.readouterr().out

    def test_chain(self, capsys):
        rc = main([
            "chain", "--workload", "A", "--f", "1", "--clients", "2",
            "--records", "30", "--ops", "15",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traditional" in out and "kamino" in out

    def test_crash(self, capsys):
        rc = main(["crash", "--engine", "undo", "--after", "200", "--policy", "drop"])
        assert rc == 0
        assert "100/100 pre-crash records intact" in capsys.readouterr().out

    def test_info(self, capsys):
        rc = main(["info", "--engine", "kamino-simple", "--mb", "32", "--records", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regions:" in out and "backup:" in out

    def test_info_undo_has_no_backup_line(self, capsys):
        rc = main(["info", "--engine", "undo", "--mb", "32", "--records", "10"])
        assert rc == 0
        assert "backup:" not in capsys.readouterr().out

    def test_check_quick_single_engine(self, capsys):
        rc = main(["check", "--engine", "undo", "--quick", "--no-chain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "undo" in out and "explored=" in out
        assert "all oracles satisfied" in out

    def test_cluster_quick_no_sweep(self, capsys):
        rc = main(["cluster", "--quick", "--no-sweep", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "map v2" in out and "online migrations" in out
        assert "migrate_then_crash" in out
        assert "all converged" in out

    def test_check_rejects_unknown_workload(self, capsys):
        rc = main(["check", "--workloads", "bogus", "--engine", "undo"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["crash", "--engine", "quantum"],
        ["ycsb", "--engines", "quantum"],
        ["check", "--engine", "quantum", "--quick"],
    ])
    def test_unknown_engine_is_a_one_line_error(self, argv, capsys):
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown engine 'quantum'; choose from [")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bench_verb_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2


class TestScrub:
    def test_scrub_quick_repairs_everything(self, capsys):
        rc = main(["scrub", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scrub: " in out and "repaired=" in out
        assert "every injected fault repaired" in out

    def test_scrub_no_protect_demonstrates_silent_corruption(self, capsys):
        rc = main(["scrub", "--quick", "--no-protect", "--flips", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "silently corrupt" in out
        assert "scrub: " not in out  # no sidecar, nothing to scrub

    def test_nemesis_media_quick(self, capsys):
        rc = main(["nemesis", "--media", "--quick", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bitrot_scrub" in out and "ok" in out

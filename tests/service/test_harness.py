"""The `service` CLI subcommand: measured wall-clock rates of the
sharded service against one plain Farmer."""

import pytest

from repro.cli import main


class TestServiceCli:
    def test_service_subcommand(self, capsys):
        assert (
            main(
                [
                    "service",
                    "--events",
                    "600",
                    "--shards",
                    "1,2",
                    "--freeze",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards" in out
        assert "1 (plain Farmer)" in out
        assert "vs 1 miner" in out
        assert "wall clock, one thread" in out

    def test_service_subcommand_isolated_observe_only(self, capsys):
        assert (
            main(
                [
                    "service",
                    "--events",
                    "400",
                    "--shards",
                    "2",
                    "--isolate",
                    "--no-predict",
                    "--policy",
                    "range",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cross_shard_edges=False" in out
        assert "mode=observe" in out

    def test_per_shard_cache_flag_is_gone(self, capsys):
        """There is no similarity cache to split per shard."""
        with pytest.raises(SystemExit):
            main(["service", "--events", "100", "--per-shard-cache"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--parallel", "--workers"])
    def test_parallel_flags_are_gone(self, flag, capsys):
        """There is one execution model: the parallel-executor flags
        are not accepted."""
        with pytest.raises(SystemExit):
            main(["service", "--events", "100", flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

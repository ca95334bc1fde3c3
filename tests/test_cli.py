"""The repro-bid command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "history.csv"
    assert main(["trace", "r3.xlarge", "--days", "10", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def future_file(tmp_path):
    path = tmp_path / "future.csv"
    assert main(["trace", "r3.xlarge", "--days", "4", "--model", "renewal",
                 "--seed", "4", "--out", str(path)]) == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])


class TestTrace:
    def test_writes_csv(self, trace_file, capsys):
        assert trace_file.exists()
        text = trace_file.read_text()
        assert "instance_type=r3.xlarge" in text
        assert "slot,time_hours,price" in text

    def test_unknown_instance_type_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", "z9.mega", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBid:
    def test_all_strategies(self, trace_file, capsys):
        assert main(["bid", str(trace_file), "--hours", "1",
                     "--recovery-seconds", "30"]) == 0
        out = capsys.readouterr().out
        assert "one-time" in out
        assert "persistent" in out
        assert "percentile" in out

    def test_explicit_ondemand(self, trace_file, capsys):
        assert main(["bid", str(trace_file), "--ondemand", "0.5",
                     "--strategy", "persistent"]) == 0
        assert "persistent" in capsys.readouterr().out

    def test_rejects_nonpositive_ondemand(self, trace_file, capsys):
        assert main(["bid", str(trace_file), "--ondemand", "-1"]) == 1


class TestFit:
    def test_reports_both_families(self, trace_file, capsys):
        assert main(["fit", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        assert "exponential" in out


class TestBacktest:
    def test_end_to_end(self, trace_file, future_file, capsys):
        assert main(["backtest", str(trace_file), str(future_file),
                     "--strategy", "persistent"]) == 0
        out = capsys.readouterr().out
        assert "outcome:" in out
        assert "savings" in out


class TestSweep:
    def test_grid_over_futures(self, trace_file, future_file, capsys):
        assert main(["sweep", str(trace_file), str(future_file),
                     "--bids", "5", "--strategy", "persistent"]) == 0
        out = capsys.readouterr().out
        assert "5 bids" in out
        assert "best bid" in out

    def test_rejects_bad_grid(self, trace_file, future_file, capsys):
        # Numeric validation happens at argparse level: friendly usage
        # error and the standard exit code 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(trace_file), str(future_file), "--bids", "0"])
        assert excinfo.value.code == 2
        assert "--bids" in capsys.readouterr().err
        assert main(["sweep", str(trace_file), str(future_file),
                     "--low", "0.2", "--high", "0.1"]) == 1
        assert "--high" in capsys.readouterr().err


class TestCatalog:
    def test_lists_types(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "r3.xlarge" in out
        assert "c3.8xlarge" in out


class TestExperimentCommand:
    def test_table3_fast(self, capsys):
        assert main(["experiment", "table3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "r3.xlarge" in out
        assert "one-time p*" in out


class TestDescribe:
    def test_summarizes_trace(self, trace_file, capsys):
        assert main(["describe", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "floor occupancy" in out
        assert "r3.xlarge" in out


class TestMapReduceCommand:
    def test_plans_a_cluster(self, capsys):
        assert main(["mapreduce", "--master", "m3.xlarge",
                     "--slave", "c3.4xlarge", "--hours", "8",
                     "--slaves", "5"]) == 0
        out = capsys.readouterr().out
        assert "one-time bid" in out
        assert "persistent bid" in out
        assert "cheaper" in out

    def test_unknown_type_fails_cleanly(self, capsys):
        assert main(["mapreduce", "--slave", "z9.mega"]) == 1


class TestOptionsCommand:
    def test_compares_four_options(self, trace_file, capsys):
        assert main(["options", str(trace_file), "--hours", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("on-demand", "one-time", "persistent", "spot-block"):
            assert name in out


class TestNumericValidation:
    """Invalid numeric flags die in argparse with a friendly message."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["bid", "t.csv", "--hours", "0"], "--hours"),
            (["bid", "t.csv", "--hours", "-2"], "--hours"),
            (["bid", "t.csv", "--hours", "nan"], "--hours"),
            (["bid", "t.csv", "--recovery-seconds", "-1"],
             "--recovery-seconds"),
            (["trace", "r3.xlarge", "--days", "0", "--out", "x.csv"],
             "--days"),
            (["sweep", "a.csv", "b.csv", "--bids", "-3"], "--bids"),
            (["sweep", "a.csv", "b.csv", "--bids", "2.5"], "--bids"),
            (["mapreduce", "--slaves", "0"], "--slaves"),
            (["chaos", "t.csv", "--intensity", "-1"], "--intensity"),
            (["chaos", "t.csv", "--starts", "0"], "--starts"),
            (["sweep", "a.csv", "b.csv", "--workers", "0"], "--workers"),
        ],
    )
    def test_rejected_at_parse_time(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err

    def test_messages_name_the_offending_value(self, capsys):
        with pytest.raises(SystemExit):
            main(["bid", "t.csv", "--hours", "-2"])
        assert "-2" in capsys.readouterr().err


class TestDecisionFlagValidation:
    """Out-of-range decision flags fail with one `error:` line, exit 1."""

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["bid", "{h}", "--strategy", "percentile", "--percentile", "150"],
             "percentile"),
            (["bid", "{h}", "--strategy", "cvar", "--cvar-alpha", "1.5"],
             "cvar_alpha"),
            (["bid", "{h}", "--strategy", "portfolio", "--max-variance", "-1"],
             "max_variance"),
            (["sweep", "{h}", "{f}", "--strategy", "portfolio",
              "--max-variance", "-1"], "max_variance"),
            (["sweep", "{h}", "{f}", "--strategy", "cvar",
              "--cvar-alpha", "1.5"], "cvar_alpha"),
        ],
        ids=[
            "bid-percentile", "bid-cvar-alpha", "bid-max-variance",
            "sweep-max-variance", "sweep-cvar-alpha",
        ],
    )
    def test_rejected_with_an_error_line(
        self, trace_file, future_file, argv, field, capsys
    ):
        argv = [a.format(h=trace_file, f=future_file) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


class TestPortAndSocketErrors:
    """Port flags take 0-65535; socket failures print one `error:` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "t.csv", "--port", "70000"],
            ["serve", "t.csv", "--port", "-1"],
            ["loadgen", "t.csv", "--port", "-1", "-n", "1"],
            ["loadgen", "t.csv", "--port", "65536", "-n", "1"],
            ["loadgen", "t.csv", "--port", "http", "-n", "1"],
        ],
        ids=["serve-70000", "serve-neg", "loadgen-neg", "loadgen-65536",
             "loadgen-text"],
    )
    def test_out_of_range_port_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--port" in err and "Traceback" not in err

    def test_port_zero_stays_the_ephemeral_port(self):
        args = build_parser().parse_args(["serve", "t.csv", "--port", "0"])
        assert args.port == 0

    def test_loadgen_refused_connection(self, trace_file, capsys):
        import socket

        # Bound but not listening: a connect to it is refused.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            code = main(["loadgen", str(trace_file), "--port", str(port),
                         "-n", "1", "--connections", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"127.0.0.1:{port}" in err and "refused" in err
        assert "Traceback" not in err

    def test_serve_address_in_use(self, trace_file, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            code = main(["serve", str(trace_file), "--port", str(port),
                         "--grid", "4x2"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"127.0.0.1:{port}" in err and "in use" in err
        assert "Traceback" not in err

    def test_serve_address_not_local(self, trace_file, capsys):
        import socket

        # 192.0.2.1 is a documentation address (RFC 5737) that no host
        # owns, so the bind fails locally without sending anything --
        # unless the host allows non-local binds, where the daemon
        # would start and serve forever.
        with socket.socket() as probe:
            try:
                probe.bind(("192.0.2.1", 0))
            except OSError:
                pass
            else:
                pytest.skip("this host allows binding non-local addresses")
        code = main(["serve", str(trace_file), "--host", "192.0.2.1",
                     "--port", "0", "--grid", "4x2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot serve on 192.0.2.1:0")
        assert "Traceback" not in err


class TestChaosCommand:
    def test_end_to_end_on_generated_trace(self, trace_file, capsys):
        assert main(["chaos", str(trace_file), "--hours", "1",
                     "--seed", "3", "--starts", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault class" in out
        for name in ("spike", "plateau", "dropout", "duplication",
                     "storm", "truncation"):
            assert name in out

    def test_reproducible_per_seed(self, trace_file, capsys):
        argv = ["chaos", str(trace_file), "--seed", "9", "--starts", "2",
                "--classes", "spike", "truncation"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_split_fails_cleanly(self, trace_file, capsys):
        assert main(["chaos", str(trace_file), "--split", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mapreduce", [[], ["--mapreduce"]])
    def test_negative_seed_fails_cleanly(self, trace_file, capsys, mapreduce):
        argv = ["chaos", str(trace_file), "--seed", "-1", "--starts", "2"]
        assert main(argv + mapreduce) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative")
        assert "Traceback" not in err

    def test_unknown_class_rejected_by_argparse(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", str(trace_file), "--classes", "gremlin"])
        assert "--classes" in capsys.readouterr().err

    def test_mapreduce_mode_end_to_end(self, trace_file, capsys):
        assert main(["chaos", str(trace_file), "--mapreduce",
                     "--hours", "2", "--slaves", "3", "--seed", "1",
                     "--starts", "2", "--classes", "spike", "plateau"]) == 0
        out = capsys.readouterr().out
        assert "mapreduce chaos" in out
        assert "3 slaves" in out
        assert "spike" in out and "plateau" in out

    def test_mapreduce_separate_slave_trace(self, trace_file, future_file,
                                            capsys):
        # future_file is a valid second market trace with the same slots.
        assert main(["chaos", str(trace_file), "--mapreduce",
                     "--slave-trace", str(future_file), "--hours", "2",
                     "--slaves", "3", "--starts", "2",
                     "--classes", "spike"]) == 0
        assert "mapreduce chaos" in capsys.readouterr().out

    def test_slave_trace_requires_mapreduce(self, trace_file, capsys):
        assert main(["chaos", str(trace_file),
                     "--slave-trace", str(trace_file)]) == 1
        assert "--mapreduce" in capsys.readouterr().err

    def test_kill_workers_mode_proves_bitwise_parity(self, trace_file, capsys):
        assert main(["chaos", str(trace_file), "--kill-workers",
                     "--seed", "3", "--starts", "6", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker chaos" in out
        assert "IDENTICAL" in out

    def test_kill_workers_excludes_mapreduce(self, trace_file, capsys):
        assert main(["chaos", str(trace_file), "--kill-workers",
                     "--mapreduce"]) == 1
        assert "exclusive" in capsys.readouterr().err

"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _build_table, main, make_parser
from repro.workloads.scale import ExperimentScale


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_defaults(self):
        args = make_parser().parse_args(["fig3"])
        assert args.scale == "quick"
        assert args.seed == 0
        assert args.verbose is False
        assert args.backend is None  # the table's own co-run policy
        assert args.workers is None

    def test_backend_options(self):
        args = make_parser().parse_args(
            ["--backend", "process", "--workers", "4", "fig3"]
        )
        assert args.backend == "process"
        assert args.workers == 4

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--backend", "quantum", "fig3"])

    def test_engine_defaults_to_auto(self):
        assert make_parser().parse_args(["fig3"]).engine == "auto"

    def test_engine_options(self):
        for engine in ("auto", "scalar", "kernel"):
            assert make_parser().parse_args(
                ["--engine", engine, "fig3"]
            ).engine == engine

    @pytest.mark.parametrize("argv", [
        ["--engine", "batch", "fig3"],
        ["--engine", "sharded", "fig3"],
        ["--array-backend", "numpy", "fig3"],
    ])
    def test_retired_options_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit):
            make_parser().parse_args(argv)

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--engine", "warp", "fig3"])

    def test_iid_options(self):
        args = make_parser().parse_args(["--scale", "tiny", "iid", "--mid", "123"])
        assert args.scale == "tiny"
        assert args.mid == 123

    def test_fig4_no_average(self):
        args = make_parser().parse_args(["fig4", "--no-average"])
        assert args.no_average is True

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--scale", "huge", "fig3"])

    def test_resilience_options(self):
        args = make_parser().parse_args(
            ["--checkpoint-dir", "/tmp/ck", "--resume",
             "--run-timeout", "30", "--cycle-budget", "1000000", "fig3"]
        )
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.resume is True
        assert args.run_timeout == 30.0
        assert args.cycle_budget == 1000000

    def test_resume_requires_checkpoint_dir(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="--checkpoint-dir"):
            main(["--resume", "fig3"])


class TestScaledPlatform:
    @pytest.mark.parametrize("scale", ["quick", "default"])
    def test_table_simulates_the_scale_platform(self, scale):
        args = make_parser().parse_args(["--scale", scale, "iid"])
        table = _build_table(args)
        assert table.config == ExperimentScale.from_name(scale).system_config()


class TestCoRunBackend:
    """Which backend runs Figure 4's deployment co-run batch."""

    def _backend(self, argv, monkeypatch, cpus=2):
        from repro.analysis import experiments

        monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
        table = _build_table(make_parser().parse_args(argv + ["fig4"]))
        return experiments._corun_backend(table, coruns=16)

    def test_default_uses_every_usable_cpu(self, monkeypatch):
        from repro.sim.backend import ProcessPoolBackend

        backend = self._backend(["--scale", "tiny"], monkeypatch, cpus=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3

    def test_default_on_one_cpu_stays_in_process(self, monkeypatch):
        from repro.sim.backend import SerialBackend

        backend = self._backend(["--scale", "tiny"], monkeypatch, cpus=1)
        assert isinstance(backend, SerialBackend)

    def test_serial_backend_forces_in_process(self, monkeypatch):
        from repro.sim.backend import SerialBackend

        backend = self._backend(["--scale", "tiny", "--backend", "serial"],
                                monkeypatch)
        assert isinstance(backend, SerialBackend)

    def test_process_backend_uses_the_given_workers(self, monkeypatch):
        from repro.sim.backend import ProcessPoolBackend

        backend = self._backend(
            ["--scale", "tiny", "--backend", "process", "--workers", "3"],
            monkeypatch,
        )
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3

    def test_default_prints_the_serial_figure(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.analysis import experiments

        # The serial run journals every campaign; the default run resumes
        # them and differs only in where its co-runs execute.
        ckpt = str(tmp_path / "journals")
        code = main(["--scale", "tiny", "--seed", "3", "--backend", "serial",
                     "--checkpoint-dir", ckpt, "fig4"])
        assert code == 0
        serial_out = capsys.readouterr().out
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        code = main(["--scale", "tiny", "--seed", "3", "--checkpoint-dir",
                     ckpt, "--resume", "--verbose", "fig4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "deployment batch: 16 co-runs on process[2]" in captured.err
        assert captured.out == serial_out


class TestExecution:
    """End-to-end CLI runs at tiny scale (slow-ish but real)."""

    def test_iid_command(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "iid"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MBPTA compliance" in out
        assert "ID" in out

    def test_fig4_no_average_command(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "fig4", "--no-average"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wgIPC" in out
        assert "S-curve deciles" in out

    def test_process_backend_matches_serial(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "iid"])
        assert code == 0
        serial_out = capsys.readouterr().out
        code = main(["--scale", "tiny", "--seed", "3", "--backend", "process",
                     "--workers", "2", "iid"])
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_engines_print_identical_tables(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "--engine", "scalar",
                     "iid"])
        assert code == 0
        scalar_out = capsys.readouterr().out
        code = main(["--scale", "tiny", "--seed", "3", "--engine", "kernel",
                     "iid"])
        assert code == 0
        assert capsys.readouterr().out == scalar_out

    # "batch engine" below is the kernel engine's strict BatchBackend.
    def test_strict_batch_engine_refuses_profile(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="profil"):
            main(["--scale", "tiny", "--engine", "kernel", "--profile", "iid"])

    def test_strict_batch_engine_refuses_deployment_runs(self):
        from repro.errors import ConfigurationError

        # fig4's measured-average pass co-runs workloads (deployment
        # mode), which the kernel engine must reject by name instead of
        # silently interpreting scalar.
        with pytest.raises(ConfigurationError, match="deployment"):
            main(["--scale", "tiny", "--engine", "kernel", "fig4"])

    def test_checkpointed_resume_matches_fresh_run(self, tmp_path, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "iid"])
        assert code == 0
        fresh_out = capsys.readouterr().out
        ckpt = str(tmp_path / "journals")
        code = main(["--scale", "tiny", "--seed", "3",
                     "--checkpoint-dir", ckpt, "iid"])
        assert code == 0
        assert capsys.readouterr().out == fresh_out
        # Second invocation resumes every campaign entirely from the
        # journals and must print the identical table.
        code = main(["--scale", "tiny", "--seed", "3",
                     "--checkpoint-dir", ckpt, "--resume", "iid"])
        assert code == 0
        assert capsys.readouterr().out == fresh_out


class TestCsvExport:
    def test_iid_csv_written(self, tmp_path, capsys):
        prefix = str(tmp_path / "out-")
        code = main(["--scale", "tiny", "--seed", "3", "--csv", prefix, "iid"])
        assert code == 0
        csv_path = tmp_path / "out-iid.csv"
        assert csv_path.exists()
        content = csv_path.read_text().splitlines()
        assert content[0].startswith("benchmark,")
        assert len(content) == 11  # header + 10 benchmarks


class TestWorkerValidation:
    def test_rejects_zero_workers(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="--workers"):
            main(["--backend", "process", "--workers", "0", "fig3"])

    def test_rejects_negative_workers(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="positive"):
            main(["--backend", "process", "--workers", "-3", "fig3"])

    def test_single_cpu_process_backend_warns_and_proceeds(
        self, monkeypatch, capsys
    ):
        import repro.cli as cli
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        code = main(["--scale", "tiny", "--seed", "3",
                     "--backend", "process", "--workers", "2", "iid"])
        assert code == 0
        captured = capsys.readouterr()
        assert "single-CPU host" in captured.err
        assert "MBPTA compliance" in captured.out

    def test_multi_cpu_process_backend_does_not_warn(self, monkeypatch, capsys):
        import repro.cli as cli
        monkeypatch.setattr(cli, "usable_cpus", lambda: 8)
        code = main(["--scale", "tiny", "--seed", "3",
                     "--backend", "process", "--workers", "2", "iid"])
        assert code == 0
        assert "single-CPU host" not in capsys.readouterr().err


class TestWorkerEngineConflicts:
    # The kernel engine runs in-process (BatchBackend) or sharded
    # (ShardedBatchBackend); both forms conflict with the process pool.
    def test_process_backend_conflicts_with_batch_engine(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError,
                           match="--backend process conflicts"):
            main(["--backend", "process", "--engine", "kernel", "fig3"])

    def test_process_backend_conflicts_with_sharded_engine(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="--engine kernel"):
            main(["--backend", "process", "--engine", "kernel",
                  "--workers", "2", "fig3"])

    def test_workers_with_scalar_engine_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="--engine scalar"):
            main(["--engine", "scalar", "--workers", "2", "fig3"])

    def test_workers_route_to_shards_without_process_backend(self, capsys):
        # --engine kernel --workers 2 means two shards: the run must
        # complete and print the same table a scalar run prints.
        code = main(["--scale", "tiny", "--seed", "3", "--engine", "scalar",
                     "iid"])
        assert code == 0
        scalar_out = capsys.readouterr().out
        code = main(["--scale", "tiny", "--seed", "3", "--engine", "kernel",
                     "--workers", "2", "iid"])
        assert code == 0
        assert capsys.readouterr().out == scalar_out


class TestProfileFlag:
    def test_profile_prints_attribution_table(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "--profile", "iid"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot-path profile" in out
        for component in ("l1", "bus", "llc", "efl", "memctrl"):
            assert component in out

    def test_no_profile_no_table(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "iid"])
        assert code == 0
        assert "hot-path profile" not in capsys.readouterr().out

    def test_profile_does_not_change_results(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "iid"])
        assert code == 0
        plain = capsys.readouterr().out
        code = main(["--scale", "tiny", "--seed", "3", "--profile", "iid"])
        assert code == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain.rstrip("\n"))


class TestLogFlags:
    def test_defaults(self):
        args = make_parser().parse_args(["iid"])
        assert args.log_level == "info"
        assert args.log_format == "plain"

    def test_rejects_unknown_level_and_format(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--log-level", "loud", "iid"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--log-format", "xml", "iid"])

    def test_verbose_plain_output_unchanged(self, capsys):
        # The default --log-level/--log-format must reproduce the
        # historical --verbose text output byte for byte.
        code = main(["--scale", "tiny", "--seed", "3", "--verbose", "iid"])
        assert code == 0
        err = capsys.readouterr().err
        assert "  [campaign:" in err
        assert "0 failed, 0 retried]" in err

    def test_quiet_silences_progress(self, capsys):
        code = main(["--scale", "tiny", "--seed", "3", "--verbose",
                     "--log-level", "quiet", "iid"])
        assert code == 0
        assert "[campaign" not in capsys.readouterr().err

    def test_json_log_format_emits_jsonl(self, capsys):
        import json as json_mod

        code = main(["--scale", "tiny", "--seed", "3", "--verbose",
                     "--log-format", "json", "iid"])
        assert code == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
        assert lines
        events = {json_mod.loads(line)["event"] for line in lines}
        assert "campaign_start" in events


class TestSubmitStatus:
    def test_submit_parser_options(self):
        args = make_parser().parse_args(
            ["submit", "--store", "s", "--bench", "RS",
             "--scenario", "EFL500", "--runs", "7", "--json"]
        )
        assert args.store == "s"
        assert args.bench == "RS"
        assert args.scenario == "EFL500"
        assert args.runs == 7
        assert args.json is True

    def test_submit_requires_store_bench_scenario(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["submit", "--bench", "RS",
                                      "--scenario", "EFL500"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["submit", "--store", "s"])

    def test_submit_rejects_process_backend(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no --backend"):
            main(["--backend", "process", "submit",
                  "--store", str(tmp_path), "--bench", "RS",
                  "--scenario", "EFL100"])

    def test_submit_then_cached_resubmit(self, tmp_path, capsys):
        import json as json_mod

        store = str(tmp_path / "store")
        argv = ["--scale", "tiny", "--seed", "3", "submit",
                "--store", store, "--bench", "RS",
                "--scenario", "EFL100", "--runs", "6", "--json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        first = json_mod.loads(captured.out)
        assert "source simulated" in captured.err
        assert "6 runs simulated" in captured.err

        # Byte-identical resubmission: zero runs simulated, identical
        # payload served from the store.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "source store" in captured.err
        assert "0 runs simulated" in captured.err
        assert json_mod.loads(captured.out) == first

    def test_submit_writes_telemetry_artifacts(self, tmp_path, capsys):
        import json as json_mod

        store = str(tmp_path / "store")
        teldir = tmp_path / "telemetry"
        assert main(["--scale", "tiny", "--seed", "3", "submit",
                     "--store", store, "--bench", "RS",
                     "--scenario", "EFL100", "--runs", "4",
                     "--telemetry-dir", str(teldir)]) == 0
        capsys.readouterr()
        metrics = json_mod.loads((teldir / "metrics.json").read_text())
        spans = json_mod.loads((teldir / "spans.json").read_text())
        assert metrics["counters"]["runs_simulated"] == 4
        assert metrics["counters"]["runs_requested"] == 4
        assert spans[0]["name"] == "campaign"

    def test_status_lists_entries(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["--scale", "tiny", "--seed", "3", "submit",
                     "--store", store, "--bench", "RS",
                     "--scenario", "EFL100", "--runs", "4"]) == 0
        capsys.readouterr()
        assert main(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "RS under EFL100" in out

    def test_status_json_and_corrupt_detection(self, tmp_path, capsys):
        import json as json_mod

        store_dir = tmp_path / "store"
        assert main(["--scale", "tiny", "--seed", "3", "submit",
                     "--store", str(store_dir), "--bench", "RS",
                     "--scenario", "EFL100", "--runs", "4"]) == 0
        capsys.readouterr()
        # Tamper with the single entry.
        entry_path = next(store_dir.glob("*.json"))
        entry = json_mod.loads(entry_path.read_text())
        entry["payload"]["execution_times"][0] += 1
        entry_path.write_text(json_mod.dumps(entry))
        assert main(["status", "--store", str(store_dir), "--json"]) == 1
        summary = json_mod.loads(capsys.readouterr().out)
        assert summary["entries"][0]["ok"] is False

    def test_status_empty_store(self, tmp_path, capsys):
        assert main(["status", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_status_json_surfaces_kernel_stats(self, tmp_path, capsys):
        import json as json_mod

        store = str(tmp_path / "store")
        assert main(["--scale", "tiny", "--seed", "3",
                     "--engine", "kernel", "submit",
                     "--store", store, "--bench", "RS",
                     "--scenario", "EFL100", "--runs", "4"]) == 0
        capsys.readouterr()
        assert main(["status", "--store", store, "--json"]) == 0
        summary = json_mod.loads(capsys.readouterr().out)
        kernel = summary["entries"][0]["kernel"]
        assert kernel["chains"] >= 1
        assert 0.0 <= kernel["fusion_ratio"] <= 1.0

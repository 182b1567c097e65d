"""Integration tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.cluster import ClusterConfig
from repro.cluster.directory import Consistency, DirectoryConfig
from repro.dedup.chunking import ChunkingConfig
from repro.experiments import runner
from repro.experiments.runner import RunSpec, Tenants, execute
from repro.obs.report import build_run_report
from repro.sim import batch, replay
from repro.sim.replay import ReplayConfig
from repro.storage.raid import RaidLevel

SLO_POLICY = str(Path(__file__).resolve().parents[2] / "examples" / "slo.json")


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--trace", "mail", "--scheme", "POD", "--scale", "0.02"]
        )
        assert args.trace == "mail" and args.scheme == "POD" and args.scale == 0.02

    def test_bad_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace", "nope", "--scheme", "POD"])


class TestCommands:
    def test_run(self, capsys):
        rc = main(["run", "--trace", "web-vm", "--scheme", "POD", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "POD on web-vm" in out
        assert "mean response" in out

    def test_run_with_index_fraction(self, capsys):
        rc = main(
            [
                "run", "--trace", "web-vm", "--scheme", "Full-Dedupe",
                "--scale", "0.02", "--index-fraction", "0.3",
            ]
        )
        assert rc == 0

    def test_run_unknown_scheme_is_an_error(self, capsys):
        rc = main(["run", "--trace", "web-vm", "--scheme", "nope", "--scale", "0.02"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_compare(self, capsys):
        rc = main(["compare", "--trace", "homes", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        for scheme in ("Native", "Full-Dedupe", "iDedup", "Select-Dedupe", "POD"):
            assert scheme in out

    def test_figures_selected(self, capsys):
        rc = main(["figures", "--only", "table1,fig2", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table I" in out and "Fig. 2" in out

    def test_figures_unknown_name(self, capsys):
        rc = main(["figures", "--only", "fig99", "--scale", "0.02"])
        assert rc == 2

    def test_figures_registry_complete(self):
        from repro.experiments import figures

        for attr in FIGURES.values():
            assert hasattr(figures, attr)

    def test_trace_generate_and_analyze(self, capsys, tmp_path):
        out_file = tmp_path / "t.trace"
        rc = main(
            ["trace", "generate", "--trace", "web-vm", "--scale", "0.02",
             "--out", str(out_file)]
        )
        assert rc == 0 and out_file.exists()
        rc = main(["trace", "analyze", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "write ratio" in out and "I/O redundancy" in out

    def test_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["report", "--scale", "0.02"])
        assert rc == 0
        assert (tmp_path / "EXPERIMENTS.md").exists()
        content = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "Fig. 11" in content and "Table II" in content

    def test_run_with_raid(self, capsys):
        rc = main(
            ["run", "--trace", "web-vm", "--scheme", "Native", "--scale", "0.02",
             "--raid", "raid0", "--ndisks", "2"]
        )
        assert rc == 0
        assert "Native on web-vm" in capsys.readouterr().out

    def test_run_degraded(self, capsys):
        rc = main(
            ["run", "--trace", "web-vm", "--scheme", "Native", "--scale", "0.02",
             "--failed-disk", "1"]
        )
        assert rc == 0

    def test_export(self, capsys, tmp_path):
        out = tmp_path / "figs"
        rc = main(["export", "--out", str(out), "--scale", "0.02"])
        assert rc == 0
        assert (out / "figures.json").exists()
        assert (out / "fig8_overall_response.csv").exists()


#: CLI runs the columnar driver carries, and the report sections that
#: must come out equal on the object event loop.
DRIVER_RUNS = {
    "telemetry": (
        ["run", "--trace", "web-vm", "--scheme", "pod", "--scale", "0.02",
         "--seed", "1", "--timeline", "1.0", "--slo", SLO_POLICY],
        ("timeline", "slo"),
    ),
    "multi-volume-telemetry": (
        ["run-multi", "--trace", "web-vm", "--trace", "mail", "--copies", "2",
         "--scheme", "pod", "--scale", "0.02", "--seed", "1",
         "--timeline", "1.0", "--slo", SLO_POLICY],
        ("timeline", "slo", "histograms", "volumes"),
    ),
    "degraded-array": (
        ["run", "--trace", "web-vm", "--scheme", "pod", "--raid", "raid5",
         "--failed-disk", "1", "--scale", "0.02", "--seed", "1"],
        ("counters", "histograms", "utilisation"),
    ),
    "multi-volume-cdc": (
        ["run-multi", "--trace", "web-vm", "--trace", "mail", "--copies", "2",
         "--scheme", "pod", "--chunking", "gear", "--scale", "0.02",
         "--seed", "1"],
        ("counters", "histograms", "volumes", "icache_timeline", "utilisation"),
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVER_RUNS))
def test_driver_report_equals_object_loop(name, tmp_path, monkeypatch):
    """A default CLI run takes the columnar driver; with one more
    capability rule refusing the driver it takes the object event
    loop, and the report sections both loops fill are equal."""
    argv, sections = DRIVER_RUNS[name]
    driver_calls = []
    replay_columnar = batch.replay_columnar

    def spy(*args, **kwargs):
        driver_calls.append(1)
        return replay_columnar(*args, **kwargs)

    monkeypatch.setattr(batch, "replay_columnar", spy)
    reports = {}
    for loop in ("driver", "object"):
        if loop == "object":
            refuse_driver = replay.Capability(
                "object loop", lambda run: True,
                ("this run asks for the event loop", None, None),
            )
            monkeypatch.setattr(
                replay, "CAPABILITIES", replay.CAPABILITIES + (refuse_driver,)
            )
        runner.clear_run_cache()
        out = tmp_path / f"{loop}.json"
        assert main(argv + ["--report-out", str(out)]) == 0
        reports[loop] = json.loads(out.read_text())
    assert driver_calls == [1], "the default run did not take the driver"
    for section in sections:
        assert reports["driver"][section] == reports["object"][section], section


#: Each replay command's argv and the spec it must build.
SPEC_RUNS = {
    "run": (
        ["run", "--trace", "web-vm", "--scheme", "full-dedupe",
         "--index-fraction", "0.3", "--raid", "raid0", "--ndisks", "2",
         "--scale", "0.02", "--seed", "1"],
        RunSpec("web-vm", "Full-Dedupe", {"index_fraction": 0.3},
                replay=ReplayConfig(raid_level=RaidLevel.RAID0, ndisks=2),
                seed=1, scale=0.02),
    ),
    "run-multi": (
        ["run-multi", "--trace", "web-vm", "--trace", "mail", "--copies", "2",
         "--scheme", "pod", "--chunking", "gear", "--scale", "0.02",
         "--seed", "1"],
        RunSpec(("web-vm", "mail"), "POD", {"chunking": ChunkingConfig()},
                tenants=Tenants(copies=2), seed=1, scale=0.02),
    ),
    "run-cluster": (
        ["run-cluster", "--trace", "mail", "--nodes", "2", "--copies", "2",
         "--replication", "2", "--verify-content", "--scale", "0.02",
         "--seed", "1"],
        RunSpec("mail", "POD", tenants=Tenants(copies=2), nodes=2,
                cluster=ClusterConfig(
                    verify_content=True,
                    directory=DirectoryConfig(
                        replication=2, consistency=Consistency.QUORUM),
                ),
                seed=1, scale=0.02),
    ),
}


@pytest.mark.parametrize("name", sorted(SPEC_RUNS))
def test_cli_report_equals_spec_report(name, tmp_path):
    """A replay command is its spec: the CLI's report is the report of
    executing the spec built directly, and its config is the spec's."""
    argv, spec = SPEC_RUNS[name]
    out = tmp_path / "r.json"
    assert main(argv + ["--report-out", str(out)]) == 0
    cli = json.loads(out.read_text())
    runner.clear_run_cache()
    direct = json.loads(json.dumps(build_run_report(
        execute(spec), seed=spec.seed, scale=spec.scale, config=spec.as_dict()
    )))
    for doc in (cli, direct):
        del doc["generated_unix"], doc["overhead"]
    assert cli == direct
    assert cli["config"] == spec.as_dict()


class TestDirectoryFlags:
    """The replicated-directory and chunking flag parsers."""

    def _args(self, extra):
        return build_parser().parse_args(
            ["run-cluster", "--trace", "web-vm", "--nodes", "3"] + extra
        )

    def test_no_flags_means_legacy_path(self):
        from repro.cli import _directory_config

        assert _directory_config(self._args([])) is None

    def test_replication_and_consistency(self):
        from repro.cli import _directory_config

        cfg = _directory_config(
            self._args(["--replication", "3", "--consistency", "all"])
        )
        assert cfg.replication == 3 and cfg.consistency.value == "all"
        assert cfg.gc is None and cfg.kill is None

    def test_gc_and_kill_imply_replication_one(self):
        from repro.cli import _directory_config

        cfg = _directory_config(
            self._args(["--gc", "--kill-metadata-node", "1:10.5"])
        )
        assert cfg.replication == 1
        assert cfg.gc.mode == "online"
        assert cfg.kill.node == 1 and cfg.kill.time == 10.5

    def test_gc_stw_mode(self):
        from repro.cli import _directory_config

        cfg = _directory_config(self._args(["--gc", "stw", "--gc-start", "5"]))
        assert cfg.gc.mode == "stw" and cfg.gc.start == 5.0

    def test_bad_kill_spec_rejected(self):
        from repro.cli import _directory_config
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            _directory_config(self._args(["--kill-metadata-node", "one:ten"]))
        with pytest.raises(ConfigError):
            _directory_config(self._args(["--kill-metadata-node", "1"]))


class TestChunkingFlag:
    def _args(self, spec):
        return build_parser().parse_args(
            ["run", "--trace", "web-vm", "--scheme", "POD", "--chunking", spec]
        )

    def test_algorithm_names(self):
        from repro.cli import _chunking_config

        assert _chunking_config(self._args("gear")).algorithm == "gear"
        assert _chunking_config(self._args("rabin")).algorithm == "rabin"

    def test_bounds_with_algorithm_prefix(self):
        from repro.cli import _chunking_config

        cfg = _chunking_config(self._args("rabin:2:8:16"))
        assert cfg.algorithm == "rabin"
        assert (cfg.min_blocks, cfg.avg_blocks, cfg.max_blocks) == (2, 8, 16)
        # bare bounds keep the gear default
        assert _chunking_config(self._args("2:8:16")).algorithm == "gear"

    def test_bad_specs_rejected(self):
        from repro.cli import _chunking_config
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            _chunking_config(self._args("buzhash"))
        with pytest.raises(ConfigError):
            _chunking_config(self._args("rabin:2:8"))

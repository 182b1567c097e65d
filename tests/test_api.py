"""Public-API surface tests: the documented entry points resolve."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_scheme_classes_exported(self):
        from repro import POD, FullDedupe, IDedup, IODedup, Native, SelectDedupe

        for cls in (POD, SelectDedupe, Native, FullDedupe, IDedup, IODedup):
            assert hasattr(cls, "process")
            assert isinstance(cls.name, str)

    def test_trace_presets_exported(self):
        from repro import HOMES, MAIL, WEB_VM

        assert {WEB_VM.name, HOMES.name, MAIL.name} == {"web-vm", "homes", "mail"}


class TestLazySimExports:
    def test_simulator_lazy_attr(self):
        sim_pkg = importlib.import_module("repro.sim")
        assert sim_pkg.Simulator is not None
        assert sim_pkg.replay_trace is not None
        assert sim_pkg.ReplayConfig is not None

    def test_unknown_attr_raises(self):
        sim_pkg = importlib.import_module("repro.sim")
        with pytest.raises(AttributeError):
            sim_pkg.NoSuchThing


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.baselines",
            "repro.sim",
            "repro.storage",
            "repro.cache",
            "repro.dedup",
            "repro.traces",
            "repro.metrics",
            "repro.experiments",
            "repro.experiments.runner",
            "repro.experiments.export",
            "repro.experiments.report_md",
            "repro.cli",
        ],
    )
    def test_importable(self, module):
        assert importlib.import_module(module) is not None

    def test_import_order_independent(self):
        """Importing the leaf packages in the awkward order must not
        trip the (documented) lazy-import cycle breakers."""
        import subprocess
        import sys

        code = "import repro.baselines; import repro.sim; import repro.core; print('ok')"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0 and "ok" in out.stdout, out.stderr

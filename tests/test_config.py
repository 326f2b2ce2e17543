"""The centralized ``REPRO_*`` settings reader."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    ENV_VARS,
    FAULTS_ENV,
    HYPOTHESIS_PROFILE_ENV,
    NUM_WORKERS_ENV,
    POOL_REPLICAS_ENV,
    TRACE_ENV,
    Settings,
    env_value,
    settings,
)
from repro.errors import ConfigError, ReproError


class TestDefaults:
    def test_empty_environment_is_all_unset(self):
        got = Settings.from_env({})
        assert got == Settings()
        assert got.num_workers is None
        assert got.trace_path is None
        assert got.faults_spec is None
        assert got.pool_replicas is None
        assert got.hypothesis_profile == "fast"

    def test_empty_string_counts_as_unset(self):
        got = Settings.from_env({
            TRACE_ENV: "", FAULTS_ENV: "",
            HYPOTHESIS_PROFILE_ENV: "",
            NUM_WORKERS_ENV: "", POOL_REPLICAS_ENV: "",
        })
        assert got == Settings()


class TestParsing:
    def test_full_environment(self):
        got = Settings.from_env({
            NUM_WORKERS_ENV: "4",
            TRACE_ENV: "/tmp/trace.jsonl",
            FAULTS_ENV: "serve.execute:rate=0.5",
            POOL_REPLICAS_ENV: "3",
            HYPOTHESIS_PROFILE_ENV: "ci",
        })
        assert got.num_workers == 4
        assert got.trace_path == "/tmp/trace.jsonl"
        assert got.faults_spec == "serve.execute:rate=0.5"
        assert got.pool_replicas == 3
        assert got.hypothesis_profile == "ci"

    @pytest.mark.parametrize("var", [NUM_WORKERS_ENV, POOL_REPLICAS_ENV])
    @pytest.mark.parametrize("raw", ["lots", "1.5", "0", "-2"])
    def test_bad_counts_rejected(self, var, raw):
        with pytest.raises(ConfigError):
            Settings.from_env({var: raw})

    def test_config_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            Settings.from_env({NUM_WORKERS_ENV: "zero"})


class TestLiveRead:
    def test_settings_reads_fresh_each_call(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert settings().num_workers is None
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        assert settings().num_workers == 2
        monkeypatch.setenv(NUM_WORKERS_ENV, "5")
        assert settings().num_workers == 5


class TestRegistry:
    def test_every_field_has_a_documented_variable(self):
        # One Settings field per ENV_VARS entry -- the README table is
        # generated from the same registry, so drift here means the
        # docs are stale too.
        assert len(ENV_VARS) == len(dataclasses.fields(Settings))

    def test_registry_names_are_repro_prefixed(self):
        assert all(name.startswith("REPRO_") for name in ENV_VARS)

    def test_readme_documents_every_variable(self):
        import pathlib

        readme = (pathlib.Path(__file__).parent.parent
                  / "README.md").read_text(encoding="utf-8")
        missing = [name for name in ENV_VARS if f"`{name}`" not in readme]
        assert not missing, (
            f"README.md configuration table is missing {missing}")


class TestRawAccess:
    """The narrow per-variable reader used by import-time hooks."""

    def test_env_value_reads_one_variable(self):
        assert env_value(TRACE_ENV, {TRACE_ENV: "/tmp/t.jsonl"}) \
            == "/tmp/t.jsonl"
        assert env_value(TRACE_ENV, {}) is None
        assert env_value(TRACE_ENV, {TRACE_ENV: ""}) is None

    def test_env_value_ignores_malformed_unrelated_variables(self):
        # This is the point of the narrow reader: a bad count must not
        # leak into an unrelated variable's read.
        assert env_value(TRACE_ENV, {
            TRACE_ENV: "/tmp/t.jsonl", POOL_REPLICAS_ENV: "abc",
        }) == "/tmp/t.jsonl"

    def test_env_value_rejects_unregistered_names(self):
        with pytest.raises(ConfigError):
            env_value("REPRO_NO_SUCH_KNOB", {})

    def test_import_survives_malformed_unrelated_variable(self):
        # Regression: the tracing/faults import hooks used to parse the
        # *whole* environment, so REPRO_POOL_REPLICAS=abc broke
        # ``import repro`` before any pool was ever constructed.
        import os
        import subprocess
        import sys

        env = {**os.environ, "REPRO_POOL_REPLICAS": "abc",
               "REPRO_NUM_WORKERS": "nope"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro; print(repro.__version__)"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # ...while the variable's actual consumer still fails loudly.
        env = {**os.environ, "REPRO_POOL_REPLICAS": "abc"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.serving.pool import resolve_pool_replicas;"
             "resolve_pool_replicas()"],
            env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "ConfigError" in proc.stderr
        assert "REPRO_POOL_REPLICAS" in proc.stderr


class TestConsumers:
    """The three pre-pool consumers resolve through the shared reader."""

    def test_num_workers_flows_through(self, monkeypatch):
        from repro.evaluation.parallel import resolve_num_workers

        monkeypatch.setenv(NUM_WORKERS_ENV, "7")
        assert resolve_num_workers() == 7

    def test_trace_path_flows_through(self, monkeypatch, tmp_path):
        from repro.observability import tracing

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(path))
        previous = tracing.uninstall_exporter()
        try:
            assert tracing.configure_from_env()
            exporter = tracing.uninstall_exporter()
            assert isinstance(exporter, tracing.JsonlExporter)
            exporter.close()
        finally:
            if previous is not None:
                tracing.install_exporter(previous)

    def test_faults_spec_flows_through(self, monkeypatch):
        from repro.reliability import faults

        monkeypatch.setenv(FAULTS_ENV, "serve.execute:rate=0.25;seed=9")
        previous = faults.active_plan()
        try:
            plan = faults.configure_from_env()
            assert plan is not None
            assert plan.seed == 9
            assert plan.sites == ("serve.execute",)
        finally:
            if previous is not None:
                faults.install_plan(previous)
            else:
                faults.uninstall_plan()

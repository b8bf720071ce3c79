"""Config parsing, validation, and the reproducibility echo."""

import dataclasses

import pytest

from graphflow.config import (ModelConfig, RunConfig, apply_kv, format_config,
                              load_run_config, parse_kv_text)
from graphflow.errors import ConfigError


class TestParse:
    def test_values_keep_spaces_comments_and_blanks_drop(self):
        text = "a = 1\n\n# note\nb= two words \nc =3 # trailing\n"
        assert parse_kv_text(text) == {"a": "1", "b": "two words", "c": "3"}

    def test_missing_equals_reports_the_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_kv_text("a = 1\nbroken line\n")

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_empty_key_is_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_text("= 5\n")


class TestApply:
    def test_typed_fields_are_converted(self):
        cfg = apply_kv(RunConfig(), {"steps": "50", "peak_lr": "1e-3",
                                     "graph": "sgr"})
        assert cfg.steps == 50
        assert cfg.peak_lr == 1e-3
        assert cfg.graph == "sgr"

    def test_unknown_key_lists_the_known_ones(self):
        with pytest.raises(ConfigError, match="nodes"):
            apply_kv(RunConfig(), {"n0des": "4"})

    def test_non_numeric_int_is_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            apply_kv(RunConfig(), {"steps": "many"})


class TestValidate:
    def test_defaults_are_valid(self):
        RunConfig().validate()
        ModelConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("nodes", 0), ("refine_iters", 0), ("downsample", 0),
        ("downsample", 2), ("downsample", 8),
        ("lookup_radius", -1), ("graph", "dense"), ("precision", 16),
        ("steps", 0), ("peak_lr", 0.0), ("warmup_frac", 1.0),
        ("threads", 0), ("weight_decay", -0.1), ("seed", -1),
        ("peak_lr", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_each_bound_is_enforced(self, field, value):
        cfg = RunConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    def test_model_subset_extraction(self):
        run = RunConfig(nodes=7, steps=11)
        model = run.model()
        assert isinstance(model, ModelConfig)
        assert model.nodes == 7
        assert not hasattr(model, "steps")


class TestLoadAndEcho:
    def test_missing_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config("/no/such/file.cfg")

    def test_no_path_yields_defaults(self):
        assert load_run_config(None) == RunConfig()

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nodes = 8\nsteps = 5\n")
        cfg = load_run_config(str(path))
        assert cfg.nodes == 8 and cfg.steps == 5
        assert cfg.peak_lr == RunConfig().peak_lr

    def test_echo_covers_every_field_and_round_trips(self):
        cfg = RunConfig(nodes=9, peak_lr=2e-3, graph="base", data="d.tsv")
        echo = format_config(cfg)
        for f in dataclasses.fields(RunConfig):
            assert f"{f.name} = " in echo
        back = apply_kv(RunConfig(), parse_kv_text(echo))
        assert back == cfg

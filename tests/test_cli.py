"""Command-line workflows: artifacts, determinism, exit codes."""

import hashlib

import numpy as np
import pytest

from graphflow.cli import _build_parser, _effective_config, main
from graphflow.data import read_manifest, read_ppm


def write_gen_spec(path, pairs=2, extra=""):
    path.write_text("height = 16\nwidth = 16\nmag_min = 0.5\n"
                    f"mag_max = 1.5\npairs = {pairs}\n" + extra)


def write_run_cfg(path, extra=""):
    path.write_text("feature_channels = 8\ncontext_channels = 8\n"
                    "nodes = 4\nrefine_iters = 2\nlookup_radius = 2\n"
                    "steps = 4\nlog_interval = 2\n"
                    "checkpoint_interval = 2\n" + extra)


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGen:
    def test_writes_one_manifest_line_per_pair(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        write_gen_spec(spec, pairs=3)
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 0
        entries = read_manifest(tmp_path / "d" / "manifest.tsv")
        assert len(entries) == 3
        assert all(e.img1.is_file() and e.img2.is_file() and e.flo.is_file()
                   for e in entries)

    def test_identical_specs_give_identical_dataset_bytes(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        write_gen_spec(spec)
        assert main(["gen", str(spec), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", str(spec), "--out", str(tmp_path / "b")]) == 0
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_seed_flag_changes_the_rendering(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        write_gen_spec(spec)
        main(["gen", str(spec), "--out", str(tmp_path / "a")])
        main(["gen", str(spec), "--seed", "9", "--out", str(tmp_path / "b")])
        assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")

    def test_missing_spec_file_is_a_config_error(self, tmp_path):
        assert main(["gen", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_unknown_spec_key_is_a_config_error(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text("sharpness = 3\n")
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("line", ["height = 8", "pairs = 0"])
    def test_out_of_range_spec_value_is_a_config_error(self, tmp_path, capsys,
                                                       line):
        spec = tmp_path / "gen.cfg"
        spec.write_text(line + "\n")
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_negative_seed_is_a_config_error_naming_seed(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        spec.write_text("seed = -1\n")
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err

    def test_unrepresentable_mag_max_is_a_config_error(self, tmp_path, capsys,
                                                       recwarn):
        """From 1e9 up, read_flo would mark the rendered flow unknown."""
        spec = tmp_path / "gen.cfg"
        spec.write_text("mag_max = 1e308\n")
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mag_max" in err
        assert not recwarn.list

    def test_size_too_large_for_memory_ends_in_one_line(self, tmp_path,
                                                        capsys):
        """13.6 PiB is beyond any 48-bit address space, so the allocation
        fails at once and touches no memory."""
        spec = tmp_path / "gen.cfg"
        spec.write_text("width = 10000000000000\n")
        assert main(["gen", str(spec), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: out of memory: ")


@pytest.fixture
def dataset(tmp_path):
    spec = tmp_path / "gen.cfg"
    write_gen_spec(spec)
    main(["gen", str(spec), "--out", str(tmp_path / "data")])
    return tmp_path / "data" / "manifest.tsv"


class TestTrain:
    def test_log_line_count_follows_the_interval(self, tmp_path, dataset,
                                                 capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        code = main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        lines = (tmp_path / "run" / "train.tsv").read_text().splitlines()
        assert lines[0] == "step\tloss\tepe"
        assert len(lines) == 1 + 4 // 2
        for line in lines[1:]:
            step, loss, epe_val = line.split("\t")
            assert float(loss) > 0 and np.isfinite(float(epe_val))

    def test_effective_config_echo_reproduces_the_run(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "a")])
        # re-run purely from the echoed config, redirected elsewhere
        main(["train", "--config", str(tmp_path / "a" / "config.txt"),
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "model.agfw").read_bytes()
        b = (tmp_path / "b" / "model.agfw").read_bytes()
        assert a == b

    def test_two_runs_agree_bit_for_bit(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        for name in ("a", "b"):
            main(["train", "--config", str(cfg), "--data", str(dataset),
                  "--out", str(tmp_path / name)])
        assert (tmp_path / "a" / "model.agfw").read_bytes() == \
            (tmp_path / "b" / "model.agfw").read_bytes()
        assert (tmp_path / "a" / "train.tsv").read_bytes() == \
            (tmp_path / "b" / "train.tsv").read_bytes()

    def test_resume_reproduces_the_remaining_log_lines(self, tmp_path,
                                                       dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "full")])
        # resume from the midpoint checkpoint written by the full run
        resume_cfg = tmp_path / "resume.cfg"
        write_run_cfg(resume_cfg,
                      extra=f"resume = {tmp_path / 'full' / 'step_000002.agfw'}\n")
        code = main(["train", "--config", str(resume_cfg), "--data",
                     str(dataset), "--out", str(tmp_path / "second")])
        assert code == 0
        full_lines = (tmp_path / "full" / "train.tsv").read_text().splitlines()
        second = (tmp_path / "second" / "train.tsv").read_text().splitlines()
        assert second[1:] == [l for l in full_lines[1:]
                              if int(l.split("\t")[0]) > 2]
        assert (tmp_path / "full" / "model.agfw").read_bytes() == \
            (tmp_path / "second" / "model.agfw").read_bytes()

    def test_resume_into_its_own_directory_rewrites_the_log(self, tmp_path,
                                                            dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("feature_channels = 8\ncontext_channels = 8\n"
                       "nodes = 4\nrefine_iters = 2\nlookup_radius = 2\n"
                       "steps = 6\nlog_interval = 1\ncheckpoint_interval = 3\n")
        run = tmp_path / "run"
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(run)])
        uninterrupted = (run / "train.tsv").read_bytes()
        resume_cfg = tmp_path / "resume.cfg"
        resume_cfg.write_text(cfg.read_text()
                              + f"resume = {run / 'step_000003.agfw'}\n")
        code = main(["train", "--config", str(resume_cfg), "--data",
                     str(dataset), "--out", str(run)])
        assert code == 0
        assert (run / "train.tsv").read_bytes() == uninterrupted

    def test_resume_over_a_log_with_a_malformed_step_is_a_data_error(
            self, tmp_path, dataset, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        run = tmp_path / "run"
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(run)])
        with open(run / "train.tsv", "a") as log:
            log.write("two\t0.5\t0.5\n")
        resume_cfg = tmp_path / "resume.cfg"
        write_run_cfg(resume_cfg,
                      extra=f"resume = {run / 'step_000002.agfw'}\n")
        capsys.readouterr()
        code = main(["train", "--config", str(resume_cfg), "--data",
                     str(dataset), "--out", str(run)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_diverging_run_ends_in_one_line_and_no_warning(
            self, tmp_path, dataset, capsys, recwarn):
        """Weights blown up by the first update overflow in the next
        forward pass; the loss check reports that, and numpy says nothing."""
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg, extra="peak_lr = 1e30\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == \
            "error: loss became non-finite at step 1\n"
        assert not recwarn.list

    def test_missing_manifest_is_a_data_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        assert main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "no.tsv"),
                     "--out", str(tmp_path / "run")]) == 3

    def test_no_manifest_at_all_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2


class TestEvalCommand:
    def test_eval_emits_per_pair_rows_and_aggregate(self, tmp_path, dataset,
                                                    capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "run")])
        capsys.readouterr()
        code = main(["eval", str(tmp_path / "run" / "model.agfw"),
                     str(dataset), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("all\t")
        rows = (tmp_path / "run" / "eval.tsv").read_text().splitlines()
        assert rows[0] == "pair\tepe\tf1_all\tpixels"
        assert len(rows) == 2 + 2   # header, two pairs, aggregate
        for row in rows[1:]:
            cols = row.split("\t")
            assert len(cols) == 4
            assert np.isfinite(float(cols[1]))

    def test_checkpoint_for_another_architecture_is_a_data_error(
            self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "run")])
        other = tmp_path / "other.cfg"
        other.write_text("feature_channels = 8\ncontext_channels = 8\n"
                         "nodes = 5\nrefine_iters = 2\nlookup_radius = 2\n")
        assert main(["eval", str(tmp_path / "run" / "model.agfw"),
                     str(dataset), "--config", str(other),
                     "--out", str(tmp_path / "x")]) == 3

    def test_checkpoint_from_another_config_says_so(self, tmp_path, dataset,
                                                    capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "model.agfw"),
                     str(dataset), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.rstrip().endswith(
            "the checkpoint was likely written under another --config")

    def test_untrained_weights_still_evaluate_finite(self, tmp_path, dataset,
                                                     capsys):
        import graphflow.tensor as tt
        from graphflow.checkpoint import save_checkpoint
        from graphflow.config import RunConfig
        from graphflow.model import FlowModel
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        run_cfg = RunConfig(feature_channels=8, context_channels=8, nodes=4,
                            refine_iters=2, lookup_radius=2)
        save_checkpoint(tmp_path / "fresh.agfw",
                        FlowModel(run_cfg.model()).state())
        code = main(["eval", str(tmp_path / "fresh.agfw"), str(dataset),
                     "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == 0
        final = capsys.readouterr().out.splitlines()[-1].split("\t")
        assert np.isfinite(float(final[1]))


class TestNonFiniteCheckpoints:
    """A checkpoint is refused at load when an entry holds NaN or an
    infinity, and a finite one whose prediction overflows is refused at
    scoring; each ends in one line, with no numpy warning."""

    @pytest.fixture
    def trained(self, tmp_path, dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--out", str(tmp_path / "run")])
        return cfg, tmp_path / "run" / "step_000002.agfw"

    @staticmethod
    def edited(src, dest, name, edit):
        from graphflow.checkpoint import load_checkpoint, save_checkpoint
        entries = load_checkpoint(src)
        edit(entries[name])
        save_checkpoint(dest, entries)
        return dest

    @staticmethod
    def one_nan(w):
        w.flat[0] = np.nan

    def test_eval_of_a_nan_checkpoint_is_a_data_error(
            self, tmp_path, dataset, trained, capsys, recwarn):
        cfg, ckpt = trained
        bad = self.edited(ckpt, tmp_path / "nan.agfw", "head.conv2.w",
                          self.one_nan)
        capsys.readouterr()
        assert main(["eval", str(bad), str(dataset), "--config", str(cfg),
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'head.conv2.w'" in err
        assert not (tmp_path / "e" / "eval.tsv").exists()
        assert not recwarn.list

    def test_resume_from_a_nan_checkpoint_is_a_data_error(
            self, tmp_path, dataset, trained, capsys, recwarn):
        cfg, ckpt = trained
        bad = self.edited(ckpt, tmp_path / "nan.agfw", "head.conv2.w",
                          self.one_nan)
        resume = tmp_path / "resume.cfg"
        write_run_cfg(resume, extra=f"resume = {bad}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(resume), "--data", str(dataset),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'head.conv2.w'" in err
        assert not recwarn.list

    def test_prediction_that_overflows_is_a_numeric_error(
            self, tmp_path, dataset, trained, capsys, recwarn):
        cfg, ckpt = trained
        huge = self.edited(ckpt, tmp_path / "huge.agfw", "head.conv2.b",
                           lambda b: b.fill(3e38))
        capsys.readouterr()
        assert main(["eval", str(huge), str(dataset), "--config", str(cfg),
                     "--out", str(tmp_path / "e")]) == 4
        err = capsys.readouterr().err
        assert err == "error: prediction for pair pair_0000 is not finite\n"
        assert not recwarn.list


class TestViz:
    def test_zero_field_renders_a_white_image(self, tmp_path, capsys):
        from graphflow.data import FlowField, write_flo
        flo = tmp_path / "zero.flo"
        write_flo(flo, FlowField(flow=np.zeros((2, 4, 4), dtype=np.float32)))
        dest = tmp_path / "zero.ppm"
        assert main(["viz", str(flo), str(dest)]) == 0
        img = read_ppm(dest)
        assert np.array_equal(img, np.ones((3, 4, 4), dtype=np.float32))

    def test_default_destination_lands_in_the_out_dir(self, tmp_path):
        from graphflow.data import FlowField, write_flo
        flo = tmp_path / "f.flo"
        write_flo(flo, FlowField(flow=np.ones((2, 4, 4), dtype=np.float32)))
        assert main(["viz", str(flo), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "f.ppm").is_file()

    def test_corrupted_magic_exits_with_the_data_code(self, tmp_path):
        bad = tmp_path / "bad.flo"
        bad.write_bytes(b"\x00" * 20)
        assert main(["viz", str(bad), str(tmp_path / "x.ppm")]) == 3

    @pytest.mark.parametrize("name", ["missing.flo", "a_directory"])
    def test_unreadable_file_exits_with_the_data_code(self, tmp_path, capsys,
                                                      name):
        (tmp_path / "a_directory").mkdir()
        code = main(["viz", str(tmp_path / name), str(tmp_path / "x.ppm")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("cap", ["nan", "inf", "0", "-3"])
    def test_cap_must_be_a_positive_number(self, tmp_path, capsys, cap):
        from graphflow.data import FlowField, write_flo
        flo = tmp_path / "f.flo"
        write_flo(flo, FlowField(flow=np.ones((2, 4, 4), dtype=np.float32)))
        dest = tmp_path / "f.ppm"
        code = main(["viz", str(flo), str(dest), f"--cap={cap}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--cap" in err and err.count("\n") == 1
        assert not dest.exists()


class TestBench:
    def test_reports_components_and_graph_ordering(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg)
        code = main(["bench", "--config", str(cfg), "--size", "16",
                     "--runs", "20", "--out", str(tmp_path / "b")])
        assert code == 0
        out = capsys.readouterr().out
        table = {line.split("\t")[0]: line.split("\t")[1:]
                 for line in out.splitlines() if "\t" in line}
        base = int(table["graph.base"][0])
        sgr = int(table["graph.sgr"][0])
        agr = int(table["graph.agr"][0])
        assert base < sgr < agr
        assert agr - sgr == int(table["graph.adapter_delta"][0])
        assert float(table["latency_ms"][0]) > 0
        for component in ("feature_encoder", "context_encoder",
                          "motion_encoder", "graph", "update", "flow_head"):
            params, flops = (int(v) for v in table[component])
            assert params > 0 and flops > 0

    def test_too_few_runs_is_a_config_error(self, tmp_path):
        assert main(["bench", "--runs", "5", "--size", "16",
                     "--out", str(tmp_path / "b")]) == 2


class TestConfigPlumbing:
    def test_precision_and_graph_flags_override_the_file(self, tmp_path,
                                                         dataset):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg, extra="graph = agr\n")
        main(["train", "--config", str(cfg), "--data", str(dataset),
              "--graph", "base", "--precision", "64",
              "--out", str(tmp_path / "run")])
        echo = (tmp_path / "run" / "config.txt").read_text()
        assert "graph = base" in echo
        assert "precision = 64" in echo

    def test_config_threads_hold_unless_the_flag_is_given(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\n")
        base = ["eval", "--config", str(cfg), "weights.agfw"]
        parse = _build_parser().parse_args
        assert _effective_config(parse(base)).threads == 2
        assert _effective_config(parse(base + ["--threads", "3"])).threads == 3

    def test_empty_data_flag_reaches_the_missing_manifest_check(self, tmp_path,
                                                                capsys):
        cfg = tmp_path / "run.cfg"
        write_run_cfg(cfg, extra="data = elsewhere/manifest.tsv\n")
        assert main(["train", "--config", str(cfg), "--data", "",
                     "--out", str(tmp_path / "run")]) == 2
        assert "needs data=<manifest path>" in capsys.readouterr().err

    def test_invalid_config_value_exits_with_usage_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes = 0\n")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2


class TestUndecodableFiles:
    @pytest.mark.parametrize("kind,code", [("manifest", 3), ("config", 2),
                                           ("spec", 2)])
    def test_non_utf8_bytes_end_in_one_line(self, tmp_path, capsys, kind,
                                            code):
        bad = tmp_path / f"{kind}.txt"
        bad.write_bytes(b"nodes = 4\n# caf\xe9\n")
        argv = {"manifest": ["train", "--data", str(bad)],
                "config": ["train", "--config", str(bad)],
                "spec": ["gen", str(bad)]}[kind]
        assert main(argv + ["--out", str(tmp_path / "run")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err and "UTF-8" in err


class TestGradcheckCommand:
    """Exit-code wiring only; the real audit runs in its own suite."""

    def _stub_rows(self, monkeypatch, rows):
        import graphflow.checks as checks
        monkeypatch.setattr(checks, "run_gradient_suite", lambda: rows)

    def test_clean_rows_exit_zero(self, monkeypatch, capsys):
        from graphflow.checks import CheckRow
        self._stub_rows(monkeypatch, [CheckRow("op.add", 2e-9, 1e-4),
                                      CheckRow("model.micro", 3e-6, 1e-3)])
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "op.add" in out and "checks: 2  failed: 0" in out

    def test_a_failing_row_exits_with_the_numeric_code(self, monkeypatch,
                                                       capsys):
        from graphflow.checks import CheckRow
        self._stub_rows(monkeypatch, [CheckRow("op.add", 2e-9, 1e-4),
                                      CheckRow("op.exp", 5e-2, 1e-4)])
        assert main(["gradcheck"]) == 4
        assert "FAIL" in capsys.readouterr().out

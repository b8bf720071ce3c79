"""Training-loop edge behavior not reachable through the command line."""

import numpy as np
import pytest

from graphflow import train
from graphflow.config import RunConfig
from graphflow.data import DatasetSpec, gen_dataset
from graphflow.errors import ConfigError, NumericError
from graphflow.model import FlowModel
from graphflow.tensor import Tensor
from graphflow.train import load_pairs, run_training


@pytest.fixture
def manifest(tmp_path):
    spec = DatasetSpec(height=16, width=16, mag_min=0.5, mag_max=1.5,
                       seed=21, pairs=2)
    return gen_dataset(spec, tmp_path / "data")


def tiny_cfg(manifest, out, **kw):
    base = dict(feature_channels=8, context_channels=8, nodes=4,
                refine_iters=2, lookup_radius=2, data=str(manifest),
                out=str(out), steps=3, log_interval=1,
                checkpoint_interval=10, seed=4)
    base.update(kw)
    return RunConfig(**base)


class TestLoadPairs:
    def test_pairs_come_back_in_manifest_order(self, manifest):
        pairs = load_pairs(manifest)
        assert [p[0] for p in pairs] == ["pair_0000", "pair_0001"]
        pid, i1, i2, gt = pairs[0]
        assert i1.shape == (3, 16, 16) and i1.dtype == np.float32
        assert gt.flow.shape == (2, 16, 16)


class TestRunTraining:
    def test_exploding_updates_abort_with_the_step_number(self, tmp_path,
                                                          manifest):
        """NaN weights propagate to the loss, which aborts the run."""
        cfg = tiny_cfg(manifest, tmp_path / "run", peak_lr=1e30,
                       warmup_frac=0.0)
        with pytest.raises(NumericError, match=r"step \d"):
            run_training(cfg)

    def test_non_finite_gradient_stops_before_the_update(self, tmp_path,
                                                        manifest, monkeypatch):
        """A finite loss with an infinite gradient names the step and the
        parameter, and the update never writes NaN into the weights."""
        models = []

        class RecordingModel(FlowModel):
            def __init__(self, cfg):
                super().__init__(cfg)
                models.append(self)

        backward = Tensor.backward
        calls = []

        def poisoned_backward(root):
            backward(root)
            calls.append(root)
            if len(calls) == 2:
                p = models[0].params["head.conv2.w"]
                p.grad = np.full_like(p.data, np.inf)

        monkeypatch.setattr(train, "FlowModel", RecordingModel)
        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(NumericError,
                           match=r"gradient of head\.conv2\.w .* step 1$"):
            run_training(tiny_cfg(manifest, tmp_path / "run"))
        assert all(np.isfinite(p.data).all() for p in models[0].params.values())

    def test_missing_data_path_is_a_config_error(self, tmp_path):
        cfg = tiny_cfg("x", tmp_path / "run")
        cfg.data = ""
        with pytest.raises(ConfigError, match="data"):
            run_training(cfg)

    def test_resuming_past_the_horizon_is_rejected(self, tmp_path, manifest):
        cfg = tiny_cfg(manifest, tmp_path / "run")
        result = run_training(cfg)
        again = tiny_cfg(manifest, tmp_path / "run2",
                         resume=str(result.checkpoint))
        with pytest.raises(ConfigError, match="already"):
            run_training(again)

    def test_resuming_a_64_bit_run_is_rejected(self, tmp_path, manifest):
        """Checkpoints hold float32, so a 64-bit resume could not match an
        uninterrupted run bit for bit."""
        run_training(tiny_cfg(manifest, tmp_path / "run", precision=64,
                              checkpoint_interval=2))
        again = tiny_cfg(manifest, tmp_path / "run2", precision=64,
                         checkpoint_interval=2,
                         resume=str(tmp_path / "run" / "step_000002.agfw"))
        with pytest.raises(ConfigError, match="precision"):
            run_training(again)
        assert not (tmp_path / "run2").exists()

    def test_first_loss_is_finite_and_positive(self, tmp_path, manifest):
        result = run_training(tiny_cfg(manifest, tmp_path / "run"))
        assert np.isfinite(result.first_loss) and result.first_loss > 0
        assert result.steps_run == 3
        assert len(result.log_rows) == 3

    def test_batch_size_two_averages_both_pairs(self, tmp_path, manifest):
        result = run_training(tiny_cfg(manifest, tmp_path / "run",
                                       batch_size=2))
        assert np.isfinite(result.last_loss)
        assert result.checkpoint.is_file()

"""Training and evaluation loops over manifests of rendered pairs.

The synthetic renderer warps the first frame into the second, and its
ground truth maps each position of the warped frame back to its source
in the original. The warped frame is therefore the query image here:
the network matches from frame two into frame one, and the rendered
field supervises that direction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import epe, f1_all, read_flo, read_manifest, read_ppm
from .errors import ConfigError, FormatError, NumericError
from .model import FlowModel, sequence_loss
from .optim import AdamW, one_cycle_lr
from .tensor import add, no_grad, precision, scale


@dataclass
class TrainResult:
    checkpoint: Path
    first_loss: float
    last_loss: float
    steps_run: int
    log_rows: list = field(default_factory=list)


@dataclass
class EvalResult:
    epe: float
    f1_all: float
    pixels: int


def load_pairs(manifest_path: str | Path):
    """Materialize every manifest row as (pair_id, frame1, frame2, gt)."""
    pairs = []
    for entry in read_manifest(manifest_path):
        pairs.append((entry.pair_id, read_ppm(entry.img1),
                      read_ppm(entry.img2), read_flo(entry.flo)))
    return pairs


def _rows_through(log_path: Path, step: int) -> str:
    """The rows of an earlier log up to ``step``, without its header."""
    if step == 0 or not log_path.is_file():
        return ""
    try:
        rows = log_path.read_bytes().decode("utf-8").splitlines(keepends=True)[1:]
        return "".join(r for r in rows if int(r.split("\t", 1)[0]) <= step)
    except ValueError as exc:      # a step that does not parse, or non-UTF-8 bytes
        raise FormatError(f"{log_path}: cannot resume this log: {exc}") from None


def _write_checkpoint(path: Path, model: FlowModel, opt: AdamW) -> None:
    entries = model.state()
    entries.update(opt.state_entries())
    save_checkpoint(path, entries)


def run_training(cfg: RunConfig, progress=None) -> TrainResult:
    """Optimize a model over the manifest named by ``cfg.data``.

    Pairs are visited round-robin by step index, and no randomness is
    drawn inside the loop, so a run restarted from its own checkpoint
    continues bit-for-bit where it stopped; it builds the model from the
    checkpoint's entries, drawing no initial weights. Checkpoints hold
    float32 only, so a 64-bit run cannot be resumed. A non-finite loss
    raises ``NumericError`` here, and ``AdamW.step`` raises it for a
    non-finite gradient before the update touches the weights. Emits
    ``train.tsv`` plus periodic and final checkpoints under ``cfg.out``.
    A resume keeps the rows of an existing ``train.tsv`` up to its
    checkpoint's step and drops the rest, so the log ends as an
    uninterrupted run's would.
    """
    cfg.validate()
    if not cfg.data:
        raise ConfigError("training needs data=<manifest path>")
    if cfg.resume and cfg.precision == 64:
        raise ConfigError("resume needs precision = 32: checkpoints store "
                          "float32, so a 64-bit run would not continue "
                          "bit for bit")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = load_pairs(cfg.data)

    with precision(cfg.precision):
        entries = load_checkpoint(cfg.resume) if cfg.resume else None
        model = FlowModel(cfg.model(), entries)
        opt = AdamW(model.params, lr=cfg.peak_lr,
                    weight_decay=cfg.weight_decay)
        start_step = 0
        if entries is not None:
            opt.load_state_entries(entries)
            del entries                # frees the file buffer before step one
            start_step = opt.t
            if start_step >= cfg.steps:
                raise ConfigError(
                    f"resume checkpoint is already at step {start_step} "
                    f"of {cfg.steps}")

        log_path = out_dir / "train.tsv"
        earlier = _rows_through(log_path, start_step)
        first_loss = last_loss = float("nan")
        rows = []
        with open(log_path, "w") as log:
            log.write("step\tloss\tepe\n" + earlier)
            log.flush()                # the kept rows survive a crash in step one
            for step in range(start_step, cfg.steps):
                lr = one_cycle_lr(step, cfg.steps, cfg.peak_lr,
                                  cfg.warmup_frac)
                opt.zero_grad()
                total = None
                preds = None
                gt = None
                # a diverging step is reported once, by the loss check
                # or the optimizer's gradient check
                with np.errstate(over="ignore", invalid="ignore"):
                    for item in range(cfg.batch_size):
                        idx = (step * cfg.batch_size + item) % len(pairs)
                        _, frame1, frame2, gt = pairs[idx]
                        preds = model.forward(frame2, frame1)
                        loss = sequence_loss(preds, gt)
                        total = loss if total is None else add(total, loss)
                    if cfg.batch_size > 1:
                        total = scale(total, 1.0 / cfg.batch_size)
                    value = float(total.data)
                    if not np.isfinite(value):
                        raise NumericError(
                            f"loss became non-finite at step {step}")
                    total.backward()
                    opt.step(lr=lr)
                if step == start_step:
                    first_loss = value
                last_loss = value
                done = step + 1
                if done % cfg.log_interval == 0 or done == cfg.steps:
                    train_epe = epe(preds[-1].data, gt)
                    rows.append((done, value, train_epe))
                    line = f"{done}\t{value:.6f}\t{train_epe:.4f}"
                    log.write(line + "\n")
                    log.flush()
                    if progress is not None:
                        progress(line)
                if done % cfg.checkpoint_interval == 0 and done < cfg.steps:
                    _write_checkpoint(out_dir / f"step_{done:06d}.agfw",
                                      model, opt)
        final = out_dir / "model.agfw"
        _write_checkpoint(final, model, opt)
    return TrainResult(checkpoint=final, first_loss=first_loss,
                       last_loss=last_loss, steps_run=cfg.steps - start_step,
                       log_rows=rows)


def run_evaluation(cfg: RunConfig, weights: str | Path,
                   progress=None) -> EvalResult:
    """Score a checkpoint over the manifest; writes ``eval.tsv``.

    The model is built straight from the checkpoint, drawing nothing.

    The aggregate numbers weight each pair by its valid-pixel count, so
    they equal the metrics over the pooled pixel population. A
    prediction that is not finite raises ``NumericError`` naming its
    pair, since a NaN error would score as no outlier at all.
    """
    cfg.validate()
    if not cfg.data:
        raise ConfigError("evaluation needs data=<manifest path>")
    pairs = load_pairs(cfg.data)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    epe_sum = 0.0
    bad_sum = 0.0
    pixel_sum = 0
    with precision(cfg.precision):
        model = FlowModel(cfg.model(), load_checkpoint(weights))
        with no_grad(), open(out_dir / "eval.tsv", "w") as log:
            log.write("pair\tepe\tf1_all\tpixels\n")
            for pair_id, frame1, frame2, gt in pairs:
                # a prediction that overflows is reported below, once
                with np.errstate(over="ignore", invalid="ignore"):
                    pred = model.predict(frame2, frame1)
                if not np.isfinite(pred.flow).all():
                    raise NumericError(
                        f"prediction for pair {pair_id} is not finite")
                pair_epe = epe(pred.flow, gt)
                pair_f1 = f1_all(pred.flow, gt)
                count = int(gt.valid_mask().sum())
                epe_sum += pair_epe * count
                bad_sum += pair_f1 * count
                pixel_sum += count
                line = f"{pair_id}\t{pair_epe:.4f}\t{pair_f1:.4f}\t{count}"
                log.write(line + "\n")
                if progress is not None:
                    progress(line)
            result = EvalResult(epe=epe_sum / pixel_sum,
                                f1_all=bad_sum / pixel_sum, pixels=pixel_sum)
            log.write(f"all\t{result.epe:.4f}\t{result.f1_all:.4f}"
                      f"\t{pixel_sum}\n")
    return result

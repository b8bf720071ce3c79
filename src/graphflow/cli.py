"""Command-line front end.

Subcommands: gen, train, eval, gradcheck, bench, viz. Numeric work is
single-threaded by default; the config's ``threads`` key, or --threads
over it, raises the BLAS thread cap. The cap must take effect before
numpy loads, so the heavyweight imports run inside main() after the
config is built.

Exit codes: 0 success, 2 configuration or usage errors, 3 unreadable
or malformed data (files, checkpoints, shape mismatches), 4 numeric
failures (non-finite loss, gradient audit above tolerance).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _pin_threads(count: int) -> None:
    """Export the BLAS thread cap; it must precede the numpy import."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(count))


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE",
                        help="key = value run configuration")
    shared.add_argument("--seed", type=int, help="override the seed")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--threads", type=int,
                        help="BLAS thread cap (default: the config's "
                             "threads, which is 1)")
    shared.add_argument("--graph", choices=("base", "sgr", "agr"),
                        help="reasoning variant toggle")
    shared.add_argument("--precision", type=int, choices=(32, 64),
                        help="float width for model arithmetic")

    parser = argparse.ArgumentParser(
        prog="graphflow",
        description="Optical flow by recurrent matching with graph "
                    "reasoning; desk-scale training on synthetic data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[shared],
                       help="render a synthetic dataset with ground truth")
    p.add_argument("spec", nargs="?", metavar="SPECFILE",
                   help="key = value dataset spec (defaults when omitted)")

    p = sub.add_parser("train", parents=[shared],
                       help="optimize a model over a rendered manifest")
    p.add_argument("--data", metavar="MANIFEST",
                   help="manifest path (overrides the config)")

    p = sub.add_parser("eval", parents=[shared],
                       help="score a checkpoint over a manifest")
    p.add_argument("checkpoint", metavar="CHECKPOINT")
    p.add_argument("data", nargs="?", metavar="MANIFEST",
                   help="manifest path (overrides the config)")

    sub.add_parser("gradcheck", parents=[shared],
                   help="finite-difference audit of every gradient rule")

    p = sub.add_parser("bench", parents=[shared],
                       help="parameter, flop, and latency accounting")
    p.add_argument("--size", type=int, default=64,
                   help="square frame extent for the latency probe")
    p.add_argument("--runs", type=int, default=21,
                   help="timed forward passes (median reported, min 20)")

    p = sub.add_parser("viz", parents=[shared],
                       help="render a .flo field as a color PPM")
    p.add_argument("flo", metavar="FLOFILE")
    p.add_argument("dest", nargs="?", metavar="OUTFILE",
                   help="output image (default: flow name under --out)")
    p.add_argument("--cap", type=float,
                   help="saturation cap in pixels (default: field max)")
    return parser


def _effective_config(args):
    from .config import load_run_config
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.graph is not None:
        cfg.graph = args.graph
    if args.precision is not None:
        cfg.precision = args.precision
    if args.threads is not None:
        cfg.threads = args.threads
    if getattr(args, "data", None):
        cfg.data = args.data
    cfg.validate()
    return cfg


def _echo_config(cfg) -> None:
    from .config import format_config
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(format_config(cfg))


def _cmd_gen(args, cfg) -> int:
    from .config import apply_kv, format_config, read_kv_file
    from .data import DatasetSpec, gen_dataset
    spec = DatasetSpec()
    if args.spec:
        apply_kv(spec, read_kv_file(args.spec, "spec"))
    if args.seed is not None:
        spec.seed = args.seed
    out = Path(cfg.out)
    manifest = gen_dataset(spec, out)
    (out / "spec.txt").write_text(format_config(spec))
    print(f"wrote {spec.pairs} pairs under {out}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def _cmd_train(args, cfg) -> int:
    from .train import run_training
    _echo_config(cfg)
    result = run_training(cfg, progress=print)
    print(f"first loss {result.first_loss:.6f}")
    print(f"final loss {result.last_loss:.6f}")
    print(f"checkpoint: {result.checkpoint}")
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    from .train import run_evaluation
    _echo_config(cfg)
    result = run_evaluation(cfg, args.checkpoint, progress=print)
    print(f"all\t{result.epe:.4f}\t{result.f1_all:.4f}\t{result.pixels}")
    return EXIT_OK


def _cmd_gradcheck(args, cfg) -> int:
    from .checks import run_gradient_suite
    rows = run_gradient_suite()
    failed = 0
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        failed += not row.passed
        print(f"{row.name}\t{row.max_rel_err:.3e}\t{row.tol:.0e}\t{status}")
    print(f"checks: {len(rows)}  failed: {failed}")
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_bench(args, cfg) -> int:
    import numpy as np

    from .counting import count_flops, count_params
    from .data import SyntheticSpec, gen_pair
    from .graph import adapter_param_count, analytic_param_count
    from .model import FlowModel
    from .tensor import precision
    from .errors import ConfigError
    if args.runs < 20:
        raise ConfigError(f"latency needs at least 20 runs, got {args.runs}")
    if args.size % cfg.downsample or args.size < 16:
        raise ConfigError(
            f"probe size must be a multiple of {cfg.downsample} and >= 16")
    _echo_config(cfg)
    model_cfg = cfg.model()
    with precision(cfg.precision):
        model = FlowModel(model_cfg)
        params = count_params(model)
        flops = count_flops(model_cfg, args.size, args.size)
        print("component\tparams\tflops")
        for name in sorted((set(params) | set(flops)) - {"total"}):
            print(f"{name}\t{params.get(name, 0)}\t{flops.get(name, 0)}")
        print(f"total\t{params['total']}\t{flops['total']}")

        c, k = model_cfg.context_channels, model_cfg.nodes
        print(f"graph.base\t{analytic_param_count(c, k, 'base')}")
        print(f"graph.sgr\t{analytic_param_count(c, k, 'sgr')}")
        print(f"graph.agr\t{analytic_param_count(c, k, 'agr')}")
        print(f"graph.adapter_delta\t{adapter_param_count(c, k)}")

        spec = SyntheticSpec(height=args.size, width=args.size,
                             texture="smoothed-noise", motion="affine",
                             mag_min=0.5, mag_max=2.0, seed=cfg.seed)
        frame1, frame2, _ = gen_pair(spec)
        for _ in range(3):
            model.predict(frame2, frame1)
        samples = []
        for _ in range(args.runs):
            start = time.perf_counter()
            model.predict(frame2, frame1)
            samples.append(time.perf_counter() - start)
        median_ms = float(np.median(samples)) * 1e3
        print(f"latency_ms\t{median_ms:.2f}\t"
              f"({args.runs} runs at {args.size}x{args.size})")
    return EXIT_OK


def _cmd_viz(args, cfg) -> int:
    from .data import flow_to_color, read_flo, write_ppm
    field = read_flo(args.flo)
    image = flow_to_color(field.flow, cap=args.cap)
    if args.dest:
        dest = Path(args.dest)
    else:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        dest = out / (Path(args.flo).stem + ".ppm")
    write_ppm(dest, image)
    print(f"wrote {dest}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
    "viz": _cmd_viz,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    from .errors import (ConfigError, ContractError, DimensionError,
                         FormatError, NumericError)
    try:
        cfg = _effective_config(args)
        _pin_threads(cfg.threads)
        import numpy  # noqa: F401  (first load, under the cap)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, DimensionError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

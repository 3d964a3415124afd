"""Command-line entry points: run a batch, validate a config, or calibrate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import ConfigError, calibrate_readout, export, export_confusion
from .harness import load_config, run_batch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddqcl",
        description="Train Ry/CZ circuit Born machines on bars-and-stripes targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full experiment batch and export results")
    p_val = sub.add_parser("validate", help="check a config file without running anything")
    p_cal = sub.add_parser("calibrate", help="emit the readout confusion matrix only")

    for p in (p_run, p_val, p_cal):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
    for p in (p_run, p_cal):
        p.add_argument("--out", help="output directory (overrides out_dir in the config)")
        p.add_argument("--seed", type=int, help="base seed override")
    return parser


def _resolve_out(cfg, args) -> Path:
    out = args.out if args.out is not None else cfg.out_dir
    if out is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    return Path(out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = dataclasses.replace(cfg, base_seed=args.seed)

        if args.command == "validate":
            ansatz = cfg.build_ansatz()
            print(
                f"config OK: {cfg.rows}x{cfg.cols} target on {ansatz.n_qubits} qubits, "
                f"{cfg.topology} topology, {cfg.layers} layer(s), {ansatz.param_count} parameters, "
                f"{cfg.optimizer} x {cfg.runs} run(s), budget {cfg.budget}"
            )
            return 0

        out = _resolve_out(cfg, args)

        if args.command == "calibrate":
            # a calibration of one seed beside the summary of another would
            # pass for one whole batch
            summary = out / "summary.json"
            if summary.exists():
                raise ValueError(f"{summary} exists: {out} holds a batch; calibrate elsewhere")
            print(f"wrote {export_confusion(calibrate_readout(cfg), out)}")
            return 0

        result = run_batch(cfg)
        files = export(result, out)
        for r in result.runs:
            print(
                f"run seed={r.seed}: best JS {r.best_js:.4f}, KL {r.kl:.4f}, "
                f"qBAS f1 {r.qbas.f1:.4f}"
            )
        best = min(r.best_js for r in result.runs)
        print(f"batch best JS {best:.4f}; wrote {len(files)} files to {out}")
        return 0
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

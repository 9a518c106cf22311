"""Command-line entry point: run experiments, validate scenario files."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from udnsync.config import ConfigError, load_config
from udnsync.harness import (PRESETS, ExperimentSpec, HarnessError, emit_csv,
                             preset, run_experiment)
from udnsync.plotting import PlotError, emit_plot

OUTPUT_DIR_ENV = "UDNSYNC_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Simulate clock alignment and superposed-access "
                    "information exchange in a dense small-cell network.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a scenario file")
    run_p.add_argument("scenario", help="path to a key = value scenario file")
    run_p.add_argument("--out", default=".",
                       help=f"output directory (overridden by ${OUTPUT_DIR_ENV})")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's RNG seed")
    run_p.add_argument("--replications", type=int, default=None,
                       help="replications per sweep point")
    run_p.add_argument("--preset", choices=PRESETS, default=None,
                       help="named sweep layout applied on top of the scenario")
    run_p.add_argument("--full-scale", action="store_true",
                       help="with --preset: full-size parameters instead of desk scale")

    val_p = sub.add_parser("validate", help="check a scenario file and exit")
    val_p.add_argument("scenario")
    return parser


def _run(args) -> int:
    config = load_config(args.scenario)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    if args.preset is not None:
        spec = preset(args.preset, config, full_scale=args.full_scale)
    else:
        name = Path(args.scenario).stem
        spec = ExperimentSpec(name, "power_threshold_dbm",
                              (config.power_threshold_dbm,), 1, config)
    if args.replications is not None:
        spec = replace(spec, replications=args.replications)

    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(spec)
    csv_path = out_dir / f"{spec.scenario}.csv"
    emit_csv(rows, csv_path)
    print(f"wrote {csv_path}")
    if len(rows) >= 2:
        svg_path = out_dir / f"{spec.scenario}.svg"
        try:
            emit_plot(rows, svg_path, xlabel=spec.swept_parameter)
            print(f"wrote {svg_path}")
        except PlotError as exc:
            print(f"plot skipped: {exc}", file=sys.stderr)
    failures = [r for r in rows if r.error]
    for row in failures:
        print(f"sweep value {row.sweep_value}: {row.error}", file=sys.stderr)
    return 1 if failures else 0


def _validate(args) -> int:
    config = load_config(args.scenario)
    print(f"{args.scenario}: ok "
          f"(K={config.num_nodes}, N={config.num_subbands})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.full_scale and args.preset is None:
        parser.error("--full-scale needs --preset")
    try:
        if args.command == "run":
            return _run(args)
        return _validate(args)
    except (ConfigError, HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

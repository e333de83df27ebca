"""Command-line front end.

Subcommands: partition, density, blowup, tail, freerate, threshold,
selftest.  Each experiment writes one CSV plus a run manifest into the
output directory.  Exit codes: 0 success, 1 invalid configuration or
arguments, 2 any other package error (a budget, numerical or support
failure, printed under its own type name), 3 selftest assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import experiments
from .errors import InvalidConfigError, TorusGibbsError

_RUNNERS = {
    "partition": experiments.exp_partition_convergence,
    "density": experiments.exp_density_convergence,
    "blowup": experiments.exp_blowup,
    "tail": experiments.exp_tail_decay,
    "freerate": experiments.exp_free_state_rate,
    "threshold": experiments.exp_threshold_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusgibbs", add_help=True)
    sub = parser.add_subparsers(dest="command")
    for name in (*_RUNNERS, "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def _failure(exc: TorusGibbsError) -> int:
    """Report a package error other than a bad configuration; exit code 2."""
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help; map everything else to config error
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.config is not None:
            cfg = experiments.parse_config(args.config)
        else:
            cfg = experiments.ExperimentConfig()
        if cfg.experiment and cfg.experiment != args.command:
            raise InvalidConfigError(
                f"config names experiment {cfg.experiment!r} but subcommand is {args.command!r}"
            )
        # replace() re-runs the config validation on the overridden values
        overrides = {"seed": args.seed, "out_dir": args.out, "threads": args.threads}
        cfg = dataclasses.replace(
            cfg, experiment=args.command,
            **{key: val for key, val in overrides.items() if val is not None})
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "selftest":
        try:
            results = experiments.run_selftest(seed=cfg.seed)
        except TorusGibbsError as exc:
            return _failure(exc)
        failed = [name for name, ok in results if not ok]
        if failed:
            print(f"selftest failures: {', '.join(failed)}", file=sys.stderr)
            return 3
        print(f"selftest: {len(results)}/{len(results)} checks passed")
        return 0

    runner = _RUNNERS[args.command]
    start = time.monotonic()
    try:
        rows = runner(cfg)
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TorusGibbsError as exc:
        return _failure(exc)
    wall = time.monotonic() - start

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, f"{args.command}.csv")
    manifest_path = os.path.join(cfg.out_dir, f"{args.command}_manifest.txt")
    experiments.write_csv(csv_path, rows)
    experiments.write_manifest(manifest_path, cfg, wall)
    print(f"wrote {csv_path} ({len(rows)} rows) in {wall:.1f}s")
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands:
  run    one experiment from a JSON config file
  sweep  grid over beta / gamma / noise_variance / fr_count (config "sweep" section)
  dlg    gradient-leakage evaluation grid (config "dlg" section)

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, build_section, load_config
from .reporting import (dlg_csv_text, dlg_json_text, json_text, result_json_text,
                        rounds_csv_text, summary_dict, sweep_csv_text)
from .simulator import (DLGExperimentConfig, run_dlg_experiment, run_experiment,
                        sweep_experiment)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fedaudit",
                     description="Federated-learning free-rider defense simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run one experiment"),
                            ("sweep", "run a parameter grid"),
                            ("dlg", "run the gradient-leakage evaluation")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)

    try:
        config, raw = load_config(args.config)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot create the output directory "
                              f"({exc.strerror})") from None
        if args.seed is not None:
            config = replace(config, seed=args.seed)

        if args.command == "run":
            result = run_experiment(config)
            if args.format == "csv":
                (out_dir / "rounds.csv").write_text(rounds_csv_text(result))
                (out_dir / "summary.json").write_text(
                    result_json_text(result, include_rounds=False))
            else:
                (out_dir / "result.json").write_text(result_json_text(result))
            summary = summary_dict(result)
            print(f"rounds={summary['rounds_completed']} "
                  f"final_accuracy={summary['final_accuracy']:.4f} "
                  f"dsr={summary['dsr']} fpr={summary['fpr']}")
            return EXIT_OK

        if args.command == "sweep":
            section = raw.get("sweep")
            if not isinstance(section, dict):
                raise ConfigError("sweep: config file needs a 'sweep' object")
            rows = sweep_experiment(config, section)
            if args.format == "csv":
                (out_dir / "sweep.csv").write_text(sweep_csv_text(rows))
            else:
                (out_dir / "sweep.json").write_text(json_text(rows))
            print(f"sweep rows={len(rows)}")
            return EXIT_OK

        # dlg
        section = raw.get("dlg", {})
        if args.seed is not None and isinstance(section, dict):
            section = {**section, "seed": args.seed}
        cells = run_dlg_experiment(build_section(DLGExperimentConfig, section, "dlg"))
        if args.format == "csv":
            (out_dir / "dlg_grid.csv").write_text(dlg_csv_text(cells))
        else:
            (out_dir / "dlg_grid.json").write_text(dlg_json_text(cells))
        defended = sum(1 for c in cells if c.defended)
        print(f"dlg cells={len(cells)} defended={defended}")
        return EXIT_OK

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())

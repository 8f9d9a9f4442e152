"""Command-line front end for config-driven experiments.

Subcommands: train (run an experiment end to end), eval (score a saved
genome), sweep (one run per parameter value), oracle (exhaustive-search
reference run), import-trace (validate a channel trace file).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool

from .harness import (EXPORT_FORMATS, ConfigError, ConfigLoader, config_from_mapping,
                      config_to_mapping, evaluate_genome, import_channel_trace,
                      load_config, run_experiment, sweep)


def _add_common(parser, needs_config=True):
    parser.add_argument("--config", required=needs_config,
                        help="experiment config file (YAML)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--policy", default=None, help="override the policy kind")
    parser.add_argument("--format", choices=EXPORT_FORMATS, default="csv",
                        help="metrics export format")
    parser.add_argument("--workers", type=int, default=None,
                        help="fitness-evaluation worker processes "
                             "(default: EVORIS_WORKERS or 1)")


def _load_with_overrides(args, force_policy=None):
    cfg = load_config(args.config)
    mapping = config_to_mapping(cfg)
    if args.seed is not None:
        mapping["seed"] = args.seed
    if args.out is not None:
        mapping["out_dir"] = args.out
    policy = force_policy or args.policy
    if policy is not None:
        mapping["policy"] = policy
    return config_from_mapping(mapping)


def _print_records(records):
    for rec in records:
        print(f"{rec.run_id}: mean_snr_db={rec.mean_snr_db:.3f} "
              f"mean_rate={rec.mean_rate:.4f} std_err={rec.std_err:.3e} "
              f"evaluations={rec.evaluations}")


def _parse_values(raw: str):
    """The values of ``--values``, read as the items of one YAML flow sequence,
    so "10,20" gives two numbers and "[0,0,2],[0,0,2.5]" two lists; an
    argument that is not one raises ConfigError naming it."""
    import yaml
    try:
        return yaml.load(f"[{raw}]", Loader=ConfigLoader)
    except yaml.YAMLError as exc:
        why = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"sweep --values: {raw!r} is not a comma-separated list of "
                          f"YAML values ({why})") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evoris",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment end to end")
    _add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved genome")
    _add_common(p_eval)
    p_eval.add_argument("--genome", required=True, help="genome file to evaluate")

    p_sweep = sub.add_parser("sweep", help="run the experiment once per value")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. scenario.tx_power_dbm")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 10,20,30,40")

    p_oracle = sub.add_parser("oracle", help="exhaustive-search reference run")
    _add_common(p_oracle)

    p_imp = sub.add_parser("import-trace", help="validate a channel trace file")
    p_imp.add_argument("--trace", required=True, help="trace file to check")
    p_imp.add_argument("--config", default=None,
                       help="optional config whose scenario dims must match")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "import-trace":
            scenario = None
            if args.config is not None:
                scenario = load_config(args.config).scenario
            trace = import_channel_trace(args.trace, scenario)
            first = trace[0][0]
            print(f"{args.trace}: {len(trace)} episodes x {len(trace[0])} steps, "
                  f"n_tx={first.h.shape[0]} n_ris={first.h2_list[0].shape[0]} "
                  f"k={first.ris_count}")
            return 0
        if args.command == "sweep":
            cfg = _load_with_overrides(args)
            records = sweep(cfg, args.param, _parse_values(args.values),
                            export_format=args.format, workers=args.workers)
        elif args.command == "eval":
            cfg = _load_with_overrides(args)
            records = evaluate_genome(cfg, args.genome)
        else:
            force = "oracle" if args.command == "oracle" else None
            cfg = _load_with_overrides(args, force_policy=force)
            records = run_experiment(cfg, export_format=args.format,
                                     workers=args.workers)
        _print_records(records)
        return 0
    except BrokenProcessPool as exc:
        print(f"error: a fitness worker process died ({exc})", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

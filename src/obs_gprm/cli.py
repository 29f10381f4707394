"""Command-line experiment runner.

    obs-gprm-sim run --scenario <file> [--out-dir <dir>] [--trace]
    obs-gprm-sim validate --scenario <file>

The scenario file holds every run setting, so `run` runs exactly the
scenario `validate` checks. Progress goes to stderr; data only to files.
OBS_SIM_THREADS caps the worker pool.
"""

import argparse
import sys

from .experiment import ScenarioError, parse_scenario, run_experiment, validate


def _log(msg):
    print(msg, file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(prog="obs-gprm-sim",
                                     description="OBS network simulator with "
                                                 "adaptive (GPRM) and min-hop routing")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario sweep")
    run_p.add_argument("--scenario", required=True, help="scenario file")
    run_p.add_argument("--out-dir", default=".", help="directory for result files")
    run_p.add_argument("--trace", action="store_true", help="write per-run event traces")
    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--scenario", required=True, help="scenario file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        if args.command == "validate":
            if errors := validate(scenario):
                raise ScenarioError(errors)
            _log("scenario ok")
            return 0
        run_experiment(scenario, out_dir=args.out_dir, trace=args.trace, log=_log)
    except ScenarioError as exc:  # a bad input, found before any run or file
        for err in exc.errors:
            _log(f"error: {err}")
        return 2
    except Exception as exc:  # a failed run must not exit 0
        _log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: run, check-lemma, gen-fixture, replay.

Exit codes: 0 pass, 1 statistical-bound failure, 2 exact-invariant
violation, 3 budget refusal.  A usage error (bad arguments, config, prover
mode, lemma id or transcript, or a path that cannot be read or written) also
exits 2, through argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .experiments import (EXIT_EXACT_FAIL, EXIT_PASS, EXIT_REFUSED, cmd_check_lemma,
                          cmd_replay, cmd_run, exit_code_for, gen_ham_lb_fixture)
from .tensors import DEFAULT_ENUM_BUDGET, BudgetExceeded


def _budget(arg: str | None) -> int:
    """--budget, else DFIPP_BUDGET, else the default; a set value must be a positive integer."""
    name, text = ("--budget", arg) if arg is not None else ("DFIPP_BUDGET",
                                                            os.environ.get("DFIPP_BUDGET"))
    return DEFAULT_ENUM_BUDGET if text is None else _positive(name, text)


def _positive(name: str, text: str) -> int:
    """text as an int; a ValueError names the flag or variable unless it is positive."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return value


def _fraction(name: str, text: str) -> Fraction:
    """text as a Fraction; a ValueError names the flag unless it is one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a fraction, got {text!r}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(prog="dfipp",
                                     description="protocol simulator and lemma checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a protocol experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--trials", type=int, help="override the config trial count")
    p_run.add_argument("--out", help="output prefix for .csv/.json reports")

    p_lem = sub.add_parser("check-lemma", help="run a lemma-check suite")
    p_lem.add_argument("lemma")
    p_lem.add_argument("--trials", default="200")
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--budget", help="enumeration budget (default: DFIPP_BUDGET, "
                       f"else {DEFAULT_ENUM_BUDGET})")

    p_fix = sub.add_parser("gen-fixture", help="generate the weight-testing fixture pair")
    p_fix.add_argument("--n", required=True)
    p_fix.add_argument("--eps", default="1/100")
    p_fix.add_argument("--e2", default="2/3", help="exponent of |I2|")
    p_fix.add_argument("--e3", default="1997/3000", help="exponent of |I3|")
    p_fix.add_argument("--out", help="write the fixture JSON here")

    p_rep = sub.add_parser("replay", help="re-verify a recorded transcript")
    p_rep.add_argument("transcript")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            with open(args.config) as fh:
                config = json.load(fh)
            overrides = {"seed": args.seed, "trials": args.trials}
            if type(config) is dict:  # anything else is refused by cmd_run's set-up
                config.update((key, v) for key, v in overrides.items() if v is not None)
            record = cmd_run(config, out_prefix=args.out)
            if args.out:  # echo the .json report cmd_run wrote: one encode serves both
                with open(args.out + ".json") as fh:
                    sys.stdout.write(fh.read())
            else:
                print(json.dumps(record, sort_keys=True, indent=2, default=str))
            return EXIT_PASS

        if args.command == "check-lemma":
            report = cmd_check_lemma(args.lemma, _positive("--trials", args.trials), args.seed,
                                     budget=_budget(args.budget))
            print(json.dumps(report, sort_keys=True, indent=2, default=str))
            return exit_code_for(report)

        if args.command == "gen-fixture":
            n = _positive("--n", args.n)
            fixture = gen_ham_lb_fixture(n, _fraction("--eps", args.eps),
                                         _fraction("--e2", args.e2), _fraction("--e3", args.e3))
            payload = {
                "n": n,
                "w": fixture["w"],
                "x": list(fixture["x"]),
                "y": list(fixture["y"]),
                "d1_masses": [str(v) for v in fixture["d1"].masses],
                "d2_masses": [str(v) for v in fixture["d2"].masses],
                "report": fixture["report"],
            }
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(payload, fh, sort_keys=True, indent=2, default=str)
                    fh.write("\n")
            print(json.dumps(fixture["report"], sort_keys=True, indent=2, default=str))
            return EXIT_PASS if fixture["report"]["identity_holds"] else EXIT_EXACT_FAIL

        if args.command == "replay":
            report = cmd_replay(args.transcript)
            print(json.dumps(report, sort_keys=True, indent=2, default=str))
            return EXIT_PASS if report["match"] else EXIT_EXACT_FAIL
    except BudgetExceeded as exc:
        print(json.dumps({"status": "refused", "reason": str(exc)}), file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:  # a bad config, prover mode, lemma id or path
        parser.error(str(exc))
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())

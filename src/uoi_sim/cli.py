"""Command line front end.

    uoi-sim <scenario> [--config FILE] [--seed S] [--out PATH]
            [--format csv|jsonl|plot] [scenario flags]

Exit codes: 0 success, 2 configuration error, unwritable --out or output
flags that would write nothing useful (--format without --out, --format on
mdp, --format plot on waterfill, a trace from --trace or the config file
without --format jsonl), 3 bound violation when --assert-bounds is set.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .mdp import format_policy_table


_FORMATS = ("csv", "jsonl", "plot")
# --format values of the scenarios that do not take all three: mdp writes its
# policy table as text, and a waterfill row has no average to plot
_SCENARIO_FORMATS = {"mdp": (), "waterfill": ("csv", "jsonl")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uoi-sim",
                                     description="Status-update scheduling simulator")
    sub = parser.add_subparsers(dest="scenario", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", help="output path (plot format: directory)")
        sp.add_argument("--format", choices=_FORMATS, help="--out format (csv)")
        sp.add_argument("--horizon", type=int, help="slots per replication")
        sp.add_argument("--replications", type=int)
        sp.add_argument("--policy", action="append", dest="policies",
                        help="policy to run (repeatable)")
        sp.add_argument("--assert-bounds", action="store_true",
                        help="exit 3 if a measured average exceeds its bound")
        sp.add_argument("--trace", action="store_true",
                        help="record a per-slot trace (single, multi, csma and control; "
                             "needs --format jsonl)")

    sp = sub.add_parser("single", help="single-terminal updating")
    common(sp)
    sp.add_argument("--rho", type=float, help="update frequency budget")
    sp.add_argument("--v", type=float, help="drift/penalty tradeoff V")

    sp = sub.add_parser("multi", help="centralized K-of-N scheduling")
    common(sp)
    sp.add_argument("--n", type=int, help="number of terminals")
    sp.add_argument("--k", type=int, help="sub-channels per slot")

    sp = sub.add_parser("csma", help="distributed CSMA/CA scheduling")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--window", type=int, help="contention window W in mini-slots")

    sp = sub.add_parser("mdp", help="reference policies by relative value iteration")
    common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--qmax", type=float)
    sp.add_argument("--qstep", type=float)

    sp = sub.add_parser("control", help="remote tracking-control demo")
    common(sp)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--a", type=float, help="plant state coefficient")
    sp.add_argument("--b", type=float, help="plant control gain")
    sp.add_argument("--noise-var", type=float, dest="noise_var")

    sp = sub.add_parser("waterfill", help="stationary policy optimizer")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    return parser


# flag -> (section, key) of the config it overrides; "" is the top level
_OVERRIDES = {
    "seed": ("", "seed"), "horizon": ("", "horizon"),
    "replications": ("", "replications"), "policies": ("", "policies"),
    "trace": ("", "trace"), "rho": ("", "rho"), "v": ("", "v"),
    "n": ("fleet", "n"), "k": ("fleet", "k"),
    "window": ("contention", "w"),
    "a": ("control", "a"), "b": ("control", "b"), "noise_var": ("control", "noise_var"),
    "qmax": ("mdp", "q_max"), "qstep": ("mdp", "q_step"),
}


def config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    """Apply the flags to the raw config (the file, or just the scenario)
    and validate the result once."""
    if args.config:
        raw = harness.read_config(args.config)
        if "scenario" in raw and raw["scenario"] != args.scenario:
            raise harness.ConfigError(
                "scenario", f"config says {raw['scenario']!r} but the "
                f"command line asked for {args.scenario!r}")
    else:
        raw = {"scenario": args.scenario}
    for flag, (section, key) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None or value is False:
            continue
        if section and raw.get(section) is None:
            raw[section] = {}
        target = raw[section] if section else raw
        if isinstance(target, dict):  # a malformed section is reported below
            target[key] = value
    return harness.config_from_dict(raw)


def _num(x: float) -> str:
    """`x` with 6 decimals; in exponent notation from magnitude 1e15 on,
    where fixed notation prints more digits than a float holds."""
    return f"{x:.6e}" if abs(x) >= 1e15 else f"{x:.6f}"


def _cannot_write(path: str, reason: OSError | str) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def _unwritable(path: str, directory: bool) -> str | None:
    """Why `path` cannot be written, as far as a check before the run can
    tell; makedirs creates the missing parents of a plot directory, so its
    nearest existing ancestor must be a directory."""
    if directory:
        existing = path
        while not os.path.exists(existing):
            existing = os.path.dirname(existing) or "."
        return None if os.path.isdir(existing) else f"{existing!r} is not a directory"
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(path) or "."
    return None if os.path.isdir(parent) else f"no such directory {parent!r}"


def require_writable(path: str, directory: bool = False) -> None:
    """Exit with code 2 and the CLI's message unless `path`, a file or with
    `directory` a plot directory, can be written: a figure script calls this
    before its run."""
    reason = _unwritable(path, directory)
    if reason:
        sys.exit(_cannot_write(path, reason))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format and not args.out:
        print(f"error: --format {args.format} needs --out", file=sys.stderr)
        return 2
    if args.format and args.format not in _SCENARIO_FORMATS.get(args.scenario, _FORMATS):
        print(f"error: {args.scenario} takes no --format {args.format}", file=sys.stderr)
        return 2
    try:
        config = config_from_args(args)
        # after the config, which names trace where no run records one; the
        # flag and the config file's "trace" alike need a jsonl file to go to
        if config.trace and args.format != "jsonl":
            print("error: --trace needs --format jsonl", file=sys.stderr)
            return 2
        reason = args.out and _unwritable(args.out, args.format == "plot")
        if reason:
            return _cannot_write(args.out, reason)
        rows = harness.run(config)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.scenario == "mdp":
        text = "".join(format_policy_table(m.extras["policy_table"]) for m in rows)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                return _cannot_write(args.out, exc)
        else:
            sys.stdout.write(text)
        for m in rows:
            print(f"avg_cost={m.avg_uoi:.6f} avg_freq={m.avg_update_freq[0]:.6f} "
                  f"lam={m.extras['lam']:.6g}", file=sys.stderr)
        return 0

    for m in rows:
        freq = "" if m.avg_update_freq is None else f" freq={float(m.avg_update_freq.mean()):.4f}"
        uoi = "" if m.avg_uoi is None else f" avg_uoi={_num(m.avg_uoi)}"
        bound = "" if m.bound_value is None else f" bound={_num(m.bound_value)}"
        print(f"[{m.scenario}] {m.policy}:{uoi}{freq}{bound}")
        if m.scenario == "waterfill":
            print("pi = " + " ".join(f"{x:.6f}" for x in m.extras["pi"]))

    if args.out:
        try:
            paths = harness.export(rows, args.format or "csv", args.out)
        except OSError as exc:
            return _cannot_write(args.out, exc)
        for p in paths:
            print(f"wrote {p}")

    if args.assert_bounds:
        for m in rows:
            if m.bound_value is not None and m.avg_uoi is not None:
                slack = 3.0 * (m.stderr_uoi or 0.0)
                if m.avg_uoi > m.bound_value + slack:
                    print(f"bound violated: {m.policy} avg_uoi {_num(m.avg_uoi)} "
                          f"> bound {_num(m.bound_value)} + {_num(slack)}", file=sys.stderr)
                    return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

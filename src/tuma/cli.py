"""
Command line interface.

    tuma run   --n 250 --ka 50 --ma 50 --bits 10 --snr-db -12 \
               --decoder amp --trials 200 --seed 1 --out results.csv
    tuma sweep --param ma --values 10 50 100 150 --decoder amp,ep ...

Every flag but --config may also come from a config file of `key = value`
lines ('#' starts a comment) whose keys are the subcommand's flag names.
The file's lines are read as the flags they name, placed before the
command line's own flags, so argparse types and checks every value and
the order is built-in defaults < file < flags.
"""

import argparse
import dataclasses
import re
import sys

from .scenario import SystemConfig, _whole
from .decoders import ALGORITHMS
from .harness import SWEEPABLE, SweepSpec, run_sweep

DEFAULTS = {"n": 250, "ka": 50, "ma": 50, "bits": 10, "snr_db": -12.0,
            "seed": 1, "decoder": "amp"}


def _number(text):
    """A swept value: an int when it is whole, else a float."""
    value = float(text)
    return int(value) if value.is_integer() else value


class _Parser(argparse.ArgumentParser):
    """argparse, reading every token that starts -<digit> or -.<digit> as
    a value.

    argparse takes a token for a value only when it looks like a negative
    number, and its own pattern has no exponent, so it would read the
    -1e1 of `--values -1e1 0` as an unknown option.  No flag starts with
    a digit, so the wider pattern takes no option away.  Subparsers share
    the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


# Each subcommand's flags as {name: add_argument keywords}.  A config file's
# keys are the same names, and its lines are parsed as those flags.
RUN_FLAGS = {
    "n": dict(type=int, help="codeword length"),
    "ka": dict(type=int, help="number of sensors"),
    "ma": dict(type=int, help="number of targets"),
    "bits": dict(type=int, help="log2 of codebook size m"),
    "snr_db": dict(type=float, help="per-codeword power in dB"),
    "decoder": dict(type=str, help=f"{', '.join(ALGORITHMS)} "
                                   "(comma-separated for several)"),
    "trials": dict(type=int, help="Monte Carlo trials (default 200 for run "
                                  "and --param ma, else 100)"),
    "seed": dict(type=int, help="base seed"),
    "p_order": dict(type=float, help="Wasserstein order "
                                     f"(default {SystemConfig.p_order:g})"),
    "max_iters": dict(type=int, help="decoder iteration cap "
                                     f"(default {SystemConfig.max_iters})"),
    "out": dict(type=str, help="CSV output path"),
    "workers": dict(type=int, help="worker processes (default: CPU count)"),
}
FLAGS = {
    "run": RUN_FLAGS,
    "sweep": {**RUN_FLAGS,
              "param": dict(type=str, choices=SWEEPABLE, help="field to sweep"),
              "values": dict(type=_number, nargs="+", help="swept values")},
}


def _config_tokens(path, flags):
    """The flag tokens a config file's `key = value` lines stand for."""
    tokens = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
            flag = "--" + key.replace("_", "-")
            if flags[key].get("nargs"):  # `--values=3` would take one value
                tokens += [flag, *val.replace(",", " ").split()]
            else:  # one token, so a value such as -12 stays a value
                tokens.append(f"{flag}={val}")
    return tokens


def _spec(command, settings):
    """The SweepSpec of a run (param 'none') or a sweep."""
    if command == "run":
        settings.update(param="none", values=[None])
    for key in ("param", "values"):
        if not settings.get(key):
            raise ValueError(f"{command} needs --{key}")
    settings.setdefault("trials", 200 if settings["param"] in ("none", "ma")
                        else 100)
    fields = {field.name for field in dataclasses.fields(SystemConfig)}
    base = SystemConfig(m=2 ** settings["bits"],
                        **{key: val for key, val in settings.items()
                           if key in fields})
    # comma- or space-separated names, '-' read as '_', duplicates dropped
    decoders = dict.fromkeys(name.replace("-", "_") for name
                             in settings["decoder"].replace(",", " ").split())
    return SweepSpec(base=base, param=settings["param"],
                     values=tuple(settings["values"]),
                     decoders=tuple(decoders), out=settings.get("out"))


def _log_row(row):
    print(f"  {row['decoder']:<10} {row['sweep_param']}={row['value']!s:<6} "
          f"tv={row['tv_mean']:.4f}+-{row['tv_se']:.4f} "
          f"wp={row['wp_mean']:.4f}+-{row['wp_se']:.4f} "
          f"dist={row['distortion_mean']:.4f} "
          f"div={row['diverged_count']}")


def main(argv=None):
    """Run the command line; returns the exit status, 2 on a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _Parser(
        prog="tuma",
        description="Type-based unsourced multiple access simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("run", "decode one configuration many times"),
                           ("sweep", "sweep one parameter")):
        cmd = sub.add_parser(command, help=about)
        cmd.set_defaults(**DEFAULTS)
        cmd.add_argument("--config", help="file of key = value lines, read "
                                          "as the flags the keys name")
        for name, keywords in FLAGS[command].items():
            cmd.add_argument("--" + name.replace("_", "-"), dest=name,
                             **keywords)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # the file's flags, then argv's own
            try:
                tokens = _config_tokens(args.config, FLAGS[args.command])
            except (ValueError, OSError) as err:
                sub.choices[args.command].error(str(err))
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
    except SystemExit as stop:  # argparse has printed the usage error
        return stop.code
    settings = {key: val for key, val in vars(args).items() if val is not None}
    try:
        spec = _spec(args.command, settings)
        workers = settings.get("workers")
        if workers is not None:  # run_sweep's check, before the header
            _whole(workers, "workers", 1)
        print(f"{args.command}: n={spec.base.n} ka={spec.base.ka} "
              f"ma={spec.base.ma} bits={spec.base.bits} "
              f"snr_db={spec.base.snr_db} trials={spec.base.trials} "
              f"seed={spec.base.seed}")
        rows = run_sweep(spec, workers=workers, log=_log_row)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if spec.out:
        print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

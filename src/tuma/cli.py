"""
Command line interface.

    tuma run   --n 250 --ka 50 --ma 50 --bits 10 --snr-db -12 \
               --decoder amp --trials 200 --seed 1 --out results.csv
    tuma sweep --param ma --values 10 50 100 150 --decoder amp,ep ...

Every flag but --config may also come from a config file of `key = value`
lines ('#' starts a comment) whose keys are the subcommand's flag names;
explicit flags override the file, the file overrides built-in defaults.
"""

import argparse
import dataclasses
import sys

from .scenario import SystemConfig, _whole
from .harness import SWEEPABLE, SweepSpec, run_sweep

DEFAULTS = {"n": 250, "ka": 50, "ma": 50, "bits": 10, "snr_db": -12.0,
            "seed": 1, "decoder": "amp"}


def _number(text):
    """A swept value: an int when it is whole, else a float."""
    value = float(text)
    return int(value) if value.is_integer() else value


# Each subcommand's flags as {name: add_argument keywords}.  A config file's
# keys are the same names, and its values are typed by the same `type`.
RUN_FLAGS = {
    "n": dict(type=int, help="codeword length"),
    "ka": dict(type=int, help="number of sensors"),
    "ma": dict(type=int, help="number of targets"),
    "bits": dict(type=int, help="log2 of codebook size m"),
    "snr_db": dict(type=float, help="per-codeword power in dB"),
    "decoder": dict(type=str,
                    help="amp, scalar_amp, ep (comma-separated for several)"),
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


def load_config_file(path):
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _typed(key, raw, type, nargs=None, **_):
    """A config-file value typed as its flag types it on the command line."""
    try:
        if nargs:
            return [type(item) for item in raw.replace(",", " ").split()]
        return type(raw)
    except ValueError:
        raise ValueError(f"config key {key}: invalid value {raw!r}") from None


def _settings(args):
    """The subcommand's settings: defaults < config file < flags."""
    flags = FLAGS[args.command]
    settings = dict(DEFAULTS)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _typed(key, raw, **flags[key])
    settings.update((key, val) for key, val in vars(args).items()
                    if key in flags and val is not None)
    return settings


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
    parser = argparse.ArgumentParser(
        prog="tuma",
        description="Type-based unsourced multiple access simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("run", "decode one configuration many times"),
                           ("sweep", "sweep one parameter")):
        cmd = sub.add_parser(command, help=about)
        cmd.add_argument("--config", help="file of key = value lines; "
                                          "the keys are the flag names")
        for name, keywords in FLAGS[command].items():
            cmd.add_argument("--" + name.replace("_", "-"), dest=name,
                             **keywords)
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse has printed the usage error
        return stop.code
    try:
        settings = _settings(args)
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

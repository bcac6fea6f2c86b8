"""
Command line interface.

    tuma run   --n 250 --ka 50 --ma 50 --bits 10 --snr-db -12 \
               --decoder amp --trials 200 --seed 1 --out results.csv
    tuma sweep --param ma --values 10 50 100 150 --decoder amp,ep ...

Flags may also come from a config file of `key = value` lines ('#' starts a
comment); explicit flags override the file, the file overrides built-in
defaults.  --workers caps the worker processes (default: CPU count).
"""

import argparse
import sys

from .scenario import SystemConfig
from .harness import SweepSpec, run_sweep

DEFAULTS = {
    "n": 250,
    "ka": 50,
    "ma": 50,
    "bits": 10,
    "snr_db": -12.0,
    "p_order": 2.0,
    "max_iters": 10,
    "seed": 1,
    "decoder": "amp",
}

_INT_KEYS = ("n", "ka", "ma", "bits", "trials", "seed", "max_iters")
_FLOAT_KEYS = ("snr_db", "p_order")


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


def _normalize_decoders(raw):
    names = []
    for chunk in raw.replace(",", " ").split():
        name = chunk.strip().replace("-", "_")
        if name and name not in names:
            names.append(name)
    if not names:
        raise ValueError("no decoder given")
    return tuple(names)


def _merge(args, command):
    """Resolve defaults < config file < explicit flags; returns a dict."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        raw = load_config_file(args.config)
        for key, val in raw.items():
            key = key.replace("-", "_")
            if key in _INT_KEYS:
                merged[key] = int(val)
            elif key in _FLOAT_KEYS:
                merged[key] = float(val)
            elif key == "values":
                merged[key] = tuple(float(v) for v in val.replace(",", " ").split())
            elif key in ("decoder", "decoders"):
                merged["decoder"] = val
            elif key in ("out", "param"):
                merged[key] = val
            else:
                raise ValueError(f"unknown config key {key!r}")
    for key, val in vars(args).items():
        if key in ("command", "config", "workers"):
            continue
        if val is not None:
            merged[key] = val
    if "trials" not in merged or merged["trials"] is None:
        param = merged.get("param", "none")
        merged["trials"] = 200 if command == "run" or param == "ma" else 100
    return merged


def _build_spec(merged, command):
    config = SystemConfig(
        n=merged["n"], ka=merged["ka"], ma=merged["ma"],
        m=2 ** int(merged["bits"]), snr_db=merged["snr_db"],
        p_order=merged["p_order"], max_iters=merged["max_iters"],
        trials=merged["trials"], seed=merged["seed"])
    decoders = _normalize_decoders(str(merged["decoder"]))
    if command == "run":
        return SweepSpec(base=config, param="none", values=(None,),
                         decoders=decoders, out=merged.get("out"))
    param = merged.get("param")
    if not param:
        raise ValueError("sweep needs --param")
    values = merged.get("values")
    if not values:
        raise ValueError("sweep needs --values")
    values = tuple(int(v) if float(v).is_integer() else float(v)
                   for v in values)
    return SweepSpec(base=config, param=param, values=values,
                     decoders=decoders, out=merged.get("out"))


def _add_common(parser):
    parser.add_argument("--n", type=int, help="codeword length")
    parser.add_argument("--ka", type=int, help="number of sensors")
    parser.add_argument("--ma", type=int, help="number of targets")
    parser.add_argument("--bits", type=int, help="log2 of codebook size m")
    parser.add_argument("--snr-db", type=float, dest="snr_db",
                        help="per-codeword power in dB")
    parser.add_argument("--decoder",
                        help="amp, scalar_amp, ep (comma-separated for several)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--p-order", type=float, dest="p_order",
                        help="Wasserstein order (default 2)")
    parser.add_argument("--max-iters", type=int, dest="max_iters",
                        help="decoder iteration cap (default 10)")
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--workers", type=int,
                        help="worker processes (default: CPU count)")


def _log_row(row):
    print(f"  {row['decoder']:<10} {row['sweep_param']}={row['value']!s:<6} "
          f"tv={row['tv_mean']:.4f}+-{row['tv_se']:.4f} "
          f"wp={row['wp_mean']:.4f}+-{row['wp_se']:.4f} "
          f"dist={row['distortion_mean']:.4f} "
          f"div={row['diverged_count']}")


def _cmd_run_or_sweep(args, command):
    merged = _merge(args, command)
    spec = _build_spec(merged, command)
    print(f"{command}: n={spec.base.n} ka={spec.base.ka} ma={spec.base.ma} "
          f"bits={spec.base.bits} snr_db={spec.base.snr_db} "
          f"trials={spec.base.trials} seed={spec.base.seed}")
    rows = run_sweep(spec, workers=args.workers, log=_log_row)
    if spec.out:
        print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tuma",
        description="Type-based unsourced multiple access simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="decode one configuration many times")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", choices=["ma", "bits", "n", "snr_db"],
                         help="field to sweep")
    sweep_p.add_argument("--values", nargs="+", type=float,
                         help="swept values")

    args = parser.parse_args(argv)
    try:
        return _cmd_run_or_sweep(args, args.command)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo harness: trials, aggregation, sweeps, CSV output, CLI."""

import csv
import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest

import tuma.harness as harness
from tuma import (CSV_COLUMNS, ConfigError, SweepSpec, SystemConfig,
                  TrialResult, aggregate, derive_config, run_sweep, run_trial)
from tuma.cli import main

TINY = SystemConfig(n=16, ka=3, ma=2, m=16, snr_db=0.0, trials=4, seed=9)
ALL_DECODERS = ("amp", "scalar_amp", "ep")


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_is_reproducible():
    assert run_trial(TINY, ALL_DECODERS, 2) == run_trial(TINY, ALL_DECODERS, 2)


def test_run_trial_metrics_are_sane():
    [result] = run_trial(TINY, ("amp",), 0)
    assert 0.0 <= result.tv <= 1.0
    assert result.wp >= 0.0
    assert result.distortion >= 0.0
    assert result.decoder == "amp" and result.trial_index == 0
    assert not result.diverged


def test_run_trial_rejects_a_bare_decoder_name():
    with pytest.raises(ConfigError, match="sequence"):
        run_trial(TINY, "amp", 0)


def test_run_trial_takes_whole_floats_as_integers():
    floats = SystemConfig(n=16.0, ka=3.0, ma=2.0, m=16.0, snr_db=0.0,
                          max_iters=3.0, trials=4.0, seed=9.0)
    assert floats == replace(TINY, max_iters=3)
    assert (run_trial(floats, ALL_DECODERS, 1)
            == run_trial(replace(TINY, max_iters=3), ALL_DECODERS, 1))


def test_an_empty_decoder_list_is_refused():
    # it would simulate every scene and report nothing
    with pytest.raises(ConfigError, match="nonempty"):
        SweepSpec(base=TINY, decoders=())
    with pytest.raises(ConfigError, match="nonempty"):
        run_trial(TINY, (), 0)


def test_trials_are_independent_of_execution_order():
    forward = [run_trial(TINY, ("amp",), t)[0] for t in range(4)]
    backward = [run_trial(TINY, ("amp",), t)[0] for t in (3, 2, 1, 0)]
    assert [r.trial_index for r in forward] == [0, 1, 2, 3]
    assert forward == backward[::-1]


@pytest.mark.parametrize("trial_index", [0, 1, 2])
def test_one_scene_decoded_by_every_decoder_matches_separate_trials(
        trial_index):
    # every decoder sees the same received signal, so none may mutate it:
    # decoding the scene once per decoder must give the same bits
    config = SystemConfig(n=64, ka=10, ma=5, m=128, snr_db=-5.0, seed=21)
    together = run_trial(config, ALL_DECODERS, trial_index)
    assert [r.decoder for r in together] == list(ALL_DECODERS)
    for decoder, joint in zip(ALL_DECODERS, together):
        assert [joint] == run_trial(config, (decoder,), trial_index)


def test_worker_pool_matches_serial_execution():
    spec = SweepSpec(base=TINY, param="bits", values=(3, 4, 5),
                     decoders=ALL_DECODERS)
    assert run_sweep(spec, workers=2) == run_sweep(spec, workers=1)


def test_scenes_are_paired_across_swept_values():
    # the swept channel parameter must not disturb the scene stream: the
    # distortion (a scene-only quantity) is identical trial by trial
    [loud] = run_trial(TINY, ("amp",), 1)
    quiet_config = derive_config(TINY, "snr_db", -20.0)
    [quiet] = run_trial(quiet_config, ("amp",), 1)
    assert loud.distortion == quiet.distortion


# ---------------------------------------------------------------------------
# one scene, one distortion, one pool


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_each_scene_is_simulated_once_for_all_decoders(monkeypatch):
    scenes = _count_calls(monkeypatch, "draw_targets")
    distortions = _count_calls(monkeypatch, "quantization_distortion")
    spec = SweepSpec(base=TINY, param="snr_db", values=(0.0, -10.0),
                     decoders=("amp", "scalar_amp"))
    rows = run_sweep(spec, workers=1)
    assert len(rows) == 4
    assert len(scenes) == len(distortions) == 2 * TINY.trials


def _fake_pool(monkeypatch):
    """Patch in a stand-in pool that starts no process; returns its sizes.

    It records max_workers and maps serially, so asking for 64 workers
    forks nothing.
    """
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    return started


def test_one_pool_per_sweep(monkeypatch):
    started = _fake_pool(monkeypatch)
    spec = SweepSpec(base=TINY, param="bits", values=(3, 4, 5),
                     decoders=("amp", "scalar_amp"))
    run_sweep(spec, workers=2)
    assert started == [2]
    run_sweep(spec, workers=1)
    assert started == [2]
    # the pool is capped at the number of scenes
    two_scenes = replace(spec, base=replace(TINY, trials=1), values=(3, 4))
    run_sweep(two_scenes, workers=64)
    assert started == [2, 2]
    run_sweep(replace(two_scenes, values=(3,)), workers=64)
    assert started == [2, 2]


@pytest.mark.parametrize("workers", [0, -1, True, 1.5])
def test_sweep_workers_must_be_a_whole_number(workers, monkeypatch, tmp_path):
    # refused before any scene runs or any CSV is written, not run serially
    started = _fake_pool(monkeypatch)
    scenes = _count_calls(monkeypatch, "draw_targets")
    out = tmp_path / "rows.csv"
    spec = SweepSpec(base=TINY, param="bits", values=(3, 4), out=str(out))
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(spec, workers=workers)
    assert started == [] and scenes == [] and not out.exists()


class DecoderFailure(RuntimeError):
    pass


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched module")
def test_decoder_error_stops_a_pooled_sweep(monkeypatch, tmp_path):
    log = tmp_path / "scenes.log"
    draw = harness.draw_targets

    def slow_logged_draw(rng, ma):
        with open(log, "a") as handle:
            handle.write("scene\n")
        time.sleep(0.05)
        return draw(rng, ma)

    def failing_decode(*args, **kwargs):
        raise DecoderFailure("decoder failed")

    monkeypatch.setattr(harness, "draw_targets", slow_logged_draw)
    monkeypatch.setattr(harness, "decode", failing_decode)
    spec = SweepSpec(base=replace(TINY, trials=20), param="bits",
                     values=(3, 4), decoders=("amp", "ep"))
    with pytest.raises(DecoderFailure):
        run_sweep(spec, workers=2)
    # the first scene fails; only scenes already handed to a worker still run
    assert len(log.read_text().splitlines()) < 20


# ---------------------------------------------------------------------------
# aggregation and sweep plumbing


def test_aggregate_summary_statistics():
    results = [
        TrialResult(trial_index=i, decoder="amp", tv=tv, wp=wp,
                    distortion=0.5, iterations_run=3 + i,
                    diverged=(i == 2), fallback_used=(i > 0))
        for i, (tv, wp) in enumerate([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])
    ]
    row = aggregate(results, TINY, "amp", param="ma", value=7)
    assert row["sweep_param"] == "ma" and row["value"] == 7
    assert row["decoder"] == "amp"
    assert (row["n"], row["ka"], row["ma"], row["bits"]) == (16, 3, 2, 4)
    assert row["trials"] == 3
    assert abs(row["tv_mean"] - 0.2) < 1e-15
    assert abs(row["tv_se"] - np.std([0.1, 0.2, 0.3], ddof=1) / np.sqrt(3)) < 1e-15
    assert abs(row["wp_mean"] - 2.0) < 1e-15
    assert row["diverged_count"] == 1
    assert row["iterations_mean"] == 4.0
    assert row["fallback_count"] == 2
    assert set(row) == set(CSV_COLUMNS)


def test_derive_config_replaces_one_field():
    assert derive_config(TINY, "bits", 5).m == 32
    assert derive_config(TINY, "ma", 7).ma == 7
    assert derive_config(TINY, "snr_db", -3.0).snr_db == -3.0
    assert derive_config(TINY, "none", None) is TINY
    assert derive_config(TINY, "bits", 5.0).m == 32


@pytest.mark.parametrize("param,value", [
    ("bits", 3.5), ("ma", 2.7), ("n", 16.9), ("bits", float("nan")),
    ("ma", None), ("ma", True), ("n", True), ("bits", True),
    ("snr_db", True), ("snr_db", None),
])
def test_derive_config_rejects_values_it_would_truncate(param, value):
    # bits=3.5 must not run as bits=3, nor ma=True as ma=1
    with pytest.raises(ConfigError):
        derive_config(TINY, param, value)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(base=TINY, param="power")
    with pytest.raises(ConfigError):
        SweepSpec(base=TINY, param="ma", values=())
    with pytest.raises(ConfigError):
        SweepSpec(base=TINY, decoders=("amp", "turbo"))


@pytest.mark.parametrize("param,values", [
    ("none", (1, 2, 3)), ("none", (None, None)), ("none", (4,)),
    ("ma", (None,)), ("ma", (3, None)), ("bits", (3, 4.5)),
    ("snr_db", (True, 2.0)),
])
def test_sweep_spec_values_must_fit_the_param(param, values):
    # 'none' runs the base point once; a swept field needs real values
    with pytest.raises(ConfigError):
        SweepSpec(base=TINY, param=param, values=values)


def test_sweep_spec_rejects_a_bare_decoder_name():
    # a string is a sequence of characters; it must not be checked as 'a', ...
    with pytest.raises(ConfigError, match="sequence"):
        SweepSpec(base=TINY, decoders="amp")


def test_run_sweep_produces_rows_and_csv(tmp_path):
    out = tmp_path / "rows.csv"
    spec = SweepSpec(base=TINY, param="bits", values=(3, 4),
                     decoders=("amp", "scalar_amp"), out=str(out))
    logged = []
    rows = run_sweep(spec, workers=1, log=logged.append)
    assert len(rows) == 4 and len(logged) == 4
    assert [(r["value"], r["decoder"]) for r in rows] == [
        (3, "amp"), (3, "scalar_amp"), (4, "amp"), (4, "scalar_amp")]
    with open(out, newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        file_rows = list(reader)
    assert len(file_rows) == 4
    assert file_rows[0]["trials"] == "4"
    assert float(file_rows[0]["tv_mean"]) == pytest.approx(rows[0]["tv_mean"])


# ---------------------------------------------------------------------------
# command line


def run_cli(args):
    return main(args)


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli(["run", "--n", "16", "--ka", "3", "--ma", "2",
                    "--bits", "4", "--snr-db", "0", "--decoder", "amp",
                    "--trials", "2", "--seed", "9", "--out", str(out),
                    "--workers", "1"])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["decoder"] == "amp"
    assert rows[0]["trials"] == "2"
    assert "tv=" in capsys.readouterr().out


def test_cli_sweep_over_bits(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--param", "bits", "--values", "3", "4",
                    "--n", "16", "--ka", "3", "--ma", "2", "--snr-db", "0",
                    "--decoder", "amp,scalar-amp", "--trials", "2",
                    "--seed", "9", "--out", str(out), "--workers", "1"])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["value"], r["decoder"]) for r in rows] == [
        ("3", "amp"), ("3", "scalar_amp"), ("4", "amp"), ("4", "scalar_amp")]


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "settings.cfg"
    config.write_text(
        "n = 16\nka = 3\nma = 2\nbits = 4\nsnr_db = 0  # quiet\n"
        "decoder = amp\ntrials = 2\nseed = 9\n")
    out = tmp_path / "cfg.csv"
    code = run_cli(["run", "--config", str(config), "--trials", "1",
                    "--out", str(out), "--workers", "1"])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["trials"] == "1"  # flag beat the file
    assert rows[0]["n"] == "16"


def test_cli_rejects_bad_usage(tmp_path, capsys):
    assert run_cli(["sweep", "--values", "3", "4", "--trials", "1",
                    "--workers", "1"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert run_cli(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["run", "--n", "16", "--ka", "3", "--ma", "2", "--bits",
                    "4", "--trials", "1", "--workers", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_fractional_swept_value(tmp_path, capsys, monkeypatch):
    def no_scenes(*args):
        raise AssertionError("a scene ran")

    monkeypatch.setattr(harness, "run_trial", no_scenes)
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--param", "bits", "--values", "3", "3.5",
                    "--n", "16", "--ka", "3", "--ma", "2", "--trials", "1",
                    "--out", str(out), "--workers", "1"]) == 2
    assert "bits must be a whole number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_refuses_sweep_keys_in_its_config(tmp_path, capsys):
    # run has no --param/--values, so its config file may not name them
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\nka = 3\nma = 2\nbits = 4\ntrials = 1\n"
                      "param = ma\nvalues = 2 3\n")
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--config", str(config), "--out", str(out),
                    "--workers", "1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_may_set_workers(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\nka = 3\nma = 2\nbits = 4\nsnr_db = 0\n"
                      "trials = 1\nworkers = 1\n")
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--config", str(config), "--out", str(out)]) == 0
    assert out.exists()


def test_cli_refuses_fractional_bits_from_file_and_flag(tmp_path, capsys):
    common = ["--n", "16", "--ka", "3", "--ma", "2", "--trials", "1",
              "--workers", "1"]
    config = tmp_path / "bits.cfg"
    config.write_text("bits = 4.5\n")
    assert run_cli(["run", "--config", str(config), *common]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["run", "--bits", "4.5", *common]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_values_from_file_match_values_from_flags(tmp_path):
    common = ["--param", "bits", "--n", "16", "--ka", "3", "--ma", "2",
              "--snr-db", "0", "--trials", "2", "--seed", "9",
              "--workers", "1"]
    config = tmp_path / "values.cfg"
    config.write_text("values = 3, 4\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert run_cli(["sweep", "--config", str(config), *common,
                    "--out", str(from_file)]) == 0
    assert run_cli(["sweep", "--values", "3", "4", *common,
                    "--out", str(from_flags)]) == 0
    assert from_file.read_text() == from_flags.read_text()
    assert [row["value"] for row in csv.DictReader(
        from_file.read_text().splitlines())] == ["3", "4"]

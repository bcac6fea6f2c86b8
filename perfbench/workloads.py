"""
The benchmark's workloads: the paper's sweep points, as run_sweep specs.

Each workload is one SweepSpec shape.  Sweep number r of a run at the
benchmark's --seed gets the SystemConfig seed rep_seed(seed, r), so the
program only ever sees the generated configuration and every sweep of a
run decodes fresh scenes; the golden check always runs the same shape at
DEFAULT_SEED with a fixed trial count.
"""

from dataclasses import dataclass, replace

import numpy as np

from tuma.harness import SweepSpec, derive_config
from tuma.scenario import SystemConfig

DEFAULT_SEED = 0

# Boundaries (module.name as the caller looks it up) that fire on every
# workload; a traced run in which one of them records no call fails.
COMMON_BOUNDARIES = (
    "tuma.harness.run_trial",
    "tuma.harness.draw_targets",
    "tuma.harness.assign_sensors",
    "tuma.harness.true_multiplicity",
    "tuma.harness.true_type",
    "tuma.harness.transmit",
    "tuma.channel.apply",
    "tuma.harness.decode",
    "tuma.decoders.posterior_moments",
    "tuma.decoders.apply",
    "tuma.decoders.adjoint",
    "tuma.harness.wasserstein",
    "tuma.harness.quantization_distortion",
    "tuma.metrics.wasserstein",
    "tuma.harness.grid_codebook",
    "tuma.harness.hadamard_codebook",
    "tuma.harness.multiplicity_prior",
)


def rep_seed(seed, rep):
    """SystemConfig seed of sweep number rep in a run at benchmark seed."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    trials        -- scenes per swept value in one timed sweep
    golden_trials -- scenes per swept value in the golden-check sweep
    workers       -- run_sweep worker count (capped at the CPUs available)
    must_fire     -- boundaries beyond COMMON_BOUNDARIES this workload calls
    """

    name: str
    base: SystemConfig
    param: str
    values: tuple
    decoders: tuple
    workers: int
    trials: int
    golden_trials: int
    must_fire: tuple = ()

    def spec(self, seed, trials):
        """The workload's SweepSpec at one seed and trial count."""
        return SweepSpec(base=replace(self.base, seed=seed, trials=trials),
                         param=self.param, values=self.values,
                         decoders=self.decoders)

    def golden_spec(self):
        """The golden-check sweep: DEFAULT_SEED, golden_trials scenes."""
        return self.spec(DEFAULT_SEED, self.golden_trials)

    def geometries(self):
        """(n, ka, ma, m) of every swept cell, the assets set-up builds."""
        spec = self.spec(DEFAULT_SEED, 1)
        out = []
        for value in spec.values:
            cfg = derive_config(spec.base, spec.param, value)
            geom = (cfg.n, cfg.ka, cfg.ma, cfg.m)
            if geom not in out:
                out.append(geom)
        return out


_PAPER_POINT = SystemConfig(n=250, ka=50, ma=150, m=1024, snr_db=-12.0)

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# trials is sized so one sweep takes 1.5 to 3.5 s on a 2-CPU x86-64 host:
# a 30 s run then takes the median over 9 to 20 sweeps.

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="crowded",
            base=_PAPER_POINT, param="none", values=(None,),
            decoders=("amp", "scalar_amp"), workers=1,
            trials=20, golden_trials=20,
            must_fire=("tuma.decoders.sq_apply", "tuma.decoders.sq_adjoint")),
        Workload(
            name="ep_paper",
            base=_PAPER_POINT, param="ma", values=(10, 150),
            decoders=("ep",), workers=1,
            trials=8, golden_trials=6),
        Workload(
            name="bits_sweep",
            base=SystemConfig(n=500, ka=100, ma=10, m=1024, snr_db=-27.0),
            param="bits", values=tuple(range(6, 15)),
            decoders=("amp",), workers=2,
            trials=10, golden_trials=4,
            must_fire=("tuma.harness.ProcessPoolExecutor",)),
    )
}

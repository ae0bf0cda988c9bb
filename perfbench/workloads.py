"""The benchmark's workloads: set-up, repetition, and correctness gate.

Each workload class exposes the same three operations the runner drives:

* ``setup(profiler=None)`` builds everything the measured phase needs
  (models, fault-injection engines, the campaign with its screened and
  cache-warmed pool, or the compiled scenario) and returns a
  :class:`State`;
* ``rep(state)`` runs one repetition of the campaign layer and returns a
  :class:`Rep` (the inference workload has no campaign layer);
* ``gate()`` runs the untimed correctness checks and returns failure
  messages.

Parameters come from ``workloads.json``; every input is derived from the
run's ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import models
from repro.campaign import InjectionCampaign
from repro.core import SingleBitFlip
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.scenario import compile_scenario, load_scenario, run_scenario

from .probe import FIProbe

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())
# The correctness gate draws its own plan from a seed derived from the
# run's seed, so it never shares a random stream with the measured phase.
GATE_SEED_OFFSET = 104729


@dataclass
class State:
    """What one set-up built: the campaign subject (if any) and probes.

    ``plan_state`` is the campaign generator's state right after set-up;
    every repetition restores it, so each one replays the same plan and
    does the same work.
    """

    subject: object
    probes: list
    plan_state: dict = None


@dataclass
class Rep:
    """One campaign-layer repetition."""

    planned: int
    completed: int
    outcome: tuple
    parallel_info: dict = None
    journal_bytes: int = 0
    problems: list = field(default_factory=list)


def _tallies(result):
    return (int(result.corruptions),
            tuple(int(v) for v in result.per_layer_injections),
            tuple(int(v) for v in result.per_layer_corruptions))


class CampaignWorkload:
    """An ``InjectionCampaign`` on one model, plus an FI probe of that model."""

    has_campaign = True

    def __init__(self, params, seed, tmp_dir):
        self.p = params
        self.seed = seed
        self.tmp_dir = Path(tmp_dir)
        self._journals = 0

    def _model(self, seed):
        net = models.get_model(self.p["model"], self.p["dataset"],
                               scale=self.p["scale"], rng=seed)
        net.eval()
        return net

    def _campaign(self, net, seed, profiler=None, **overrides):
        p = self.p
        classes, size = models.dataset_preset(p["dataset"])
        data = SelfLabelledDataset(net, SyntheticClassification(
            num_classes=classes, image_size=size, seed=seed + 1))
        kwargs = dict(error_model=SingleBitFlip(), batch_size=p["batch_size"],
                      pool_size=p["pool_size"], rng=seed, target=p["target"],
                      strategy=p["strategy"], network_name=p["model"],
                      profiler=profiler)
        kwargs.update(overrides)
        return InjectionCampaign(net, data, **kwargs)

    def setup(self, profiler=None):
        net = self._model(self.seed)
        campaign = self._campaign(net, self.seed, profiler=profiler)
        probe = FIProbe(self.p["model"], self.p["dataset"], self.p["scale"],
                        self.seed, net=net)
        return State(subject=campaign, probes=[probe],
                     plan_state=campaign.rng.bit_generator.state)

    def rep(self, state):
        campaign = state.subject
        campaign.rng.bit_generator.state = state.plan_state
        n = self.p["rep_injections"]
        journal = None
        if self.p["journal"]:
            self._journals += 1
            journal = self.tmp_dir / f"rep{self._journals}.journal"
        result = campaign.run(n, workers=self.p["workers"], journal=journal)
        problems = []
        if int(result.per_layer_injections.sum()) != result.injections:
            problems.append("per-layer injection tallies do not sum to the total")
        info = campaign.parallel_info if self.p["workers"] > 1 else None
        size = journal.stat().st_size if journal is not None else 0
        if journal is not None:
            journal.unlink()
        return Rep(planned=n, completed=int(result.injections),
                   outcome=_tallies(result), parallel_info=info,
                   journal_bytes=size, problems=problems)

    def gate(self):
        """Lane-packed == oracle, repeat == first, workers=N == serial."""
        p = self.p
        seed = self.seed + GATE_SEED_OFFSET
        net = self._model(seed)

        def outcome(workers=1, **overrides):
            campaign = self._campaign(net, seed, pool_size=p["gate_pool_size"],
                                      **overrides)
            return _tallies(campaign.run(p["gate_injections"], workers=workers))

        failures = []
        packed = outcome()
        if outcome(lane_packing=False, resume=False) != packed:
            failures.append("lane-packed slice differs from the "
                            "lane_packing=False, resume=False oracle")
        if outcome() != packed:
            failures.append("a repeat of the gate seed gave different corruptions")
        if p["workers"] > 1 and outcome(workers=p["workers"]) != packed:
            failures.append(f"workers={p['workers']} tallies differ from serial")
        return failures


class SweepWorkload:
    """The INT8 accumulated stuck-at sweep through the scenario engine."""

    has_campaign = True

    def __init__(self, params, seed, tmp_dir):
        self.p = params
        self.seed = seed

    def _config(self, seed, **campaign_overrides):
        config = json.loads(json.dumps(self.p["scenario"]))
        config["seed"] = seed
        config["campaign"].update(campaign_overrides)
        return config

    def setup(self, profiler=None):
        model = self.p["scenario"]["model"]
        if profiler is not None:
            with profiler.span("scenario.compile", cat="bench"):
                compiled = compile_scenario(load_scenario(self._config(self.seed)))
        else:
            compiled = compile_scenario(load_scenario(self._config(self.seed)))
        probe = FIProbe(model["name"], model["dataset"], model["scale"], self.seed)
        return State(subject=compiled, probes=[probe],
                     plan_state=compiled.campaign.rng.bit_generator.state)

    def rep(self, state):
        compiled = state.subject
        compiled.campaign.rng.bit_generator.state = state.plan_state
        result = run_scenario(compiled)
        problems = [f"point {point.label}: {point.injections} of "
                    f"{self.p['scenario']['accumulated']['evaluations']} evaluations"
                    for point in result.points
                    if point.injections != self.p["scenario"]["accumulated"]["evaluations"]]
        outcome = tuple((point.label, point.injections, point.corruptions)
                        for point in result.points)
        return Rep(planned=compiled.total_injections,
                   completed=int(result.injections), outcome=outcome,
                   problems=problems)

    def gate(self):
        """Lane-packed sweep == ``lane_packing: false`` sweep; repeats agree."""
        seed = self.seed + GATE_SEED_OFFSET

        def outcome(lane_packing=True):
            config = self._config(seed, lane_packing=lane_packing)
            config["accumulated"]["evaluations"] = self.p["gate_evaluations"]
            result = run_scenario(compile_scenario(load_scenario(config)))
            return tuple((point.label, point.injections, point.corruptions)
                         for point in result.points)

        failures = []
        packed = outcome()
        if outcome(lane_packing=False) != packed:
            failures.append("lane-packed sweep differs from the lane_packing=false sweep")
        if outcome() != packed:
            failures.append("a repeat of the gate seed gave different corruptions")
        return failures


class InferenceWorkload:
    """Clean and one-fault forwards over several models; no campaign."""

    has_campaign = False

    def __init__(self, params, seed, tmp_dir):
        self.p = params
        self.seed = seed

    def setup(self, profiler=None):
        probes = [FIProbe(name, dataset, scale, self.seed)
                  for name, dataset, scale in self.p["models"]]
        return State(subject=None, probes=probes)

    def gate(self):
        return []  # the probes' reset and repeat checks cover this workload


KINDS = {"campaign": CampaignWorkload, "sweep": SweepWorkload,
         "inference": InferenceWorkload}


def _merged(base, override):
    out = dict(base)
    for key, value in override.items():
        out[key] = (_merged(base[key], value) if isinstance(value, dict)
                    else value)
    return out


def params_of(name, tiny=False):
    """Workload ``name``'s parameters; ``tiny`` applies its self-test sizes."""
    entry = SPEC["workloads"][name]
    return _merged(entry["params"], entry["tiny"]) if tiny else entry["params"]


def make(name, seed, tmp_dir, tiny=False):
    """Instantiate workload ``name`` from ``workloads.json``."""
    params = params_of(name, tiny)
    return KINDS[params["kind"]](params, seed, tmp_dir)

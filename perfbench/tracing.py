"""The traced run: span wrappers around public calls, rolled up per layer.

Spans come from two places and land in one :class:`repro.profile.Profiler`:

* the program's own campaign spans (``campaign.*``, ``resume.*``), which
  a campaign records when it is built with ``profiler=``; forked workers
  ship theirs home as adopted span records;
* wrappers this module installs for the duration of a traced run around
  public entry points of the other layers (``models.get_model``,
  ``FaultInjection`` construction/instrument/reset, dataset sampling,
  ``CampaignJournal.write_chunk``, ``ResidentFaultSet.apply/restore``,
  ``quant.weight_params``) plus ``repro.profile.instrument`` layer spans
  around probe forwards.

Wrappers installed on a class are inherited by forked workers, but the
spans they open there go to the worker's copy of this profiler and are
lost; worker time is still covered by the worker's own campaign spans.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack, contextmanager

import repro.models
import repro.quant
from repro.campaign import CampaignJournal, InjectionCampaign
from repro.core import FaultInjection
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.profile import Profiler
from repro.scenario import ResidentFaultSet

LAYERS = ("models", "data", "core", "nn", "campaign", "resume", "parallel",
          "recovery", "scenario", "quant")

_LAYER_OF_SPAN = {
    "campaign.replay": "resume",
    "campaign.parallel": "parallel",
    "campaign.merge": "parallel",
}


def layer_of(name, cat=""):
    """The benchmark layer a span belongs to, or None (benchmark glue)."""
    if cat == "layer":
        return "nn"
    if name in _LAYER_OF_SPAN:
        return _LAYER_OF_SPAN[name]
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


@contextmanager
def _wrap(owner, attr, profiler, span_name, inject_profiler=False):
    """Replace ``owner.attr`` with a span-recording wrapper while open.

    ``inject_profiler`` makes the wrapper pass ``profiler=`` to calls that
    did not set one (used to profile campaigns that a public call such as
    ``compile_scenario`` constructs internally).
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if inject_profiler and kwargs.get("profiler") is None:
            kwargs["profiler"] = profiler
        with profiler.span(span_name, cat="bench"):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def traced_calls(profiler):
    """Install every public-call wrapper, recording into ``profiler``."""
    targets = [
        (repro.models, "get_model", "models.get_model", False),
        (SyntheticClassification, "sample", "data.sample", False),
        (SelfLabelledDataset, "sample", "data.self_label", False),
        (FaultInjection, "__init__", "core.profile", False),
        (FaultInjection, "instrument", "core.instrument", False),
        (FaultInjection, "reset", "core.reset", False),
        (InjectionCampaign, "__init__", "campaign.setup", True),
        (InjectionCampaign, "run", "campaign.run", False),
        (CampaignJournal, "write_chunk", "recovery.journal_write", False),
        (ResidentFaultSet, "apply", "scenario.resident_apply", False),
        (ResidentFaultSet, "restore", "scenario.resident_restore", False),
        (repro.quant, "weight_params", "quant.weight_params", False),
    ]
    with ExitStack() as stack:
        for owner, attr, name, inject in targets:
            stack.enter_context(_wrap(owner, attr, profiler, name, inject))
        yield profiler


def new_profiler():
    """A profiler for traced runs (allocation tracking off: not reported)."""
    return Profiler(track_allocations=False)


def all_span_records(profiler, spans=None):
    """``(name, cat, start, end, self_s, pid)`` for local + adopted spans.

    ``spans`` narrows the local spans (default: all); spans adopted from
    forked workers all come from campaign runs and are always included.
    """
    local = profiler.spans if spans is None else spans
    rows = [(s.name, s.cat, s.start, s.end, s.self_seconds, 0) for s in local]
    rows += [(r["name"], r.get("cat", ""), r["start"], r["end"], r["self_s"],
              r["pid"]) for r in profiler.foreign_spans]
    return rows


def layer_self_ms(records):
    """Per-layer self time in ms: ``{"self_ms.<layer>": value}``.

    A wrapper span's self time excludes the program spans nested in it,
    so every span's time is charged once, to the innermost layer.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, cat, _start, _end, self_s, _pid in records:
        layer = layer_of(name, cat)
        if layer is not None:
            totals[layer] += self_s
    return {f"self_ms.{layer}": value * 1e3 for layer, value in totals.items()}

"""The untraced run (end-to-end metrics) and the traced run (per-layer).

Untraced: set up ``setup_repeats`` times (``setup_s`` is their median),
then interleave campaign repetitions with the FI probe's batch-16
clean/one-fault rounds and batch-1 declare -> forward -> reset cycles
until the run's seconds are spent.  Every time is reported at reference
machine speed (:class:`harness.SpeedGauge`, gauged before each set-up
and each iteration) with hypervisor steal removed; the detail line
carries the speed factors and the steal.  Peak memory is read before the
correctness gate runs.

Traced: set up the same way with every public-call wrapper installed and
a profiler passed through ``profiler=``, build one more untraced copy,
then alternate fixed counts of untraced and traced repetitions.  Their
outcomes must match exactly; their wall-time ratio is
``tracing_overhead``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import statistics
import time
from contextlib import ExitStack, nullcontext

import numpy as np

from repro.profile import NULL_PROFILER, instrument

from . import harness, tracing, workloads
from .probe import THROUGHPUT_BATCH


@dataclasses.dataclass
class RunResult:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    detail: dict


def _setups(workload, repeats, profiled=False, gauge=None):
    """Set up ``repeats`` times; returns ``(last_state, seconds, profilers)``.

    With a :class:`harness.SpeedGauge`, each set-up time is scaled to
    reference machine speed and stripped of hypervisor steal.
    """
    seconds, profilers, state = [], [], None
    for _ in range(repeats):
        # Release the previous set-up (model graphs hold reference cycles)
        # so set-ups never overlap in memory or in collector pauses.
        state = None
        gc.collect()
        profiler = tracing.new_profiler() if profiled else None
        calls = tracing.traced_calls(profiler) if profiled else nullcontext()
        speed = gauge.factor() if gauge is not None else 1.0
        steal0 = harness.steal_seconds()
        t0 = time.perf_counter()
        with calls:
            state = workload.setup(profiler=profiler)
        wall = time.perf_counter() - t0
        seconds.append(wall * harness.ran_share(wall, steal0) * speed)
        profilers.append(profiler)
    return state, seconds, profilers


def _campaign_of(state):
    """The ``InjectionCampaign`` behind a state (scenarios wrap one)."""
    return getattr(state.subject, "campaign", state.subject)


def _probe_round(probes, profiler=None):
    """One clean and one one-fault batch-16 forward per probe.

    Returns ``(clean_s, fi_s, outputs)``.  With a profiler, each forward
    runs under ``repro.profile.instrument`` layer spans.
    """
    spans = profiler if profiler is not None else NULL_PROFILER
    clean_s = fi_s = 0.0
    outputs = []
    for probe in probes:
        with ExitStack() as stack:
            if profiler is not None:
                stack.enter_context(instrument(probe.net, profiler))
                stack.enter_context(instrument(probe.corrupted, profiler))
            t0 = time.perf_counter()
            with spans.span("bench.forward", cat="bench"):
                clean = probe.clean_forward()
            t1 = time.perf_counter()
            with spans.span("bench.forward", cat="bench"):
                faulted = probe.fi_forward()
            t2 = time.perf_counter()
        clean_s += t1 - t0
        fi_s += t2 - t1
        outputs += [clean, faulted]
    return clean_s, fi_s, outputs


def _latency_round(probes, index):
    """One batch-1 declare -> forward -> reset cycle on each probe.

    Returns ``(cycle_s, instrument_reset_s, outputs, failed)``.
    """
    cycle_s, overhead_s, outputs = [], [], []
    failed = 0
    for probe in probes:
        try:
            total, overhead, out = probe.cycle(index)
        except (ArithmeticError, ValueError, RuntimeError):
            failed += 1
        else:
            cycle_s.append(total)
            overhead_s.append(overhead)
            outputs.append(out)
    return cycle_s, overhead_s, outputs, failed


def _timed(step):
    """``(wall_s, cpu_s, step())`` — CPU includes joined children."""
    cpu0 = harness.cpu_seconds()
    t0 = time.perf_counter()
    value = step()
    return time.perf_counter() - t0, harness.cpu_seconds() - cpu0, value


def _digest(outcome, outputs):
    """Short hash of a campaign outcome and probe outputs (run comparison)."""
    h = hashlib.sha256(repr(outcome).encode())
    for array in outputs:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _perf_snapshot(state):
    campaign = _campaign_of(state)
    return dataclasses.replace(campaign.perf) if campaign is not None else None


def _perf_delta(before, after):
    return {f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(after)
            if isinstance(getattr(after, f.name), (int, float))
            and not isinstance(getattr(after, f.name), bool)}


def measure(name, seed, seconds, tmp_dir, tiny=False):
    """The untraced run: every end-to-end metric.

    One iteration is a campaign repetition (when the workload has one),
    ``probe_rounds`` throughput rounds and ``latency_rounds`` latency
    rounds; iterations repeat until ``seconds`` have passed, so every
    metric samples the whole run.
    """
    params = workloads.params_of(name, tiny)
    workload = workloads.make(name, seed, tmp_dir, tiny)
    gauge = harness.SpeedGauge()
    state, setup_s, _ = _setups(workload, params["setup_repeats"], gauge=gauge)
    reps, rounds, latency, speeds = [], [], [], []
    first_perf = None
    before = _perf_snapshot(state) if workload.has_campaign else None
    steal_start = harness.steal_seconds()
    deadline = time.perf_counter() + seconds
    while len(rounds) < 3 or time.perf_counter() < deadline:
        # Times are scaled to reference machine speed, and wall times also
        # by the share of the iteration the host let this machine run.
        speed = gauge.factor()
        speeds.append(speed)
        steal0 = harness.steal_seconds()
        t0 = time.perf_counter()
        it_reps, it_rounds, it_latency = [], [], []
        if workload.has_campaign:
            it_reps.append(_timed(lambda: workload.rep(state)))
            if first_perf is None:
                first_perf = _perf_delta(before, _perf_snapshot(state))
        for _ in range(params["probe_rounds"]):
            it_rounds.append(_probe_round(state.probes))
        for _ in range(params["latency_rounds"]):
            index = len(latency) + len(it_latency)
            it_latency.append(_timed(lambda: _latency_round(state.probes, index)))
        ran = harness.ran_share(time.perf_counter() - t0, steal0) * speed
        reps += [(wall * ran, cpu * speed, rep) for wall, cpu, rep in it_reps]
        rounds += [(clean * ran, fi * ran, out) for clean, fi, out in it_rounds]
        latency += [(wall * ran, cpu * speed, ([c * ran for c in cycle_s], *rest))
                    for wall, cpu, (cycle_s, *rest) in it_latency]
    steal_s = harness.steal_seconds() - steal_start
    rss_own, rss_children = harness.max_rss_mb()

    attempted = failed = 0
    problems, metrics, detail = [], {}, {}
    if workload.has_campaign:
        for _, _, rep in reps:
            attempted += rep.planned
            failed += rep.planned - rep.completed
            problems += rep.problems
        # Every repetition replays the same plan, so outcomes must repeat.
        if any(rep.outcome != reps[0][2].outcome for _, _, rep in reps):
            problems.append("repetitions of one plan gave different corruptions")
        done = [(wall, cpu, rep.completed) for wall, cpu, rep in reps if rep.completed]
        detail["campaign_rep_s"] = harness.timing_summary([w for w, _, _ in done])
        detail["rep_injections"] = reps[0][2].planned
        detail["first_rep_perf"] = first_perf
    else:
        done = []
        for wall, cpu, (cycle_s, _, _, cycle_failed) in latency:
            attempted += len(cycle_s) + cycle_failed
            failed += cycle_failed
            if cycle_s:
                done.append((wall, cpu, len(cycle_s)))
    metrics["injections_per_s"] = statistics.median(n / wall for wall, _, n in done)
    metrics["cpu_ms_per_injection"] = statistics.median(
        cpu * 1e3 / n for _, cpu, n in done)
    images = THROUGHPUT_BATCH * len(state.probes)
    metrics["fi_images_per_s"] = statistics.median(
        images / fi_s for _, fi_s, _ in rounds)
    # One latency sample per round of one cycle on each probe model, so a
    # multi-model roster gives one distribution instead of one per model.
    latency_ms = [statistics.mean(cycle_s) * 1e3
                  for _, _, (cycle_s, _, _, _) in latency if cycle_s]
    metrics["fi_latency_p50_ms"] = statistics.median(latency_ms)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = max(rss_own, rss_children)
    detail["max_rss_mb"] = {"own": rss_own, "children": rss_children}
    detail["setup_s"] = setup_s
    detail["fi_round_s"] = harness.timing_summary([fi_s for _, fi_s, _ in rounds])
    detail["fi_latency_ms"] = harness.timing_summary(latency_ms)
    detail["failed_fraction"] = failed / attempted if attempted else 0.0
    detail["steal_s_per_cpu"] = steal_s
    detail["speed_factor"] = harness.timing_summary(speeds)
    detail["outcome_digest"] = _digest(
        reps[0][2].outcome if reps else None, rounds[0][2])

    failures = problems + workload.gate()
    for probe in state.probes:
        failures += probe.check()
    return RunResult(metrics, attempted, failed, failures, detail)


def trace(name, seed, tmp_dir, tiny=False):
    """The traced run: every per-layer metric plus ``tracing_overhead``."""
    params = workloads.params_of(name, tiny)
    workload = workloads.make(name, seed, tmp_dir, tiny)
    traced, _, setup_profilers = _setups(workload, params["setup_repeats"],
                                         profiled=True)
    profiler = setup_profilers[-1]
    measured_from = len(profiler.spans)
    plain = workload.setup()
    attempted = failed = 0
    failures = []
    untraced_s = traced_s = 0.0
    reps = []
    perf = {}
    if workload.has_campaign:
        before = _perf_snapshot(traced)
        for _ in range(params["trace_reps"]):
            t0 = time.perf_counter()
            plain_rep = workload.rep(plain)
            t1 = time.perf_counter()
            with tracing.traced_calls(profiler):
                traced_rep = workload.rep(traced)
            t2 = time.perf_counter()
            untraced_s += t1 - t0
            traced_s += t2 - t1
            reps.append(traced_rep)
            for rep in (plain_rep, traced_rep):
                attempted += rep.planned
                failed += rep.planned - rep.completed
                failures += rep.problems
            if plain_rep.outcome != traced_rep.outcome:
                failures.append("traced campaign outcome differs from untraced")
        perf = _perf_delta(before, _perf_snapshot(traced))
        perf["cache_bytes"] = _campaign_of(traced).perf.cache_bytes

    rounds = []
    for _ in range(params["trace_rounds"]):
        t0 = time.perf_counter()
        plain_round = _probe_round(plain.probes)
        t1 = time.perf_counter()
        with tracing.traced_calls(profiler):
            traced_round = _probe_round(traced.probes, profiler)
        t2 = time.perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        rounds.append(plain_round)
        if not all(np.array_equal(a, b)
                   for a, b in zip(plain_round[2], traced_round[2])):
            failures.append("traced probe forward differs from untraced")

    plain_latency, traced_latency = [], []
    for index in range(params["trace_latency_rounds"]):
        plain_latency.append(_timed(lambda: _latency_round(plain.probes, index)))
    with ExitStack() as stack:
        stack.enter_context(tracing.traced_calls(profiler))
        for probe in traced.probes:
            stack.enter_context(instrument(probe.net, profiler))
        for index in range(params["trace_latency_rounds"]):
            traced_latency.append(
                _timed(lambda: _latency_round(traced.probes, index)))
    untraced_s += sum(wall for wall, _, _ in plain_latency)
    traced_s += sum(wall for wall, _, _ in traced_latency)
    for (_, _, plain_round), (_, _, traced_round) in zip(plain_latency, traced_latency):
        if not workload.has_campaign:
            attempted += 2 * len(plain.probes)
            failed += plain_round[3] + traced_round[3]
        if not all(np.array_equal(a, b) for a, b in zip(plain_round[2], traced_round[2])):
            failures.append("traced declare/forward/reset cycle differs from untraced")

    for probe in traced.probes:
        failures += probe.check()
    instrument_reset_s = [t for _, _, (_, overhead, _, _) in plain_latency
                          for t in overhead]
    metrics = layer_metrics(traced, setup_profilers, measured_from, reps, perf,
                            rounds, instrument_reset_s)
    metrics["tracing_overhead"] = traced_s / untraced_s
    detail = {"untraced_s": untraced_s, "traced_s": traced_s,
              "trace_reps": len(reps), "perf": perf,
              "outcome_digest": _digest(reps[0].outcome if reps else None,
                                        rounds[0][2])}
    return RunResult(metrics, attempted, failed, failures, detail)


def _top_level_total(spans, names):
    """Summed duration of spans named in ``names`` not nested in another."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and parent.name not in names:
            parent = parent.parent
        if parent is None:
            total += span.duration_s
    return total


def _per_setup(setup_spans, names):
    """Median over set-ups of the time spent in spans named in ``names``."""
    return statistics.median(_top_level_total(spans, names) for spans in setup_spans)


def layer_metrics(traced, setup_profilers, measured_from, reps, perf, rounds,
                  instrument_reset_s):
    """Roll a traced run's spans, counters, and probe timings up per layer.

    A layer the workload does not run reports 0 (no work, no time).
    """
    profiler = setup_profilers[-1]
    setup_spans = [p.spans for p in setup_profilers[:-1]]
    setup_spans.append(profiler.spans[:measured_from])
    measured = profiler.spans[measured_from:]
    records = tracing.all_span_records(profiler)
    measured_records = tracing.all_span_records(profiler, measured)

    def measured_total(names):
        return sum(end - start for name, _, start, end, _, _ in measured_records
                   if name in names)

    def measured_self(names):
        return sum(self_s for name, _, _, _, self_s, _ in measured_records
                   if name in names)

    m = {}
    clean = [clean_s for clean_s, _, _ in rounds]
    faulted = [fi_s for _, fi_s, _ in rounds]
    images = THROUGHPUT_BATCH * len(traced.probes)
    m["nn.clean_images_per_s"] = statistics.median(images / c for c in clean)
    forwards = [s for s in measured if s.name == "bench.forward"]
    conv_s = sum(layer.self_seconds for s in forwards for layer in s.walk()
                 if layer.cat == "layer" and layer.args.get("type") == "Conv2d")
    m["nn.conv2d_self_share"] = conv_s / sum(s.duration_s for s in forwards)
    m["core.hook_overhead_ratio"] = statistics.median(faulted) / statistics.median(clean)
    m["core.instrument_reset_us"] = statistics.median(instrument_reset_s) * 1e6
    m["core.profile_s"] = _per_setup(setup_spans, {"core.profile"})

    forwards = perf.get("forwards", 0)
    m["campaign.forwards"] = forwards
    m["campaign.forwards_saved"] = perf.get("forwards_saved", 0)
    m["campaign.mean_lane_occupancy"] = (
        (forwards + perf.get("forwards_saved", 0)) / forwards if forwards else 0.0)
    m["campaign.plan_s"] = measured_total({"campaign.plan"})
    chunks = sorted((end - start) * 1e3 for name, _, start, end, _, _
                    in measured_records if name == "campaign.chunk")
    m["campaign.chunk_p50_ms"] = statistics.median(chunks) if chunks else 0.0
    m["campaign.chunk_p99_ms"] = (
        chunks[min(len(chunks) - 1, int(round(0.99 * (len(chunks) - 1))))]
        if chunks else 0.0)
    m["campaign.chunk_count"] = len(chunks)
    m["campaign.pool_s"] = _per_setup(setup_spans, {"campaign.pool"})

    hits, misses = perf.get("cache_hits", 0), perf.get("cache_misses", 0)
    m["resume.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["resume.cache_misses"] = misses
    m["resume.capture_forwards"] = perf.get("capture_forwards", 0)
    m["resume.cache_evictions"] = perf.get("cache_evictions", 0)
    m["resume.cache_bytes"] = perf.get("cache_bytes", 0)
    skipped = perf.get("layer_forwards_skipped", 0)
    executed = perf.get("layer_forwards_executed", 0)
    m["resume.layer_skip_fraction"] = (
        skipped / (skipped + executed) if skipped + executed else 0.0)
    m["resume.replay_self_ms"] = measured_self({"campaign.replay"}) * 1e3
    m["resume.plan_self_ms"] = measured_self({"resume.plan"}) * 1e3

    infos = [rep.parallel_info for rep in reps if rep.parallel_info]
    if infos:
        ratios = [max(i["per_worker_injections"])
                  / statistics.mean(i["per_worker_injections"]) for i in infos]
        m["parallel.worker_imbalance"] = statistics.mean(ratios)
        busy = sum(end - start for name, _, start, end, _, pid in measured_records
                   if name == "campaign.chunk" and pid)
        capacity = sum(s.duration_s * s.args.get("workers", 1) for s in measured
                       if s.name == "campaign.parallel")
    else:
        m["parallel.worker_imbalance"] = 1.0 if reps else 0.0
        busy = measured_total({"campaign.chunk"})
        capacity = _top_level_total(measured, {"campaign.run"})
    m["parallel.merge_s"] = measured_total({"campaign.merge"})
    m["parallel.worker_busy_fraction"] = busy / capacity if capacity else 0.0

    m["recovery.journal_records"] = sum(1 for s in measured
                                        if s.name == "recovery.journal_write")
    m["recovery.journal_bytes"] = sum(rep.journal_bytes for rep in reps)
    m["recovery.journal_write_ms"] = measured_total({"recovery.journal_write"}) * 1e3
    m["recovery.chunk_retries"] = perf.get("chunk_retries", 0)
    m["recovery.chunks_quarantined"] = perf.get("chunks_quarantined", 0)
    m["recovery.worker_failures"] = perf.get("worker_failures", 0)

    subject = traced.subject
    m["scenario.compile_s"] = _per_setup(setup_spans, {"scenario.compile"})
    m["scenario.points"] = len(getattr(subject, "points", ()) or ())
    m["scenario.resident_swap_ms"] = measured_total(
        {"scenario.resident_apply", "scenario.resident_restore"}) * 1e3
    m["quant.weight_params_s"] = _per_setup(setup_spans, {"quant.weight_params"})
    m["models.build_s"] = _per_setup(setup_spans, {"models.get_model"})
    m["data.pool_sample_s"] = _per_setup(
        setup_spans, {"data.sample", "data.self_label"})

    # Self time over one set-up plus the measured phase (all processes).
    m.update(tracing.layer_self_ms(records))
    return m

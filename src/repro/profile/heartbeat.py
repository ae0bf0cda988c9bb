"""Default campaign progress printer (``campaign.run(..., progress=True)``).

One line per tick on stderr — injections done, throughput, ETA, cache
hit rate, lane occupancy — rate-limited to a fixed wall-clock interval so
a million-injection campaign does not drown its own log.  The final tick
always prints exactly once: a normal completion's ``done == total`` tick
bypasses the rate limit, and the run calls :meth:`~CampaignHeartbeat.finish`
at its end so a campaign that ends short (quarantined chunks) still gets
its terminal line instead of having it interval-suppressed.

The heartbeat derives nothing.  The campaign's run state hands it the
gauge snapshot of every fold (:func:`repro.perf.campaign_gauges`, the one
derivation of every gauge, with its ETA already clamped), and it renders
that snapshot.  Called as a plain ``progress(done, total)`` callable it
renders the counts alone.

When the campaign has a telemetry bus attached (:mod:`repro.telemetry`),
every printed line is also published as a ``("heartbeat", "tick")``
envelope carrying the same snapshot, so ``repro top`` and stderr can
never disagree.  The heartbeat draws from no RNG and mutates no campaign
state, keeping the progress path under the same invariance bar as the
profiler and the observer.
"""

from __future__ import annotations

import sys
import time

from ..perf import GAUGE_KEYS


class CampaignHeartbeat:
    """A rate-limited renderer of campaign gauge snapshots."""

    def __init__(self, campaign=None, interval_s=1.0, stream=None, clock=time.perf_counter):
        self.campaign = campaign
        self.interval_s = float(interval_s)
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.ticks = 0
        self._gauges = dict.fromkeys(GAUGE_KEYS)
        self._last_emit = None
        self._final_emitted = False

    def __call__(self, done, total):
        """The plain ``progress(done, total)`` contract: render the counts."""
        self.render({"done": done, "total": total})

    def render(self, gauges):
        """Take the latest snapshot; print it unless the interval suppresses it."""
        self._gauges.update(gauges)
        final = self._gauges["done"] >= self._gauges["total"]
        if final and self._final_emitted:
            return  # the terminal line already printed (merge + finish paths)
        now = self.clock()
        if not final and self._last_emit is not None \
                and now - self._last_emit < self.interval_s:
            return
        self._emit(now, final)

    def finish(self, done, total):
        """Force the terminal line if no ``done >= total`` tick emitted it.

        The run calls this once at its end: a campaign that completes short
        of ``total`` (quarantined chunks, drained interrupt) never fires
        the rate-limit bypass above, and without this its last — often
        only — line would be silently suppressed.
        """
        if self._final_emitted:
            return
        self._gauges.update(done=done, total=total)
        self._emit(self.clock(), True)

    def _emit(self, now, final):
        self._last_emit = now
        gauges = self._gauges
        rate = gauges["inj_per_s"] or 0.0
        parts = [f"[campaign] {gauges['done']}/{gauges['total']} injections"]
        if rate > 0:
            parts.append(f"{rate:.1f} inj/s")
        if gauges["eta_s"] is not None and not final:
            parts.append(f"eta {gauges['eta_s']:.1f}s")
        if gauges["cache_hit_rate"] is not None:
            parts.append(f"cache hit {gauges['cache_hit_rate']:.0%}")
        if gauges["lane_occupancy"] is not None:
            parts.append(f"lanes {gauges['lane_occupancy']:.2f} "
                         f"({gauges['forwards_saved']} forwards saved)")
        if final:
            parts.append("done")
            self._final_emitted = True
        print(" | ".join(parts), file=self.stream, flush=True)
        self.ticks += 1
        bus = getattr(self.campaign, "telemetry", None)
        if bus is not None:
            bus.publish("heartbeat", "tick",
                        {**gauges, "rate": float(rate), "final": bool(final)})


def coerce_progress(progress, campaign):
    """Normalise ``InjectionCampaign.run``'s ``progress=`` argument.

    ``None``/``False`` → no reporting; ``True`` → a default
    :class:`CampaignHeartbeat` bound to the campaign; any callable passes
    through unchanged.
    """
    if progress is None or progress is False:
        return None
    if progress is True:
        return CampaignHeartbeat(campaign)
    if callable(progress):
        return progress
    raise TypeError(
        f"progress must be a callable, a bool, or None; got {type(progress).__name__}"
    )


def _report_progress(progress, gauges):
    """Hand one gauge snapshot to a progress reporter.

    Heartbeats render the whole snapshot; plain callables keep their
    two-argument ``progress(done, total)`` contract.
    """
    render = getattr(progress, "render", None)
    if callable(render):
        render(gauges)
    else:
        progress(gauges["done"], gauges["total"])


def _finish_progress(progress, done, total):
    """Fire a progress reporter's terminal update, if it has one.

    Heartbeats expose :meth:`CampaignHeartbeat.finish`; plain callables
    already received their last ``progress(done, total)`` call from the
    fold and are left alone.
    """
    if progress is None:
        return
    finish = getattr(progress, "finish", None)
    if callable(finish):
        finish(done, total)

"""Wall-clock overhead measurement harness (Fig. 3) and campaign counters."""

from .counters import GAUGE_KEYS, CampaignPerfCounters, campaign_gauges
from .timing import OverheadMeasurement, measure_overhead, sweep_batch_sizes, time_inference

__all__ = [
    "GAUGE_KEYS",
    "CampaignPerfCounters",
    "campaign_gauges",
    "OverheadMeasurement",
    "measure_overhead",
    "sweep_batch_sizes",
    "time_inference",
]

"""Summary statistics and process probes shared by every workload."""

from __future__ import annotations

import os
import re
import resource
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: The tail is the highest percentile with at least this many samples
#: beyond it, so it never rests on a handful of outliers.
TAIL_BEYOND = 10

#: Every metric name the benchmark prints must match this.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def median(values: Sequence[float]) -> float:
    """The median (0.0 for no values)."""
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail of ``values``.

    The value is the (n - TAIL_BEYOND)-th smallest sample, so exactly
    TAIL_BEYOND samples lie beyond it; its percentile is
    ``100 * (n - TAIL_BEYOND) / n``.  With too few samples the maximum is
    reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


#: A segmented tail uses segments only when each holds at least this many
#: samples, so a segment's tail is at or above its 90th percentile; shorter
#: runs report the whole-run tail.
TAIL_SEGMENT_MIN = 100


def segment_tails(values: Sequence[float], segments: int) -> List[float]:
    """The tail of each of ``segments`` consecutive equal segments."""
    n = len(values) // segments
    return [tail(values[i * n:(i + 1) * n])[0] for i in range(segments)]


def segmented_tail(values: Sequence[float], segments: int) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the median of per-segment tails.

    The highest-percentile sample rests on ten samples, and one burst of
    contention on a shared machine can move a single estimate far; the
    median of several segments' tails cannot be moved by one burst.  The
    price: a stall or slowdown confined to a minority of the segments
    cannot move it either.

    The samples are split in order into ``segments`` equal segments; each
    segment's tail is taken by :func:`tail`.  The percentile and the
    per-segment sample count are those of the segments.  With fewer than
    TAIL_SEGMENT_MIN samples per segment it is :func:`tail` of the run.
    """
    n = len(values) // segments
    if n < TAIL_SEGMENT_MIN:
        return tail(values)
    _, percentile, _ = tail(values[:n])
    return statistics.median(segment_tails(values, segments)), percentile, n


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> Optional[float]:
    """User plus system CPU time of another process (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident memory of another process (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}

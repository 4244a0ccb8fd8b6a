"""Metrics registry: labelled counters, gauges, and histograms.

A deliberately small, dependency-free metrics surface in the Prometheus
style.  Hot simulator code does **not** call into the registry per
event — the existing cheap stat fields (cache hits, pool misses,
prefetcher issues) stay as plain integers, and *collectors* registered
with the registry copy them into gauges when a snapshot is taken.  Only
genuinely cold events (a DVFS governor transition, a buffer-pool disk
read) increment counters directly.

Series identity is ``(name, sorted(labels))``; asking for the same
series twice returns the same object, so call sites can either cache
the instrument or look it up each time.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ConfigError

#: Default histogram bucket upper bounds: powers of ten spanning
#: nanoseconds/nanojoules to tens of seconds/joules, plus +inf.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-9, 3)) + (math.inf,)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A value that can go up and down (set from collectors, usually)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum")

    def __init__(self, name: str, labels: Mapping[str, str],
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets or self.buckets[-1] != math.inf:
            self.buckets = self.buckets + (math.inf,)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th observation).

        Nearest-rank semantics: the q-quantile of n observations is the
        ``max(1, ceil(q*n))``-th smallest, so ``q=0`` is the bucket of
        the minimum (not the first bucket bound, which may be empty) and
        ``q=1`` the bucket of the maximum.  An empty histogram has no
        quantiles and returns NaN.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            seen += n
            if seen >= rank:
                return bound
        return self.buckets[-1]


def _series_key(name: str, labels: Optional[Mapping[str, str]]) -> tuple:
    return (name, tuple(sorted(labels.items())) if labels else ())


def render_series_name(name: str, labels: Mapping[str, str]) -> str:
    """``name{k=v,...}`` rendering used by snapshots and text output."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Home of every metric series for one machine (or one process)."""

    def __init__(self) -> None:
        self._series: dict[tuple, object] = {}
        self._collectors: list[Callable[[], None]] = []

    # ------------------------------------------------------------ factories

    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]],
             **kwargs):
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = cls(name, labels or {}, **kwargs)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(series).__name__}, not {cls.__name__}"
            )
        return series

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------ collectors

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback that refreshes gauges at snapshot time."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    # ------------------------------------------------------------ output

    def snapshot(self) -> dict:
        """Refresh collectors and return ``{rendered_name: value}``.

        Counter/gauge values are floats; histograms render as a dict
        with ``count``/``sum``/``mean`` and per-bucket counts.
        """
        self.collect()
        out: dict = {}
        for series in self._series.values():
            key = render_series_name(series.name, series.labels)
            if isinstance(series, Histogram):
                out[key] = {
                    "count": series.count,
                    "sum": series.sum,
                    "mean": series.mean,
                    "buckets": {
                        ("+inf" if bound == math.inf else repr(bound)): n
                        for bound, n in zip(series.buckets,
                                            series.bucket_counts)
                    },
                }
            else:
                out[key] = series.value
        return out

    def render(self) -> str:
        """One line per series, sorted — for CLI/debug output."""
        lines = []
        for key, value in sorted(self.snapshot().items()):
            if isinstance(value, dict):
                lines.append(
                    f"{key} count={value['count']} sum={value['sum']:.6g} "
                    f"mean={value['mean']:.6g}"
                )
            else:
                lines.append(f"{key} {value:.6g}")
        return "\n".join(lines)

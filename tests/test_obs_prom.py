"""Prometheus text exposition: rendering, the strict checker, both ways.

The checker is the CI metrics-smoke oracle, so it gets its own negative
tests -- a checker that accepts anything would let a malformed /metrics
endpoint ship.
"""

import math

import pytest

from repro.obs import (
    HISTOGRAM_BOUNDS,
    Telemetry,
    check_exposition,
    render_prometheus,
)
from repro.obs.prom import parse_samples


@pytest.fixture()
def tel():
    t = Telemetry()
    t.incr("search.calls", 3)
    t.gauge("serve.events.subscribers", 2)
    for v in (0.001, 0.002, 0.004, 0.5, 3.0):
        t.observe("serve.request.latency_s", v)
    with t.span("serve.request"):
        pass
    return t


class TestRender:
    def test_render_passes_the_strict_checker(self, tel):
        text = render_prometheus(tel)
        assert check_exposition(text) == []

    def test_counter_gauge_histogram_summary_all_present(self, tel):
        samples = parse_samples(render_prometheus(tel))
        assert samples["repro_search_calls_total"][""] == 3
        assert samples["repro_serve_events_subscribers"][""] == 2
        assert "repro_serve_request_latency_s_bucket" in samples
        assert samples["repro_serve_request_seconds_count"][""] == 1

    def test_histogram_buckets_are_cumulative_and_correct(self, tel):
        """The acceptance-criteria invariant: cumulative bucket counts
        reconstruct exactly what was observed."""
        samples = parse_samples(render_prometheus(tel))
        buckets = samples["repro_serve_request_latency_s_bucket"]
        assert buckets['{le="+Inf"}'] == 5
        assert (
            buckets['{le="+Inf"}']
            == samples["repro_serve_request_latency_s_count"][""]
        )
        # cumulative counts are monotone over le-ordered bounds
        def label(bound):
            text = str(int(bound)) if float(bound).is_integer() else repr(bound)
            return f'{{le="{text}"}}'

        ordered = [
            buckets[label(b)] for b in HISTOGRAM_BOUNDS if label(b) in buckets
        ]
        assert len(ordered) == len(HISTOGRAM_BOUNDS)
        assert ordered == sorted(ordered)
        # 0.001 and 0.002 fit under 2^-8; 0.004 spills into the 2^-7 bucket
        assert buckets['{le="0.00390625"}'] == 2
        assert buckets['{le="0.0078125"}'] == 3
        assert samples["repro_serve_request_latency_s_sum"][""] == (
            pytest.approx(3.507)
        )

    def test_empty_registry_renders_empty(self):
        text = render_prometheus(Telemetry())
        assert text == ""
        assert check_exposition(text) == []

    def test_metric_names_are_sanitised(self):
        t = Telemetry()
        t.incr("kernelpath.phase.kernel_s", 1.5)
        samples = parse_samples(render_prometheus(t))
        assert "repro_kernelpath_phase_kernel_s_total" in samples


class TestChecker:
    def test_rejects_sample_without_type(self):
        assert check_exposition("repro_x_total 1\n")

    def test_rejects_duplicate_series(self):
        text = (
            "# HELP repro_x_total h\n# TYPE repro_x_total counter\n"
            "repro_x_total 1\nrepro_x_total 2\n"
        )
        assert any("duplicate" in e for e in check_exposition(text))

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 4\nrepro_h_count 5\n"
        )
        assert any("monoton" in e or "cumulative" in e
                   for e in check_exposition(text))

    def test_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 2\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 1\nrepro_h_count 3\n"
        )
        assert check_exposition(text)

    def test_rejects_histogram_missing_sum_or_count(self):
        text = (
            "# HELP repro_h h\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 1\n'
        )
        assert check_exposition(text)

    def test_rejects_unparseable_value(self):
        text = (
            "# HELP repro_x g\n# TYPE repro_x gauge\n"
            "repro_x banana\n"
        )
        assert check_exposition(text)

    def test_accepts_special_float_values(self):
        text = (
            "# HELP repro_x g\n# TYPE repro_x gauge\n"
            "repro_x +Inf\n"
        )
        assert check_exposition(text) == []

    def test_parse_samples_handles_special_values(self):
        got = parse_samples("repro_x +Inf\nrepro_y NaN\n")
        assert got["repro_x"][""] == math.inf
        assert math.isnan(got["repro_y"][""])

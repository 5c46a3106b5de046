"""Tests for the benchmark's own logic: span arithmetic, the percentile rule
and the reach of the wrappers.  Run with ``pytest perfbench``."""

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kernelcert as kc  # noqa: E402
from kernelcert import cli, measures  # noqa: E402

from run import n_passes, quantile, samples_beyond, tail_supported  # noqa: E402
from tracing import Span, Tracer, layer_totals, self_times  # noqa: E402


def span(name, start, end, parent, key=None):
    return Span(name, key, start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        span("request", 0.0, 10.0, None),
        span("a.f", 1.0, 4.0, 0),
        span("b.g", 2.0, 3.0, 1),
        span("b.g", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    totals = layer_totals(spans)
    assert totals["b.g.calls"] == 2
    assert totals["b.g.self_s"] == 2.5
    assert totals["a.f.s"] == 3.0
    assert "request.calls" not in totals


def test_keyed_spans_count_under_both_names():
    spans = [span("numerics.cosine_transform_even", 0.0, 2.0, None, key="BoxTail")]
    spans[0].counts = {"lags": 7}
    totals = layer_totals(spans)
    assert totals["numerics.cosine_transform_even.calls"] == 1
    assert totals["numerics.cosine_transform_even.BoxTail.lags"] == 7


def test_percentile_rule_needs_ten_samples_beyond():
    assert samples_beyond(0.9, 100) == 10 and tail_supported(0.9, 100)
    assert not tail_supported(0.9, 99)
    assert tail_supported(0.5, 20) and not tail_supported(0.5, 19)
    assert not tail_supported(0.9, 8)


def test_pass_count_fills_the_seconds_at_the_declared_speed():
    class W:
        pass_seconds = 5.0
    assert n_passes(W, 20) == 4
    assert n_passes(W, 21) == 5
    assert n_passes(W, 1) == 2
    assert n_passes(W, 1, least=1) == 1


def test_quantile_matches_inclusive_method():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.5]
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    assert abs(quantile(xs, 0.9) - deciles[8]) < 1e-12
    assert quantile(xs, 0.5) == statistics.median(xs)
    assert quantile([3.0], 0.9) == 3.0


def test_wrappers_catch_internal_calls_and_uninstall():
    space = kc.euclidean(1)
    P = kc.construct(space, [(0.0, 0.5), (1.0, 0.5)])
    Q = kc.construct(space, [(2.0, 1.0)])
    original = measures.construct
    tracer = Tracer()
    tracer.install()
    try:
        P + Q  # outside a request, as the benchmark's checks run: not recorded
        with tracer.request_span(0):
            diff = P - Q
            cli.certify_kernel(kc.gaussian_ti(), "strictly_pd")
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    # P - Q builds -Q and then the sum, both through construct
    assert names.count("measures.construct") == 2
    last = [s for s in tracer.spans if s.name == "measures.construct"][-1]
    assert last.counts == {"atoms_in": 3, "atoms_out": diff.n_atoms}
    # an aliased import (cli's certify_kernel) is rebound too
    assert "certify.certify" in names
    assert all(s.request == 0 for s in tracer.spans)
    assert measures.construct is original and kc.construct is original
    assert not hasattr(cli.certify_kernel, "__wrapped__")

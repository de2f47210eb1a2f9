"""Span arithmetic and the wrapper installer of :mod:`benchmarks.perf.trace`."""

from __future__ import annotations

import threading

import pytest

from benchmarks.perf import layers
from benchmarks.perf.trace import Span, Tracer, self_times


def _span(id_, parent, start, end, thread=1):
    return Span(id_, parent, id_, "x", start, end, 1, thread, "timed")


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("child", "root", 2.0, 5.0),
        _span("grandchild", "child", 3.0, 4.0),
        _span("sibling", "root", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["child"] == pytest.approx(3.0 - 1.0)
    assert own["grandchild"] == pytest.approx(1.0)
    assert own["sibling"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_on_other_threads_once():
    spans = [
        _span("root", None, 0.0, 10.0, thread=1),
        _span("a", "root", 1.0, 6.0, thread=2),
        _span("b", "root", 4.0, 8.0, thread=3),
        _span("late", "root", 9.0, 12.0, thread=4),  # clipped at the parent's end
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own["a"] == pytest.approx(5.0)


def test_wrapper_links_parents_and_pauses_without_phase():
    tracer = Tracer(phase="timed")

    def inner():
        return 42

    wrapped_inner = tracer.wrap(inner, "inner", "lower")

    def outer():
        seen = []
        worker = threading.Thread(target=lambda: seen.append(wrapped_inner()))
        worker.start()
        worker.join(timeout=10)
        return wrapped_inner() + seen[0]

    wrapped_outer = tracer.wrap(outer, "outer", "upper")
    assert wrapped_outer() == 84
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    parents = sorted(str(s.parent) for s in by_name["inner"])
    # The thread starts with no open span; the direct call nests.
    assert parents == sorted([root.id, "None"])

    tracer.phase = None
    assert wrapped_outer() == 84
    assert len(tracer.spans) == 3


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_detach_and_uninstall_restore_every_binding_site():
    pytest.importorskip("repro")
    import repro.kernels.substrate as substrate
    import repro.kernels.wavefront as wavefront
    from repro.core.problem import IVCInstance

    original_get = substrate.get_substrate
    original_from_grid = IVCInstance.__dict__["from_grid_2d"]
    tracer = Tracer()
    layers.install(tracer)
    try:
        sites = tracer.bindings
        # from-imports are covered: the kernel module's own binding is wrapped.
        assert wavefront.get_substrate is not original_get
        assert wavefront.get_substrate is substrate.get_substrate
        assert IVCInstance.__dict__["from_grid_2d"] is not original_from_grid
        assert len({id(orig) for _, _, orig in sites}) < len(sites)
        wrapped = [_current(owner, attr) for owner, attr, _ in sites]

        tracer.detach()
        for owner, attr, original in sites:
            assert _current(owner, attr) is original, f"{owner!r}.{attr} not detached"
        tracer.attach()
        assert [_current(owner, attr) for owner, attr, _ in sites] == wrapped
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert _current(owner, attr) is original, f"{owner!r}.{attr} not restored"
    assert wavefront.get_substrate is original_get
    assert IVCInstance.__dict__["from_grid_2d"] is original_from_grid
    assert not tracer.bindings


def test_installed_wrappers_record_layers_of_a_real_call():
    pytest.importorskip("repro")
    import numpy as np

    tracer = Tracer(phase="timed")
    layers.install(tracer)
    try:
        from repro import api

        grid = np.random.default_rng(0).integers(1, 1000, size=(80, 80))
        api.color(grid, "GLF")
        api.color(grid, "BDP")
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.spans, {})
    assert metrics["api.calls"] == 2
    assert metrics["wavefront.calls"] == 2
    assert metrics["wavefront.batches"] > 0
    assert metrics["chains.calls"] == 2  # bd_starts_2d + bdp_recolor_order_fast
    assert metrics["halo.calls"] == metrics["tiling.calls"] == 0

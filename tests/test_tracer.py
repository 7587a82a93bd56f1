"""The benchmark tracer (``perfbench/spans.py``) wraps toolkit functions by
name through their owner's ``__dict__``.  A wrapped method that is moved or
renamed breaks traced benchmark runs; this catches it without running one."""

import importlib
import sys
from pathlib import Path

import pytest
from conftest import binary_instance

from lvr import ReductionSession

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _import_spans():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_tracer_installs_and_restores():
    tracer = _import_spans().Tracer()
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, *_ in tracer._targets()]
    inst = binary_instance()
    tracer.install()
    try:
        for owner, attr, orig in originals:
            assert _current(owner, attr) is not orig, attr
        session = ReductionSession(inst.model, inst.nested, topk=None)
        assert len(session.generate(4)) == 4
    finally:
        tracer.uninstall()
    for owner, attr, orig in originals:
        assert _current(owner, attr) is orig, attr
    # a fresh tokenizer fills its rows while traced; the one model call per
    # step goes through the wrapped method
    assert tracer.calls["tokenization.valid_continuations"] > 0
    assert tracer.calls["model.next_token_dist"] > 0


@pytest.mark.parametrize("topk, entries, extensions, dropped, output", [
    (None, 7, 17, 0.0, (0, 1, 2, 1, 0, 1)),
    (2, 7, 17, 0.4375, (2, 0, 1, 1, 0, 1)),
    (1, 7, 17, 0.98125, (2, 0, 1, 0, 1, 0)),
])
def test_view_counters(topk, entries, extensions, dropped, output):
    # the tracer counts cover entries and extensions from the session's
    # cover_cache and _pending views, which list the exact cover at any K;
    # a step that leaves a group out of them reads fewer
    inst = binary_instance()
    tracer = _import_spans().Tracer()
    tracer.install()
    try:
        got = ReductionSession(inst.model, inst.nested, topk=topk).generate(6, "sample", 3)
    finally:
        tracer.uninstall()
    assert got == output
    counts = tracer.counts
    assert (counts["cover_entries"], counts["extensions"]) == (entries, extensions)
    assert abs(counts["dropped_mass"] - dropped) < 1e-12

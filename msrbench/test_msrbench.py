"""Tests for the benchmark itself: python3 -m pytest msrbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # puts src/ on sys.path before anything imports msrlab

import msrlab
import msrlab.cli
import msrlab.msr_family
import msrlab.repair
import run
import tracer as tracing
from workloads import Decay, Repair, Sweep

COUNT_SUFFIXES = (".calls", ".cells", ".work", ".macs", ".cells_out", ".checks")


def test_self_times_of_a_nested_span_tree():
    spans = [
        (0, tracing.ROOT, "op", 0.0, 10.0),
        (1, 0, "a", 1.0, 6.0),
        (2, 1, "b", 2.0, 3.0),
        (3, 1, "b", 4.0, 5.5),
        (4, 0, "c", 7.0, 9.0),
        (5, tracing.ROOT, "op", 20.0, 21.0),
    ]
    assert tracing.self_times(spans) == {"op": 4.0, "a": 2.5, "b": 2.5, "c": 2.0}


def test_tracer_records_parent_links_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.recording = True

    def inner():
        return 7

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    assert tracer.call("outer", outer) == 14
    # clock: outer 0..5, inner 1..2 and 3..4
    assert [span[:3] for span in tracer.spans] == [(0, -1, "outer"), (1, 0, "inner"), (2, 0, "inner")]
    assert tracing.self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}
    assert tracer.counts["inner.calls"] == 2


def test_install_wraps_every_binding_site_and_restore_undoes_it():
    originals = {
        "cli.decay_trace": msrlab.cli.decay_trace,
        "cli.construct": msrlab.cli.construct_tensor_family,
        "repair.construct": msrlab.repair.construct_tensor_family,
        "family.direct_sum": msrlab.msr_family.is_direct_sum_full,
        "repair.direct_sum": msrlab.repair.is_direct_sum_full,
        "add": msrlab.Subspace.__dict__["__add__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {
            "cli.decay_trace": msrlab.cli.decay_trace,
            "cli.construct": msrlab.cli.construct_tensor_family,
            "repair.construct": msrlab.repair.construct_tensor_family,
            "family.direct_sum": msrlab.msr_family.is_direct_sum_full,
            "repair.direct_sum": msrlab.repair.is_direct_sum_full,
            "add": msrlab.Subspace.__dict__["__add__"],
        }
        assert all(wrapped[key] is not originals[key] for key in originals)
        assert all(fn.__wrapped__ is originals[key] for key, fn in wrapped.items())
        assert msrlab.Subspace.__dict__["sum"] is wrapped["add"]
    finally:
        tracer.restore()
    assert msrlab.cli.decay_trace is originals["cli.decay_trace"]
    assert msrlab.repair.is_direct_sum_full is originals["repair.direct_sum"]
    assert msrlab.Subspace.__dict__["__add__"] is originals["add"]


def test_wrong_expected_output_is_counted_not_fatal(tmp_path):
    sweep = Sweep(0, tmp_path)
    sweep.m_list = "1"
    sweep.golden = "not the table\n"
    result = worker.measure(sweep, seconds=0.0, min_samples=2)
    assert result["attempted"] == 3 and result["failed"] == 3 and result["passed"] == 0
    assert "golden" in result["failures"][0]


def test_an_op_that_raises_is_a_failed_op(tmp_path):
    class Broken(Repair):
        shapes = ((5, 4, 4),)  # r = 1: random_constant_instance rejects it

    result = worker.measure(Broken(0, tmp_path), seconds=0.0, min_samples=1)
    assert result["failed"] == result["attempted"] == 2
    assert "BadParams" in result["failures"][0]


def test_decay_golden_final_dim_is_the_invariant_of_all_members(tmp_path):
    decay = Decay(0, tmp_path)
    try:
        family = msrlab.construct_tensor_family(Decay.r, Decay.m, msrlab.FieldSpec(Decay.p))
        expected = msrlab.invariant_dim(family.subspaces, spec=family.spec, ambient=family.ell)
        assert decay.final_dim == expected
    finally:
        decay.close()


def test_decay_check_rejects_a_wrong_final_dim(tmp_path):
    decay = Decay(0, tmp_path)
    try:
        code, text = decay.run(5)
        assert decay.check(5, (code, text)) is None
        wrong = text.replace(f"final dim {decay.final_dim}", f"final dim {decay.final_dim + 1}")
        assert "final dim" in decay.check(5, (code, wrong))
        assert "exit code" in decay.check(5, (1, text))
    finally:
        decay.close()


def _traced_counts(workload):
    tracer = tracing.Tracer()
    result = worker.trace(workload, 0.0, tracer)
    assert result["failed"] == 0
    layers = worker.layer_metrics(tracer, result["untraced"], result["traced"])
    return {
        key: value for key, value in layers.items()
        if key.endswith(COUNT_SUFFIXES) or key in tracing.COUNT_KEYS
        or key in ("repair.cutset_ratio", "trace.spans")
    }


def test_traced_counts_repeat_exactly_for_one_seed(tmp_path):
    rref = msrlab.Matrix.rref
    first = _traced_counts(Repair(11, tmp_path))
    second = _traced_counts(Repair(11, tmp_path))
    assert first == second
    assert first["repair.node.calls"] > 0 and first["repair.cutset_ratio"] == 1.0
    assert msrlab.Matrix.rref is rref


def test_traced_sweep_counts_repeat_and_reach_the_cli(tmp_path):
    def small_sweep():
        sweep = Sweep(3, tmp_path)
        sweep.m_list = "1,2"
        sweep.cycle = 2
        sweep.golden = sweep.run((3, 2))[1]
        return sweep

    first = _traced_counts(small_sweep())
    assert first == _traced_counts(small_sweep())
    assert first["cli.main.calls"] == 1.0 and first["msr_family.verify.checks"] > 0


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "repair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

"""Tests of the benchmark's own machinery (not of nndlab).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import nndlab  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, instance="i"):
    return spans.Span(name, start, end, parent, instance)


def test_self_time_subtracts_children_not_grandchildren():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_totals_keep_instances_apart():
    tree = [
        span("f", 0.0, 2.0, instance="x"),
        span("g", 0.5, 1.0, parent=0, instance="x"),
        span("f", 3.0, 4.0, instance="y"),
    ]
    totals = spans.layer_totals(tree, "x")
    assert totals["f"] == pytest.approx({"calls": 1, "s": 2.0, "self_s": 1.5})
    assert totals["g"]["calls"] == 1
    assert spans.layer_totals(tree, "y")["f"]["s"] == pytest.approx(1.0)


def test_tracer_nests_spans_by_call_order():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '[-Infinity]'])
def test_strict_json_rejects_non_finite_constants(text):
    with pytest.raises(ValueError):
        workloads.strict_json(text)


def test_strict_json_accepts_finite_numbers():
    assert workloads.strict_json('{"a": 1.5e300, "b": -2}') == {"a": 1.5e300, "b": -2}


def test_2nrq_check_flags_nan_output(tmp_path):
    path = tmp_path / "out.json"
    path.write_text('{"config": {}, "data": {"rate_z": NaN}}')
    wl = workloads.TwoNrqVerify(str(BENCH.parent), str(tmp_path))
    errors = wl.check(1, (0, str(path)))
    assert errors and "strict JSON" in errors[0]
    assert wl.check(1, (3, str(path))) == ["exit code 3"]


class FakeWorkload(workloads.Workload):
    """Instances finish at once; one chosen seed fails its check, another raises."""

    name = "fake"
    work_counter = "work"

    def __init__(self, bad_seed=None, raising_seed=None):
        super().__init__(".", ".")
        self.bad_seed, self.raising_seed = bad_seed, raising_seed

    def setup(self):
        return [0.001]

    def run(self, seed):
        if seed == self.raising_seed:
            raise RuntimeError("injected")
        return seed

    def check(self, seed, out):
        return ["injected failure"] if seed == self.bad_seed else []

    def fingerprint(self, out):
        return out

    def counters(self, seed, out):
        return {"rounds": 1, "work": 1}


def test_clean_run_has_zero_error_rate():
    tally, data = run.measure(FakeWorkload(), seed=0, seconds=0.01)
    assert tally.attempted >= 1 and tally.error_rate == 0
    assert len(data["run_s"]) == tally.attempted


def test_injected_failures_raise_error_rate():
    wl = FakeWorkload(bad_seed=run.instance_seed(0, 0), raising_seed=run.instance_seed(0, 1))
    tally, _ = run.measure(wl, seed=0, seconds=0.5)
    assert tally.failed == {run.instance_seed(0, 0), run.instance_seed(0, 1)}
    assert tally.error_rate == pytest.approx(2 / tally.attempted)


def test_rerun_that_differs_is_a_failure():
    class Drifting(FakeWorkload):
        calls = 0

        def fingerprint(self, out):
            Drifting.calls += 1
            return Drifting.calls

    tally, _ = run.measure(Drifting(), seed=0, seconds=0.0)
    assert tally.failed == {run.instance_seed(0, 0)}


def _bindings():
    """Every attribute of every nndlab module and of every class they define."""
    found = {}
    for key, mod in list(sys.modules.items()):
        if key == "nndlab" or key.startswith("nndlab."):
            for attr, value in vars(mod).items():
                found[(key, attr)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for member, obj in vars(value).items():
                        found[(key, attr, member)] = obj
    return found


def test_patch_restores_every_original_attribute():
    before = _bindings()
    tracer = spans.Tracer()
    patch = spans.Patch(tracer, workloads.TRACE_TARGETS)
    with patch:
        # the diagnostics binding of random_kout is wrapped as well as descent's
        assert nndlab.diagnostics.random_kout is not before[("nndlab.diagnostics", "random_kout")]
        nndlab.diagnostics.random_kout(20, 3, 0)
        during = _bindings()
    after = _bindings()
    assert [s.name for s in tracer.spans] == ["descent.random_kout"]
    assert any(during[k] is not v for k, v in before.items())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_top_k_span_is_renamed_and_counts_its_pool():
    table = nndlab.spaces.rank_table(nndlab.spaces.paris_space(range(1, 9)))
    oracle = nndlab.ranking.RankingOracle(table)
    tracer = spans.Tracer()
    with spans.Patch(tracer, workloads.TRACE_TARGETS):
        oracle.top_k(0, np.array([1, 2, 3, 4]), 2)
        oracle.top_k(1, np.array([0, 2, 3]), 2)
    assert [s.name for s in tracer.spans] == ["ranking.top_k"] * 2
    assert dict(tracer.counters) == {("", spans.POOL_ITEMS): 7}


def test_patch_restores_after_an_exception():
    before = _bindings()
    patch = spans.Patch(spans.Tracer(), workloads.TRACE_TARGETS)
    with pytest.raises(nndlab.InputError):
        with patch:
            nndlab.descent.random_kout(3, 5, 0)
    assert all(_bindings()[k] is v for k, v in before.items())


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail(list(range(19))) == (None, None)
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail([float(i) for i in range(1, 41)]) == (75, 30.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # every workload is runnable and traced; BENCHMARK.json gates a subset (see README)
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name in gated]
    assert list(run.WORKLOAD_NAMES) == [w.name for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in workloads.per_layer_spec()
    ]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(not os.path.isabs(p) and ".." not in p for p in spec["paths"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

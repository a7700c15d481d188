"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repository root)."""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from uew import linalg, optimize, states, witness  # noqa: E402


def test_wrong_alpha0_counts_as_failure(tmp_path):
    wl = workloads.alpha0(5, tmp_path)
    for files in wl.pool:
        files.reference = -0.25  # skip the slow bisection; only the comparison is under test
    text = "case: case-ii\nalpha0: {}\n"
    ops = [run.Op(0, 0.1, (0, text.format(-0.25)), None),
           run.Op(1, 0.1, (0, text.format(-0.2499)), None),
           run.Op(2, 0.1, (1, text.format(-0.25)), None),
           run.Op(3, 0.1, (0, "case: case-i\nalpha0: -0.25\n"), None),
           run.Op(4, 0.1, None, "RuntimeError: boom")]
    failures = run.run_checks(wl, ops)
    assert [f.split(":")[0] for f in failures] == ["op 1", "op 2", "op 3", "op 4"]


def test_wrong_threshold_counts_as_failure():
    item = workloads.scan_items(0)[-1]
    thr = workloads.scan_op(item, 0)
    assert workloads.check_scan(item, thr).ok
    assert not workloads.check_scan(item, thr + 0.01).ok
    assert not workloads.check_scan(item, None).ok
    wl = workloads.noise_scan(0, None)
    out = wl.run(0)
    assert wl.check(0, out).ok
    assert not wl.check(0, out[:-1] + [thr + 0.01]).ok


def test_self_time_on_synthetic_tree():
    names = ["root", "a", "b", "leaf"]
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on [3, 4];
    # a has the child leaf [2, 3]
    name_id = [0, 1, 3, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 3.0]
    end = [10.0, 4.0, 3.0, 6.0]
    out = spans.summarize(names, name_id, parent, start, end)
    assert out["root"] == {"calls": 1, "self_s": 5.0, "total_s": 10.0}
    assert out["a"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0}
    assert out["b"]["self_s"] == 3.0
    assert out["leaf"]["self_s"] == 1.0


def test_missing_name_is_absent_and_install_is_undone():
    original = optimize.sup_product_constrained
    targets = spans.TARGETS + (spans.Target("optimize", "no_such_function"),
                               spans.Target("witness", "Witness.no_such_method"),
                               spans.Target("no_such_module", "main"))
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        assert tracer.absent == ["optimize.no_such_function", "witness.Witness.no_such_method",
                                 "no_such_module.main"]
        assert optimize.sup_product_constrained is not original
    finally:
        tracer.uninstall()
    assert optimize.sup_product_constrained is original
    summary = tracer.summary()
    assert summary["optimize.no_such_function"]["calls"] == 0


def test_spans_nest_through_other_modules_bindings():
    ex = states.Example31Config()
    C, _, _ = states.build_example31(ex)
    rho = linalg.HermitianOperator.identity((2, 2)) * 0.25
    tracer = spans.Tracer()
    tracer.install()
    try:
        witness.halfspace_membership(rho, witness.ConstraintSpec(C=C, c=ex.c))  # calls expectation via witness's binding
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["witness.halfspace_membership", "linalg.expectation"]
    assert list(tracer.parent) == [-1, 0]


def _alpha0_bytes(seed, d):
    d.mkdir()
    files = workloads.alpha0(seed, d).pool[0]
    return files.test.read_bytes(), files.constraint.read_bytes()


def _scan_bytes(seed):
    return [(s.witness.bound, s.witness.test.mat.tobytes(), s.phi.tobytes())
            for s in workloads.scan_items(seed)]


def test_same_seed_same_instances(tmp_path):
    assert _alpha0_bytes(5, tmp_path / "a") == _alpha0_bytes(5, tmp_path / "b")
    assert _alpha0_bytes(5, tmp_path / "c") != _alpha0_bytes(6, tmp_path / "d")
    assert _scan_bytes(5) == _scan_bytes(5)
    assert _scan_bytes(5) != _scan_bytes(6)


def test_times_scale_to_reference_speed():
    ops = [run.Op(0, 2.0, None, None), run.Op(1, 4.0, None, None)]
    at_ref = run.end_to_end(ops, [(0.2, [run.CAL_NOMINAL_S])], 10.0)
    assert at_ref["op_p50_s"]["value"] == pytest.approx(3.0)
    assert at_ref["ops_per_s"]["value"] == pytest.approx(2 / 6.0)
    assert at_ref["setup_s"]["value"] == pytest.approx(0.2)
    # the machine ran at half speed: every time is halved
    slow = [2 * run.CAL_NOMINAL_S]
    assert run.speed(slow * 3) == pytest.approx(0.5)
    ops = [run.Op(0, 2.0, None, None, 0.5), run.Op(1, 4.0, None, None, 0.5)]
    half = run.end_to_end(ops, [(0.2, slow), (0.3, slow), (0.1, [run.CAL_NOMINAL_S])], 10.0)
    assert half["op_p50_s"]["value"] == pytest.approx(1.5)
    assert half["ops_per_s"]["value"] == pytest.approx(2 / 3.0)
    assert half["setup_s"]["value"] == pytest.approx(0.1)


def test_sampler_runs_chunks_inside_the_op_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    wl = workloads.Workload("busy", [None], lambda _item, _i: _spin(0.45), lambda _item, _out: None)
    ops = run.sampled_pass(wl, 0, run.SpeedSampler())
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about four chunks ran during the op, and their time is not in its latency
    assert 0.3 < ops[0].latency < 0.45
    assert ops[0].speed > 0
    quick = run.sampled_pass(workloads.Workload("quick", [None], lambda *_: 1, None), 0,
                             run.SpeedSampler())
    assert quick[0].output == 1 and quick[0].speed > 0  # sampled by the chunk after it


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("n, expected", [(10, None), (11, (0, 100 / 11, 11)), (40, (29, 75.0, 40))])
def test_tail_latency_keeps_ten_samples_beyond(n, expected):
    assert run.tail_latency(list(range(n))) == expected


def test_emitted_metric_names_match_benchmark_json():
    import json

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    ops = [run.Op(0, 0.5, None, None)]
    e2e = run.end_to_end(ops, [(0.2, [0.02])], 100.0)
    layer = run.per_layer(spans.Tracer(), ops, ops, run.result_observers(spans.Tracer()))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: v["unit"] for k, v in layer.items()}

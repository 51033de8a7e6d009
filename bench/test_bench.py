"""Self-tests of the benchmark harness (not of qoc).

    python3 -m pytest -q bench/test_bench.py

They use the small warm-up instances, so they take a few seconds.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

qoc = run.import_qoc()

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def small_jobs(workload, root, seed=3):
    return workloads.build(workload, seed, str(root), warmup=True)


def run_job(job):
    code, _, err = run.run_commands(qoc, job.commands)
    assert code == 0, err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = workloads.build(workload, 7, str(tmp_path / "a"))
    b = workloads.build(workload, 7, str(tmp_path / "b"))
    c = workloads.build(workload, 8, str(tmp_path / "c"))
    files = sorted(f for f in os.listdir(tmp_path / "a") if f.endswith(".json"))
    assert files and len(files) == len(a) == len(b) == len(c)
    for name in files:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        assert not filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False)
    assert [j.commands[0][0] for j in a] == [j.commands[0][0] for j in c]


def corrupt_troc(out):
    path = os.path.join(out, "solution.json")
    with open(path) as fh:
        doc = json.load(fh)
    row = doc["policy"][0][0]
    k = max(range(len(row)), key=row.__getitem__)
    row[k] -= 1e-6  # one policy entry changed; the row is still nearly stochastic
    with open(path, "w") as fh:
        json.dump(doc, fh)


def corrupt_qkl(out):
    path = os.path.join(out, "sweep.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i in range(1, len(lines)):  # every point, whichever one the check picks
        cells = lines[i].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt_qlqr(out):
    path = os.path.join(out, "trajectories.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1e6"  # one state far outside the envelope
    lines[-1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPT = {"troc-solve": corrupt_troc, "qkl-sweep": corrupt_qkl, "qlqr-simulate": corrupt_qlqr}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_good_output_and_fail_on_corrupted(workload, tmp_path):
    job = small_jobs(workload, tmp_path)[0]
    run_job(job)
    job.check(job, 0)
    CORRUPT[workload](job.out)
    with pytest.raises(workloads.CheckFailed):
        job.check(job, 0)


def test_corrupted_output_counts_as_failed_job(tmp_path):
    jobs = small_jobs("troc-solve", tmp_path)
    check = jobs[1].check

    def corrupt_then_check(job, seq):
        corrupt_troc(job.out)
        check(job, seq)

    jobs[1].check = corrupt_then_check
    assert [r["ok"] for r in run.measure(qoc, jobs, 0.0)] == [True, False, True]
    # a traced run ends with a whole cycle; each job runs untraced and traced
    records = run.measure(qoc, jobs, 0.0, spans.Recorder())
    assert [r["ok"] for r in records] == [True, True, False, False, True, True]
    assert [r["traced"] for r in records] == [True, False, False, True, True, False]


def test_changed_output_fails_repeatability(tmp_path):
    job = small_jobs("qlqr-simulate", tmp_path)[0]
    run_job(job)
    workloads.check_repeatable(job)
    run_job(job)
    workloads.check_repeatable(job)  # wall_time_s differs, the digest does not
    corrupt_qlqr(job.out)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_repeatable(job)


def traced_summary(jobs):
    recorder = spans.Recorder()
    recorder.install()
    try:
        records = run.measure(qoc, jobs, 0.0, recorder)
    finally:
        recorder.uninstall()
    assert all(r["ok"] for r in records)
    return recorder, records


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_and_self_times_add_up(workload, tmp_path):
    first, records = traced_summary(small_jobs(workload, tmp_path / "1"))
    second, _ = traced_summary(small_jobs(workload, tmp_path / "2"))
    a, b = first.summarize(), second.summarize()
    assert {k: v["calls"] for k, v in a.items()} == {k: v["calls"] for k, v in b.items()}
    # bundle sizes vary with wall_time_s and the output paths; the rest repeat
    written = first.counters.pop("io.write.bytes"), second.counters.pop("io.write.bytes")
    assert written[0] == pytest.approx(written[1], rel=0.01)
    assert first.counters == second.counters
    metrics, _ = run.per_layer(first, records)
    counts = ("io.load.calls", "entmax.rows", "entmax.exp_q_evals_per_row", "qgaussian.acceptance")
    assert {k: metrics[k] for k in counts} == {k: run.per_layer(second, records)[0][k] for k in counts}
    # self times telescope to the root spans, which lie inside the job times
    total_self = sum(v["self_s"] for v in a.values())
    assert total_self == pytest.approx(a["cli.main"]["busy_s"], rel=1e-9)
    traced_time = sum(r["seconds"] for r in records if r["traced"])
    assert a["cli.main"]["busy_s"] <= traced_time


def test_each_workload_bypasses_the_other_layers(tmp_path):
    metrics = {}
    for workload in WORKLOADS:
        recorder, records = traced_summary(small_jobs(workload, tmp_path / workload))
        metrics[workload] = {k: v for k, (v, _) in run.per_layer(recorder, records)[0].items()}
    assert metrics["qlqr-simulate"]["entmax.rows"] == 0
    assert metrics["troc-solve"]["qgaussian.sample.calls"] == 0
    assert metrics["qkl-sweep"]["qgaussian.sample.calls"] == 0
    assert metrics["troc-solve"]["entmax.rows"] == 10 * 2  # n * T of the small instance
    assert metrics["qkl-sweep"]["deformed.qkl_divergence.calls"] > 0
    assert 0 < metrics["qlqr-simulate"]["qgaussian.acceptance"] < 1


def test_uninstall_restores_bindings():
    before = (qoc.io.load_instance, qoc.troc.entmax_discrete, qoc.qgaussian.QGaussian.sample)
    recorder = spans.Recorder()
    recorder.install()
    assert qoc.io.load_instance is not before[0]
    recorder.uninstall()
    assert (qoc.io.load_instance, qoc.troc.entmax_discrete, qoc.qgaussian.QGaussian.sample) == before


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(spec, parent, [v * 0.8 for v in parent])[0] == "better"
    assert compare.verdict(spec, parent, [v * 1.2 for v in parent])[0] == "regression"
    assert compare.verdict(spec, parent, [v * 1.01 for v in parent])[0] == "unchanged"
    noisy = [1.0, 1.5, 0.6, 1.2, 0.8, 1.4, 0.7, 1.1, 0.9, 1.3]
    assert compare.verdict(spec, noisy, noisy)[0] == "unresolved"
    assert compare.verdict({"better": "lower"}, parent, [v * 0.5 for v in parent])[0] == "moved (better)"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "troc-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

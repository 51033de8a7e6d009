"""qoc benchmark runner: one closed-loop client issuing CLI jobs back to back.

    python3 bench/run.py --workload troc-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

A run imports qoc from ``src/`` next to this directory, writes seeded
instances under ``.bench_work/``, runs one untimed warm-up job and then
issues the workload's cycle of jobs until ``--seconds`` have passed.
Each job is one or more in-process ``qoc.cli.main`` calls with stdout
captured; its outputs are checked after it, outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every job twice, untraced and traced, and reports
the per-layer metrics; the untraced twin gives the tracing overhead.
The last line of standard output is the result as one JSON object; the
full record, with machine, source and seed, goes to ``.bench_work/results``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One closed-loop client on a 2-core machine: keep BLAS to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["troc-solve", "qkl-sweep", "qlqr-simulate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of result records")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    return args


def import_qoc():
    """Import qoc from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "qoc", "__init__.py")):
        raise SystemExit(f"error: qoc sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qoc
    import qoc.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__))) != SRC:
        raise SystemExit(f"error: imported qoc from {qoc.__file__}, not from {SRC}")
    return qoc


def run_commands(qoc, commands):
    """Run CLI commands back to back; returns (exit code, seconds, stderr)."""
    err = io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        for argv in commands:
            try:
                code = qoc.cli.main(argv)
            except Exception:  # a crashing job is a failed job, not a failed run
                traceback.print_exc()
                code = -1
            if code != 0:
                break
    return code, time.perf_counter() - start, err.getvalue()


def setup(workload, seed, root):
    """Import qoc, write the instances and run one warm-up job; time it all."""
    start = time.perf_counter()
    qoc = import_qoc()
    import workloads

    jobs = workloads.build(workload, seed, root)
    warm = workloads.build(workload, seed, os.path.join(root, "warmup"), warmup=True)[0]
    code, _, err = run_commands(qoc, warm.commands)
    if code != 0:
        raise SystemExit(f"error: warm-up job failed:\n{err}")
    return qoc, jobs, time.perf_counter() - start


def probe_setup(workload, seed, index):
    """Time set-up in a fresh process, as the run itself pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--probe-setup", os.path.join(WORK, workload, f"probe{index}")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(qoc, jobs, seconds, recorder=None):
    """Issue jobs in cycles until ``seconds`` pass; check each job after it.

    Returns per-job records.  With a recorder each job runs twice, untraced
    and traced, in alternating order so that neither twin always runs on
    the other's warm state; both runs are checked, and the run ends with a whole
    cycle so that per-job counts repeat exactly.  Without one it ends at
    the first job after ``seconds``, but not before one whole cycle.
    """
    import workloads

    records = []
    seq = 0
    twins = (False, True) if recorder is not None else (False,)
    start = time.perf_counter()
    while True:
        for job in jobs:
            twins = twins[::-1]
            for traced in twins:
                gc.collect()
                if traced:
                    recorder.active = True
                code, elapsed, err = run_commands(qoc, job.commands)
                if traced:
                    recorder.active = False
                problem = None
                if code != 0:
                    problem = f"{job.slot}: exit code {code}\n{err}"
                else:
                    try:
                        job.check(job, seq)
                        workloads.check_repeatable(job)
                    except workloads.CheckFailed as exc:
                        problem = str(exc)
                    except Exception:  # a check crashing on bad output fails the job
                        problem = f"{job.slot}: check crashed\n{traceback.format_exc()}"
                if problem:
                    print(f"job failed: {problem}", file=sys.stderr)
                records.append({"slot": job.slot, "seconds": elapsed, "traced": traced,
                                "rows": job.rows, "samples": job.samples,
                                "ok": problem is None})
                seq += 1
            if recorder is None and seq >= len(jobs) and time.perf_counter() - start >= seconds:
                return records
        if time.perf_counter() - start >= seconds:
            return records


def end_to_end(records, setup_s):
    """Gated metrics, and job-time percentiles that are reported but not gated.

    The CPU this was tuned on switches between speed modes up to 1.6x apart
    that last about as long as a run, so a run's p50 and p90 job times land
    in one mode or the other.  Nearly every run holds some slow-mode jobs,
    so the slowest job, and the lowest rate, are steady enough to gate on.
    """
    times = [r["seconds"] for r in records]
    # work per job-second: ent-max rows on troc and qkl, trajectory steps on qlqr
    rates = [(r["rows"] + r["samples"]) / r["seconds"] for r in records]
    gated = {
        "setup_s": (setup_s, "s"),
        "job_s.max": (max(times), "s"),
        "work_per_s.min": (min(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return gated, {"job_s.p50": (deciles[4], "s"), "job_s.p90": (deciles[8], "s")}


def per_layer(recorder, records):
    """Per-layer metrics, per traced job, from the spans and counters."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    jobs = len(traced)
    spans = recorder.summarize()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    rows = get("entmax.entmax_discrete", "calls") + get("entmax.entmax_weighted", "calls")
    entmax_busy = get("entmax.entmax_discrete", "busy_s") + get("entmax.entmax_weighted", "busy_s")
    proposals = recorder.counters["qgaussian.proposals"]
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    plain_p50 = statistics.median(r["seconds"] for r in plain)
    metrics = {
        "io.load.busy_s": (get("io.load_instance", "busy_s") / jobs, "s"),
        "io.validate.busy_s": (get("io.validate_instance_dict", "busy_s") / jobs, "s"),
        "io.load.calls": (get("io.load_instance", "calls") / jobs, "count"),
        "io.write.busy_s": ((get("io.write_json", "busy_s") + get("io.write_csv", "busy_s")) / jobs, "s"),
        "io.write.bytes": (recorder.counters["io.write.bytes"] / jobs, "B"),
        "entmax.rows": (rows / jobs, "count"),
        "entmax.busy_s": (entmax_busy / jobs, "s"),
        "entmax.us_per_row": (1e6 * entmax_busy / rows if rows else 0.0, "us"),
        "entmax.exp_q_evals_per_row": (get("entmax.exp_q", "calls") / rows if rows else 0.0, "count"),
        "deformed.qkl_divergence.calls": (get("deformed.qkl_divergence", "calls") / jobs, "count"),
        "deformed.qkl_divergence.busy_s": (get("deformed.qkl_divergence", "busy_s") / jobs, "s"),
        "troc.backward.self_s": (get("troc.solve_troc", "self_s") / jobs, "s"),
        "qkl.backward.self_s": (get("qkl.solve_qkl", "self_s") / jobs, "s"),
        "qkl.evaluate_cost.busy_s": (get("qkl.evaluate_cost", "busy_s") / jobs, "s"),
        "qgaussian.sample.calls": (get("qgaussian.sample", "calls") / jobs, "count"),
        "qgaussian.sample.busy_s": (get("qgaussian.sample", "busy_s") / jobs, "s"),
        "qgaussian.acceptance": (
            recorder.counters["qgaussian.samples"] / proposals if proposals else 0.0, "ratio"),
        "qlqr.riccati.busy_s": (get("qlqr.solve_qlqr", "busy_s") / jobs, "s"),
        "qlqr.envelope.busy_s": (get("qlqr.support_envelope", "busy_s") / jobs, "s"),
        "qlqr.simulate.self_s": (get("qlqr.simulate_closed_loop", "self_s") / jobs, "s"),
        "cli.self_s": (get("cli.main", "self_s") / jobs, "s"),
        "trace.overhead_ratio": (traced_p50 / plain_p50 - 1.0, "ratio"),
    }
    return metrics, spans


def machine():
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def source_identity():
    """Git SHA of the checkout (None outside git) and a digest of src/."""
    sha = None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        sys.path.insert(0, HERE)
        import compare

        return compare.main(*args.compare)
    if args.probe_setup:
        _, _, setup_s = setup(args.workload, args.seed, args.probe_setup)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    root = os.path.join(WORK, args.workload)
    qoc, jobs, setup_s = setup(args.workload, args.seed, root)
    # set-up is timed 3 times: here, and in fresh processes before and after measuring
    setups = [setup_s, probe_setup(args.workload, args.seed, 0)]

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    records = measure(qoc, jobs, args.seconds, recorder)
    setups.append(probe_setup(args.workload, args.seed, 1))
    ungated = {}
    if recorder is not None:
        recorder.uninstall()
        metrics, summary = per_layer(recorder, records)
    else:
        metrics, ungated = end_to_end(records, statistics.median(setups))

    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_identity(),
        "machine": machine(),
        "setup_samples_s": setups,
        "fail_ratio": failed / len(records),
        "ungated_metrics": {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()},
        "jobs": records,
        "result": result,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    record_path = os.path.join(WORK, "results", stem + ".json")
    if recorder is not None:
        record["spans"] = summary
        # one span file per workload, replaced by each traced run: spans are large
        trace_path = os.path.join(WORK, "results", f"{args.workload}.spans.json")
        recorder.dump(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    measured = [r for r in records if not r["traced"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(records)} jobs "
          f"({len(measured)} untraced), fail_ratio={record['fail_ratio']:.3g}, "
          f"setup samples={len(setups)}")
    for name, (value, unit) in {**metrics, **ungated}.items():
        print(f"  {name:32s} {value:14.6g} {unit}{'  (not gated)' if name in ungated else ''}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

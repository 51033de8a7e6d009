"""Compare benchmark result records of a parent commit and a change.

    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds the ``.bench_work/results/*.json`` records of one
commit.  Runs are paired by seed (by order when the seeds differ).  Per
workload and metric the report gives both medians, the ratio change/parent
and the share of pairs the change wins, then a verdict:

- better: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (IQR / median) exceeds the bound, so
  neither can be told, unless every change run beats every parent run;
- unchanged: none of the above.

Per-layer metrics and the record's ungated metrics have no bound: they
read "moved (better)" or "moved (worse)" when the pairs rule holds in that
direction and "same" otherwise.
The exit code is 1 when any metric regressed or the change failed more
jobs than the parent.
"""

import glob
import json
import os
import statistics

WIN_SHARE = 0.9


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"error: no result records in {directory}")
    return records


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in change}
    if sorted(r["seed"] for r in parent) == sorted(by_seed):
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def spread(values):
    """Interquartile range, as ``statistics.quantiles(values, n=4)`` gives it."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(spec, p_vals, c_vals):
    """Verdict and share of pairs won for one metric on one workload."""
    sign = 1.0 if spec.get("better") == "higher" else -1.0
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    iqr = spread(p_vals)
    diffs = [(c - p) * sign for p, c in zip(p_vals, c_vals)]
    wins = sum(d > 0 for d in diffs) / len(diffs)
    losses = sum(d < 0 for d in diffs) / len(diffs)
    apart = abs(c_med - p_med) > iqr
    if "bound" not in spec:  # per-layer: no bound, only whether it moved
        if apart and wins >= WIN_SHARE:
            return "moved (better)", wins
        if apart and losses >= WIN_SHARE:
            return "moved (worse)", wins
        return "same", wins
    bound = spec["bound"] * abs(p_med)
    if iqr > bound:
        if min(c * sign for c in c_vals) > max(p * sign for p in p_vals):
            return "better", wins
        return "unresolved", wins
    if apart and wins >= WIN_SHARE:
        return "better", wins
    if (p_med - c_med) * sign > bound:
        return "regression", wins
    return "unchanged", wins


def main(parent_dir, change_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    bad = False
    keys = sorted({(r["workload"], r["trace"]) for r in parent} & {(r["workload"], r["trace"]) for r in change})
    for workload, trace in keys:
        matched = pairs(
            [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)],
            [r for r in change if (r["workload"], r["trace"]) == (workload, trace)],
        )
        fails = [sum(r["result"]["failed"] for r in side) / sum(r["result"]["attempted"] for r in side)
                 for side in zip(*matched)]
        print(f"\n{workload} ({'traced, per-layer' if trace else 'end-to-end'}), "
              f"{len(matched)} pairs, fail_ratio parent {fails[0]:.3g} change {fails[1]:.3g}")
        if fails[1] > fails[0]:
            print("  the change fails more jobs than the parent: no gain counts")
            bad = True
        print(f"  {'metric':32s} {'parent':>12s} {'change':>12s} {'ratio':>8s} {'won':>5s}  verdict")
        metrics = [{**r["result"]["metrics"], **r.get("ungated_metrics", {})}
                   for pair in matched for r in pair]
        for name in metrics[0]:
            if name not in metrics[1]:
                continue
            p_vals = [m[name]["value"] for m in metrics[0::2]]
            c_vals = [m[name]["value"] for m in metrics[1::2]]
            word, won = verdict(specs.get(name, {}), p_vals, c_vals)
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            ratio = f"{c_med / p_med:8.4f}" if p_med else f"{'-':>8s}"
            print(f"  {name:32s} {p_med:12.6g} {c_med:12.6g} {ratio} {won:5.0%}  {word}")
            bad |= word == "regression"
    return 1 if bad else 0

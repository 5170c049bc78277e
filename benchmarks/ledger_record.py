"""The end-to-end ledger's committed trajectory (ROADMAP item 1a).

``benchmarks/e2e/run.py`` measures; this script *records*.  It never
imports the harness: it shells out to a checkout's own, unmodified
``benchmarks/e2e/run.py --workload all`` and reads the
``result-<workload>-seed<N>-trace0.json`` files that run leaves behind.

``record``
    Measure one or more checkouts and append one row per (checkout,
    workload) to ``benchmarks/BENCH_HISTORY.jsonl``: the four end-to-end
    metrics as median and quartiles over the seeds run, the number of runs
    and timed repetitions, the report digests, the calibration constant
    and the interpreter/numpy versions.  With several ``--checkout``\\ s
    the runs alternate (the order flips every seed) — the parent/change
    pairs a performance claim rests on — and a table in the ``CHANGES.md``
    format is printed: ratio with its base, wins out of pairs, and
    "unresolved" where the medians differ by less than the first
    checkout's own quartile spread.  ``benchmarks/BENCH_e2e.json`` is then
    rewritten to the latest row per workload.

``check``
    CI's gate.  Compare the ``py_calls_per_unit`` of the result files a
    ``run.py`` invocation just wrote against the committed
    ``BENCH_e2e.json`` row and fail above the bound ``BENCHMARK.json``
    fixes for that metric (+0.5 %).  The count is exact for a given
    interpreter and numpy minor release (patch releases do not add Python
    or C calls), so a workload is gated when ``major.minor`` of both match
    the row's and is report-only otherwise; CI's benchmarks job pins numpy
    to the row's minor for that reason.  A run in which *no* workload was
    gated exits 2: a gate that compared nothing is not a pass.  ``wall_s``
    is always report-only here — shared runners cannot resolve it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "BENCH_HISTORY.jsonl")
LATEST = os.path.join(HERE, "BENCH_e2e.json")
METRICS = ("wall_s", "py_calls_per_unit", "setup_s", "peak_rss_mb")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _results(checkout: str, seed: int) -> Dict[str, dict]:
    """``{workload: result}`` from the files ``run.py`` wrote in ``checkout``."""
    out = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        path = os.path.join(checkout, "benchmarks", "results", "e2e",
                            f"result-{workload}-seed{seed}-trace0.json")
        if os.path.exists(path):
            with open(path) as fh:
                out[workload] = json.load(fh)
    return out


def _git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", "-C", checkout, *args], text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def _measure(checkout: str, seed: int) -> Dict[str, dict]:
    argv = [sys.executable, os.path.join(checkout, "benchmarks", "e2e", "run.py"),
            "--workload", "all", "--seed", str(seed)]
    code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
    results = _results(checkout, seed)
    failed = {w: r["errors"] for w, r in results.items() if r["failed"]}
    if code or failed or len(results) != len(_spec()["workloads"]):
        raise SystemExit(f"{checkout} seed {seed}: run.py exit {code}, "
                         f"failed operations {failed or 'none'}")
    return results


def _quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single run is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def _row(checkout: str, label: str, workload: str, seeds: Sequence[int],
         runs: Sequence[dict]) -> dict:
    extras = runs[0]["extras"]
    metrics = {}
    for name in METRICS:
        q1, median, q3 = _quartiles([r["metrics"][name]["value"] for r in runs])
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--",
                           "src", "benchmarks/e2e")),
        "label": label,
        "workload": workload,
        "seeds": list(seeds),
        "runs": len(runs),
        "repetitions": [len(r["extras"]["rep_s"]) for r in runs],
        "metrics": metrics,
        "report_sha256": [r["extras"]["report_sha256"] for r in runs],
        "cal_ref_s": extras["cal_ref_s"],
        "versions": extras["versions"],
    }


def _table(base: dict, new: dict, pairs: Dict[str, List[List[float]]]) -> List[str]:
    """One ``CHANGES.md`` line per metric of one workload, base -> new."""
    lines = []
    for name in METRICS:
        b, n = base["metrics"][name], new["metrics"][name]
        wins = sum(after < before for before, after in pairs[name])
        ties = sum(after == before for before, after in pairs[name])
        spread = b["q3"] - b["q1"]
        verdict = ("unresolved: inside the base's own spread"
                   if abs(n["median"] - b["median"]) <= spread else "resolved")
        lines.append(
            f"`{base['workload']}` {name} {b['median']:.4f} [{b['q1']:.4f}, "
            f"{b['q3']:.4f}] -> {n['median']:.4f} [{n['q1']:.4f}, {n['q3']:.4f}] "
            f"{n['unit']} = {n['median'] / b['median']:.3f}x of base, wins "
            f"{wins}/{len(pairs[name])} ({ties} ties), base IQR "
            f"{100 * spread / b['median']:.1f} % ({verdict})")
    return lines


def record(checkouts: Sequence[str], labels: Sequence[str],
           seeds: Sequence[int]) -> int:
    runs: List[Dict[str, List[dict]]] = [{} for _ in checkouts]
    for i, seed in enumerate(seeds):
        order = range(len(checkouts))
        for c in (reversed(order) if i % 2 else order):
            print(f"seed {seed}: measuring {labels[c]} ({checkouts[c]})", flush=True)
            for workload, result in _measure(checkouts[c], seed).items():
                runs[c].setdefault(workload, []).append(result)
    rows = [[_row(checkouts[c], labels[c], w, seeds, rs) for w, rs in runs[c].items()]
            for c in range(len(checkouts))]
    with open(HISTORY, "a") as fh:
        for row in (r for per_checkout in rows for r in per_checkout):
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(LATEST, "w") as fh:
        json.dump({r["workload"]: r for r in rows[-1]}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if len(checkouts) > 1:
        for base, new in zip(rows[0], rows[-1]):
            w = base["workload"]
            pairs = {name: [[b["metrics"][name]["value"], n["metrics"][name]["value"]]
                            for b, n in zip(runs[0][w], runs[-1][w])]
                     for name in METRICS}
            same = base["report_sha256"] == new["report_sha256"]
            print("\n".join(_table(base, new, pairs)))
            print(f"`{w}` report_sha256 {'equal' if same else 'DIFFERS'} on "
                  f"{len(seeds)} pair(s)")
    return 0


def _minor(versions: Dict[str, str]) -> Dict[str, str]:
    """``{"python": "3.11.7", ...}`` -> ``{"python": "3.11", ...}``."""
    return {name: ".".join(v.split(".")[:2]) for name, v in versions.items()}


def check(seed: int) -> int:
    with open(LATEST) as fh:
        committed = json.load(fh)
    bound = next(m["bound"] for m in _spec()["end_to_end"]
                 if m["name"] == "py_calls_per_unit")
    results = _results(ROOT, seed)
    if not results:
        raise SystemExit("no result files: run benchmarks/e2e/run.py first")
    worse = gated_any = 0
    for workload, result in results.items():
        row = committed[workload]
        here = result["metrics"]["py_calls_per_unit"]["value"]
        base = row["metrics"]["py_calls_per_unit"]["median"]
        gated = _minor(result["extras"]["versions"]) == _minor(row["versions"])
        over = here > base * (1 + bound)
        print(f"{workload}: py_calls_per_unit {here:.3f} vs committed {base:.3f} "
              f"({here / base:.4f}x of it, bound +{100 * bound:g} %) "
              f"{'OVER' if over else 'ok'}"
              f"{'' if gated else ' [report only: versions differ from the row]'}; "
              f"wall_s {result['metrics']['wall_s']['value']:.3f} s vs "
              f"{row['metrics']['wall_s']['median']:.3f} s [report only]")
        worse += over and gated
        gated_any += gated
    if not gated_any:
        print(f"no workload was gated: this run's {result['extras']['versions']} "
              f"and the committed row's {row['versions']} differ in major.minor; "
              f"run with the row's versions or record a new row")
        return 2
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="measure checkouts, append rows")
    rec.add_argument("--checkout", action="append", metavar="DIR",
                     help="checkout to measure (repeatable; default: this one; "
                          "with several, runs alternate and the last is 'latest')")
    rec.add_argument("--label", action="append", metavar="TEXT",
                     help="one per --checkout, e.g. 'PR 16 parent'")
    rec.add_argument("--seeds", default="0",
                     help="comma-separated workload seeds, one run each")
    chk = sub.add_parser("check", help="py_calls_per_unit vs the committed row")
    chk.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "check":
        return check(args.seed)
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]
    labels = args.label or [os.path.basename(c) for c in checkouts]
    if len(labels) != len(checkouts):
        parser.error("give one --label per --checkout")
    return record(checkouts, labels, [int(s) for s in args.seeds.split(",")])


if __name__ == "__main__":
    sys.exit(main())

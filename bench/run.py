"""lobsterctrl benchmark.

    python3 bench/run.py --workload {sweep,large,minimality} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in its own process
(bench/worker.py) that imports the package from ./src.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics
(setup_s, items_per_s, item_p50_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of a run with span tracing on.  The run record,
including the machine it ran on, also goes to .bench_out/.  See
bench/README.md for what each workload measures and why.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep", "large", "minimality")
SETUPS = 3  # processes whose set-up time is measured; setup_s is their median
DEADLINE_S = 170.0  # the whole command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + extra
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        units = per_layer_units()
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        res = run_worker(args, ["--spans", spans], deadline)
        metrics = {k: {"value": res["layers"].get(k, 0), "unit": u} for k, u in units.items()}
    else:
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
        res = run_worker(args, [], deadline)
        setups.append(res["setup_s"])
        res["setup_s_runs"] = setups
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("machine " + json.dumps(res["machine"]))
    for problem in res["problems"]:
        print("problem " + problem)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steadiness.py [--seeds 10] [--workloads a,b]

Runs the command in BENCHMARK.json once per (set, seed, workload) for two
sets, with workloads interleaved so that a slow spell of the host touches
all of them, and echoes each run's report (provenance, shape, every
end-to-end metric with its unit and sample count, failures).  Then, for
every end-to-end metric and workload, it prints the median and spread
(interquartile range over median, as `statistics.quantiles(values, n=4)`
gives the quartiles) of each set, and how far the second set's median
moved from the first's, both as shares.  Status per row:

    ok          spreads within a third of the bound, medians within the bound
    noisy       a spread above a third of the bound but within it
    unresolved  a spread wider than the bound
    shifted     the second set's median worse than the first's by more than the bound

`setup_s` spreads are reported but not judged, as the bound on set-up
time applies to its median only.  Every run must report `correct`; a
run that does not is listed and fails the check.  Raw values go to
`--out` (JSON).  Exit code 0 only if every row is ok or noisy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative when better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "rc": proc.returncode, "took_s": took,
            "result": result, "report": lines[:-1] if result else lines,
            "failures": [ln for ln in lines if ln.startswith("FAILED")]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=str(ROOT / ".perfbench-steadiness.json"))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = []
    for s in (0, 1):
        for seed in range(args.seeds):
            for w in workloads:
                r = run_once(spec, w, seed)
                r["set"] = s
                runs.append(r)
                res = r["result"]
                print("\n".join(r["report"]))
                print(f"set {s} seed {seed} {w}: rc {r['rc']} "
                      f"correct {res and res['correct']} took {r['took_s']:.1f} s\n", flush=True)
                Path(args.out).write_text(json.dumps(runs, indent=1))

    bad = [r for r in runs if not (r["result"] and r["result"]["correct"])]
    for r in bad:
        print(f"NOT CORRECT set {r['set']} seed {r['seed']} {r['workload']} rc {r['rc']}")
        for line in r["failures"]:
            print("  " + line)
    ok = not bad
    print(f"{'workload':17s} {'metric':24s} {'bound':>6s} "
          + " ".join(f"{'med' + str(s):>10s} {'spr' + str(s):>6s}" for s in (0, 1))
          + f" {'moved':>7s}  status")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["result"]["metrics"][name]["value"] for r in runs
                     if r["workload"] == w and r["set"] == s and r["result"]]
                    for s in (0, 1)]
            if any(len(v) < 2 for v in sets):
                continue
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            moved = worse_by(meds[0], meds[1], m["better"])
            judged = [] if name == "setup_s" else spreads
            if any(x > bound for x in judged):
                status = "unresolved"
            elif moved > bound:
                status = "shifted"
            elif any(x > bound / 3 for x in judged):
                status = "noisy"
            else:
                status = "ok"
            ok &= status in ("ok", "noisy")
            print(f"{w:17s} {name:24s} {bound:6.2f} "
                  + " ".join(f"{md:10.4g} {sp:6.3f}" for md, sp in zip(meds, spreads))
                  + f" {moved:7.3f}  {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

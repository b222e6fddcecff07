"""Print each pipeline command's own peak RSS on a benchmark workload.

    python3 tools/peak_rss.py --workload NAME --seed N

Run from anywhere inside a checkout.  The workload's inputs are generated
at the seed by perfbench/workloads.py in a child process, which also
draws one query.  Then each command of perfbench/run.py's `commands`
(build-balls, verify-balls, both prepares, train, eval) and that query
run once, in that order, each in a fresh `python -m ballwsd` process
with this tree's `src/` and run.py's child environment (one BLAS
thread).  A child's peak RSS (`ru_maxrss`) starts at the high-water mark
of the process that launched it, so this launcher imports no numpy and
generates nothing itself: each number printed, read from `os.wait4`, is
the command's own peak.  The generator child's own peak is printed too:
run.py's `peak_rss_mb` is read under run.py, which generates the inputs
in its own process (at least three times), so no command can read below
that mark there; the generator's peak is a floor under it.
Heap layout alone moves a command's reading by about 1.5 MiB (binding
one more name in a module it imports has done so), so one reading per
side is no gate for a difference under ~2 MiB: compare several runs.
The last stdout line is JSON: workload, seed, each command's peak and
the generator's peak in MiB.  Exit status: 0 when every command exits 0,
1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import child_env, commands, query_argv  # noqa: E402

# run in a child: generate the inputs into argv[3], print what the commands need
GENERATE = """
import json, sys
import numpy as np
from workloads import WORKLOADS, draw_queries
seed = int(sys.argv[2])
inputs = WORKLOADS[sys.argv[1]](seed, sys.argv[3])
query = draw_queries(np.random.default_rng([seed, 7]), inputs.parent, 1)[0]
print(json.dumps({"train_config": inputs.train_config, "levels": inputs.levels,
                  "query": query[:2]}))
"""


def peak(argv: list[str], cwd: Path, env) -> tuple[int, float, str, str]:
    """(exit code, peak RSS in MiB, stdout, stderr) of one child process."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0,
            (cwd / "stdout.txt").read_text(), (cwd / "stderr.txt").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    env = child_env()
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        (work / "pass").mkdir()
        code, generator_mb, stdout, err = peak(
            [sys.executable, "-c", GENERATE, args.workload, str(args.seed), str(work / "inputs")],
            work, dict(env, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), env["PYTHONPATH"]])))
        if code != 0:
            print(err, end="", file=sys.stderr)
            return 1
        print(f"{'generate':14s} {generator_mb:8.1f} MiB  floor under run.py's peak_rss_mb")
        made = json.loads(stdout)
        inputs = SimpleNamespace(train_config=made["train_config"], levels=made["levels"])
        argvs = {key: cmd for key, (_, cmd, _) in commands(inputs, "").items()}
        argvs["query"] = query_argv("", made["query"])
        peaks, failed = {}, []
        for key, cmd in argvs.items():
            code, mib, _, err = peak([sys.executable, "-m", "ballwsd", *cmd], work / "pass", env)
            peaks[key] = round(mib, 1)
            print(f"{key:14s} {mib:8.1f} MiB  exit {code}")
            if code != 0:
                failed.append(key)
                print(err, end="", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "peak_rss_mb": peaks,
                      "generator_peak_rss_mb": round(generator_mb, 1)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

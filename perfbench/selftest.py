"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workloads a,b] [--seconds 1]

1. In this process: installing the tracer rewraps every function in
   tracer.SPANS in its defining module and under each name a caller looks
   it up by (CALLER_BINDINGS); uninstalling leaves every attribute of
   every `ballwsd` module the same object it was before.
2. Per workload: one `run.py --trace 1` run must report `correct`.  That
   run fails unless every span fires in every traced pass, every command
   process restored the originals, and the traced outputs hash the same
   as the untraced pass.

Exit code 0 when everything holds; each problem is printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# names that callers import or look up in their own module globals
CALLER_BINDINGS = (
    ("ballwsd.cli", "load_inventory"), ("ballwsd.cli", "load_embeddings"),
    ("ballwsd.cli", "construct_balls"), ("ballwsd.cli", "verify_configuration"),
    ("ballwsd.cli", "load_balls"), ("ballwsd.cli", "predict_records"),
    ("ballwsd.cli", "deduction_query"), ("ballwsd.cli", "train"),
    ("ballwsd.construct", "verify_configuration"),
    ("ballwsd.evaluator", "select_sense"), ("ballwsd.evaluator", "candidate_set"),
    ("ballwsd.evaluator", "embed_records"), ("ballwsd.evaluator", "forward_batch"),
    ("ballwsd.encoder", "batch_loss_and_grads"), ("ballwsd.encoder", "prepare_arrays"),
    ("ballwsd.encoder", "embed_records"),
)


def check_in_process() -> list[str]:
    from tracer import SPANS, Tracer
    import ballwsd.cli  # noqa: F401  (loads every module)

    def snapshot():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("ballwsd") for attr, value in vars(mod).items()}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    problems = []
    bindings = [(f"ballwsd.{m}", f) for m, fns in SPANS.items() for f in fns]
    for modname, attr in [*bindings, *CALLER_BINDINGS]:
        if getattr(sys.modules[modname], attr) is before[(modname, attr)]:
            problems.append(f"{modname}.{attr} is not wrapped after install")
    problems += [f"{name} not restored" for name in tracer.uninstall()]
    after = snapshot()
    problems += [f"{m}.{a} differs after uninstall" for (m, a), v in before.items()
                 if after.get((m, a)) is not v]
    return problems


def check_workload(workload: str, seconds: float) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    problems = [f"{workload}: {ln}" for ln in lines if ln.startswith("FAILED")]
    if not json.loads(lines[-1])["correct"] and not problems:
        problems.append(f"{workload}: traced run not correct")
    return problems


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    problems = check_in_process()
    for w in args.workloads.split(","):
        problems += check_workload(w, args.seconds)
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

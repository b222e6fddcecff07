"""End-to-end benchmark of the ballwsd batch pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` and nothing is installed.  One client drives a closed loop: each
command runs in a fresh `python -m ballwsd` process and the next starts
when it has exited.  The run starts with one pass, the whole pipeline on
the workload's inputs in a fresh directory:

    build-balls, verify-balls, prepare (train corpus, level 0),
    prepare (held-out corpus, every level), train, eval,
    QUERIES_PER_PASS x query

Until `--seconds` have passed since that pass began, single commands
follow, each in a fresh directory and reading the first pass's outputs.
Each goes to the stage with the least time measured so far (a command
shorter than MIN_CHARGE_S counts as that long), alternating a stage's
commands, and a query asks a new pair.  So every stage is sampled
throughout the window and gets a like share of it, and a slow spell of
the host touches all stages alike.  Every workload runs every command,
so every metric exists on every workload; the workloads differ in which
stage dominates (see workloads.py and BENCHMARK.json).  Each command's
time is its median over its runs; a stage's time sums its commands
(`prepare_s` covers both prepares), `query_s` is the median of all
queries, and `pipeline_s` is the stages plus QUERIES_PER_PASS queries.
Inputs are generated from the seed into a fresh directory before the
first command, repeatedly (SETUP_MIN_S, SETUP_REPEATS), and `setup_s`
is the median.

Checks, each one operation of `attempted`:
  * every command exits 0;
  * every `query` answer equals the generator's ancestor relation
    (a mix of ancestor, sibling and unrelated pairs);
  * the output sha256 sums in the `manifest-*.json` a command writes are
    the same as in the first pass (reruns and traced passes included).
Failed operations are listed on stdout and make `correct` false;
`fail_rate` (failed / attempted) is printed with the metrics and carried
by `attempted` and `failed` in the JSON, as it reads 0 on a healthy run.
The shape line adds the smallest ball radius built and the epsilon it
was verified with.

With `--trace 1` the first pass runs untraced and whole passes, at least
one, run through traced.py in the rest of the window; traced.py wraps
each layer's entry points (tracer.py), and the per-layer metrics are
medians over the traced passes.  Every span in tracer.SPAN_NAMES must
fire in every traced pass, every patched name must be restored when the
command ends, and traced outputs must hash the same as the untraced
pass.  `trace.overhead_s` is the traced
pipeline time minus the untraced one.

BLAS is pinned to one thread in every command (OPENBLAS_NUM_THREADS etc.)
so that timings do not depend on how many cores happen to be idle.  The
last stdout line is the JSON result; everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

# set-up repeats until it has run SETUP_MIN_S, at least 3 and at most 20 times
SETUP_MIN_S = 2.0
SETUP_REPEATS = (3, 20)
QUERIES_PER_PASS = 4
# a command shorter than this counts as this long against its stage's
# share of the window: short stages get more samples, not all the window
MIN_CHARGE_S = 1.0
DEADLINE_S = 170.0   # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "build_balls_s": "s", "verify_balls_s": "s",
    "prepare_s": "s", "train_s": "s", "eval_s": "s", "query_s": "s",
    "train_samples_per_s": "1/s", "eval_predictions_per_s": "1/s",
    "peak_rss_mb": "MiB", "f1_l0": "ratio", "f1_l1": "ratio",
}

PER_LAYER = {
    "inventory.load_s": "s", "inventory.nodes": "count", "inventory.dropped_edges": "count",
    "embeddings.load_s": "s", "embeddings.load_calls": "count", "embeddings.rows_per_s": "1/s",
    "construct.self_s": "s", "construct.balls": "count",
    "geometry.verify_s": "s", "geometry.verify_calls": "count",
    "geometry.pairs_checked": "count", "geometry.verify_us_per_pair": "us",
    "geometry.save_balls_s": "s", "geometry.load_balls_s": "s",
    "geometry.load_balls_calls": "count",
    "corpus.parse_s": "s", "corpus.parse_records": "count", "corpus.lift_s": "s",
    "corpus.kept_ratio": "ratio", "corpus.save_s": "s",
    "encoder.prepare_arrays_s": "s", "encoder.step_s": "s", "encoder.steps": "count",
    "encoder.step_us_p50": "us", "encoder.update_s": "s", "encoder.embed_records_s": "s",
    "encoder.forward_batch_s": "s", "encoder.checkpoint_save_s": "s",
    "encoder.checkpoint_load_s": "s",
    "selector.candidate_set_s": "s", "selector.select_s": "s", "selector.select_calls": "count",
    "selector.candidates_per_call": "count", "selector.deduction_s": "s",
    "evaluator.predict_self_s": "s", "evaluator.score_s": "s", "evaluator.attempted_ratio": "ratio",
    "cli.main_s": "s", "cli.manifest_s": "s", "cli.process_overhead_s": "s",
    "trace.overhead_s": "s",
}

STAGES = ("build_balls", "verify_balls", "prepare", "train", "eval")


# ---------------------------------------------------------------------------
# one command

def run_command(argv, cwd: Path, env, deadline: float, spans: Path | None = None) -> dict:
    """Run one command to completion; wall time, exit code, peak RSS, output."""
    if spans is None:
        cmd = [sys.executable, "-m", "ballwsd", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), *argv]
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")}


def commands(inputs, up: str) -> dict[str, tuple[str, list[str], str | None]]:
    """key -> (stage, arguments, manifest it writes) for each pipeline command
    but `query`.  Paths are relative to the command's directory; `up` leads
    to the outputs of earlier commands: "" inside a pass, "../pass-0/" for
    a rerun."""
    inv, emb = "../inputs/inventory.tsv", "../inputs/embeddings.txt"
    balls = f"{up}balls/balls.tsv"
    train_sets = [a for k, v in inputs.train_config.items() for a in ("--set", f"{k}={v}")]
    return {
        "build-balls": ("build_balls", ["build-balls", "--inventory", inv, "--embeddings", emb,
                                        "--out", "balls"], "balls/manifest-build-balls.json"),
        "verify-balls": ("verify_balls", ["verify-balls", "--balls", balls, "--inventory", inv],
                         None),
        "prepare-train": ("prepare", ["prepare", "--corpus", "../inputs/corpus-train.tsv",
                                      "--inventory", inv, "--balls", balls, "--out", "train-data",
                                      "--set", "levels=0"], "train-data/manifest-prepare.json"),
        "prepare-test": ("prepare", ["prepare", "--corpus", "../inputs/corpus-test.tsv",
                                     "--inventory", inv, "--balls", balls, "--out", "test-data",
                                     "--set", f"levels={inputs.levels}"],
                         "test-data/manifest-prepare.json"),
        "train": ("train", ["train", "--corpus", f"{up}train-data/dataset-l0.tsv",
                            "--embeddings", emb, "--balls", balls, "--out", "model",
                            "--set", "seed=0", *train_sets], "model/manifest-train.json"),
        "eval": ("eval", ["eval", "--data", f"{up}test-data", "--checkpoint",
                          f"{up}model/checkpoint.json", "--inventory", inv, "--embeddings", emb,
                          "--balls", balls, "--out", "eval", "--set", f"levels={inputs.levels}"],
                 "eval/manifest-eval.json"),
    }


def query_argv(up: str, query) -> list[str]:
    return ["query", "--balls", f"{up}balls/balls.tsv", query[0], query[1]]


# ---------------------------------------------------------------------------
# one pass

def read_report(pass_dir: Path) -> dict[int, tuple[float, int]]:
    """level -> (F1, records attempted) from eval/report.tsv."""
    path = pass_dir / "eval" / "report.tsv"
    if not path.is_file():
        return {}
    rows = [line.split("\t") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return {int(r[1]): (float(r[4]), int(r[5])) for r in rows}


def radius_headroom(pass_dir: Path) -> dict:
    """Smallest ball radius built, next to the epsilon it was built with."""
    balls = pass_dir / "balls" / "balls.tsv"
    manifest = pass_dir / "balls" / "manifest-build-balls.json"
    if not (balls.is_file() and manifest.is_file()):
        return {}
    with open(balls, encoding="utf-8") as fh:
        smallest = min(float(line.split("\t", 2)[1]) for line in fh if not line.startswith("#"))
    return {"min_ball_radius": smallest,
            "epsilon": json.loads(manifest.read_text())["config"]["epsilon"]}


def count_lines(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def run_one(key, stage, argv, manifest, cwd: Path, env, deadline, query=None,
            spans: Path | None = None) -> dict:
    """One command, with what the checks and metrics read from it."""
    if time.monotonic() > deadline:
        res = {"wall": None, "rc": None, "rss_mb": 0.0, "stdout": "", "stderr": ""}
    else:
        res = run_command(argv, cwd, env, deadline, spans)
    res.update(key=key, stage=stage, argv=argv, query=query)
    if spans is not None:
        res["trace"] = json.loads(spans.read_text()) if spans.is_file() else None
    if manifest is not None:
        path = cwd / manifest
        res["outputs"] = json.loads(path.read_text())["outputs"] if path.is_file() else None
    return res


def run_pass(k: int, work: Path, inputs, queries, env, deadline, traced: bool) -> dict:
    """The pipeline once, in a fresh directory."""
    pass_dir = work / f"pass-{k}"
    pass_dir.mkdir()
    cmds = [(key, stage, argv, manifest, None)
            for key, (stage, argv, manifest) in commands(inputs, "").items()]
    cmds += [("query", "query", query_argv("", q), None, q) for q in queries]
    results = []
    for pos, (key, stage, argv, manifest, query) in enumerate(cmds):
        spans = pass_dir / f"spans-{pos}.json" if traced else None
        res = run_one(key, stage, argv, manifest, pass_dir, env, deadline, query, spans)
        res["label"] = f"pass {k}"
        results.append(res)
    return {"commands": results, "report": read_report(pass_dir),
            "radius": radius_headroom(pass_dir),
            "train_records": count_lines(pass_dir / "train-data" / "dataset-l0.tsv")}


def rerun(k: int, stage: str, work: Path, inputs, query, runs: Counter, env,
          deadline) -> dict:
    """One more command of `stage`, in a fresh directory, reading the
    outputs of pass 0: `query` for that stage, else the stage's command
    run least so far."""
    cwd = work / f"rerun-{k}"
    cwd.mkdir()
    if stage == "query":
        key, argv, manifest = "query", query_argv("../pass-0/", query), None
    else:
        cmds = commands(inputs, "../pass-0/")
        key = min((name for name, cmd in cmds.items() if cmd[0] == stage),
                  key=lambda name: runs[name])
        _, argv, manifest = cmds[key]
    res = run_one(key, stage, argv, manifest, cwd, env, deadline, query)
    res["label"] = f"rerun {k}"
    shutil.rmtree(cwd, ignore_errors=True)
    return res


def check(results: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Operations attempted and a line per failed one.

    `reference` maps a command's key to the output hashes of its first
    run in the benchmark; later runs are compared with it.
    """
    attempted, failures = 0, []
    for res in results:
        attempted += 1
        label = res["label"]
        cmd = "ballwsd " + " ".join(res["argv"])
        if res["rc"] != 0:
            if res["rc"] is None:
                failures.append(f"{label}: not run, deadline passed: {cmd}")
            else:
                last = (res["stderr"].strip().splitlines() or [""])[-1]
                failures.append(f"{label}: exit {res['rc']}: {cmd}: {last}")
        if res["query"] is not None:
            a, b, truth = res["query"]
            attempted += 1
            got = res["stdout"].strip()
            if got != ("yes" if truth else "no"):
                failures.append(f"{label}: query {a} {b} answered {got!r}, "
                                f"generator says {'yes' if truth else 'no'}")
        if "outputs" in res:
            if res["key"] not in reference:
                reference[res["key"]] = res["outputs"]
            else:
                attempted += 1
                if res["outputs"] is None or res["outputs"] != reference[res["key"]]:
                    failures.append(f"{label}: outputs of {cmd} hash differently "
                                    "from its first run")
    return attempted, failures


# ---------------------------------------------------------------------------
# metrics

def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(results: list[dict], first: dict, setup_times: list[float],
               epochs: int) -> dict[str, tuple[float, int]]:
    """name -> (value, samples).  A stage's time is the sum over its
    commands of each command's median; pipeline_s adds the stages and
    QUERIES_PER_PASS median queries.  `first` is the first pass, whose
    report and training set give the counts."""
    walls = defaultdict(list)
    for c in results:
        if c["wall"] is not None:
            walls[(c["stage"], c["key"])].append(c["wall"])
    stage = {s: sum(median(w) for (st, _), w in walls.items() if st == s) for s in STAGES}
    runs = {s: min((len(w) for (st, _), w in walls.items() if st == s), default=0)
            for s in STAGES}
    queries = walls[("query", "query")]
    query_s = median(queries)
    return {
        "setup_s": (median(setup_times), len(setup_times)),
        "pipeline_s": (sum(stage.values()) + QUERIES_PER_PASS * query_s, min(runs.values())),
        "build_balls_s": (stage["build_balls"], runs["build_balls"]),
        "verify_balls_s": (stage["verify_balls"], runs["verify_balls"]),
        "prepare_s": (stage["prepare"], runs["prepare"]),
        "train_s": (stage["train"], runs["train"]),
        "eval_s": (stage["eval"], runs["eval"]),
        "query_s": (query_s, len(queries)),
        "train_samples_per_s": (_ratio(first["train_records"] * epochs,
                                       stage["train"]), runs["train"]),
        "eval_predictions_per_s": (_ratio(sum(n for _, n in first["report"].values()),
                                          stage["eval"]), runs["eval"]),
        "peak_rss_mb": (max(c["rss_mb"] for c in results), len(results)),
        "f1_l0": (first["report"].get(0, (0.0, 0))[0], 1),
        "f1_l1": (first["report"].get(1, (0.0, 0))[0], 1),
    }


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the pipeline once).

    Times sum a layer's spans over every command of the pass; `self_s`,
    `update_s` (`encoder.train`) and `predict_self_s` subtract the spans
    nested inside.  Calls and counts sum over the pass, except
    `inventory.*` (one inventory) and `geometry.verify_calls`, which is
    verify_configuration calls per build-balls command.
    `cli.process_overhead_s` is the commands' wall time minus their
    `cli.main` spans: interpreter start, imports and exit.
    """
    total, calls, self_time = defaultdict(float), Counter(), defaultdict(float)
    counts, last = Counter(), {}
    steps = []
    overhead = verify_in_build = builds = 0.0
    for res in p["commands"]:
        spans = res["trace"]["spans"] if res.get("trace") else []
        child = [0.0] * len(spans)
        for name, parent, t0, t1, cnt in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1, cnt) in enumerate(spans):
            total[name] += t1 - t0
            calls[name] += 1
            self_time[name] += t1 - t0 - child[i]
            for key, v in (cnt or {}).items():
                counts[f"{name}:{key}"] += v
            if cnt:
                last[name] = cnt
            if name == "encoder.batch_loss_and_grads":
                steps.append(t1 - t0)
        overhead += (res["wall"] or 0.0) - sum(t1 - t0 for name, _, t0, t1, _ in spans
                                      if name == "cli.main")
        if res["stage"] == "build_balls":
            builds += 1
            verify_in_build += sum(1 for s in spans if s[0] == "geometry.verify_configuration")
    emb, ver = "embeddings.load_embeddings", "geometry.verify_configuration"
    inv = last.get("inventory.load_inventory", {})
    return {
        "inventory.load_s": total["inventory.load_inventory"],
        "inventory.nodes": inv.get("nodes", 0),
        "inventory.dropped_edges": inv.get("dropped_edges", 0),
        "embeddings.load_s": total[emb],
        "embeddings.load_calls": calls[emb],
        "embeddings.rows_per_s": _ratio(counts[f"{emb}:rows"], total[emb]),
        "construct.self_s": self_time["construct.construct_balls"],
        "construct.balls": counts["construct.construct_balls:balls"],
        "geometry.verify_s": total[ver],
        "geometry.verify_calls": _ratio(verify_in_build, builds),
        "geometry.pairs_checked": counts[f"{ver}:pairs"],
        "geometry.verify_us_per_pair": 1e6 * _ratio(total[ver], counts[f"{ver}:pairs"]),
        "geometry.save_balls_s": total["geometry.save_balls"],
        "geometry.load_balls_s": total["geometry.load_balls"],
        "geometry.load_balls_calls": calls["geometry.load_balls"],
        "corpus.parse_s": total["corpus.parse_annotated_corpus"],
        "corpus.parse_records": counts["corpus.parse_annotated_corpus:records"],
        "corpus.lift_s": total["corpus.lift_to_level"],
        "corpus.kept_ratio": _ratio(counts["corpus.lift_to_level:kept"],
                                    counts["corpus.lift_to_level:offered"]),
        "corpus.save_s": total["corpus.save_records"],
        "encoder.prepare_arrays_s": total["encoder.prepare_arrays"],
        "encoder.step_s": total["encoder.batch_loss_and_grads"],
        "encoder.steps": calls["encoder.batch_loss_and_grads"],
        "encoder.step_us_p50": 1e6 * median(steps),
        "encoder.update_s": self_time["encoder.train"],
        "encoder.embed_records_s": total["encoder.embed_records"],
        "encoder.forward_batch_s": total["encoder.forward_batch"],
        "encoder.checkpoint_save_s": total["encoder.save_encoder"],
        "encoder.checkpoint_load_s": total["encoder.load_encoder"],
        "selector.candidate_set_s": total["selector.candidate_set"],
        "selector.select_s": total["selector.select_sense"],
        "selector.select_calls": calls["selector.select_sense"],
        "selector.candidates_per_call": _ratio(counts["selector.select_sense:candidates"],
                                               calls["selector.select_sense"]),
        "selector.deduction_s": total["selector.deduction_query"],
        "evaluator.predict_self_s": self_time["evaluator.predict_records"],
        "evaluator.score_s": total["evaluator.score"],
        "evaluator.attempted_ratio": _ratio(counts["evaluator.predict_records:attempted"],
                                            counts["evaluator.predict_records:gold"]),
        "cli.main_s": total["cli.main"],
        "cli.manifest_s": total["cli.write_manifest"],
        "cli.process_overhead_s": overhead,
    }


def trace_failures(p: dict, label: str, span_names) -> list[str]:
    fired, failures = set(), []
    for res in p["commands"]:
        if res.get("trace") is None:
            failures.append(f"{label}: no spans written by ballwsd {' '.join(res['argv'])}")
            continue
        fired.update(s[0] for s in res["trace"]["spans"])
        for name in res["trace"]["not_restored"]:
            failures.append(f"{label}: {name} still wrapped after the command")
    failures += [f"{label}: span {name} never fired" for name in span_names if name not in fired]
    return failures


# ---------------------------------------------------------------------------
# provenance

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, env) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        blas_lib = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "git_commit": git_commit(), "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_lib, "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
    }


# ---------------------------------------------------------------------------
# entry point

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "ballwsd" / "__init__.py").is_file():
        print(f"no ballwsd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from tracer import SPAN_NAMES
    from workloads import WORKLOADS, draw_queries
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = child_env()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        while (len(setup_times) < SETUP_REPEATS[0]
               or sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_REPEATS[1]):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            (work / "inputs").mkdir()
            t0 = time.perf_counter()
            inputs = WORKLOADS[args.workload](args.seed, str(work / "inputs"))
            setup_times.append(time.perf_counter() - t0)

        rng = np.random.default_rng([args.seed, 7])
        window_end = time.monotonic() + args.seconds
        passes = [run_pass(0, work, inputs, draw_queries(rng, inputs.parent, QUERIES_PER_PASS),
                           env, deadline, traced=False)]
        results = list(passes[0]["commands"])  # untraced commands, timed
        if args.trace:
            # traced passes fill the window, at least one
            first_s = sum(c["wall"] or 0.0 for c in results)
            while len(passes) < 2 or (time.monotonic() + first_s / 2 < window_end
                                      and time.monotonic() + 1.5 * first_s < deadline):
                queries = draw_queries(rng, inputs.parent, QUERIES_PER_PASS)
                passes.append(run_pass(len(passes), work, inputs, queries, env, deadline,
                                       traced=True))
        else:
            # single commands fill the window; each goes to the stage with
            # the least time measured so far (`fresh`: commands not yet counted)
            spent, runs, longest = Counter(), Counter(), Counter()
            fresh = results
            while True:
                for c in fresh:
                    spent[c["stage"]] += max(c["wall"] or 0.0, MIN_CHARGE_S)
                    runs[c["key"]] += 1
                    longest[c["stage"]] = max(longest[c["stage"]], c["wall"] or 0.0)
                stage = min((*STAGES, "query"), key=lambda st: spent[st])
                now = time.monotonic()
                if now >= window_end or now + 1.5 * longest[stage] > deadline:
                    break
                query = draw_queries(rng, inputs.parent, 1)[0] if stage == "query" else None
                fresh = [rerun(len(results), stage, work, inputs, query, runs, env, deadline)]
                results += fresh

        traced_passes = passes[1:]
        attempted, failures = check(results + [c for p in traced_passes for c in p["commands"]],
                                    {})
        for p in traced_passes:
            failures += trace_failures(p, p["commands"][0]["label"], SPAN_NAMES)
        e2e = end_to_end(results, passes[0], setup_times, inputs.train_config["epochs"])

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"commands {len(results)} untraced + {len(traced_passes)} traced passes  "
              f"window {args.seconds:g} s")
        print("provenance " + json.dumps(provenance(args.workload, args.seed, env)))
        print("shape " + json.dumps({**inputs.shape, **passes[0]["radius"]}))
        print(f"{'metric':34s} {'value':>14s}  {'unit':6s} samples")
        for name, (value, n) in e2e.items():
            print(f"{name:34s} {value:14.6g}  {END_TO_END[name]:6s} {n}")
        failed = len(failures)
        print(f"{'fail_rate':34s} {_ratio(failed, attempted):14.6g}  {'ratio':6s} {attempted}"
              f"  ({failed} of {attempted} operations failed)")
        if args.trace:
            per_pass = [layer_metrics(p) for p in traced_passes]
            layers = {name: median([m[name] for m in per_pass]) for name in PER_LAYER
                      if name != "trace.overhead_s"}
            layers["trace.overhead_s"] = (
                median([sum(c["wall"] or 0.0 for c in p["commands"]) for p in traced_passes])
                - e2e["pipeline_s"][0])
            for name, value in layers.items():
                print(f"{name:34s} {value:14.6g}  {PER_LAYER[name]:6s} {len(per_pass)}")
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
        for line in failures:
            print("FAILED " + line)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Check that this tree's pipeline writes the same bytes as a git ref's.

    python3 tools/same_bytes.py REF

Run from anywhere inside a checkout.  REF's files are extracted with
`git archive` into a temporary directory; nothing in the repository
changes.  For each benchmark workload the inputs are generated once at
seed 0 by perfbench/workloads.py, then the benchmark's pipeline
(perfbench/run.py `commands`: build-balls, verify-balls, both prepares,
train with the workload's training keys, eval), QUERIES_PER_PASS seeded
queries and show-config run once with REF's `src/` and once with this tree's, from
sibling directories that read the same inputs by the same relative
paths.  Then the tree's balls.tsv is copied into inputs/ with every
FAULT_EVERY-th radius times FAULT_SCALE, and verify-balls runs on that
copy with both, so violation order and slack text are compared too.
Every written file, exit code, stdout and stderr that differs is listed.
Exit status: 0 when nothing differs, 1 when something does, 2 when REF
cannot be extracted.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from run import QUERIES_PER_PASS, child_env, commands, query_argv  # noqa: E402
from workloads import WORKLOADS, draw_queries  # noqa: E402

FAULT_EVERY, FAULT_SCALE = 50, 50.0


def extract(ref: str, dest: Path) -> str:
    """Write REF's tree into dest; returns REF's commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return sha


def run_pipeline(src: Path, cwd: Path, argvs: list[list[str]]) -> list[tuple]:
    """(argv, exit code, stdout, stderr) of each command, run in order."""
    env = dict(child_env(), PYTHONPATH=str(src))
    cwd.mkdir(exist_ok=True)
    out = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "ballwsd", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        out.append((argv, proc.returncode, proc.stdout, proc.stderr))
    return out


def write_faulted(balls: Path, dest: Path) -> None:
    """Copy a ball file, multiplying every FAULT_EVERY-th ball's radius by
    FAULT_SCALE."""
    lines = balls.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for i in rows[FAULT_EVERY - 1::FAULT_EVERY]:
        sid, radius, coords = lines[i].split("\t")
        lines[i] = f"{sid}\t{'%.17g' % (float(radius) * FAULT_SCALE)}\t{coords}"
    dest.write_text("".join(lines), encoding="utf-8")


def files(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*"))
            if p.is_file()}


def compare(workload: str, ref_runs, tree_runs, ref_dir: Path, tree_dir: Path) -> list[str]:
    diffs = []
    for (argv, *ref), (_, *tree) in zip(ref_runs, tree_runs):
        for what, a, b in zip(("exit code", "stdout", "stderr"), ref, tree):
            if a != b:
                diffs.append(f"{workload}: {what} of `ballwsd {' '.join(argv)}`")
    ref_files, tree_files = files(ref_dir), files(tree_dir)
    for name in sorted(ref_files.keys() | tree_files.keys()):
        if ref_files.get(name) != tree_files.get(name):
            state = ("only at ref" if name not in tree_files else
                     "only in tree" if name not in ref_files else "bytes differ")
            diffs.append(f"{workload}: file {name} ({state})")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref to compare against, e.g. HEAD or a commit id")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        try:
            sha = extract(args.ref, tmp / "ref-tree")
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"cannot extract {args.ref!r}: {exc}", file=sys.stderr)
            return 2
        diffs = []
        for name, generate in WORKLOADS.items():
            work = tmp / name
            (work / "inputs").mkdir(parents=True)
            inputs = generate(0, str(work / "inputs"))
            queries = draw_queries(np.random.default_rng([0, 7]), inputs.parent,
                                   QUERIES_PER_PASS)
            argvs = [cmd for _, cmd, _ in commands(inputs, "").values()]
            argvs += [query_argv("", q) for q in queries] + [["show-config"]]
            ref_runs = run_pipeline(tmp / "ref-tree" / "src", work / "ref", argvs)
            tree_runs = run_pipeline(ROOT / "src", work / "tree", argvs)
            built = work / "tree" / "balls" / "balls.tsv"
            if built.is_file():
                write_faulted(built, work / "inputs" / "balls-faulted.tsv")
                verify = [["verify-balls", "--balls", "../inputs/balls-faulted.tsv",
                           "--inventory", "../inputs/inventory.tsv"]]
                argvs += verify
                ref_runs += run_pipeline(tmp / "ref-tree" / "src", work / "ref", verify)
                tree_runs += run_pipeline(ROOT / "src", work / "tree", verify)
            found = compare(name, ref_runs, tree_runs, work / "ref", work / "tree")
            n_files = len(files(work / "tree"))
            print(f"{name}: {len(argvs)} commands, {n_files} files written: "
                  + (f"{len(found)} differences" if found else "identical"))
            diffs += found
    for line in diffs:
        print("  " + line)
    print(f"{'same' if not diffs else 'different'} bytes as {args.ref} ({sha[:12]})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that this tree's pipeline writes the same bytes as a git ref's.

    python3 tools/same_bytes.py REF

Run from anywhere inside a checkout.  REF's files are extracted with
`git archive` into a temporary directory; nothing in the repository
changes.  First `ballwsd --help` and `ballwsd <command> --help`, for
every command in this tree's `cli.COMMANDS`, run under both trees, so a
lost flag or help string shows.  Then, for each benchmark workload, the
inputs are generated once at seed 0 by perfbench/workloads.py, and the
benchmark's pipeline (perfbench/run.py `commands`: build-balls,
verify-balls, both prepares, train with the workload's training keys,
eval), QUERIES_PER_PASS seeded queries, two queries that name the
unknown sense GHOST (as hyponym, then as hypernym, each beside the first
seeded query's other sense), the first seeded query again with its
senses' indices unpadded (x.n.1 for x.n.01, so arguments and ball ids
must meet in one key) and show-config run once with
REF's `src/` and once with this tree's, from sibling directories that
read the same inputs by the same relative paths.  Then each side's own
balls.tsv is copied to faulted-input/balls.tsv in its directory with
every FAULT_EVERY-th radius times FAULT_SCALE, and verify-balls runs on
that copy, so violation order and slack text are compared too.  Eight
more commands on altered inputs follow: eval on a copy of the tree's
test-data whose dataset-l1.tsv lacks its first record, so levels cannot
share one encoded batch; eval on a copy whose every OOV_EVERY-th record
has a context token replaced by OOV_WORD and every UPPER_EVERY-th
record one upper-cased, so the hashed OOV vectors and the lowercase
fallback are compared; eval on a copy whose every UNATTEMPTED_EVERY-th
record names the unknown sense GHOST as its original sense, so
unattempted records (skipped counts and missing prediction lines) are
compared; build-balls on a copy of embeddings.txt whose line
UNDERSCORE_LINE carries a `1_0` style token and whose line RAGGED_LINE
lacks its last coordinate; verify-balls on a copy of inventory.tsv that
opens with a two-node tail and ends with the 2-cycle that tail leads
into, so the node a cycle error names is compared; prepare on two
copies of corpus-test.tsv, one whose BAD_INDEX_RECORD-th record's index
points one past its sentence and one whose NO_TOKENS_RECORD-th record
has an empty token column, so the messages of the checks a record's
text meets are compared; and build-balls on a copy of inventory.tsv
with FOREST_PAIRS more roots, each over one leaf, so the co-roots (more
of them than code_width, so they share axes) are packed and verified.
Every written file, exit code, stdout and stderr that differs is listed,
a differing stdout or stderr with the first line where the sides part
(each cut to SHOW_CHARS characters); a file matches only when its bytes
are equal.
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
from ballwsd.cli import COMMANDS  # noqa: E402
from ballwsd.inventory import SenseId  # noqa: E402
from workloads import WORKLOADS, draw_queries  # noqa: E402

FAULT_EVERY, FAULT_SCALE = 50, 50.0
UNDERSCORE_LINE, RAGGED_LINE = 10, 20
OOV_EVERY, OOV_WORD, UPPER_EVERY = 7, "qqxoovqq", 11
UNATTEMPTED_EVERY = 5
BAD_INDEX_RECORD, NO_TOKENS_RECORD = 3, 5
FOREST_PAIRS = 20
SHOW_CHARS = 120
GHOST = "qqxghost.n.01"  # a sense no generated inventory has
# a tail qqxtail2 -> qqxtail1 -> into the 2-cycle qqxloopa <-> qqxloopb; with a
# one-node tail its parent, a cycle node, would be read first as a provisional
# root, and the first unreached node would be the node a cycle error names
TAIL_EDGES = "qqxtail2.n.01\tqqxtail1.n.01\n"
CYCLE_EDGES = ("qqxtail1.n.01\tqqxloopa.n.01\n"
               "qqxloopa.n.01\tqqxloopb.n.01\n"
               "qqxloopb.n.01\tqqxloopa.n.01\n")


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


def write_dropped(data: Path, dest: Path) -> None:
    """Copy a prepared dataset directory without dataset-l1.tsv's first record."""
    dest.mkdir()
    for path in sorted(data.glob("dataset-l*.tsv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if path.name == "dataset-l1.tsv":
            del lines[next(i for i, line in enumerate(lines) if not line.startswith("#"))]
        (dest / path.name).write_text("".join(lines), encoding="utf-8")


def write_records(data: Path, dest: Path, edit) -> None:
    """Copy a prepared dataset directory, editing every level file alike:
    the n-th record (from 1) of each becomes `edit(n, fields)`, its
    tab-separated fields rejoined."""
    dest.mkdir()
    for path in sorted(data.glob("dataset-l*.tsv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
        for n, i in enumerate(rows, start=1):
            lines[i] = "\t".join(edit(n, lines[i].rstrip("\n").split("\t"))) + "\n"
        (dest / path.name).write_text("".join(lines), encoding="utf-8")


def write_oov(data: Path, dest: Path) -> None:
    """Copy a prepared dataset directory: the token next to a record's
    first target index (before it, or after it at the sentence start)
    becomes OOV_WORD in every OOV_EVERY-th record and is upper-cased in
    every UPPER_EVERY-th."""
    def edit(n, fields):
        *head, idx, text = fields
        tokens, indices = text.split(" "), [int(k) for k in idx.split(",")]
        j = indices[0] - 1 if indices[0] else 1
        if j < len(tokens) and j not in indices:
            if n % OOV_EVERY == 0:
                tokens[j] = OOV_WORD
            if n % UPPER_EVERY == 0:
                tokens[j] = tokens[j].upper()
        return [*head, idx, " ".join(tokens)]
    write_records(data, dest, edit)


def write_unattempted(data: Path, dest: Path) -> None:
    """Copy a prepared dataset directory with every UNATTEMPTED_EVERY-th
    record's original sense (column 1 of a 3-column line, column 2 of a
    4-column one) replaced by GHOST, whose word no generated inventory
    has, so eval cannot attempt that record at any level."""
    def edit(n, fields):
        if n % UNATTEMPTED_EVERY == 0:
            fields[-3] = GHOST
        return fields
    write_records(data, dest, edit)


def write_ragged(table: Path, dest: Path) -> None:
    """Copy an embedding table with `_` between two digits of line
    UNDERSCORE_LINE's first coordinate and line RAGGED_LINE's last
    coordinate dropped."""
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    word, first, rest = lines[UNDERSCORE_LINE - 1].split(" ", 2)
    i = next(i for i in range(1, len(first)) if first[i - 1:i + 1].isdigit())
    lines[UNDERSCORE_LINE - 1] = f"{word} {first[:i]}_{first[i:]} {rest}"
    lines[RAGGED_LINE - 1] = lines[RAGGED_LINE - 1].rstrip("\n").rsplit(" ", 1)[0] + "\n"
    dest.write_text("".join(lines), encoding="utf-8")


def write_cyclic(inventory: Path, dest: Path) -> None:
    """Copy an inventory with TAIL_EDGES first and CYCLE_EDGES last."""
    text = inventory.read_text(encoding="utf-8")
    dest.write_text(TAIL_EDGES + text + CYCLE_EDGES, encoding="utf-8")


def write_forest(inventory: Path, dest: Path) -> None:
    """Copy an inventory with FOREST_PAIRS root-and-leaf pairs appended."""
    text = inventory.read_text(encoding="utf-8")
    dest.write_text(text + "".join(f"qqxroot{k}.n.01\t-\nqqxleaf{k}.n.01\tqqxroot{k}.n.01\n"
                                   for k in range(FOREST_PAIRS)), encoding="utf-8")


def write_bad_record(corpus: Path, dest: Path, n: int, edit) -> None:
    """Copy a corpus whose n-th record (from 1) becomes `edit(fields)`,
    its tab-separated fields rejoined."""
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    i = rows[n - 1]
    lines[i] = "\t".join(edit(lines[i].rstrip("\n").split("\t"))) + "\n"
    dest.write_text("".join(lines), encoding="utf-8")


def with_flags(argv: list[str], **flags: str) -> list[str]:
    """argv with the value after each `--flag` replaced."""
    argv = list(argv)
    for flag, value in flags.items():
        argv[argv.index(f"--{flag}") + 1] = value
    return argv


def files(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*"))
            if p.is_file()}


def first_difference(a: str, b: str) -> str:
    """The first line where two outputs part, each side cut to SHOW_CHARS
    characters; line ends count, so a lost trailing newline shows."""
    ref, tree = a.splitlines(keepends=True), b.splitlines(keepends=True)
    n = next((i for i, (x, y) in enumerate(zip(ref, tree)) if x != y), min(len(ref), len(tree)))

    def shown(lines):
        if n == len(lines):
            return "(no such line)"
        return repr(lines[n][:SHOW_CHARS]) + ("..." if len(lines[n]) > SHOW_CHARS else "")
    return f"    line {n + 1} at ref:  {shown(ref)}\n    line {n + 1} in tree: {shown(tree)}"


def compare(workload: str, ref_runs, tree_runs, ref_dir: Path, tree_dir: Path) -> list[str]:
    """What differs: exit codes, stdout, stderr and written files."""
    diffs = []
    for (argv, *ref), (_, *tree) in zip(ref_runs, tree_runs):
        for what, a, b in zip(("exit code", "stdout", "stderr"), ref, tree):
            if a != b:
                shown = "" if what == "exit code" else "\n" + first_difference(a, b)
                diffs.append(f"{workload}: {what} of `ballwsd {' '.join(argv)}`{shown}")
    ref_files, tree_files = files(ref_dir), files(tree_dir)
    for name in sorted(ref_files.keys() | tree_files.keys()):
        a, b = ref_files.get(name), tree_files.get(name)
        if a == b:
            continue
        state = ("only at ref" if b is None else "only in tree" if a is None else "bytes differ")
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
        helps = [["--help"]] + [[name, "--help"] for name in COMMANDS]
        diffs = compare("help",
                        run_pipeline(tmp / "ref-tree" / "src", tmp / "help-ref", helps),
                        run_pipeline(ROOT / "src", tmp / "help-tree", helps),
                        tmp / "help-ref", tmp / "help-tree")
        print(f"help: {len(helps)} commands: "
              + (f"{len(diffs)} differences" if diffs else "identical"))
        for name, generate in WORKLOADS.items():
            work = tmp / name
            (work / "inputs").mkdir(parents=True)
            inputs = generate(0, str(work / "inputs"))
            queries = draw_queries(np.random.default_rng([0, 7]), inputs.parent,
                                   QUERIES_PER_PASS)
            argvs = [cmd for _, cmd, _ in commands(inputs, "").values()]
            hypo, hyper, _ = queries[0]
            unknown = [(GHOST, hyper), (hypo, GHOST)]
            unpadded = [tuple("{}.{}.{}".format(*SenseId.parse(s)) for s in (hypo, hyper))]
            argvs += [query_argv("", q) for q in queries + unknown + unpadded] + [["show-config"]]
            ref_runs = run_pipeline(tmp / "ref-tree" / "src", work / "ref", argvs)
            tree_runs = run_pipeline(ROOT / "src", work / "tree", argvs)
            faulted = []
            for side in ("ref", "tree"):
                built = work / side / "balls" / "balls.tsv"
                if built.is_file():
                    (work / side / "faulted-input").mkdir()
                    write_faulted(built, work / side / "faulted-input" / "balls.tsv")
            if (work / "tree" / "faulted-input").is_dir():
                faulted.append(["verify-balls", "--balls", "faulted-input/balls.tsv",
                                "--inventory", "../inputs/inventory.tsv"])
            test_data = work / "tree" / "test-data"
            if test_data.is_dir():
                write_dropped(test_data, work / "inputs" / "test-data-dropped")
                write_oov(test_data, work / "inputs" / "test-data-oov")
                write_unattempted(test_data, work / "inputs" / "test-data-unattempted")
                for probe in ("dropped", "oov", "unattempted"):
                    faulted.append(with_flags(commands(inputs, "")["eval"][1],
                                              data=f"../inputs/test-data-{probe}",
                                              out=f"eval-{probe}"))
            write_ragged(work / "inputs" / "embeddings.txt",
                         work / "inputs" / "embeddings-faulted.txt")
            faulted.append(with_flags(commands(inputs, "")["build-balls"][1],
                                      embeddings="../inputs/embeddings-faulted.txt",
                                      out="balls-faulted"))
            write_cyclic(work / "inputs" / "inventory.tsv",
                         work / "inputs" / "inventory-cyclic.tsv")
            faulted.append(with_flags(commands(inputs, "")["verify-balls"][1],
                                      inventory="../inputs/inventory-cyclic.tsv"))
            corpus = work / "inputs" / "corpus-test.tsv"
            for probe, n, edit in (
                    ("bad-index", BAD_INDEX_RECORD,
                     lambda f: [*f[:-2], str(len(f[-1].split())), f[-1]]),
                    ("no-tokens", NO_TOKENS_RECORD, lambda f: [*f[:-1], ""])):
                write_bad_record(corpus, work / "inputs" / f"corpus-{probe}.tsv", n, edit)
                faulted.append(with_flags(commands(inputs, "")["prepare-test"][1],
                                          corpus=f"../inputs/corpus-{probe}.tsv",
                                          out=f"test-data-{probe}"))
            write_forest(work / "inputs" / "inventory.tsv",
                         work / "inputs" / "inventory-forest.tsv")
            faulted.append(with_flags(commands(inputs, "")["build-balls"][1],
                                      inventory="../inputs/inventory-forest.tsv",
                                      out="balls-forest"))
            argvs += faulted
            ref_runs += run_pipeline(tmp / "ref-tree" / "src", work / "ref", faulted)
            tree_runs += run_pipeline(ROOT / "src", work / "tree", faulted)
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

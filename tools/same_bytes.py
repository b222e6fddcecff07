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
read the same inputs by the same relative paths.

Then the probes run under both trees.  A probe is one pipeline command
run on an altered copy of one of its inputs, derived by a small edit, so
that a path the workloads' own inputs never reach (an error message, a
fallback, a rare shape) is compared too.  The first is written out in
`main`: each side's own balls.tsv, copied to faulted-input/balls.tsv in
its directory with every FAULT_EVERY-th radius times FAULT_SCALE, goes
to verify-balls, so violation order and slack text are compared.  The
others are the rows of PROBES, each derived once from the file its flag
names in the tree's directory and read by both sides; the comment above
a row says what it guards.  A probe whose source is missing, because a
command before it failed, derives nothing and still runs.

Every written file, exit code, stdout and stderr that differs is listed,
a differing stdout or stderr with the first line where the sides part
(each cut to SHOW_CHARS characters), a differing manifest-*.json
with the config keys removed, added or changed and the input and output
paths whose hashes differ, and a differing checkpoint.json with the
top-level keys removed, added or changed and the arrays whose shape or
data differ; a file matches only when its bytes are equal.  Each probe
also names the exit code its run in this tree must reach, and a probe
that exits otherwise is listed as a miss.  The probes that must exit 0
show by that only that they ran: what they guard is held by their bytes
alone.
Exit status: 0 when nothing differs and no probe misses, 1 when
something differs or a probe misses, 2 when REF cannot be extracted.
"""

from __future__ import annotations

import argparse
import json
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


def records(lines: list[str]) -> list[int]:
    """Indices of the record lines: not blank and not `#`."""
    return [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]


def derive(source: Path, dest: Path, edit) -> None:
    """Write source's lines to dest after `edit(name, lines)` changes them
    in place; a directory source has each of its dataset-l*.tsv derived
    into dest alike, and a missing source derives nothing."""
    if source.is_dir():
        for path in sorted(source.glob("dataset-l*.tsv")):
            derive(path, dest / path.name, edit)
    elif source.is_file():
        dest.parent.mkdir(exist_ok=True)
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        edit(source.name, lines)
        dest.write_text("".join(lines), encoding="utf-8")


def per_record(edit):
    """The file edit that lets `edit(n, fields)` change the n-th record's
    (from 1) tab-separated fields in place, and rejoins them."""
    def apply(name, lines):
        for n, i in enumerate(records(lines), start=1):
            fields = lines[i].rstrip("\n").split("\t")
            edit(n, fields)
            lines[i] = "\t".join(fields) + "\n"
    return apply


def inflate_radius(n, fields):
    """Every FAULT_EVERY-th ball's radius times FAULT_SCALE."""
    if n % FAULT_EVERY == 0:
        fields[1] = "%.17g" % (float(fields[1]) * FAULT_SCALE)


def drop_first_l1(name, lines):
    """dataset-l1.tsv loses its first record; other levels stay."""
    if name == "dataset-l1.tsv":
        del lines[records(lines)[0]]


def oov_token(n, fields):
    """The token next to the record's first target index (before it, or
    after it at the sentence start) becomes OOV_WORD in every OOV_EVERY-th
    record and is upper-cased in every UPPER_EVERY-th."""
    tokens, indices = fields[-1].split(" "), [int(k) for k in fields[-2].split(",")]
    j = indices[0] - 1 if indices[0] else 1
    if j < len(tokens) and j not in indices:
        if n % OOV_EVERY == 0:
            tokens[j] = OOV_WORD
        if n % UPPER_EVERY == 0:
            tokens[j] = tokens[j].upper()
    fields[-1] = " ".join(tokens)


def ghost_token(n, fields):
    """Every UNATTEMPTED_EVERY-th record's annotated tokens become GHOST's
    lemma, a word with no sense; its gold stays."""
    if n % UNATTEMPTED_EVERY == 0:
        tokens = fields[-1].split(" ")
        for k in fields[-2].split(","):
            tokens[int(k)] = SenseId.parse(GHOST).lemma
        fields[-1] = " ".join(tokens)


def ragged_table(name, lines):
    """`_` between two digits of line UNDERSCORE_LINE's first coordinate,
    and line RAGGED_LINE's last coordinate dropped."""
    word, first, rest = lines[UNDERSCORE_LINE - 1].split(" ", 2)
    i = next(i for i in range(1, len(first)) if first[i - 1:i + 1].isdigit())
    lines[UNDERSCORE_LINE - 1] = f"{word} {first[:i]}_{first[i:]} {rest}"
    lines[RAGGED_LINE - 1] = lines[RAGGED_LINE - 1].rstrip("\n").rsplit(" ", 1)[0] + "\n"


def cyclic(name, lines):
    """TAIL_EDGES first and CYCLE_EDGES last."""
    lines[:] = [TAIL_EDGES, *lines, CYCLE_EDGES]


def forest(name, lines):
    """FOREST_PAIRS root-and-leaf pairs appended."""
    lines += [f"qqxroot{k}.n.01\t-\nqqxleaf{k}.n.01\tqqxroot{k}.n.01\n"
              for k in range(FOREST_PAIRS)]


def bad_index(n, fields):
    """Record BAD_INDEX_RECORD's index points one past its sentence."""
    if n == BAD_INDEX_RECORD:
        fields[-2] = str(len(fields[-1].split()))


def no_tokens(n, fields):
    """Record NO_TOKENS_RECORD's token column is empty."""
    if n == NO_TOKENS_RECORD:
        fields[-1] = ""


# One row per probe on a derived input, run in this order: the input
# (written under inputs/), its edit, the perfbench/run.py `commands` key
# it feeds, the flag it replaces (its source is the file the flag names,
# read from the tree's directory: a generated input or the tree's own
# output), the command's --out (None: it writes none) and the exit code
# the tree's run must reach.  The comment above a row says what it guards.
PROBES = (
    # levels cannot share one encoded batch
    ("test-data-dropped", drop_first_l1, "eval", "data", "eval-dropped", 0),
    # the hashed OOV vectors and the lowercase fallback, which the
    # workloads' own corpora never reach
    ("test-data-oov", per_record(oov_token), "eval", "data", "eval-oov", 0),
    # unattempted records: skipped counts and missing prediction lines
    ("test-data-unattempted", per_record(ghost_token), "eval", "data", "eval-unattempted", 0),
    # a table token Python's float reads but the C reader does not, then a ragged row
    ("embeddings-faulted.txt", ragged_table, "build-balls", "embeddings", "balls-faulted", 2),
    # the node a cycle error names
    ("inventory-cyclic.tsv", cyclic, "verify-balls", "inventory", None, 2),
    # the message of the check a record's index meets
    ("corpus-bad-index.tsv", per_record(bad_index), "prepare-test", "corpus", "test-data-bad-index", 2),
    # the message of the check a record's tokens meet
    ("corpus-no-tokens.tsv", per_record(no_tokens), "prepare-test", "corpus", "test-data-no-tokens", 2),
    # co-roots, more of them than CODE_WIDTH so they share axes, packed and
    # verified; neither workload's own inventory has more than one root
    ("inventory-forest.tsv", forest, "build-balls", "inventory", "balls-forest", 0),
)


def with_flags(argv: list[str], **flags: str | None) -> list[str]:
    """argv with the value after each `--flag` replaced; None leaves it."""
    argv = list(argv)
    for flag, value in flags.items():
        if value is not None:
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


def key_changes(what: str, ref: dict, tree: dict) -> list[str]:
    """One line each for the keys removed, added and changed between two
    JSON objects, for those that have any."""
    keys = {"removed": ref.keys() - tree.keys(), "added": tree.keys() - ref.keys(),
            "changed": {k for k in ref.keys() & tree.keys() if ref[k] != tree[k]}}
    return [f"    {what} {how}: {', '.join(sorted(k))}" for how, k in keys.items() if k]


def manifest_difference(a: bytes, b: bytes) -> str:
    """What differs between two manifests: the config keys removed, added
    or changed, and the input and output paths whose hashes differ."""
    ref, tree = json.loads(a), json.loads(b)
    lines = key_changes("config keys", ref.get("config", {}), tree.get("config", {}))
    for part in ("inputs", "outputs"):
        r, t = ref.get(part, {}), tree.get(part, {})
        paths = sorted(p for p in r.keys() | t.keys() if r.get(p) != t.get(p))
        lines.append(f"    {part} whose hashes differ: {', '.join(paths) or 'none'}")
    return "\n".join(lines)


def checkpoint_difference(a: bytes, b: bytes) -> str:
    """What differs between two checkpoints, which are one long line each:
    the top-level keys removed, added or changed, and the arrays whose
    shape or data differ."""
    ref, tree = json.loads(a), json.loads(b)
    ra, ta = ref.get("arrays", {}), tree.get("arrays", {})
    names = sorted(n for n in ra.keys() | ta.keys() if ra.get(n) != ta.get(n))
    return "\n".join(key_changes("keys", ref, tree)
                     + [f"    arrays whose shape or data differ: {', '.join(names) or 'none'}"])


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
        base = Path(name).name
        explain = (manifest_difference if base.startswith("manifest-")
                   else checkpoint_difference if base == "checkpoint.json" else None)
        shown = "\n" + explain(a, b) if state == "bytes differ" and explain else ""
        diffs.append(f"{workload}: file {name} ({state}){shown}")
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
        misses = []
        for name, generate in WORKLOADS.items():
            work = tmp / name
            (work / "inputs").mkdir(parents=True)
            inputs = generate(0, str(work / "inputs"))
            queries = draw_queries(np.random.default_rng([0, 7]), inputs.parent,
                                   QUERIES_PER_PASS)
            cmds = commands(inputs, "")
            argvs = [cmd for _, cmd, _ in cmds.values()]
            hypo, hyper, _ = queries[0]
            unknown = [(GHOST, hyper), (hypo, GHOST)]
            unpadded = [tuple("{}.{}.{}".format(*SenseId.parse(s)) for s in (hypo, hyper))]
            argvs += [query_argv("", q) for q in queries + unknown + unpadded] + [["show-config"]]
            ref_runs = run_pipeline(tmp / "ref-tree" / "src", work / "ref", argvs)
            tree_runs = run_pipeline(ROOT / "src", work / "tree", argvs)
            for side in ("ref", "tree"):  # each side's own balls, which verify-balls rejects
                derive(work / side / "balls" / "balls.tsv",
                       work / side / "faulted-input" / "balls.tsv", per_record(inflate_radius))
            # (name, exit code the tree's run must reach, argv) of each probe
            probes = [("faulted-input/balls.tsv", 3,
                       with_flags(cmds["verify-balls"][1], balls="faulted-input/balls.tsv"))]
            for derived, edit, key, flag, out, code in PROBES:
                argv = cmds[key][1]
                source = work / "tree" / argv[argv.index(f"--{flag}") + 1]
                derive(source, work / "inputs" / derived, edit)
                new = f"../inputs/{derived}"
                probes.append((derived, code, with_flags(argv, out=out, **{flag: new})))
            faulted = [argv for *_, argv in probes]
            argvs += faulted
            ref_runs += run_pipeline(tmp / "ref-tree" / "src", work / "ref", faulted)
            tree_probes = run_pipeline(ROOT / "src", work / "tree", faulted)
            misses += [f"{name}: probe {probe} exited {run[1]} in tree, expected {code}"
                       for (probe, code, _), run in zip(probes, tree_probes) if run[1] != code]
            tree_runs += tree_probes
            found = compare(name, ref_runs, tree_runs, work / "ref", work / "tree")
            n_files = len(files(work / "tree"))
            print(f"{name}: {len(argvs)} commands, {n_files} files written: "
                  + (f"{len(found)} differences" if found else "identical"))
            diffs += found
    for line in diffs + misses:
        print("  " + line)
    print(f"{'same' if not diffs else 'different'} bytes as {args.ref} ({sha[:12]})")
    return 1 if diffs or misses else 0


if __name__ == "__main__":
    sys.exit(main())

"""A seeded mutation test of the exit-code contract.

Each trial mutates one input the CLI reads (inventory, embedding table,
raw corpus, ball file, training dataset, test dataset, checkpoint), or
writes a config file line or a `--set` value, and runs one command that
reads it through `cli.main`.  Whatever the mutation, the command must
exit 0-3 without an exception escaping `main`; exit 1 and exit 2 print
exactly one stderr line, exit 3 prints the verifier's report, and a
failed command leaves no `--out` file.
"""

import random

import pytest

from ballwsd.cli import DEFAULTS, main
from ballwsd.corpus import save_records
from ballwsd.evaluator import make_synthetic_fixture, split_records

from helpers import save_embeddings

SEED, TRIALS = 19, 300

# the bytes one insertion adds
INSERTS = [b"\x00", b"\xff", b"\t", b"\r", b"\xef\xbb\xbf", b"\n", b" ", b"#"]
# what one replaced field becomes
TOKENS = ["nan", "inf", "-inf", "1e999", "-1e999", "", " ", "0", "-1", "1.5", "1_0", "0x10",
          "٣", "²", "a.n.1e3", "a.n.01", "a..01", ".n.01", "a.n.", "-", "#", "==",
          "AAAA", "null", "[]", "{}", "true", "q" * 300, "été.n.01"]
# config keys a file line or --set may name: every key, five that the ball
# construction and the encoder no longer read, and one never known
KEYS = [*DEFAULTS, "margin", "leaf_radius", "code_width", "window_k", "batch_size", "bogus"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The seven inputs the commands read, written by the pipeline itself
    from a small synthetic fixture; name -> path."""
    top = tmp_path_factory.mktemp("contract")
    fx = make_synthetic_fixture(seed=0, n_top=3, senses_per_parent=2, records_per_sense=6,
                                embedding_dim=12)
    paths = {name: top / name for name in ("inventory.tsv", "embeddings.txt",
                                          "corpus-train.tsv", "corpus-test.tsv")}
    paths["inventory.tsv"].write_text("".join(
        f"{node}\t{fx.taxonomy.parent_of(node) or '-'}\n" for node in fx.taxonomy.nodes()))
    save_embeddings(fx.table, paths["embeddings.txt"])
    train_records, test_records = split_records(fx.records, 4, 2)
    save_records(train_records, paths["corpus-train.tsv"])
    save_records(test_records, paths["corpus-test.tsv"])
    inv, emb = str(paths["inventory.tsv"]), str(paths["embeddings.txt"])
    balls = str(top / "balls" / "balls.tsv")
    for argv in (["build-balls", "--inventory", inv, "--embeddings", emb, "--out", "balls"],
                 ["prepare", "--corpus", str(paths["corpus-train.tsv"]), "--inventory", inv,
                  "--balls", balls, "--out", "train-data", "--set", "levels=0,1"],
                 ["prepare", "--corpus", str(paths["corpus-test.tsv"]), "--inventory", inv,
                  "--balls", balls, "--out", "test-data", "--set", "levels=0,1"],
                 ["train", "--corpus", str(top / "train-data" / "dataset-l1.tsv"),
                  "--embeddings", emb, "--balls", balls, "--out", "model",
                  "--set", "epochs=2"]):
        argv[argv.index("--out") + 1] = str(top / argv[argv.index("--out") + 1])
        assert main(argv) == 0, argv
    paths["balls.tsv"] = top / "balls" / "balls.tsv"
    paths["dataset-l1.tsv"] = top / "train-data" / "dataset-l1.tsv"
    paths["test-data"] = top / "test-data"
    paths["checkpoint.json"] = top / "model" / "checkpoint.json"
    return paths


def mutate(rng: random.Random, data: bytes) -> tuple[bytes, str]:
    """One mutation of a file's bytes, and what it did."""
    lines = data.splitlines(keepends=True)
    family = rng.choice(["delete", "duplicate", "truncate", "insert", "replace", "empty"])
    if family == "empty" or not lines:
        return b"", "empty"
    i = rng.randrange(len(lines))
    line = lines[i]
    if family == "delete":
        del lines[i]
    elif family == "duplicate":
        lines.insert(i, line)
    elif family == "truncate":
        lines[i] = line[:rng.randrange(len(line))]
    elif family == "insert":
        k, add = rng.randrange(len(line) + 1), rng.choice(INSERTS)
        lines[i] = line[:k] + add + line[k:]
    else:
        body, end = (line[:-1], line[-1:]) if line.endswith(b"\n") else (line, b"")
        seps = [s for s in (b"\t", b" ", b",", b":") if s in body] or [b"\t"]
        sep = rng.choice(seps)
        fields = body.split(sep)
        j, token = rng.randrange(len(fields)), rng.choice(TOKENS)
        fields[j] = token.encode()
        lines[i] = sep.join(fields) + end
        family = f"replace field {j} with {token[:20]!r}"
    return b"".join(lines), f"{family} at line {i + 1}"


def config_pair(rng: random.Random) -> str:
    """A key=value pair: a known, removed or unknown key, with a token or a
    plain number."""
    value = rng.choice(TOKENS + ["0", "1", "2", "0.5", "3,1", "0,1"])
    return f"{rng.choice(KEYS)}={value}"


def trial(rng: random.Random, paths: dict, work) -> tuple[list[str], str, object]:
    """One mutated input and the argv of a command that reads it; also what
    was mutated and the command's --out (None when it takes none)."""
    inv, emb = str(paths["inventory.tsv"]), str(paths["embeddings.txt"])
    balls, test = str(paths["balls.tsv"]), str(paths["test-data"])
    ckpt, out = str(paths["checkpoint.json"]), work / "out"
    kind = rng.choice(["inventory.tsv", "embeddings.txt", "corpus-test.tsv", "balls.tsv",
                       "dataset-l1.tsv", "test-data", "checkpoint.json", "config", "set"])
    argvs = {
        "build-balls": ["build-balls", "--inventory", inv, "--embeddings", emb],
        "verify-balls": ["verify-balls", "--balls", balls, "--inventory", inv],
        "prepare": ["prepare", "--corpus", str(paths["corpus-test.tsv"]), "--inventory", inv,
                    "--balls", balls, "--set", "levels=0,1"],
        "train": ["train", "--corpus", str(paths["dataset-l1.tsv"]), "--embeddings", emb,
                  "--balls", balls, "--set", "epochs=2"],
        "eval": ["eval", "--data", test, "--checkpoint", ckpt, "--inventory", inv,
                 "--embeddings", emb, "--balls", balls, "--set", "levels=0,1"],
        "query": ["query", "--balls", balls, "s.n.01", "s.n.01"],
        "show-config": ["show-config"],
    }
    readers = {"inventory.tsv": ["build-balls", "verify-balls", "prepare", "eval"],
               "embeddings.txt": ["build-balls", "train", "eval"],
               "corpus-test.tsv": ["prepare"],
               "balls.tsv": ["verify-balls", "prepare", "train", "eval", "query"],
               "dataset-l1.tsv": ["train"], "test-data": ["eval"],
               "checkpoint.json": ["eval"],
               "config": ["show-config", "build-balls"], "set": ["show-config", "verify-balls"]}
    command = rng.choice(readers[kind])
    argv = list(argvs[command])
    if command == "query":  # a hyponym and a hypernym that the ball file names
        ids = [line.split(b"\t")[0].decode() for line in paths["balls.tsv"].read_bytes()
               .splitlines()[1:]]
        argv[-2:] = rng.choice(ids), rng.choice(ids)
    if kind == "config":
        path = work / "run.cfg"
        path.write_text(f"# settings\n{config_pair(rng)}\n", encoding="utf-8")
        argv += ["--config", str(path)]
        what = path.read_text(encoding="utf-8").splitlines()[1]
    elif kind == "set":
        what = config_pair(rng)
        argv.append(f"--set={what}")
    elif kind == "test-data":
        data = work / "test-data"
        data.mkdir()
        name = rng.choice(["dataset-l0.tsv", "dataset-l1.tsv"])
        for level in ("dataset-l0.tsv", "dataset-l1.tsv"):
            (data / level).write_bytes((paths["test-data"] / level).read_bytes())
        mutated, what = mutate(rng, (data / name).read_bytes())
        (data / name).write_bytes(mutated)
        argv[argv.index(test)] = str(data)
        what = f"{name}: {what}"
    else:
        path = work / kind
        mutated, what = mutate(rng, paths[kind].read_bytes())
        path.write_bytes(mutated)
        argv[argv.index(str(paths[kind]))] = str(path)
    if command not in ("verify-balls", "query", "show-config"):
        argv += ["--out", str(out)]
    else:
        out = None
    return argv, f"{kind} ({what})", out


def test_mutated_inputs_keep_the_exit_contract(inputs, tmp_path, capsys):
    rng = random.Random(SEED)
    codes = set()
    for n in range(TRIALS):
        work = tmp_path / f"t{n}"
        work.mkdir()
        argv, what, out = trial(rng, inputs, work)
        capsys.readouterr()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"trial {n}, {what}: {type(exc).__name__} escaped main: {exc}")
        captured = capsys.readouterr()
        where = f"trial {n}, {what}, `ballwsd {argv[0]}` exited {code}"
        assert code in (0, 1, 2, 3), where
        err = captured.err.splitlines()
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: "), (where, err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith(("data error: ", "unknown sense: ")), (
                where, err)
        if code == 3:
            assert captured.out.startswith("containment pairs checked:"), where
            assert "\nviolations:" in captured.out, where
        if code != 0 and out is not None:
            assert not out.exists(), where
        codes.add(code)
    # the mutations reach success, usage errors, data errors and failed verification
    assert codes == {0, 1, 2, 3}

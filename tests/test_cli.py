import base64
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from ballwsd import cli
from ballwsd.cli import main, resolve_config, DEFAULTS, UsageError
from ballwsd.corpus import parse_annotated_corpus
from ballwsd.encoder import init_params, load_encoder
from ballwsd.geometry import VerificationReport, Violation
from ballwsd.inventory import SenseId

from helpers import save_embeddings, table

EDGES = (
    "entity.n.01\t-\n"
    "move.n.01\tentity.n.01\n"
    "make.n.01\tentity.n.01\n"
    "fly.n.01\tmove.n.01\n"
    "fly.n.02\tmake.n.01\n"
)

CORPUS_LINES = []
for i in range(6):
    CORPUS_LINES.append(f"fly.n.01\t0\tfly wing air sky glide soar")
    CORPUS_LINES.append(f"fly.n.02\t0\tfly factory tool seam stitch navigator")
CORPUS = "\n".join(CORPUS_LINES) + "\n"

LEMMAS = ["entity", "move", "make", "fly", "wing", "air", "sky", "glide",
          "soar", "factory", "tool", "seam", "stitch", "navigator"]


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(40)
    emb = tmp_path / "embeddings.txt"
    save_embeddings(table({w: rng.standard_normal(12) for w in LEMMAS}), emb)
    inv = tmp_path / "inventory.tsv"
    inv.write_text(EDGES)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(CORPUS)
    return {"dir": tmp_path, "embeddings": emb, "inventory": inv, "corpus": corpus}


def build(ws, out="build"):
    out_dir = ws["dir"] / out
    code = main(["build-balls", "--inventory", str(ws["inventory"]),
                 "--embeddings", str(ws["embeddings"]), "--out", str(out_dir)])
    assert code == 0
    return out_dir / "balls.tsv"


def prepare(ws, balls, out="data", levels="0,1,2"):
    out_dir = ws["dir"] / out
    code = main(["prepare", "--corpus", str(ws["corpus"]),
                 "--inventory", str(ws["inventory"]), "--balls", str(balls),
                 "--out", str(out_dir), "--set", f"levels={levels}"])
    assert code == 0
    return out_dir


def train(ws, balls, data, out="model", extra=()):
    out_dir = ws["dir"] / out
    code = main(["train", "--corpus", str(data / "dataset-l1.tsv"),
                 "--embeddings", str(ws["embeddings"]), "--balls", str(balls),
                 "--out", str(out_dir), "--set", "epochs=4", "--set", "lr=0.05",
                 *extra])
    assert code == 0
    return out_dir / "checkpoint.json"


class TestConfigResolution:
    def test_defaults(self):
        assert resolve_config(None, []).values == DEFAULTS

    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nmargin=2.5\nepochs=7\n")
        cfg = resolve_config(str(cfg_file), ["epochs=9"])
        assert cfg.values["margin"] == 2.5 == cfg.geometry.margin
        assert cfg.values["epochs"] == 9 == cfg.train.epochs   # --set beats the file
        assert cfg.values["seed"] == DEFAULTS["seed"]

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(None, ["nonsense=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(None, ["epochs=soon"])

    def test_bad_pair_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(None, ["epochs"])


class TestBuildVerify:
    def test_build_then_verify(self, workspace, capsys):
        balls = build(workspace)
        assert balls.exists()
        code = main(["verify-balls", "--balls", str(balls),
                     "--inventory", str(workspace["inventory"])])
        assert code == 0
        assert "violations:                   0" in capsys.readouterr().out

    def test_tampered_balls_fail_verification(self, workspace):
        balls = build(workspace)
        lines = balls.read_text().splitlines()
        # blow up a child radius so containment must break
        name, radius, coords = lines[2].split("\t")
        lines[2] = "\t".join([name, "0.9", coords])
        balls.write_text("\n".join(lines) + "\n")
        code = main(["verify-balls", "--balls", str(balls),
                     "--inventory", str(workspace["inventory"])])
        assert code == 3

    @pytest.mark.parametrize("case", ["other-inventory", "header-only"])
    def test_no_shared_sense_is_data_error(self, workspace, capsys, case):
        balls = build(workspace)
        if case == "other-inventory":
            workspace["inventory"].write_text("thing.n.01\t-\nrock.n.01\tthing.n.01\n")
        else:
            balls.write_text(balls.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        code = main(["verify-balls", "--balls", str(balls),
                     "--inventory", str(workspace["inventory"])])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.splitlines() == [
            f"data error: {balls}: no ball names a node of {workspace['inventory']}"]

    def test_one_node_taxonomy_checks_no_pair(self, workspace, capsys):
        balls = build(workspace)
        workspace["inventory"].write_text("entity.n.01\t-\n")
        capsys.readouterr()
        code = main(["verify-balls", "--balls", str(balls),
                     "--inventory", str(workspace["inventory"])])
        assert code == 0
        assert capsys.readouterr().out.split() == [
            "containment", "pairs", "checked:", "0", "disconnection", "pairs", "checked:", "0",
            "violations:", "0"]

    def test_build_deterministic(self, workspace):
        a = build(workspace, "build-a")
        b = build(workspace, "build-b")
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_hashes_and_fields(self, workspace):
        balls = build(workspace)
        manifest = json.loads((balls.parent / "manifest-build-balls.json").read_text())
        assert manifest["command"] == "build-balls"
        assert manifest["seed"] == 0 and "version" in manifest
        assert str(workspace["inventory"]) in manifest["inputs"]
        want = hashlib.sha256(balls.read_bytes()).hexdigest()
        assert manifest["outputs"][str(balls)] == want
        assert "time" not in " ".join(manifest).lower()

    def test_failed_verification_writes_nothing(self, workspace, monkeypatch):
        bad = VerificationReport(violations=[Violation("containment", SenseId("move", "n", 1),
                                                       SenseId("fly", "n", 1), 1.0)])
        monkeypatch.setattr("ballwsd.cli.verify_configuration", lambda *a: bad)
        out_dir = workspace["dir"] / "build"
        code = main(["build-balls", "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--out", str(out_dir)])
        assert code == 3
        for name in ("balls.tsv", "verify-report.txt", "manifest-build-balls.json"):
            assert not (out_dir / name).exists()

    def test_deep_chain_builds(self, workspace):
        # deeper than the default recursion limit
        edges = "".join(f"w.n.{i + 1:02d}\tw.n.{i:02d}\n" for i in range(1, 1200))
        workspace["inventory"].write_text("w.n.01\t-\n" + edges)
        build(workspace)

    def test_missing_embeddings_is_data_error(self, workspace):
        code = main(["build-balls", "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["dir"] / "nope.txt"),
                     "--out", str(workspace["dir"] / "b")])
        assert code == 2


class TestPrepare:
    def test_emits_per_level_files_and_stats(self, workspace):
        balls = build(workspace)
        data = prepare(workspace, balls)
        for lvl in (0, 1, 2):
            assert (data / f"dataset-l{lvl}.tsv").exists()
        stats = (data / "stats.txt").read_text()
        assert "dataset-l0 L0" in stats and "dataset-l2 L2" in stats
        recs = parse_annotated_corpus(data / "dataset-l1.tsv")
        assert {str(r.target) for r in recs} == {"move.n.01", "make.n.01"}
        assert all(r.original.lemma == "fly" for r in recs)

    def test_level0_file_stays_three_column(self, workspace):
        balls = build(workspace)
        data = prepare(workspace, balls)
        first = (data / "dataset-l0.tsv").read_text().splitlines()[0]
        assert len(first.split("\t")) == 3
        first = (data / "dataset-l1.tsv").read_text().splitlines()[0]
        assert len(first.split("\t")) == 4

    def test_corrupt_corpus_is_data_error(self, workspace):
        balls = build(workspace)
        workspace["corpus"].write_text("fly.n.01\tnot-an-index\ttok\n")
        code = main(["prepare", "--corpus", str(workspace["corpus"]),
                     "--inventory", str(workspace["inventory"]),
                     "--balls", str(balls),
                     "--out", str(workspace["dir"] / "d")])
        assert code == 2


class TestManifests:
    @pytest.mark.parametrize("command", ["build-balls", "prepare", "train", "eval"])
    def test_manifest_names_every_file_flag_and_output(self, workspace, command):
        ws = workspace
        balls = build(ws)
        data = prepare(ws, balls)
        ckpt = train(ws, balls, data)
        flags = {
            "build-balls": {"--inventory": ws["inventory"], "--embeddings": ws["embeddings"]},
            "prepare": {"--corpus": ws["corpus"], "--inventory": ws["inventory"],
                        "--balls": balls},
            "train": {"--corpus": data / "dataset-l1.tsv", "--embeddings": ws["embeddings"],
                      "--balls": balls},
            "eval": {"--data": data, "--checkpoint": ckpt, "--inventory": ws["inventory"],
                     "--embeddings": ws["embeddings"], "--balls": balls},
        }[command]
        out = ws["dir"] / "out"
        argv = [command, *(str(v) for pair in flags.items() for v in pair), "--out", str(out),
                "--set", "levels=0,2", "--set", "epochs=1"]
        assert main(argv) == 0
        manifest = json.loads((out / f"manifest-{command}.json").read_text())
        inputs = {str(p) for flag, p in flags.items() if flag != "--data"}
        if command == "eval":
            inputs |= {str(data / "dataset-l0.tsv"), str(data / "dataset-l2.tsv")}
        assert set(manifest["inputs"]) == inputs
        written = {str(p) for p in out.iterdir() if p.name != f"manifest-{command}.json"}
        assert set(manifest["outputs"]) == written
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestTrainEval:
    def test_full_pipeline(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        assert ckpt.exists() and (ckpt.parent / "curve.tsv").exists()
        out_dir = workspace["dir"] / "evalout"
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--balls", str(balls), "--out", str(out_dir),
                     "--set", "levels=0,1"])
        assert code == 0
        report = (out_dir / "report.tsv").read_text().splitlines()
        assert report[0] == ("#dataset\tlevel\tprecision\trecall\tf1\tattempted"
                             "\tcorrect\ttotal_gold\tskipped")
        assert [len(row.split("\t")) for row in report[1:]] == [9, 9]
        lines = (out_dir / "predictions-l1.tsv").read_text().splitlines()
        assert lines and all(len(line.split("\t")) == 4 for line in lines)
        stdout = capsys.readouterr().out
        assert "level 1" in stdout
        assert not any("inside=" in line for line in stdout.splitlines())
        # the two fly senses sit under different hypernyms
        assert stdout.splitlines()[-1] == "shared-hypernym sense pairs: 0"

    def test_train_outputs_deterministic(self, workspace):
        balls = build(workspace)
        data = prepare(workspace, balls)
        a = train(workspace, balls, data, out="model-a")
        b = train(workspace, balls, data, out="model-b")
        assert a.read_bytes() == b.read_bytes()
        assert (a.parent / "curve.tsv").read_bytes() == (b.parent / "curve.tsv").read_bytes()

    def test_zero_epoch_checkpoint_equals_init(self, workspace):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data, out="model0",
                     extra=("--set", "epochs=0", "--set", "seed=4"))
        params, tc = load_encoder(ckpt)
        assert tc.epochs == 0
        fresh = init_params(params.dim, params.out_dim, seed=4)
        for name in fresh.arrays:
            assert np.array_equal(params.arrays[name], fresh.arrays[name])

    def test_eval_missing_level_is_data_error(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls, levels="1")
        ckpt = train(workspace, balls, data)
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--balls", str(balls),
                     "--out", str(workspace["dir"] / "e"),
                     "--set", "levels=3"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert str(data / "dataset-l3.tsv") in err[0]
        assert not (workspace["dir"] / "e").exists()

    def test_empty_train_corpus_is_data_error(self, workspace, capsys):
        balls = build(workspace)
        empty = workspace["dir"] / "empty.tsv"
        empty.write_text("")
        capsys.readouterr()
        code = main(["train", "--corpus", str(empty),
                     "--embeddings", str(workspace["embeddings"]),
                     "--balls", str(balls),
                     "--out", str(workspace["dir"] / "m")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and str(empty) in err[0]
        assert not (workspace["dir"] / "m").exists()

    def test_eval_window_k_comes_from_checkpoint(self, workspace):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)

        def evaluate(out, *extra):
            return main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                         "--inventory", str(workspace["inventory"]),
                         "--embeddings", str(workspace["embeddings"]),
                         "--balls", str(balls), "--out", str(workspace["dir"] / out),
                         "--set", "levels=1", *extra])

        assert evaluate("e-default") == 0
        assert evaluate("e-override", "--set", "window_k=0") == 0
        preds = [(workspace["dir"] / d / "predictions-l1.tsv").read_bytes()
                 for d in ("e-default", "e-override")]
        assert preds[0] == preds[1]
        manifest = json.loads((workspace["dir"] / "e-override" / "manifest-eval.json").read_text())
        tc = load_encoder(ckpt)[1]
        assert manifest["config"]["window_k"] == tc.window_k == 4
        # every training key describes the checkpoint, not the eval defaults
        assert (manifest["config"]["epochs"], manifest["config"]["lr"]) == (tc.epochs, tc.lr)

        doc = json.loads(ckpt.read_text())
        del doc["train_config"]
        ckpt.write_text(json.dumps(doc))
        assert evaluate("e-bare") == 2

    def test_eval_embedding_dim_mismatch_is_data_error(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        rng = np.random.default_rng(41)
        narrow = workspace["dir"] / "narrow.txt"
        save_embeddings(table({w: rng.standard_normal(6) for w in LEMMAS}), narrow)
        out = workspace["dir"] / "e"
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(narrow), "--balls", str(balls),
                     "--out", str(out), "--set", "levels=1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert "model width is 12" in err[0] and "6-d" in err[0]
        assert str(ckpt) in err[0] and str(narrow) in err[0]
        assert not out.exists()

    def test_eval_encodes_shared_inputs_once(self, workspace, monkeypatch):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        rows = [[line.split("\t")[-2:] for line in (data / f"dataset-l{k}.tsv").read_text()
                 .splitlines() if not line.startswith("#")] for k in range(3)]
        assert rows[0] == rows[1] == rows[2]      # lifting rewrote targets only
        calls = []
        real = cli.forward_batch
        monkeypatch.setattr(cli, "forward_batch",
                            lambda *args: calls.append(1) or real(*args))
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(workspace["dir"] / "e"), "--set", "levels=0,1,2"]) == 0
        assert len(calls) == 1

    def test_eval_encodes_before_loading_balls_and_inventory(self, workspace, monkeypatch):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        level1 = data / "dataset-l1.tsv"
        level1.write_text("".join(level1.read_text().splitlines(keepends=True)[:-1]))
        calls = []
        for name in ("forward_batch", "load_balls", "load_inventory"):
            def spy(*args, name=name, real=getattr(cli, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(cli, name, spy)
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(workspace["dir"] / "e"), "--set", "levels=0,1"]) == 0
        assert calls == ["forward_batch", "forward_batch", "load_balls", "load_inventory"]

    def test_train_frees_table_and_balls_before_training(self, workspace, monkeypatch):
        balls = build(workspace)
        data = prepare(workspace, balls)
        refs, alive = [], []
        for name in ("load_embeddings", "load_balls"):
            def spy(*args, real=getattr(cli, name)):
                loaded = real(*args)
                refs.append(weakref.ref(loaded))
                return loaded
            monkeypatch.setattr(cli, name, spy)

        def train_spy(*args, real=cli.train):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return real(*args)
        monkeypatch.setattr(cli, "train", train_spy)
        train(workspace, balls, data)
        assert alive == [[False, False]]

    def test_eval_level_without_records_scores_nothing(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls, levels="0,1,2,5")   # nothing sits 5 levels up
        ckpt = train(workspace, balls, data)
        out = workspace["dir"] / "e"
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(out), "--set", "levels=1,5"]) == 0
        assert (out / "predictions-l5.tsv").read_text() == ""
        assert "level 5: P=0.0000 R=0.0000 F1=0.0000 attempted=0 correct=0 total=0" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["drop-record", "change-token"])
    def test_eval_levels_with_other_inputs_match_one_level_runs(self, workspace, edit):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        edited = workspace["dir"] / "edited"
        edited.mkdir()
        for k in range(3):
            lines = (data / f"dataset-l{k}.tsv").read_text().splitlines(keepends=True)
            if k == 1:
                body = [i for i, line in enumerate(lines) if not line.startswith("#")]
                if edit == "drop-record":
                    del lines[body[3]]
                else:
                    lines[body[3]] = lines[body[3]].replace("\tfly factory", "\tfly air")
            (edited / f"dataset-l{k}.tsv").write_text("".join(lines))

        def evaluate(out, levels):
            assert main(["eval", "--data", str(edited), "--checkpoint", str(ckpt),
                         "--inventory", str(workspace["inventory"]),
                         "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                         "--out", str(workspace["dir"] / out), "--set", f"levels={levels}"]) == 0
            return workspace["dir"] / out

        together = evaluate("together", "0,1,2")
        report = (together / "report.tsv").read_text().splitlines()
        for k in range(3):
            alone = evaluate(f"alone-{k}", str(k))
            name = f"predictions-l{k}.tsv"
            assert (together / name).read_bytes() == (alone / name).read_bytes()
            assert report[1 + k] == (alone / "report.tsv").read_text().splitlines()[1]

    def test_eval_ball_width_mismatch_names_both_files(self, workspace, capsys):
        balls = build(workspace)                       # 12 + 16 = 28-d
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        narrow = workspace["dir"] / "narrow"
        assert main(["build-balls", "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--out", str(narrow),
                     "--set", "code_width=4"]) == 0       # 12 + 4 = 16-d
        out = workspace["dir"] / "e"
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--balls", str(narrow / "balls.tsv"), "--out", str(out),
                     "--set", "levels=1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert str(ckpt) in err[0] and str(narrow / "balls.tsv") in err[0]
        assert "28-d" in err[0] and "16-d" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("tamper", ["version-1", "missing-array", "extra-layer",
                                        "wrong-shape", "top-level-list", "arrays-list",
                                        "no-arrays", "no-data", "not-base64",
                                        "train-config-value", "truncated",
                                        "window-k-float", "epochs-float", "seed-bool",
                                        "missing-key"])
    def test_eval_rejects_checkpoint_that_does_not_fit(self, workspace, capsys, tamper):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        doc = json.loads(ckpt.read_text())
        arrays = doc["arrays"]
        if tamper == "version-1":
            doc["version"] = 1
        elif tamper == "missing-array":
            del arrays["l1.wq"]
        elif tamper == "extra-layer":
            arrays["l2.wq"] = arrays["l1.wq"]
        elif tamper == "wrong-shape":
            arrays["head.w1"]["shape"] = [48, 12]  # same data, wrong shape
        elif tamper == "top-level-list":
            doc = [doc]
        elif tamper == "arrays-list":
            doc["arrays"] = list(arrays.values())
        elif tamper == "no-arrays":
            del doc["arrays"]
        elif tamper == "no-data":
            del arrays["role"]["data"]
        elif tamper == "not-base64":
            arrays["role"]["data"] = "not base64!"
        elif tamper == "train-config-value":
            doc["train_config"]["lr"] = -1.0
        elif tamper == "window-k-float":
            doc["train_config"]["window_k"] = 2.5
        elif tamper == "epochs-float":
            doc["train_config"]["epochs"] = 1.5
        elif tamper == "seed-bool":
            doc["train_config"]["seed"] = False
        elif tamper == "missing-key":
            del doc["train_config"]["epochs"]
        text = json.dumps(doc)
        ckpt.write_text(text[:100] if tamper == "truncated" else text)
        out = workspace["dir"] / "e"
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(out), "--set", "levels=1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert str(ckpt) in captured.err
        assert {"version-1": "version 1 unsupported", "missing-array": "missing l1.wq",
                "extra-layer": "unexpected l2.wq",
                "wrong-shape": "head.w1 is (48, 12), expected (24, 24)",
                "top-level-list": "not an encoder checkpoint",
                "arrays-list": "no 'arrays' object", "no-arrays": "no 'arrays' object",
                "no-data": "unreadable array 'role' (KeyError: 'data')",
                "not-base64": "unreadable array 'role' (Error: Only base64 data is allowed)",
                "train-config-value": "bad train_config: lr must be finite and > 0",
                "truncated": "not valid JSON: Unterminated string",
                "window-k-float": "bad train_config: window_k must be an integer, got 2.5",
                "epochs-float": "bad train_config: epochs must be an integer, got 1.5",
                "seed-bool": "bad train_config: seed must be an integer, got False",
                "missing-key": "bad train_config: missing epochs",
                }[tamper] in captured.err
        assert not out.exists()


class TestOneLineErrors:
    def test_diverging_training_is_data_error(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        capsys.readouterr()
        code = main(["train", "--corpus", str(data / "dataset-l1.tsv"),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(workspace["dir"] / "m"), "--set", "lr=1e200"])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_empty_inventory_is_one_line_data_error(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        inv, emb = str(workspace["inventory"]), str(workspace["embeddings"])
        argvs = {
            "build-balls": ["build-balls", "--inventory", inv, "--embeddings", emb],
            "verify-balls": ["verify-balls", "--balls", str(balls), "--inventory", inv],
            "prepare": ["prepare", "--corpus", str(workspace["corpus"]), "--inventory", inv,
                        "--balls", str(balls)],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--inventory", inv,
                     "--embeddings", emb, "--balls", str(balls), "--set", "levels=0,1"],
        }
        for text in ("", "# no edges\n\n"):
            workspace["inventory"].write_text(text)
            for command, argv in argvs.items():
                out_dir = workspace["dir"] / f"out-{command}"
                capsys.readouterr()
                flags = [] if command == "verify-balls" else ["--out", str(out_dir)]
                assert main(argv + flags) == 2, command
                out = capsys.readouterr()
                assert out.out == ""
                assert out.err.splitlines() == [f"data error: {inv}: empty inventory"]
                assert not out_dir.exists()


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_embedding_is_one_line_data_error(self, workspace, capsys, value):
        lines = workspace["embeddings"].read_text().splitlines()
        word, *coords = lines[2].split(" ")
        lines[2] = " ".join([word, value, *coords[1:]])
        workspace["embeddings"].write_text("\n".join(lines) + "\n")
        code = main(["build-balls", "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]),
                     "--out", str(workspace["dir"] / "b")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {workspace['embeddings']}:3: {word!r} has a non-finite value"]

    # build-balls reads the inventory's lemmas, train and eval the datasets'
    # tokens; a bad line is reported whoever reads its word
    @pytest.mark.parametrize("command, word", [
        ("build-balls", "navigator"), ("train", "entity"), ("eval", "entity")])
    def test_bad_line_of_unread_word_is_one_line_data_error(self, workspace, capsys,
                                                            command, word):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        inv, emb = str(workspace["inventory"]), str(workspace["embeddings"])
        lines = workspace["embeddings"].read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{word} "))
        lines[at] = lines[at].rsplit(" ", 1)[0]
        workspace["embeddings"].write_text("\n".join(lines) + "\n")
        out_dir = workspace["dir"] / "out"
        argv = {
            "build-balls": ["build-balls", "--inventory", inv, "--embeddings", emb],
            "train": ["train", "--corpus", str(data / "dataset-l1.tsv"), "--embeddings", emb,
                      "--balls", str(balls)],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--inventory", inv,
                     "--embeddings", emb, "--balls", str(balls), "--set", "levels=0,1"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(out_dir)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"data error: {emb}:{at + 1}: expected 12 coordinates, got 11"]
        assert not out_dir.exists()

    def test_eval_reports_bad_dataset_before_bad_table(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        with open(workspace["embeddings"], "a", encoding="utf-8") as fh:
            fh.write("zebra 1\n")
        dataset = data / "dataset-l1.tsv"
        lines = dataset.read_text().splitlines()
        lines.append("fly.n.01\tnot-an-index\ttok")
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(workspace["dir"] / "e"), "--set", "levels=0,1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {dataset}:{len(lines)}: ")
        assert not (workspace["dir"] / "e").exists()

    def test_eval_reports_bad_checkpoint_before_bad_balls(self, workspace, capsys):
        balls = build(workspace)
        data = prepare(workspace, balls)
        ckpt = train(workspace, balls, data)
        lines = balls.read_text().splitlines()
        sid, radius, coords = lines[4].split("\t")
        lines[4] = "\t".join([sid, "0", coords])
        balls.write_text("\n".join(lines) + "\n")
        ckpt.write_text(ckpt.read_text()[:100])
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--inventory", str(workspace["inventory"]),
                     "--embeddings", str(workspace["embeddings"]), "--balls", str(balls),
                     "--out", str(workspace["dir"] / "e"), "--set", "levels=0,1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {ckpt}: not valid JSON")
        assert not (workspace["dir"] / "e").exists()

    @pytest.mark.parametrize("edges, where, message", [
        ("a.n.01\t-\nbad\ta.n.01\n", ":2", "malformed sense id 'bad', want lemma.pos.index"),
        ("b.n.01\tc.n.01\nc.n.01\tb.n.01\n", "", "cycle through c.n.01"),
    ], ids=["malformed-id", "cycle"])
    def test_bad_inventory_error_names_file(self, workspace, capsys, edges, where, message):
        balls = build(workspace)
        workspace["inventory"].write_text(edges)
        capsys.readouterr()
        code = main(["verify-balls", "--balls", str(balls),
                     "--inventory", str(workspace["inventory"])])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {workspace['inventory']}{where}: {message}"]

    def test_malformed_ball_file_is_one_line_data_error(self, workspace, capsys):
        balls = build(workspace)
        lines = balls.read_text().splitlines()
        sid, radius, coords = lines[4].split("\t")
        lines[4] = "\t".join([sid, "0", coords])
        balls.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["query", "--balls", str(balls), "fly.n.01", "move.n.01"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {balls}:5: {sid}: radius must be positive and finite, got 0.0"]

    def test_ball_header_without_dimensions_is_one_line_data_error(self, tmp_path, capsys):
        balls = tmp_path / "balls.tsv"
        balls.write_text("#dim -1 prefix 1\n")
        assert main(["query", "--balls", str(balls), "fly.n.01", "move.n.01"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"data error: {balls}:1: dim must be >= 1, got -1"]

    @pytest.mark.parametrize("command", ["query", "verify-balls"])
    def test_truncated_center_is_one_line_data_error(self, workspace, capsys, command):
        balls = build(workspace)
        lines = balls.read_text().splitlines()
        dim = int(lines[0].split()[1])
        sid, radius, center = lines[3].split("\t")
        lines[3] = "\t".join([sid, radius, center[:-4]])
        balls.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = {"query": ["query", "--balls", str(balls), "fly.n.01", "move.n.01"],
                "verify-balls": ["verify-balls", "--balls", str(balls),
                                 "--inventory", str(workspace["inventory"])]}[command]
        assert main(argv) == 2
        got = len(base64.b64decode(center[:-4]))
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"data error: {balls}:4: {sid}: expected {dim} coordinates, got {got} bytes"]


class TestQuery:
    def test_yes_no_and_unknown(self, workspace, capsys):
        balls = build(workspace)
        capsys.readouterr()   # discard build output
        assert main(["query", "--balls", str(balls), "fly.n.01", "move.n.01"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["query", "--balls", str(balls), "move.n.01", "fly.n.01"]) == 0
        assert capsys.readouterr().out.strip() == "no"
        assert main(["query", "--balls", str(balls), "fly.n.01", "entity.n.01"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        # an unknown hyponym is named first, an unknown hypernym otherwise
        for pair, missing in ((["ghost.n.01", "move.n.01"], "ghost.n.01"),
                              (["move.n.01", "phantom.n.01"], "phantom.n.01"),
                              (["ghost.n.01", "phantom.n.01"], "ghost.n.01")):
            assert main(["query", "--balls", str(balls), *pair]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"unknown sense: no ball for sense {missing}\n"


def unpad(text: str) -> str:
    """A ball file's or argument's text with every `.01`-style index
    written without its leading zero, as `x.n.1`."""
    return text.replace(".n.01", ".n.1").replace(".n.02", ".n.2")


class TestSenseIdSpelling:
    """A ball file and the command line name a sense as the inventory
    does: `x.n.1` and `x.n.01` are one sense."""

    def run(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("pair", [("entity.n.01", "entity.n.01"),
                                      ("fly.n.01", "move.n.01"), ("fly.n.02", "move.n.01")])
    def test_query_with_unpadded_ids(self, workspace, capsys, pair):
        balls = build(workspace)
        capsys.readouterr()
        want = self.run(capsys, ["query", "--balls", str(balls), *pair])
        assert want[0] == 0
        assert self.run(capsys, ["query", "--balls", str(balls), *map(unpad, pair)]) == want
        balls.write_text(unpad(balls.read_text()))
        assert self.run(capsys, ["query", "--balls", str(balls), *pair]) == want

    def test_verify_balls_on_unpadded_file(self, workspace, capsys):
        balls = build(workspace)
        capsys.readouterr()
        argv = ["verify-balls", "--balls", str(balls), "--inventory", str(workspace["inventory"])]
        want = self.run(capsys, argv)
        assert want[0] == 0 and "violations:                   0" in want[1]
        balls.write_text(unpad(balls.read_text()))
        assert self.run(capsys, argv) == want

    def test_two_spellings_of_one_id_are_a_duplicate(self, workspace, capsys):
        balls = build(workspace)
        lines = balls.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("fly.n.01\t"))
        lines.append(unpad(lines[row]))
        balls.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run(capsys, ["query", "--balls", str(balls), "fly.n.01", "move.n.01"]) == (
            2, "", f"data error: {balls}:{len(lines)}: duplicate sense id 'fly.n.01'\n")

    def test_malformed_ball_id_is_one_line_data_error(self, workspace, capsys):
        balls = build(workspace)
        lines = balls.read_text().splitlines()
        _, radius, center = lines[1].split("\t")
        lines.append("\t".join(["w1.n.x", radius, center]))
        balls.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.run(capsys, ["query", "--balls", str(balls), "fly.n.01", "move.n.01"]) == (
            2, "", f"data error: {balls}:{len(lines)}: malformed sense index in 'w1.n.x'\n")

    @pytest.mark.parametrize("bad", [".n.01", "fly..01"])
    def test_empty_lemma_or_pos_is_quoted_by_its_text(self, workspace, capsys, bad):
        balls = build(workspace)
        message = f"empty lemma or pos in sense id {bad!r}"
        ws = workspace["dir"]
        inv = ws / "bad-inventory.tsv"
        inv.write_text(EDGES + f"{bad}\tentity.n.01\n")
        corpus = ws / "bad-corpus.tsv"
        corpus.write_text(CORPUS + f"{bad}\t0\tfly\n")
        bad_balls = ws / "bad-balls.tsv"
        lines = balls.read_text().splitlines()
        _, radius, center = lines[1].split("\t")
        lines.append("\t".join([bad, radius, center]))
        bad_balls.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv, where in [
            (["verify-balls", "--balls", str(balls), "--inventory", str(inv)], f"{inv}:6: "),
            (["prepare", "--corpus", str(corpus), "--inventory", str(workspace["inventory"]),
              "--balls", str(balls), "--out", str(ws / "d")], f"{corpus}:13: "),
            (["query", "--balls", str(bad_balls), "fly.n.01", "move.n.01"],
             f"{bad_balls}:{len(lines)}: "),
            (["query", "--balls", str(balls), bad, "move.n.01"], ""),
            (["query", "--balls", str(balls), "fly.n.01", bad], ""),
        ]:
            assert self.run(capsys, argv) == (2, "", f"data error: {where}{message}\n")
        assert not (ws / "d").exists()


class TestShowConfigAndUsage:
    def test_show_config_reflects_overrides(self, capsys):
        assert main(["show-config", "--set", "margin=3.0"]) == 0
        out = capsys.readouterr().out
        assert "margin=3.0" in out and "seed=0" in out

    def test_unknown_config_key_is_usage_error(self):
        assert main(["show-config", "--set", "bogus=1"]) == 1

    @pytest.mark.parametrize("line, message", [
        ("epochs=soon", "config key 'epochs' expects int, got 'soon'"),
        ("nonsense=1", "unknown config key: 'nonsense'"),
        ("epochs", "expected key=value"),
    ], ids=["bad-value", "unknown-key", "no-equals"])
    def test_config_file_error_names_its_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# run settings\nmargin=2.5\n{line}\n")
        assert main(["show-config", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        # the same text from --set names no file or line
        if "=" in line:
            assert main(["show-config", "--set", line]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_range_error_names_the_key(self, tmp_path, capsys):
        # checked after merging, since a later --set may override the file
        cfg = tmp_path / "c.cfg"
        cfg.write_text("margin=0.5\n")
        assert main(["show-config", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "margin" in err and str(cfg) not in err
        assert main(["show-config", "--config", str(cfg), "--set", "margin=2.0"]) == 0

    @pytest.mark.parametrize("command", ["build-balls", "verify-balls", "prepare", "train",
                                         "eval", "query", "show-config"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ballwsd {command} ")

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build-balls", "--inventory", "x"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command, pair", [
        ("build-balls", "margin=0.5"),
        ("prepare", "epochs=-1"),
        ("show-config", "margin=0.5"),
        ("show-config", "lr=0"),
        ("show-config", "levels=-1"),
        ("verify-balls", "epsilon=nan"),
        ("verify-balls", "epsilon=1"),
        ("show-config", "epsilon=inf"),
        ("show-config", "lr=nan"),
        ("show-config", "lr=inf"),
        ("show-config", "margin=inf"),
        ("show-config", "seed=-1"),
        ("show-config", "levels=1,1"),
        ("show-config", "levels=0,,1"),
        ("show-config", "levels=1,"),
        ("show-config", "batch_size=0"),
    ])
    def test_bad_config_value_is_usage_error(self, workspace, capsys, command, pair):
        balls = build(workspace)
        out = workspace["dir"] / "out"
        flags = {
            "verify-balls": ["--balls", str(balls), "--inventory", str(workspace["inventory"])],
            "build-balls": ["--inventory", str(workspace["inventory"]),
                            "--embeddings", str(workspace["embeddings"]), "--out", str(out)],
            "prepare": ["--corpus", str(workspace["corpus"]),
                        "--inventory", str(workspace["inventory"]),
                        "--balls", str(balls), "--out", str(out)],
            "show-config": [],
        }[command]
        capsys.readouterr()
        assert main([command, *flags, "--set", pair]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        # the message names the bad key and no other (batch_size=0, not lr)
        key = pair.split("=")[0]
        assert [k for k in DEFAULTS if k in captured.err] == [key]
        assert not out.exists()

    def test_bad_levels_value_is_usage_error(self, workspace):
        balls = build(workspace)
        code = main(["prepare", "--corpus", str(workspace["corpus"]),
                     "--inventory", str(workspace["inventory"]),
                     "--balls", str(balls),
                     "--out", str(workspace["dir"] / "d"),
                     "--set", "levels=a,b"])
        assert code == 1

"""Command-line front door for the ball pipeline.

Subcommands cover the batch workflow: build and verify ball files,
prepare per-level datasets, train the encoder, evaluate, and answer
containment queries.  Each command that takes `--out` writes a JSON
manifest there, naming its inputs and outputs with content hashes plus
the seed and package version.  Every command is byte-for-byte
idempotent given identical inputs.

Exit codes: 0 success, 1 usage, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .construct import construct_balls
from .corpus import dataset_report, lift_to_level, parse_annotated_corpus, save_records
from .embeddings import load_embeddings
from .encoder import (TrainConfig, embed_records, forward_batch, load_encoder, prepare_arrays,
                      save_encoder, train)
from .evaluator import predict_records, save_reports
from .geometry import (GeometryConfig, load_balls, save_balls,
                       verify_configuration)
from .inventory import SenseId, load_inventory, shared_hypernym_pairs
from .selector import deduction_query, save_predictions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

# every other key is a GeometryConfig or TrainConfig field, with its default
DEFAULTS: dict[str, object] = {
    "levels": "0,1,2,3,4",
    **asdict(GeometryConfig()),
    **asdict(TrainConfig()),
}


class UsageError(ValueError):
    """Bad flags or config keys; maps to exit code 1."""


def _coerce(key: str, raw: str):
    if key not in DEFAULTS:
        raise UsageError(f"unknown config key: {key!r}")
    kind = type(DEFAULTS[key])
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise UsageError(f"config key {key!r} expects {kind.__name__}, got {raw!r}")


@dataclass(frozen=True)
class Config:
    """The resolved key=value table plus the settings built from it.

    `resolve_config` builds them before any command runs, so a bad value
    is a usage error whichever command reads it.
    """

    values: dict[str, object]
    geometry: GeometryConfig
    train: TrainConfig
    levels: list[int]


def resolve_config(config_path: str | None, overrides: list[str]) -> Config:
    """Defaults, then config-file lines, then --set pairs; later wins."""
    cfg = dict(DEFAULTS)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{config_path}:{lineno}: expected key=value")
                key, raw = line.split("=", 1)
                cfg[key.strip()] = _coerce(key.strip(), raw.strip())
    for pair in overrides:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        cfg[key] = _coerce(key, raw)
    return Config(cfg, _build(GeometryConfig, cfg), _build(TrainConfig, cfg), _levels(cfg))


def _build(cls, cfg: dict):
    try:
        return cls(**{f.name: cfg[f.name] for f in fields(cls)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _levels(cfg: dict) -> list[int]:
    try:
        out = [int(tok) for tok in str(cfg["levels"]).split(",")]
    except ValueError:
        raise UsageError(f"levels expects comma-separated integers, got {cfg['levels']!r}")
    if not out or any(v < 0 for v in out):
        raise UsageError("levels must name at least one level >= 0")
    if len(set(out)) != len(out):
        raise UsageError(f"levels must not repeat a level, got {cfg['levels']!r}")
    return out


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, cfg: dict, inputs, outputs) -> str:
    """Record inputs/outputs (with hashes), config, seed and version.

    No timestamps: reruns with identical inputs must produce identical
    manifests.
    """
    doc = {
        "command": command,
        "version": __version__,
        "seed": cfg["seed"],
        "config": {k: cfg[k] for k in sorted(cfg)},
        "inputs": {os.fspath(p): _sha256(p) for p in inputs},
        "outputs": {os.fspath(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir, f"manifest-{command}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _dataset_paths(data_dir: str, levels) -> list[str]:
    """The per-level dataset files `prepare` writes into data_dir."""
    return [os.path.join(data_dir, f"dataset-l{level}.tsv") for level in levels]


class _Outputs:
    """`out(name)` creates `--out` on first use and records the path it returns."""

    def __init__(self, out_dir: str | None, manifest_config: dict):
        self.dir, self.manifest_config, self.paths = out_dir, manifest_config, []

    def __call__(self, name: str) -> str:
        os.makedirs(self.dir, exist_ok=True)
        self.paths.append(os.path.join(self.dir, name))
        return self.paths[-1]


# ---------------------------------------------------------------------------
# commands: each takes (args, cfg, out) and returns an exit code

def cmd_build_balls(args, cfg, out) -> int:
    inventory = load_inventory(args.inventory)
    table = load_embeddings(args.embeddings, {node.lemma for node in inventory.taxonomy.nodes()})
    balls = construct_balls(inventory.taxonomy, table, cfg.geometry)
    report = verify_configuration(balls, inventory.taxonomy, cfg.geometry)
    print(report.render())
    if not report.ok:
        return EXIT_VERIFY
    save_balls(balls, out("balls.tsv"))
    with open(out("verify-report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.render() + "\n")
    return EXIT_OK


def cmd_verify_balls(args, cfg, out) -> int:
    balls = load_balls(args.balls)
    inventory = load_inventory(args.inventory)
    # a ball file that shares no sense with the inventory would pass unchecked
    if not any(node in balls for node in inventory.taxonomy.nodes()):
        raise ValueError(f"{args.balls}: no ball names a node of {args.inventory}")
    report = verify_configuration(balls, inventory.taxonomy, cfg.geometry)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_prepare(args, cfg, out) -> int:
    records = parse_annotated_corpus(args.corpus)
    inventory = load_inventory(args.inventory)
    balls = load_balls(args.balls)
    stats_lines = []
    for level in cfg.levels:
        kept = lift_to_level(records, inventory.taxonomy, level, balls)
        save_records(kept, out(f"dataset-l{level}.tsv"))
        stats_lines.append(dataset_report(f"dataset-l{level}", level, records, kept))
        print(stats_lines[-1])
    with open(out("stats.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(stats_lines) + "\n")
    return EXIT_OK


def _training_arrays(args, window_k: int):
    """prepare_arrays' (T, C, Y) for the training corpus.  The records,
    table and balls they come from are freed when this returns, so none
    of them is alive at the first training step."""
    records = parse_annotated_corpus(args.corpus)
    if not records:
        raise ValueError(f"{args.corpus}: training corpus is empty")
    table = load_embeddings(args.embeddings, {t for r in records for t in r.tokens})
    return prepare_arrays(records, table, load_balls(args.balls), window_k)


def cmd_train(args, cfg, out) -> int:
    T, C, Y = _training_arrays(args, cfg.train.window_k)
    result = train(T, C, Y, cfg.train)
    save_encoder(result.params, out("checkpoint.json"), cfg.train)
    with open(out("curve.tsv"), "w", encoding="utf-8") as fh:
        for epoch, value in result.curve:
            fh.write("%d\t%.17g\n" % (epoch, value))
    if result.curve:
        print(f"trained {cfg.train.epochs} epochs, final loss {result.curve[-1][1]:.6f}")
    else:
        print("trained 0 epochs, checkpoint equals initialization")
    return EXIT_OK


def _encode_levels(args, datasets):
    """Encoder outputs for each level's records, the checkpoint's output
    width and its training config.  The table and the weights live only
    in this call, so they are freed before eval loads what selection reads."""
    table = load_embeddings(args.embeddings,
                            {t for records in datasets for r in records for t in r.tokens})
    params, tc = load_encoder(args.checkpoint)
    if params.dim != table.dim:
        raise ValueError(f"model width is {params.dim} in {args.checkpoint}, "
                         f"but {args.embeddings} holds {table.dim}-d vectors")
    outputs, inputs = [], None
    for records in datasets:
        # lifting rewrites targets only, so levels often share one batch of inputs
        key = [(r.tokens, r.indices) for r in records]
        if key != inputs:
            V, inputs = forward_batch(params, *embed_records(records, table, tc.window_k)), key
        outputs.append(V)
    return outputs, params.out_dim, tc


def cmd_eval(args, cfg, out) -> int:
    data_paths = _dataset_paths(args.data, cfg.levels)
    for level, path in zip(cfg.levels, data_paths):
        if not os.path.exists(path):
            raise ValueError(f"{path}: no dataset for level {level}")
    # the datasets name every token eval reads, so they are parsed before the table
    datasets = [parse_annotated_corpus(path) for path in data_paths]
    outputs, out_dim, tc = _encode_levels(args, datasets)
    balls = load_balls(args.balls)
    if out_dim != balls.dim:
        raise ValueError(f"{args.checkpoint} predicts {out_dim}-d vectors, "
                         f"but {args.balls} holds {balls.dim}-d balls")
    inventory = load_inventory(args.inventory)
    # training keys describe the evaluated model, so they come from its checkpoint
    out.manifest_config = {**cfg.values, **asdict(tc)}
    reports = {}
    for level, records, V in zip(cfg.levels, datasets, outputs):
        report, preds = predict_records(V, records, level, inventory, balls)
        reports[level] = report
        save_predictions(preds, level, out(f"predictions-l{level}.tsv"))
        print(f"level {level}: {report.render()}")
    # an anchor-based selector cannot split senses of one word that share a hypernym
    print(f"shared-hypernym sense pairs: {shared_hypernym_pairs(inventory)}")
    save_reports(reports, out("report.tsv"), dataset=os.path.basename(args.data.rstrip("/")))
    return EXIT_OK


def cmd_query(args, cfg, out) -> int:
    balls = load_balls(args.balls)
    a = SenseId.parse(args.hyponym)
    b = SenseId.parse(args.hypernym)
    try:
        verdict = deduction_query(a, b, balls, cfg.geometry)
    except KeyError as exc:
        print(f"unknown sense: {exc.args[0]}", file=sys.stderr)
        return EXIT_DATA
    print("yes" if verdict else "no")
    return EXIT_OK


def cmd_show_config(args, cfg, out) -> int:
    for key in sorted(cfg.values):
        print(f"{key}={cfg.values[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

# name -> (handler, help, {file flag: its help}); every file flag is required
COMMANDS = {
    "build-balls": (cmd_build_balls, "construct and verify sense balls",
                    {"inventory": None, "embeddings": None, "out": None}),
    "verify-balls": (cmd_verify_balls, "check a ball file against a taxonomy",
                     {"balls": None, "inventory": None}),
    "prepare": (cmd_prepare, "lift a corpus to per-level datasets",
                {"corpus": None, "inventory": None, "balls": None, "out": None}),
    "train": (cmd_train, "train the encoder on a prepared dataset",
              {"corpus": "prepared dataset file", "embeddings": None, "balls": None, "out": None}),
    "eval": (cmd_eval, "evaluate a checkpoint on prepared datasets",
             {"data": "directory with dataset-l<K>.tsv files", "checkpoint": None,
              "inventory": None, "embeddings": None, "balls": None, "out": None}),
    "query": (cmd_query, "ask whether one sense's ball contains another's", {"balls": None}),
    "show-config": (cmd_show_config, "print the resolved configuration", {}),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="ballwsd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, text, flags) in COMMANDS.items():
        p = subs.add_parser(name, help=text)
        for flag, flag_help in flags.items():
            p.add_argument(f"--{flag}", required=True, help=flag_help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.set_defaults(func=handler)
    query = subs.choices["query"]
    query.add_argument("hyponym", help="inner sense, e.g. human.n.01")
    query.add_argument("hypernym", help="outer sense, e.g. mammal.n.01")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.set)
        out = _Outputs(getattr(args, "out", None), cfg.values)
        code = args.func(args, cfg, out)
        if code == EXIT_OK and out.paths:
            # inputs: every file flag given except --out; --data stands for its datasets
            flags = COMMANDS[args.command][2]
            inputs = [getattr(args, flag) for flag in flags if flag not in ("data", "out")]
            inputs += _dataset_paths(args.data, cfg.levels) if "data" in flags else []
            write_manifest(out.dir, args.command, out.manifest_config, inputs, out.paths)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

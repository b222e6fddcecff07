"""Command-line front door for the ball pipeline.

Subcommands cover the batch workflow: build and verify ball files,
prepare per-level datasets, train the encoder, evaluate, and answer
containment queries.  Every command writes a JSON manifest naming its
inputs and outputs with content hashes plus the seed and package
version, and is byte-for-byte idempotent given identical inputs.

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
from .construct import ConstructionError, construct_balls
from .corpus import dataset_report, lift_to_level, parse_annotated_corpus, save_records
from .embeddings import load_embeddings
from .encoder import TrainConfig, load_encoder, save_encoder, train
from .evaluator import predict_records, save_reports
from .geometry import (GeometryConfig, load_balls, save_balls,
                       verify_configuration)
from .inventory import SenseId, check_distinct_hypernym_assumption, load_inventory
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
        out = [int(tok) for tok in str(cfg["levels"]).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"levels expects comma-separated integers, got {cfg['levels']!r}")
    if not out or any(v < 0 for v in out):
        raise UsageError("levels must name at least one level >= 0")
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


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# commands

def cmd_build_balls(args, cfg) -> int:
    inventory = load_inventory(args.inventory)
    table = load_embeddings(args.embeddings)
    balls = construct_balls(inventory.taxonomy, table, cfg.geometry)
    report = verify_configuration(balls, inventory.taxonomy, cfg.geometry)
    print(report.render())
    if not report.ok:
        return EXIT_VERIFY
    out = _ensure_out(args)
    ball_path = os.path.join(out, "balls.tsv")
    save_balls(balls, ball_path)
    report_path = os.path.join(out, "verify-report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.render() + "\n")
    write_manifest(out, "build-balls", cfg.values,
                   [args.inventory, args.embeddings], [ball_path, report_path])
    return EXIT_OK


def cmd_verify_balls(args, cfg) -> int:
    balls = load_balls(args.balls)
    inventory = load_inventory(args.inventory)
    report = verify_configuration(balls, inventory.taxonomy, cfg.geometry)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_prepare(args, cfg) -> int:
    records = parse_annotated_corpus(args.corpus)
    inventory = load_inventory(args.inventory)
    balls = load_balls(args.balls)
    out = _ensure_out(args)
    outputs = []
    stats_lines = []
    for level in cfg.levels:
        kept = lift_to_level(records, inventory.taxonomy, level, balls)
        path = os.path.join(out, f"dataset-l{level}.tsv")
        save_records(kept, path)
        outputs.append(path)
        line = dataset_report(f"dataset-l{level}", level, records, kept)
        stats_lines.append(line)
        print(line)
    stats_path = os.path.join(out, "stats.txt")
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(stats_lines) + "\n")
    outputs.append(stats_path)
    write_manifest(out, "prepare", cfg.values,
                   [args.corpus, args.inventory, args.balls], outputs)
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    records = parse_annotated_corpus(args.corpus)
    if not records:
        print("training corpus is empty", file=sys.stderr)
        return EXIT_DATA
    table = load_embeddings(args.embeddings)
    balls = load_balls(args.balls)
    result = train(records, table, balls, cfg.train)
    out = _ensure_out(args)
    ckpt_path = os.path.join(out, "checkpoint.json")
    save_encoder(result.params, ckpt_path, cfg.train)
    curve_path = os.path.join(out, "curve.tsv")
    with open(curve_path, "w", encoding="utf-8") as fh:
        for epoch, value in result.curve:
            fh.write("%d\t%.17g\n" % (epoch, value))
    if result.curve:
        print(f"trained {cfg.train.epochs} epochs, final loss {result.curve[-1][1]:.6f}")
    else:
        print("trained 0 epochs, checkpoint equals initialization")
    write_manifest(out, "train", cfg.values,
                   [args.corpus, args.embeddings, args.balls],
                   [ckpt_path, curve_path])
    return EXIT_OK


def cmd_eval(args, cfg) -> int:
    table = load_embeddings(args.embeddings)
    balls = load_balls(args.balls)
    inventory = load_inventory(args.inventory)
    params, tc = load_encoder(args.checkpoint)
    out = _ensure_out(args)
    reports = {}
    outputs = []
    inputs = [args.embeddings, args.balls, args.inventory, args.checkpoint]
    for level in cfg.levels:
        data_path = os.path.join(args.data, f"dataset-l{level}.tsv")
        if not os.path.exists(data_path):
            print(f"no dataset for level {level}: {data_path}", file=sys.stderr)
            return EXIT_DATA
        inputs.append(data_path)
        records = parse_annotated_corpus(data_path)
        report, preds = predict_records(params, records, level, inventory,
                                        table, balls, cfg.geometry, tc.window_k)
        reports[level] = report
        pred_path = os.path.join(out, f"predictions-l{level}.tsv")
        save_predictions(preds, pred_path)
        outputs.append(pred_path)
        print(f"level {level}: {report.render()}")
    # an anchor-based selector cannot split senses of one word that share a hypernym
    print(f"shared-hypernym sense pairs: {len(check_distinct_hypernym_assumption(inventory))}")
    report_path = os.path.join(out, "report.tsv")
    save_reports(reports, report_path, dataset=os.path.basename(args.data.rstrip("/")))
    outputs.append(report_path)
    # training keys describe the evaluated model, so they come from its checkpoint
    write_manifest(out, "eval", {**cfg.values, **asdict(tc)}, inputs, outputs)
    return EXIT_OK


def cmd_query(args, cfg) -> int:
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


def cmd_show_config(args, cfg) -> int:
    for key in sorted(cfg.values):
        print(f"{key}={cfg.values[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ballwsd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("build-balls", help="construct and verify sense balls")
    p.add_argument("--inventory", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_balls)

    p = subs.add_parser("verify-balls", help="check a ball file against a taxonomy")
    p.add_argument("--balls", required=True)
    p.add_argument("--inventory", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify_balls)

    p = subs.add_parser("prepare", help="lift a corpus to per-level datasets")
    p.add_argument("--corpus", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--balls", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = subs.add_parser("train", help="train the encoder on a prepared dataset")
    p.add_argument("--corpus", required=True, help="prepared dataset file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--balls", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on prepared datasets")
    p.add_argument("--data", required=True, help="directory with dataset-l<K>.tsv files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--balls", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("query", help="ask whether one sense's ball contains another's")
    p.add_argument("--balls", required=True)
    p.add_argument("hyponym", help="inner sense, e.g. human.n.01")
    p.add_argument("hypernym", help="outer sense, e.g. mammal.n.01")
    _add_common(p)
    p.set_defaults(func=cmd_query)

    p = subs.add_parser("show-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.set)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

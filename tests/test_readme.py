"""README's "Library use" block runs as written, on tiny input files."""

import re
from pathlib import Path

import numpy as np

from helpers import save_embeddings, table

README = Path(__file__).resolve().parent.parent / "README.md"

EDGES = (
    "entity.n.01\t-\n"
    "animal.n.01\tentity.n.01\n"
    "plant.n.01\tentity.n.01\n"
    "dog.n.01\tanimal.n.01\n"
    "dog.n.02\tplant.n.01\n"
)
CONTEXTS = ("bark fur leash walk", "root leaf soil bloom")
WORDS = ["entity", "animal", "plant", "dog"] + " ".join(CONTEXTS).split()


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(50)
    save_embeddings(table({w: rng.standard_normal(8) for w in WORDS}),
                    tmp_path / "embeddings.txt")
    (tmp_path / "inventory.tsv").write_text(EDGES)
    (tmp_path / "corpus.tsv").write_text("".join(
        f"dog.n.0{k + 1}\t0\tdog {context}\n"
        for _ in range(3) for k, context in enumerate(CONTEXTS)))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    assert (tmp_path / "predictions-l1.tsv").read_text().count("\n") == 6
    assert len(scope["dog"]) == 6

"""Every table gen_dataset draws, held to the bits of a committed digest.

For each schema of the shipped rule cases and one schema per column kind
(integers and not, lo == hi, and a mixed column that draws errors too),
over seeds 0-19. Each table is hashed as its headers and its cells'
(type name, repr), column by column, so a change to how a column is drawn
that moves one cell, or the random stream under it, fails here.

To write the digest again, after a change meant to alter the datasets:
``PYTHONPATH=src python tests/test_dataset_digest.py``.
"""

import hashlib
import json
from pathlib import Path

from sprego.equivalence import _KINDS, ColumnSpec, DatasetSchema, default_rule_cases, gen_dataset

DIGEST = Path(__file__).parent / "data" / "dataset_digest.json"
SEEDS = range(20)


def _kind_schema(kind: str) -> DatasetSchema:
    """One column of *kind* per way of drawing its numbers, plus, for
    mixed, a column that draws every type, errors included."""
    columns = [
        ColumnSpec("real", kind, lo=-3.0, hi=7.5),
        ColumnSpec("whole", kind, lo=-2.5, hi=9.0, integers=True),
        ColumnSpec("flat", kind, lo=2.5, hi=2.5),
        ColumnSpec("flat_whole", kind, lo=4.0, hi=4.0, integers=True),
        ColumnSpec("short", kind, alphabet=("x", "Y"), maxlen=2),
    ]
    if kind == "mixed":
        columns.append(ColumnSpec("every", kind, mixed_types=("number", "text", "logical", "blank", "error")))
    return DatasetSchema(tuple(columns), rows=12, label=kind)


def _schemas() -> dict[str, DatasetSchema]:
    out = {f"rule {case.name} {s.label}": s for case in default_rule_cases() for s in case.schemas}
    out.update((f"kind {kind}", _kind_schema(kind)) for kind in sorted(_KINDS))
    return out


def _digest(schema: DatasetSchema) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        table = gen_dataset(schema, seed)
        h.update(f"seed {seed} {table.headers!r}\n".encode())
        for column in table.columns:
            for c in column:
                h.update(f"{type(c).__name__} {c!r}\n".encode())
    return h.hexdigest()


def _digests() -> dict[str, str]:
    return {key: _digest(schema) for key, schema in _schemas().items()}


def test_datasets_match_committed_digest():
    want = json.loads(DIGEST.read_text())
    got = _digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_digest_covers_every_rule_case_schema_and_column_kind():
    want = json.loads(DIGEST.read_text())
    cases = {k.split()[1] for k in want if k.startswith("rule ")}
    assert cases == {c.name for c in default_rule_cases()}
    assert {k.split()[1] for k in want if k.startswith("kind ")} == _KINDS
    schemas = _schemas()
    mixed = [c for c in schemas["kind mixed"].columns if "error" in c.mixed_types]
    assert mixed and any(c.integers for c in schemas["kind numeric"].columns)


if __name__ == "__main__":
    DIGEST.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")

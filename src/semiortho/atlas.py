"""The classification table of fake projective planes, as queryable data.

Each record describes one arithmetic lattice class: the defining field or
class label, the prime p, the set T1 of extra primes, the normalizer index
N, the group suffix, the automorphism group of the pair of conjugate
surfaces, and the first homology group as a list of cyclic factors.  Every
record accounts for two complex-conjugate surfaces.

Three table lines carry two equivalent presentations of the same lattice
("slash rows"); those are stored as a single record whose suffix keeps the
printed slashed label and whose alternate T1 presentation is kept as an
alias token (a leading "/" in the T1 column).

Curated annotations shipped with the data:

* lifts_su21 -- whether the relevant lattice lifts to SU(2,1); false
  exactly on the classes C2 and C18.
* sc_quotients -- subgroups G for which the quotient surface is known to be
  simply connected; "?" means not asserted either way (unknown is not
  false).  Only the four pairs feeding the torsion-free-quotient
  construction are asserted.

CSV format (UTF-8, header required):

    field_or_class,p,T1,index_N,suffix,aut,h1,lifts_su21,sc_quotients

T1 and h1 are semicolon-joined; sc_quotients is "?" or semicolon-joined
subgroup labels.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from math import prod
from pathlib import Path

CSV_HEADER = (
    "field_or_class",
    "p",
    "T1",
    "index_N",
    "suffix",
    "aut",
    "h1",
    "lifts_su21",
    "sc_quotients",
)

AUT_LABELS = ("trivial", "Z/3", "(Z/3)^2", "G21")
ORDER7_SUBGROUPS = ("Z/7", "G21")
DATA_ENV_VAR = "SEMIORTHO_ATLAS"


class AtlasError(ValueError):
    """Raised for malformed atlas data, with the offending row number."""


@dataclass(frozen=True)
class FPPRecord:
    field_or_class: str
    p: int
    t1: tuple[str, ...]
    index_n: int
    suffix: str
    aut: str
    h1: tuple[int, ...]
    lifts_su21: bool
    sc_quotients: frozenset[str] | None  # None = unknown
    t1_alias: str | None = None

    def __post_init__(self):
        if self.p not in (2, 3, 5):
            raise ValueError(f"p must be 2, 3 or 5, got {self.p}")
        if self.index_n < 1:
            raise ValueError("index N must be positive")
        if self.aut not in AUT_LABELS:
            raise ValueError(f"unknown automorphism label {self.aut!r}")
        if any(f < 1 for f in self.h1):
            raise ValueError("homology factors must be positive")

    @property
    def h1_order(self) -> int:
        return prod(self.h1)

    @property
    def key(self) -> tuple:
        return (self.field_or_class, self.p, self.t1, self.suffix)


def three_torsion_free(record: FPPRecord) -> bool:
    """True when no cyclic factor of the first homology is divisible by 3."""
    return all(f % 3 for f in record.h1)


@dataclass(frozen=True)
class AtlasQueryResult:
    records: tuple[FPPRecord, ...]

    @property
    def surface_count(self) -> int:
        # one record = a pair of complex conjugate surfaces
        return 2 * len(self.records)

    def __len__(self):
        return len(self.records)


def query_aut(records, group: str) -> AtlasQueryResult:
    if group not in AUT_LABELS:
        raise ValueError(f"unknown group label {group!r}; choose from {AUT_LABELS}")
    return AtlasQueryResult(tuple(r for r in records if r.aut == group))


def _aut_contains(aut: str, subgroup: str) -> bool:
    contains = {
        "trivial": {"trivial"},
        "Z/3": {"trivial", "Z/3"},
        "(Z/3)^2": {"trivial", "Z/3", "(Z/3)^2"},
        "G21": {"trivial", "Z/3", "Z/7", "G21"},
    }
    return subgroup in contains[aut]


def k_phantom_eligible(record: FPPRecord, subgroup: str) -> bool:
    """Whether (record, subgroup) supports the torsion-free-quotient argument.

    Requires a subgroup containing an order-7 element, contained in the
    automorphism group, with the quotient asserted simply connected.
    """
    if subgroup not in ORDER7_SUBGROUPS:
        raise ValueError(
            f"subgroup {subgroup!r} has no order-7 element; choose from {ORDER7_SUBGROUPS}"
        )
    if not _aut_contains(record.aut, subgroup):
        return False
    return record.sc_quotients is not None and subgroup in record.sc_quotients


def k_phantom_pairs(records) -> tuple[tuple[FPPRecord, str], ...]:
    out = []
    for r in records:
        for g in ORDER7_SUBGROUPS:
            if k_phantom_eligible(r, g):
                out.append((r, g))
    return tuple(out)


# -- serialization -----------------------------------------------------------

def _parse_t1(cell: str) -> tuple[tuple[str, ...], str | None]:
    if not cell:
        return (), None
    labels = []
    alias = None
    for token in cell.split(";"):
        if token.startswith("/"):
            alias = token[1:]
        elif token:
            labels.append(token)
    return tuple(labels), alias


def _format_t1(record: FPPRecord) -> str:
    tokens = list(record.t1)
    if record.t1_alias is not None:
        tokens.append("/" + record.t1_alias)
    return ";".join(tokens)


def _parse_sc(cell: str) -> frozenset[str] | None:
    if cell == "?":
        return None
    if not cell:
        return frozenset()
    return frozenset(cell.split(";"))


def _format_sc(value: frozenset[str] | None) -> str:
    if value is None:
        return "?"
    return ";".join(sorted(value))


def load_records(source) -> tuple[FPPRecord, ...]:
    """Parse and validate records from a path, file object, or CSV text."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1)
            if row and any(cell for cell in row)]
    if not rows:
        raise AtlasError("empty dataset: the header row is required")
    if tuple(rows[0][1]) != CSV_HEADER:
        raise AtlasError(f"row {rows[0][0]}: bad header {rows[0][1]!r}")
    records = []
    for lineno, row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise AtlasError(f"row {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        try:
            t1, alias = _parse_t1(row[2])
            record = FPPRecord(
                field_or_class=row[0],
                p=int(row[1]),
                t1=t1,
                index_n=int(row[3]),
                suffix=row[4],
                aut=row[5],
                h1=tuple(int(x) for x in row[6].split(";")) if row[6] else (),
                lifts_su21={"true": True, "false": False}[row[7]],
                sc_quotients=_parse_sc(row[8]),
                t1_alias=alias,
            )
        except AtlasError:
            raise
        except (ValueError, KeyError) as exc:
            raise AtlasError(f"row {lineno}: {exc}") from exc
        records.append(record)
    keys = [r.key for r in records]
    if len(set(keys)) != len(keys):
        dupe = next(k for k in keys if keys.count(k) > 1)
        raise AtlasError(f"duplicate record key {dupe}")
    return tuple(records)


def dump_records(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.field_or_class,
                str(r.p),
                _format_t1(r),
                str(r.index_n),
                r.suffix,
                r.aut,
                ";".join(str(f) for f in r.h1),
                "true" if r.lifts_su21 else "false",
                _format_sc(r.sc_quotients),
            ]
        )
    return out.getvalue()


def default_dataset_path() -> Path:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "fpp_atlas.csv"

import io

import pytest

from semiortho import (
    FPPRecord,
    dump_records,
    k_phantom_eligible,
    k_phantom_pairs,
    load_default,
    load_records,
    query_aut,
    three_torsion_free,
)
from semiortho.atlas import AtlasError, CSV_HEADER, default_dataset_path


def test_shipped_dataset_counts():
    records = load_default()
    assert len(records) == 50
    assert sum(2 for _ in records) == 100


def test_empty_input():
    # the header is required: no rows at all is a data error, a header alone is no records
    for source in ("\n", "\n,,\n", io.StringIO("")):
        with pytest.raises(AtlasError, match="header row is required"):
            load_records(source)
    assert load_records(io.StringIO(",".join(CSV_HEADER) + "\n")) == ()


def test_g21_query():
    records = load_default()
    result = query_aut(records, "G21")
    assert len(result) == 3
    assert result.surface_count == 6
    orders = sorted(r.h1_order for r in result.records)
    assert orders == [8, 16, 64]
    assert all(three_torsion_free(r) for r in result.records)


def test_g21_record_homology():
    records = load_default()
    match = [
        r
        for r in records
        if r.field_or_class == "Q(sqrt-7)" and r.t1 == () and r.suffix == "b"
    ]
    assert len(match) == 1
    assert match[0].aut == "G21"
    assert match[0].h1 == (2, 2, 2, 2)
    assert match[0].index_n == 21


def test_unknown_aut_label_rejected():
    with pytest.raises(ValueError):
        query_aut(load_default(), "Z/9")


def test_query_trivial_on_empty_input():
    assert query_aut((), "trivial").surface_count == 0


def test_z3_squared_rows():
    records = load_default()
    result = query_aut(records, "(Z/3)^2")
    classes = {r.field_or_class for r in result.records}
    assert classes == {"C2", "C18"}


def test_three_torsion_free():
    base = dict(
        field_or_class="X", p=2, t1=(), index_n=1, suffix="-", aut="trivial",
        lifts_su21=True, sc_quotients=None,
    )
    assert three_torsion_free(FPPRecord(h1=(2, 2, 2, 2), **base))
    assert three_torsion_free(FPPRecord(h1=(), **base))
    assert not three_torsion_free(FPPRecord(h1=(2, 3, 4, 4), **base))


def test_h1_order():
    records = load_default()
    with_torsion = [r for r in records if r.h1 == (2, 3, 4, 4)]
    assert len(with_torsion) == 1
    assert with_torsion[0].h1_order == 96
    assert not three_torsion_free(with_torsion[0])


def test_k_phantom_pairs():
    records = load_default()
    pairs = k_phantom_pairs(records)
    assert len(pairs) == 4
    keys = {(r.field_or_class, r.t1, g) for r, g in pairs}
    assert keys == {
        ("Q(sqrt-7)", ("7",), "Z/7"),
        ("Q(sqrt-7)", ("7",), "G21"),
        ("C20", (), "Z/7"),
        ("C20", (), "G21"),
    }


def test_k_phantom_eligibility():
    records = load_default()
    eligible = [
        r
        for r in records
        if r.field_or_class == "Q(sqrt-7)" and r.t1 == ("7",) and r.suffix == "a"
    ][0]
    assert k_phantom_eligible(eligible, "G21")
    assert k_phantom_eligible(eligible, "Z/7")
    z3_row = next(r for r in records if r.aut == "Z/3")
    assert not k_phantom_eligible(z3_row, "G21")
    g21_unflagged = [
        r for r in records if r.aut == "G21" and r.sc_quotients is None
    ]
    assert len(g21_unflagged) == 1  # the (Q(sqrt-7), {}, b) row
    assert not k_phantom_eligible(g21_unflagged[0], "Z/7")


def test_k_phantom_rejects_groups_without_order_seven():
    record = load_default()[0]
    with pytest.raises(ValueError):
        k_phantom_eligible(record, "Z/3")


def test_lifts_annotation():
    records = load_default()
    for r in records:
        expected = r.field_or_class not in ("C2", "C18")
        assert r.lifts_su21 is expected


def test_round_trip():
    records = load_default()
    assert load_records(dump_records(records)) == records


def test_alias_rows():
    records = load_default()
    aliased = [r for r in records if r.t1_alias is not None]
    assert len(aliased) == 3
    assert {r.suffix for r in aliased} == {"b/b", "b/d"}
    assert all(r.t1 == () for r in aliased)
    assert all(r.t1_alias == "2I" for r in aliased)


def test_opaque_t1_decorations():
    records = load_default()
    labels = {label for r in records for label in r.t1}
    assert {"17-", "3-", "3+"} <= labels


def test_parse_error_reports_row():
    bad = ",".join(CSV_HEADER) + "\nQ(sqrt-1),4,,3,a,Z/3,2,true,?\n"
    with pytest.raises(AtlasError) as err:
        load_records(bad)
    assert "row 2" in str(err.value)


def test_bad_header_rejected():
    with pytest.raises(AtlasError):
        load_records("a,b,c\n1,2,3\n")


def test_wrong_field_count_reports_row():
    bad = ",".join(CSV_HEADER) + "\nQ(sqrt-1),5,,3\n"
    with pytest.raises(AtlasError) as err:
        load_records(bad)
    assert "row 2" in str(err.value)


def test_duplicate_keys_rejected():
    row = "Q(sqrt-1),5,,3,a,Z/3,2;4;31,true,?"
    bad = ",".join(CSV_HEADER) + f"\n{row}\n{row}\n"
    with pytest.raises(AtlasError):
        load_records(bad)


def test_env_override(monkeypatch, tmp_path):
    target = tmp_path / "alt.csv"
    target.write_text(dump_records(load_default()[:2]), encoding="utf-8")
    monkeypatch.setenv("SEMIORTHO_ATLAS", str(target))
    assert default_dataset_path() == target
    assert len(load_default()) == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_records(tmp_path / "nope.csv")


def test_record_validation():
    base = dict(
        field_or_class="X", t1=(), index_n=1, suffix="-", aut="trivial",
        h1=(2,), lifts_su21=True, sc_quotients=None,
    )
    with pytest.raises(ValueError):
        FPPRecord(p=7, **base)
    with pytest.raises(ValueError):
        FPPRecord(p=2, **{**base, "aut": "Z/5"})
    with pytest.raises(ValueError):
        FPPRecord(p=2, **{**base, "index_n": 0})
    with pytest.raises(ValueError):
        FPPRecord(p=2, **{**base, "h1": (0,)})

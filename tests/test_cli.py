import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import semiortho
from semiortho import dump_records, load_default
from semiortho.cli import main, parse_polynomial


def run_cli(*argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)


@pytest.mark.parametrize(
    "entry", GOLDEN["commands"], ids=[" ".join(e["argv"]) for e in GOLDEN["commands"]]
)
def test_readme_example_matches_golden(entry):
    # error_paths are usage and data errors; test_error_path_exits_2 checks
    # them against the contract (exit 2), not against their recorded exits
    assert run_cli(*entry["argv"]) == (entry["exit"], entry["stdout"])


def test_readme_cli_block_lists_golden_commands():
    # every README example has its golden entry, in the same order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines() if line.startswith("semiortho ")]
    recorded = [e["argv"][:-2] for e in GOLDEN["commands"]]
    assert all(e["argv"][-2:] == ["--format", "machine"] for e in GOLDEN["commands"])
    assert examples == recorded


@pytest.mark.parametrize(
    "entry", GOLDEN["error_paths"], ids=[" ".join(e["argv"]) for e in GOLDEN["error_paths"]]
)
def test_error_path_exits_2(entry, capsys):
    assert run_cli(*entry["argv"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gram_wilson_mod_2():
    code, out = run_cli("gram", "--profile", "wilson", "--mod", "2", "--format", "machine")
    assert code == 0
    assert "record.matrix.row0=1,1,0,0,0" in out
    assert "record.matrix.row3=0,1,1,1,1" in out
    assert "check.det_formula=PASS" in out
    assert out.rstrip().endswith("verdict=PASS")


def test_gram_constant_polynomial():
    code, out = run_cli("gram", "--poly", "1", "--twists", "0", "--format", "machine")
    assert code == 0
    assert "record.matrix.row0=1" in out
    assert "record.determinant=1" in out


def test_gram_fake_plane_exceptional():
    code, out = run_cli(
        "gram", "--profile", "fake-pn:3", "--twists", "0,-1,-2,-3",
        "--expect-exceptional", "--format", "machine",
    )
    assert code == 0
    assert "record.numerically_exceptional=true" in out
    assert "check.numerically_exceptional=PASS" in out


def test_gram_expect_exceptional_fails_on_wilson():
    code, out = run_cli(
        "gram", "--profile", "wilson", "--expect-exceptional", "--format", "machine"
    )
    assert code == 1
    assert "check.numerically_exceptional=FAIL" in out
    assert "verdict=FAIL" in out


def test_gram_rejects_bad_poly():
    code, _ = run_cli("gram", "--poly", "banana")
    assert code == 2
    code, _ = run_cli("gram", "--poly", "0,1/2")
    assert code == 2


def test_detcheck_profile():
    code, out = run_cli("detcheck", "--profile", "wilson", "--format", "machine")
    assert code == 0
    assert "record.determinant=576650390625" in out
    assert "check.determinant_identity=PASS" in out


def test_detcheck_sample_deterministic():
    code1, out1 = run_cli("detcheck", "--sample", "40", "--seed", "5", "--format", "machine")
    code2, out2 = run_cli("detcheck", "--sample", "40", "--seed", "5", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "check.determinant_identity_sample=PASS" in out1


def test_serre_command():
    code, out = run_cli("serre", "--profile", "wilson", "--mod", "2", "--format", "machine")
    assert code == 0
    assert "record.serre.row0=1,1,0,0,0" in out
    assert "record.order=8" in out
    assert "check.form_preserved=PASS" in out


def test_sonb_wilson():
    code, out = run_cli(
        "sonb", "--profile", "wilson", "--mod", "2", "--symmetry", "serre",
        "--format", "machine",
    )
    assert code == 0
    assert "record.candidates=12" in out
    assert "record.orbit_sizes=8,4" in out
    assert "record.outcome=exhausted" in out


def test_sonb_serre_scans_the_space_once(monkeypatch):
    import semiortho.cli as cli
    import semiortho.sonb as sonb

    calls = {"enumerate_candidates": 0, "serre_orbits": 0}

    def counted(name):
        inner = getattr(sonb, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(sonb, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    argv = ["sonb", "--profile", "wilson", "--mod", "2", "--symmetry", "serre", "--format", "machine"]
    entry = next(e for e in GOLDEN["commands"] if e["argv"] == argv)
    assert run_cli(*argv) == (entry["exit"], entry["stdout"])
    assert calls == {"enumerate_candidates": 1, "serre_orbits": 1}


def test_sonb_finds_basis_with_verification():
    code, out = run_cli("sonb", "--profile", "pn:2", "--mod", "2", "--format", "machine")
    assert code == 0
    assert "record.outcome=found" in out
    assert "record.basis.row0=1,0,0" in out
    assert "check.found_basis_verified=PASS" in out


def test_sonb_raw_matrix_and_verify_basis():
    code, out = run_cli(
        "sonb", "--matrix", "1,1;0,1", "--mod", "2", "--format", "machine"
    )
    assert code == 0 and "record.outcome=found" in out
    code, out = run_cli(
        "sonb", "--matrix", "1,3;0,1", "--verify-basis", "1,0;0,1",
        "--format", "machine",
    )
    assert code == 0
    assert "check.basis_verified=PASS" in out


@pytest.mark.parametrize("basis", [
    "1,0,0,0,0,1;0,1,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0",  # IndexError before
    "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0",  # FAIL, exit 1 before
    "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1;1,1,1,1",
])
def test_sonb_verify_basis_wrong_length_is_a_data_error(basis, capsys):
    argv = ("sonb", "--profile", "wilson", "--mod", "2", "--verify-basis", basis)
    assert run_cli(*argv, "--format", "machine") == (2, "")
    err = capsys.readouterr().err
    assert err == "error: bad vector list: each vector needs 5 entries\n"


@pytest.mark.parametrize("bound", ["0", "-4"])
def test_serre_nonpositive_order_bound_is_a_usage_error(bound, capsys):
    argv = ("serre", "--profile", "pn:3", "--mod", "3", "--order-bound", bound)
    assert run_cli(*argv, "--format", "machine") == (2, "")
    assert capsys.readouterr().err == "error: --order-bound must be positive\n"
    code, out = run_cli("serre", "--profile", "pn:3", "--mod", "3", "--order-bound", "1",
                        "--format", "machine")
    assert code == 0 and "record.order=not-found" in out


def test_sonb_enumeration_cap_is_a_usage_error():
    # a fresh process, so an uncaught exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(semiortho.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "semiortho.cli", "sonb", "--profile", "pn:20",
         "--mod", "7", "--format", "machine"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: enumeration cap exceeded: 558545864083284007 > 1048576\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, err", [
    (("gram", "--poly", "0"), "polynomial degree -1 != dimension 0"),
    (("serre", "--profile", "wilson", "--mod", "5"), "matrix is singular"),
    (("decompose", "--chi", "C+V9"),
     "unknown irreducible 'V9'; choose from ('C', 'V1', 'V1bar', 'V3', 'V3bar')"),
    (("atlas", "--aut", "Z/9"),
     "unknown group label 'Z/9'; choose from ('trivial', 'Z/3', '(Z/3)^2', 'G21')"),
])
def test_library_value_error_is_a_data_error(argv, err, capsys):
    assert run_cli(*argv, "--format", "machine") == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_bad_dataset_header_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,an,atlas\n", encoding="utf-8")
    assert run_cli("atlas", "--count", "--data", str(bad), "--format", "machine") == (2, "")
    assert capsys.readouterr().err == "error: row 1: bad header ['not', 'an', 'atlas']\n"


def test_lefschetz_command():
    code, out = run_cli("lefschetz", "--format", "machine")
    assert code == 0
    assert "record.solutions={1,3} {1,5} {2,3} {2,6} {4,5} {4,6}" in out
    assert "record.canonical_exponents=4,1,2" in out
    assert "record.twist_exponents=6,5,3" in out
    assert "check.trace_k4_is_bbar=PASS" in out


def test_lefschetz_conjugate_branch():
    code, out = run_cli("lefschetz", "--branch", "conjugate", "--format", "machine")
    assert code == 0
    assert "record.canonical_exponents=3,6,5" in out
    assert "check.trace_k4_is_b=PASS" in out


def test_chartable_command():
    code, out = run_cli("chartable", "--format", "machine")
    assert code == 0
    assert "record.dimensions=1,1,1,3,3" in out
    assert "check.orthogonality=PASS" in out


def test_decompose_regular():
    code, out = run_cli("decompose", "--regular", "--format", "machine")
    assert code == 0
    assert "record.multiplicity.V3=3" in out
    assert "check.is_character=PASS" in out


def test_decompose_combination():
    code, out = run_cli("decompose", "--chi", "C+2*V1+V3bar", "--format", "machine")
    assert code == 0
    assert "record.multiplicity.V1=2" in out
    assert "record.multiplicity.V3bar=1" in out


def test_decompose_unknown_name():
    code, _ = run_cli("decompose", "--chi", "C+V9")
    assert code == 2


def test_atlas_count():
    code, out = run_cli("atlas", "--count", "--format", "machine")
    assert code == 0
    assert "record.records=50" in out
    assert "record.surfaces=100" in out


def test_atlas_aut_query():
    code, out = run_cli("atlas", "--aut", "G21", "--format", "machine")
    assert code == 0
    assert "record.matched=3" in out
    assert "record.surfaces=6" in out


def test_atlas_three_torsion_free_filter():
    code, out = run_cli(
        "atlas", "--aut", "G21", "--three-torsion-free", "--format", "machine"
    )
    assert code == 0
    assert "record.matched=3" in out


def test_atlas_verify():
    code, out = run_cli("atlas", "--verify", "--format", "machine")
    assert code == 0
    assert "check.record_count=PASS" in out
    assert "check.k_phantom_pairs=PASS" in out
    assert "check.round_trip=PASS" in out


def test_atlas_k_phantom():
    code, out = run_cli("atlas", "--k-phantom", "--format", "machine")
    assert code == 0
    assert "record.pairs=4" in out


def test_atlas_data_override(tmp_path):
    alt = tmp_path / "two.csv"
    alt.write_text(dump_records(load_default()[:2]), encoding="utf-8")
    code, out = run_cli("atlas", "--count", "--data", str(alt), "--format", "machine")
    assert code == 0
    assert "record.records=2" in out


def test_atlas_missing_data():
    code, _ = run_cli("atlas", "--count", "--data", "/nonexistent/nope.csv")
    assert code == 2


@pytest.mark.parametrize("argv", [("atlas", "--count"), ("reproduce", "keum")])
def test_empty_dataset_is_a_data_error(argv, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert run_cli(*argv, "--data", str(empty), "--format", "machine") == (2, "")
    assert capsys.readouterr().err == "error: empty dataset: the header row is required\n"


def test_reproduce_keum_reads_data(tmp_path):
    alt = tmp_path / "two.csv"
    alt.write_text(dump_records(load_default()[:2]), encoding="utf-8")
    code, out = run_cli("reproduce", "keum", "--data", str(alt), "--format", "machine")
    assert code == 1
    assert f"input.data={alt}\n" in out
    assert "check.six_surfaces=FAIL" in out


@pytest.mark.parametrize("argv, env", [
    (("reproduce", "keum", "--data", "/nonexistent"), None),
    (("reproduce", "keum"), "/nonexistent.csv"),
    (("atlas", "--count"), "/nonexistent.csv"),
])
def test_missing_dataset_is_a_data_error(argv, env, monkeypatch, capsys):
    if env:
        monkeypatch.setenv("SEMIORTHO_ATLAS", env)
    assert run_cli(*argv, "--format", "machine") == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: dataset not found") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gram", "--profile", "wilson", "--seed", "1"),
    ("detcheck", "--profile", "pn:3", "--mod", "3"),
    ("detcheck", "--profile", "pn:3", "--twists", "0,1,2,3"),
    ("lefschetz", "--data", "fpp.csv"),
    ("reproduce", "wilson", "--seed", "1"),
])
def test_unread_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--format", "machine")
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, err", [
    (("sonb", "--matrix", "1,1;0,1", "--mod", "2", "--profile", "pn:1"),
     "--matrix cannot be combined with --profile"),
    (("sonb", "--matrix", "1,1;0,1", "--mod", "2", "--poly", "1,1"),
     "--matrix cannot be combined with --poly"),
    (("sonb", "--matrix", "1,1;0,1", "--mod", "2", "--twists", "0,1"),
     "--matrix cannot be combined with --twists"),
    (("sonb", "--profile", "pn:1", "--mod", "2", "--symmetry", "serre", "--verify-basis", "1,0;0,1"),
     "--verify-basis cannot be combined with --symmetry serre"),
    (("decompose", "--chi", "V9", "--regular"), "--chi cannot be combined with --regular"),
    (("atlas", "--count", "--verify"), "--count cannot be combined with --verify"),
    (("atlas", "--count", "--aut", "G21"), "--count cannot be combined with --aut"),
    (("atlas", "--count", "--three-torsion-free"),
     "--count cannot be combined with --three-torsion-free"),
    (("atlas", "--count", "--k-phantom"), "--count cannot be combined with --k-phantom"),
    (("atlas", "--verify", "--aut", "G21"), "--verify cannot be combined with --aut"),
    (("atlas", "--verify", "--three-torsion-free"),
     "--verify cannot be combined with --three-torsion-free"),
    (("atlas", "--verify", "--k-phantom"), "--verify cannot be combined with --k-phantom"),
])
def test_option_that_the_mode_ignores_is_a_usage_error(argv, err, monkeypatch, capsys):
    # a missing dataset shows that atlas checks its options before loading
    monkeypatch.setenv("SEMIORTHO_ATLAS", "/nonexistent.csv")
    assert run_cli(*argv, "--format", "machine") == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_gram_mod_zero_is_a_usage_error(capsys):
    assert run_cli("gram", "--profile", "pn:2", "--mod", "0", "--format", "machine") == (2, "")
    assert capsys.readouterr().err == "error: 0 is not prime\n"


@pytest.mark.parametrize("argv, err", [
    (("gram", "--poly", "", "--profile", "pn:2"), "--poly needs a nonempty value"),
    (("gram", "--profile", "pn:2", "--twists", ""), "--twists needs a nonempty value"),
    (("sonb", "--profile", "pn:2", "--mod", "2", "--verify-basis", ""),
     "--verify-basis needs a nonempty value"),
    (("sonb", "--matrix", "", "--profile", "pn:2", "--mod", "2"), "--matrix needs a nonempty value"),
    (("decompose", "--chi", "", "--regular"), "--chi needs a nonempty value"),
    (("atlas", "--aut", ""), "--aut needs a nonempty value"),
    (("atlas", "--data", ""), "--data needs a nonempty value"),
    (("reproduce", "keum", "--data", ""), "--data needs a nonempty value"),
    (("sonb", "--matrix", "1,0;0,1", "--mod", "0", "--verify-basis", "1,0;0,1"), "0 is not prime"),
])
def test_empty_or_zero_option_value_is_a_usage_error(argv, err, capsys):
    assert run_cli(*argv, "--format", "machine") == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_reproduce_wilson():
    code, out = run_cli("reproduce", "wilson", "--format", "machine")
    assert code == 0
    assert "check.no_basis=PASS" in out
    assert "check.pairing_matrix=PASS" in out
    assert "check.serre_order=PASS" in out


def test_reproduce_keum():
    code, out = run_cli("reproduce", "keum", "--format", "machine")
    assert code == 0
    assert "check.trace_k4_is_bbar=PASS" in out
    assert "check.h0_O4_irreducible=PASS" in out
    assert "check.h0_O2_vanishes=PASS" in out


def test_reproduce_equivariant():
    code, out = run_cli("reproduce", "equivariant", "--format", "machine")
    assert code == 0
    assert "check.count_identity.G21=PASS" in out
    assert "check.orbifold_dimension.Z/7=PASS" in out


def test_orbifold_dimension_fails_on_a_wrong_irrep_count(monkeypatch):
    import semiortho.cli as cli
    from semiortho.eulerform import EquivariantRow

    # 3*6 = 12 + 6 keeps the count identity, but Z/7 has 7 classes, not 6
    wrong = EquivariantRow("Z/7", 6, ("1/7(1,3)",) * 3, 6, 12, 1)
    monkeypatch.setattr(cli, "EQUIVARIANT_ROWS", (wrong,))
    code, out = run_cli("reproduce", "equivariant", "--format", "machine")
    assert code == 1
    assert "check.count_identity.Z/7=PASS" in out
    assert "check.orbifold_dimension.Z/7=FAIL" in out


def test_reproduce_outputs_are_deterministic():
    for target in ("wilson", "keum", "equivariant"):
        _, out1 = run_cli("reproduce", target, "--format", "machine")
        _, out2 = run_cli("reproduce", target, "--format", "machine")
        assert out1 == out2


def test_text_format_renders():
    code, out = run_cli("reproduce", "wilson")
    assert code == 0
    assert "verdict: PASS" in out
    assert "[PASS]" in out


def test_machine_format_is_key_value():
    _, out = run_cli("chartable", "--format", "machine")
    for line in out.strip().splitlines():
        assert "=" in line


def test_parse_polynomial_forms():
    assert parse_polynomial("roots:1,2;scale:1/2")(-1) == 3
    assert parse_polynomial("1,-3/2,1/2")(3) == 1
    with pytest.raises(Exception):
        parse_polynomial("roots:1,2;oops:3")


def _fuzz_argv(rng, data_paths):
    """One argv over the subcommands, their options and small values, mostly valid."""
    pick = rng.choice
    profile = ["--profile", pick(["wilson", "pn:1", "pn:2", "pn:3", "fake-pn:2", "fake-pn:3",
                                  "pn:0", "pn:x", "bogus"])]
    poly = ["--poly", pick(["1", "1,1", "0,0,1/2", "roots:1,2;scale:1/2", "roots:0,1,2;scale:1/6",
                            "0,1/2", "banana", "roots:1;oops:2"])]
    source = pick([profile, profile, profile, poly, profile + poly, []])
    twists = ["--twists", pick(["0,1", "0,-1,-2", "2,0,1", "1,2,3", "0,1,2,3", "3", "a,b", ""])]
    mod = ["--mod", pick(["2", "3", "5", "2", "3", "5", "0", "4", "-3"])]
    data = ["--data", pick(data_paths)]
    options = {
        "gram": [twists, mod, ["--expect-exceptional"]],
        "detcheck": [["--sample", pick(["-1", "0", "3", "5"])],
                     ["--max-degree", pick(["0", "1", "3", "6"])], ["--seed", str(rng.randrange(99))]],
        "serre": [twists, mod, ["--order-bound", pick(["-1", "0", "1", "8", "50"])]],
        "sonb": [twists, mod, ["--symmetry", pick(["off", "serre"])],
                 ["--verify-basis", pick(["1,0;0,1", "1,0,0;0,1,0;0,0,1", "1,1,0;0,1,1;0,0,1", "z"])]],
        "lefschetz": [["--branch", pick(["default", "conjugate"])],
                      ["--k", pick(["-2", "0", "1", "4", "7"])], ["--k", pick(["0", "4"])]],
        "chartable": [],
        "decompose": [["--chi", pick(["C+2*V1+V3bar", "V3-V3", "-C", "3*V3bar", "C+V9", "2x*V1",
                                      "V1++", ""])],
                      ["--regular"]],
        "atlas": [data, ["--count"], ["--verify"], ["--aut", pick(["G21", "Z/3", "trivial", "Z/9"])],
                  ["--three-torsion-free"], ["--k-phantom"]],
        "reproduce": [data],
    }
    cmd = pick(sorted(options))
    argv = [cmd]
    if cmd in ("gram", "detcheck", "serre"):
        argv += source
    elif cmd == "sonb":
        argv += pick([source, ["--matrix", pick(["1,1;0,1", "1,0;0,1", "1,2;3,4", "0,0;0,0",
                                                 "1,1,0;0,1,1;0,0,1", "1,x"])]])
    elif cmd == "reproduce":
        argv.append(pick(["wilson", "keum", "keum", "equivariant", "bogus"]))
    for option in options[cmd]:
        if rng.random() < 0.4:
            argv += option
    if rng.random() < 0.05:  # an option that belongs to another subcommand
        argv += pick([o for opts in options.values() for o in opts] + [profile, poly])
    return argv + ["--format", "machine"]


def test_fuzz_argv_keeps_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    two = tmp_path / "two.csv"
    two.write_text(dump_records(load_default()[:2]), encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("not,an,atlas\n", encoding="utf-8")
    data_paths = [str(two), str(bad), str(tmp_path), "/nonexistent.csv"]
    rng = random.Random(20130)
    cases = [(["reproduce", "keum", "--format", "machine"], "/nonexistent.csv")]
    for _ in range(300):
        env = "/nonexistent.csv" if rng.random() < 0.1 else None
        cases.append((_fuzz_argv(rng, data_paths), env))
    for argv, env in cases:
        if env:
            monkeypatch.setenv("SEMIORTHO_ATLAS", env)
        else:
            monkeypatch.delenv("SEMIORTHO_ATLAS", raising=False)
        try:
            code, out = run_cli(*argv)
        except SystemExit as exc:  # argparse rejects the argv
            code, out = exc.code, capsys.readouterr().out
            assert code == 2, argv
        else:  # main's own exit 2 writes exactly one error line
            err = capsys.readouterr().err
            assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1), argv
        assert code in (0, 1, 2), argv
        failed = any(line.startswith("check.") and line.endswith("=FAIL")
                     for line in out.splitlines())
        assert (code == 1) == failed, argv
        assert (code == 2) == (out == ""), argv

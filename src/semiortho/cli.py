"""Command-line verification surface.

Every subcommand produces a Report: echoed inputs, result records, and a
list of named PASS/FAIL checks.  Output is deterministic byte-for-byte for
identical inputs and flags, in either human-readable text or line-oriented
``key=value`` machine form.  The process exits 0 exactly when every check
in the report passed, 1 when a check failed, 2 on a usage or data error:
also any ValueError the library raises on the data it is given, and an option
the mode would ignore (detcheck --sample with --profile or --poly; sonb
--matrix with --profile, --poly or --twists; sonb --verify-basis with
--symmetry serre; decompose --chi with --regular; atlas --count or --verify
with each other, --aut, --three-torsion-free, --k-phantom).
"""

from __future__ import annotations

import argparse
import random
import sys

from . import atlas as atlas_mod
from . import reference as ref
from .cyclotomic import Cyclotomic
from .eulerform import (
    EQUIVARIANT_ROWS,
    GramMatrix,
    HilbertProfile,
    equivariant_count_check,
    fake_projective_space,
    gram_from_twists,
    numerically_exceptional,
    orbifold_hh_dimension,
    profile_from_polynomial,
    projective_space,
    reduce_mod,
    serre_operator,
    wilson_fourfold,
)
from .exactmat import ExactMatrix, is_prime, matrix_order
from .intpoly import IntValuedPolynomial
from .lefschetz import (
    canonical_trace,
    conjugate_branch,
    default_branch,
    h0_O2_vanishing,
    h0_trace,
    solve_hlfp0,
    twist_traces,
)
from .reptheory import (
    B,
    B_BAR,
    character_table,
    classify_h0,
    class_sizes,
    conjugacy_class_count,
    conjugacy_classes,
    decompose,
    inner_product,
    irreducible,
    irrep_dimensions,
    regular_character,
)
from .sonb import (
    FormSpace,
    enumerate_candidates,
    pairing_matrix,
    search,
    serre_orbits,
    verify_semi_orthonormal,
)


class CliError(Exception):
    """The CLI's own usage or data error; main renders it with exit code 2."""


class Report:
    def __init__(self, command: str):
        self.command = command
        self.inputs: list[tuple[str, str]] = []
        self.records: list[tuple[str, str]] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.notes: list[str] = []

    def add_input(self, key, value):
        self.inputs.append((key, str(value)))

    def add_record(self, key, value):
        self.records.append((key, str(value)))

    def add_matrix(self, key, rows):
        for i, row in enumerate(rows):
            self.records.append((f"{key}.row{i}", ",".join(str(x) for x in row)))

    def add_check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    def add_note(self, text):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            lines = [f"command={self.command}"]
            lines += [f"input.{k}={v}" for k, v in self.inputs]
            lines += [f"record.{k}={v}" for k, v in self.records]
            lines += [f"check.{name}={'PASS' if ok else 'FAIL'}" for name, ok, _ in self.checks]
            lines += [f"note.{i}={t}" for i, t in enumerate(self.notes)]
            lines.append(f"verdict={'PASS' if self.passed else 'FAIL'}")
            return "\n".join(lines) + "\n"
        lines = [f"semiortho {self.command}"]
        for k, v in self.inputs:
            lines.append(f"  {k} = {v}")
        if self.inputs:
            lines.append("")
        for k, v in self.records:
            lines.append(f"  {k} = {v}")
        if self.records:
            lines.append("")
        for name, ok, detail in self.checks:
            tag = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"  [{tag}] {name}{suffix}")
        for t in self.notes:
            lines.append(f"  note: {t}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# -- input parsing ------------------------------------------------------------

def parse_polynomial(text: str) -> IntValuedPolynomial:
    """Coefficient list "1,-3/2,1/2" or factored form "roots:1,2;scale:1/2"."""
    text = text.strip()
    try:
        if text.startswith("roots:"):  # from_roots parses the scale before the roots
            roots, sep, scale = text[len("roots:"):].partition(";")
            if sep and not scale.startswith("scale:"):
                raise CliError(f"bad polynomial literal {text!r}")
            roots = [r for r in roots.split(",") if r]
            return IntValuedPolynomial.from_roots(roots, scale[len("scale:"):] if sep else 1)
        return IntValuedPolynomial(text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed polynomial literal {text!r}: {exc}") from exc


def resolve_profile(args) -> HilbertProfile:
    if args.poly is not None and args.profile is not None:
        raise CliError("give either --profile or --poly, not both")
    if args.poly is not None:
        return profile_from_polynomial(parse_polynomial(args.poly), name="poly")
    name = args.profile
    if name is None:
        raise CliError("a --profile or --poly is required")
    try:
        if name == "wilson":
            return wilson_fourfold()
        if name.startswith("pn:"):
            return projective_space(int(name.split(":", 1)[1]))
        if name.startswith("fake-pn:"):
            return fake_projective_space(int(name.split(":", 1)[1]))
    except ValueError as exc:
        raise CliError(f"bad profile {name!r}: {exc}") from exc
    raise CliError(f"unknown profile {name!r} (use wilson, pn:N or fake-pn:N)")


def _exclude(args, option: str, *others: str) -> None:
    """A usage error if option is given together with any of the others."""
    given = [o for o in (option, *others) if getattr(args, o) not in (None, False)]
    if option in given and len(given) > 1:
        raise CliError(f"--{option} cannot be combined with --{given[1].replace('_', '-')}")


def parse_twists(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad twist list {text!r}") from exc


def resolve_gram(args, report: Report) -> GramMatrix:
    """The Gram matrix that --profile/--poly, --twists and --mod select, echoed as inputs."""
    profile = resolve_profile(args)
    twists = range(profile.dimension + 1) if args.twists is None else parse_twists(args.twists)
    gram = gram_from_twists(profile, twists)
    if args.mod is not None:
        gram = reduce_mod(gram, args.mod)
    report.add_input("profile", profile.name)
    report.add_input("twists", ",".join(str(t) for t in gram.twists))
    if gram.modulus:
        report.add_input("mod", gram.modulus)
    return gram


def parse_matrix(text: str, modulus: int) -> ExactMatrix:
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
        return ExactMatrix(rows, modulus)
    except ValueError as exc:
        raise CliError(f"bad matrix literal: {exc}") from exc


def parse_vectors(text: str, dimension: int) -> tuple[tuple[int, ...], ...]:
    try:
        vectors = tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
        if any(len(v) != dimension for v in vectors):
            raise ValueError(f"each vector needs {dimension} entries")
    except ValueError as exc:
        raise CliError(f"bad vector list: {exc}") from exc
    return vectors


_ALIASES = {B: "b", B_BAR: "bbar"}  # both in Q(zeta_21)


def _cyc_str(x: Cyclotomic) -> str:
    if x.n in (7, 21):
        alias = _ALIASES.get(x.lift_to(21))
        if alias:
            return f"{x} [= {alias}]"
    return str(x)


def _load_atlas(data):
    """Records of the CSV at data, else of the default dataset; a read failure is a CliError."""
    try:
        return atlas_mod.load_records(atlas_mod.default_dataset_path() if data is None else data)
    except FileNotFoundError as exc:
        raise CliError(f"dataset not found: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read dataset: {exc}") from exc


# -- shared checks --------------------------------------------------------------

def _det_law(gram: GramMatrix, det):
    """(deg^(n+1), whether det equals it, mod p on a reduced matrix), or None
    unless the twists are consecutive and ascending."""
    n = gram.profile.dimension
    if gram.twists != tuple(range(gram.twists[0], gram.twists[0] + n + 1)):
        return None
    expected = gram.profile.deg ** (n + 1)
    return expected, (det - expected) % gram.modulus == 0 if gram.modulus else det == expected


def _serre_candidates(report: Report, space: FormSpace, operator):
    """Candidate vectors and their orbits under the Serre operator, recorded."""
    cands = enumerate_candidates(space)
    orbits = serre_orbits(cands, operator)
    report.add_record("candidates", len(cands))
    report.add_record("orbit_sizes", ",".join(str(len(o)) for o in orbits))
    return cands, orbits


def _solution_set(report: Report) -> None:
    sols = solve_hlfp0()
    report.add_record("solutions", " ".join("{%d,%d}" % pair for pair in sols))
    report.add_check("solution_set", sols == ref.HLFP0_SOLUTIONS,
                     "six unordered pairs in two doubling orbits")


def _exponents(report: Report, datum, expected_canonical) -> tuple[int, ...]:
    """Record canonical and twist exponents, check the canonical ones; return the twist ones."""
    canon = canonical_trace(datum)
    twists = twist_traces(datum)
    report.add_record("canonical_exponents", ",".join(str(c) for c in canon))
    report.add_record("twist_exponents", ",".join(str(t) for t in twists))
    report.add_check("canonical_exponents", canon == expected_canonical)
    return twists


def _h0_traces(report: Report, datum, ks, b: Cyclotomic) -> dict[int, Cyclotomic]:
    """Record the h0 trace at each k; at k = 0 it must be 1, at k = 4 the given b or bbar."""
    traces = {}
    for k in ks:
        tr = traces[k] = h0_trace(datum, k)
        report.add_record(f"trace_k{k}", _cyc_str(tr))
        if k == 0:
            report.add_check("trace_k0_is_one", tr == Cyclotomic.one(7))
        if k == 4:
            report.add_check(f"trace_k4_is_{_ALIASES[b]}", tr.lift_to(21) == b)
    return traces


# -- subcommands --------------------------------------------------------------

def cmd_gram(args) -> Report:
    report = Report("gram")
    gram = resolve_gram(args, report)
    profile = gram.profile
    report.add_record("dimension", profile.dimension)
    report.add_record("deg", profile.deg)
    report.add_matrix("matrix", gram.base.rows)
    det = gram.determinant()
    report.add_record("determinant", det)
    nexc = numerically_exceptional(gram)
    report.add_record("numerically_exceptional", "true" if nexc else "false")
    if gram.p_divides_deg:
        report.add_note(
            f"{gram.modulus} divides deg = {profile.deg}: semi-orthonormal "
            "transfer is not guaranteed at this prime"
        )
    law = _det_law(gram, det)
    if law is None:
        report.add_note("det formula applies to consecutive ascending twists only")
    elif gram.modulus:
        report.add_check("det_formula", law[1],
                         f"det = {det} matches deg^(n+1) = {law[0]} mod {gram.modulus}")
    else:
        report.add_check("det_formula", law[1], f"det = {det} = deg^(n+1) = {law[0]}")
    if args.expect_exceptional:
        report.add_check("numerically_exceptional", nexc)
    return report


def cmd_detcheck(args) -> Report:
    report = Report("detcheck")
    _exclude(args, "sample", "profile", "poly")
    if args.sample < 0:
        raise CliError("--sample must be nonnegative")
    if args.sample and args.max_degree < 1:
        raise CliError("--max-degree must be positive")
    if args.sample:
        rng = random.Random(args.seed)
        report.add_input("sample", args.sample)
        report.add_input("seed", args.seed)
        report.add_input("max_degree", args.max_degree)
        failures = 0
        for _ in range(args.sample):
            d = rng.randrange(1, args.max_degree + 1)
            coeffs = [rng.randrange(-9, 10) for _ in range(d)]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
            profile = profile_from_polynomial(IntValuedPolynomial.from_binomial(coeffs))
            gram = gram_from_twists(profile, range(d + 1))
            failures += not _det_law(gram, gram.determinant())[1]
        report.add_record("checked", args.sample)
        report.add_check(
            "determinant_identity_sample",
            failures == 0,
            f"{args.sample - failures}/{args.sample} matched (n! p_n)^(n+1)",
        )
        return report
    profile = resolve_profile(args)
    report.add_input("profile", profile.name)
    gram = gram_from_twists(profile, range(profile.dimension + 1))
    det = gram.determinant()
    expected, ok = _det_law(gram, det)
    report.add_record("determinant", det)
    report.add_record("expected", expected)
    report.add_check("determinant_identity", ok,
                     f"det = {det}, (n! p_n)^(n+1) = {expected}")
    return report


def cmd_serre(args) -> Report:
    report = Report("serre")
    gram = resolve_gram(args, report)
    op = serre_operator(gram)
    report.add_matrix("serre", op.matrix.rows)
    a = gram.base
    s = op.matrix
    report.add_check("pairing_transposed", a * s == a.transpose(), "A*S = A^t")
    report.add_check("form_preserved", s.transpose() * a * s == a, "S^t*A*S = A")
    bound = args.order_bound
    if bound is not None and bound < 1:
        raise CliError("--order-bound must be positive")
    if bound is None and gram.modulus == 0:
        report.add_note("order not computed: supply --order-bound in characteristic zero")
    else:
        order = matrix_order(s, bound)
        report.add_record("order", order if order is not None else "not-found")
    return report


def cmd_sonb(args) -> Report:
    report = Report("sonb")
    _exclude(args, "matrix", "profile", "poly", "twists")
    if args.verify_basis is not None and args.symmetry == "serre":
        raise CliError("--verify-basis cannot be combined with --symmetry serre")
    if args.matrix is not None:
        if args.mod is None and args.verify_basis is None:
            raise CliError("--matrix needs --mod (or --verify-basis over Z)")
        if args.mod is not None and not is_prime(args.mod):
            raise CliError(f"{args.mod} is not prime")
        source_matrix = parse_matrix(args.matrix, 0 if args.mod is None else args.mod)
        report.add_input("matrix", args.matrix)
        if args.mod is not None:
            report.add_input("mod", args.mod)
    else:
        source_matrix = resolve_gram(args, report).base
    space = FormSpace.from_matrix(source_matrix)

    if args.verify_basis is not None:
        basis = parse_vectors(args.verify_basis, space.dimension)
        ok = verify_semi_orthonormal(space, basis)
        report.add_check("basis_verified", ok, f"{len(basis)} supplied vectors")
        return report

    if not space.modulus:
        raise CliError("integer spaces support --verify-basis only")

    symmetry = None
    if args.symmetry == "serre":
        try:
            symmetry = source_matrix.inverse() * source_matrix.transpose()
        except ValueError as exc:
            raise CliError(f"cannot build Serre operator: {exc}") from exc
    if symmetry is not None:  # enumeration and search raise ValueError past the cap
        _serre_candidates(report, space, symmetry)
    elif space.total_vectors <= 1 << 16:
        report.add_record("candidates", len(enumerate_candidates(space)))
    else:
        report.add_note("candidate count skipped on a large space; the search "
                        "enumerates feasible vectors lazily")
    result = search(space, symmetry=symmetry)
    report.add_record("outcome", "found" if result.found else "exhausted")
    report.add_record("nodes", result.nodes_explored)
    if result.found:
        report.add_matrix("basis", result.basis)
        report.add_check(
            "found_basis_verified",
            verify_semi_orthonormal(space, result.basis),
            "independent pairing + rank check",
        )
    return report


def cmd_lefschetz(args) -> Report:
    report = Report("lefschetz")
    report.add_input("branch", args.branch)
    default = args.branch == "default"
    datum = default_branch() if default else conjugate_branch()
    _solution_set(report)
    report.add_record("exponent_pairs", " ".join("(%d,%d)" % p for p in datum.exponent_pairs))
    _exponents(report, datum,
               ref.CANONICAL_EXPONENTS if default else ref.CONJUGATE_CANONICAL_EXPONENTS)
    _h0_traces(report, datum, (0, 4) if args.k is None else args.k, B_BAR if default else B)
    return report


def cmd_chartable(args) -> Report:
    report = Report("chartable")
    classes = conjugacy_classes()
    report.add_record(
        "classes",
        " ".join(f"[{rep}]:{size}" for rep, size in classes),
    )
    dims = irrep_dimensions()
    report.add_record("dimensions", ",".join(str(d) for d in dims))
    table = character_table()
    for chi in table:
        report.add_record(
            f"chi.{chi.name}", " | ".join(_cyc_str(v) for v in chi.values)
        )
    report.add_check("class_sizes", class_sizes() == ref.G21_CLASS_SIZES)
    report.add_check("dimension_equation", dims == ref.G21_IRREP_DIMENSIONS,
                     "unique solution of sum of squares = 21 in divisors")
    ortho_ok = all(
        inner_product(a, b) == (1 if i == j else 0)
        for i, a in enumerate(table)
        for j, b in enumerate(table)
    )
    report.add_check("orthogonality", ortho_ok, "all 25 inner products exact")
    sigma_vals = {tuple(chi.values[1].coeffs) for chi in table if chi.degree == 3}
    report.add_check(
        "three_dim_traces",
        sigma_vals == {tuple(B.coeffs), tuple(B_BAR.coeffs)},
        "order-7 traces of the 3-dimensionals are b and bbar",
    )
    return report


def _parse_combo(text: str):
    """Parse an integer combination like "C+2*V1-V3bar"."""
    tokens = text.replace(" ", "")
    if not tokens:
        raise CliError("empty character expression")
    terms = []
    sign = 1
    buf = ""
    for i, ch in enumerate(tokens + "+"):
        if ch in "+-":
            if buf:
                terms.append((sign, buf))
            elif i:
                raise CliError(f"empty term in character expression {text!r}")
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    out = []
    for sgn, term in terms:
        if "*" in term:
            mult, name = term.split("*", 1)
            try:
                k = int(mult)
            except ValueError:
                raise CliError(f"bad multiplicity {mult!r} in {text!r}") from None
        else:
            k, name = 1, term
        out.append((sgn * k, name))
    return out


def cmd_decompose(args) -> Report:
    report = Report("decompose")
    _exclude(args, "chi", "regular")
    if args.regular:
        chi = regular_character()
        report.add_input("character", "regular")
    elif args.chi is not None:
        report.add_input("character", args.chi)
        chi = None
        for k, name in _parse_combo(args.chi):
            term = irreducible(name).scaled(k)
            chi = term if chi is None else chi + term
    else:
        raise CliError("give --chi EXPR or --regular")
    report.add_record("values", " | ".join(_cyc_str(v) for v in chi.values))
    mults = decompose(chi)
    for name, m in mults.items():
        report.add_record(f"multiplicity.{name}", m)
    is_char = all(m.denominator == 1 and m >= 0 for m in mults.values())
    report.add_check("is_character", is_char, "multiplicities are nonnegative integers")
    return report


def _record_row(report, i, r):
    t1 = ";".join(r.t1) if r.t1 else "-"
    h1 = ",".join(str(x) for x in r.h1)
    report.add_record(
        f"match.{i}",
        f"{r.field_or_class} p={r.p} T1={t1} N={r.index_n} suf={r.suffix} "
        f"aut={r.aut} h1=[{h1}]",
    )


def cmd_atlas(args) -> Report:
    report = Report("atlas")
    _exclude(args, "count", "verify", "aut", "three_torsion_free", "k_phantom")
    _exclude(args, "verify", "aut", "three_torsion_free", "k_phantom")
    records = _load_atlas(args.data)
    report.add_input("data", "default" if args.data is None else args.data)

    if args.count:
        report.add_record("records", len(records))
        report.add_record("surfaces", 2 * len(records))
        return report

    if args.verify:
        report.add_record("records", len(records))
        report.add_check("record_count", len(records) == ref.ATLAS_RECORD_COUNT,
                         f"{len(records)} records")
        report.add_check(
            "surface_count", 2 * len(records) == ref.ATLAS_SURFACE_COUNT
        )
        g21 = atlas_mod.query_aut(records, "G21")
        report.add_check(
            "g21_records", len(g21) == ref.ATLAS_G21_RECORDS, f"{len(g21)} records"
        )
        report.add_check(
            "g21_three_torsion_free",
            all(atlas_mod.three_torsion_free(r) for r in g21.records),
            "homology order coprime to 3 in all cases",
        )
        orders = tuple(r.h1_order for r in g21.records)
        report.add_check(
            "g21_h1_orders",
            sorted(orders) == sorted(ref.ATLAS_G21_H1_ORDERS),
            f"orders {orders}",
        )
        pairs = atlas_mod.k_phantom_pairs(records)
        report.add_check(
            "k_phantom_pairs", len(pairs) == ref.ATLAS_K_PHANTOM_PAIRS,
            f"{len(pairs)} (record, subgroup) pairs",
        )
        round_trip = atlas_mod.load_records(atlas_mod.dump_records(records))
        report.add_check("round_trip", round_trip == records)
        return report

    matched = list(records)
    if args.aut is not None:
        matched = list(atlas_mod.query_aut(matched, args.aut).records)
        report.add_input("aut", args.aut)
    if args.three_torsion_free:
        matched = [r for r in matched if atlas_mod.three_torsion_free(r)]
        report.add_input("three_torsion_free", "true")
    if args.k_phantom:
        pairs = atlas_mod.k_phantom_pairs(matched)
        for i, (r, g) in enumerate(pairs):
            report.add_record(f"pair.{i}", f"{r.field_or_class} suf={r.suffix} G={g}")
        report.add_record("pairs", len(pairs))
        return report
    for i, r in enumerate(matched):
        _record_row(report, i, r)
    report.add_record("matched", len(matched))
    report.add_record("surfaces", 2 * len(matched))
    return report


# -- reproduction pipelines ----------------------------------------------------

def _reproduce_wilson(report: Report) -> None:
    profile = wilson_fourfold()
    chi = tuple(profile.polynomial(k) for k in range(5))
    report.add_record("chi", ",".join(str(v) for v in chi))
    report.add_check("chi_values", chi == ref.WILSON_CHI)
    mod2 = tuple(v % 2 for v in chi)
    report.add_record("chi_mod2", ",".join(str(v) for v in mod2))
    report.add_check("chi_mod2", mod2 == ref.WILSON_CHI_MOD2)
    report.add_check(
        "chern_c1c3",
        ref.WILSON_CHERN[3] == profile.dimension * (profile.dimension + 1) ** 2 // 2,
        "c1*c3 = n(n+1)^2/2 at n = 4",
    )

    gram = reduce_mod(gram_from_twists(profile, range(5)), 2)
    report.add_matrix("gram_mod2", gram.base.rows)
    report.add_check("gram_mod2", gram.base.rows == ref.WILSON_GRAM_MOD2)

    op = serre_operator(gram)
    report.add_matrix("serre", op.matrix.rows)
    report.add_check("serre_matrix", op.matrix.rows == ref.WILSON_SERRE_MOD2)
    order = matrix_order(op.matrix)
    report.add_record("serre_order", order)
    report.add_check("serre_order", order == ref.WILSON_SERRE_ORDER)

    space = FormSpace.from_gram(gram)
    cands, orbits = _serre_candidates(report, space, op)
    report.add_check("candidate_count", len(cands) == ref.WILSON_CANDIDATE_COUNT)
    sizes = tuple(len(o) for o in orbits)
    report.add_check("orbit_sizes", sorted(sizes, reverse=True) == list(ref.WILSON_ORBIT_SIZES))
    gens = tuple(o[0] for o in orbits)
    report.add_check("orbit_generators", gens == ref.WILSON_ORBIT_GENERATORS,
                     "orbits start at (1,0,0,0,0) and (1,0,1,0,0)")
    ordered = [v for orbit in orbits for v in orbit]
    pm = pairing_matrix(space, ordered)
    report.add_matrix("pairing", pm)
    report.add_check("pairing_matrix", pm == ref.WILSON_PAIRING_12,
                     "12x12 candidate pairing table")

    result = search(space, symmetry=op)
    report.add_record("search", "exhausted" if result.exhausted else "found")
    report.add_record("nodes", result.nodes_explored)
    report.add_check("no_basis", result.exhausted,
                     "failure to find = the non-existence statement")
    flipped = FormSpace.from_matrix(gram.base.transpose())
    report.add_check("no_basis_transposed", search(flipped).exhausted,
                     "order-reversed convention agrees")
    report.add_note(
        "a full exceptional collection would give a semi-orthonormal basis "
        "mod 2; none exists, so no such collection exists"
    )


def _reproduce_keum(report: Report, data) -> None:
    records = _load_atlas(data)
    if data is not None:
        report.add_input("data", data)
    g21 = atlas_mod.query_aut(records, "G21")
    report.add_record("surfaces", g21.surface_count)
    report.add_check("six_surfaces", g21.surface_count == 6)
    report.add_check(
        "three_torsion_free",
        all(atlas_mod.three_torsion_free(r) for r in g21.records),
        "a canonical cube root O(1) exists on each surface",
    )

    _solution_set(report)
    datum = default_branch()
    twists = _exponents(report, datum, ref.CANONICAL_EXPONENTS)
    report.add_check("twist_exponents", twists == ref.TWIST_EXPONENTS)
    t4 = _h0_traces(report, datum, (0, 4), B_BAR)[4]
    report.add_check("conjugate_trace_k4_is_b", h0_trace(conjugate_branch(), 4).lift_to(21) == B)

    verdict = classify_h0(3, t4)
    report.add_record("h0_O4_class", f"{verdict.verdict}"
                      + (f" ({verdict.isomorphic_to})" if verdict.isomorphic_to else ""))
    report.add_check("h0_O4_irreducible", verdict.verdict == "irreducible",
                     "trace bbar rules out a sum of linear characters")

    ded = h0_O2_vanishing(3)
    report.add_record("delta_bound", ded.delta_upper_bound)
    report.add_record("delta", ded.delta)
    for step in ded.steps:
        report.add_note(step)
    report.add_check("delta_bound", ded.delta_upper_bound == 2)
    report.add_check("h0_O2_vanishes", ded.zero_map_applied and ded.delta == 0)

    plane = fake_projective_space(2)
    collection = gram_from_twists(plane, (0, -1, -2))
    report.add_check(
        "collection_numerically_exceptional",
        numerically_exceptional(collection),
        "O, O(-1), O(-2) pair to an upper unitriangular Gram matrix",
    )
    report.add_note(
        "with h0(O(2)) = 0 the numerically exceptional collection "
        "O, O(-1), O(-2) is exceptional"
    )


def _reproduce_equivariant(report: Report) -> None:
    for row in EQUIVARIANT_ROWS:
        ok = equivariant_count_check(row)
        report.add_record(
            f"row.{row.group}",
            f"#irr={row.irrep_count} r={row.r_g} euler={row.euler_char} "
            f"kappa={row.kodaira}",
        )
        report.add_check(
            f"count_identity.{row.group}",
            ok,
            f"3*{row.irrep_count} = {row.euler_char} + {row.r_g}",
        )
        classes = conjugacy_class_count(row.group)
        report.add_check(
            f"orbifold_dimension.{row.group}",
            classes == row.irrep_count,
            f"orbifold cohomology dimension {orbifold_hh_dimension(classes)}",
        )
    report.add_note(
        "each equivariant category carries 3 * #irreducibles exceptional "
        "objects, matching its total Hochschild dimension: the orthogonal "
        "complement is a homology phantom"
    )


def cmd_reproduce(args) -> Report:
    report = Report("reproduce")
    report.add_input("target", args.target)
    if args.target == "wilson":
        _reproduce_wilson(report)
    elif args.target == "keum":
        _reproduce_keum(report, args.data)
    else:
        _reproduce_equivariant(report)
    return report


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiortho",
        description="Exact verification of Euler-form lattice computations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text")
    data_opts = argparse.ArgumentParser(add_help=False, parents=[common])
    data_opts.add_argument("--data", help="atlas CSV override")
    profile_opts = argparse.ArgumentParser(add_help=False, parents=[common])
    profile_opts.add_argument("--profile", help="wilson, pn:N or fake-pn:N")
    profile_opts.add_argument("--poly", help='coefficients "1,-3/2,1/2" or "roots:1,2;scale:1/2"')
    gram_opts = argparse.ArgumentParser(add_help=False, parents=[profile_opts])
    gram_opts.add_argument("--twists", help="comma-separated twist integers")
    gram_opts.add_argument("--mod", type=int, help="reduce modulo a prime")

    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gram", parents=[gram_opts],
                       help="build a Gram matrix and check the determinant law")
    p.add_argument("--expect-exceptional", action="store_true",
                   help="fail unless the matrix is numerically exceptional")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("detcheck", parents=[profile_opts],
                       help="verify det(A_P) = (n! p_n)^(n+1)")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample")
    p.add_argument("--sample", type=int, default=0,
                   help="check N seeded random integer-valued polynomials")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_detcheck)

    p = sub.add_parser("serre", parents=[gram_opts],
                       help="Serre operator of a Gram matrix")
    p.add_argument("--order-bound", type=int)
    p.set_defaults(func=cmd_serre)

    p = sub.add_parser("sonb", parents=[gram_opts],
                       help="search for a semi-orthonormal basis")
    p.add_argument("--matrix", help='raw form matrix "1,1;0,1"')
    p.add_argument("--symmetry", choices=("off", "serre"), default="off")
    p.add_argument("--verify-basis", help='verify supplied basis "1,0;0,1"')
    p.set_defaults(func=cmd_sonb)

    p = sub.add_parser("lefschetz", parents=[common],
                       help="fixed-point exponents and twist traces")
    p.add_argument("--branch", choices=("default", "conjugate"), default="default")
    p.add_argument("--k", type=int, action="append",
                   help="twist(s) to evaluate the trace at (default 0 and 4)")
    p.set_defaults(func=cmd_lefschetz)

    p = sub.add_parser("chartable", parents=[common],
                       help="character table of the order-21 group")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a class function into irreducibles")
    p.add_argument("--chi", help='combination such as "C+2*V1+V3bar"')
    p.add_argument("--regular", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("atlas", parents=[data_opts],
                       help="query the fake-projective-plane table")
    p.add_argument("--count", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="run dataset-wide integrity checks")
    p.add_argument("--aut")
    p.add_argument("--three-torsion-free", action="store_true")
    p.add_argument("--k-phantom", action="store_true")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("reproduce", parents=[data_opts],
                       help="replay a full verification pipeline")
    p.add_argument("target", choices=("wilson", "keum", "equivariant"))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, value in vars(args).items():  # an option is absent (None) or has a value
            if value == "":
                raise CliError(f"--{key.replace('_', '-')} needs a nonempty value")
        report = args.func(args)
    except (CliError, ValueError) as exc:  # a ValueError: the library rejected the data
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The four workloads: seeded request rounds and the untimed verdict checks.

Every round of a workload has the same composition; the seed draws the
random forms, polynomials, group elements and field elements inside it and
the order in which the round is sent.  A run is a whole number of rounds, so
runs with different seeds measure the same mix.

A workload object provides
    round(rng)                      the requests of one round
    check_requests(items)           untimed requests whose replies the judge needs
    judge(items, check_replies)     one verdict ("ok", "known-defect" or a
                                    failure message) per timed request
    counters(items)                 one line of search counters per distinct instance
where an item is a (request, reply) pair.  For in-process workloads a request
is the JSON payload sent to worker.py; for replay-cli it is a golden entry.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent


def _fractions(strings):
    return tuple(Fraction(s) for s in strings)


def _exception(reply):
    return "exception: " + reply["error"].strip().splitlines()[-1]


class SearchExhaustive:
    """FormSpace + search on uniform random d x d forms over F_2, F_3 and F_5
    (criterion 4's family, widened to p = 5), plus fixed instances: Wilson
    mod 2 plain, with Serre symmetry and transposed, and the slowest
    criterion-4 instance (p=3, d=5, 11,412 placements).

    A round holds 450 forms of (p, d) = (2, 3), 50 of (2, 4) and 200 each of
    (3, 3) and (5, 3), 10 of each heavy stratum (p=2, d=5 and p=3, d=4:
    10-100 ms each) and the four fixed instances.  These counts put the
    round's median among the exhausted p=2, d=3 searches (about 0.3 ms),
    where many requests cost nearly the same.  The costs of (3, 3) and
    (2, 4) searches step from one plateau to the next, so a median that
    falls among them (as with 150 forms of each light stratum) jumps with
    the seed.

    Random p=3, d=5 and p=5, d>=4 forms are left out (one to ten seconds
    each, too few per run to give steady percentiles); the fixed instance
    stands for them.  d=2 forms are left out as they time only call
    overhead."""

    name = "search-exhaustive"
    STRATA = (((2, 3), 450), ((2, 4), 50), ((3, 3), 200), ((5, 3), 200),
              ((2, 5), 10), ((3, 4), 10))

    def __init__(self):
        self._oracle = {}
        wilson = wilson_mod2()
        transposed = [list(r) for r in zip(*wilson)]
        self.fixed = [
            {"op": "search", "p": 2, "form": wilson, "symmetry": False},
            {"op": "search", "p": 2, "form": wilson, "symmetry": True},
            {"op": "search", "p": 2, "form": transposed, "symmetry": False},
            {"op": "search", "p": 3, "form": criterion4_slowest(), "symmetry": False},
        ]

    def round(self, rng):
        out = [dict(r) for r in self.fixed]
        for (p, d), count in self.STRATA:
            for _ in range(count):
                form = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
                out.append({"op": "search", "p": p, "form": form, "symmetry": False})
        rng.shuffle(out)
        return out

    def oracle(self, request):
        key = (request["p"], json.dumps(request["form"]))
        if key not in self._oracle:
            self._oracle[key] = oracle.sonb(request["form"], request["p"])
        return self._oracle[key]

    def check_requests(self, items):
        return []

    def judge(self, items, check_replies):
        out = []
        for request, reply in items:
            if "error" in reply:
                out.append(_exception(reply))
                continue
            basis = reply["result"]["basis"]
            expected, _, _ = self.oracle(request)
            expected = [list(v) for v in expected] if expected else None
            if request["symmetry"]:
                same_outcome = (basis is None) == (expected is None)
                ok = same_outcome and (
                    basis is None or oracle.is_semi_orthonormal(request["form"], request["p"], basis)
                )
            else:
                ok = basis == expected
            out.append("ok" if ok else f"basis {basis} != oracle {expected}")
        return out

    def counters(self, items):
        lines = {}
        for request, reply in items:
            if "result" not in reply:
                continue
            _, _, candidates = self.oracle(request)
            lines.setdefault(
                instance_key(request),
                counter_line(reply["result"], candidates),
            )
        return [f"{k} {v}" for k, v in lines.items()]


class ProfilesFound:
    """The pn:N pipeline mod p (Gram over Z, determinant, reduction, Serre
    operator and its order, candidates, orbits, symmetric search) for every
    pn:N and p in {2, 3, 5, 7} whose enumeration work p^d * d^2 (d = N + 1)
    is at most 6e5, plus determinant-law requests for random
    integer-valued polynomials: three of each degree 8 to 20 and ten more of
    degree 12.

    The cap keeps a round near two seconds, so a run holds several rounds;
    pn:N with more work (pn:5 mod 7 and pn:6 mod 5 take about two seconds
    each) would leave one round per run.  Profiles go in a fixed order, so
    the seed changes only the polynomials and the peak RSS stays put.

    A determinant-law request's cost depends on the degree and hardly on the
    coefficients, and each degree costs about a third more than the one
    below, so the costs form a ladder with wide steps.  A median on a step
    (with three requests per degree it lies between degree 12, two profiles
    and degree 13) moves several times as much as the host's speed does.
    The ten extra degree-12 requests make the median one of them."""

    name = "profiles-found"
    PRIMES = (2, 3, 5, 7)
    WORK_CAP = 600_000
    DEGREES = range(8, 21)
    PER_DEGREE = 3
    EXTRA = {12: 10}

    def round(self, rng):
        profiles = []
        for p in self.PRIMES:
            n = 1
            while p ** (n + 1) * (n + 1) ** 2 <= self.WORK_CAP:
                profiles.append({"op": "profile", "n": n, "p": p})
                n += 1
        polys = []
        for degree in self.DEGREES:
            for _ in range(self.PER_DEGREE + self.EXTRA.get(degree, 0)):
                coeffs = [rng.randrange(-9, 10) for _ in range(degree)]
                coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
                polys.append({"op": "detlaw", "binomial": coeffs})
        return profiles + polys

    def check_requests(self, items):
        return [
            {"op": "verify", "p": req["p"], "form": rep["result"]["form"],
             "basis": rep["result"]["basis"]}
            for req, rep in items
            if req["op"] == "profile" and "result" in rep and rep["result"]["basis"]
        ]

    def judge(self, items, check_replies):
        verified = iter(check_replies)
        out = []
        for request, reply in items:
            if "error" in reply:
                out.append(_exception(reply))
                continue
            res = reply["result"]
            if request["op"] == "detlaw":
                coeffs = request["binomial"]
                expected = coeffs[-1] ** len(coeffs)
                ok = res["det"] == str(expected) and res["law"]
                out.append("ok" if ok else f"det {res['det']} != {expected}")
                continue
            d = request["n"] + 1
            standard = [[int(i == j) for j in range(d)] for i in range(d)]
            ok = res["det"] == "1" and res["basis"] == standard
            ok = ok and sum(res["orbit_sizes"]) == res["candidates"]
            if res["basis"]:
                ok = ok and next(verified).get("result") is True
            out.append("ok" if ok else f"pn:{request['n']} mod {request['p']}: {res}")
        return out

    def counters(self, items):
        lines = {}
        for request, reply in items:
            if request["op"] == "profile" and "result" in reply:
                res = reply["result"]
                key = f"pn:{request['n']} mod {request['p']} symmetry=1"
                lines.setdefault(key, counter_line(res, res["candidates"]))
        return [f"{k} {v}" for k, v in lines.items()]


class Algebra:
    """A fixed mix of character-table, decomposition, fixed-point trace,
    three-dimensional representation and cyclotomic division requests.

    Dense Q(zeta_21) divisions are the largest group, with as many cheaper
    requests below them as dearer ones above, so a round's median verdict is
    one of them: their cost varies little with the seed, and integer-backed
    cyclotomics target exactly that operation."""

    name = "algebra"
    IRREPS = ("C", "V1", "V1bar", "V3", "V3bar")
    MIX = (("chartable", 8), ("decompose", 8), ("h0_trace", 8), ("v3", 16),
           ("divide7", 8), ("divide21", 32))

    def __init__(self):
        self.table = oracle.g21_character_table()

    def round(self, rng):
        out = []
        for kind, count in self.MIX:
            for _ in range(count):
                out.append(self._request(kind, rng))
        rng.shuffle(out)
        return out

    def _request(self, kind, rng):
        if kind == "chartable":
            return {"op": "chartable"}
        if kind == "decompose":
            mult = [rng.randrange(5) for _ in self.IRREPS]
            mult[rng.randrange(5)] += 1
            return {"op": "decompose", "multiplicities": dict(zip(self.IRREPS, mult))}
        if kind == "h0_trace":
            return {"op": "h0_trace", "branch": rng.choice(("default", "conjugate")),
                    "k": rng.randrange(-10, 11)}
        if kind == "v3":
            return {"op": "v3", "g": [rng.randrange(3), rng.randrange(7)],
                    "h": [rng.randrange(3), rng.randrange(7)]}
        n = 7 if kind == "divide7" else 21
        phi = 6 if n == 7 else 12

        def element():
            return [str(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))) for _ in range(phi)]

        y = element()
        while not any(Fraction(c) for c in y):
            y = element()
        return {"op": "divide", "n": n, "x": element(), "y": y}

    def check_requests(self, items):
        return [
            {"op": "h0_trace", "k": req["k"],
             "branch": "conjugate" if req["branch"] == "default" else "default"}
            for req, _ in items if req["op"] == "h0_trace"
        ]

    def judge(self, items, check_replies):
        others = iter(check_replies)
        out = []
        for request, reply in items:
            op = request["op"]
            other = next(others) if op == "h0_trace" else None
            if "error" in reply:
                out.append(_exception(reply))
                continue
            res = reply["result"]
            if op == "chartable":
                ok = res["class_sizes"] == [1, 3, 3, 7, 7]
                ok = ok and res["dimensions"] == [1, 1, 1, 3, 3]
                ok = ok and {k: tuple(_fractions(v) for v in vals)
                             for k, vals in res["table"].items()} == self.table
                ok = ok and res["inner"] == [["1" if i == j else "0" for j in range(5)]
                                             for i in range(5)]
            elif op == "decompose":
                ok = res == {k: str(m) for k, m in request["multiplicities"].items()}
            elif op == "h0_trace":
                ok = "result" in other and _fractions(res) == oracle.complex_conjugate(
                    _fractions(other["result"]), 7)
            elif op == "v3":
                ok = res["homomorphism"]
            else:
                ok = _fractions(res) == oracle.reduce_cyclotomic(_fractions(request["x"]), request["n"])
            out.append("ok" if ok else f"{op} {request}: {res}")
        return out

    def counters(self, items):
        return []


class ReplayCli:
    """Fresh `python -m semiortho.cli ... --format machine` processes over
    every README example (checked byte for byte against golden.json) and the
    error-path invocations (contract: exit 2, no traceback)."""

    name = "replay-cli"

    def __init__(self):
        golden = json.loads((HERE / "golden.json").read_text())
        self.commands = golden["commands"]
        self.error_paths = golden["error_paths"]

    def round(self, rng):
        out = list(self.commands) + list(self.error_paths)
        rng.shuffle(out)
        return out

    def check_requests(self, items):
        return []

    def judge(self, items, check_replies):
        out = []
        for entry, reply in items:
            exit_code, stdout, stderr = reply["exit"], reply["stdout"], reply["stderr"]
            traceback = "Traceback" in stderr
            if "recorded_exit" not in entry:
                ok = exit_code == entry["exit"] and stdout == entry["stdout"]
                out.append("ok" if ok else f"{entry['argv']}: exit {exit_code}, stdout differs")
            elif exit_code == 2 and not traceback:
                out.append("ok")
            elif (exit_code, traceback) == (entry["recorded_exit"], entry["recorded_traceback"]):
                out.append("known-defect")
            else:
                out.append(f"{entry['argv']}: exit {exit_code}, traceback {traceback}")
        return out

    def counters(self, items):
        return []


def wilson_mod2():
    """Gram matrix mod 2 of chi(O(l)) = 1 + (25/8) l(l+1)(3l^2+3l+2), twists 0..4."""

    def chi(l):
        return 1 + Fraction(25, 8) * l * (l + 1) * (3 * l * l + 3 * l + 2)

    return [[int(chi(j - i)) % 2 for j in range(5)] for i in range(5)]


def criterion4_slowest():
    """First p=3 form of acceptance criterion 4 (Random(1003)): d=5, Exhausted."""
    rng = random.Random(1003)
    d = rng.randrange(2, 6)
    return [[rng.randrange(3) for _ in range(d)] for _ in range(d)]


def instance_key(request):
    form = ".".join("".join(str(x) for x in row) for row in request["form"])
    return f"p={request['p']} d={len(request['form'])} form={form} symmetry={int(request['symmetry'])}"


def counter_line(result, candidates):
    stats = result["stats"]
    scanned = stats["placements"] + stats["pairing_rejections"] + stats["dependent_rejections"]
    outcome = "found" if result["basis"] else "exhausted"
    return (f"outcome={outcome} placements={stats['placements']} "
            f"pairing_rejections={stats['pairing_rejections']} "
            f"dependent_rejections={stats['dependent_rejections']} "
            f"candidates={candidates} vectors_scanned={scanned}")


WORKLOADS = {w.name: w for w in (SearchExhaustive, ProfilesFound, Algebra, ReplayCli)}

"""A fresh process that answers the benchmark's requests with ``semiortho``.

    python perfbench/worker.py serve [--trace]
        Reads one JSON line at a time on stdin and writes one JSON line per
        line read.  A request object gets the reply {"t": seconds spent
        computing, "result": ...} or {"t": ..., "error": traceback}.  A list
        of requests (a round) is answered one request after another, and
        gets {"wall": seconds for the whole list, "replies": [reply, ...]}.
        The first line written reports the interpreter-start timestamp and
        the import time.
    python perfbench/worker.py cli FD ARG...
        Runs ``semiortho.cli.main(ARG...)`` with tracing installed and writes
        the trace summary as JSON to file descriptor FD.  Exit status, stdout
        and stderr are those of ``python -m semiortho.cli ARG...``.

The caller puts the checkout's ``src`` on PYTHONPATH.  Results carry exact
values as strings (Fractions as "a/b"); the benchmark checks them.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb():
    """Peak RSS of this process since exec (VmHWM), in kB.

    getrusage's ru_maxrss is not used: it also covers the parent's memory
    before exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _coeffs(x):
    return [str(c) for c in x.coeffs]


class Requests:
    """One method per request op; each returns a JSON-serializable result."""

    def __init__(self, so):
        from semiortho.reptheory import v3_matrix

        self.so = so
        self.v3_matrix = v3_matrix

    def search(self, p, form, symmetry=False):
        so = self.so
        space = so.FormSpace(len(form), p, tuple(map(tuple, form)))
        operator = None
        if symmetry:
            a = so.ExactMatrix(form, p)
            operator = a.inverse() * a.transpose()
        result = so.search(space, symmetry=operator)
        basis = [list(v) for v in result.basis] if result.found else None
        return {"basis": basis, "stats": dict(result.stats)}

    def profile(self, n, p):
        so = self.so
        gram_z = so.gram_from_twists(so.projective_space(n), range(n + 1))
        det = gram_z.determinant()
        gram = so.reduce_mod(gram_z, p)
        serre = so.serre_operator(gram)
        order = so.matrix_order(serre.matrix)
        space = so.FormSpace.from_gram(gram)
        candidates = so.enumerate_candidates(space)
        orbits = so.serre_orbits(candidates, serre)
        result = so.search(space, symmetry=serre)
        return {
            "det": str(det),
            "order": order,
            "candidates": len(candidates),
            "orbit_sizes": [len(o) for o in orbits],
            "form": [list(r) for r in space.form],
            "basis": [list(v) for v in result.basis] if result.found else None,
            "stats": dict(result.stats),
        }

    def detlaw(self, binomial):
        so = self.so
        poly = so.IntValuedPolynomial.from_binomial(binomial)
        profile = so.profile_from_polynomial(poly)
        n = profile.dimension
        det = so.gram_from_twists(profile, range(n + 1)).determinant()
        return {"det": str(det), "law": det == profile.deg ** (n + 1)}

    def chartable(self):
        so = self.so
        table = so.character_table()
        return {
            "class_sizes": list(so.class_sizes()),
            "dimensions": list(so.irrep_dimensions()),
            "table": {chi.name: [_coeffs(v) for v in chi.values] for chi in table},
            "inner": [[str(so.inner_product(a, b)) for b in table] for a in table],
        }

    def decompose(self, multiplicities):
        so = self.so
        chi = None
        for name, m in multiplicities.items():
            part = so.irreducible(name).scaled(m)
            chi = part if chi is None else chi + part
        return {k: str(v) for k, v in so.decompose(chi).items()}

    def h0_trace(self, branch, k):
        so = self.so
        datum = so.default_branch() if branch == "default" else so.conjugate_branch()
        return _coeffs(so.h0_trace(datum, k))

    def v3(self, g, h):
        so, v3_matrix = self.so, self.v3_matrix
        g, h = so.GroupElement(*g), so.GroupElement(*h)
        a, b, c = v3_matrix(g), v3_matrix(h), v3_matrix(g * h)
        product = [
            [sum((a[i][k] * b[k][j] for k in range(3)), so.Cyclotomic.zero(21)) for j in range(3)]
            for i in range(3)
        ]
        return {
            "homomorphism": all(product[i][j] == c[i][j] for i in range(3) for j in range(3)),
            "trace": _coeffs(c[0][0] + c[1][1] + c[2][2]),
        }

    def divide(self, n, x, y):
        so = self.so
        x, y = so.Cyclotomic(n, x), so.Cyclotomic(n, y)
        return _coeffs((x / y) * y)

    def verify(self, p, form, basis):
        so = self.so
        space = so.FormSpace(len(form), p, tuple(map(tuple, form)))
        return so.verify_semi_orthonormal(space, [tuple(v) for v in basis])


def serve(traced):
    t0 = time.perf_counter()
    import semiortho

    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    handler = Requests(semiortho)
    out = sys.stdout
    ready = {"started": STARTED, "import_s": import_s, "module": semiortho.__file__}
    out.write(json.dumps(ready) + "\n")
    out.flush()
    def answer(request):
        op = request.pop("op")
        if op in ("trace_summary", "peak_rss_kb"):
            return {"t": 0.0, "result": tracer.summary() if op == "trace_summary" else peak_rss_kb()}
        span = tracer.open(ROOT) if tracer else None
        start = time.perf_counter()
        try:
            reply = {"result": getattr(handler, op)(**request)}
        except Exception:
            reply = {"error": traceback.format_exc()}
        reply["t"] = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        return reply

    for line in sys.stdin:
        message = json.loads(line)
        if isinstance(message, list):
            start = time.perf_counter()
            replies = [answer(request) for request in message]
            reply = {"wall": time.perf_counter() - start, "replies": replies}
        else:
            reply = answer(message)
        out.write(json.dumps(reply) + "\n")
        out.flush()


def traced_cli(fd, argv):
    t0 = time.perf_counter()
    import semiortho.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = semiortho.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary.update(started=STARTED, import_s=import_s, module=semiortho.__file__)
        with os.fdopen(fd, "w") as f:
            json.dump(summary, f)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve("--trace" in sys.argv[2:])
    elif sys.argv[1] == "cli":
        traced_cli(int(sys.argv[2]), sys.argv[3:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")

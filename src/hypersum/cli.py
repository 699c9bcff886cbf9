"""Command-line front end.

Data records go to stdout (newline-delimited JSON, or CSV with a fixed
per-command header); diagnostics go to stderr. Every record carries a
``status`` field, and a typed error is written as a record by the same
writer. Exit codes: 0 success, 2 domain or convergence rejection,
3 numerical failure, 4 verification-suite failure.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

from .branching import (
    GeneralProgenyLaw,
    ProgenyHalfLaw,
    ScaledSibuya,
    general_progeny_pmf_range,
    progeny_pgf_elementary,
    progeny_pgf_hypergeometric,
    progeny_pmf_range,
)
from .errors import (
    DomainError,
    InsufficientData,
    NonConvergent,
    NotConvergent,
    QuadratureFailure,
    RootFindFailure,
    SlowConvergence,
)
from .simulate import SimConfig, chi_square_threshold, gof_compare, simulate_total_progeny
from .special import DEFAULT_TOL, HypParams, hyp2f1_half_one, hyp2f1_series
from .sums import SumParams, evaluate
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_DOMAIN_ERRORS = (DomainError, NotConvergent)
_NUMERIC_ERRORS = (NonConvergent, SlowConvergence, QuadratureFailure,
                   RootFindFailure, InsufficientData, OverflowError)

# CSV header of each leaf command; verify writes JSON only.
_COLUMNS = {
    "hyp2f1": "a b c x value abs_error_estimate terms_used method status".split(),
    "sum": "eta c x method value abs_error_estimate terms_used route continuation status".split(),
    "pmf": "lambda ell p status".split(),
    "pgf": "lambda z value route status".split(),
    "general": "c x ell q running_sum status".split(),
    "simulate": ("alpha lambda replicates seed censored chi_square dof threshold_0999 "
                 "max_abs_deviation status").split(),
}


def _cmd_hyp2f1(args):
    if args.a == 0.5 and args.b == 1.0:
        res = hyp2f1_half_one(args.c, args.x, tol=args.tol)
    else:
        res = hyp2f1_series(HypParams(args.a, args.b, args.c, args.x), tol=args.tol)
    yield {"a": args.a, "b": args.b, "c": args.c, "x": args.x,
           "value": res.value, "abs_error_estimate": res.abs_error_estimate,
           "terms_used": res.terms_used, "method": res.method.value, "status": "ok"}


def _cmd_sum(args):
    res = evaluate(SumParams(args.eta, args.c, args.x), method=args.method)
    yield {"eta": args.eta, "c": args.c, "x": args.x, "method": args.method,
           "value": res.value, "abs_error_estimate": res.abs_error_estimate,
           "terms_used": res.terms_used, "route": res.method.value,
           "continuation": res.continuation, "status": "ok"}


def _cmd_pmf(args):
    law = ProgenyHalfLaw(args.lam)
    for ell, p in enumerate(progeny_pmf_range(law, args.lmax), start=1):
        yield {"lambda": args.lam, "ell": ell, "p": p, "status": "ok"}


def _cmd_pgf(args):
    law = ProgenyHalfLaw(args.lam)
    if args.z <= law.z_minus * (1.0 + 1e-12):
        value = progeny_pgf_hypergeometric(law, args.z)
        route = "hypergeometric"
    else:
        value = progeny_pgf_elementary(law, args.z)
        route = "elementary"
    yield {"lambda": args.lam, "z": args.z, "value": value, "route": route, "status": "ok"}


def _cmd_general(args):
    law = GeneralProgenyLaw(args.c, args.x)
    acc = 0.0
    for ell, q in enumerate(general_progeny_pmf_range(law, args.lmax), start=1):
        acc += q
        yield {"c": args.c, "x": args.x, "ell": ell, "q": q, "running_sum": acc,
               "status": "ok"}


def _cmd_simulate(args):
    d = ScaledSibuya(args.alpha, args.lam)
    cfg = SimConfig(seed=args.seed, replicates=args.n,
                    progeny_cap=args.cap, workers=args.workers)
    sim = simulate_total_progeny(d, cfg)
    # No analytic half-law cells away from alpha = 1/2.
    record = {"alpha": args.alpha, "lambda": args.lam,
              "replicates": sim.replicates, "seed": args.seed,
              "censored": sim.censored, "chi_square": None, "dof": None,
              "threshold_0999": None, "max_abs_deviation": None}
    if args.alpha == 0.5:
        rep = gof_compare(sim, ProgenyHalfLaw(args.lam), bins=args.bins)
        record.update({"chi_square": rep.chi_square, "dof": rep.dof,
                       "threshold_0999": chi_square_threshold(rep.dof),
                       "max_abs_deviation": rep.max_abs_deviation,
                       "z_scores": dict(sorted(rep.z_scores.items()))})
    record["empirical_counts"] = dict(sorted(sim.counts.items())[:200])
    record["status"] = "ok"
    yield record


def _cmd_verify(args):
    kwargs = {}
    if args.suite == "montecarlo" and args.replicates is not None:
        kwargs["replicates"] = args.replicates
    result = run_suite(args.suite, **kwargs)
    result["status"] = "ok" if result["pass"] else "fail"
    yield result


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hypersum",
        description="Weighted hypergeometric sums, progeny laws, and seeded "
                    "Monte Carlo checks.")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="write records to PATH instead of stdout")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("hyp2f1", help="evaluate 2F1(a,b;c;x)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_format(p)

    p = sub.add_parser("sum", help="evaluate the weighted sum S(eta, c; x)")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--method", choices=("direct", "closed", "special", "auto"),
                   default="auto")
    add_format(p)

    p = sub.add_parser("progeny", help="total-progeny distributions")
    psub = p.add_subparsers(dest="progeny_cmd", required=True)
    pp = psub.add_parser("pmf", help="alpha = 1/2 progeny pmf rows")
    pp.add_argument("--lambda", dest="lam", type=float, required=True)
    pp.add_argument("--lmax", type=int, required=True)
    add_format(pp)
    pg = psub.add_parser("pgf", help="alpha = 1/2 progeny generating function")
    pg.add_argument("--lambda", dest="lam", type=float, required=True)
    pg.add_argument("--z", type=float, required=True)
    add_format(pg)
    pq = psub.add_parser("general", help="general (c, x) progeny-type pmf rows")
    pq.add_argument("--c", type=float, required=True)
    pq.add_argument("--x", type=float, required=True)
    pq.add_argument("--lmax", type=int, required=True)
    add_format(pq)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of total progeny")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="replicates")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--bins", type=int, default=20)
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--replicates", type=int, default=None,
                   help="montecarlo suite replicate count override")
    return ap


_DISPATCH = {
    "hyp2f1": _cmd_hyp2f1,
    "sum": _cmd_sum,
    "pmf": _cmd_pmf,
    "pgf": _cmd_pgf,
    "general": _cmd_general,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def _finite(v):
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, dict):
        return all(map(_finite, v.values()))
    if isinstance(v, (list, tuple)):
        return all(map(_finite, v))
    return True


def _plain(o):
    """A numpy scalar (a suite's verdict may be a numpy bool) as its Python value."""
    if hasattr(o, "item"):
        return o.item()
    raise TypeError("%s is not JSON serializable" % type(o).__name__)


def _writer(out, fmt, columns):
    """A function that writes one record as a JSON line or as a CSV row.

    CSV writes the header at once, so an error record is a row under it;
    keys outside the header are dropped and ``None`` is an empty cell.
    """
    if fmt == "json":
        return lambda rec: out.write(json.dumps(rec, allow_nan=False, default=_plain) + "\n")
    w = csv.DictWriter(out, columns, restval="", extrasaction="ignore", lineterminator="\n")
    w.writeheader()
    return lambda rec: w.writerow(
        {k: ("true" if v else "false") if isinstance(v, bool) else v for k, v in rec.items()})


def main(argv=None):
    args = _build_parser().parse_args(argv)
    leaf = args.progeny_cmd if args.cmd == "progeny" else args.cmd
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        write = _writer(out, getattr(args, "format", "json"), _COLUMNS.get(leaf))
        try:
            for name, v in vars(args).items():
                if isinstance(v, float) and not math.isfinite(v):
                    raise DomainError("%s must be finite, got %r" % (name, v))
            code = EXIT_OK
            for rec in _DISPATCH[leaf](args):
                if not _finite(rec):
                    raise OverflowError("non-finite value in a %s record" % leaf)
                write(rec)
                if rec["status"] == "fail":
                    code = EXIT_VERIFY
            return code
        except _DOMAIN_ERRORS + _NUMERIC_ERRORS as e:
            write({"status": type(e).__name__, "error": str(e)})
            print("error: %s" % e, file=sys.stderr)
            return EXIT_DOMAIN if isinstance(e, _DOMAIN_ERRORS) else EXIT_NUMERIC

if __name__ == "__main__":
    sys.exit(main())

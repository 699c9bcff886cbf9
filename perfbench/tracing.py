"""In-memory span tracing around the public functions of hypersum's modules.

The benchmark observes each layer from outside: it replaces every public
function of a layer module with a timing wrapper, in every hypersum module
namespace that holds a reference to it (``hypersum.sums.hyp2f1_half_one``
as well as ``hypersum.special.hyp2f1_half_one``), so calls between layers
are seen too. Spans stay in memory until the run writes them out.
"""

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

from stats import ladder_tail, percentile

LAYERS = ("special", "sums", "branching", "simulate", "verify", "cli")
_NAMESPACES = ("hypersum",) + tuple("hypersum." + m for m in LAYERS)

# Span fields: name, start_ns, end_ns, parent index (-1 at the root),
# tag (a label from the arguments), work (a count from the result) and
# error (exception class name or None).
NAME, START, END, PARENT, TAG, WORK, ERROR = range(7)


def _tag(name, args):
    """A short label for calls whose cost depends on one argument."""
    if name == "verify.run_suite" and args:
        return str(args[0])
    if name == "cli.main" and args and args[0]:
        return str(args[0][0])
    if name == "simulate.simulate_total_progeny" and args:
        return "alpha=%g" % args[0].alpha
    return None


def _work(name, args, kwargs, result, error):
    """The amount of work a call did, read from its arguments or result."""
    if error is not None:
        if name == "sums.sum_direct" and error == "SlowConvergence":
            # The sum ran to its term cap before raising.
            from hypersum.special import default_max_terms
            cap = kwargs.get("max_terms", args[2] if len(args) > 2 else None)
            return (cap or default_max_terms()) + 1
        return None
    if name == "special.hyp2f1_ladder":
        return len(result[0])
    if name in ("branching.progeny_pmf_range", "branching.general_progeny_pmf_range"):
        return len(result)
    if name in ("sums.sum_direct", "special.hyp2f1_half_one"):
        return result.terms_used
    if name == "simulate.simulate_total_progeny":
        return {"replicates": args[1].replicates, "censored": result.censored,
                "individuals": sum(k * v for k, v in result.counts.items())}
    return None


class Tracer:
    """Records one span per traced call: name, start, end, parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """A benchmark-side span (the root of an op)."""
        idx = self._open(name, tag)
        error = None
        try:
            yield
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            self._close(idx, None, error)

    def _open(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, tag, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, work=None, error=None):
        s = self.spans[idx]
        s[END] = time.perf_counter_ns()
        s[WORK] = work
        s[ERROR] = error
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, _tag(name, args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                err = type(e).__name__
                tracer._close(idx, _work(name, args, kwargs, None, err), err)
                raise
            tracer._close(idx, _work(name, args, kwargs, result, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function of each layer in every namespace."""
        mods = {m: importlib.import_module(m) for m in _NAMESPACES}
        wrappers = {}
        for layer in LAYERS:
            mod = mods["hypersum." + layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer + "." + attr, fn))
            if layer == "cli":
                wrappers[id(mod.main)] = (mod.main, self._wrap("cli.main", mod.main))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "tag", "work", "error"],
                       "spans": self.spans}, f)


def self_times(spans):
    """Per-span self time in ns: duration minus the time its children cover.

    Children of one span run one after another (single thread), so their
    durations add without overlap.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


# Per-layer metrics: (name, unit, better). The simulate figures are split by
# alpha because per-replicate cost shows at alpha = 0.5 and per-individual
# cost at alpha = 0.9.
PER_LAYER = [
    ("special.hyp2f1_ladder.ns_per_step", "ns", "lower"),
    ("special.hyp2f1_ladder.calls_per_op", "count", "lower"),
    ("special.hyp2f1_half_one.us_p50", "us", "lower"),
    ("special.hyp2f1_half_one.terms_per_call", "count", "lower"),
    ("special.self_share", "ratio", "lower"),
    ("sums.evaluate.us_p50", "us", "lower"),
    ("sums.evaluate.us_tail", "us", "lower"),
    ("sums.evaluate.direct_fallback_ratio", "ratio", "lower"),
    ("sums.sum_direct.terms_per_call", "count", "lower"),
    ("sums.sum_direct.ns_per_term", "ns", "lower"),
    ("sums.sum_direct.slow_convergence_ratio", "ratio", "lower"),
    ("sums.sum_closed.us_p50", "us", "lower"),
    ("sums.sum_closed.us_tail", "us", "lower"),
    ("sums.self_share", "ratio", "lower"),
    ("branching.progeny_pmf_range.ns_per_ell", "ns", "lower"),
    ("branching.general_progeny_pmf_range.ns_per_ell", "ns", "lower"),
    ("branching.progeny_pmf.us_p50", "us", "lower"),
    ("branching.progeny_pmf.us_tail", "us", "lower"),
    ("branching.progeny_pmf_bessel_oracle.ms_per_call", "ms", "lower"),
    ("branching.h_alpha_pgf.us_per_call", "us", "lower"),
    ("branching.progeny_pgf_hypergeometric.us_per_call", "us", "lower"),
    ("branching.self_share", "ratio", "lower"),
    ("simulate.simulate_total_progeny.ns_per_replicate", "ns", "lower"),
    ("simulate.simulate_total_progeny.ns_per_individual", "ns", "lower"),
    ("simulate.gof_compare.ms_per_call", "ms", "lower"),
    ("simulate.censored_ratio", "ratio", "lower"),
    ("simulate.replicates_per_s", "replicates/s", "higher"),
    ("simulate.self_share", "ratio", "lower"),
    ("verify.theorem1.s", "s", "lower"),
    ("verify.theorem2.s", "s", "lower"),
    ("verify.closed-forms.s", "s", "lower"),
    ("verify.corollary1.s", "s", "lower"),
    ("verify.asymptotics.s", "s", "lower"),
    ("verify.functional-eq.s", "s", "lower"),
    ("verify.self_share", "ratio", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_ms.hyp2f1", "ms", "lower"),
    ("cli.main_ms.sum", "ms", "lower"),
    ("cli.main_ms.progeny", "ms", "lower"),
    ("cli.main_ms.simulate", "ms", "lower"),
    ("cli.main_ms.verify", "ms", "lower"),
    ("cli.bytes_per_record", "bytes", "lower"),
    ("cli.self_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(spans):
    """Per-layer figures from one traced run, and the tail percentiles used.

    A layer that the workload never called reports 0. Shares are of the
    total time of the benchmark's op spans.
    """
    st = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    idx = defaultdict(list)
    child_names = defaultdict(set)
    for i, s in enumerate(spans):
        idx[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child_names[s[PARENT]].add(s[NAME])
    n_ops = len(idx["op"])
    op_ns = sum(dur[i] for i in idx["op"]) or 1
    tails = {}

    def durs(name, tag=None):
        return [dur[i] for i in idx[name] if tag is None or spans[i][TAG] == tag]

    def median(values, scale):
        return percentile(sorted(values), 50.0) / scale

    def mean(values, scale):
        return sum(values) / len(values) / scale if values else 0.0

    def tail(name, scale):
        values = durs(name)
        if not values:
            return 0.0
        pct, v = ladder_tail(values)
        tails[name] = {"percentile": pct, "samples": len(values)}
        return v / scale

    def per_work(name, key=None, tag=None):
        ii = [i for i in idx[name] if spans[i][WORK] is not None and (tag is None or spans[i][TAG] == tag)]
        work = sum(spans[i][WORK][key] if key else spans[i][WORK] for i in ii)
        return sum(dur[i] for i in ii) / work if work else 0.0

    def mean_work(name):
        ii = [i for i in idx[name] if spans[i][WORK] is not None]
        return sum(spans[i][WORK] for i in ii) / len(ii) if ii else 0.0

    def share(layer):
        return sum(t for s, t in zip(spans, st) if s[NAME].startswith(layer + ".")) / op_ns

    ev = idx["sums.evaluate"]
    direct = idx["sums.sum_direct"]
    sims = [spans[i][WORK] for i in idx["simulate.simulate_total_progeny"] if spans[i][WORK]]
    reps = sum(w["replicates"] for w in sims)
    sim_ns = sum(dur[i] for i in idx["simulate.simulate_total_progeny"])
    m = {
        "special.hyp2f1_ladder.ns_per_step": per_work("special.hyp2f1_ladder"),
        "special.hyp2f1_ladder.calls_per_op": len(idx["special.hyp2f1_ladder"]) / max(n_ops, 1),
        "special.hyp2f1_half_one.us_p50": median(durs("special.hyp2f1_half_one"), 1e3),
        "special.hyp2f1_half_one.terms_per_call": mean_work("special.hyp2f1_half_one"),
        "sums.evaluate.us_p50": median(durs("sums.evaluate"), 1e3),
        "sums.evaluate.us_tail": tail("sums.evaluate", 1e3),
        "sums.evaluate.direct_fallback_ratio":
            sum(1 for i in ev if "sums.sum_direct" in child_names[i]) / len(ev) if ev else 0.0,
        "sums.sum_direct.terms_per_call": mean_work("sums.sum_direct"),
        "sums.sum_direct.ns_per_term": per_work("sums.sum_direct"),
        "sums.sum_direct.slow_convergence_ratio":
            sum(1 for i in direct if spans[i][ERROR] == "SlowConvergence") / len(direct) if direct else 0.0,
        "sums.sum_closed.us_p50": median(durs("sums.sum_closed"), 1e3),
        "sums.sum_closed.us_tail": tail("sums.sum_closed", 1e3),
        "branching.progeny_pmf_range.ns_per_ell": per_work("branching.progeny_pmf_range"),
        "branching.general_progeny_pmf_range.ns_per_ell": per_work("branching.general_progeny_pmf_range"),
        "branching.progeny_pmf.us_p50": median(durs("branching.progeny_pmf"), 1e3),
        "branching.progeny_pmf.us_tail": tail("branching.progeny_pmf", 1e3),
        "branching.progeny_pmf_bessel_oracle.ms_per_call": mean(durs("branching.progeny_pmf_bessel_oracle"), 1e6),
        "branching.h_alpha_pgf.us_per_call": mean(durs("branching.h_alpha_pgf"), 1e3),
        "branching.progeny_pgf_hypergeometric.us_per_call": mean(durs("branching.progeny_pgf_hypergeometric"), 1e3),
        "simulate.simulate_total_progeny.ns_per_replicate":
            per_work("simulate.simulate_total_progeny", "replicates", "alpha=0.5"),
        "simulate.simulate_total_progeny.ns_per_individual":
            per_work("simulate.simulate_total_progeny", "individuals", "alpha=0.9"),
        "simulate.gof_compare.ms_per_call": mean(durs("simulate.gof_compare"), 1e6),
        "simulate.censored_ratio": sum(w["censored"] for w in sims) / reps if reps else 0.0,
        "simulate.replicates_per_s": reps / (sim_ns / 1e9) if sim_ns else 0.0,
    }
    for layer in LAYERS:
        m[layer + ".self_share"] = share(layer)
    for suite in ("theorem1", "theorem2", "closed-forms", "corollary1", "asymptotics", "functional-eq"):
        m["verify.%s.s" % suite] = median(durs("verify.run_suite", suite), 1e9)
    for cmd in ("hyp2f1", "sum", "progeny", "simulate", "verify"):
        m["cli.main_ms." + cmd] = median(durs("cli.main", cmd), 1e6)
    return m, tails

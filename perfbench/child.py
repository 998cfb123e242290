"""One measured pass of a perfbench workload, in a fresh interpreter.

run.py starts this file once per pass, so every pass pays the import and
fills the product memo from cold, as a user's command does.  The child
imports freefusion from the checkout's `src/`, times the pass and writes
one JSON result to --out.  With --trace 1 it also wraps the public
functions that one module calls in another, records a span per call
(name, start, end, parent) in memory and writes them with the result.
Under --mode reference it times the benchmark's own fixed reference pass
instead and imports nothing from the library.

    python3 perfbench/child.py --t0 T --mode sweep --out R.json --report F \
        --sweep-argv check-simple --ambient pu ...
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


class InstrumentationError(RuntimeError):
    """A timer or wrapper installed by the benchmark recorded no sample."""


class Tracer:
    """Spans at module boundaries, kept in memory until the pass ends.

    Calls made thousands of times per pass (`leaf` wrappers) are folded
    into per-name totals instead of one span each; their time still counts
    as covered time of the enclosing span, so self times stay exact.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.self_s: dict[str, float] = {}
        self.installed: list[str] = []
        self._stack: list[list] = []  # [span index, covered seconds]

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[1], span[2] = start, end
            self.self_s[name] = self.self_s.get(name, 0.0) + end - start - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start

    def leaf(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            agg = self.leaves.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(self, owner, attr: str, name: str, leaf: bool = False):
        """Replace owner.attr by a recording wrapper."""
        fn = getattr(owner, attr)
        record = self.leaf if leaf else self.call

        def wrapper(*args, **kwargs):
            return record(name, fn, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self.installed.append(name)

    def summary(self) -> dict:
        """calls, total and self seconds per name, derived from the spans."""
        out: dict[str, dict] = {}
        for name, start, end, _ in self.spans:
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
        for name, self_s in self.self_s.items():
            out[name]["self_s"] = self_s
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        missing = [n for n in self.installed if n not in out]
        if missing:
            raise InstrumentationError(f"no sample recorded by {', '.join(missing)}")
        return out


def _trace_sweep(tracer: Tracer, normality, closure):
    """Wrap the calls a sweep makes across module boundaries."""
    tracer.wrap(normality, "ad_closure", "normality.ad_closure")
    tracer.wrap(normality, "witness", "normality.witness")
    tracer.wrap(normality, "verify_certificate_detailed", "closure.verify")
    tracer.wrap(normality, "enumerate_words", "words.enumerate_words", leaf=True)
    for attr in ("__init__", "simples", "count"):
        tracer.wrap(normality.AmbientView, attr, "normality.ambient")
    tracer.wrap(closure, "mul_simple", "fusion.mul_simple", leaf=True)
    tracer.wrap(closure, "mul_many", "fusion.mul_many", leaf=True)

    run = closure.Saturator.run

    def traced_run(self, ad_scan=None):
        if ad_scan is not None:
            scan = ad_scan

            def ad_scan(m):
                return tracer.leaf("normality.ad_scan", lambda: list(scan(m)))

        return tracer.call("closure.Saturator.run", run, self, ad_scan=ad_scan)

    closure.Saturator.run = traced_run
    tracer.installed += ["closure.Saturator.run", "normality.ad_scan"]


def _trace_result(tracer: Tracer) -> dict:
    from freefusion import fusion

    # The product memo is an lru_cache today; report None once it is gone.
    memo = getattr(fusion, "_simple_terms", None)
    info = memo.cache_info() if hasattr(memo, "cache_info") else None
    return {
        "layers": tracer.summary(),
        "spans": tracer.spans,
        "memo": None if info is None else {
            "entries": info.currsize, "hits": info.hits, "misses": info.misses,
        },
    }


def sweep(argv: list[str], report: str, trace: bool) -> dict:
    from freefusion import cli, closure, normality

    ops: list[float] = []
    stats: list[dict] = []
    ad_closure = normality.ad_closure

    def timed_ad_closure(*args, **kwargs):
        start = time.perf_counter()
        result = ad_closure(*args, **kwargs)
        ops.append(time.perf_counter() - start)
        stats.append(dict(result.stats, saturated=result.saturated))
        return result

    normality.ad_closure = timed_ad_closure
    tracer = Tracer() if trace else None
    if tracer is not None:
        _trace_sweep(tracer, normality, closure)
        checker = "check_circle_corollary" if argv[0] == "check-circle" else "check_simplicity"
        tracer.wrap(cli, checker, "cli.checker")

    start = time.perf_counter()
    if tracer is not None:
        code = tracer.call("cli.run", cli.run, argv + ["--report", report])
    else:
        code = cli.run(argv + ["--report", report])
    wall = time.perf_counter() - start
    if not ops:
        raise InstrumentationError("no sample recorded by normality.ad_closure")
    out = {"wall_s": wall, "ops_s": ops, "exit_code": code, "stats": stats}
    if tracer is not None:
        out["trace"] = _trace_result(tracer)
    return out


def replay(docs: list[dict], trace: bool) -> dict:
    from freefusion import closure, words

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.wrap(closure, "mul_simple", "fusion.mul_simple", leaf=True)
        tracer.wrap(closure, "mul_many", "fusion.mul_many", leaf=True)
        tracer.installed += ["closure.parse", "closure.verify"]
    parse_cert = closure.certificate_from_json
    verify = closure.verify_certificate_detailed

    def parse(doc):
        gens = {words.parse_word(g) for g in doc["generators"]}
        return gens, parse_cert(doc["certificate"])

    ops: list[float] = []
    verdicts: list[bool] = []
    first = time.perf_counter()
    for doc in docs:
        start = time.perf_counter()
        if tracer is None:
            gens, cert = parse(doc)
            ok, _ = verify(cert, gens)
        else:
            gens, cert = tracer.call("closure.parse", parse, doc)
            ok, _ = tracer.call("closure.verify", verify, cert, gens)
        ops.append(time.perf_counter() - start)
        verdicts.append(ok)
    wall = time.perf_counter() - first
    out = {"wall_s": wall, "ops_s": ops, "verdicts": verdicts}
    if tracer is not None:
        out["trace"] = _trace_result(tracer)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("reference", "setup", "sweep", "replay"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() read by the parent just before starting this child")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="sweep: report file for cli.run")
    ap.add_argument("--docs", help="replay: JSON list of certificate documents")
    ap.add_argument("--sweep-argv", nargs=argparse.REMAINDER, default=[])
    args = ap.parse_args()

    if args.mode == "reference":
        import oracle  # this file's directory: the benchmark's own code only

        start = time.perf_counter()
        members = oracle.reference_pass()
        result = {"wall_s": time.perf_counter() - start, "members": members}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import freefusion.cli  # noqa: F401  the whole library, as a user's command loads it

    docs = None
    if args.docs:
        with open(args.docs, encoding="utf-8") as fh:
            docs = json.load(fh)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "sweep":
        result.update(sweep(args.sweep_argv, args.report, bool(args.trace)))
    elif args.mode == "replay":
        result.update(replay(docs, bool(args.trace)))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InstrumentationError as exc:
        print(f"perfbench child: instrumentation failed: {exc}", file=sys.stderr)
        sys.exit(3)

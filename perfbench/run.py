"""freefusion benchmark: three acceptance sweeps and a certificate replay.

    python3 perfbench/run.py --workload pu-fixpoint --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each pass of a workload runs in a fresh child interpreter (child.py), one
after another, until --seconds have gone by and at least MIN_PASSES passes
are done.  A reference pass runs before and after every pass, and every
time is scaled by it (see REF_S).  Every pass is checked against reference.json (sweeps) or against
how its documents were built (replay).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics under --trace 0 and the per-layer metrics under --trace 1.  The
lines before it print every metric by name with its unit.  README.md says
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

MIN_PASSES = 3  # untraced passes per run, and traced ones under --trace 1
SETUP_CHILDREN = 3  # extra children that only import and load, for setup_s
RUN_CAP_S = 150  # bench scale: no pass starts, or runs on, past this
# Fastest time of oracle.reference_pass on the baseline machine (2-vCPU
# x86_64, Python 3.11.7): a measured time t next to a reference pass of
# r seconds is reported as t * REF_S / r, in seconds of that machine.
REF_S = 0.33
REF_MEMBERS = 243

_CHECK_SIMPLE_PU = ["check-simple", "--ambient", "pu", "--seed-len", "6",
                    "--ad-len", "8"]
_CHECK_CIRCLE = ["check-circle", "--seed-len", "5", "--ad-len", "8"]

# Bench scale keeps each pass to a few seconds so that a run repeats it;
# --full runs the acceptance-suite bounds the workloads are named after.
WORKLOADS = {
    "pu-fixpoint": {
        "argv": _CHECK_SIMPLE_PU + ["--report-len", "6", "--work-len", "10"],
        "full_argv": _CHECK_SIMPLE_PU + ["--report-len", "6", "--work-len", "12"],
        "conjugators": 2 + 6 + 20 + 70,  # balanced words of length 2..8
    },
    "pu-targets": {
        "argv": _CHECK_SIMPLE_PU + ["--report-len", "4", "--work-len", "12"],
        "full_argv": _CHECK_SIMPLE_PU + ["--report-len", "6", "--work-len", "14"],
        "conjugators": 2 + 6 + 20 + 70,
    },
    "au-circle": {
        "argv": _CHECK_CIRCLE + ["--report-len", "4", "--work-len", "10"],
        "full_argv": _CHECK_CIRCLE + ["--report-len", "6", "--work-len", "12"],
        "conjugators": 2 ** 9 - 2,  # all words of length 1..8
    },
    "cert-replay": {"documents": 2000, "corrupt_every": 8},
}

E2E = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
       ("op_p50_ms", "ms"), ("op_tail_ms", "ms")]

LAYER_UNITS = {
    "closure.products": "count",
    "closure.members": "count",
    "closure.member_yield": "ratio",
    "closure.saturate_self_s": "s",
    "closure.early_stops": "count",
    "normality.ad_scan.calls": "count",
    "normality.ad_scan_s": "s",
    "normality.ad_steps": "count",
    "normality.ad_yield": "ratio",
    "normality.ad_closure.calls": "count",
    "normality.ad_closure_s": "s",
    "normality.sample_s": "s",
    "normality.ambient_s": "s",
    "fusion.cache_entries": "count",
    "fusion.cache_hit_frac": "ratio",
    "closure.parse_s": "s",
    "closure.verify.calls": "count",
    "closure.verify_s": "s",
    "fusion.mul_simple.calls": "count",
    "fusion.mul_simple_s": "s",
    "fusion.mul_many.calls": "count",
    "fusion.mul_many_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "words.enumerate_words.calls": "count",
    "words.enumerate_words_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(values: list[float]) -> tuple[float, float]:
    """(p, value): the highest percentile, in steps of 0.1, whose
    nearest-rank value has at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for tenths in range(999, 499, -1):
        rank = math.ceil(tenths * n / 1000)
        if n - rank >= 10:
            return tenths / 10, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Runner:
    """Starts child passes in a private work directory and collects them."""

    def __init__(self, work: Path, timeout: float | None):
        self.work = work
        self.timeout = timeout
        self.count = 0

    def child(self, mode: str, trace: bool = False, docs: Path | None = None,
              argv: list[str] | None = None) -> dict:
        self.count += 1
        out = self.work / f"pass-{self.count}.json"
        cmd = ["--mode", mode, "--out", str(out), "--trace", str(int(trace))]
        report = None
        if docs is not None:
            cmd += ["--docs", str(docs)]
        if argv is not None:
            report = self.work / f"report-{self.count}.json"
            cmd += ["--report", str(report), "--sweep-argv", *argv]
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), "--t0", repr(t0), *cmd],
                                  cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  timeout=self.timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {self.count} ran over {self.timeout} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {self.count} ({mode}) exited {proc.returncode}")
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if report is not None:
            result["report"] = report.read_bytes()
            report.unlink()
        result["traced"] = trace
        return result


# --------------------------------------------------------------------------
# correctness


def check_sweep_pass(res: dict, ref: dict) -> int:
    """Failed operations of one sweep pass: a seed whose status or missing
    lists differ from the reference, or whose sampled certificates do not
    replay under the benchmark's own oracle.  A wrong exit code or seed
    list fails every operation."""
    attempted = len(res["ops_s"])
    try:
        seeds = json.loads(res["report"])["result"]["seeds"]
        if (res["exit_code"] != ref["exit_code"]
                or [r["seed"] for r in seeds] != [r["seed"] for r in ref["seeds"]]
                or attempted != len(seeds)):
            return attempted
        return sum(not _seed_ok(rec, exp) for rec, exp in zip(seeds, ref["seeds"]))
    except (ValueError, KeyError, TypeError):  # a malformed report
        return attempted


def _seed_ok(rec: dict, exp: dict) -> bool:
    if any(rec[k] != exp[k] for k in
           ("status", "missing_certified", "missing_within_bound")):
        return False
    gens = {rec["seed"], oracle.dual(rec["seed"])}
    return all(
        c["verified"] is True
        and oracle.certificate_word(c["certificate"], gens) == c["word"]
        for c in rec["certificates"]
    )


def fingerprint(res: dict) -> str:
    """What must not differ between passes of the same code: the report
    bytes and the engine's counters."""
    h = hashlib.sha256(res.get("report", b""))
    h.update(json.dumps(res.get("stats")).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------
# metrics


def layer_metrics(res: dict, conjugators: int, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, times scaled like the pass;
    0 for a layer the workload does not route through (no wrapper is
    installed there)."""

    def _layer(name: str, key: str = "total_s") -> float:
        entry = res["trace"]["layers"].get(name)
        if not entry:
            return 0
        return entry[key] if key == "calls" else entry[key] * scale

    stats = res.get("stats", [])
    products = sum(s["products"] for s in stats)
    members = sum(s["members"] for s in stats)
    ad_steps = sum(s["ad_steps"] for s in stats)
    scans = _layer("normality.ad_scan", "calls")
    memo = res["trace"]["memo"]
    lookups = memo["hits"] + memo["misses"] if memo else 0
    return {
        "closure.products": products,
        "closure.members": members,
        "closure.member_yield": members / products if products else 0,
        "closure.saturate_self_s": _layer("closure.Saturator.run", "self_s"),
        "closure.early_stops": sum(not s["saturated"] for s in stats),
        "normality.ad_scan.calls": scans,
        "normality.ad_scan_s": _layer("normality.ad_scan"),
        "normality.ad_steps": ad_steps,
        "normality.ad_yield": ad_steps / (scans * conjugators) if scans else 0,
        "normality.ad_closure.calls": _layer("normality.ad_closure", "calls"),
        "normality.ad_closure_s": _layer("normality.ad_closure"),
        "normality.sample_s": (_layer("normality.witness")
                               + (_layer("closure.verify") if stats else 0)),
        "normality.ambient_s": _layer("normality.ambient"),
        "fusion.cache_entries": memo["entries"] if memo else 0,
        "fusion.cache_hit_frac": memo["hits"] / lookups if lookups else 0,
        "closure.parse_s": _layer("closure.parse"),
        "closure.verify.calls": _layer("closure.verify", "calls"),
        "closure.verify_s": _layer("closure.verify"),
        "fusion.mul_simple.calls": _layer("fusion.mul_simple", "calls"),
        "fusion.mul_simple_s": _layer("fusion.mul_simple"),
        "fusion.mul_many.calls": _layer("fusion.mul_many", "calls"),
        "fusion.mul_many_s": _layer("fusion.mul_many"),
        "cli.self_s": _layer("cli.run", "self_s"),
        "cli.report_bytes": len(res.get("report", b"")),
        "words.enumerate_words.calls": _layer("words.enumerate_words", "calls"),
        "words.enumerate_words_s": _layer("words.enumerate_words"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 full: bool, runner: Runner) -> dict:
    w = WORKLOADS[name]
    replay = "documents" in w
    docs_path = None
    if replay:
        docs, expected = oracle.synth_documents(seed, w["documents"], w["corrupt_every"])
        docs_path = runner.work / "documents.json"
        docs_path.write_text(json.dumps(docs), encoding="utf-8")
        del docs
        argv, ref = None, None
    else:
        argv = w["full_argv"] if full else w["argv"]
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        ref = refs[name]["full" if full else "bench"]
        if ref["argv"] != argv:
            raise BenchError(f"reference.json holds outcomes of another argv for {name}")

    mode = "replay" if replay else "sweep"
    runner.child("setup", docs=docs_path)  # warm-up: byte-compiles src/
    setups = [runner.child("setup", docs=docs_path)["setup_s"]
              for _ in range(SETUP_CHILDREN)]

    def reference() -> float:
        r = runner.child("reference")
        if r["members"] != REF_MEMBERS:
            raise BenchError(f"reference pass derived {r['members']} members")
        return r["wall_s"]

    # Reference passes bracket every measured pass; the mean of the two
    # gauges the machine's speed while that pass ran.
    refs = [reference()]
    passes: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    least = 1 if full else MIN_PASSES  # a full-scale pass takes minutes
    while True:
        untraced = sum(not p["traced"] for p in passes)
        traced = len(passes) - untraced
        enough = untraced >= least and (not trace or traced >= least)
        next_traced = trace and untraced > traced
        elapsed = time.monotonic() - start
        if enough and (elapsed >= seconds or (not full and elapsed + longest > RUN_CAP_S)):
            break
        t = time.monotonic()
        p = runner.child(mode, trace=next_traced, docs=docs_path, argv=argv)
        refs.append(reference())
        p["scale"] = REF_S / ((refs[-2] + refs[-1]) / 2)
        passes.append(p)
        longest = max(longest, time.monotonic() - t)

    # correctness: every pass on its own, then the passes against each other
    failed_by_pass = []
    for p in passes:
        if replay:
            failed_by_pass.append(sum(a != b for a, b in zip(p["verdicts"], expected))
                                  + abs(len(p["verdicts"]) - len(expected)))
        else:
            failed_by_pass.append(check_sweep_pass(p, ref))
    prints = [fingerprint(p) for p in passes]
    common = Counter(prints).most_common(1)[0][0]
    unstable = sum(fp != common for fp in prints)
    for i, fp in enumerate(prints):
        if fp != common:  # report bytes or counters moved between passes
            failed_by_pass[i] = len(passes[i]["ops_s"])
    attempted = sum(len(p["ops_s"]) for p in passes)
    failed = sum(failed_by_pass)

    # Every time is scaled by the speed of the reference pass measured next
    # to it, then the median over passes is taken; an operation's latency
    # is its median over passes.
    plain = [p for p in passes if not p["traced"]]
    ops_ms = [statistics.median(t * p["scale"] for t, p in zip(times, plain)) * 1000
              for times in zip(*(p["ops_s"] for p in plain))]
    tail_p, tail_ms = tail(ops_ms)
    wall = statistics.median(p["wall_s"] * p["scale"] for p in plain)
    run_scale = REF_S / statistics.median(refs)
    out = {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "full": full,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "attempted": attempted,
        "failed": failed,
        "unstable_passes": unstable,
        "report_sha256": (hashlib.sha256(passes[0]["report"]).hexdigest()
                          if not replay else None),
        "tail": {"percentile": tail_p, "samples": len(ops_ms)},
        "pass_wall_s": [p["wall_s"] for p in plain],
        "reference_s": refs,
        "e2e": {
            "wall_s": wall,
            "setup_s": statistics.median([t * run_scale for t in setups]
                                         + [p["setup_s"] * p["scale"] for p in passes]),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
            "op_p50_ms": statistics.median(ops_ms),
            "op_tail_ms": tail_ms,
        },
    }
    if trace:
        conj = w.get("conjugators", 0)
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p, conj, p["scale"]) for p in traced]
        layers = {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
        layers["trace.wall_s"] = statistics.median(p["wall_s"] * p["scale"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        out["layers"] = layers
        out["spans"] = [{"pass": i, "layers": p["trace"]["layers"], "spans": p["trace"]["spans"]}
                        for i, p in enumerate(passes) if p["traced"]]
    return out


# --------------------------------------------------------------------------
# output


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def summary_lines(r: dict, trace: bool) -> list[str]:
    lines = [f"workload {r['workload']}: {r['passes']} passes"
             + (f" + {r['traced_passes']} traced" if trace else "")
             + (f", argv {' '.join(r['argv'])}" if r["argv"] else "")]
    for name, unit in E2E:
        extra = ""
        if name == "op_tail_ms":
            extra = (f"  (p{r['tail']['percentile']:g} of {r['tail']['samples']} operations,"
                     f" each its median over {r['passes']} passes)")
        lines.append(f"  {name:<28} {_fmt(r['e2e'][name]):>14} {unit}{extra}")
    lines.append("  unscaled wall_s of each pass: "
                 + " ".join(f"{w:.3f}" for w in r["pass_wall_s"]))
    lines.append("  reference pass, before and after each pass: "
                 + " ".join(f"{w:.3f}" for w in r["reference_s"]) + f" s (REF_S {REF_S})")
    frac = r["failed"] / r["attempted"]
    lines.append(f"  {'failed_frac':<28} {_fmt(frac):>14} ratio"
                 f"  ({r['failed']} of {r['attempted']} operations)")
    if r["unstable_passes"]:
        lines.append(f"  {r['unstable_passes']} passes differ from the others in report bytes or counters")
    if r["report_sha256"]:
        lines.append(f"  report sha256 {r['report_sha256']}")
    for name, value in r.get("layers", {}).items():
        lines.append(f"  {name:<28} {_fmt(value):>14} {LAYER_UNITS[name]}")
    return lines


def write_trace(r: dict) -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{r['workload']}.json"
    path.write_text(json.dumps(r["spans"]), encoding="utf-8")


def record(path: Path, results: list[dict], trace: bool) -> None:
    """Merge results into a JSON record with the machine context."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "arch": platform.machine()}
    for r in results:
        entry = data.setdefault("workloads", {}).setdefault(r["workload"], {})
        kept = {k: v for k, v in r.items() if k != "spans"}
        entry[("full-" if r["full"] else "") + ("traced" if trace else "untraced")] = kept
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; sweeps are exhaustive and record it unused")
    ap.add_argument("--seconds", type=float, default=25,
                    help="measure for at least this long (after MIN_PASSES)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced passes")
    ap.add_argument("--full", action="store_true",
                    help="run the sweeps at the acceptance-suite bounds (minutes per pass)")
    ap.add_argument("--record", metavar="FILE", help="merge the results into FILE")
    args = ap.parse_args()

    if not (ROOT / "src" / "freefusion" / "__init__.py").is_file():
        print("perfbench: no src/freefusion next to perfbench/", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(work, None if args.full else RUN_CAP_S)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                args.full, runner) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for r in results:
        print("\n".join(summary_lines(r, bool(args.trace))))
        if args.trace:
            write_trace(r)
            values = [(k, v, LAYER_UNITS[k]) for k, v in r["layers"].items()]
        else:
            values = [(k, r["e2e"][k], unit) for k, unit in E2E]
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for k, v, unit in values:
            metrics[prefix + k] = {"value": v, "unit": unit}
    if args.record:
        record(Path(args.record), results, bool(args.trace))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

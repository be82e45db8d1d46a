"""gapfree benchmark: three workloads, end-to-end metrics, a traced per-layer
run, and a correctness gate on every output.

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer metrics
    python3 perfbench/run.py --workload oracle-hard --seed 3 --seconds 30 --trace 0

One client in a closed loop: each operation starts when the previous one has
ended. CLI operations run as `gapfree` processes of this interpreter against
src/ (no install); the atlas sweep calls the library in-process. A run sets up
its inputs several times, then repeats whole passes over the workload's
operation list while the next pass is expected to end within --seconds.
Times are medians over passes; wall_ref expresses a pass in units of a fixed
reference computation timed between the operations of the same run, which
cancels the slow spells of a shared machine. The last line of output is one
JSON object; the exit code is 1 when an output fails the gate outside the
documented known defects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("construct-large", "oracle-hard", "atlas-sweep")
SETUP_REPEATS = 21
STARTUP_REPEATS = 5
ATLAS_REFERENCE_EVERY = 32

# end-to-end metric -> unit, measured with tracing off
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "construct_s": "s",
    "verify_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "unsettled_frac": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
# the end-to-end metrics of the final JSON line, which BENCHMARK.json bounds:
# every workload has them, they are never zero, and they are steady enough on
# a shared machine (see NOTES.md, "Noise")
REPORTED_E2E = ("setup_s", "wall_ref", "peak_rss_mb")
# the per-layer metrics of the final JSON line: all but the times (and the
# rate) that read exactly zero, run after run, on a workload that never
# enters their layer; the printed table and the results file keep them all
REPORTED_LAYERS = tuple(
    name for name, unit in tracing.LAYER_UNITS.items()
    if unit not in ("s", "1/s") or name == "graph.bfs_order_s"
)


PEAK_MARK = "perfbench-peak-rss-kb"
# What the installed `gapfree` script runs, through this interpreter, plus an
# exit hook that reports the process's own peak RSS. getrusage() cannot give
# it: a child spawned from this process inherits this process's high-water
# mark at exec. VmHWM belongs to the new program's memory only.
GAPFREE_MAIN = f"""
import atexit, sys

def report_peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_MARK} " + kb + "\\n")

atexit.register(report_peak)
from gapfree.cli import main
main()
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("INTERVAL_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv: list[str]) -> tuple[workloads.Outcome, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", GAPFREE_MAIN, *argv],
                          capture_output=True, text=True, env=_child_env())
    seconds = time.perf_counter() - start
    stderr, mark, peak = proc.stderr.rpartition(f"\n{PEAK_MARK} ")
    if not mark:  # killed before its exit hook ran
        stderr, peak = proc.stderr, "0"
    return workloads.Outcome(proc.returncode, proc.stdout, stderr, int(peak)), seconds


def run_inprocess(argv: list[str]) -> tuple[workloads.Outcome, float]:
    import gapfree.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = gapfree.cli.run(argv)
        except Exception:  # the CLI process would print the traceback and exit 1
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    return workloads.Outcome(code, out.getvalue(), err.getvalue()), seconds


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _record(name: str, kind: str, seconds: float | None, digest: str, check, **flags) -> dict:
    """One operation of one pass. `check` returns the output's problems; it
    is called once per operation, on the first pass, by gate()."""
    return {"name": name, "kind": kind, "seconds": seconds, "digest": digest, "check": check,
            "unsettled": False, "defect_seen": False, "peak_rss_kb": 0, "problems": []} | flags


def cli_pass(ops: list[workloads.Op], execute, reference: list[float] | None) -> list[dict]:
    records = []
    for op in ops:
        if reference is not None:
            reference.append(reference_s())
        if op.prepare is not None:
            try:
                op.prepare()
            except Exception as exc:  # the input comes from an earlier operation's output
                records.append(_record(op.name, op.kind, None, "", lambda exc=exc: [
                    f"input could not be prepared: {exc!r}"]))
                continue
        outcome, seconds = execute(op.argv)
        files = [p.read_bytes() if p.exists() else b"<absent>" for p in op.outputs]
        digest = _digest(str(outcome.exit).encode(), outcome.stdout.encode(), *files)
        defect = bool(op.known_defect and outcome.exit == 1 and op.known_defect in outcome.stderr)
        records.append(_record(op.name, op.kind, seconds, digest,
                               lambda op=op, outcome=outcome: op.check(outcome),
                               unsettled=outcome.exit == 2, defect_seen=defect,
                               peak_rss_kb=outcome.peak_rss_kb))
    return records


def atlas_pass(inp: workloads.AtlasInputs, expected, reference: list[float] | None) -> list[dict]:
    from gapfree.graph import build_graph

    # the package re-exports oracle() under the module's name, so fetch the module
    oracle_module = importlib.import_module("gapfree.oracle")
    records = []
    for k, (idx, n, edges) in enumerate(inp.graphs):
        if reference is not None and k % ATLAS_REFERENCE_EVERY == 0:
            reference.append(reference_s())
        g = build_graph(n, edges)
        start = time.perf_counter()
        # looked up on every call so that the traced run's wrapper is used
        result = oracle_module.oracle(g, inp.budget)
        seconds = time.perf_counter() - start
        summary = [idx, result.member, result.w, result.W, result.status, result.nodes_explored,
                   {t: c.colors for t, c in sorted(result.witnesses.items())}]
        records.append(_record(
            f"oracle atlas[{idx}]", "oracle", seconds, _digest(json.dumps(summary).encode()),
            lambda idx=idx, n=n, edges=edges, result=result: workloads.atlas_problems(
                idx, n, edges, result, inp.budget, expected),
            unsettled=result.status != "complete"))
    return records


def gate(passes: list[list[dict]]) -> None:
    """Fill in each record's problems. The first pass's outputs are checked;
    a later output identical to the first was checked there, and one that
    differs is a failure of its own (gapfree promises deterministic output)."""
    first = {}
    for r in passes[0]:
        try:
            r["problems"] = r["check"]()
        except Exception as exc:  # a malformed or missing output file
            r["problems"] = [f"output could not be checked: {exc!r}"]
        first[r["name"]] = r
    for records in passes[1:]:
        for r in records:
            r["problems"] = list(first[r["name"]]["problems"])
            if r["digest"] != first[r["name"]]["digest"]:
                r["problems"].append("output differs from the first pass")
    for records in passes:
        for r in records:
            r["known_defect"] = bool(r["problems"]) and r["defect_seen"]
            del r["check"]


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than 21 samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def timing_metrics(passes: list[list[dict]], reference: list[float] | None = None) -> dict[str, float]:
    """Each operation's latency is its median over the passes.

    wall_ref is wall_s in units of the median reference sample timed between
    the operations of the same run (see reference_work).
    """
    seconds: dict[str, list[float]] = {}
    kind: dict[str, str] = {}
    for records in passes:
        for r in records:
            if r["seconds"] is not None:
                seconds.setdefault(r["name"], []).append(r["seconds"])
                kind[r["name"]] = r["kind"]
    latency = {name: statistics.median(v) for name, v in seconds.items()}
    ms = [1000 * s for s in latency.values()]
    metrics = {
        "wall_s": sum(latency.values()),
        "construct_s": sum(s for name, s in latency.items() if kind[name] == "construct"),
        "verify_s": sum(s for name, s in latency.items() if kind[name] == "verify"),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail(ms),
    }
    if reference:
        metrics["wall_ref"] = metrics["wall_s"] / statistics.median(reference)
    return metrics


class Workload:
    """Set-up and passes of one workload inside its own work directory."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path):
        self.name, self.seed, self.size, self.workdir = name, seed, size, workdir
        self.expected = workloads.load_atlas_verdicts() if name == "atlas-sweep" else None

    def setup(self) -> float:
        """Make the inputs SETUP_REPEATS times; keep the last, return the median time."""
        setup = {
            "construct-large": workloads.construct_setup,
            "oracle-hard": workloads.oracle_setup,
            "atlas-sweep": workloads.atlas_setup,
        }[self.name]
        times = []
        for k in range(SETUP_REPEATS):
            d = self.workdir / f"inputs{k}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            self.inputs = setup(d, self.seed, workloads.SIZES[self.size])
            times.append(time.perf_counter() - start)
        if self.name == "construct-large":
            self.ops = workloads.construct_ops(self.inputs)
        elif self.name == "oracle-hard":
            self.ops = workloads.oracle_ops(self.inputs)
        return statistics.median(times)

    def one_pass(self, inprocess: bool, reference: list[float] | None = None) -> list[dict]:
        # keep the records of earlier passes out of the collector's way, so an
        # in-process pass runs against a heap like a fresh process's
        gc.collect()
        gc.freeze()
        if self.name == "atlas-sweep":
            return atlas_pass(self.inputs, self.expected, reference)
        return cli_pass(self.ops, run_inprocess if inprocess else run_subprocess, reference)


def _passes(seconds: float, run_one) -> None:
    """Call run_one() at least once, then again while another call of the
    same length still ends within `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_one()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def reference_work() -> int:
    """Fixed pure-Python work of the program's kind, independent of gapfree:
    a bitmask backtracking count (like the searches) and building, sorting
    and indexing a list of edge tuples (like products and the verifier)."""
    def queens(row, cols, d1, d2, n=9):
        if row == n:
            return 1
        total = 0
        free = ~(cols | d1 | d2) & ((1 << n) - 1)
        while free:
            bit = free & -free
            free ^= bit
            total += queens(row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1)
        return total

    edges = sorted(((i * 97 + j) % 1009, (i * 31 + j) % 997) for i in range(300) for j in range(200))
    index = {e: k for k, e in enumerate(edges)}
    return queens(0, 0, 0, 0) + len(index)


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _startup_ms() -> float:
    times = [run_subprocess(["bounds", "--theorem", "t7", "--params", "n=2"])[1] for _ in range(STARTUP_REPEATS)]
    return 1000 * statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import gapfree  # compiles the bytecode cache before anything is timed

    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        wl = Workload(name, seed, size, workdir)
        setup_s = wl.setup()
        run_subprocess(["bounds", "--theorem", "t7", "--params", "n=2"])  # warm the file cache
        all_records: list[list[dict]] = []
        metrics: dict[str, float]
        spans: list[dict] = []
        reference: list[float] = []
        if not trace:
            _passes(seconds, lambda: all_records.append(wl.one_pass(inprocess=False, reference=reference)))
            metrics = {"setup_s": setup_s, **timing_metrics(all_records, reference)}
            if name == "atlas-sweep":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                peak_kb = max(r["peak_rss_kb"] for rs in all_records for r in rs)
            metrics["peak_rss_mb"] = peak_kb / 1024
        else:
            untraced, traced, layers = [], [], []

            def traced_pair():
                untraced.append(wl.one_pass(inprocess=True))
                tr = tracing.Tracer()
                restore = tracing.install(tr)
                try:
                    records = wl.one_pass(inprocess=True)
                finally:
                    restore()
                traced.append(records)
                layers.append(tracing.layer_metrics(tr))
                spans.extend(tr.spans)

            _passes(seconds, traced_pair)
            metrics = tracing.median_metrics(layers)
            metrics["cli.startup_ms"] = _startup_ms()
            wall = {k: timing_metrics(v)["wall_s"] for k, v in (("untraced", untraced), ("traced", traced))}
            metrics["trace.overhead_frac"] = wall["traced"] / wall["untraced"] - 1
            all_records = untraced + traced
        gate(all_records)
        records = [r for rs in all_records for r in rs]
        attempted = len(records)
        failed = sum(bool(r["problems"]) for r in records)
        metrics["unsettled_frac"] = sum(r["unsettled"] for r in records) / attempted
        metrics["failed_frac"] = failed / attempted
        return {
            "workload": name,
            "correct": all(r["known_defect"] for r in records if r["problems"]),
            "attempted": attempted,
            "failed": failed,
            "passes": len(all_records),
            "metrics": metrics,
            "problems": sorted({f"{r['name']}: {p}" for r in records for p in r["problems"]}),
            "known_defects": sorted({r["name"] for r in records if r["known_defect"]}),
            "digest": _digest(*(r["digest"].encode() for r in all_records[0])),
            "op_digests": {r["name"]: r["digest"] for r in all_records[0]},
            "op_seconds": {r["name"]: [rs[i]["seconds"] for rs in all_records] for i, r in enumerate(all_records[0])},
            "spans": spans,
            "reference_s": reference,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, result: dict) -> dict:
    size = workloads.SIZES[args.size]
    return {
        "workload": result["workload"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": result["passes"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "budgets": {k: v for k, v in size.items() if "budget" in k},
        "digest": result["digest"],
        "known_defects": result["known_defects"],
        "wait_s": "not applicable: single-threaded, nothing queues",
    }


def print_result(args, result: dict) -> None:
    units = tracing.LAYER_UNITS if args.trace else E2E_UNITS
    print(f"== {result['workload']}  seed={args.seed}  passes={result['passes']}"
          f"  attempted={result['attempted']}  failed={result['failed']}  correct={result['correct']}")
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "n/a" if value is None or (name in ("construct_s", "verify_s") and result["workload"] != "construct-large") else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    for problem in result["problems"]:
        print(f"  gate: {problem}")
    meta = metadata(args, result)
    print(json.dumps({"metadata": meta}))
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{args.seed}-trace{args.trace}"
    record = {k: v for k, v in result.items() if k != "spans"} | {"metadata": meta}
    WORK.joinpath("results", f"{stem}.json").write_text(json.dumps(record, indent=1))
    if result["spans"]:
        with open(WORK / "results" / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in result["spans"])
    names = REPORTED_LAYERS if args.trace else REPORTED_E2E
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in names},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny runs every operation at a size that takes seconds (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "gapfree" / "cli.py").is_file():
        print(f"perfbench: no gapfree sources at {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that peak RSS is the workload's own
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--size", args.size]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_result(args, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

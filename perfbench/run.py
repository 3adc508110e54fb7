"""subsym benchmark: end-to-end and per-layer metrics on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1729 --seconds 40 --trace 0

Workloads (see workloads.py for what each pass does):

    corpus      the default ``subsym verify`` sweep, run_corpus(CorpusConfig(seed))
    hosi        ``subsym analyze`` on the subdivided Hoffman-Singleton graph,
                --group aut (cold cache) then the fixture generators, s = 1..6
    structural  the acceptance suite's structural instances: distance formula,
                reconstruction, girth doubling and Aut orders of subdivisions

Seeds: ``--seed`` defaults to 1729 for corpus and 20250809 for structural;
hosi is a fixed instance and only records the seed. Seed 4099 is held out:
use it only to confirm a claim made on other seeds.

The load is a closed loop from one caller: one process, one thread, each
pass starting when the previous one has returned. Passes repeat while the
next one is expected to end within ``--seconds`` seconds (at least one
pass). Set-up (importing subsym and building the inputs) is timed in this
process and in four fresh child processes, and ``setup_s`` is the median.

Every time is reported in seconds at reference speed (see speed.py): the
shared machines this runs on change speed by more than half within
minutes, so a timer signal times a short fixed loop every 50 ms while the
benchmark runs, and each time is scaled by the loop's median time over the
same window. The wall times are in the result file too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then traced passes (spans around the public
functions listed in spans.py) for the other half, and reports the
per-layer metrics of the traced passes. Every pass's verdict records must
equal the first pass's, so the traced run also checks that tracing changed
no verdict.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with a record of the machine, goes to ``.perfbench/results/``; a traced
run also writes its spans there. The exit code is 0 when every verdict is
as expected, 1 when one is not (``failed_share`` > 0), and 2 when the
benchmark cannot run at all (for instance, no ``src/subsym`` to test).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 60

from spans import REPEAT_GROUPS, SHARES, TARGETS, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- set-up ----------------------------------------------------------------


def subsym_src() -> str:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "subsym", "__init__.py")):
        raise SetupError(f"no subsym sources under {src}")
    return src


def import_subsym():
    """Import subsym from this checkout's ``src``, never from elsewhere."""
    src = subsym_src()
    sys.path.insert(0, src)
    import subsym

    if not os.path.abspath(subsym.__file__).startswith(src + os.sep):
        raise SetupError(f"imported subsym from {subsym.__file__}, not from {src}")
    return subsym


def set_up(name: str, seed: int):
    """Import subsym and build the workload's inputs; returns the workload
    and the wall-clock window the set-up took."""
    t0 = time.perf_counter()
    import_subsym()
    workload = WORKLOADS[name](ROOT, seed)
    return workload, (t0, time.perf_counter())


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, at reference speed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up in a child process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- passes ------------------------------------------------------------------


class VerdictCheck:
    """Compares every pass's verdict records with the first pass's and
    counts each differing item as failed. Only the first pass's records are
    kept, so the harness's memory does not grow with the number of passes."""

    def __init__(self):
        self.reference = None
        self.problems: list[str] = []

    def check(self, r: PassResult) -> None:
        r.items = max(len(r.records), 1)
        self.problems += r.problems
        if self.reference is None and r.records:
            self.reference = r.records
        elif r.records:
            differing = sum(a != b for a, b in zip(r.records, self.reference))
            differing += abs(len(r.records) - len(self.reference))
            if differing:
                self.problems.append(f"{differing} verdict records differ from the first pass's")
                r.failed = max(r.failed, differing)
        else:
            r.failed = max(r.failed, len(self.reference or ()), 1)
        r.records = []


def run_passes(workload, seconds: float, verdicts: VerdictCheck, speed: Speedometer,
               tracer: Tracer | None = None) -> list[PassResult]:
    """Closed loop: passes back to back while the next one is expected to
    end within ``seconds`` (at least one pass)."""
    results: list[PassResult] = []
    start = time.perf_counter()
    while not results or (time.perf_counter() - start
                          + statistics.median(r.elapsed_s for r in results) <= seconds):
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass()
        except Exception:  # the pass gives no verdicts; the run reports it and goes on
            elapsed = time.perf_counter() - t0
            result = PassResult(elapsed_s=elapsed, first_verdict_s=elapsed, started=t0,
                                problems=[traceback.format_exc(limit=5)])
        result.pass_s = speed.scaled(result.started, result.started + result.elapsed_s)
        result.first_s = speed.scaled(result.started, result.started + result.first_verdict_s)
        if tracer is not None:
            tracer.end_pass()
            tracer.paused = True
        try:
            workload.finish(result)
        finally:
            if tracer is not None:
                tracer.paused = False
        verdicts.check(result)
        results.append(result)
    return results


def highest_percentile(n: int) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = "none"
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = f"p{p:g}"
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
    return ordered[k]


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(results: list[PassResult], setup_samples: list[float]) -> dict:
    """Times are at reference speed (see speed.py)."""
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(r.pass_s for r in results),
        "verdicts_per_s": statistics.median(r.items / r.pass_s for r in results),
        "first_verdict_s": statistics.median(r.first_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer: Tracer, traced: list[PassResult], untraced: list[PassResult]) -> dict:
    """Per traced pass, medians over the traced passes; times are at
    reference speed."""
    out: dict[str, float] = {}
    totals = tracer.totals
    scales = [r.pass_s / r.elapsed_s for r in traced]
    for idx, (module, attr, names, extra, _) in enumerate(TARGETS):
        prefix = f"{module}.{attr}"
        columns = {"calls": [t.calls[idx] for t in totals],
                   "incl_s": [t.incl[idx] * k for t, k in zip(totals, scales)],
                   "self_s": [t.self_time[idx] * k for t, k in zip(totals, scales)]}
        for m in names:  # median_low keeps counts whole
            out[f"{prefix}.{m}"] = statistics.median_low(columns[m])
        if extra is not None:
            out[f"{prefix}.{extra[0]}"] = statistics.median_low(t.extra[idx] for t in totals)
    for group in REPEAT_GROUPS:
        calls = sum(t.repeat_calls[group] for t in totals)
        hits = sum(t.repeat_hits[group] for t in totals)
        out[f"{group}.repeat_share"] = hits / calls if calls else 0.0
    traced_pass = statistics.median(r.pass_s for r in traced)
    for name in SHARES:
        out[f"{name}.share"] = out[f"{name}.incl_s"] / traced_pass
    out["trace.overhead_s"] = traced_pass - statistics.median(r.pass_s for r in untraced)
    return out


# -- record of the machine ---------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "absent"


def machine_record(seed: int) -> dict:
    import numpy

    try:
        from subsym import kernels

        active = kernels.ACTIVE
    except (ImportError, AttributeError):
        active = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_active": active,
        "commit": git_commit(),
        "seed": seed,
    }


# -- main ----------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = Speedometer()
    if args.setup_only:
        with speed:
            workload, window = set_up(args.workload, args.seed)
            workload.close()
            speed.wait_for_ticks(window[0])
        print(repr(speed.scaled(*window)))
        return 0

    declared = declared_metrics(bool(args.trace))
    subsym_src()
    # fresh interpreters first, while this process is idle
    setup_samples = [] if args.trace else [child_setup_seconds(args.workload, args.seed)
                                           for _ in range(SETUP_CHILDREN)]
    verdicts = VerdictCheck()
    with speed:
        workload, window = set_up(args.workload, args.seed)
        try:
            machine = machine_record(args.seed)
            report = {"workload": args.workload, "trace": args.trace, "machine": machine}
            if args.trace:
                untraced = run_passes(workload, args.seconds / 2, verdicts, speed)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_passes(workload, args.seconds / 2, verdicts, speed, tracer)
                finally:
                    tracer.uninstall()
                results = untraced + traced
                metrics = per_layer_metrics(tracer, traced, untraced)
                report["absent"] = tracer.absent
                report["traced_passes"] = len(traced)
            else:
                results = run_passes(workload, args.seconds, verdicts, speed)
                setup_samples.append(speed.scaled(*window))
                metrics = end_to_end_metrics(results, setup_samples)
                report["setup_samples_s"] = setup_samples
        finally:
            workload.close()

    machine["reference_loop_ms"] = speed.median_ms()
    problems = verdicts.problems
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    if set(metrics) != set(declared):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")

    pass_times = [r.pass_s for r in results]
    top = highest_percentile(len(pass_times))
    report.update({
        "passes": len(results),
        "pass_samples_s": pass_times,
        "pass_wall_samples_s": [r.elapsed_s for r in results],
        "highest_percentile": top,
        "pass_percentile_s": percentile(pass_times, float(top[1:])) if top != "none" else None,
        "items_per_pass": [r.items for r in results],
        "failed_share": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    })
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    if args.trace:
        report["spans"] = tracer.write_spans(os.path.join(results_dir, f"{tag}.spans.npz"))
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print("# machine: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in machine.items()))
    print(f"# workload {args.workload}: {len(results)} passes, {attempted} verdict items, "
          f"failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"# pass_s samples: {len(pass_times)}; highest percentile with >= 10 samples beyond it: "
          f"{top}" + (f" = {report['pass_percentile_s']:.6g} s" if top != "none" else ""))
    if args.trace:
        print(f"# traced passes: {len(traced)}; spans: {report['spans']}; "
              f"absent: {', '.join(tracer.absent) or 'none'}")
    for p in problems:
        print(f"# problem: {p}")
    absent = tuple(f"{a}." for a in report.get("absent", ()))
    for name in declared:
        value = "absent" if name.startswith(absent) else f"{metrics[name]:.6g}"
        print(f"{name:<52} {value:>14} {declared[name]}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

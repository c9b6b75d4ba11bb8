"""pugkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; pugkit is imported from ./src.
One process, one closed-loop client: jobs run one after another on the
calling thread, and `evaluate_error` keeps its default jobs=1.

Set-up draws the job list from --seed and serialises it; it is repeated
SETUP_REPEATS times and the median is `setup_s`.  The run then makes
passes over the list until --seconds have gone by and at least MIN_PASSES
have run.  Every job's outputs are checked against the ground truth from
set-up, and every pass must give the outputs of the first.

Job times are reported in reference units (ref): the job's wall time
divided by the time of `reference()`, a fixed pure-Python loop timed on
the same core just before and just after the job.  A shared machine slows
both alike, and its slow phases last seconds to minutes, so the ratio
stays put where seconds swing by half.  job_p50_ref and job_p80_ref are
taken over the times of every job run of every pass, and work_per_ref is
the median over the passes of the work done over the time taken.  The report also prints the same figures in
seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs pairs of an
untraced and a traced pass, in alternating order, prints per-layer metrics
per pass from the traced ones, and reports the traced/untraced time ratio
as tracing overhead; the traced passes must give the outputs of the
untraced ones.

The last line of stdout is the JSON result; everything above it is the
human-readable report.  Spans and the full result go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_JOBS = 50            # nearest-rank p80 then has >= 10 distinct jobs beyond it
TAIL_PCT = 80
JOB_LIMIT_S = 10.0       # in-process limit per job; a job past it has failed
DEFECT_LIMIT_S = 1.0     # limit for the known-defect probes
VALIDATION_SEED = 918273645   # only for confirming a claim, never for tuning
REF_LOOPS = 4000         # about 1.5 ms on a 2-core x86_64 machine

LAYERS = ("graphs", "structure", "labels", "bipartite", "geometric", "sketch", "cli")
TIMED_SPANS = (
    "graphs.parse_graph", "structure.chain_number", "structure.quasi_chain_number",
    "sketch.arboricity_scheme", "bipartite.labels", "geometric.labels",
    "labels.write_label_file", "labels.parse_label_file", "cli.write_decoder_file",
    "cli.parse_decoder_file", "cli.decode", "labels.check_exact", "sketch.build",
    "sketch.evaluate_error", "sketch.evaluate_error.compress",
    "sketch.evaluate_error.bloom", "sketch.evaluate_error.boosted",
    "sketch.derandomize", "sketch.verify", "sketch.naive_derandomize",
    "cli.write_sketch_file", "bench.job",
)
COUNTED = (
    ("structure.chain_number.calls", "structure.chain_number", "calls"),
    ("structure.quasi_chain_number.calls", "structure.quasi_chain_number", "calls"),
    ("cli.decode.pairs", "cli.decode", "pairs"),
    ("labels.check_exact.pairs", "labels.check_exact", "pairs"),
    ("sketch.evaluate_error.trials", "sketch.evaluate_error", "trials"),
    ("sketch.derandomize.attempts", "sketch.derandomize", "attempts"),
    ("sketch.verify.pairs", "sketch.verify", "pairs"),
)
# (metric, span, numerator counter): ratio of that counter to the calls
PER_CALL = (
    ("structure.chain_number.exact_frac", "structure.chain_number", "exact"),
    ("sketch.derandomize.first_try_frac", "sketch.derandomize", "first_try"),
    ("sketch.derandomize.copies", "sketch.derandomize", "copies"),
)


class Result(NamedTuple):
    seconds: float
    refs: float          # seconds over the reference time around the job
    out: dict | None
    err: str | None


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job time limit reached")


def reference() -> float:
    """Seconds taken by a fixed loop of dict, set and integer work: the
    yardstick that job times are divided by."""
    t0 = time.perf_counter()
    table, seen = {}, set()
    for i in range(REF_LOOPS):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + i
        if key & 1:
            seen.add((key, i & 15))
    return time.perf_counter() - t0


def execute(job, tracer, limit):
    """Run one job under the time limit; returns (seconds, outputs, error)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with tracer.job(job.id):
            out = job.run(job, tracer)
        err = None
    except Exception as e:  # a failed job is counted and the run goes on
        out, err = None, f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    if err is None:
        err = job.check(job, out)
    return dt, out, err


def run_pass(jobs, tracer):
    results = []
    before = reference()
    for job in jobs:
        dt, out, err = execute(job, tracer, JOB_LIMIT_S)
        after = reference()
        results.append(Result(dt, 2 * dt / (before + after), out, err))
        before = after
    return results


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def mismatches(jobs, first, second, wl):
    """Jobs whose outputs differ between two runs of one job list."""
    return [job.id for job, a, b in zip(jobs, first, second)
            if a.out is not None and b.out is not None
            and wl.outputs_key(a.out) != wl.outputs_key(b.out)]


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, jobs_per_pass, passes, numpy_version):
    return {
        "workload": args.workload, "seed": args.seed,
        "validation_seed": VALIDATION_SEED, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": jobs_per_pass, "passes": passes,
        "tail_percentile": TAIL_PCT,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def job_times(passes, field):
    """One Result field of every job run in the passes."""
    return [getattr(r, field) for results in passes for r in results]


def end_to_end(setup_times, passes):
    """The metrics in reference units, and the same ones in seconds."""
    values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb()}
    for field, unit in (("refs", "ref"), ("seconds", "s")):
        times = job_times(passes, field)
        values[f"job_p50_{unit}"] = statistics.median(times)
        values[f"job_p{TAIL_PCT}_{unit}"] = percentile(times, TAIL_PCT)
        values[f"work_per_{unit}"] = statistics.median(
            sum(r.out["work"] for r in results if r.err is None)
            / sum(getattr(r, field) for r in results) for results in passes)
    return values


def per_layer(tracer, spans_mod, n_passes, traced, untraced, defect_results, n_jobs):
    regular = spans_mod.summarize(tracer, lambda sp: not sp.job.startswith("defect"))
    defects = spans_mod.summarize(tracer, lambda sp: sp.job.startswith("defect"))
    m, base = {}, {}
    for name in TIMED_SPANS:
        m[f"{name}.s"] = regular[name]["s"] / n_passes if name in regular else 0.0
    for metric, name, counter in COUNTED:
        row = regular.get(name)
        val = 0 if row is None else (row["calls"] if counter == "calls"
                                     else row["counts"][counter])
        m[metric] = val / n_passes
    for metric, name, counter in PER_CALL:
        row = regular.get(name)
        num = 0 if row is None else row["counts"][counter]
        calls = 0 if row is None else row["calls"]
        m[metric] = num / calls if calls else 0.0
        base[metric] = f"{num}/{calls} calls"
    for layer in LAYERS:
        reg = sum(r["errors"] for k, r in regular.items()
                  if k.split(".", 1)[0] == layer and k.count(".") == 1)
        dfc = sum(r["errors"] for k, r in defects.items()
                  if k.split(".", 1)[0] == layer and k.count(".") == 1)
        m[f"{layer}.errors"] = reg / n_passes + dfc
        base[f"{layer}.errors"] = f"{reg} in {n_passes} traced passes, {dfc} in known-defect probes"
    bits = [r.out["bits"] for results in traced for r in results
            if r.err is None and "bits" in r.out]
    m["label_bits_mean"] = statistics.fmean(bits) if bits else 0.0
    failed = sum(r.err is not None for results in traced for r in results)
    failing = sum(r.err is not None for r in defect_results)
    m["fail_frac"] = (failed / n_passes + failing) / (n_jobs + len(defect_results))
    base["fail_frac"] = (f"({failed}/{n_passes} failed per pass + {failing} known-defect) / "
                         f"({n_jobs} jobs + {len(defect_results)} probes)")
    m["defects.failing"] = failing
    base["defects.failing"] = f"of {len(defect_results)} known-defect probes"
    t_traced = sum(r.refs for results in traced for r in results)
    t_untraced = sum(r.refs for results in untraced for r in results)
    m["trace.overhead_pct"] = 100 * (t_traced / t_untraced - 1)
    base["trace.overhead_pct"] = f"traced {t_traced:.0f} ref vs untraced {t_untraced:.0f} ref"
    m["trace.spans"] = sum(1 for sp in tracer.spans if not sp.job.startswith("defect")) / n_passes
    job_s = sum(r["s"] for k, r in regular.items() if k.count(".") == 1) / n_passes
    for name in TIMED_SPANS:
        base[f"{name}.s"] = f"{100 * m[f'{name}.s'] / job_s:.1f}% of {job_s:.3f}s traced job time per pass"
    return m, base


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "pugkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a pugkit checkout ({src}/pugkit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import pugkit

    if Path(pugkit.__file__).resolve().parent != (src / "pugkit").resolve():
        print(f"error: pugkit imported from {pugkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = wl.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    null = spans.NullTracer()
    tracer = spans.Tracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        jobs = wl.build(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    if len(jobs) < MIN_JOBS:
        print(f"error: {len(jobs)} jobs, p{TAIL_PCT} needs {MIN_JOBS}", file=sys.stderr)
        return 2
    # the job list lives through the run; frozen, the collector skips it
    gc.collect()
    gc.freeze()

    untraced, traced, diverged, failures = [], [], set(), []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(untraced) % 2:
            # every other pair runs traced first, so drift does not bias the overhead
            traced.append(run_pass(jobs, tracer))
            untraced.append(run_pass(jobs, null))
        else:
            untraced.append(run_pass(jobs, null))
            if args.trace:
                traced.append(run_pass(jobs, tracer))
        for results in (untraced[-1], *traced[-1:]):
            failures += [(job.id, r.err) for job, r in zip(jobs, results)
                         if r.err is not None]
            diverged.update(mismatches(jobs, untraced[0], results, wl))
        if time.perf_counter() - t_start >= args.seconds and len(untraced) >= MIN_PASSES:
            break
    elapsed = time.perf_counter() - t_start
    defects = wl.defects(args.workload, args.seed)
    diverged = sorted(diverged)
    defect_results = [Result(dt, 0.0, out, err) for dt, out, err in
                      (execute(d, tracer if args.trace else null, DEFECT_LIMIT_S)
                       for d in defects)]

    attempted = len(jobs) * (len(untraced) + len(traced))
    correct = not failures and not diverged
    prov = provenance(args, len(jobs), len(untraced), numpy.__version__)

    report = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
              f"passes={len(untraced)}{' untraced + traced' if args.trace else ''} "
              f"jobs/pass={len(jobs)} attempted={attempted} failed={len(failures)} "
              f"elapsed={elapsed:.1f}s"]
    if args.trace:
        values, bases = per_layer(tracer, spans, len(traced), traced, untraced,
                                  defect_results, len(jobs))
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup_times, untraced)
        declared = spec["end_to_end"]
        n_passes = len(untraced)
        times = job_times(untraced, "refs")
        beyond = sum(t > values[f"job_p{TAIL_PCT}_ref"] for t in times)
        bits = [r.out["bits"] for results in untraced for r in results
                if r.err is None and "bits" in r.out]
        failing = sum(r.err is not None for r in defect_results)
        ref_s = statistics.median(r.seconds / r.refs for results in untraced for r in results)
        bases = {
            "setup_s": f"median of {len(setup_times)} job-list builds",
            "job_p50_ref": f"median of {len(times)} job times ({len(jobs)} jobs x "
                           f"{n_passes} passes); 1 ref ~ {ref_s * 1e3:.2f} ms here",
            f"job_p{TAIL_PCT}_ref": f"job_tail: nearest-rank p{TAIL_PCT} of the same "
                                    f"{len(times)} job times, {beyond} beyond it",
            "work_per_ref": f"{workload.rate_unit.split('/')[0]} per ref: median over "
                            f"{n_passes} passes of work done over job time",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        extra = [
            ("job_p50_s", values["job_p50_s"], "s"),
            (f"job_p{TAIL_PCT}_s", values[f"job_p{TAIL_PCT}_s"], "s"),
            (workload.rate_name, values["work_per_s"], workload.rate_unit),
            ("fail_frac", len(failures) / attempted,
             f"({len(failures)}/{attempted} jobs; known defects still failing: "
             f"{failing}/{len(defect_results)})"),
        ]
        if bits:
            extra.append(("label_bits_mean", statistics.fmean(bits),
                          f"bits (mean output width over {len(bits)} jobs)"))
        report += [f"  {name:<40} {val:.6g} {unit}" for name, val, unit in extra]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} declared in BENCHMARK.json is not measured",
                  file=sys.stderr)
            return 2
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        report.append(f"  {name:<40} {values[name]:.6g} {entry['unit']}"
                      + (f"  [{bases[name]}]" if name in bases else ""))
    for job_id, err in failures[:10]:
        report.append(f"  FAILED {job_id}: {err}")
    for job_id in diverged[:10]:
        report.append(f"  DIVERGED {job_id}: outputs differ from the first pass")
    for d, r in zip(defects, defect_results):
        report.append(f"  known defect {d.id}: "
                      f"{'still failing: ' + r.err if r.err else 'passes'}")
    report.append("provenance " + json.dumps(prov))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics,
         "failures": failures, "diverged": diverged}, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT / f"spans-{stem}.jsonl", t_start)

    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

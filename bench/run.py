#!/usr/bin/env python3
"""hmogkit benchmark: the paper's batch experiments, timed end to end.

    python3 bench/run.py --workload auth|sweep|keygen [--seed 7]
                         [--seconds 35] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``. Each
invocation is one workload in one fresh process. It synthesizes the
workload's corpus several times (set-up), then calls the experiment runner
in-process on the last corpus, again and again while the next call is
expected to end within ``--seconds``, at least once: a closed loop with one
caller. The corpora are smaller than the package's default one, so that a
run makes several calls.

A shared host's speed drifts by a quarter and more within a minute, which
moves every wall time with it. So right before and after each call the run
times a fixed reference computation (NumPy calls and Python loops, no
hmogkit code, the same for every seed and version) in the same process, and
run_ref is the median over the calls of call time / mean of the two
reference times: the call's cost in units of the reference, which a change
to the package moves and the host's drift largely does not. The wall times
are printed beside it.

The users are fixed per workload (profiles drawn with seed 7, as in the
default corpus) and ``--seed`` draws their recordings, so every seed feeds
the runner about the same amount of work. Every call writes its outputs to
``.bench_out/<workload>/out``; each file is hashed and compared with the
digests in ``bench/digests.json`` (recorded for seeds 0-20 from the code the
benchmark was written against) and checked for internal consistency (EERs
recomputed from the score files). For a seed with no recorded digests the
digests are printed, so two versions can be compared on a held-out seed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the calls run with every layer wrapped (see bench/layertrace.py)
and the last line reports the per-layer metrics, while the spans go to
``.bench_out/<workload>/trace_seed<seed>.jsonl``. Metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ".bench_out"
SETUP_REPS = 5
WORKLOADS = ("auth", "sweep", "keygen")
# Profiles drawn from the run's seed would change the users' tap rates, and
# with them the total tap count and run_s, by about 6 % from seed to seed.
PROFILE_SEED = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def workload_config(name: str, seed: int, out_dir: str):
    """The experiment config of each workload; all run single-threaded."""
    from hmogkit.experiments import ExperimentConfig, run_auth, run_bkg, run_rate_sweep
    if name == "auth":
        # 3 users x 4 sessions x 300 s, sitting, all four channels, 60 s
        # scans, fusion grid step 0.05 (1771 points)
        return run_auth, ExperimentConfig(n_users=3, seed=seed, out_dir=out_dir)
    if name == "sweep":
        # 2 users x 4 sessions x 300 s, hmog only, downsample factors
        # 1,2,6,20; shorter sessions leave some users under the 80 training
        # vectors needed at factor 20 for some seeds
        return run_rate_sweep, ExperimentConfig(n_users=2, seed=seed, out_dir=out_dir)
    # 12 users x 4 sessions x 60 s, code (13,10,29), 2 s unlock probes
    return run_bkg, ExperimentConfig(n_users=12, session_seconds=60.0,
                                     bkg_scan_seconds=2.0, seed=seed,
                                     out_dir=out_dir)


def synthesize(config):
    """The workload's sessions: users from PROFILE_SEED, recordings from
    config.seed. Reaches the generator through the experiments module, where
    the traced run wraps make_corpus."""
    from hmogkit import experiments
    profiles = experiments.make_profiles(
        config.n_users, config.condition, PROFILE_SEED,
        sessions=config.sessions, session_seconds=config.session_seconds)
    return experiments.make_corpus(profiles, config.seed)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def machine_record(load_at_start) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "loadavg_at_start": list(load_at_start),
    }


# ---------------------------------------------------------------------------
# host speed reference
# ---------------------------------------------------------------------------

def make_reference():
    """A fixed computation with the package's mix of small NumPy calls and
    Python loops, built from its own seed; one call takes 0.2-0.4 s on a
    2-core Xeon."""
    import numpy as np
    rng = np.random.default_rng(0)
    block = rng.random((400, 50))
    values = [float(v) for v in rng.random(4000)]

    def reference() -> float:
        acc = 0.0
        for k in range(1000):
            row = block[k % 400]
            acc += float(np.mean(np.sort(block, axis=0)[200])) + float(np.std(row))
            acc += float(np.cumsum(row)[-1])
            acc += sum(v * v for v in values[:2000]) + len(sorted(values[k:k + 800]))
        return acc

    reference()                  # first-call costs are not timed
    return reference


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def output_digests(out: Path, out_dir: str) -> dict[str, str]:
    """sha256 of every file the runner wrote; summary.json embeds the
    output directory, which is blanked before hashing."""
    digests = {}
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            field = f'"out_dir": {json.dumps(out_dir)}'.encode()
            if data.count(field) != 1:
                raise ValueError("summary.json does not record out_dir once")
            data = data.replace(field, b'"out_dir": null')
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def digest_problems(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = [f"{name}: missing" for name in sorted(set(want) - set(got))]
    problems += [f"{name}: not in the recorded outputs"
                 for name in sorted(set(got) - set(want))]
    problems += [f"{name}: bytes differ from the recorded digest"
                 for name in sorted(set(got) & set(want)) if got[name] != want[name]]
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:] if ln]


def eer_oracle(genuine, impostor) -> float:
    """EER by evaluating FAR and FRR at every pooled score, plus a threshold
    below all of them, and interpolating where FAR first reaches FRR."""
    import numpy as np
    gen, imp = np.asarray(genuine), np.asarray(impostor)
    th = np.unique(np.concatenate([gen, imp]))
    far = [0.0] + [float(np.count_nonzero(imp <= t)) / len(imp) for t in th]
    frr = [1.0] + [float(np.count_nonzero(gen > t)) / len(gen) for t in th]
    for k in range(len(far)):
        d = far[k] - frr[k]
        if d == 0.0 or (d > 0.0 and k == 0):
            return 0.5 * (far[k] + frr[k])
        if d > 0.0:
            t = (frr[k - 1] - far[k - 1]) / ((far[k] - far[k - 1]) - (frr[k] - frr[k - 1]))
            return far[k - 1] + t * (far[k] - far[k - 1])
    return 0.5 * (far[-1] + frr[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def consistency_problems(name: str, out: Path) -> list[str]:
    """Checks that hold for any seed: reported EERs agree with the score
    files they summarize and with summary.json."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    problems = []
    if name == "auth":
        rows = _read_csv(out / "eer.csv")
        if not rows:
            problems.append("eer.csv: no rows")
        for scan, channel, value, n_gen, n_imp in rows:
            scores = _read_csv(out / f"scores_{channel}_{scan}s.csv")
            gen = [float(r[4]) for r in scores if r[0] == "genuine"]
            imp = [float(r[4]) for r in scores if r[0] == "impostor"]
            if (len(gen), len(imp)) != (int(n_gen), int(n_imp)):
                problems.append(f"eer.csv: {channel} {scan}s counts disagree with its score file")
            elif not _close(eer_oracle(gen, imp), float(value)):
                problems.append(f"eer.csv: {channel} {scan}s EER disagrees with its score file")
            entry = summary["scans"][scan]
            cell = entry["fused"] if channel == "fused" else entry["channels"][channel]
            if cell["eer"] != float(value):
                problems.append(f"summary.json: {channel} {scan}s EER disagrees with eer.csv")
    elif name == "sweep":
        rows = _read_csv(out / "sweep.csv")
        if [int(r[0]) for r in rows] != [1, 2, 6, 20]:
            problems.append("sweep.csv: expected one row per factor 1,2,6,20")
        for factor, rate, scan, value, *_ in rows:
            cell = summary["factors"][factor]
            if not _close(float(rate), 100.0 / int(factor)) or cell["rate_hz"] != float(rate):
                problems.append(f"sweep.csv: factor {factor} reports rate {rate}")
            if not 0.0 <= float(value) <= 1.0 or cell["scans"][scan]["eer"] != float(value):
                problems.append(f"sweep.csv: factor {factor} EER {value} is out of range "
                                "or disagrees with summary.json")
    else:
        rows = _read_csv(out / "bkg.csv")
        if [r[0] for r in rows] != ["hmog"]:
            problems.append("bkg.csv: expected one hmog row")
        for channel, value, far, frr, *_ in rows:
            report = summary["channels"][channel]
            if not (0.0 <= float(far) <= 1.0 and 0.0 <= float(frr) <= 1.0
                    and _close(float(value), (float(far) + float(frr)) / 2)):
                problems.append(f"bkg.csv: {channel} FAR/FRR/EER are inconsistent")
            if (report["far"], report["frr"]) != (float(far), float(frr)):
                problems.append(f"summary.json: {channel} FAR/FRR disagree with bkg.csv")
    return problems


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "hmogkit" / "__init__.py").is_file():
        print(f"error: no hmogkit package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import layertrace as tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    want = recorded.get(args.workload, {}).get(str(args.seed))

    machine = machine_record(load_at_start)
    print("machine", json.dumps(machine, sort_keys=True), flush=True)

    out_dir = f"{OUT}/{args.workload}/out"
    out = ROOT / out_dir
    runner, config = workload_config(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer(args.workload)
    if args.trace:
        tracer.install()

    setup_s, sessions = [], None
    for rep in range(SETUP_REPS):
        tracer.rep = rep
        sessions = None          # the previous corpus is freed before the next
        t0 = time.perf_counter()
        sessions = (tracer.call(tracing.SETUP, synthesize, config) if args.trace
                    else synthesize(config))
        setup_s.append(time.perf_counter() - t0)

    reference = make_reference()
    run_s, run_ref, ref_s, failed, attempted, notes = [], [], [], 0, 0, []
    ref_s.append(timed(reference))
    began = time.perf_counter()
    cycle = 0.0
    while attempted == 0 or time.perf_counter() - began + cycle <= args.seconds:
        cycle_start = time.perf_counter()
        tracer.rep = attempted
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()             # the previous call's garbage is not timed
        t0 = time.perf_counter()
        try:
            if args.trace:
                tracer.call(tracing.RUN, runner, config, sessions)
            else:
                runner(config, sessions)
        except Exception:
            traceback.print_exc()
            call_s = None
        else:
            call_s = time.perf_counter() - t0
        ref_s.append(timed(reference))
        if call_s is None:
            failed += 1
            notes.append(f"call {attempted}: runner raised")
            cycle = time.perf_counter() - cycle_start
            continue
        run_s.append(call_s)
        run_ref.append(call_s / ((ref_s[-2] + ref_s[-1]) / 2))
        try:
            digests = output_digests(out, out_dir)
            problems = consistency_problems(args.workload, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, digests = [f"outputs unreadable: {exc!r}"], {}
        if want is None and attempted == 1:
            print("digests", json.dumps({args.workload: {str(args.seed): digests}},
                                        sort_keys=True), flush=True)
        elif want is not None:
            problems += digest_problems(digests, want)
        if problems:
            failed += 1
            notes += [f"call {attempted}: {p}" for p in problems]
        cycle = time.perf_counter() - cycle_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    correct = failed == 0
    if args.trace:
        values, missing, problems = tracing.layer_metrics(tracer, tracing.span_overhead_s())
        if missing:
            print("missing", json.dumps(missing), flush=True)
        if problems:
            correct = False
            notes += problems
        trace_path = out.parent / f"trace_seed{args.seed}.jsonl"
        tracer.write(trace_path, {"machine": machine, "workload": args.workload,
                                  "seed": args.seed, "setup_s": setup_s, "run_s": run_s})
        print("trace", trace_path.relative_to(ROOT), flush=True)
    else:
        values = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb}
        if run_ref:
            values["run_ref"] = statistics.median(run_ref)
        for name, samples in (("run_ref", run_ref), ("run_s", run_s),
                              ("reference_s", ref_s), ("setup_s", setup_s)):
            line = f"{name} n={len(samples)}"
            if samples:
                line += f" median={statistics.median(samples)!r}"
            if len(samples) > 10:
                # the highest percentile with at least ten samples beyond it
                n = len(samples)
                line += f" p{100 * (n - 10) / n:.1f}={sorted(samples)[n - 11]!r}"
            print(line, "samples", json.dumps(samples), flush=True)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        correct = False
        notes.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for note in notes:
        print("FAIL", note, flush=True)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

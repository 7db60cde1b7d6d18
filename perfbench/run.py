#!/usr/bin/env python3
"""logtan benchmark: three closed-loop workloads with one client each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact|project|cli --seed N \\
        --seconds S --trace 0|1 [--domain checked|full]

The program is ``src/logtan`` of the same checkout, used as a black box: the
``exact`` and ``project`` workloads call its public API in this process, the
``cli`` workload runs ``python -m logtan.cli`` once per request.  Inputs come
from ``inputs.py`` as whole pairs of decks (see there); a new pair starts
only while the run is expected to end within ``--seconds``.  Each operation's output is
checked against an independent reference after its timing stops
(``checks.py``); a failed check counts the operation as failed.  The inputs
come from the ``checked`` domain unless ``--domain full`` adds the ones on
which the current program is known to miss (see ``inputs.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one warm-up deck, then half the time untraced, then replays the same
inputs with the wrappers of ``tracing.py`` installed, and reports the
per-layer metrics.  The last
line of standard output is the JSON result; a fuller record, with the input
properties and the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import inputs  # noqa: E402  (pure stdlib; does not import logtan)

SETUP_PROBES = 8
CLI_STARTUP_PROBES = 7
# The tail percentile of each workload: the highest of p50/p75/p90/p95/p99
# that kept at least 10 samples beyond it in every 30-second run measured on
# a 2-core machine.  It is fixed, so that runs of different length compare the same
# percentile; the samples beyond it are recorded with it.
TAIL_PERCENTILE = {"exact": 75, "project": 75, "cli": 90}
CLI_SUBS = ("exact", "project", "quad", "constants", "verify", "usage_error")
# A seed kept out of development, for re-checking a claimed gain on fresh inputs.
HOLDOUT_SEED = 90_210
# Fixed for the benchmark and every child.  A random string hash moved whole
# runs by several percent.  Without bytecode files every run, and every CLI
# request, compiles logtan from source, as the first run in a fresh checkout
# does, so no run depends on what ran before it.
FIXED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    """Environment for child processes: the checkout's source first, no level cap."""
    env = {k: v for k, v in os.environ.items() if k != "LOGTAN_MAX_LEVELS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def locate_program() -> None:
    if not (SRC / "logtan" / "__init__.py").is_file():
        raise BenchError(f"no logtan package under {SRC}")
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Set-up: import, input generation and warm-up of process-wide tables.


@dataclass
class State:
    workload: str
    seed: int
    domain: str
    setup_s: float
    first_deck: list


def setup(workload: str, seed: int, domain: str) -> State:
    t0 = time.perf_counter()
    import logtan
    import checks  # noqa: F401  (imports mpmath for the references)
    import ops

    if not Path(logtan.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported logtan from {logtan.__file__}, not from {SRC}")
    first_deck = inputs.deck(workload, seed, 0, domain)
    # Node tables of the quadrature, and the zeta memo up to the series' terms.
    spec = logtan.FunctionSpec
    for f in (spec.sqrt(), spec.logtan_power(2)):
        logtan.integrate_logtan(f, tol=1e-13)
    for s in range(2, 2 * ops.SERIES_TERMS + 2):
        logtan.zeta_int(s)
    if workload == "cli":
        ops.cli_op(["constants", "catalan"], child_env(), str(ROOT))
    return State(workload, seed, domain, time.perf_counter() - t0, first_deck)


def probe_setups(workload: str, seed: int, domain: str, count: int) -> list[float]:
    """Set-up time of ``count`` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
             "--seed", str(seed), "--domain", domain],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# Measurement


def clear_caches() -> None:
    """Empty the program's lru caches, so two passes start from the same state."""
    from logtan import core, projection

    for module, name in ((core, "shifted_legendre"), (core, "euler_poly"),
                         (core, "euler_poly_scaled"), (projection, "_legendre_spec"),
                         (projection, "_legendre_L_value")):
        fn = getattr(module, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def run_one(state: State, index: int, item: dict, tracer=None, shim_dir=None,
            child_records=None) -> dict:
    import checks
    import ops

    w = state.workload
    if w == "cli":
        shim = None
        if shim_dir is not None:
            spans_file = shim_dir / f"op{index}.json"
            shim = [str(HERE / "shim.py"), str(spans_file)]
        call = (ops.cli_op, item["argv"], child_env(), str(ROOT), shim)
    else:
        call = ({"exact": ops.exact_op, "project": ops.project_op}[w], item)
    error = None
    out = None
    t0 = time.perf_counter()
    try:
        out = tracer.run_op(index, *call) if tracer else call[0](*call[1:])
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if shim_dir is not None and spans_file.is_file():
        rec = json.loads(spans_file.read_text(encoding="utf-8"))
        rec["spans"] = [[sid, parent, index, name, a, b]
                        for sid, parent, _, name, a, b in rec["spans"]]
        child_records.append(rec)
        spans_file.unlink()
    if error is None:
        try:
            error = checks.check(w, item, out)
        except Exception as exc:  # a reference that cannot be formed is a miss too
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"latency": latency, "failed": error, "item": item}


def run_pass(state: State, seconds: float | None, decks: int | None = None,
             between=None, **traced) -> tuple[list[dict], int]:
    """Whole pairs of decks, stopping at the pair boundary nearest to ``seconds``.

    The two decks of a pair sit at opposite ends of every size stratum, so a
    run of whole pairs has the same mix of sizes however many pairs fit.
    With ``decks`` given, runs exactly that many instead.  ``between`` is
    called after every deck; its time does not count towards ``seconds``.
    """
    records: list[dict] = []
    start = time.perf_counter()
    k = 0
    while True:
        deck = (state.first_deck if k == 0
                else inputs.deck(state.workload, state.seed, k, state.domain))
        for item in deck:
            records.append(run_one(state, len(records), item, **traced))
        if between is not None:
            paused = time.perf_counter()
            between()
            start += time.perf_counter() - paused
        k += 1
        if decks is not None:
            if k >= decks:
                break
        elif k % 2 == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / k > seconds:  # half a pair's mean wall time
                break
    return records, k


def quantile(latencies: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted average of all order statistics.  Latencies here span three
    orders of magnitude, so the single order statistic at a rank jumps when
    noise swaps two neighbours; the weighted average does not.
    """
    import mpmath

    xs = sorted(latencies)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cdf = float(mpmath.betainc(a, b, 0, i / n, regularized=True))
        total += (cdf - below) * x
        below = cdf
    return total


def tail(latencies: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile and the number of samples beyond its rank."""
    n = len(latencies)
    return quantile(latencies, p / 100), n - max(1, math.ceil(p / 100 * n))


def peak_rss_mb(workload: str) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(state: State, records: list[dict], setup_samples: list[float]) -> tuple:
    lat = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["failed"])
    p = TAIL_PERCENTILE[state.workload]
    value, beyond = tail(lat, p)
    metrics = {
        "ops_per_s": len(lat) / math.fsum(lat),
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": value,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(state.workload),
    }
    extra = {
        "fail_ratio": failed / len(records),
        "latency_tail_percentile": p,
        "latency_tail_beyond": beyond,
        "latency_samples": len(lat),
        "setup_samples_s": setup_samples,
    }
    return metrics, extra


def startup_times() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and the extra for ``import logtan.cli``."""
    bare, full = [], []
    for _ in range(CLI_STARTUP_PROBES):
        for code, sink in (("pass", bare), ("import logtan.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=str(ROOT),
                           check=True, timeout=60)
            sink.append(time.perf_counter() - t0)
    return statistics.median(bare), statistics.median(full) - statistics.median(bare)


def traced_run(state: State, seconds: float) -> tuple:
    import tracing

    # One discarded deck first, so that both timed passes run in a warm process
    # (the first deck of a fresh process is slower, with or without tracing).
    run_pass(state, None, 1)
    clear_caches()
    untraced, decks = run_pass(state, seconds / 2)
    clear_caches()
    child_records: list[dict] = []
    if state.workload == "cli":
        shim_dir = RESULTS / f"shim-{os.getpid()}"
        shim_dir.mkdir(parents=True, exist_ok=True)
        try:
            traced, _ = run_pass(state, None, decks, shim_dir=shim_dir,
                                 child_records=child_records)
        finally:
            shutil.rmtree(shim_dir, ignore_errors=True)
        record = tracing.merge(child_records)
    else:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced, _ = run_pass(state, None, decks, tracer=tracer)
        finally:
            tracing.uninstall(restore)
        record = tracer.record()
    metrics = per_layer(record, untraced, traced, startup_times())
    return untraced + traced, metrics, record["spans"]


def per_layer(record: dict, untraced: list[dict], traced: list[dict],
              startup: tuple[float, float]) -> dict:
    """Per-layer metrics from a traced pass, the untraced pass of the same inputs,
    and the interpreter start-up times."""
    import tracing

    metrics = tracing.layer_metrics(record, len(traced))
    metrics["trace.overhead_ratio"] = (math.fsum(r["latency"] for r in traced)
                                       / math.fsum(r["latency"] for r in untraced))
    metrics["cli.interpreter_s"], metrics["cli.import_s"] = startup
    for sub in CLI_SUBS:
        lat = [r["latency"] for r in untraced if r["item"].get("sub") == sub]
        metrics[f"cli.{sub}.p50_s"] = statistics.median(lat) if lat else 0.0
    return metrics


# ---------------------------------------------------------------------------
# Environment and output


def environment() -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "LOGTAN_MAX_LEVELS": "unset",
        **{k: os.environ.get(k, "unset") for k in FIXED_ENV},
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def emit(spec: dict, section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="logtan benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--domain", choices=inputs.DOMAINS, default="checked",
                        help="'full' adds the inputs with known misses")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("LOGTAN_MAX_LEVELS", None)

    try:
        spec = load_spec()
        locate_program()
        if args.probe_setup:
            print(json.dumps({"setup_s": setup(args.workload, args.seed,
                                               args.domain).setup_s}))
            return 0
        state = setup(args.workload, args.seed, args.domain)
        if args.trace:
            records, values, spans = traced_run(state, args.seconds)
            metrics, extra = emit(spec, "per_layer", values), {}
        else:
            # The fresh-interpreter set-ups run one after each deck, and the
            # rest after the run, so that they sample the machine over the
            # whole run rather than over a few seconds.
            setup_samples = [state.setup_s]

            def probe():
                if len(setup_samples) <= SETUP_PROBES:
                    setup_samples.extend(probe_setups(args.workload, args.seed,
                                                      args.domain, 1))

            records, _ = run_pass(state, args.seconds, between=probe)
            setup_samples += probe_setups(args.workload, args.seed, args.domain,
                                          SETUP_PROBES + 1 - len(setup_samples))
            values, extra = end_to_end(state, records, setup_samples)
            metrics, spans = emit(spec, "end_to_end", values), None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [{"input": r["item"], "reason": r["failed"]} for r in records if r["failed"]]
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "domain": args.domain, "holdout_seed": HOLDOUT_SEED,
        "environment": environment(),
        "inputs": inputs.input_properties(args.workload, [r["item"] for r in records]),
        "extra": extra, "result": result, "failures": failures,
        "ops": [[inputs.size_of(args.workload, r["item"]), r["latency"]] for r in records],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.domain}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if spans is not None:
        import tracing

        tracing.write_spans(RESULTS / f"spans-{stem}.jsonl", spans)

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{args.workload} {name} {value}")
    for f in failures[:20]:
        print(f"{args.workload} FAILED {json.dumps(f['input'])[:160]} :: {f['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.environ.update(FIXED_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())

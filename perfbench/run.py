"""Layered benchmark for amalgam: one command, four workloads.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` runs the deck in a closed loop for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` is a separate run that wraps
every layer's public functions (see ``tracer.py``) and prints the per-layer
metrics.  Every answer is checked.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; lines above it
give each metric by name with its unit, and the run's metadata.  A full
record, and the spans of a traced run, go to ``.bench_out/``.

End-to-end metrics (untraced run).  The loop makes whole passes over the
deck, at least one, until ``--seconds`` have gone by.  Other tenants of a
shared machine slow it in spells, so every time below is scaled to a
reference machine speed: a fixed calibration chunk runs between ops
(``speed.py``), and each sample is scaled by the median speed of the chunks
run around it.  Each deck op's latency and CPU time is then the median of
its scaled samples over the passes.  The unscaled medians, and the least
unscaled samples, are kept in the metadata as ``raw``.

* ``ops_per_s``: deck ops per second of their summed latencies (the
  benchmark's own answer checks run outside the op's clock).
* ``latency_p50_ms``, ``latency_tail_ms``: median of the deck ops'
  latencies, and the value at the highest percentile with 10 values beyond
  it (the 11th largest); the percentile and count are in the metadata.
* ``cpu_ms_per_op``: mean process CPU time per op.
* ``setup_s``: median of 24 cold set-ups in fresh interpreters, half before
  the loop and half after it (imports, ``make_instance`` and
  ``standard_hom`` for the workload's configs), each scaled like an op.
* ``peak_rss_mib``: peak resident memory of this process.

The ``cli`` ops call ``amalgam.cli.main`` in this process, with its output
captured.  A cold ``python -m amalgam.cli`` child spends most of its time
starting the interpreter; on a shared 2-vCPU Xeon virtual machine that
swung by a third between runs.  The cold imports are timed by ``setup_s``
and, against a bare interpreter, by the traced run's ``cli.import_ms``.

An op fails if it raised, answered wrongly, printed a traceback, exited with
an undocumented code or ran past its time limit; ``failed``/``attempted`` is
the run's failed share, also printed as ``failed_frac``.

Per-layer metrics (traced run, not scaled): ``*_ms`` are milliseconds per
op; counts are per pass over the deck, which is the same work on every pass,
so they repeat exactly for a seed.  ``trace.overhead_frac`` is 1 minus the
traced ops/s over the ops/s of an untraced replay of the same passes in the
same run.  The ``cli`` traced run also times a cold ``import amalgam.cli``
against a bare interpreter, and runs the hostile inputs (huge prime, deep
nesting, negative or huge witness arguments) once each, as cold children
under the time limit.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from speed import Speed  # noqa: E402

SETUP_REPEATS = 12  # before the loop, and again after it
TRACED_SHARE = 0.6
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "normalform.reduce_word.self_ms": "ms",
    "normalform.syllables": "count",
    "normalform.mul.self_ms": "ms",
    "normalform.mul.calls": "count",
    "normalform.inv.calls": "count",
    "normalform.forms_equal.calls": "count",
    "normalform.max_nesting": "count",
    "normalform.letters_out": "count",
    "normalform.self_ms": "ms",
    "instances.calls": "count",
    "instances.self_ms": "ms",
    "instances.setup_ms": "ms",
    "kernels.calls": "count",
    "kernels.self_ms": "ms",
    "kernels.add_per_s": "1/s",
    "kernels.mul_per_s": "1/s",
    "kernels.coset_split_per_s": "1/s",
    "padic.allocs": "count",
    "padic.self_ms": "ms",
    "oracle.calls": "count",
    "oracle.syllables": "count",
    "oracle.self_ms": "ms",
    "wordexpr.parse_bytes": "bytes",
    "wordexpr.parse_ms": "ms",
    "wordexpr.lower_syllables": "count",
    "wordexpr.lower_ms": "ms",
    "wordexpr.format_bytes": "bytes",
    "wordexpr.format_ms": "ms",
    "wordexpr.self_ms": "ms",
    "homs.eval_calls": "count",
    "homs.eval_ms": "ms",
    "homs.setup_ms": "ms",
    "homs.self_ms": "ms",
    "witnesses.generate_ms": "ms",
    "witnesses.verify_self_ms": "ms",
    "witnesses.cert_bytes": "bytes",
    "witnesses.rejected": "count",
    "witnesses.self_ms": "ms",
    "suites.self_ms": "ms",
    "suites.samples": "count",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.exit_mismatch": "count",
    "cli.hostile_failed": "count",
    "cli.self_ms": "ms",
    "runtime.gc_ms": "ms",
    "runtime.gc_collections": "count",
    "bench.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_frac": "frac",
}

# Layers with a self time; with runtime.gc_ms they partition the op time.
LAYERS = ("kernels", "padic", "instances", "normalform", "oracle", "wordexpr",
          "homs", "witnesses", "suites", "cli", "bench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- workloads ---------------------------------------------------------------


def workload_spec(name):
    """(configs, per-op time limit in seconds) of a workload."""
    from inputs import INSTANCES, SUITE_CONFIGS
    from workloads import CLI_LIMIT_S

    return {
        "words": (INSTANCES, 10.0),
        "suite": (SUITE_CONFIGS, 10.0),
        "certs": (INSTANCES, 20.0),
        "cli": (INSTANCES, CLI_LIMIT_S),
    }[name]


def build_deck(name, seed, env):
    import workloads as W

    if name == "words":
        return W.words_deck(seed, env)
    if name == "suite":
        return W.suite_deck(seed, env)
    if name == "certs":
        return W.certs_deck(seed, env)
    cert_dir = os.path.join(OUT, f"cli-seed{seed}")
    os.makedirs(cert_dir, exist_ok=True)
    return W.cli_ops(W.cli_calls(seed, env, cert_dir))


def setup_times(configs, count, warm_up, speed):
    """(wall time, speed mark) of ``count`` cold set-ups, each in a fresh
    interpreter, with a speed sample after each."""
    from workloads import spawn

    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
            json.dumps(configs)]
    times = []
    for i in range(count + warm_up):
        code, out, err, _, _ = spawn(argv, env, 120.0)
        if code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {err}")
        if i >= warm_up:  # a warm-up probe also writes the bytecode caches
            times.append((float(out), speed.sample()))
    return times


# -- the closed loop -------------------------------------------------------------


class Outcome:
    """Latency and CPU samples of each deck slot, the speed mark of each
    sample in an untraced run, and the failures."""

    def __init__(self, slots):
        self.lat = [[] for _ in range(slots)]
        self.cpu = [[] for _ in range(slots)]
        self.marks = [[] for _ in range(slots)]
        self.labels = [None] * slots
        self.failures = {}

    def record(self, slot, op, dt, cpu, err):
        self.lat[slot].append(dt)
        self.cpu[slot].append(cpu)
        self.labels[slot] = op.label
        if err is not None:
            key = f"{op.label}: {err}"
            self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def attempted(self):
        return sum(len(v) for v in self.lat)

    @property
    def failed(self):
        return sum(self.failures.values())

    def total_s(self):
        return sum(sum(v) for v in self.lat)


def run_op(op, slot, limit_s, outcome, tracer=None):
    """Time one op, then check its answer outside the op's clock and span."""
    frame = tracer.begin_op(slot) if tracer is not None else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res, err = op.run(), None
    except Exception as exc:  # a raised op is a failed answer, not a crash
        res, err = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    if frame is not None:
        tracer.end_op(frame)
    if err is None:
        try:
            err = op.check(res)
        except Exception as exc:
            err = f"answer check raised {type(exc).__name__}: {exc}"
    if err is None and t1 - t0 > limit_s:
        err = f"exceeded the {limit_s:g} s op limit"
    outcome.record(slot, op, t1 - t0, cpu, err)
    return t1


def closed_loop(deck, seconds, limit_s, speed):
    """Passes over the deck until ``seconds`` have gone by, and at least one;
    the machine's speed is sampled between ops."""
    outcome = Outcome(len(deck))
    gc.collect()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for slot, op in enumerate(deck):
            t1 = run_op(op, slot, limit_s, outcome)
            outcome.marks[slot].append(speed.after_op(outcome.lat[slot][-1]))
            if passes and t1 >= deadline:
                return outcome
        passes += 1
        if t1 >= deadline:
            return outcome


def tail(values):
    """(value, percentile) with exactly TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(outcome, setup, speed):
    """Metrics from each slot's median latency and CPU over the passes, every
    sample scaled to the reference machine speed of the moment it was taken
    (see ``speed.py``).  The unscaled medians, and the least unscaled
    samples, are kept in the metadata as ``raw``."""

    def scaled(samples, marks):
        return [t * speed.factor_at(m) for t, m in zip(samples, marks)]

    lat = [statistics.median(scaled(v, m))
           for v, m in zip(outcome.lat, outcome.marks)]
    cpu = [statistics.median(scaled(v, m))
           for v, m in zip(outcome.cpu, outcome.marks)]
    tail_s, tail_pct = tail(lat)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def figures(lat, cpu, setup):
        return {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail(lat)[0],
            "cpu_ms_per_op": 1e3 * statistics.fmean(cpu),
            "setup_s": statistics.median(setup),
        }

    metrics = figures(lat, cpu, [t * speed.factor_at(m) for t, m in setup])
    metrics["peak_rss_mib"] = peak_kib / 1024.0
    extra = {
        "tail_percentile": round(tail_pct, 4),
        "tail_over": f"median latency of each of {len(lat)} deck ops",
        "passes": min(len(v) for v in outcome.lat),
        "speed_factors": [round(speed.factor_at(m), 4) for m in
                          (0, len(speed.samples) // 2, len(speed.samples))],
        "speed_samples": len(speed.samples),
        "setup_ms": [round(1e3 * t, 3) for t, _ in setup],
        "raw": {
            "median": figures([statistics.median(v) for v in outcome.lat],
                              [statistics.median(v) for v in outcome.cpu],
                              [t for t, _ in setup]),
            "least": figures([min(v) for v in outcome.lat],
                             [min(v) for v in outcome.cpu],
                             [t for t, _ in setup]),
        },
    }
    return metrics, extra


# -- traced run ------------------------------------------------------------------


def traced_passes(deck, seconds, limit_s):
    """Whole passes over the deck under the tracer, then an untraced replay of
    the same number of passes for the overhead estimate."""
    from tracer import Tracer

    tracer = Tracer()
    outcome = Outcome(len(deck))
    gc.collect()
    tracer.install()
    try:
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds * TRACED_SHARE:
            for slot, op in enumerate(deck):
                run_op(op, slot, limit_s, outcome, tracer)
            passes += 1
    finally:
        tracer.uninstall()
    replay = Outcome(len(deck))
    gc.collect()
    for _ in range(passes):
        for slot, op in enumerate(deck):
            run_op(op, slot, limit_s, replay)
    return tracer, outcome, replay, passes


def per_pass(value, passes):
    q, r = divmod(value, passes)
    return q if r == 0 else value / passes


def layer_metrics(tracer, outcome, replay, passes):
    ops = outcome.attempted
    ms = lambda seconds: 1e3 * seconds / ops  # noqa: E731
    count = lambda key: per_pass(tracer.counts.get(key, 0), passes)  # noqa: E731
    calls = lambda *names: per_pass(tracer.calls_of(*names), passes)  # noqa: E731
    layers = tracer.layer_self_s()
    kernel_names = [n for n in tracer.names if n.startswith("kernels.")]
    traced_rate = ops / outcome.total_s()
    replay_rate = replay.attempted / replay.total_s()
    return {
        "normalform.reduce_word.self_ms":
            ms(tracer.self_of("normalform.reduce_word")),
        "normalform.syllables": count("normalform.syllables"),
        "normalform.mul.self_ms": ms(tracer.self_of("normalform.mul")),
        "normalform.mul.calls": calls("normalform.mul"),
        "normalform.inv.calls": calls("normalform.inv"),
        "normalform.forms_equal.calls": calls("normalform.forms_equal"),
        "normalform.max_nesting": tracer.counts.get("normalform.max_nesting", 0),
        "normalform.letters_out": count("normalform.letters_out"),
        "normalform.self_ms": ms(layers.get("normalform", 0.0)),
        "instances.calls": calls("instances.factor_mul", "instances.split",
                                 "instances.split_chain", "instances.in_base"),
        "instances.self_ms": ms(layers.get("instances", 0.0)),
        "instances.setup_ms": ms(tracer.incl_of("instances.make_instance")),
        "kernels.calls": calls(*kernel_names),
        "kernels.self_ms": ms(layers.get("kernels", 0.0)),
        "padic.allocs": calls("padic.__init__", "padic._raw"),
        "padic.self_ms": ms(layers.get("padic", 0.0)),
        "oracle.calls": calls("oracle.naive_reduce"),
        "oracle.syllables": count("oracle.syllables"),
        "oracle.self_ms": ms(layers.get("oracle", 0.0)),
        "wordexpr.parse_bytes": count("wordexpr.parse_bytes"),
        "wordexpr.parse_ms": ms(tracer.incl_of("wordexpr.parse_expr")),
        "wordexpr.lower_syllables": count("wordexpr.lower_syllables"),
        "wordexpr.lower_ms": ms(tracer.incl_of("wordexpr.expr_to_word")),
        "wordexpr.format_bytes": count("wordexpr.format_bytes"),
        "wordexpr.format_ms": ms(tracer.incl_of("wordexpr.format")),
        "wordexpr.self_ms": ms(layers.get("wordexpr", 0.0)),
        "homs.eval_calls": per_pass(tracer.outer_calls_of("homs.eval"), passes),
        "homs.eval_ms": ms(tracer.incl_of("homs.eval")),
        "homs.setup_ms": ms(tracer.incl_of("homs.standard_hom")),
        "homs.self_ms": ms(layers.get("homs", 0.0)),
        "witnesses.generate_ms": ms(tracer.incl_of("witnesses.generate")),
        "witnesses.verify_self_ms": ms(tracer.self_of("witnesses.verify")),
        "witnesses.cert_bytes": count("witnesses.cert_bytes"),
        "witnesses.rejected": count("witnesses.rejected"),
        "witnesses.self_ms": ms(layers.get("witnesses", 0.0)),
        "suites.self_ms": ms(layers.get("suites", 0.0)),
        "suites.samples": count("suites.samples"),
        "cli.main_ms": ms(tracer.incl_of("cli.main")),
        "cli.self_ms": ms(layers.get("cli", 0.0)),
        "runtime.gc_ms": ms(tracer.gc_s),
        "runtime.gc_collections": per_pass(tracer.gc_collections, passes),
        "bench.self_ms": ms(layers.get("bench", 0.0)),
        "trace.op_ms": ms(tracer.incl_of("bench.op")),
        "trace.overhead_frac": 1.0 - traced_rate / replay_rate,
    }


def kernel_rates(seed, calls=40_000, repeats=3):
    """Raw add/mul/coset_split calls per second for every kernel backend
    that is present; a backend that is not built is recorded as absent."""
    import importlib
    import random

    rng = random.Random(seed)
    p = 5
    pairs = []
    for _ in range(256):
        num, k = rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(0, 6)
        while k and num % p == 0:
            num //= p
            k -= 1
        pairs.append((num, k))
    a_args = [(an, ak, bn, bk, p) for (an, ak), (bn, bk)
              in zip(pairs, pairs[7:] + pairs[:7])]
    s_args = [(num, k, p, 2) for num, k in pairs]
    out = {}
    for backend in ("py", "cy"):
        try:
            mod = importlib.import_module(f"amalgam._kernels_{backend}")
        except ImportError:
            out[backend] = "absent"
            continue
        rates = {}
        for fname, args in (("add", a_args), ("mul", a_args),
                            ("coset_split", s_args)):
            fn = getattr(mod, fname)
            work = (args * (calls // len(args) + 1))[:calls]
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for a in work:
                    fn(*a)
                samples.append(calls / (time.perf_counter() - t0))
            rates[fname] = statistics.median(samples)
        out[backend] = rates
    return out


def cli_probes(env):
    """Cold import cost of amalgam.cli, and the hostile-input calls."""
    from workloads import CLI_LIMIT_S, hostile_calls, spawn

    bare, cold = [], []
    for _ in range(5):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import amalgam.cli"], cold)):
            t0 = time.perf_counter()
            code, _, err, _, _ = spawn(argv, env, 60.0)
            into.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"import probe failed: {err}")
    import_ms = 1e3 * (statistics.median(cold) - statistics.median(bare))
    hostile = []
    for call in hostile_calls():
        argv = [sys.executable, "-m", "amalgam.cli"] + call.argv
        t0 = time.perf_counter()
        code, out, err, _, _ = spawn(argv, env, CLI_LIMIT_S)
        hostile.append({"label": call.label, "exit": code,
                        "seconds": round(time.perf_counter() - t0, 3),
                        "failure": call.judge(code, out, err),
                        "exit_documented": code in call.expected})
    return import_ms, hostile


# -- output ----------------------------------------------------------------------


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    import subprocess

    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def metadata(args, deck):
    import importlib.util

    try:
        from amalgam import _kernels

        backend = _kernels.BACKEND
    except ImportError:
        backend = None
    digest = hashlib.sha256("\n".join(op.desc for op in deck).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel_backend": backend,
        "kernel_backends_built": {
            name: importlib.util.find_spec(f"amalgam._kernels_{name}") is not None
            for name in ("py", "cy")},
        "AMALGAM_KERNEL": os.environ.get("AMALGAM_KERNEL"),
        "deck_ops": len(deck),
        "input_sha256": digest,
    }


def report(meta, metrics, units, attempted, failed, details):
    for name, unit in units.items():
        print(f"metric {meta['workload']} {name} = {metrics[name]!r} {unit}")
    print(f"metric {meta['workload']} failed_frac = {failed / attempted!r} frac "
          f"({failed} of {attempted})")
    meta = dict(meta, attempted=attempted, failed=failed, **details)
    print("meta " + json.dumps(meta, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=2,
                  sort_keys=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result, sort_keys=True))


def label_summary(outcome):
    """Median unscaled latency in ms of each deck op, grouped by label."""
    out = {}
    for label, v in zip(outcome.labels, outcome.lat):
        out.setdefault(label, []).append(round(1e3 * statistics.median(v), 4))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["words", "suite", "certs", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "amalgam", "__init__.py")):
        fail(f"no amalgam sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    os.environ["AMALGAM_FIXED_ELAPSED"] = "1"

    import workloads as W

    configs, limit_s = workload_spec(args.workload)
    if args.trace == 0:
        speed = Speed()
        setup = setup_times(configs, SETUP_REPEATS, 1, speed)
    env = W.build_configs(configs)
    deck = build_deck(args.workload, args.seed, env)
    meta = metadata(args, deck)

    if args.trace == 0:
        outcome = closed_loop(deck, args.seconds, limit_s, speed)
        setup += setup_times(configs, SETUP_REPEATS, 0, speed)
        metrics, extra = end_to_end(outcome, setup, speed)
        details = dict(extra, failures=outcome.failures,
                       by_label=label_summary(outcome))
        report(meta, metrics, END_TO_END, outcome.attempted, outcome.failed,
               details)
        return

    tracer, outcome, replay, passes = traced_passes(deck, args.seconds, limit_s)
    metrics = layer_metrics(tracer, outcome, replay, passes)
    rates = kernel_rates(args.seed)
    active = meta["kernel_backend"] or "py"
    for fname in ("add", "mul", "coset_split"):
        present = rates.get(active)
        metrics[f"kernels.{fname}_per_s"] = \
            present[fname] if isinstance(present, dict) else 0.0
    import_ms, hostile = 0.0, []
    if args.workload == "cli":
        import_ms, hostile = cli_probes(W.child_env(SRC))
    metrics["cli.import_ms"] = import_ms
    metrics["cli.hostile_failed"] = sum(1 for h in hostile if h["failure"])
    mismatch = sum(n for key, n in outcome.failures.items()
                   if key.split(": ", 1)[1].startswith(W.UNDOCUMENTED))
    metrics["cli.exit_mismatch"] = per_pass(mismatch, passes) + sum(
        1 for h in hostile if not h["exit_documented"])
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv")
    tracer.write_spans(spans_path)
    accounted = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS) \
        + metrics["runtime.gc_ms"]
    print(f"trace {args.workload}: {passes} passes, op {metrics['trace.op_ms']:.4f} "
          f"ms = layer self times {accounted:.4f} ms")
    for h in hostile:
        print(f"hostile {h['label']}: exit {h['exit']} in {h['seconds']} s -> "
              f"{h['failure'] or 'ok'}")
    details = dict(passes=passes, kernel_rates=rates, hostile=hostile,
                   failures=outcome.failures, spans_kept=len(tracer.spans),
                   spans_dropped=tracer.spans_dropped, spans_file=spans_path,
                   unpatched=tracer.missing, by_label=label_summary(outcome))
    report(meta, metrics, PER_LAYER, outcome.attempted, outcome.failed, details)


if __name__ == "__main__":
    main()

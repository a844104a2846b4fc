"""symorder benchmark: timed run and traced run of one workload.

    python3 perfbench/run.py --workload identity-grid --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/BENCH_0.json

Run it from the repository root or anywhere else; it changes to the
repository root itself and reads the package from `src/`.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it list every metric with its unit.

`--trace 0` (timed run) reports the end-to-end metrics and installs no
wrapper.  `--trace 1` (traced run) alternates untraced passes with passes
under the span-recording wrappers of `spans.py` and reports the per-layer
metrics and the tracing overhead.  `--workload all` runs every workload,
timed and then traced, each in its own fresh process, one after another.

A run repeats the workload's fixed case list ("a pass") until `--seconds`
is used up, with at least `MIN_PASSES` passes.  Each case's latency is the
fastest of its passes, and every reported time is scaled by the run's
machine factor (see `machine_factor`).  Every case checks its own verdict
and the digest of its output; a case that raises, gives a wrong verdict or
whose digest differs from the recorded one (or from its own first pass)
counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity-grid", "section", "span-rank", "cli-tables")
SETUP_PROBES = 9
MIN_PASSES = 3
REF_REPEATS = 3  # reference loops before each pass
# The reference loop's time on a 2-core x86 VM at its fastest.  Every
# reported time is the measured one times REF_NOMINAL_S over the run's
# fastest reference loop; see `machine_factor`.
REF_NOMINAL_S = 0.0075
_REF_TABLE = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    if not (ROOT / "src" / "symorder" / "__init__.py").is_file():
        _fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _scratch(workload: str, seed: int, size: str) -> Path:
    # Relative to ROOT, which is the working directory from here on.
    return Path(".bench_out") / f"{workload}-seed{seed}-{size}"


# -- set-up ------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Import the package, draw the inputs, print the monotonic clock, exit."""
    import workloads

    scratch = _scratch(args.workload, args.seed, args.size)
    workloads.make_cases(args.workload, args.seed, args.size, scratch)
    print(time.monotonic_ns())


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Process start through import and input generation, once per fresh process.

    CLOCK_MONOTONIC is shared by every process on the host, so the child's
    reading minus the parent's reading just before the spawn is the child's
    set-up time including interpreter start.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        start = time.monotonic_ns()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            _fail(f"set-up probe failed with status {proc.returncode}: {proc.stderr.strip()}")
        samples.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return samples


# -- passes ------------------------------------------------------------------------


class Runner:
    """Runs passes over a fixed case list and checks every output."""

    def __init__(self, cases: list, recorded: list[str] | None):
        self.cases = cases
        self.recorded = recorded
        self.digests: list[str | None] = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None) -> list[int]:
        """Per-case latencies in ns, verdict included, digest excluded."""
        latencies = []
        for index, case in enumerate(self.cases):
            start = time.perf_counter_ns()
            try:
                ok, out = case.run() if tracer is None else tracer.case(index, case.run)
                reason = None if ok else "wrong verdict"
            except Exception as exc:  # a raising case is a failed case, not a crash
                ok, out, reason = False, None, f"raised {exc!r}"
            latencies.append(time.perf_counter_ns() - start)
            self.attempted += 1
            if reason is None:
                reason = self._check_digest(index, case.canonical(out))
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"case {index} ({case.label}): {reason}")
        return latencies

    def _check_digest(self, index: int, canonical: bytes) -> str | None:
        digest = hashlib.sha256(canonical).hexdigest()[:16]
        if self.digests[index] is None:
            self.digests[index] = digest
        elif digest != self.digests[index]:
            return "output differs from the first pass"
        if self.recorded is not None and digest != self.recorded[index]:
            return "output digest differs from the recorded one"
        return None


def reference_loop() -> float:
    """Seconds for one fixed sparse product of Fraction-valued dicts.

    It shares no code with the package, so no change to the package moves
    it, and it does the package's kind of work (tuple keys, dict updates,
    Fraction products), so load from other processes slows it as much.
    """
    start = time.perf_counter()
    out: dict = {}
    for (a, b), x in _REF_TABLE.items():
        for (c, d), y in _REF_TABLE.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return time.perf_counter() - start


def machine_factor(refs: list[float]) -> float:
    """REF_NOMINAL_S over the run's fastest reference loop.

    On the shared VM this benchmark was built on, other tenants slowed the
    CPU by up to 2x for spells of seconds to minutes, and CPU time slowed
    with wall time.  Scaling every time by this factor takes the spell out:
    over ten 20 s windows the fastest section pass varied by 5.6% (coefficient
    of variation) and its ratio to the fastest reference loop by 1.3%.
    """
    return REF_NOMINAL_S / min(refs)


def run_passes(runner: Runner, seconds: float, tracer=None,
               traces: list | None = None) -> tuple[list[list[int]], list[float]]:
    """Repeat the case list until another pass would overrun `seconds`.

    Returns the per-pass case latencies and the reference-loop times, taken
    `REF_REPEATS` times before every pass.
    There are at least `MIN_PASSES` passes.  With a tracer, every second
    pass is traced: the tracer is installed for that pass only, its counters
    and self times go to `traces`, and spans are kept from the first traced
    pass only.  Traced and untraced passes thus see the same machine, which
    keeps their difference (the tracing overhead) out of reach of slow
    spells.
    """
    passes: list[list[int]] = []
    refs: list[float] = []
    took: list[float] = []
    start = time.perf_counter()
    while True:
        refs.extend(reference_loop() for _ in range(REF_REPEATS))
        traced = tracer is not None and len(passes) % 2 == 1
        begin = time.perf_counter()
        if traced:
            tracer.install()
            try:
                passes.append(runner.one_pass(tracer))
            finally:
                tracer.uninstall()
            traces.append(tracer.take_pass())
            tracer.keep_spans = False
        else:
            passes.append(runner.one_pass())
        took.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(took) > seconds:
            return passes, refs


def case_latencies_ms(passes: list[list[int]]) -> list[float]:
    """Each case's latency: the fastest of its passes."""
    return [min(column) / 1e6 for column in zip(*passes)]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 cases beyond it.

    With 10 cases or fewer no percentile has 10 beyond, and the maximum
    (p100) stands in for the tail.
    """
    return 100 if count <= 10 else math.floor(100 * (count - 10) / count)


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


# -- the two kinds of run ----------------------------------------------------------


def timed_run(args, cases, runner) -> tuple[dict, list[str], list[list[int]]]:
    setup = measure_setup(args)
    passes, refs = run_passes(runner, args.seconds)
    factor = machine_factor(refs)
    latencies = case_latencies_ms(passes)
    percentile = tail_percentile(len(latencies))
    metrics = {
        "setup_s": (statistics.median(setup) * factor, "s"),
        "verify_s": (sum(latencies) / 1e3 * factor, "s"),
        "case_ms.p50": (statistics.median(latencies) * factor, "ms"),
        "case_ms.tail": (nearest_rank(sorted(latencies), percentile) * factor, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"passes {len(passes)} x {len(cases)} cases, case time per pass "
        + ", ".join(f"{sum(p) / 1e9:.3f}" for p in passes) + " s",
        f"case_ms.tail is p{percentile} over {len(latencies)} cases",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)} s",
        f"times scaled by {factor:.4f} (fastest reference loop {min(refs):.5f} s, "
        f"nominal {REF_NOMINAL_S} s); unscaled verify_s {sum(latencies) / 1e3:.4f} s",
    ]
    return metrics, notes, passes


def traced_run(args, cases, runner) -> tuple[dict, list[str], list[tuple]]:
    from spans import Tracer

    tracer = Tracer()
    tracer.keep_spans = True
    per_pass: list[tuple[dict, dict]] = []
    passes, refs = run_passes(runner, args.seconds, tracer, per_pass)
    factor = machine_factor(refs)
    untraced, traced = passes[0::2], passes[1::2]
    counts = per_pass[0][0]

    def count(key: str) -> int:
        return counts.get(key, 0)

    def self_s(name: str) -> float:
        return statistics.median(p[1].get(name, 0) for p in per_pass) / 1e9 * factor

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = count("ordering.word_cache.lookups")
    misses = count("ordering.word_cache.misses")
    metrics = {
        "weyl.mul.calls": (count("weyl.mul.calls"), "count"),
        "weyl.mul.self_s": (self_s("weyl.mul"), "s"),
        "weyl.mul.term_pairs": (count("weyl.mul.term_pairs"), "count"),
        "weyl.mul.out_terms": (count("weyl.mul.out_terms"), "count"),
        "weyl.mul.peak_out_terms": (count("weyl.mul.peak_out_terms"), "count"),
        "weyl.fock_apply.calls": (count("weyl.fock_apply.calls"), "count"),
        "weyl.fock_apply.self_s": (self_s("weyl.fock_apply"), "s"),
        "weyl.fock_apply.term_pairs": (count("weyl.fock_apply.term_pairs"), "count"),
        "weyl.truncate.calls": (count("weyl.truncate.calls"), "count"),
        "weyl.truncate.kept_ratio": (
            ratio(count("weyl.truncate.terms_kept"), count("weyl.truncate.terms_in")), "ratio"),
        "generators.random_family.self_s": (self_s("generators.random_family"), "s"),
        "generators.build_generators.self_s": (self_s("generators.build_generators"), "s"),
        "generators.generator_terms": (count("generators.generator_terms"), "count"),
        "ordering.theorem_check.self_s": (self_s("ordering.theorem_check"), "s"),
        "ordering.e_map.self_s": (self_s("ordering.e_map"), "s"),
        "ordering.pi_project.self_s": (self_s("ordering.pi_project"), "s"),
        "ordering.span_dimension.self_s": (self_s("ordering.span_dimension"), "s"),
        "ordering.cancellation_check.self_s": (self_s("ordering.cancellation_check"), "s"),
        "ordering.word_recursion.self_s": (self_s("ordering.word_recursion"), "s"),
        "ordering.word_cache.lookups": (lookups, "count"),
        "ordering.word_cache.misses": (misses, "count"),
        "ordering.word_cache.hit_ratio": (ratio(lookups - misses, lookups), "ratio"),
        "linalg.exact_rank.calls": (count("linalg.exact_rank.calls"), "count"),
        "linalg.exact_rank.self_s": (self_s("linalg.exact_rank"), "s"),
        "linalg.exact_rank.cells": (count("linalg.exact_rank.cells"), "count"),
        "linalg.exact_rank.full_rank_ratio": (
            ratio(count("linalg.exact_rank.full_rank"), count("linalg.exact_rank.calls")), "ratio"),
        "lie.validate.calls": (count("lie.validate.calls"), "count"),
        "lie.validate.self_s": (self_s("lie.validate"), "s"),
        "lie.embedding_images.calls": (count("lie.embedding_images.calls"), "count"),
        "lie.embedding_images.per_table": (
            ratio(count("lie.embedding_images.calls"), count("lie.embedding_images.tables")), "ratio"),
        "lie.homomorphism_defect.self_s": (self_s("lie.homomorphism_defect"), "s"),
        "lie.derived_family.self_s": (self_s("lie.derived_family"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.load_structure_constants.calls": (count("cli.load_structure_constants.calls"), "count"),
        "cli.load_structure_constants.per_invocation": (
            ratio(count("cli.load_structure_constants.calls"), count("cli.sc_invocations")), "ratio"),
        "cli.load_structure_constants.self_s": (self_s("cli.load_structure_constants"), "s"),
        "cli.render.self_s": (self_s("cli.render"), "s"),
        "trace.overhead_s": (
            (sum(case_latencies_ms(traced)) - sum(case_latencies_ms(untraced))) / 1e3 * factor, "s"),
    }
    notes = [f"untraced passes {len(untraced)}, traced passes {len(traced)} x {len(cases)} cases",
             f"spans kept from the first traced pass: {len(tracer.spans)}",
             f"times scaled by {factor:.4f}"]
    return metrics, notes, tracer.spans


# -- entry points -------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    _import_package()
    import spans
    import workloads

    scratch = _scratch(args.workload, args.seed, args.size)
    recorded = None
    digest_file = Path(args.digests) if args.digests else HERE / "digests" / f"{args.workload}.json"
    if digest_file.is_file():
        data = json.loads(digest_file.read_text(encoding="utf-8"))
        if data["seed"] == args.seed and data["size"] == args.size:
            recorded = data["digests"]
    cases = workloads.make_cases(args.workload, args.seed, args.size, scratch)
    if recorded is not None and len(recorded) != len(cases):
        _fail(f"{digest_file} records {len(recorded)} digests for {len(cases)} cases")
    runner = Runner(cases, recorded)

    if args.trace:
        metrics, notes, kept = traced_run(args, cases, runner)
        (scratch / "trace.json").parent.mkdir(parents=True, exist_ok=True)
        (scratch / "trace.json").write_text(
            json.dumps({"fields": spans.SPAN_FIELDS, "spans": kept}), encoding="utf-8")
    else:
        metrics, notes, passes = timed_run(args, cases, runner)
        scratch.mkdir(parents=True, exist_ok=True)
        (scratch / "passes.json").write_text(json.dumps(passes), encoding="utf-8")
    # The timed run must measure the unwrapped package.
    leftover = spans.installed_hooks()
    import symorder.ordering
    import symorder.weyl
    unwrapped = not leftover and symorder.ordering.mul is symorder.weyl.mul

    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / "digests.json").write_text(json.dumps(
        {"seed": args.seed, "size": args.size, "digests": runner.digests}, indent=0) + "\n",
        encoding="utf-8")

    failed_ratio = runner.failed / runner.attempted
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          + "; ".join(notes))
    print(f"digests: {'compared with ' + str(digest_file) if recorded is not None else 'none recorded for this seed'}"
          f"; written to {scratch / 'digests.json'}")
    for line in runner.failures:
        print(f"FAILED {line}")
    if not unwrapped:
        print(f"FAILED wrappers left installed: {leftover or ['symorder.ordering.mul']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:.6g} {unit}")
    print(f"{'failed_ratio':46s} {failed_ratio:.6g} ratio ({runner.failed} of {runner.attempted})")
    result = {
        "correct": runner.failed == 0 and unwrapped,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _environment(args: argparse.Namespace) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, timed then traced, each in its own process, in turn."""
    results: dict = {}
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + args.seconds, check=False)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
            if proc.returncode != 0 or not lines:
                _fail(f"{workload} (trace {trace}) exited {proc.returncode}: {proc.stderr.strip()}")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            results.setdefault(workload, {})["timed" if trace == 0 else "traced"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": _environment(args), "workloads": results}, indent=1) + "\n",
            encoding="utf-8")
    print(f"all workloads: {'correct' if correct else 'NOT correct'}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=28.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every case list, for the self-tests")
    parser.add_argument("--digests", default=None,
                        help="recorded digest file (default perfbench/digests/<workload>.json)")
    parser.add_argument("--out", default=None, help="with --workload all: write all results here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _import_package()
        setup_probe(args)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark, at the tiny size.

    python3 perfbench/selftest.py

Checks that

  * every workload prints every metric BENCHMARK.json names, with its unit,
    in the timed run (end-to-end) and in the traced run (per-layer), and a
    failed_ratio line, with failed_ratio 0 on the current code;
  * every exact count of the traced run repeats across two runs at one seed;
  * a deliberately wrong recorded digest makes failed_ratio positive;
  * the timed run installs no wrapper (`symorder.ordering.mul is
    symorder.weyl.mul`), and the tracer puts every original back;
  * without the package source next to it the benchmark exits non-zero and
    prints no result.

Exits 0 when all checks pass; prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = Path(".bench_out") / "selftest"
TIMEOUT_S = 170


def workload_names(contract: dict) -> list[str]:
    return [w["name"] for w in contract["workloads"]]


def run_bench(*argv: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.splitlines()


def tiny(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    code, lines = run_bench("perfbench/run.py", "--workload", workload, "--seed", "0",
                            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra)
    if code != 0 or not lines:
        raise AssertionError(f"{workload} trace {trace} exited {code}")
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(contract: dict, problems: list[str]) -> None:
    for workload in workload_names(contract):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = tiny(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed cases on the current code")
            expected = {m["name"]: m["unit"] for m in contract[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {trace}: metrics {got} != {expected}")
            for name, unit in expected.items():
                if not any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines):
                    problems.append(f"{workload} trace {trace}: no '{name} ... {unit}' line")
            if not any(line.startswith("failed_ratio") and line.split()[1] == "0" for line in lines):
                problems.append(f"{workload} trace {trace}: no 'failed_ratio 0 ratio' line")


def check_exact_counts(contract: dict, problems: list[str]) -> None:
    exact = [m["name"] for m in contract["per_layer"] if m["unit"] in ("count", "ratio")]
    for workload in workload_names(contract):
        first, _ = tiny(workload, 1)
        second, _ = tiny(workload, 1)
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} in one traced run and {b} in another")


def check_wrong_digest(contract: dict, problems: list[str]) -> None:
    for workload in workload_names(contract):
        tiny(workload, 0)
        written = ROOT / ".bench_out" / f"{workload}-seed0-tiny" / "digests.json"
        data = json.loads(written.read_text(encoding="utf-8"))
        recorded = ROOT / SCRATCH / f"{workload}-right.json"
        recorded.parent.mkdir(parents=True, exist_ok=True)
        recorded.write_text(json.dumps(data), encoding="utf-8")
        right, _ = tiny(workload, 0, "--digests", str(recorded))
        data["digests"][0] = "0" * 16
        tampered = ROOT / SCRATCH / f"{workload}-wrong.json"
        tampered.write_text(json.dumps(data), encoding="utf-8")
        wrong, lines = tiny(workload, 0, "--digests", str(tampered))
        if right["failed"] != 0:
            problems.append(f"{workload}: its own recorded digests fail")
        if wrong["failed"] == 0 or wrong["correct"]:
            problems.append(f"{workload}: a wrong recorded digest left failed_ratio at 0")
        ratio = next(line for line in lines if line.startswith("failed_ratio")).split()[1]
        if not float(ratio) > 0:
            problems.append(f"{workload}: failed_ratio line reads {ratio} with a wrong digest")


def check_no_wrappers(problems: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import symorder.ordering
    import symorder.weyl
    import spans
    import workloads  # noqa: F401  imports every module the cases call

    if spans.installed_hooks() or symorder.ordering.mul is not symorder.weyl.mul:
        problems.append("wrappers are installed before any traced run")
    tracer = spans.Tracer()
    tracer.install()
    try:
        if symorder.ordering.mul is symorder.weyl.mul or not spans.installed_hooks():
            problems.append("installing the tracer did not rebind symorder.ordering.mul")
    finally:
        tracer.uninstall()
    if spans.installed_hooks() or symorder.ordering.mul is not symorder.weyl.mul:
        problems.append("uninstalling the tracer left wrappers behind")


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run_bench("perfbench/run.py", "--workload", "section", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without src/ the benchmark exited {code} and printed {lines[-1:]}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_no_wrappers(problems)
    check_bare_directory(problems)
    check_wrong_digest(contract, problems)
    check_metrics(contract, problems)
    check_exact_counts(contract, problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

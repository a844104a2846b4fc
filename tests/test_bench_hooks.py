"""The benchmark's traced run rebinds library names; every one must resolve.

`perfbench/spans.py` lists each hooked (module, attribute) pair in `HOOKS`.
`installed_hooks()` looks every pair up, so it raises on a renamed or deleted
name, and it returns an empty list when no tracer is installed.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_bench_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    assert spans.installed_hooks() == []

"""The pure parts of scripts/setup_phase.py: the snippets it runs. Starts no process."""

import difflib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("setup_phase",
                                                  ROOT / "scripts" / "setup_phase.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_snippet() -> str:
    """The text between the quotes of perfbench's SETUP_SNIPPET, as written in run.py."""
    text = (ROOT / "perfbench" / "run.py").read_text()
    start = text.index('SETUP_SNIPPET = """') + len('SETUP_SNIPPET = """')
    return text[start:text.index('"""', start)]


def test_the_unmodified_snippet_is_perfbench_s_text():
    script = _script()
    assert script._constants(script.PERFBENCH / "run.py")["SETUP_SNIPPET"] == _perfbench_snippet()


def test_the_instrumented_snippet_differs_only_by_the_injected_lines():
    # the counts are read just before the last probe and printed after the timing line
    snippet = _perfbench_snippet()
    instrumented = _script().instrumented_snippet(snippet)
    changed = [line for line in difflib.ndiff(snippet.splitlines(), instrumented.splitlines())
               if line[:2] in ("- ", "+ ")]
    assert changed == ["+ import gc", "+ _counts = gc.get_count()",
                       "+ print(*_counts, repr(probes[-1]))"]
    lines = instrumented.splitlines()
    assert lines[lines.index("_counts = gc.get_count()") + 1] == "on_timer(None, None)"
    assert lines[-2].startswith("print(repr(seconds)")

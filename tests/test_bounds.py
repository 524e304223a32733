"""tools/bounds.py on stub children: each kind of bound fails its case, and a
child past its deadline is killed and reaped.

Linux carries a parent's peak RSS through ``exec`` into the child's
``ru_maxrss``, and the test process is large, so a stub whose peak RSS is
checked is measured from a fresh interpreter, as ``tools/bounds.py`` runs.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bounds.py"
spec = importlib.util.spec_from_file_location("bounds", TOOL)
bounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bounds)

# loads the tool, measures the case given as JSON and prints the run and its failures
FRESH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bounds", sys.argv[1])
bounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bounds)
case = bounds.Case(**json.loads(sys.argv[2]))
run = bounds.measure([sys.executable, "-c", case.code, *case.args])
print(json.dumps([run, bounds.failures(case, run)]))
"""


def verdict(code: str, **limits):
    """The run of the stub ``code`` and what it breaks of ``limits``, from a fresh interpreter."""
    case = bounds.Case("stub", code, **limits)
    done = subprocess.run([sys.executable, "-c", FRESH, str(TOOL), json.dumps(case._asdict())],
                          capture_output=True, text=True, check=True)
    run, failed = json.loads(done.stdout)
    return bounds.Run(*run), failed


def test_a_case_within_its_bounds_passes():
    run, failed = verdict("print('1.0')", wall=5, mb=64, stdout="1.0\n")
    assert failed == []
    assert run.exit == 0 and 0 < run.wall < 5 and 0 < run.mb < 64 and run.stderr == ""


def test_a_case_over_its_wall_bound_fails():
    run, failed = verdict("import time; time.sleep(0.3)", wall=0.1, mb=64)
    assert run.wall >= 0.3 and failed == [f"{run.wall:.2f} s over 0.1 s"]


def test_a_timed_case_bounds_the_span_its_child_prints():
    assert verdict("import time; time.sleep(0.3); print(0.05)", wall=0.1, timed=True)[1] == []
    assert verdict("print(0.5)", wall=0.1, timed=True)[1] == ["0.50 s over 0.1 s"]
    assert verdict("pass", wall=0.1, timed=True)[1] == ["inf s over 0.1 s"]


def test_a_case_over_its_rss_bound_fails():
    run, failed = verdict('x = b"x" * (96 << 20)', wall=5, mb=64)
    assert run.mb > 96 and failed == [f"{run.mb:.0f} MB over 64 MB"]


def test_a_wrong_exit_code_fails():
    assert verdict("import sys; sys.exit(3)")[1] == ["exit 3, expected 0"]


def test_a_wrong_stdout_fails():
    assert verdict("print('1.00')", stdout="1.0\n")[1] == ["stdout '1.00\\n', expected '1.0\\n'"]


def test_a_wrong_error_kind_fails():
    code = ("import json, sys; print(json.dumps({'error': 'SchemaError', 'message': 'm'}), file=sys.stderr);"
            " sys.exit(2)")
    run, failed = verdict(code, exit=2, stdout="", error="TooLarge")
    assert run.exit == 2
    assert failed == [f"stderr {run.stderr.strip()!r}, expected one TooLarge line"]


def test_the_error_must_be_the_one_json_line_on_stderr():
    case = bounds.Case("stub", "", exit=2, error="TooLarge")
    line = json.dumps({"error": "TooLarge", "message": "m"})
    for stderr, ok in [(line + "\n", True), (line + "\n" + line + "\n", False), ("", False),
                       ("TooLarge\n", False), ("[1]\n", False), ('{"message": "m"}\n', False)]:
        assert (bounds.failures(case, bounds.Run(2, 0.1, 10.0, "", stderr)) == []) is ok, stderr


def test_a_child_past_its_deadline_is_killed_and_reaped():
    sleeper = "import os, time; print(os.getpid(), flush=True); time.sleep(60)"
    run = bounds.measure([sys.executable, "-c", sleeper], deadline=0.5)
    assert run.exit == -signal.SIGKILL and 0.5 <= run.wall < 5
    with pytest.raises(ProcessLookupError):  # not even a zombie is left
        os.kill(int(run.stdout), 0)
    assert bounds.failures(bounds.Case("stub", sleeper, wall=5), run) == [f"exit {-signal.SIGKILL}, expected 0"]


def test_the_table_holds_the_eighteen_ci_cases():
    table = bounds.cases("/nonexistent")
    assert len(table) == 18 and len({case.name for case in table}) == 18
    assert sum(case.error == "TooLarge" for case in table) == 4

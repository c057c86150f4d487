"""tools/cold_start.py times only commands that gave a result: exit codes
0 and 2 are results, and any other exit code stops it with exit 1 and the
failing command's output on stderr."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a stand-in hypercheck.cli whose every subcommand exits with CODE
FAKE_CLI = """
import sys

def run(argv):
    print("fake output")
    return CODE

if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
"""


def _cold_start(tmp_path, cli_source):
    package = tmp_path / "src" / "hypercheck"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli_source)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cold_start.py"), "--repeats", "1",
         str(tmp_path)], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code", [0, 2])
def test_results_are_timed(tmp_path, code):
    done = _cold_start(tmp_path, FAKE_CLI.replace("CODE", str(code)))
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert lines[0]["command"] == "import hypercheck.cli" and len(lines) > 1
    assert all(len(line["roots"]) == 1 for line in lines)


def test_error_exit_stops_the_run(tmp_path):
    done = _cold_start(tmp_path, FAKE_CLI.replace("CODE", "1"))
    assert done.returncode == 1
    assert "exited 1" in done.stderr and "fake output" in done.stderr
    # the bare import succeeded and was reported before the first example failed
    assert [json.loads(line)["command"] for line in done.stdout.splitlines()] == [
        "import hypercheck.cli"]


def test_crash_stops_the_run(tmp_path):
    done = _cold_start(tmp_path, "raise RuntimeError('broken at import')\n")
    assert done.returncode == 1 and done.stdout == ""
    assert "RuntimeError: broken at import" in done.stderr

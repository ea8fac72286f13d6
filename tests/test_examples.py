"""The README quick start, the demos and the public names work as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import torsym

ROOT = Path(__file__).resolve().parents[1]


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


def test_readme_quick_start_prints_what_it_shows():
    readme = (ROOT / "README.md").read_text()
    code, shown = re.search(r"```python\n(.*?)```\n\n```\n(.*?)```", readme, re.S).groups()
    # each commented print line shows its output in the comment; the block below shows the table
    expected = [
        line.split("# ", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "# " in line
    ]
    expected += shown.splitlines()
    out = _run(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == expected


def test_demos_run_and_public_names_resolve():
    # the demos import from torsym, so they also guard what __all__ keeps
    missing = [name for name in torsym.__all__ if not hasattr(torsym, name)]
    assert not missing
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert [d.name for d in demos] == ["covering_lifts.py", "full_census.py", "tour_of_groups.py"]
    for demo in demos:
        out = _run([str(demo)])
        assert out.returncode == 0, (demo.name, out.stderr)
        assert out.stdout.strip(), demo.name

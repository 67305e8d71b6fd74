"""The README's library examples run as written, and its CLI flags exist."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from noisy_euler.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs(tmp_path):
    """The Python blocks of "Library quick start", joined in order into one
    script, run in a fresh interpreter with src/ on the path and exit 0, so
    an API change cannot leave the README's examples stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)
    assert len(blocks) == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_flags_exist():
    """The README names exactly the --flags the CLI parser accepts, on the
    global parser or on some subcommand, -h/--help and --version aside: a
    removed flag cannot linger in the docs, and a flag cannot be added
    without them."""
    parsers = [build_parser()]
    known = set()
    for parser in parsers:  # grows as subcommand parsers are found
        for action in parser._actions:
            known.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    known -= {"-h", "--help", "--version"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named <= known, sorted(named - known)
    assert known <= named, sorted(known - named)

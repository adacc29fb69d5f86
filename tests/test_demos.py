"""The demos print what they printed when their text was captured.

Each demo runs in its own interpreter, on the package this session imported
(see conftest), and its stdout is compared with ``golden_demos.txt``: one
``== <file>`` header line per demo, then that demo's output.
"""

import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN_DEMOS = Path(__file__).with_name("golden_demos.txt")


def test_demos_print_golden(tmp_path):
    got = []
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        got.append("== %s\n%s" % (demo.name, proc.stdout))
    assert "".join(got) == GOLDEN_DEMOS.read_text(encoding="utf-8")

"""Every script under demos/ runs to completion against the package source,
under the suite's warning policy: a RuntimeWarning, UserWarning,
DeprecationWarning or FutureWarning is an error."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_exit_0(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) >= 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
             "-W", "error::DeprecationWarning", "-W", "error::FutureWarning", str(demo)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, "%s failed:\n%s" % (demo.name, proc.stderr)

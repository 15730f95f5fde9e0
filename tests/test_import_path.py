"""``import repro`` and ``python -m repro --help`` load no scipy or networkx.

Both cost most of the package's start-up time (about 0.7 s and 0.1 s),
which every CLI artifact and every spawned fleet worker pays; the
guard script keeps them off the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

GUARD = Path(__file__).with_name("import_guard.py")


def test_import_path_loads_no_scipy_or_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(GUARD)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

import os
import subprocess
import sys
from pathlib import Path

import surfaceflows

# numpy is the package's only runtime dependency; these are test and
# benchmark tools, and importing one would slow every start-up
HEAVY = ("sympy", "scipy", "mpmath", "hypothesis")


def test_import_pulls_in_no_heavy_module():
    src = str(Path(surfaceflows.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, surfaceflows; print(sorted(set(sys.modules) & set({HEAVY!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

import os
import subprocess
import sys
from pathlib import Path

import msdfrac


def test_import_leaves_reference_unloaded_and_unexported():
    # the reference constructions are reached only as msdfrac.reference,
    # in a fresh interpreter, since the tests themselves import it
    code = (
        "import sys, msdfrac\n"
        "print('msdfrac.reference' in sys.modules, hasattr(msdfrac, 'build_l1'),"
        " sorted({'L1System', 'build_l1', 'apply_dfrac', 'apply_cq', 'singular_moment',"
        " 'collocation_residual'} & set(msdfrac.__all__)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(msdfrac.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False []"

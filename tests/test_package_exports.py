"""``import repro`` loads no submodule: its exports resolve on first use.

The package ``__init__`` maps each name of ``__all__`` to its module
(PEP 562), so a process that runs the optimisers never imports the
simulator, the viz or the case study, and every start compiles less.
"""

import os
import subprocess
import sys

from benchmarks.check_docs import REPO_ROOT

CODE = """
import sys
import repro.core.strategies
loaded = [
    name for name in (
        "repro.flexray.simulator",
        "repro.viz.gantt",
        "repro.casestudy.cruise_control",
        "repro.io.serialization",
    )
    if name in sys.modules
]
assert not loaded, loaded
import repro
for name in repro.__all__:
    assert getattr(repro, name) is not None, name
namespace = {}
exec("from repro import *", namespace)
assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)
assert namespace["simulate"] is sys.modules["repro.flexray.simulator"].simulate
assert sorted(repro._EXPORTS) == sorted(set(repro.__all__) - {"__version__"})
try:
    repro.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""


def test_exports_are_lazy_and_complete():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CODE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

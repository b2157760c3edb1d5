"""One set-up, as a user pays it: imports plus system generation.

Run as ``python -m perfbench.probe <workload>`` (with ``src`` and the
checkout root on ``PYTHONPATH``); the caller times the whole process.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    from repro.analysis import holistic  # noqa: F401
    from repro.core.strategies import available_strategies, get_strategy

    from perfbench.common import CAMPAIGN_SYSTEMS, SYSTEM_SET, make_systems

    for name in available_strategies():
        get_strategy(name)
    if workload == "service-mixed":
        from repro.io import serialization  # noqa: F401

        make_systems(SYSTEM_SET + CAMPAIGN_SYSTEMS)
    else:
        make_systems(SYSTEM_SET)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

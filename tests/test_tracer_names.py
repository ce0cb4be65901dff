"""The benchmark's tracer finds every clutterlab name it patches.

perfbench/tracing.py wraps functions by name in the namespaces that
call them (cli, homology, invariants, macaulay, ...).  A refactor that
drops one of those names breaks every traced benchmark run; this test
makes it break tier-1 as well.
"""

from __future__ import annotations

import sys
from pathlib import Path

from clutterlab import cli


def test_tracer_installs_and_removes_its_wrappers():
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.tracing import Tracer
    finally:
        sys.path.remove(root)
    main = cli.main
    with Tracer() as tracer:
        assert cli.main is not main
        assert tracer.counts
    assert cli.main is main

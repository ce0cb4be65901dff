"""Oracle caps: explicit argument, then CLUTTERLAB_MAX_N, then default."""

from __future__ import annotations

import pytest

from clutterlab.guards import ENV_VAR, OracleBoundError, check_cap, oracle_cap


def test_cap_resolution_order(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert oracle_cap(12) == 12
    monkeypatch.setenv(ENV_VAR, "14")
    assert oracle_cap(12) == 14
    assert oracle_cap(12, override=5) == 5


@pytest.mark.parametrize("value", ["abc", "", "1.5", "12 vertices"])
def test_malformed_environment_cap(monkeypatch, value):
    monkeypatch.setenv(ENV_VAR, value)
    with pytest.raises(OracleBoundError) as info:
        oracle_cap(12)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == f"{ENV_VAR} must be an integer, got {value!r}"
    with pytest.raises(OracleBoundError):
        check_cap("hochster_betti", 3, 12, None)
    # an explicit cap never reads the environment
    assert oracle_cap(12, override=7) == 7
    check_cap("hochster_betti", 3, 12, 7)


def test_check_cap_bounds(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    check_cap("hochster_betti", 12, 12, None)
    with pytest.raises(OracleBoundError, match="capped at 12 vertices, got 13"):
        check_cap("hochster_betti", 13, 12, None)

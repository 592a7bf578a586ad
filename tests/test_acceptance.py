"""Runs every headline criterion at its stated tolerance, one line each."""

import pytest

from diskdyn import acceptance


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


@pytest.mark.parametrize("index", range(1, 13))
def test_criterion(results, index, capsys):
    r = next(r for r in results if r.index == index)
    with capsys.disabled():
        mark = "PASS" if r.passed else "FAIL"
        print(f"\n[{mark}] criterion {r.index:2d}: {r.name} -- {r.detail}")
    assert r.passed, f"criterion {r.index} ({r.name}): {r.detail}"


def test_all_pass(results):
    assert all(r.passed for r in results)


def test_tampered_tolerance_fails_by_name():
    tightened = acceptance.run_all(tolerances={"tau_gap": 1e-12})
    failed = [r for r in tightened if not r.passed]
    assert [r.index for r in failed] == [6]
    assert "tau" in failed[0].detail


def test_unknown_tolerance_rejected():
    with pytest.raises(ValueError, match="unknown tolerance"):
        acceptance.run_all(tolerances={"nope": 1})


def test_eigenpair_criterion_builds_one_grand_orbit(monkeypatch):
    # depths 4 and 6 are prefixes of the depth-8 grand orbit
    calls = []
    real = acceptance.orbits.grand_orbit

    def counted(*args, **kwargs):
        calls.append(kwargs["backward_depth"])
        return real(*args, **kwargs)

    monkeypatch.setattr(acceptance.orbits, "grand_orbit", counted)
    r = acceptance.criterion_6_eigenpair(acceptance.DEFAULT_TOLERANCES)
    assert r.passed
    assert calls == [8]

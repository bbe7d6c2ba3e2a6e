from pathlib import Path

import numpy as np
import pytest

import gchr.tabular_lab.monotonic as monotonic
import gchr.tabular_lab.report as report
from gchr.envs import load_tabular_mdp
from gchr.tabular_lab import format_report, make_gridworld, verify_tabular, write_report_csv

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def test_chain_fixture_passes_all_checks():
    mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    results = verify_tabular(mdp, seed=0)
    assert all(r.passed for r in results), format_report(results)


def test_gridworld_passes_all_checks():
    mdp = make_gridworld(3, 3, gamma=0.95, slip=0.1)
    results = verify_tabular(mdp, seed=1, pi_sweeps=3)
    assert all(r.passed for r in results), format_report(results)


def test_report_formats_one_line_per_check(tmp_path):
    mdp = load_tabular_mdp(ASSETS / "chain3.mdp")
    results = verify_tabular(mdp, seed=0)
    text = format_report(results)
    lines = text.splitlines()
    assert len(lines) == len(results) + 1  # one per check plus the summary
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    csv_path = tmp_path / "report.csv"
    write_report_csv(results, csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == len(results) + 1
    assert rows[0].startswith("check,passed,margin")


def with_nan(arr):
    arr = np.array(arr, dtype=np.float64)
    arr.flat[0] = np.nan
    return arr


def poisoned_once(fn, poison):
    """fn, except that its first call's output goes through poison."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(1)
        return poison(out) if len(calls) == 1 else out

    return wrapped


@pytest.mark.parametrize("module, name, poison, check", [
    (report, "q_from_occupancy", with_nan, "q_equals_p_over_one_minus_gamma"),
    (monotonic, "via_goal_slice", lambda out: (out[0], with_nan(out[1])),
     "via_goal_value_monotone"),
], ids=["identity", "via_goal"])
def test_a_nan_in_one_margin_fails_its_check(monkeypatch, module, name, poison, check):
    monkeypatch.setattr(module, name, poisoned_once(getattr(module, name), poison))
    results = verify_tabular(load_tabular_mdp(ASSETS / "chain3.mdp"), seed=0)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [check]
    assert np.isnan(failed[0].margin)

"""Unit tests: the per-core energy account and its joule pricing.

The account accumulates exact durations (multiplication by watts is
deferred to report time), so every expectation here is arithmetic on
plain numbers: stepwise idle splits, busy spans and snapshot deltas.
"""

import pytest

from repro.energy import (
    EnergyAccount,
    EnergyConfig,
    EnergyReport,
    MachineEnergy,
    idle_portions,
)
from repro.kernel.config import OsCosts

#: The default kernel descent: C1 from 0us, C1E from 20us, C6 from 600us.
THRESHOLDS = tuple((p.name, p.min_idle_us) for p in OsCosts().cstates)


# -- idle_portions -----------------------------------------------------------

def test_idle_portions_short_span_is_all_shallow():
    assert idle_portions(THRESHOLDS, 10.0) == [("C1", 10.0)]


def test_idle_portions_at_threshold_excludes_next_state():
    # A 20us span is exactly [0, 20): all C1, no C1E residency yet.
    assert idle_portions(THRESHOLDS, 20.0) == [("C1", 20.0)]


def test_idle_portions_descend_and_telescope():
    portions = idle_portions(THRESHOLDS, 1_000.0)
    assert portions == [("C1", 20.0), ("C1E", 580.0), ("C6", 400.0)]
    assert sum(span for _state, span in portions) == 1_000.0


def test_idle_portions_zero_span_is_empty():
    assert idle_portions(THRESHOLDS, 0.0) == []


# -- MachineEnergy -----------------------------------------------------------

def test_machine_energy_closes_idle_and_busy_spans():
    machine = MachineEnergy("m0", 2, OsCosts())
    # Core 0 wakes at t=1000 from its initial idle (since t=0).
    machine.on_wake(0, 0.0, 1_000.0, "C6")
    assert machine.wake_counts == {"C1": 0, "C1E": 0, "C6": 1}
    assert machine.idle_us == {"C1": 20.0, "C1E": 580.0, "C6": 400.0}
    machine.on_sleep(0, 1_500.0)
    assert machine.active_us == 500.0
    # A second sleep without an intervening wake is a no-op — parity
    # with the scheduler's own idle_since guard.
    machine.on_sleep(0, 2_000.0)
    assert machine.active_us == 500.0


def test_snapshot_integrates_open_spans_non_destructively():
    machine = MachineEnergy("m0", 1, OsCosts())
    snap = machine.snapshot(50.0)
    assert snap["idle_us"] == {"C1": 20.0, "C1E": 30.0, "C6": 0.0}
    # The closed accumulators are untouched by the snapshot.
    assert machine.idle_us == {"C1": 0.0, "C1E": 0.0, "C6": 0.0}
    machine.on_wake(0, 0.0, 100.0, "C1E")
    busy_snap = machine.snapshot(130.0)
    assert busy_snap["active_us"] == 30.0
    assert busy_snap["wakes"]["C1E"] == 1


def test_snapshot_conserves_core_time():
    machine = MachineEnergy("m0", 3, OsCosts())
    machine.on_wake(0, 0.0, 700.0, "C6")
    machine.on_sleep(0, 900.0)
    machine.on_wake(1, 0.0, 10.0, "C1")
    now = 2_000.0
    snap = machine.snapshot(now)
    total = snap["active_us"] + sum(snap["idle_us"].values())
    assert total == pytest.approx(3 * now)


# -- EnergyAccount -----------------------------------------------------------

def test_account_requires_enabled_config():
    with pytest.raises(ValueError, match="enabled"):
        EnergyAccount(EnergyConfig(), OsCosts())


def test_account_rejects_cost_model_with_unpriced_cstate():
    partial = EnergyConfig(
        enabled=True, idle_w=(("C1", 1.5),), wake_uj=(("C1", 2.0),)
    )
    # The default OsCosts descends to C1E/C6, which this model can't price.
    with pytest.raises(KeyError, match="C1E"):
        EnergyAccount(partial, OsCosts())


def test_account_rejects_duplicate_machine():
    account = EnergyAccount(EnergyConfig(enabled=True), OsCosts())
    account.add_machine("m0", 2)
    with pytest.raises(ValueError, match="already registered"):
        account.add_machine("m0", 2)


# -- EnergyConfig ------------------------------------------------------------

def test_config_validates_power_values():
    with pytest.raises(ValueError, match="active_w"):
        EnergyConfig(active_w=0.0)
    with pytest.raises(ValueError, match="idle_w"):
        EnergyConfig(idle_w=(("C1", -1.0),))


def test_config_normalizes_json_lists_to_tuples():
    config = EnergyConfig(idle_w=[["C1", 1.0]], wake_uj=[["C1", 2.0]])
    assert config.idle_w == (("C1", 1.0),)
    assert config.idle_watts("C1") == 1.0
    with pytest.raises(KeyError):
        config.idle_watts("C6")
    with pytest.raises(KeyError):
        config.wake_joules_uj("C6")


# -- EnergyReport ------------------------------------------------------------

def test_report_prices_snapshot_delta():
    config = EnergyConfig(enabled=True)  # active 3.5 W, C1 1.5 W, 2 uJ/wake
    start = {
        "m0": {"active_us": 0.0, "idle_us": {"C1": 0.0}, "wakes": {"C1": 0}},
    }
    end = {
        "m0": {"active_us": 100.0, "idle_us": {"C1": 50.0}, "wakes": {"C1": 3}},
    }
    report = EnergyReport.from_window(
        config, start, end, completed=10, duration_us=150.0
    )
    assert report.active_uj == 100.0 * 3.5
    assert report.idle_uj == {"C1": 50.0 * 1.5}
    assert report.wakeup_uj == {"C1": 3 * 2.0}
    assert report.total_uj == 350.0 + 75.0 + 6.0
    assert report.uj_per_query == report.total_uj / 10
    assert report.avg_power_w == report.total_uj / 150.0
    assert 0.0 < report.wake_share < 1.0
    data = report.to_dict()
    assert data["by_machine"]["m0"]["total_uj"] == report.total_uj
    assert data["idle_uj_total"] == 75.0
    assert data["wakeup_uj_total"] == 6.0


def test_report_handles_empty_window():
    report = EnergyReport.from_window(
        EnergyConfig(enabled=True), {}, {}, completed=0, duration_us=0.0
    )
    assert report.total_uj == 0.0
    assert report.uj_per_query == 0.0
    assert report.avg_power_w == 0.0
    assert report.wake_share == 0.0

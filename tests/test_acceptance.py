"""End-to-end acceptance gate.

Seven criteria, each printing one PASS/FAIL line.  They check the
simulator against the published measurements of the two hardware builds:
per-stage energies, solved sleep times, cycle periods, 8-hour packet
counts, delivery rates, and supercapacitor excursions, plus a compact
run of the behavioral invariants.
"""

import bisect
import statistics
from dataclasses import replace

import pytest

from liotsim.energy import (
    BLE_HARVESTER,
    BLE_PROFILE,
    LIOT_HARVESTER,
    LIOT_PROFILE,
    Stage,
    StageName,
    Supercap,
    active_totals,
    implied_harvest_power,
    solve_sleep_time,
    stage_energy,
)
from cases import shared_run, supercap_segment
from liotsim.kernel import run
from liotsim.metrics import export_records, load_records
from liotsim.scenario import load_preset, preset_dict, scenario_from_dict


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# Published (current mA, time s, energy J) rows for both builds, at 3.3 V.
BLE_ROWS = [
    (StageName.SENSOR_READ, 7.550, 0.260, 0.0065),
    (StageName.BLE_ADVERTISE, 0.400, 4.000, 0.0052),
    (StageName.BLE_DATA_EXCHANGE, 0.800, 1.300, 0.0034),
    (StageName.SLEEP, 0.070, 12.842, 0.0029),
    (StageName.SLEEP, 0.070, 20.520, 0.0047),
]
LIOT_ROWS = [
    (StageName.GW_REQUEST, 12.69, 0.428, 0.0179),
    (StageName.LIOT_SENSOR_READ, 17.73, 0.525, 0.0307),
    (StageName.LIOT_DATA_UPLOAD, 14.58, 3.58, 0.1722),
    (StageName.LIOT_SLEEP_SET, 9.81, 0.078, 0.0025),
    (StageName.SLEEP, 0.087, 620.0, 0.1780),
    (StageName.SLEEP, 0.087, 1350.0, 0.3876),
]


def test_criterion_1_stage_energy_reproduction(capsys):
    errors = []
    for name, ma, t, expected in BLE_ROWS + LIOT_ROWS:
        got = stage_energy(Stage(name, ma, t), 3.3)
        errors.append(abs(got - expected))
    worst = max(errors)
    _report(capsys, 1, "per-stage energies", worst <= 1e-4,
            f"worst deviation {worst:.2e} J (limit 1e-4 J) over "
            f"{len(errors)} rows")


def test_criterion_2_sleep_solver(capsys):
    targets = [
        (BLE_PROFILE, 12.842),
        (BLE_PROFILE, 20.520),
        (LIOT_PROFILE, 620.0),
        (LIOT_PROFILE, 1350.0),
    ]
    worst = 0.0
    for profile, t_sleep in targets:
        p = implied_harvest_power(profile, t_sleep)
        got = solve_sleep_time(profile, p)
        worst = max(worst, abs(got - t_sleep))
    _report(capsys, 2, "sleep-time solver round trip", worst <= 0.01,
            f"worst deviation {worst:.2e} s (limit 0.01 s)")


def _cycle_periods(preset: str) -> list[float]:
    result = shared_run(load_preset(preset))
    ends = [r.end_s for nr in result.nodes.values() for r in nr.records]
    return [b - a for a, b in zip(ends, ends[1:])]


def test_criterion_3_cycle_periods(capsys):
    checks = [
        ("liot-700lx", 624.6, 0.1),
        ("liot-500lx", 1354.6, 0.1),
        ("ble-700lx", 19.3, 0.2),
        ("ble-500lx", 26.7, 26.7 * 0.05),
    ]
    details = []
    ok = True
    for preset, target, tol in checks:
        period = statistics.mean(_cycle_periods(preset))
        ok = ok and abs(period - target) <= tol
        details.append(f"{preset} {period:.3f}s vs {target}±{tol:.3g}")
    _report(capsys, 3, "cycle periods", ok, "; ".join(details))


def _lossless(preset: str) -> dict:
    doc = preset_dict(preset)
    doc["channel"]["loss"] = 0.0
    return doc


def test_criterion_4_packet_counts(capsys):
    sent = {
        name: shared_run(scenario_from_dict(_lossless(name))).summary.nodes[0].packets_sent
        for name in ("liot-700lx", "liot-500lx", "ble-700lx", "ble-500lx")
    }
    ok = (
        sent["liot-700lx"] == 46
        and sent["liot-500lx"] == 21
        and abs(sent["ble-700lx"] - 1491) <= 1491 * 0.01
        and abs(sent["ble-500lx"] - 1042) <= 1042 * 0.05
    )
    _report(capsys, 4, "8-hour packet counts", ok,
            f"liot 700/500: {sent['liot-700lx']}/{sent['liot-500lx']} "
            f"(want 46/21 exact); ble 700/500: {sent['ble-700lx']}/"
            f"{sent['ble-500lx']} (want 1491±1%/1042±5%)")


def test_criterion_5_pdr_calibration(capsys):
    means = {}
    for preset, target, tol in (("ble-700lx", 0.991, 0.01),
                                ("ble-500lx", 0.912, 0.02)):
        pdrs = []
        for seed in range(1, 25):
            doc = preset_dict(preset)
            doc["seed"] = seed
            pdrs.append(shared_run(scenario_from_dict(doc)).summary.nodes[0].pdr)
        means[preset] = statistics.mean(pdrs)
    liot = shared_run(load_preset("liot-700lx")).summary.nodes[0].pdr
    ok = (
        abs(means["ble-700lx"] - 0.991) <= 0.01
        and abs(means["ble-500lx"] - 0.912) <= 0.02
        and liot == 1.0
    )
    _report(capsys, 5, "delivery-rate calibration", ok,
            f"ble mean PDR over 24 seeds: {means['ble-700lx']:.4f} "
            f"(want 0.991±0.01), {means['ble-500lx']:.4f} (want 0.912±0.02); "
            f"lossless liot: {liot:.3f} (want 1.000)")


def _mean_active_dip(preset: str) -> float:
    result = shared_run(load_preset(preset))
    (node_id, nr), = result.nodes.items()
    times = [t for t, _ in nr.trace]
    volts = [v for _, v in nr.trace]
    dips = []
    for r in nr.records[1:]:  # skip the boot transient
        lo = bisect.bisect_left(times, r.start_s)
        hi = bisect.bisect_right(times, r.end_s)
        peak = max(volts[lo:hi])
        dips.append(peak - r.scap_v_end)
    return statistics.mean(dips)


def test_criterion_6_supercap_excursion(capsys):
    ble = _mean_active_dip("ble-700lx")
    liot = _mean_active_dip("liot-700lx")
    ok = 0.003 <= ble <= 0.011 and 0.10 <= liot <= 0.22
    _report(capsys, 6, "per-cycle supercap dip", ok,
            f"ble {ble:.4f} V (accept 0.003-0.011), "
            f"liot {liot:.3f} V (accept 0.10-0.22)")


def test_criterion_7_behavioral_invariants(capsys, tmp_path):
    failures = []

    # Producer-consumer balance holds exactly at the solver output.
    for profile in (BLE_PROFILE, LIOT_PROFILE):
        for p_harv in (0.45, 0.76, 0.99):
            t_s = solve_sleep_time(profile, p_harv)
            t_a, e_a = active_totals(profile)
            harvested = p_harv * (t_a + t_s) * 1e-3
            consumed = e_a + profile.sleep_power_mw * t_s * 1e-3
            if abs(harvested - consumed) > 1e-9 * max(harvested, 1.0):
                failures.append(f"balance violated at {p_harv} mW")

    # More harvest power never lengthens sleep.
    sleeps = [solve_sleep_time(LIOT_PROFILE, p) for p in (0.45, 0.55, 0.65, 0.75)]
    if sleeps != sorted(sleeps, reverse=True):
        failures.append("solver not monotone in harvest power")

    # A closed charge-discharge cycle returns the starting voltage.
    cap = Supercap(0.4, 4.2)
    charged, _ = supercap_segment(cap, 5.0, 30.0)
    back, _ = supercap_segment(replace(cap, voltage_v=charged), -5.0, 30.0)
    if abs(back - cap.voltage_v) > 1e-9:
        failures.append("supercap closed cycle did not return")

    # Byte-identical reruns: a new run equals the one the session keeps.
    sc = load_preset("ble-500lx")
    if run(sc) != shared_run(sc):
        failures.append("rerun not deterministic")

    # Delivery rate never improves when the channel gets worse.
    pdrs = []
    for loss in (0.0, 0.05, 0.1):
        doc = preset_dict("ble-700lx")
        doc["duration_s"] = 3600.0
        doc["channel"]["loss"] = loss
        pdrs.append(shared_run(scenario_from_dict(doc)).summary.nodes[0].pdr)
    if pdrs != sorted(pdrs, reverse=True):
        failures.append(f"PDR not monotone in loss: {pdrs}")

    # Lossless export round trip.
    result = shared_run(load_preset("liot-700lx"))
    path = str(tmp_path / "records.csv")
    export_records((nr.record_columns for nr in result.nodes.values()), "csv", path)
    if load_records(path) != result.records:
        failures.append("record export round trip lossy")

    _report(capsys, 7, "behavioral invariants", not failures,
            "; ".join(failures) if failures else
            "balance, monotonicity, closed-cycle, determinism, "
            "loss response, export round trip all hold")

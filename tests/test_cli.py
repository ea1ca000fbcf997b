import csv
import json
import math

import numpy as np
import pytest

from pspb.cli import main
from pspb.reference import CsvReference, SinusoidReference


@pytest.fixture
def config_path(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


BASE = {"reference": {"name": "sinusoid", "amplitude": 30, "period": 1.0}}


def test_generate_emits_profiles_and_continuity(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["generate", "--config", config_path(BASE), "--out", str(out)])
    assert code == 0
    for scheme in ("434-1", "434-2", "545-1", "545-2", "656-1", "656-2"):
        assert (out / f"profile_{scheme}.csv").exists()
        assert (out / f"continuity_{scheme}.csv").exists()


def test_profile_shape_and_via_rows(tmp_path, config_path):
    out = tmp_path / "out"
    cfg = {**BASE, "schemes": ["434-1"]}
    main(["generate", "--config", config_path(cfg), "--out", str(out)])
    rows = read_csv(out / "profile_434-1.csv")
    assert len(rows) == 202  # 101 per phase
    times = [float(r["t"]) for r in rows]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert 0.12 in times and 0.48 in times
    cont = read_csv(out / "continuity_434-1.csv")
    assert {float(r["via_time"]) for r in cont} == {0.12, 0.48, 0.6, 0.68, 0.92}


def test_zero_waypoint_config(tmp_path, config_path):
    cfg = {
        "schemes": ["656-1"],
        "waypoints": {
            "stance": [[t, 0, 0, 0, 0] for t in (0, 0.12, 0.48, 0.6)],
            "swing": [[t, 0, 0, 0, 0] for t in (0.6, 0.68, 0.92, 1.0)],
        },
    }
    out = tmp_path / "out"
    assert main(["generate", "--config", config_path(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "profile_656-1.csv")
    assert all(float(r["position"]) == 0 for r in rows)
    cont = read_csv(out / "continuity_656-1.csv")
    assert all(float(r["jump"]) == 0 for r in cont)


def test_generate_is_deterministic(tmp_path, config_path):
    cfg = config_path(BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", cfg, "--out", str(out1)])
    main(["generate", "--config", cfg, "--out", str(out2)])
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes()


def test_compare_against_own_reference(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["compare", "--config", config_path(BASE), "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "error_report.csv")
    assert {r["quantity"] for r in rows} == {
        "Hip (Pos)", "Hip (Vel)", "Hip (Accel)", "Hip (Jerk)"
    }
    assert {r["scope"] for r in rows} == {"full", "stance", "swing"}
    # ADE/RMSE ratio pinned by the sample count
    for r in rows:
        if float(r["rmse"]) > 0:
            assert float(r["ade"]) / float(r["rmse"]) == pytest.approx(
                1 / math.sqrt(101), rel=1e-6
            )
    assert (out / "via_rmse.csv").exists()
    assert (out / "error_report.txt").exists()


def test_compare_via_smoothness_ordering(tmp_path, config_path):
    out = tmp_path / "out"
    main(["compare", "--config", config_path(BASE), "--out", str(out)])
    via = read_csv(out / "via_rmse.csv")

    def worst(scheme, order):
        return max(float(r["rmse"]) for r in via
                   if r["scheme"] == scheme and int(r["order"]) == order)

    # 656 variants keep acceleration continuous at via points, so their
    # windowed acceleration error is far below the jumping 434/545 variants
    assert worst("656-1", 2) < 0.1 * worst("434-1", 2)
    assert worst("656-1", 2) < 0.1 * worst("545-1", 2)
    assert worst("656-2", 2) < 0.1 * worst("434-2", 2)
    assert worst("656-2", 2) < 0.1 * worst("545-2", 2)


def test_compare_needs_reference(tmp_path, config_path):
    cfg = {"waypoints": {
        "stance": [[t, 0, 0, 0, 0] for t in (0, 0.12, 0.48, 0.6)],
        "swing": [[t, 0, 0, 0, 0] for t in (0.6, 0.68, 0.92, 1.0)],
    }}
    assert main(["compare", "--config", config_path(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_benchmark_three_rows(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["benchmark", "--config", config_path(BASE), "--out", str(out),
                 "--repetitions", "100"])
    assert code == 0
    rows = read_csv(out / "benchmark.csv")
    assert [r["family"] for r in rows] == ["434", "545", "656"]
    assert all(int(r["repetitions"]) == 100 for r in rows)


def test_benchmark_rejects_low_repetitions(tmp_path, config_path):
    assert main(["benchmark", "--config", config_path(BASE),
                 "--out", str(tmp_path / "o"), "--repetitions", "10"]) == 2


def test_bad_config_exit_codes(tmp_path, config_path):
    missing = str(tmp_path / "nope.json")
    assert main(["generate", "--config", missing, "--out", str(tmp_path)]) == 4

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["generate", "--config", str(bad_json),
                 "--out", str(tmp_path)]) == 2

    bad_scheme = config_path({"schemes": ["999-9"]}, "s.json")
    assert main(["generate", "--config", bad_scheme, "--out", str(tmp_path)]) == 2

    bad_times = config_path({**BASE, "stance_times": [0, 0.5, 0.4, 0.6]}, "t.json")
    assert main(["generate", "--config", bad_times, "--out", str(tmp_path)]) == 2

    for name, cfg in {
        "dt": {**BASE, "schemes": ["434-1"], "sim": {"enabled": True, "dt": 0.5}},
        "kp": {**BASE, "sim": {"kp": -1}},
        "samples": {**BASE, "samples": "abc"},
        "period": {"reference": {"name": "sinusoid", "period": 0}},
    }.items():
        path = config_path(cfg, f"{name}.json")
        assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 2, name


def test_csv_reference_roundtrip(tmp_path, config_path):
    ref = SinusoidReference(20.0, 1.0)
    times = np.linspace(0, 1, 401)
    lines = ["t,pos,vel,acc,jerk"] + [
        f"{t:.12g}," + ",".join(f"{ref(t, k):.12g}" for k in range(4))
        for t in times
    ]
    path = tmp_path / "ref.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = CsvReference.from_file(path)
    for t in (0.1, 0.33, 0.77):
        assert loaded(t, 0) == pytest.approx(ref(t, 0), abs=1e-4)
        assert loaded(t, 1) == pytest.approx(ref(t, 1), rel=1e-3)

    cfg = {**BASE, "reference": {"csv": str(path)}, "schemes": ["656-2"]}
    out = tmp_path / "out"
    assert main(["compare", "--config", config_path(cfg), "--out", str(out)]) == 0


def test_csv_reference_derivatives_by_differences(tmp_path):
    ref = SinusoidReference(20.0, 1.0)
    times = np.linspace(0, 1, 801)
    lines = ["t,pos"] + [f"{t:.12g},{ref(t, 0):.12g}" for t in times]
    path = tmp_path / "pos_only.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = CsvReference.from_file(path)
    assert loaded(0.3, 1) == pytest.approx(ref(0.3, 1), rel=1e-3)


def test_sim_toggle_emits_tracking(tmp_path, config_path):
    cfg = {**BASE, "schemes": ["656-2"],
           "sim": {"enabled": True, "kp": 500, "kd": 50, "dt": 1e-3}}
    out = tmp_path / "out"
    assert main(["generate", "--config", config_path(cfg), "--out", str(out)]) == 0
    assert (out / "tracking_656-2.csv").exists()

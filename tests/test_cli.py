import copy
import csv
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pspb import cli, poly, schemes, solver
from pspb.cli import QUANTITY_LABELS, RunConfig, _write_csv, main
from pspb.metrics import SampledSeries, ade, rmse, sample, via_point_rmse
from pspb.reference import CsvReference, SinusoidReference, waypoints_from_reference
from pspb.schemes import SCHEME_NAMES, PiecewiseTrajectory, evaluate


@pytest.fixture
def config_path(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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
    # Outputs are rewritten in place and cut to length, so a directory holding
    # the longer files of a 1000-sample run must end up as a fresh one does.
    cfg, long = config_path(BASE), config_path({**BASE, "samples": 1000}, "long.json")
    reused, fresh = tmp_path / "a", tmp_path / "b"
    for doc, out in ((long, reused), (cfg, reused), (cfg, fresh)):
        for verb in ("generate", "compare"):
            assert main([verb, "--config", doc, "--out", str(out)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in reused.iterdir()) == names and len(names) == 15
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


def test_rewrite_keeps_inode_mode_and_hard_links(tmp_path, config_path):
    cfg = config_path({**BASE, "schemes": ["434-1"]})
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    target = out / "profile_434-1.csv"
    target.write_text("stale\n" * 10_000)
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    os.link(target, link)
    before = target.stat()
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(fresh)]) == 0
    after = target.stat()
    assert after.st_ino == before.st_ino and after.st_nlink == 2
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert link.read_bytes() == target.read_bytes() == (fresh / target.name).read_bytes()


def test_short_writes_give_the_same_bytes(tmp_path, config_path, monkeypatch, capsys):
    # The writer loops on short writes: at most 7 bytes per os.write, every file, the
    # tracking CSV's blocks past the first included, holds what a full write gives.
    cfg = config_path({**BASE, "schemes": ["656-1"], "sim": {"enabled": True, "dt": 2e-4}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    calls = []
    monkeypatch.setattr(os, "write", lambda fd, data, write=os.write:
                        calls.append(len(data)) or write(fd, data[:7]))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "short")]) == 0
    capsys.readouterr()
    full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
    assert full["tracking_656-1.csv"].count(b"\n") > cli.CSV_BLOCK_ROWS + 1
    assert {p.name: p.read_bytes() for p in (tmp_path / "short").iterdir()} == full
    assert len(calls) >= sum(len(data) for data in full.values()) / 7


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_a_failed_write_leaves_no_descriptor_open(tmp_path, config_path, capsys):
    # The second path is a directory: exit 4 with one `[Errno 21]` line, and the first
    # path's descriptor is closed. So is every one when a chunk raises mid-write.
    cfg = config_path({**BASE, "schemes": ["434-1", "434-2"]})
    out = tmp_path / "out"
    (out / "profile_434-2.csv").mkdir(parents=True)
    before = open_descriptors()
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == \
        f"error: [Errno 21] Is a directory: '{out / 'profile_434-2.csv'}'\n"
    assert open_descriptors() == before

    def chunks():
        yield [["a\n"], ["b\n"]]
        raise RuntimeError("a chunk fails mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        cli._write_text([tmp_path / "a.txt", tmp_path / "b.txt"], chunks())
    assert open_descriptors() == before


def test_each_verb_opens_each_output_once(tmp_path, config_path, monkeypatch, capsys):
    # Counted once opened: the first open into a fresh --out fails, for want of its directory.
    cfg = config_path({**BASE, "sim": {"enabled": True, "dt": 1e-3}})
    opened = []
    monkeypatch.setattr(os, "open", lambda path, *args, open_=os.open:
                        (open_(path, *args), opened.append(Path(path).name))[0])
    for verb, files in (("generate", 18), ("compare", 3)):
        out = tmp_path / verb
        assert main([verb, "--config", cfg, "--out", str(out)]) == 0
        assert sorted(opened) == sorted(p.name for p in out.iterdir()) and len(opened) == files
        opened.clear()
    capsys.readouterr()


def test_a_rewrite_into_an_existing_out_makes_no_directory(tmp_path, config_path, monkeypatch,
                                                          capsys):
    # The writer opens each path first and makes its directory only when that fails for
    # want of one: a verb's first run makes --out once, and a rerun into it calls no mkdir.
    cfg = config_path({**BASE, "sim": {"enabled": True, "dt": 1e-3}})
    made = []
    monkeypatch.setattr(Path, "mkdir", lambda self, *args, mkdir=Path.mkdir, **kwargs:
                        made.append(self) or mkdir(self, *args, **kwargs))
    for verb in ("generate", "compare"):
        out = tmp_path / verb
        for run in ([out], []):
            assert main([verb, "--config", cfg, "--out", str(out)]) == 0
            assert made == run
            made.clear()
    capsys.readouterr()


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


def public_compare_tables(doc):
    """compare's two tables rebuilt one order at a time through the public
    metrics: sample + rmse/ade per scope, via_point_rmse per order."""
    config = RunConfig(doc)
    ref = config.reference
    errors, vias = [], []
    for name in config.schemes:
        traj = config.build_gait(name)
        scopes = {"full": traj, "stance": PiecewiseTrajectory(traj.segments[:3]),
                  "swing": PiecewiseTrajectory(traj.segments[3:])}
        for scope, sub in scopes.items():
            for order, label in enumerate(QUANTITY_LABELS):
                gen = sample(sub, config.samples, order)
                expected = SampledSeries(gen.times, ref(gen.times, order), order)
                errors.append([name, scope, label, rmse(gen, expected), ade(gen, expected)])
        for order in range(4):
            vias += [[name, w.via_time, order, w.rmse, int(w.clipped)]
                     for w in via_point_rmse(traj, ref, order, config.via_window)]
    return {"error_report.csv": errors, "via_rmse.csv": vias}


def same_cells(row, other):
    """Equal cell by cell, floats to the last bit."""
    bits = [np.float64(v).view(np.int64) if isinstance(v, float) else v for v in row]
    return bits == [np.float64(v).view(np.int64) if isinstance(v, float) else v
                    for v in other] and list(map(type, row)) == list(map(type, other))


@pytest.mark.parametrize("setup", ["default", "off_timing_csv"])
def test_compare_matches_public_metrics_bitwise(tmp_path, config_path, monkeypatch, setup):
    doc = BASE
    if setup == "off_timing_csv":
        ref = SinusoidReference(30.0, 1.0)
        lines = ["t,pos,vel"] + [f"{t:.17g},{ref(t, 0):.17g},{ref(t, 1):.17g}"
                                 for t in np.linspace(0, 1, 401)]
        (tmp_path / "ref.csv").write_text("\n".join(lines) + "\n")
        doc = {"stance_times": [0.0, 0.07, 0.41, 0.63], "swing_times": [0.63, 0.71, 0.88, 1.0],
               "reference": {"csv": str(tmp_path / "ref.csv")}, "samples": 57,
               "via_window": 0.2}
    written = {}

    def capture(paths, header, tables):
        (path,), ((rows,),) = paths, tables
        written[path.name] = rows
        write_csv(paths, header, tables)

    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", capture)
    out = tmp_path / "out"
    assert main(["compare", "--config", config_path(doc), "--out", str(out)]) == 0
    expected = public_compare_tables(doc)
    assert written.keys() == expected.keys()
    for table, rows in expected.items():
        assert len(written[table]) == len(rows) == (72 if table == "error_report.csv" else 120)
        assert all(same_cells(a, b) for a, b in zip(written[table], rows)), table
        # The file holds exactly what the rows format to.
        header = (out / table).read_text().split("\n", 1)[0].split(",")
        write_csv([tmp_path / table], header, [[rows]])
        assert (out / table).read_bytes() == (tmp_path / table).read_bytes()
    clipped = sum(row[-1] for row in expected["via_rmse.csv"])
    assert clipped == (0 if setup == "default" else 48)


def test_compare_in_blocks_matches_public_metrics_bitwise(tmp_path, config_path,
                                                          monkeypatch):
    # Grids read in blocks of 7 samples: compare's RMSEs are still the whole grid's.
    written, write_csv = {}, cli._write_csv
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(cli, "_write_csv", lambda paths, header, tables: written.update(
        {paths[0].name: tables[0][0]}) or write_csv(paths, header, tables))
    assert main(["compare", "--config", config_path(BASE), "--out", str(tmp_path / "o")]) == 0
    rows = public_compare_tables(BASE)["error_report.csv"]
    assert len(rows) == 72
    assert all(same_cells(a, b) for a, b in zip(written["error_report.csv"], rows, strict=True))


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


@pytest.mark.parametrize("verb", ["generate", "compare", "benchmark"])
def test_waypoints_are_sampled_once_per_run(tmp_path, config_path, monkeypatch, verb):
    # Stance and swing once, shared by all six schemes (and by every benchmark
    # repetition), and never while the config is parsed.
    calls = []

    def counting(reference, times):
        calls.append(times)
        return waypoints_from_reference(reference, times)

    monkeypatch.setattr(cli, "waypoints_from_reference", counting)
    RunConfig(BASE)
    assert calls == []
    argv = [verb, "--config", config_path(BASE), "--out", str(tmp_path / "out")]
    assert main(argv + ["--repetitions", "100"] * (verb == "benchmark")) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("verb, reads", [("generate", 3), ("compare", 4)])
def test_each_grid_is_read_once_for_every_scheme(tmp_path, config_path, monkeypatch,
                                                 verb, reads):
    # generate reads the stance and the swing grid and the via-point limits;
    # compare the full, stance and swing grids and the via windows, and samples
    # the reference once per grid and order. Each verb stacks its gaits into one
    # table, and each read runs the kernel once on it, for one scheme as for six.
    # Explicit waypoints and mid-points leave the reference to the metrics alone.
    ref = SinusoidReference()
    doc = {**BASE, "waypoints": {
        phase: [[t, *(float(ref(t, k)) for k in range(4))] for t in times]
        for phase, times in (("stance", [0.0, 0.12, 0.48, 0.6]),
                             ("swing", [0.6, 0.68, 0.92, 1.0]))},
        "midpoints": {phase: {"0": 1.0, "1": 2.0, "2": 3.0} for phase in ("stance", "swing")}}
    counts = {}

    def counting(name, function):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return function(*args)
        return counted

    monkeypatch.setattr(schemes, "_build_table", counting("tables", schemes._build_table))
    monkeypatch.setattr(schemes, "horner_rows", counting("reads", schemes.horner_rows))
    monkeypatch.setattr(SinusoidReference, "__call__",
                        counting("reference", SinusoidReference.__call__))
    seen = []
    for names in (["656-2"], list(SCHEME_NAMES)):
        counts.clear()
        path = config_path({**doc, "schemes": names})
        assert main([verb, "--config", path, "--out", str(tmp_path / "out")]) == 0
        seen.append(dict(counts))
    want = {"tables": 1, "reads": reads}
    if verb == "compare":
        want["reference"] = 16
    assert seen == [want, want]


def test_profiles_meet_at_the_shared_phase_time_from_each_side(tmp_path, config_path,
                                                               monkeypatch):
    # Each phase's grid reads its own rows of the one stacked table. At the time both
    # phases share, the stance profile ends on stance's last segment (the left limit)
    # and the swing profile starts on swing's first (the right limit), to the bit.
    blocks = []

    def grid(*args, read=cli._grid):
        for block in read(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(cli, "_grid", grid)
    assert main(["generate", "--config", config_path(BASE), "--out", str(tmp_path / "o")]) == 0
    n = len(SCHEME_NAMES)
    profiles = [np.column_stack([times, one.T]) for _, times, values in blocks for one in values]
    assert len(profiles) == 2 * n  # one block per phase and scheme: stance, then swing
    config, sides_differ = RunConfig(BASE), 0
    for name, stance, swing in zip(SCHEME_NAMES, profiles[:n], profiles[n:], strict=True):
        gait = config.build_gait(name)
        left = evaluate(gait._rows(slice(3)), 0.6, slice(None))
        right = evaluate(gait._rows(slice(3, 6)), 0.6, slice(None))
        assert stance[-1, 0] == swing[0, 0] == 0.6
        assert same_bits(stance[-1, 1:], left) and same_bits(swing[0, 1:], right)
        sides_differ += not same_bits(left, right)
    assert sides_differ  # so a grid reading the other phase's row at 0.6 would show


@pytest.mark.parametrize("names", [["545-2"], list(SCHEME_NAMES)], ids=["one", "six"])
def test_profiles_are_each_phase_grid_read_by_evaluate(tmp_path, config_path, monkeypatch,
                                                       names):
    # Blocks of 7 rows over 30 samples per phase: every row of every profile is its own
    # time on np.linspace's grid of its phase beside its own scheme's values there, as a
    # per-cell writer formats them, so no time goes with another block's or scheme's rows.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    doc = {**BASE, "schemes": names, "samples": 30}
    assert main(["generate", "--config", config_path(doc), "--out", str(tmp_path / "o")]) == 0
    config = RunConfig(doc)
    for name in names:
        gait, rows = config.build_gait(name), []
        for phase in (gait._rows(slice(3)), gait._rows(slice(3, 6))):
            times = np.linspace(phase.t_start, phase.t_end, 30)
            values = evaluate(phase, times, slice(None))
            rows += [[t, *cells] for t, cells in zip(times.tolist(), values.T.tolist())]
        header = ["t", "position", "velocity", "acceleration", "jerk"]
        assert (tmp_path / "o" / f"profile_{name}.csv").read_text() == per_cell_csv(header, rows)


def test_missing_gait_inputs_fail_at_the_first_build(tmp_path, config_path, capsys):
    def run(verb, doc):
        code = main([verb, "--config", config_path(doc), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    assert run("generate", {"schemes": []}) == (0, "")
    assert not (tmp_path / "o").exists()  # no file written, so no --out made
    need = "error: config needs either an explicit waypoint table or a reference\n"
    assert run("generate", {}) == (2, need)
    assert run("compare", {}) == (2, "error: compare needs a reference (csv or sinusoid)\n")
    # No scheme: nothing is evaluated, and compare writes its tables' headers only.
    assert run("compare", {"schemes": [], "reference": {"name": "sinusoid"}}) == (0, "")
    files = {p.name: p.read_text() for p in (tmp_path / "o").iterdir()}
    assert files == {"error_report.csv": "scheme,scope,quantity,rmse,ade\n",
                     "via_rmse.csv": "scheme,via_time,order,rmse,clipped\n",
                     "error_report.txt": "\n"}


def test_benchmark_three_rows(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["benchmark", "--config", config_path(BASE), "--out", str(out),
                 "--repetitions", "100"])
    assert code == 0
    rows = read_csv(out / "benchmark.csv")
    assert [r["family"] for r in rows] == ["434", "545", "656"]
    assert all(int(r["repetitions"]) == 100 for r in rows)
    # Each family after the first has its step over the previous one, inside
    # its bootstrap interval; the 434 row leaves those cells blank.
    assert list(rows[0]) == ["family", "median_s", "mean_s", "repetitions",
                             "ratio_to_previous", "ratio_low", "ratio_high"]
    assert [rows[0][k] for k in ("ratio_to_previous", "ratio_low", "ratio_high")] == [""] * 3
    for row in rows[1:]:
        low, ratio, high = (float(row[k]) for k in ("ratio_low", "ratio_to_previous",
                                                     "ratio_high"))
        assert 0 < low <= ratio <= high
    assert "ratio [95% interval]" in capsys.readouterr().out


def test_ratio_interval_is_a_seeded_bootstrap_of_the_median():
    ratios = [1.0 + 0.01 * ((7 * i) % 13) for i in range(101)]
    ratio, low, high = cli._ratio_interval(ratios)
    assert ratio == 1.06 and low <= ratio <= high
    assert cli._ratio_interval(ratios) == (ratio, low, high)


def test_benchmark_rejects_low_repetitions(tmp_path, config_path):
    assert main(["benchmark", "--config", config_path(BASE),
                 "--out", str(tmp_path / "o"), "--repetitions", "10"]) == 2


def test_bad_config_exit_codes(tmp_path, config_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["generate", "--config", missing, "--out", str(tmp_path)]) == 4
    # An OSError once the config is read, such as --out naming a file, is an I/O error too.
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    capsys.readouterr()
    assert main(["generate", "--config", config_path(BASE), "--out", str(a_file)]) == 4
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{a_file}'\n"
    # benchmark finds it at its one write, after its timing rounds.
    assert main(["benchmark", "--config", config_path(BASE), "--out", str(a_file),
                 "--repetitions", "100"]) == 4
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{a_file}'\n"

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["generate", "--config", str(bad_json),
                 "--out", str(tmp_path)]) == 2

    bad_scheme = config_path({"schemes": ["999-9"]}, "s.json")
    assert main(["generate", "--config", bad_scheme, "--out", str(tmp_path)]) == 2

    bad_times = config_path({**BASE, "stance_times": [0, 0.5, 0.4, 0.6]}, "t.json")
    assert main(["generate", "--config", bad_times, "--out", str(tmp_path)]) == 2

    t_only = tmp_path / "t_only.csv"
    t_only.write_text("t\n0\n1\n")
    short_rows = tmp_path / "short_rows.csv"
    short_rows.write_text("t,pos,vel\n0,1\n1,2\n")
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("t,pos,pos\n0,1,2\n1,2,3\n")
    # A 1e-100 s segment solves exactly, to a jerk near -1e88: a timing
    # typo, rejected below MIN_SEGMENT_FRACTION of its phase.
    tiny = [0, 1e-100, 0.2495, 0.7284]
    for name, cfg in {
        "dt": {**BASE, "schemes": ["434-1"], "sim": {"enabled": True, "dt": 0.5}},
        "kp": {**BASE, "sim": {"kp": -1}},
        "samples": {**BASE, "samples": "abc"},
        "period": {"reference": {"name": "sinusoid", "period": 0}},
        "ref_string": {"reference": "sinusoid"},
        "header_t_only": {"reference": {"csv": str(t_only)}},
        "amplitude_nan": {"reference": {"name": "sinusoid", "amplitude": math.nan}},
        "period_inf": {"reference": {"name": "sinusoid", "period": math.inf}},
        "schemes_string": {**BASE, "schemes": "434-1"},
        "sim_steps": {**BASE, "schemes": ["434-1"], "sim": {"enabled": True, "dt": 1e-12}},
        "samples_list": {**BASE, "samples": [1]},
        "samples_inf": {**BASE, "samples": math.inf},
        "csv_number": {"reference": {"csv": 5}},
        "amplitude_list": {"reference": {"name": "sinusoid", "amplitude": [1]}},
        "stance_times_number": {**BASE, "stance_times": 5},
        "stance_times_nan": {**BASE, "stance_times": [0, 0.12, math.nan, 0.6]},
        "sim_number": {**BASE, "sim": 3},
        "via_window_nan": {**BASE, "via_window": math.nan},
        "kp_nan": {**BASE, "sim": {"kp": math.nan}},
        "waypoints_number": {"waypoints": 5},
        "midpoints_number": {**BASE, "midpoints": 5},
        "sim_enabled_string": {**BASE, "schemes": ["434-1"], "sim": {"enabled": "false"}},
        "samples_fraction": {**BASE, "samples": 2.7},
        "kp_bool": {**BASE, "sim": {"kp": True}},
        "stance_subnormal": {**BASE, "stance_times": [0, 1e-300, 0.48, 0.6]},
        "stance_tiny_segment": {**BASE, "stance_times": tiny,
                                "swing_times": [0.7284, 0.8, 0.9, 1.0]},
        "waypoints_tiny_segment": {"schemes": ["434-1"], "waypoints": {
            "stance": [[0, 10, 0, 0, 0], [1e-100, 12, 5], [0.2495, -3, -4],
                       [0.7284, 0, 0, 0, 0]],
            "swing": [[0.7284, 0, 0, 0, 0], [0.8, 4, 6], [0.9, 8, 1], [1.0, 10, 0, 0, 0]],
        }},
        "csv_short_rows": {"reference": {"csv": str(short_rows)}},
        "csv_repeated_column": {"reference": {"csv": str(repeated)}},
        # Rejected before anything is allocated: numpy would fail on 7 PiB.
        "samples_huge": {"schemes": ["434-1"], "reference": {"name": "sinusoid"},
                         "samples": 10**15},
        # A number must be a JSON number, and one no float holds is refused before
        # any conversion can overflow.
        "samples_string": {"samples": "7", "schemes": ["434-1"],
                           "reference": {"name": "sinusoid", "period": 1.0}},
        "period_string": {"schemes": ["434-1"],
                          "reference": {"name": "sinusoid", "period": "1.0"}},
        "kp_string": {**BASE, "schemes": ["434-1"], "sim": {"kp": "500"}},
        "samples_400_digits": {**BASE, "schemes": ["434-1"], "samples": int("9" * 400)},
    }.items():
        path = config_path(cfg, f"{name}.json")
        assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 2, name

    # Nested past the parser's recursion limit, bytes that are not UTF-8, and an
    # integer of more than the 4,300 digits int() converts (a ValueError that is no
    # JSONDecodeError; a Python without that limit parses it and _number refuses
    # it): each a config error in one line, not a traceback.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"samples": "\xe9"}'.encode("latin-1"))
    limited = hasattr(sys, "get_int_max_str_digits")
    for path, invalid in ((config_path("[" * 100000 + "]" * 100000, "deep.json"), True),
                          (str(latin1), True),
                          (config_path('{"samples": ' + "1" * 5000 + "}", "n.json"), limited)):
        capsys.readouterr()
        assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 2, path
        err = capsys.readouterr().err
        prefix = "error: config is not valid JSON: " if invalid else "error: samples: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert "Traceback" not in err


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


def test_csv_reference_must_cover_gait(tmp_path, config_path, capsys):
    ref = SinusoidReference(20.0, 1.0)
    lines = ["t,pos"] + [f"{t:.12g},{ref(t, 0):.12g}" for t in np.linspace(0, 0.3, 31)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = config_path({"reference": {"csv": str(path)}})
    for verb in ("generate", "compare"):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / verb)]) == 2
        assert "do not cover the gait [0, 1]" in capsys.readouterr().err


README_WAYPOINTS = {
    "stance": [[0.0, 10, 0, 0, 0], [0.12, 12, 5], [0.48, -3, -4], [0.6, 0, 0, 0, 0]],
    "swing": [[0.6, 0, 0, 0, 0], [0.68, 4, 6], [0.92, 8, 1], [1.0, 10, 0, 0, 0]],
}
# 434-1 waypoints on [0, 2]: past the end of a CSV reference on [0, 1].
LONG_WAYPOINTS = {
    phase: [[t, 0, 0, 0, 0] for t in times]
    for phase, times in (("stance", [0, 0.3, 0.9, 1.2]), ("swing", [1.2, 1.4, 1.8, 2.0]))}
SINE_CSV = "t,pos,vel\n" + "".join(
    f"{t!r},{30 * math.sin(2 * math.pi * t)!r},{60 * math.pi * math.cos(2 * math.pi * t)!r}\n"
    for t in (i / 400 for i in range(401)))
# Configs refused before --out is made: the config over BASE (a CSV file's text for
# its reference, if any) and the one error line, "{csv}" standing for that file's path.
REFUSED_BEFORE_OUT = {
    "phases_apart": ({"swing_times": [0.7, 0.8, 0.9, 1.0]}, None,
                     "stance_times must end where swing_times begins"),
    # Explicit waypoints set the gait's span, so a CSV that ends before them is refused;
    # it used to be read past its end as np.interp's clamped last row.
    "waypoints_past_csv": ({"schemes": ["434-1"], "waypoints": LONG_WAYPOINTS}, SINE_CSV,
                           "reference.csv: times [0, 1] do not cover the gait [0, 2]"),
    # Times beside explicit waypoints must be theirs; they used to be dropped without a word.
    "stance_times_not_waypoints": (
        {"waypoints": README_WAYPOINTS, "stance_times": [0, 0.3, 0.5, 0.6]}, None,
        "stance_times: [0, 0.3, 0.5, 0.6] are not waypoints.stance's times [0.0, 0.12, 0.48, 0.6]"),
    "swing_times_not_waypoints": (
        {"waypoints": README_WAYPOINTS, "stance_times": [0, 0.12, 0.48, 0.6],
         "swing_times": [0.6, 0.7, 0.9, 1.0]}, None,
        "swing_times: [0.6, 0.7, 0.9, 1.0] are not waypoints.swing's times "
        "[0.6, 0.68, 0.92, 1.0]"),
    # Explicit waypoints whose phases do not chain: the line names the waypoint tables.
    "waypoints_apart": (
        {"waypoints": {**README_WAYPOINTS,
                       "swing": [[0.65, 0, 0, 0, 0], *README_WAYPOINTS["swing"][1:]]}}, None,
        "waypoints.stance ends at 0.6 but waypoints.swing starts at 0.65"),
    # A negative gain keeps its own line (inf and NaN are refused by the config's reader).
    "kp_negative": ({"sim": {"kp": -1}}, None, "gains must be non-negative"),
    # A scheme named twice used to be solved twice, its profile opened twice at once and
    # its compare rows written twice.
    "repeated_scheme": ({"schemes": ["434-1", "545-2", "434-1"]}, None,
                        "schemes: '434-1' is given twice"),
    "waypoints_not_increasing": (
        {"waypoints": {**README_WAYPOINTS, "swing": README_WAYPOINTS["swing"][::-1]}}, None,
        "waypoints.swing: times must be strictly increasing: [1.0, 0.92, 0.68, 0.6]"),
    "csv_one_row": ({}, "t,pos\n0,1\n", "reference grid needs at least 2 points"),
    "csv_unsorted": ({}, "t,pos\n0,1\n0.5,2\n0.25,3\n1,0\n",
                     "reference times must be strictly increasing"),
    "csv_no_rows": ({}, "t,pos\n", "{csv}: no data rows"),
    "csv_unknown_column": ({}, "t,pos,speed\n0,1,2\n1,2,3\n", "{csv}: unknown column 'speed'"),
    # A cell that is not a number: the line names the file and the row.
    "csv_not_a_number": ({}, "t,pos\n0,1\n0.5,abc\n1,0\n",
                         "{csv}: every cell must be a number, got ['0.5', 'abc']"),
    # Errors found while a gait is built: --out is made by the first file, after every build.
    "segment_too_short": ({"stance_times": [0, 1e-9, 0.5, 0.6]}, None,
                          "each segment must span at least 1e-06 of its phase, "
                          "got waypoint times [0.0, 1e-09, 0.5, 0.6]"),
    "waypoint_without_velocity": (
        {"schemes": ["656-1"],
         "waypoints": {**README_WAYPOINTS, "stance": [[0.0, 10, 0, 0, 0], [0.12, 12],
                                                      *README_WAYPOINTS["stance"][2:]]}}, None,
        "scheme 656-1 segment 1 needs derivative order 1 at t=0.12, "
        "but the waypoint does not define it"),
    "phase_without_midpoint": (
        {"schemes": ["434-2"], "midpoints": {"stance": {"0": 11}}}, None,
        "scheme 434-2 needs a mid-point position for segment 3 (t=0.54) and none was supplied"),
}
# Configs one verb refuses before --out is made: that verb and its other arguments, the
# whole config and the one error line.
REFUSED_BEFORE_OUT_BY_VERB = {
    # simulate_tracking checks dt on the first scheme, which is simulated before its files.
    "dt_too_long": (["generate"], {**BASE, "schemes": ["434-1"],
                                   "sim": {"enabled": True, "dt": 0.5}},
                    "dt must be in (0, 0.008] for this trajectory"),
    "dt_negative": (["generate"], {**BASE, "schemes": ["434-1", "656-1"],
                                   "sim": {"enabled": True, "dt": -1}},
                    "dt must be in (0, 0.008] for this trajectory"),
    "dt_too_many_steps": (["generate"], {**BASE, "schemes": ["434-1"],
                                         "sim": {"enabled": True, "dt": 1e-7}},
                          "dt=1e-07 needs more than 1000000 steps for this trajectory"),
    "neither_waypoints_nor_reference": (
        ["generate"], {}, "config needs either an explicit waypoint table or a reference"),
    "compare_without_reference": (["compare"], {"waypoints": README_WAYPOINTS},
                                  "compare needs a reference (csv or sinusoid)"),
    "benchmark_repetitions": (["benchmark", "--repetitions", "5"], BASE,
                              "benchmark needs >= 100 repetitions, got 5"),
}


@pytest.mark.parametrize("verb", ["generate", "compare"])
@pytest.mark.parametrize("name", list(REFUSED_BEFORE_OUT))
def test_refused_before_out_is_made(tmp_path, config_path, capsys, name, verb):
    doc, text, message = REFUSED_BEFORE_OUT[name]
    csv_path = tmp_path / "ref.csv"
    if text is not None:
        csv_path.write_text(text)
        doc = {**doc, "reference": {"csv": str(csv_path)}}
    out = tmp_path / "out"
    assert main([verb, "--config", config_path({**BASE, **doc}), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(csv=csv_path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", list(REFUSED_BEFORE_OUT_BY_VERB))
def test_refused_by_its_verb_before_out_is_made(tmp_path, config_path, capsys, name):
    (verb, *options), doc, message = REFUSED_BEFORE_OUT_BY_VERB[name]
    out = tmp_path / "out"
    assert main([verb, "--config", config_path(doc), "--out", str(out), *options]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_explicit_waypoints_set_the_gait_times(tmp_path, config_path):
    # The config's timing checks read the times the gait is solved on.
    config = RunConfig({"waypoints": LONG_WAYPOINTS})
    assert (config.stance_times, config.swing_times) == ([0, 0.3, 0.9, 1.2], [1.2, 1.4, 1.8, 2])
    # Times equal to the waypoints' are accepted, and change no byte.
    doc = {**BASE, "schemes": ["434-1", "434-2"], "waypoints": README_WAYPOINTS,
           "midpoints": {"stance": {"0": 11, "2": -1.5}, "swing": {"0": 2, "2": 9}}}
    times = {"stance_times": [0, 0.12, 0.48, 0.6], "swing_times": [0.6, 0.68, 0.92, 1]}
    runs = []
    for name, extra in (("without", {}), ("with", times)):
        for verb in ("generate", "compare"):
            out = tmp_path / name
            assert main([verb, "--config", config_path({**doc, **extra}), "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(runs[0]) == 7 and runs[0] == runs[1]


def test_non_finite_input_is_config_error(tmp_path, config_path, capsys):
    ref = SinusoidReference(20.0, 1.0)
    lines = ["t,pos"] + [f"{t:.12g},{ref(t, 0):.12g}" for t in np.linspace(0, 1, 11)]
    lines[6] = "0.5,nan"
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n")
    stance = [[t, 0, 0, 0, 0] for t in (0, 0.12, 0.48, 0.6)]
    stance[1][2] = math.nan
    waypoints = {"stance": stance,
                 "swing": [[t, 0, 0, 0, 0] for t in (0.6, 0.68, 0.92, 1.0)]}
    for name, cfg, message in (
        ("csv", {"reference": {"csv": str(path)}}, "(t=0.5) is not finite"),
        ("waypoints", {"waypoints": waypoints}, "waypoints.stance: expected a finite"),
    ):
        out = str(tmp_path / name)
        assert main(["generate", "--config", config_path(cfg, f"{name}.json"),
                     "--out", out]) == 2, name
        assert message in capsys.readouterr().err


OVERFLOW_CONFIGS = {
    # duration**2 overflows already; the span check names the cube all the same.
    "huge_times": {"schemes": ["434-1"], "reference": {"name": "sinusoid"},
                   "stance_times": [0, 1e300, 2e300, 3e300],
                   "swing_times": [3e300, 4e300, 5e300, 6e300]},
    # (2 pi / period)**order overflows in the sinusoid's derivatives.
    "tiny_period": {"schemes": ["434-1"], "reference": {"name": "sinusoid", "period": 1e-300}},
    # 2 pi / period is already infinite.
    "infinite_frequency": {"schemes": ["434-1"],
                           "reference": {"name": "sinusoid", "period": 1e-310}},
    # amplitude * (2 pi / period)**order overflows without an exception.
    "huge_amplitude": {"schemes": ["434-1"],
                       "reference": {"name": "sinusoid", "amplitude": 1e300, "period": 1e-10}},
    # Finite waypoints whose derivative rows overflow in the coefficient table;
    # this used to exit 0 with inf and nan in the profile and continuity CSVs.
    "huge_waypoints": {"schemes": ["656-1"], "waypoints": {
        "stance": [[0, 1e305, 0, 0, 0], [0.12, -1e305, 0, 0, 0], [0.48, 0, 0, 0, 0],
                   [0.6, 0, 0, 0, 0]],
        "swing": [[0.6, 0, 0, 0, 0], [0.68, 0, 0, 0, 0], [0.92, 0, 0, 0, 0], [1.0, 0, 0, 0, 0]]}},
    # Finite waypoints whose table is finite, but whose swing jerk passes a float on its
    # first segment; this used to exit 3 on numpy's bare "overflow encountered in multiply".
    "overflowing_derivative": {"schemes": ["656-1"], "waypoints": {
        "stance": [[t, 1e305, 0, 0, 0] for t in (0, 0.12, 0.48, 0.6)],
        "swing": [[0.6, 1e305, 0, 0, 0], *([t, 0, 0, 0, 0] for t in (0.68, 0.92, 1.0))]}},
    # A finite gait and reference whose squared errors overflow; this used to
    # exit 0 with inf RMSE and ADE in every row, then on numpy's bare "overflow
    # encountered in square".
    "huge_errors": {"schemes": ["434-1"], "reference": {"name": "sinusoid", "amplitude": 1e160}},
    # A time whose sinusoid phase 2 pi / period * t overflows; this used to exit 3 on
    # numpy's bare "overflow encountered in multiply".
    "overflowing_sinusoid_phase": {"schemes": ["434-1"], "reference": {"name": "sinusoid"},
                                   "stance_times": [0, 1, 2, 1e308],
                                   "swing_times": [1e308, 1.1e308, 1.2e308, 1.3e308]},
    # duration**2 is finite and duration**3 is not: 434-1 pins acceleration at most, 656-1
    # the jerk, and each segment's span is checked before its row is read, so both give
    # the one message.
    **{f"long_times_{name}": {"schemes": [name], "reference": {"name": "sinusoid"},
                              "stance_times": [0, 1e120, 2e120, 3e120],
                              "swing_times": [3e120, 4e120, 5e120, 6e120]}
       for name in ("434-1", "656-1")},
    # A phase whose span overflows has a segment whose cube does: that segment is named,
    # not every finite segment reported as too short a fraction of an infinite phase.
    "overflowing_phase": {"schemes": ["434-1"], "waypoints": {
        "stance": [[t, 0, 0, 0, 0] for t in (-1e308, 0, 1e308, 1.5e308)],
        "swing": [[t, 0, 0, 0, 0] for t in (1.5e308, 1.6e308, 1.7e308, 1.79e308)]}},
}
# The verbs each config overflows in: a config without a reference has nothing
# to compare, and a huge but finite sinusoid generates finite profiles.
OVERFLOW_VERBS = {"huge_waypoints": ["generate"], "huge_errors": ["compare"],
                  "overflowing_phase": ["generate"], "overflowing_derivative": ["generate"]}
SINUSOID_OVERFLOWS = {
    "tiny_period": "amplitude 30.0 * (2 pi / period 1e-300)**2 overflows",
    "infinite_frequency": "period 1e-310 is too short, 2 pi / period is infinite",
    "huge_amplitude": "amplitude 1e+300 * (2 pi / period 1e-10)**1 overflows",
    "overflowing_sinusoid_phase": "2 pi / period * t overflows at t=1e+308",
}
# Every other overflow's line names what overflowed: the segment and its duration or the
# order of its derivative, or the scheme, scope and quantity of an RMSE (Python's float
# power used to print only "(34, 'Numerical result out of range')", numpy's only "overflow
# encountered in ...").
NAMED_OVERFLOWS = {
    "huge_times": "segment [0.0, 1e+300]: duration 1e+300 to the power 3 overflows",
    "long_times_434-1": "segment [0.0, 1e+120]: duration 1e+120 to the power 3 overflows",
    "long_times_656-1": "segment [0.0, 1e+120]: duration 1e+120 to the power 3 overflows",
    "overflowing_phase": "segment [-1e+308, 0.0]: duration 1e+308 to the power 3 overflows",
    "huge_waypoints": "segment [0.0, 0.12]: its order 3 (jerk) overflows",
    "overflowing_derivative": "segment [0.6, 0.68]: its order 3 (jerk) overflows",
    "huge_errors": "scheme 434-1, full Hip (Pos) RMSE: the mean square of errors up to "
                   "5.94915e+158 overflows",
}


@pytest.mark.parametrize("name, verb", [
    (name, verb) for name in OVERFLOW_CONFIGS
    for verb in OVERFLOW_VERBS.get(name, ["generate", "compare"])])
def test_overflow_is_a_numerical_error(tmp_path, config_path, capsys, verb, name):
    path = config_path(OVERFLOW_CONFIGS[name], f"{name}.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([verb, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if name in SINUSOID_OVERFLOWS:
        assert err == f"error: sinusoid reference: {SINUSOID_OVERFLOWS[name]}\n"
    else:
        assert err == f"error: {NAMED_OVERFLOWS[name].format(verb=verb)}\n"


def test_compare_names_the_rmse_whose_errors_overflow(tmp_path, config_path, capsys):
    # A CSV reference of 1e160 sin(2 pi t): generate writes finite profiles, but every
    # scheme's squared position errors overflow in compare. Its one line names the first
    # scheme, scope and quantity, in the words rmse gives the same grid's errors.
    lines = ["t,pos"] + [f"{i / 400!r},{1e160 * math.sin(2 * math.pi * i / 400)!r}"
                         for i in range(401)]
    (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
    doc = {"reference": {"csv": str(tmp_path / "big.csv")}}
    path = config_path(doc)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "g")]) == 0
    assert main(["compare", "--config", path, "--out", str(tmp_path / "c")]) == 3
    config = RunConfig(doc)
    actual = sample(config.build_gait("434-1"), 101, 0)
    with pytest.raises(OverflowError) as exc:
        rmse(actual, SampledSeries(actual.times, config.reference(actual.times, 0), 0))
    assert capsys.readouterr() == (
        "", f"error: scheme 434-1, full Hip (Pos) RMSE: {exc.value}\n")
    assert str(exc.value).startswith("the mean square of errors up to ")
    assert not (tmp_path / "c").exists()


def test_a_read_that_overflows_in_compare_raises_numpys_error(tmp_path):
    # compare ignores overflow while it squares errors, and reads under that errstate too;
    # a read that overflows is read again under the caller's, and raises there. The jerk
    # read overflows at t = 0 alone, which no via window reads.
    config = RunConfig(BASE)
    config._gait_inputs  # the gaits are built on the sinusoid; compare reads the scaled one
    sinusoid = config.reference
    config.reference = lambda t, k: sinusoid(t, k) * np.where((t == 0) & (k == 3), 1e308, 1.0)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        cli.run_compare(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    ({"midpoints": {"stnace": {"0": 1}}},
     "midpoints.stnace: unknown key 'stnace'; expected stance, swing"),
    ({"midpoints": {"stance": {"0": 1}, "swng": {}}}, "midpoints.swng: unknown key 'swng'"),
    ({"midpoints": {"swing": {"3": 1}}}, "midpoints.swing.3: unknown key '3'; expected 0, 1, 2"),
    ({"midpoints": {"stance": {"-1": 1}}}, "midpoints.stance.-1: unknown key '-1'"),
    ({"midpoints": {"stance": {"0": 1, "00": 5, "2": 3}}}, "midpoints.stance.00: unknown key '00'"),
    ({"midpoints": {"stance": {" 1": 1}}}, "midpoints.stance. 1: unknown key ' 1'"),
    ('{"midpoints": {"stance": {"0": 1, "0": 5, "2": 3}}}', "midpoints.stance.0: repeated key"),
    ('{"samples": 7, "samples": 9}', "samples: repeated key"),
    ({"reference": {"name": "sinusoid", "amplitud": 5}, "sampels": 7, "sim": {"enabeld": True}},
     "sampels: unknown key 'sampels'"),
    ({"reference": {"name": "sinusoid", "amplitud": 5}}, "reference.amplitud: unknown key 'amplitud'"),
    ({"sim": {"enabeld": True}}, "sim.enabeld: unknown key 'enabeld'"),
    ({"reference": {"csv": "ref.csv", "name": "sinusoid"}},
     "reference.name: unknown key 'name'; expected csv"),
], ids=["misspelt_phase", "second_phase_misspelt", "segment_3", "segment_minus_1", "segment_00",
        "segment_space_1", "repeated_segment", "repeated_root_key", "roadmap_misspelt",
        "misspelt_amplitude", "misspelt_enabled", "csv_with_name"])
def test_unknown_midpoint_keys_are_config_errors(tmp_path, config_path, capsys, config, message):
    # Each used to exit 0: unknown keys were dropped, so the run took defaults
    # and the reference's pins; a repeated key's last value won; a CSV beside a
    # name won without a word. A JSON text is spliced into the base config's
    # members, so that it can repeat a key.
    base = {**BASE, "schemes": ["434-2"]}
    doc = ({**base, **config} if isinstance(config, dict)
           else json.dumps(base)[:-1] + ", " + config[1:])
    assert main(["generate", "--config", config_path(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    good = config_path({**BASE, "schemes": ["434-2"],
                        "midpoints": {"stance": {"0": 1, "2": 3}}}, "good.json")
    assert main(["generate", "--config", good, "--out", str(tmp_path / "out")]) == 0


def test_cached_parser_survives_a_bad_argv(tmp_path, config_path, capsys):
    cfg = config_path({**BASE, "schemes": ["434-1"]})
    runs = []
    for out in ("a", "b"):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--config", cfg, "--bogus"])
        runs.append((info.value.code, capsys.readouterr().err))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        runs.append((0, capsys.readouterr().err))
    assert cli._parser() is cli._parser()
    assert runs[:2] == runs[2:] and runs[0][0] == 2
    assert "unrecognized arguments: --bogus" in runs[0][1]
    for name in ("profile_434-1.csv", "continuity_434-1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def per_cell_csv(header, rows):
    """The CSV text of a writer that formats one cell at a time."""
    lines = [",".join(header)] + [
        ",".join(f"{float(v):.9g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 5e300, math.nan, math.inf, -math.inf,
           0.1, 1 / 3, -2.5e-7, 123456789.123, 5e-324]
_RNG = np.random.default_rng(7)
CSV_TABLES = {
    "floats": [[x, -x, x * 3.7] for x in _FLOATS],
    "numpy_floats": [[np.float64(x), x] for x in _FLOATS],
    "mixed": [["434-1", np.float64(0.12), 2, 1 / 3, "a,b", "50%", 1],
              ["656-2", 0.68, np.int64(-3), -0.0, "%s%%", "%(x)s", 0]],
    "random": (_RNG.standard_normal((200, 4))
               * 10.0 ** _RNG.integers(-300, 300, (200, 4))).tolist(),
    "empty": [],
}


@pytest.mark.parametrize("name", list(CSV_TABLES))
def test_write_csv_matches_per_cell_writer(tmp_path, name):
    rows = CSV_TABLES[name]
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 3)]
    _write_csv([tmp_path / "t.csv"], header, [[rows]])
    assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(header, rows).encode()


def whole_table_csv(header, rows):
    """The CSV text of one ``%`` over the whole table."""
    table = np.asarray(rows, dtype=object)
    row = ",".join("%.9g" if isinstance(v, float) else "%s" for v in table[:1].ravel())
    return ",".join(header) + "\n" + (row + "\n") * len(table) % tuple(table.ravel().tolist())


@pytest.mark.parametrize("kind", ["float_array", "mixed_list"])
@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 6, 7])
def test_write_csv_blocks_match_one_format(tmp_path, monkeypatch, kind, n_rows):
    # Blocks of 3 rows: tables shorter than, equal to, and crossing block edges.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    if kind == "float_array":
        rows = np.asarray(CSV_TABLES["random"][:n_rows])
    else:
        rows = (CSV_TABLES["mixed"] * 4)[:n_rows]
    header = [f"c{i}" for i in range(len(rows[0]))]
    _write_csv([tmp_path / "t.csv"], header, [[rows]])
    assert (tmp_path / "t.csv").read_bytes() == whole_table_csv(header, rows).encode()


def test_write_csv_memory_is_bounded_per_row(tmp_path):
    # Rows are formatted a block at a time, so the writer holds one block's
    # cells and text, not the whole table's.
    n = 10**5
    table = np.random.default_rng(3).standard_normal((n, 4))
    _write_csv([tmp_path / "t.csv"], list("abcd"), [[table[:10]]])
    tracemalloc.start()
    try:
        _write_csv([tmp_path / "t.csv"], list("abcd"), [[table]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(1 for _ in open(tmp_path / "t.csv")) == n + 1
    assert peak / n <= 50


# JSON values of every type where a config expects one type, NaN and inf
# included. Numbers that size a run (samples, times, sim.dt) are drawn from
# bounded ranges so that no example costs more than a fraction of a second.
NUMBER = st.one_of(st.integers(-3, 3), st.booleans(),
                   st.floats(allow_nan=True, allow_infinity=True))
NOT_NUMBER = st.one_of(st.none(), st.text(max_size=4),
                       st.lists(st.integers(-3, 3), max_size=3),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
ANY = st.one_of(NUMBER, NOT_NUMBER)
ODD_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf])
SAFE_DT = st.one_of(st.floats(1e-3, 0.05), ODD_FLOAT, NOT_NUMBER, st.sampled_from([0, -1]))


def _rows(times, value, min_size):
    return st.tuples(*(st.lists(value, min_size=min_size, max_size=4)
                       .map(lambda v, t=t: [t, *v]) for t in times)).map(list)


# Keys that no table names at each level of a config.
MISSPELT = {"root": ["sampels", "Schemes", "sim "], "reference": ["amplitud", "nmae", "CSV"],
            "sim": ["enabeld", "KP"], "waypoints": ["stnace", "Swing"],
            "midpoints": ["stnace", "swing "], "segments": ["00", " 1", "3"]}


@st.composite
def configs(draw):
    """A valid config with some fields left out and a few corrupted, or now
    and then a root that is not an object, and whether it must be refused: one
    valid number of samples, via_window, reference.period or sim.kp was made its
    JSON string or a 400-digit integer, or a misspelt key was put in at one level
    (root, reference, sim, waypoints, midpoints or one of its segment tables).
    "@CSV" stands for a reference file."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ANY), False
    # Phase boundary at 0.6 s, as in the defaults, so either list may be left out.
    stance, swing = (st.lists(st.floats(lo, hi, exclude_min=lo > 0, exclude_max=hi < 2),
                              min_size=3, max_size=3, unique=True).map(sorted)
                     for lo, hi in ((0, 0.6), (0.6, 2)))
    t = [*draw(stance), 0.6, *draw(swing)]
    bad_times = st.one_of(
        st.lists(st.floats(0, 2), min_size=4, max_size=4, unique=True),
        st.lists(st.one_of(st.floats(-1, 3), ODD_FLOAT, NOT_NUMBER), max_size=5),
        ANY,
    )
    fields = {  # key: (valid values, invalid values)
        "schemes": (st.lists(st.sampled_from(SCHEME_NAMES), min_size=1, max_size=2),
                    st.one_of(ANY, st.just(["999-9"]))),
        "stance_times": (st.just(t[:4]), bad_times),
        "swing_times": (st.just(t[3:]), bad_times),
        "samples": (st.integers(2, 500),
                    st.one_of(st.integers(-2, 1), st.floats(-2, 500), ODD_FLOAT,
                              st.booleans(), NOT_NUMBER)),
        "via_window": (st.floats(1e-4, 0.1), ANY),
        "reference": (
            st.one_of(st.just({"csv": "@CSV"}), st.fixed_dictionaries({
                "name": st.just("sinusoid"), "amplitude": st.floats(-60, 60),
                "period": st.floats(0.2, 3)})),
            st.one_of(ANY, st.fixed_dictionaries({"csv": ANY}), st.fixed_dictionaries(
                {"name": st.one_of(st.just("sinusoid"), ANY)},
                optional={"amplitude": ANY, "period": ANY})),
        ),
        "waypoints": (
            st.fixed_dictionaries({"stance": _rows(t[:4], st.floats(-50, 50), 4),
                                   "swing": _rows(t[3:], st.floats(-50, 50), 4)}),
            st.one_of(ANY, st.fixed_dictionaries({"stance": _rows(t[:4], ANY, 0),
                                                  "swing": st.lists(ANY, max_size=5)})),
        ),
        "midpoints": (
            st.fixed_dictionaries({"stance": st.just({"0": 1.0, "2": -1.0})}),
            st.one_of(ANY, st.dictionaries(
                st.sampled_from(["stance", "swing"]),
                st.one_of(ANY, st.dictionaries(st.sampled_from(["0", "2", "x"]), ANY,
                                               max_size=2)),
                max_size=2)),
        ),
        "sim": (
            st.fixed_dictionaries({"enabled": st.booleans(), "kp": st.floats(0, 1000),
                                   "kd": st.floats(0, 100), "dt": st.floats(1e-3, 0.05)}),
            st.one_of(ANY, st.fixed_dictionaries({}, optional={
                "enabled": st.one_of(st.booleans(), ANY), "kp": ANY, "kd": ANY,
                "dt": SAFE_DT})),
        ),
    }
    doc, kinds = {}, {}
    for key, (valid, invalid) in fields.items():
        kinds[key] = draw(st.sampled_from(["valid"] * 5 + ["absent"] * 2 + ["bad"]))
        if kinds[key] != "absent":
            doc[key] = draw(valid if kinds[key] == "valid" else invalid)
    doc = copy.deepcopy(doc)  # st.just hands out one object to every example
    numbers = [(doc, field) if key is None else (doc[field], key)
               for field, key in (("samples", None), ("via_window", None),
                                  ("reference", "period"), ("sim", "kp"))
               if kinds[field] == "valid" and (key is None or key in doc[field])]
    if numbers and draw(st.integers(0, 5)) == 0:
        table, key = draw(st.sampled_from(numbers))
        table[key] = draw(st.sampled_from([json.dumps(table[key]), int("9" * 400)]))
        return doc, True
    if draw(st.integers(0, 3)):
        return doc, False
    tables = [("root", doc)] + [(level, doc.get(level))
                                for level in ("reference", "sim", "waypoints", "midpoints")]
    if isinstance(doc.get("midpoints"), dict):
        tables += [("segments", table) for table in doc["midpoints"].values()]
    level, table = draw(st.sampled_from([(level, t) for level, t in tables if isinstance(t, dict)]))
    table[draw(st.sampled_from(MISSPELT[level]))] = draw(ANY)
    return doc, True


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    ref = SinusoidReference(20.0, 1.0)
    lines = ["t,pos,vel"] + [f"{t:.12g},{ref(t, 0):.12g},{ref(t, 1):.12g}"
                             for t in np.linspace(-1, 3, 401)]
    path = tmp_path_factory.mktemp("fuzz") / "ref.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _not_finite(cell):
    try:
        return not math.isfinite(float(cell))
    except ValueError:  # a header or a scheme name
        return False


@settings(max_examples=60, deadline=None)
@given(verb=st.sampled_from(["generate", "compare"]), drawn=configs())
@example(verb="generate", drawn=(OVERFLOW_CONFIGS["huge_waypoints"], False))
@example(verb="compare", drawn=(OVERFLOW_CONFIGS["huge_errors"], False))
def test_any_config_exits_with_a_documented_code(fuzz_csv, verb, drawn):
    # Exit 0 also means no warning and no inf or NaN cell in any CSV written.
    doc, misspelt = drawn
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc).replace("@CSV", str(fuzz_csv)))
        code = main([verb, "--config", str(path), "--out", str(Path(tmp) / "out")])
        bad = [(csv_path.name, row) for csv_path in Path(tmp).glob("out/*.csv")
               for row in csv.reader(csv_path.read_text().splitlines())
               if any(map(_not_finite, row))]
    assert (code == 2) if misspelt else (code in (0, 2, 3, 4))
    if code == 0:
        assert [str(w.message) for w in caught] == [] and bad == [], (caught, bad[:3])


def test_the_verbs_build_no_segment_objects(tmp_path, config_path, monkeypatch):
    # generate (tracking on) and compare read each gait's coefficient arrays: no
    # SolvedSegment or Polynomial is built, and no gait builds its ``segments``.
    gaits, built, build = [], [], cli.generate_gait
    monkeypatch.setattr(cli, "generate_gait",
                        lambda *args: gaits.append(build(*args)) or gaits[-1])
    for cls in (solver.SolvedSegment, poly.Polynomial):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=cls.__post_init__: built.append(self) or init(self))
    doc = {**BASE, "sim": {"enabled": True, "dt": 1e-3}}
    for verb in ("generate", "compare"):
        assert main([verb, "--config", config_path(doc), "--out", str(tmp_path / verb)]) == 0
    assert len(gaits) == 12 and built == []
    assert not any("segments" in vars(gait) for gait in gaits)


def same_bits(a, b):
    """Equal to the last bit, the sign of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def one_segment(t_start, t_end):
    return PiecewiseTrajectory((solver.solve_segment(
        3, [solver.Constraint(k, tau, 1.0 + k) for k in (0, 1) for tau in (0.0, 1.0)],
        t_start, t_end),))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e3, 1e3), span=st.floats(1e-6, 1e3), samples=st.integers(1, 40))
def test_grid_blocks_are_linspace_read_in_blocks(start, span, samples):
    # _grid's blocks join to np.linspace's times, each block read as the whole grid
    # would be: blocks of 7 here, so grids shorter than, equal to and across blocks.
    trajs = (one_segment(start, start + span),)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK_ROWS", 7)
        blocks = list(cli._grid(schemes._stack(trajs), slice(0, 1), samples))
    times = np.linspace(start, start + span, samples)
    assert [(rows.start, rows.stop) for rows, _, _ in blocks] == \
        [(i, min(i + 7, samples)) for i in range(0, samples, 7)]
    assert same_bits(np.concatenate([t for _, t, _ in blocks]), times)
    assert same_bits(np.concatenate([v for _, _, v in blocks], axis=-1),
                     evaluate(trajs[0], times, slice(None))[None])


@pytest.mark.parametrize("verb", ["generate", "compare"])
def test_one_sample_per_phase_is_a_config_error(tmp_path, config_path, capsys, verb):
    # A grid is read at its two ends, so samples must exceed 1 (_grid itself reads a
    # one-sample grid as np.linspace does, at its start).
    doc = config_path({**BASE, "samples": 1})
    assert main([verb, "--config", doc, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: samples: need a number in (1, 1000000], got 1\n")
    assert list(tmp_path.glob("out/*")) == []


def test_generate_and_compare_write_the_same_bytes_in_any_block_size(tmp_path, config_path,
                                                                    monkeypatch):
    doc = config_path({**BASE, "samples": 30, "sim": {"enabled": True, "dt": 1e-3}})
    for rows in (cli.CSV_BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", rows)
        for verb in ("generate", "compare"):
            assert main([verb, "--config", doc, "--out", str(tmp_path / str(rows))]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / str(cli.CSV_BLOCK_ROWS)).iterdir()}
    assert len(first) == 21
    for rows in (7, 1):
        assert {p.name: p.read_bytes() for p in (tmp_path / str(rows)).iterdir()} == first


def peak_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verb_memory_is_bounded_per_block_of_samples(tmp_path, config_path, capsys):
    # Six schemes. generate holds one block of samples at a time, so its peak does not
    # grow with the grid; compare holds one (order, scheme, sample) array of squared
    # errors, 192 bytes per sample, and one block of the rest.
    peaks = {}
    for verb in ("generate", "compare"):
        for samples in (3 * cli.CSV_BLOCK_ROWS, 10**5):
            argv = [verb, "--config", config_path({**BASE, "samples": samples}),
                    "--out", str(tmp_path / "out")]
            if samples < 10**5:
                main(argv)  # warm: imports, compiles and caches are not per sample
            peaks[verb, samples] = peak_bytes(argv)
    capsys.readouterr()
    assert peaks["generate", 10**5] <= 1.05 * peaks["generate", 3 * cli.CSV_BLOCK_ROWS]
    assert peaks["generate", 10**5] / 10**5 <= 50
    assert peaks["compare", 10**5] / 10**5 <= 250


def test_generate_at_the_sample_cap_runs_in_a_bounded_address_space(tmp_path, config_path):
    # A child process limits its own address space to 500 MiB, then runs generate for
    # six schemes at MAX_SAMPLES per phase: a whole grid's (order, scheme, sample)
    # array is 183 MiB, and reading it whole needed more than the limit.
    pytest.importorskip("resource")
    limit = 500 * 2**20
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "from pspb.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    try:
        run = subprocess.run(
            [sys.executable, "-c", child, "generate", "--config",
             config_path({**BASE, "samples": cli.MAX_SAMPLES}), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=600)
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
        with open(out / "profile_656-2.csv", "rb") as fh:
            assert sum(block.count(b"\n") for block in iter(lambda: fh.read(2**20), b"")) \
                == 2 * cli.MAX_SAMPLES + 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

"""Experiment driver, CSV/SVG artifacts, and the command line."""

import csv
import math
from pathlib import Path

import pytest

from udnsync.cli import main
from udnsync.config import FadingSpec, SimConfig
from udnsync.harness import (CSV_COLUMNS, ExperimentSpec, HarnessError,
                             PRESETS, ResultRow, emit_csv, preset, read_csv,
                             run_experiment)
from udnsync.plotting import PlotError, emit_plot


def tiny_config(**overrides):
    base = dict(num_nodes=9, num_subbands=2, max_iters=50, max_snapshots=1,
                noise_density_dbm_hz=-114.0)
    base.update(overrides)
    return SimConfig(**base)


def tiny_spec(**overrides):
    base = dict(scenario="unit", swept_parameter="power_threshold_dbm",
                sweep_values=(-110.0,), replications=2,
                base_config=tiny_config())
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    tiny_spec().validate()
    with pytest.raises(HarnessError):
        tiny_spec(swept_parameter="carrier_freq").validate()
    with pytest.raises(HarnessError):
        tiny_spec(sweep_values=()).validate()
    with pytest.raises(HarnessError):
        tiny_spec(replications=0).validate()


def test_single_point_row_satisfies_additivity():
    rows = run_experiment(tiny_spec(replications=1))
    assert len(rows) == 1
    row = rows[0]
    assert row.error == ""
    assert row.t_sync_noma == pytest.approx(
        row.algorithmic_time + row.exchange_delay_noma)
    assert row.t_sync_oma == pytest.approx(
        row.algorithmic_time + row.exchange_delay_oma)
    assert row.noma_gain_pct >= 0.0


def test_cf_mean_non_increasing_in_threshold():
    rows = run_experiment(tiny_spec(
        sweep_values=(-110.0, -70.0, -55.0, -45.0), replications=3))
    cfs = [r.cf_mean for r in rows]
    assert all(a >= b for a, b in zip(cfs, cfs[1:]))
    assert cfs[0] > cfs[-1]


def test_failing_sweep_point_yields_error_row():
    rows = run_experiment(tiny_spec(swept_parameter="num_nodes",
                                    sweep_values=(9, 2), replications=1))
    assert rows[0].error == ""
    assert rows[1].error != ""
    assert math.isnan(rows[1].t_sync_noma)


def test_fading_sweep_changes_model():
    spec = tiny_spec(swept_parameter="nakagami_m", sweep_values=(1.0, 3.0))
    assert spec.config_at(3.0).fading.kind == "nakagami"
    spec = tiny_spec(swept_parameter="fading_mean", sweep_values=(2.0,))
    assert spec.config_at(2.0).fading.param == 2.0


def test_reproducible_csv_bytes(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        rows = run_experiment(tiny_spec())
        p = tmp_path / name
        emit_csv(rows, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_csv_round_trip_and_schema(tmp_path):
    rows = run_experiment(tiny_spec(replications=2))
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header.startswith(
        "sweep_value,cf_mean,n_avg,algorithmic_time,exchange_delay_noma,"
        "exchange_delay_oma,t_sync_noma,t_sync_oma,noma_gain_pct")
    back = read_csv(out)
    for a, b in zip(rows, back):
        for col in CSV_COLUMNS[:-1]:
            x, y = getattr(a, col), getattr(b, col)
            assert y == pytest.approx(x, rel=1e-12)


def test_empty_rows_yield_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_bad_path():
    with pytest.raises(HarnessError, match="cannot write"):
        emit_csv([], "/nonexistent-dir/rows.csv")


def make_rows(n=3):
    return [ResultRow(sweep_value=float(i), cf_mean=2.0, n_avg=10.0,
                      algorithmic_time=0.01,
                      exchange_delay_noma=0.002 * (i + 1),
                      exchange_delay_oma=0.003 * (i + 1),
                      t_sync_noma=0.01 + 0.002 * (i + 1),
                      t_sync_oma=0.01 + 0.003 * (i + 1),
                      noma_gain_pct=33.3) for i in range(n)]


def test_plot_contains_both_series(tmp_path):
    out = tmp_path / "plot.svg"
    emit_plot(make_rows(), out, xlabel="nodes")
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert "NOMA" in svg and "OMA" in svg
    assert "nodes" in svg
    assert "synchronization time" in svg


def test_plot_rejects_single_row(tmp_path):
    with pytest.raises(PlotError):
        emit_plot(make_rows(1), tmp_path / "p.svg")


def test_plot_skips_nan_with_warning(tmp_path):
    rows = make_rows(4)
    rows[2].t_sync_noma = math.nan
    with pytest.warns(UserWarning, match="NaN"):
        emit_plot(rows, tmp_path / "p.svg")
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count("<circle") == 7  # 3 + 4 points survive


def test_plot_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(make_rows(), a)
    emit_plot(make_rows(), b)
    assert a.read_bytes() == b.read_bytes()


def test_presets_build_valid_specs():
    base = SimConfig()
    for full_scale in (False, True):
        for name in PRESETS:
            spec = preset(name, base, replications=2, full_scale=full_scale)
            spec.validate()
            assert len(spec.sweep_values) >= 2
    with pytest.raises(HarnessError):
        preset("fig99", base)


# Each preset's layout. The desk layouts and full-scale fig6 are as first
# recorded: a change to any of them changes what an experiment measures
# and must be labelled as such. The other full-scale layouts follow the
# precedence rule: a preset's own settings win over the scale's.
DESK = dict(max_snapshots=3, max_iters=300, noise_density_dbm_hz=-114.0)
FULL = dict(num_nodes=250, max_snapshots=100, max_iters=20000,
            noise_density_dbm_hz=-114.0)
RECORDED_PRESETS = {
    ("fig4", False): ("power_threshold_dbm",
                      (-100.0, -90.0, -80.0, -70.0, -60.0),
                      dict(DESK, max_snapshots=1)),
    ("fig5", False): ("num_subbands", (5, 10, 15), dict(DESK, num_nodes=90)),
    ("fig6", False): ("fading_mean", (0.5, 1.0, 2.0, 4.0), DESK),
    ("fig7", False): ("nakagami_m", (1.0, 3.0),
                      dict(DESK, noise_density_dbm_hz=-134.0)),
    ("fig8", False): ("num_subbands", (2, 3, 4), dict(DESK, num_nodes=36)),
    ("fig4", True): ("power_threshold_dbm",
                     (-100.0, -90.0, -80.0, -70.0, -60.0),
                     dict(FULL, max_snapshots=1)),
    ("fig5", True): ("num_subbands", (5, 10, 15), dict(FULL, num_nodes=90)),
    ("fig6", True): ("fading_mean", (0.5, 1.0, 2.0, 4.0), FULL),
    ("fig7", True): ("nakagami_m", (1.0, 3.0),
                     dict(FULL, noise_density_dbm_hz=-134.0)),
    ("fig8", True): ("num_subbands", (2, 3, 4), dict(FULL, num_nodes=36)),
}


def test_preset_specs_match_recorded_layouts():
    base = SimConfig(rng_seed=3, fading=FadingSpec("nakagami", 2.0))
    for (name, full_scale), (param, values, overrides) in \
            RECORDED_PRESETS.items():
        spec = preset(name, base, replications=4, full_scale=full_scale)
        assert spec == ExperimentSpec(name, param, values, 4,
                                      SimConfig(rng_seed=3, fading=base.fading,
                                                **overrides))


GOLDEN_FIG8 = Path(__file__).parent / "data" / "fig8_desk_seed7.csv"


def test_golden_fig8_csv(tmp_path):
    # Desk fig8, seed 7, one replication, as first recorded. Floats are
    # compared at 1e-12 relative, not as bytes, because SIMD log2/pow may
    # differ in the last ulp between CPUs; anything that shifts the RNG
    # stream or the formulas moves them far more than that.
    out = tmp_path / "fig8.csv"
    emit_csv(run_experiment(preset("fig8", SimConfig(rng_seed=7),
                                   replications=1)), out)
    with open(GOLDEN_FIG8, newline="", encoding="utf-8") as fh:
        expected = list(csv.DictReader(fh))
    with open(out, newline="", encoding="utf-8") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(expected) == 3
    for row, ref in zip(got, expected):
        assert list(row) == list(ref)
        assert row["error"] == ref["error"]
        for col in CSV_COLUMNS[:-1]:
            assert float(row[col]) == pytest.approx(float(ref[col]),
                                                    rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# command line


SCENARIO = """
num_nodes = 9
num_subbands = 2
max_iters = 50
max_snapshots = 1
noise_density_dbm_hz = -114
"""


def write_scenario(tmp_path, text=SCENARIO):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    path = write_scenario(tmp_path, "num_nodes = 1")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["rng_seed = 1.5", "num_nodes = nine",
                                  "fading_param = two", "temp_low_c = cold"])
def test_cli_validate_rejects_malformed_number(tmp_path, capsys, text):
    path = write_scenario(tmp_path, "num_subbands = 2\n" + text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert text.split(" = ")[0] in err


@pytest.mark.parametrize("key", ["power_grid_step", "payload_bits"])
def test_cli_validate_rejects_nan(tmp_path, capsys, key):
    path = write_scenario(tmp_path, f"num_subbands = 2\n{key} = nan\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err


def test_cli_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 2


def test_cli_run_single_point(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out_dir), "--seed", "5"])
    assert code == 0
    csv_path = out_dir / "scenario.csv"
    assert csv_path.exists()
    rows = read_csv(csv_path)
    assert len(rows) == 1
    assert rows[0].t_sync_noma <= rows[0].t_sync_oma


def test_cli_env_var_overrides_out(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("UDNSYNC_OUT", str(env_dir))
    code = main(["run", str(path), "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "scenario.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_run_with_replications_aggregates(tmp_path):
    path = write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir),
                 "--replications", "2"]) == 0
    rows = read_csv(out_dir / "scenario.csv")
    assert rows[0].t_sync_noma_ci >= 0.0

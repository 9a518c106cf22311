"""Experiment driver, CSV/SVG artifacts, and the command line."""

import csv
import importlib
import json
import math
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from udnsync.cli import main
from udnsync.config import ConfigError, SimConfig, parse_config_text
from udnsync.harness import (CSV_COLUMNS, ExperimentSpec, HarnessError,
                             PRESETS, ResultRow, _replicate, emit_csv, preset,
                             read_csv, run_experiment)
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


@pytest.mark.parametrize("make, error", [
    (lambda: SimConfig(num_nodes=1), ConfigError),
    (lambda: replace(SimConfig(), num_nodes=1), ConfigError),
    (lambda: parse_config_text("num_nodes = 1"), ConfigError),
    (lambda: tiny_spec().config_at(-1e6), ConfigError),  # P0 is 0 W
    (lambda: tiny_spec(sweep_values=(-110.0, -1e6)), ConfigError),
    (lambda: tiny_spec(replications=0), HarnessError),
    (lambda: replace(tiny_spec(), replications=0), HarnessError),
    (lambda: preset("fig5", SimConfig(), replications=0), HarnessError),
], ids=["SimConfig", "replace-config", "parse_config_text", "config_at",
        "sweep-value", "ExperimentSpec", "replace-spec", "preset"])
def test_every_way_of_making_a_config_checks_it(make, error):
    with pytest.raises(error):
        make()


def test_spec_validation():
    tiny_spec().validate()
    # unknown; not a number; a seed the replications would not use
    for name in ("carrier_freq", "fading_kind", "rng_seed"):
        with pytest.raises(HarnessError):
            tiny_spec(swept_parameter=name)
    with pytest.raises(HarnessError):
        tiny_spec(sweep_values=())
    # an int field would run int(2.5) = 2 while its row reports 2.5
    tiny_spec(swept_parameter="num_subbands", sweep_values=(2, 3.0))
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(HarnessError):
            tiny_spec(swept_parameter="num_subbands", sweep_values=(2, bad))
    with pytest.raises(HarnessError):
        tiny_spec(replications=0)


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


def test_failing_sweep_point_yields_error_row(monkeypatch):
    def replicate(config, rng):  # a point that fails while it runs
        if config.power_threshold_dbm == -80.0:
            raise RuntimeError("replication failed")
        return _replicate(config, rng)

    monkeypatch.setattr("udnsync.harness._replicate", replicate)
    rows = run_experiment(tiny_spec(sweep_values=(-110.0, -80.0),
                                    replications=1))
    assert rows[0].error == ""
    assert rows[1].error == "RuntimeError: replication failed"
    assert math.isnan(rows[1].t_sync_noma)


def test_row_aggregates_the_replications():
    spec = tiny_spec(sweep_values=(-110.0, -80.0), replications=4)
    rows = run_experiment(spec)
    point_seeds = np.random.SeedSequence(spec.base_config.rng_seed).spawn(2)
    for row, value, point_seed in zip(rows, spec.sweep_values, point_seeds):
        config = spec.config_at(value)
        runs = [_replicate(config, np.random.default_rng(child))
                for child in point_seed.spawn(4)]
        cf, n_avg, algo, d_noma, d_oma = map(statistics.fmean, zip(*runs))
        t_noma = [r[2] + r[3] for r in runs]
        t_oma = [r[2] + r[4] for r in runs]
        half = lambda xs: 1.96 * statistics.stdev(xs) / math.sqrt(4)
        expected = {
            "cf_mean": cf, "n_avg": n_avg, "algorithmic_time": algo,
            "exchange_delay_noma": d_noma, "exchange_delay_oma": d_oma,
            "t_sync_noma": algo + d_noma, "t_sync_oma": algo + d_oma,
            "noma_gain_pct": 100.0 * (d_oma - d_noma) / (algo + d_oma),
            "t_sync_noma_ci": half(t_noma), "t_sync_oma_ci": half(t_oma),
        }
        assert row.error == ""
        for name, want in expected.items():
            assert getattr(row, name) == pytest.approx(
                want, rel=1e-12, abs=0.0), name


def test_fading_sweep_changes_model():
    # each fading preset forces its model over the scenario's, including a
    # Rayleigh mean of 0.3 that is no valid Nakagami shape
    scenarios = (SimConfig(fading_kind="rayleigh", fading_param=0.3),
                 SimConfig(fading_kind="nakagami", fading_param=2.0))
    for name, kind in (("fig6", "rayleigh"), ("fig7", "nakagami")):
        for base in scenarios:
            spec = preset(name, base, replications=1)
            assert spec.swept_parameter == "fading_param"
            for value in spec.sweep_values:
                config = spec.config_at(value)
                assert (config.fading_kind, config.fading_param) == \
                    (kind, value)


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_plot_skips_nan_with_warning(tmp_path, value):
    rows = make_rows(4)
    rows[2].t_sync_noma = value
    with pytest.warns(UserWarning, match="non-finite"):
        emit_plot(rows, tmp_path / "p.svg")
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count("<circle") == 7  # 3 + 4 points survive
    assert "nan" not in svg


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
    ("fig6", False): ("fading_param", (0.5, 1.0, 2.0, 4.0),
                      dict(DESK, fading_kind="rayleigh")),
    ("fig7", False): ("fading_param", (1.0, 3.0),
                      dict(DESK, fading_kind="nakagami",
                           noise_density_dbm_hz=-134.0)),
    ("fig8", False): ("num_subbands", (2, 3, 4), dict(DESK, num_nodes=36)),
    ("fig4", True): ("power_threshold_dbm",
                     (-100.0, -90.0, -80.0, -70.0, -60.0),
                     dict(FULL, max_snapshots=1)),
    ("fig5", True): ("num_subbands", (5, 10, 15), dict(FULL, num_nodes=90)),
    ("fig6", True): ("fading_param", (0.5, 1.0, 2.0, 4.0),
                     dict(FULL, fading_kind="rayleigh")),
    ("fig7", True): ("fading_param", (1.0, 3.0),
                     dict(FULL, fading_kind="nakagami",
                          noise_density_dbm_hz=-134.0)),
    ("fig8", True): ("num_subbands", (2, 3, 4), dict(FULL, num_nodes=36)),
}


def test_preset_specs_match_recorded_layouts():
    scenario = dict(rng_seed=3, fading_kind="nakagami", fading_param=2.0)
    base = SimConfig(**scenario)
    for (name, full_scale), (param, values, overrides) in \
            RECORDED_PRESETS.items():
        spec = preset(name, base, replications=4, full_scale=full_scale)
        recorded = SimConfig(**{**scenario, **overrides})
        # the base carries the first sweep value
        assert spec == ExperimentSpec(name, param, values, 4,
                                      replace(recorded, **{param: values[0]}))
        # the configs an experiment measures, one per sweep point
        for value in values:
            assert spec.config_at(value) == replace(recorded,
                                                    **{param: value})


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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["exchange-wide", "consensus-full"])
def test_benchmark_reference_replication_bytes(workload, tmp_path,
                                               monkeypatch):
    # the benchmark's reference-seed replication of each workload, as
    # bytes against perfbench/reference.json (perfbench's own tests cover
    # exchange-narrow)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    template = workloads.template_spec(workloads.WORKLOADS[workload])
    digest = workloads.reference_digest(template, tmp_path / "rows.csv")
    reference = json.loads((PERFBENCH / "reference.json").read_text(
        encoding="utf-8"))
    assert digest == reference[workload]


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
    bom = tmp_path / "bom.cfg"  # as some editors save UTF-8
    bom.write_bytes(b"\xef\xbb\xbf" + SCENARIO.lstrip().encode())
    for scenario in (path, bom):
        assert main(["validate", str(scenario)]) == 0
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


def test_cli_validate_rejects_a_power_that_overflows(tmp_path, capsys):
    path = write_scenario(tmp_path, "power_threshold_dbm = 4000\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "power_threshold_dbm" in err


def test_cli_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "{scenario}", "--out", "{tmp}/out", "--full-scale"],
    ["run", "{scenario}", "--out", "{tmp}/out", "--seed", "-1"],
    ["run", "{scenario}", "--out", "{scenario}"],   # --out is a file
    ["validate", "{tmp}"],                          # scenario is a directory
    ["run", "{scenario}", "--out", "{tmp}/out", "--replications", "0"],
    ["run", "{scenario}", "--out", "{tmp}/out", "--preset", "fig8",
     "--replications", "0"],
    ["run", "{tmp}/latin1.cfg", "--out", "{tmp}/out"],  # not UTF-8 text
])
def test_cli_usage_and_file_errors_exit_2(tmp_path, capsys, argv):
    scenario = write_scenario(tmp_path)
    (tmp_path / "latin1.cfg").write_bytes(SCENARIO.encode() + b"# caf\xe9\n")
    argv = [a.format(scenario=scenario, tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("name, fading, kind", [
    ("fig7", "fading_kind = rayleigh\nfading_param = 0.3\n", "nakagami"),
    ("fig6", "fading_kind = nakagami\nfading_param = 2.0\n", "rayleigh"),
], ids=["fig7-on-rayleigh-0.3", "fig6-on-nakagami"])
def test_cli_fading_preset_forces_its_model(tmp_path, monkeypatch, name,
                                            fading, kind):
    # 0.3 is a valid Rayleigh mean but no valid Nakagami shape
    seen = []

    def recording(config, rng):
        seen.append((config.fading_kind, config.fading_param))
        return _replicate(config, rng)

    monkeypatch.setattr("udnsync.harness._replicate", recording)
    path = write_scenario(tmp_path, SCENARIO + fading)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--preset", name,
                 "--replications", "1"]) == 0
    values = preset(name, SimConfig()).sweep_values
    assert seen == [(kind, v) for v in values]
    assert len(read_csv(out_dir / f"{name}.csv")) == len(values)
    assert ">fading_param</text>" in (out_dir / f"{name}.svg").read_text()

import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fluxrecon.cli import main
from fluxrecon.errors import ConfigurationError, InputError
from fluxrecon.experiments import (ScenarioConfig, _fmt, load_observation,
                                   load_scenario, run_reconstruct,
                                   run_synthesize, run_verify, write_observation)
from fluxrecon.recon import STAGES, ReconstructionConfig

CHEAP = dict(domain_kind="interval", lengths=[1.0], final_time=1.0,
             fine_n=64, fine_nt=512, recon_n=16, recon_nt=64,
             phi={"family": "ramp", "profile": "const"},
             reaction={"family": "linear", "coeff": 1.0})


@pytest.fixture(scope="module")
def cheap_obs(tmp_path_factory):
    """One small synthesized observation shared by the read-only tests."""
    outdir = tmp_path_factory.mktemp("synth")
    scenario = ScenarioConfig(**CHEAP)
    run_synthesize(scenario, outdir)
    csv_text = (outdir / "observation.csv").read_text()
    meta_text = (outdir / "observation_meta.json").read_text()
    return scenario, csv_text, meta_text


@pytest.fixture(scope="module")
def axis_obs(tmp_path_factory):
    """The cheap observation on linear_interval's time axis of 256 steps,
    where the loader reads a t within 1e-10 dt = 3.9e-13 of an axis time."""
    outdir = tmp_path_factory.mktemp("axis")
    scenario = ScenarioConfig(**dict(CHEAP, recon_nt=256))
    run_synthesize(scenario, outdir)
    return (scenario, (outdir / "observation.csv").read_text(),
            (outdir / "observation_meta.json").read_text())


def _edit_rows(csv_text, edits):
    """csv_text with its data rows edited: row ln (the header is row 1)
    loses its value for None, gets node_id 9 for "node", node 0 at 0.5 for
    "coord", its t moved by the number for ("t", number), and else the
    given text as its value."""
    lines = csv_text.splitlines()
    data_start = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("node_id"))
    for row, edit in edits.items():
        fields = lines[data_start + row - 2].split(",")
        if edit is None:
            fields = fields[:-1]
        elif edit == "node":
            fields[0] = "9"
        elif edit == "coord":
            fields[0], fields[1] = "0", "0.5"
        elif isinstance(edit, tuple):
            fields[-2] = _fmt(float(fields[-2]) + edit[1])
        else:
            fields[-1] = edit
        lines[data_start + row - 2] = ",".join(fields)
    return "\n".join(lines) + "\n"


# rows of the t = 0 and t = 0.5 samples of both nodes on the 256-step axis
T0_ROWS, T_HALF_ROWS = (2, 259), (130, 387)


def _write_pair(d, csv_text, meta_text):
    d.mkdir(exist_ok=True)
    (d / "observation.csv").write_text(csv_text)
    (d / "observation_meta.json").write_text(meta_text)
    return d / "observation.csv"


def _with_huge_int(payload, key):
    """payload as JSON text with key set to an integer of 5001 digits, past
    Python's limit for converting a string to an int."""
    return json.dumps({**payload, key: "HUGE"}).replace('"HUGE"', "1" * 5001)


class TestScenarioConfig:
    def test_round_trip(self):
        scenario = ScenarioConfig(**CHEAP, noise_level=0.01, seed=3)
        again = ScenarioConfig.from_dict(scenario.to_dict())
        assert again == scenario

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            ScenarioConfig.from_dict({"flux_capacitor": 1})

    def test_unknown_reconstruction_key(self):
        with pytest.raises(ConfigurationError, match="unknown reconstruction keys"):
            ScenarioConfig(reconstruction={"smoothing": 3})

    def test_unknown_kernel_key(self):
        # the kernel takes no settings, so a kernel block is an unknown key
        with pytest.raises(ConfigurationError,
                           match=r"unknown reconstruction keys \['kernel'\]"):
            ScenarioConfig(reconstruction={"kernel": {"nterms": 5}})

    def test_time_grid_divisibility(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fine_nt=100, recon_nt=64)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fine_nt=256, recon_nt=256)

    def test_space_grid_divisibility(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fine_n=192, recon_n=128)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(fine_n=128, recon_n=128)

    def test_bad_final_time(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(final_time=0.0)

    def test_bad_domain_kind(self):
        with pytest.raises(ConfigurationError, match="unknown domain kind"):
            ScenarioConfig(domain_kind="disc").domain()

    def test_recon_config_overrides(self):
        scenario = ScenarioConfig(recon_n=32, reconstruction={"compare_extensions": True})
        cfg = scenario.recon_config()
        assert cfg.grid_n == 32
        assert cfg.compare_extensions is True

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(["not", "a", "dict"])

    def test_from_dict_wraps_type_errors(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"fine_n": "lots"})

    @pytest.mark.parametrize("name", sorted(
        {f.name for f in fields(ReconstructionConfig)} - {"grid_n"}))
    def test_every_reconstruction_field_is_a_key(self, name):
        default = getattr(ReconstructionConfig(), name)
        scenario = ScenarioConfig(reconstruction={name: default})
        assert getattr(scenario.recon_config(), name) == default


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_scenario(path)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(CHEAP))
        assert load_scenario(path) == ScenarioConfig(**CHEAP)


class TestObservationIO:
    def test_round_trip(self, cheap_obs, tmp_path):
        scenario, csv_text, meta_text = cheap_obs
        path = _write_pair(tmp_path / "copy", csv_text, meta_text)
        obs, again = load_observation(path)
        assert again == scenario
        assert obs.flux.values.shape == (scenario.recon_nt + 1, 2)
        assert np.all(np.isfinite(obs.flux.values))
        assert obs.flux.times[0] == 0.0 and obs.flux.times[-1] == scenario.final_time
        assert obs.f_label == "linear,coeff=1.0"
        assert obs.noise_level == 0.0 and obs.seed == 0

    def test_round_trip_is_exact(self, cheap_obs, tmp_path):
        scenario, csv_text, meta_text = cheap_obs
        path = _write_pair(tmp_path / "exact", csv_text, meta_text)
        obs, _ = load_observation(path)
        outdir = tmp_path / "rewrite"
        outdir.mkdir()
        write_observation(obs, scenario, outdir)
        assert (outdir / "observation.csv").read_text() == csv_text

    def test_missing_csv(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_observation(tmp_path / "observation.csv")

    def test_missing_meta(self, cheap_obs, tmp_path):
        _, csv_text, _ = cheap_obs
        path = tmp_path / "observation.csv"
        path.write_text(csv_text)
        with pytest.raises(InputError, match="metadata not found"):
            load_observation(path)

    def test_bad_meta_json(self, cheap_obs, tmp_path):
        _, csv_text, _ = cheap_obs
        path = _write_pair(tmp_path / "d", csv_text, "{oops")
        with pytest.raises(InputError, match="not valid JSON"):
            load_observation(path)

    def test_noise_level_and_seed_come_from_the_config(self, cheap_obs, tmp_path):
        scenario, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta.update(noise_level="x", seed="abc")
        obs, _ = load_observation(_write_pair(tmp_path / "d", csv_text, json.dumps(meta)))
        assert (obs.noise_level, obs.seed) == (float(scenario.noise_level), scenario.seed)

    # True and 1.0 equal 1 in Python, but only the int 1 is schema 1
    @pytest.mark.parametrize("schema", [99, True, 1.0, "1"])
    def test_wrong_schema(self, cheap_obs, tmp_path, schema):
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta["schema"] = schema
        path = _write_pair(tmp_path / "d", csv_text, json.dumps(meta))
        with pytest.raises(InputError, match="unsupported schema"):
            load_observation(path)

    def test_bad_header(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        lines = csv_text.splitlines()
        lines[1] = "node,x,t,value"
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", meta_text)
        with pytest.raises(InputError, match="bad observation header"):
            load_observation(path)

    def test_short_row(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        path = _write_pair(tmp_path / "d", csv_text + "0,0,0.5\n", meta_text)
        with pytest.raises(InputError, match="malformed observation row"):
            load_observation(path)

    def test_non_numeric_row(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        path = _write_pair(tmp_path / "d", csv_text + "0,0,zzz,1\n", meta_text)
        with pytest.raises(InputError, match="malformed observation row"):
            load_observation(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value(self, cheap_obs, tmp_path, capsys, bad):
        _, csv_text, meta_text = cheap_obs
        lines = csv_text.splitlines()
        lines[4] = ",".join(lines[4].split(",")[:-1] + [bad])
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", meta_text)
        with pytest.raises(InputError, match="non-finite value in observation row 4"):
            load_observation(path)
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, message", [
        ({4: "nan", 7: "inf"}, "non-finite value in observation row 4"),
        ({6: "inf", 8: None}, "non-finite value in observation row 6"),
        ({5: None, 7: "nan"}, "malformed observation row 5"),
        ({3: "node", 6: None}, "malformed observation row 6"),
        ({3: "node", 5: "coord"}, "node_id 9 out of range"),
        ({3: "coord", 5: "node"}, "node 0 coordinates"),
        (dict.fromkeys(T_HALF_ROWS, ("t", 5e-13)),
         r"observation row 130: t = 0\.5000000000005\d* is not one of the times"),
        (dict.fromkeys(T_HALF_ROWS, ("t", 5e-12)),
         r"observation row 130: t = 0\.500000000005\d* is not one of the times"),
        ({4: "coord", 130: ("t", 5e-12)}, "node 0 coordinates"),
        ({130: ("t", 5e-12), 131: "node"}, "observation row 130"),
        ({3: ("t", -1.0)}, r"observation row 3: t = -0\.99609375 is not one"),
        ({258: ("t", 1.0)}, r"observation row 258: t = 2 is not one"),
    ])
    def test_first_bad_row_is_reported(self, axis_obs, tmp_path, edits, message):
        # several bad rows: the error names the first one in file order;
        # a row that does not parse is reported before any node or time check
        _, csv_text, meta_text = axis_obs
        path = _write_pair(tmp_path / "d", _edit_rows(csv_text, edits), meta_text)
        with pytest.raises(InputError, match=message):
            load_observation(path)

    def test_time_within_the_tolerance_is_the_axis_time(self, axis_obs, tmp_path):
        # t = 1e-13 on the t = 0 rows is read as t = 0: the loaded flux and
        # the reconstruction are those of the unperturbed file
        _, csv_text, meta_text = axis_obs
        nudged = _edit_rows(csv_text, dict.fromkeys(T0_ROWS, ("t", 1e-13)))
        assert nudged != csv_text
        runs = []
        for name, text in (("plain", csv_text), ("nudged", nudged)):
            path = _write_pair(tmp_path / name, text, meta_text)
            obs, _ = load_observation(path)
            run_reconstruct(path, tmp_path / name)
            runs.append((obs.flux.values.tobytes(), [(tmp_path / name / f).read_bytes()
                                                     for f in ("curve.csv", "diagnostics.json")]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("offset", [5e-13, 5e-12])
    def test_time_off_the_axis_exits_2_naming_the_row(self, axis_obs, tmp_path, capsys,
                                                      offset):
        _, csv_text, meta_text = axis_obs
        path = _write_pair(tmp_path / "d", _edit_rows(
            csv_text, dict.fromkeys(T_HALF_ROWS, ("t", offset))), meta_text)
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: observation row 130: t = \S+ is not one of the times "
                            r"j \* 1 / 256, j = 0\.\.256\n", err), err

    def test_node_id_out_of_range(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        path = _write_pair(tmp_path / "d", csv_text + "7,0,0,0\n", meta_text)
        with pytest.raises(InputError, match="out of range"):
            load_observation(path)

    def test_coordinate_mismatch(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        lines = csv_text.splitlines()
        fields = lines[2].split(",")
        fields[1] = "0.25"
        lines[2] = ",".join(fields)
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", meta_text)
        with pytest.raises(InputError, match="do not match"):
            load_observation(path)

    def test_missing_sample(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        lines = csv_text.splitlines()
        del lines[5]
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", meta_text)
        with pytest.raises(InputError, match="does not cover"):
            load_observation(path)

    def test_wrong_time_count(self, cheap_obs, tmp_path):
        scenario, csv_text, meta_text = cheap_obs
        final = _fmt(scenario.final_time)
        lines = [ln for ln in csv_text.splitlines()
                 if ln.startswith("#") or ln.split(",")[2:3] != [final]]
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", meta_text)
        with pytest.raises(InputError, match="time samples"):
            load_observation(path)

    def test_time_count_checked_before_allocating_the_axis(self, cheap_obs, tmp_path):
        # three rows against recon_nt = 10**7: an axis of nt + 1 times took
        # 80 MB before the count check
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta["config"].update(recon_nt=10 ** 7, fine_nt=2 * 10 ** 7)
        lines = csv_text.splitlines()
        head = [ln for ln in lines if ln.startswith("#")][:1]
        header, *data = [ln for ln in lines if not ln.startswith("#")]
        # both nodes at t = 0 and node 0 at the next sample time
        rows = [header] + [ln for ln in data if ln.split(",")[2] == "0"] + data[1:2]
        path = _write_pair(tmp_path / "d", "\n".join(head + rows) + "\n", json.dumps(meta))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="has 2 time samples, scenario expects 10000001"):
                load_observation(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_short_file_is_uncovered_before_any_grid(self, cheap_obs, tmp_path, monkeypatch,
                                                    capsys, kind):
        # recon_n = 10**9: a grid would take 8 GB an axis. Every time is
        # there, but fewer rows than 2 (interval) or 2 recon_n (rectangle)
        # nodes times nt + 1 cannot cover the table
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta["config"].update(recon_n=10 ** 9, fine_n=2 * 10 ** 9)
        lines = csv_text.splitlines()
        if kind == "interval":
            del lines[-1]
        else:
            meta["config"].update(domain_kind="rectangle", lengths=[1.0, 1.0])
            # a y column of 0 on every row: the file is whole for 2 nodes
            lines = [ln if ln.startswith("#") else ",".join(ln.split(",")[:2] + [
                "y" if ln.startswith("node_id") else "0"] + ln.split(",")[2:]) for ln in lines]
        path = _write_pair(tmp_path / "d", "\n".join(lines) + "\n", json.dumps(meta))

        def no_grid(*args):
            raise AssertionError("a grid was built")
        monkeypatch.setattr("fluxrecon.experiments.build_grid", no_grid)
        with pytest.raises(InputError, match="does not cover"):
            load_observation(path)
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "does not cover" in capsys.readouterr().err

    def test_grid_that_does_not_fit_exits_2(self, cheap_obs, tmp_path, linspace_out_of_memory,
                                            capsys):
        # a whole interval file with recon_n = 10**9: the grid is built, and
        # its 8 GB axis cannot be had
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta["config"].update(recon_n=10 ** 9, fine_n=2 * 10 ** 9)
        path = _write_pair(tmp_path / "d", csv_text, json.dumps(meta))
        with pytest.raises(ConfigurationError, match=r"a grid of \(1000000000,\) cells"):
            load_observation(path)
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "does not fit in memory" in capsys.readouterr().err


class TestFormatting:
    def test_fmt_round_trips_doubles(self):
        for v in [0.1, 1.0 / 3.0, np.pi, 1e-300, 12345.678901234567, 2.0 ** -52]:
            assert float(_fmt(v)) == v


class TestRunners:
    def test_synthesize_outputs(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        assert meta["kind"] == "observation"
        assert meta["node_count"] == 2
        assert meta["time_count"] == CHEAP["recon_nt"] + 1
        assert meta["flux_scale"] > 0
        assert csv_text.startswith("# fluxrecon-observation schema=1\n")

    def test_reconstruct_outputs(self, cheap_obs, tmp_path):
        _, csv_text, meta_text = cheap_obs
        obs_path = _write_pair(tmp_path / "in", csv_text, meta_text)
        outdir = tmp_path / "out"
        paths = run_reconstruct(obs_path, outdir)
        assert set(paths) == {"curve", "diagnostics", "metrics"}
        curve_lines = (outdir / "curve.csv").read_text().splitlines()
        assert curve_lines[1] == "knot,value,count,spread"
        diag = json.loads((outdir / "diagnostics.json").read_text())
        assert diag["kind"] == "diagnostics"
        assert diag["trusted_hi"] > diag["trusted_lo"]
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["f_label"] == "linear,coeff=1.0"
        assert np.isfinite(metrics["rel_sup_error"])
        stages = {f"{stage}_s" for stage in STAGES}
        assert set(metrics["timings"]) == {"load_s", "reconstruct_s", "total_s"} | stages
        timings = metrics["timings"]
        assert min(timings.values()) >= 0.0
        assert sum(timings[k] for k in stages) <= timings["reconstruct_s"]
        assert timings["load_s"] + timings["reconstruct_s"] <= timings["total_s"]

    def test_determinism(self, tmp_path):
        scenario = ScenarioConfig(**CHEAP, noise_level=0.01, seed=7)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_synthesize(scenario, d)
            run_reconstruct(d / "observation.csv", d)
        for name in ["observation.csv", "observation_meta.json",
                     "curve.csv", "diagnostics.json"]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        reports = [json.loads((d / "metrics.json").read_text()) for d in dirs]
        for r in reports:
            r.pop("timings")
        assert reports[0] == reports[1]

    def test_seed_changes_noisy_bytes(self, tmp_path):
        texts = []
        for seed in (3, 4):
            d = tmp_path / f"s{seed}"
            run_synthesize(ScenarioConfig(**CHEAP, noise_level=0.01, seed=seed), d)
            texts.append((d / "observation.csv").read_text())
            assert json.loads((d / "observation_meta.json").read_text())["seed"] == seed
        assert texts[0] != texts[1]

    def test_horizon_that_is_not_a_binary_fraction(self, tmp_path):
        # at T = 0.7 the steps of linspace(0, T, 101) differ from T / 100 by
        # rounding; the file's t column is the axis, read back exactly, and
        # the curve is as accurate as on the unit horizon
        scenario = ScenarioConfig(**dict(CHEAP, final_time=0.7, fine_nt=400, recon_nt=100))
        run_synthesize(scenario, tmp_path)
        axis = np.linspace(0.0, 0.7, 101)
        t_col = np.loadtxt(tmp_path / "observation.csv", delimiter=",", skiprows=2)[:, 2]
        assert np.array_equal(t_col, np.tile(axis, 2))
        obs, _ = load_observation(tmp_path / "observation.csv")
        assert obs.flux.final_time == 0.7 and np.array_equal(obs.flux.times, axis)
        run_reconstruct(tmp_path / "observation.csv", tmp_path)
        assert json.loads((tmp_path / "metrics.json").read_text())["rel_sup_error"] < 0.1

    def test_l2_error_does_not_overflow(self, tmp_path):
        # diff ** 2 overflows once the error passes ~1e154. An amplitude that
        # is a power of two scales every stage exactly, so the error is the
        # unit-amplitude one times it; 1e200 moves samples between bins by
        # rounding, and its error only stays finite and close
        errors = {}
        for amp in (1.0, 2.0 ** 600, 1e200):
            d = tmp_path / repr(amp)
            phi = dict(CHEAP["phi"], amplitude=amp)
            run_synthesize(ScenarioConfig(**dict(CHEAP, phi=phi)), d)
            run_reconstruct(d / "observation.csv", d)
            text = (d / "metrics.json").read_text()
            assert "Infinity" not in text and "NaN" not in text
            errors[amp] = json.loads(text)["l2_error"]
        assert errors[2.0 ** 600] == pytest.approx(2.0 ** 600 * errors[1.0], rel=1e-9)
        assert errors[1e200] == pytest.approx(1e200 * errors[1.0], rel=2e-2)

    def test_run_verify_writes_report(self, tmp_path):
        report = run_verify("eigenbasis", tmp_path)
        assert report["passed"] is True
        written = json.loads((tmp_path / "verify_eigenbasis.json").read_text())
        assert written["passed"] is True


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(CHEAP))
        return path

    def test_end_to_end(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["synthesize", "--config", str(config_path),
                     "--out", str(out)]) == 0
        paths = json.loads(capsys.readouterr().out)
        assert set(paths) == {"observation", "metadata"}
        assert main(["reconstruct", "--observation", paths["observation"],
                     "--out", str(out)]) == 0
        paths = json.loads(capsys.readouterr().out)
        assert (out / "metrics.json").exists()
        assert paths["curve"] == str(out / "curve.csv")

    # a stiff reaction overflows in the steps; a huge final time already
    # overflows in the boundary couplings built before them
    @pytest.mark.parametrize("edit", [
        {"reaction": {"family": "power", "coeff": 1e6, "exponent": 3}},
        {"final_time": 1e300}], ids=["stiff_reaction", "huge_final_time"])
    def test_diverging_march_prints_only_its_error(self, tmp_path, src_env, edit):
        # numpy's overflow warnings of the diverging steps stay out of
        # stderr: the typed error names the step that diverged
        configs = Path(__file__).resolve().parents[1] / "configs"
        scenario = json.loads((configs / "linear_interval.json").read_text())
        scenario.update(edit)
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(scenario))
        out = subprocess.run([sys.executable, "-m", "fluxrecon.cli", "synthesize",
                              "--config", str(path), "--out", str(tmp_path / "run")],
                             env=src_env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 3
        assert re.fullmatch(r"numerical failure: solver diverged at step \d+ "
                            r"\(t = [0-9.]+(e[+-][0-9]+)?\)\n", out.stderr), out.stderr

    def test_overflowing_series_prints_only_its_error(self, tmp_path, src_env):
        # on a domain of side 1e-140, lambda_k a_k overflows in the modal
        # series; numpy's warnings, also those of the rectangle's harmonic
        # extension, stay out of stderr
        configs = Path(__file__).resolve().parents[1] / "configs"
        for stem in ("linear_interval", "saturating_rectangle"):
            scenario = json.loads((configs / f"{stem}.json").read_text())
            scenario["lengths"] = [1e-140] * len(scenario["lengths"])
            path = tmp_path / f"{stem}.json"
            path.write_text(json.dumps(scenario))
            run = tmp_path / stem
            assert main(["synthesize", "--config", str(path), "--out", str(run)]) == 0
            out = subprocess.run([sys.executable, "-m", "fluxrecon.cli", "reconstruct",
                                  "--observation", str(run / "observation.csv"),
                                  "--out", str(run)],
                                 env=src_env, capture_output=True, text=True, timeout=300)
            assert out.returncode == 3, stem
            assert re.fullmatch(r"numerical failure: the modal series F\(x, s\) overflows: "
                                r"\d+ of its \d+ samples are not finite\n",
                                out.stderr), out.stderr

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["synthesize", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"flux_capacitor": 1}))
        assert main(["synthesize", "--config", str(path)]) == 2

    @pytest.mark.parametrize("edit", [
        {"lengths": 1.0}, {"lengths": ["a"]}, {"phi": "ramp"},
        {"noise_level": "0.1"}, {"noise_level": 0.01, "seed": 1.5},
        {"noise_level": 0.01, "seed": -1}, {"recon_n": 0},
        {"reaction": {"family": "linear", "coeff": "x"}},
        {"reconstruction": {"bins": "many"}},
        {"reconstruction": {"compare_extensions": "no"}},
        {"reconstruction": {"monotone": "false"}},
        {"reconstruction": {"bins": 12.5}}, {"reconstruction": {"diff_halfwidth": 2.5}},
        {"reconstruction": {"k_modes": 8.5}}, {"reconstruction": {"diff_halfwidth": True}},
        {"reconstruction": {"kernel": {"k_max": 200.5}}},
        {"reconstruction": {"kernel": {"image_count": 2.5}}},
        {"reconstruction": {"kernel": {"crossover_time": float("nan")}}},
        {"reconstruction": {"kernel": {"crossover_time": float("inf")}}},
        {"reaction": {"family": "linear", "coeff": float("nan")}},
        {"reaction": {"family": "saturating", "coeff": True}},
        {"reaction": {"family": "power", "exponent": float("inf")}},
        {"phi": {"family": "ramp", "amplitude": float("inf")}},
        {"phi": {"family": "ramp", "profile": "affine", "slope": float("nan")}},
        {"phi": {"family": "saturating_ramp", "scale": float("nan")}},
        {"phi": {"family": "ramp", "amplitud": 2.0}},
        {"reaction": {"family": "linear", "cofef": 3.0}},
        {"reaction": {"family": "zero", "coeff": 1.0}},
        {"phi": {"family": "ramp", "scale": 0.5}},
        # grid spacings whose square underflows to 0 or overflows to inf
        {"lengths": [1e-300]}, {"lengths": [1e300]},
        # a cell wider than the diffusion length sqrt(final_time)
        {"lengths": [1e150]}])
    def test_malformed_value_exits_2(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CHEAP, **edit}))
        assert main(["synthesize", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "run" / "observation.csv").exists()

    # json writes and reads NaN, Infinity and integers of any size
    @pytest.mark.parametrize("key, value", [
        ("final_time", float("nan")), ("final_time", float("inf")),
        ("noise_level", float("nan")), ("noise_level", float("-inf")),
        ("lengths", [float("nan")]), ("lengths", [float("inf")]),
        ("lengths", [10 ** 400]), ("final_time", 10 ** 400)],
        ids=["final_time-nan", "final_time-inf", "noise_level-nan", "noise_level-neg_inf",
             "lengths-nan", "lengths-inf", "lengths-huge_int", "final_time-huge_int"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CHEAP, key: value}))
        assert main(["synthesize", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"{key!r} must be a" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # synthesize writes noise_level and seed both beside the config and in it
    @pytest.mark.parametrize("edit", [
        None, {"seed": "abc"}, {"noise_level": None}, {"noise_level": "x"}, {"f_label": 7}],
        ids=["list", "seed-str", "noise_level-null", "noise_level-str", "f_label-int"])
    def test_malformed_meta_exits_2(self, cheap_obs, tmp_path, capsys, edit):
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        if edit is None:
            meta = [meta]
        else:
            meta.update(edit)
            meta["config"].update({k: v for k, v in edit.items() if k in meta["config"]})
        path = _write_pair(tmp_path / "d", csv_text, json.dumps(meta))
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "run" / "metrics.json").exists()

    def test_meta_without_config_exits_2(self, tmp_path, capsys):
        # the data fit the default scenario's grids, so only the missing
        # key tells that they were made with another phi
        scenario = ScenarioConfig(**dict(CHEAP, recon_nt=256, phi={
            "family": "saturating_ramp", "profile": "const"}))
        paths = run_synthesize(scenario, tmp_path / "obs")
        meta_path = tmp_path / "obs" / "observation_meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["config"]
        meta_path.write_text(json.dumps(meta))
        assert main(["reconstruct", "--observation", paths["observation"],
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{meta_path} has no 'config' key" in err
        assert not (tmp_path / "run" / "metrics.json").exists()

    def test_meta_with_negative_noise_level_exits_2(self, cheap_obs, tmp_path, capsys):
        _, csv_text, meta_text = cheap_obs
        meta = json.loads(meta_text)
        meta["config"]["noise_level"] = -0.5
        path = _write_pair(tmp_path / "d", csv_text, json.dumps(meta))
        assert main(["reconstruct", "--observation", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "noise_level must be >= 0" in err
        assert not (tmp_path / "run" / "metrics.json").exists()

    def test_missing_observation_exits_2(self, tmp_path, capsys):
        assert main(["reconstruct", "--observation",
                     str(tmp_path / "observation.csv")]) == 2

    # the pipeline's fixed settings are constants, and a scenario that still
    # sets one, even to its value, is rejected before anything runs
    @pytest.mark.parametrize("key, value", [pytest.param(k, v, id=k) for k, v in {
        "bins": 24, "diff_halfwidth": 2, "extension": "harmonic", "k_modes": 16,
        "monotone": True, "q_hi": 0.9, "q_lo": 0.1}.items()])
    def test_removed_reconstruction_key_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**CHEAP, "reconstruction": {key: value}}))
        assert main(["synthesize", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"unknown reconstruction keys [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # files that cannot be read or decoded, and an --out that cannot be a
    # directory, are input errors
    @pytest.mark.parametrize("case", ["huge_int", "utf16_bom", "config_is_dir", "csv_byte",
                                      "meta_huge_seed", "out_is_file", "out_under_file"])
    def test_unreadable_input_exits_2(self, cheap_obs, tmp_path, capsys, case):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(CHEAP))
        _, csv_text, meta_text = cheap_obs
        obs = _write_pair(tmp_path / "obs", csv_text, meta_text)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = tmp_path / "run"
        if case == "huge_int":
            config.write_text(_with_huge_int(CHEAP, "final_time"))
        elif case == "utf16_bom":
            config.write_bytes(b"\xff\xfe" + json.dumps(CHEAP).encode())
        elif case == "config_is_dir":
            config = tmp_path
        elif case == "csv_byte":
            obs.write_bytes(csv_text.encode() + b"\xff")
        elif case == "meta_huge_seed":
            obs.with_name("observation_meta.json").write_text(
                _with_huge_int(json.loads(meta_text), "seed"))
        else:
            out = blocker if case == "out_is_file" else blocker / "run"
        if case in ("csv_byte", "meta_huge_seed"):
            argv = ["reconstruct", "--observation", str(obs)]
        else:
            argv = ["synthesize", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_output_write_exits_2(self, tmp_path, capsys):
        # the rename onto a directory fails after the temp file is written
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(CHEAP))
        out = tmp_path / "run"
        (out / "observation.csv").mkdir(parents=True)
        assert main(["synthesize", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / "observation.csv") in err
        assert not (out / "observation.csv.tmp").exists()

    def test_rectangle_trace_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({**CHEAP, "domain_kind": "rectangle",
                                    "lengths": [1.0, 1.0], "recon_n": 9, "fine_n": 36}))
        assert main(["synthesize", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "rectangle traces need an even, equal cell count per axis, got (9, 9)" \
            in capsys.readouterr().err

    def test_output_env_var(self, config_path, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FLUXRECON_OUT", str(target))
        assert main(["synthesize", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert (target / "observation.csv").exists()

    def test_reconstruction_settings_come_from_the_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(CHEAP, recon_n=32,
                                        reconstruction={"compare_extensions": True})))
        out = tmp_path / "run"
        assert main(["synthesize", "--config", str(path), "--out", str(out)]) == 0
        assert main(["reconstruct", "--observation", str(out / "observation.csv"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["config"]["recon_n"] == 32
        assert diag["config"]["reconstruction"] == {"compare_extensions": True}
        assert diag["diagnostics"]["extension_method"] == "harmonic"
        assert diag["diagnostics"]["alt_extension_method"] == "normal_constant"

    # every run setting comes from the scenario file or the observation's copy
    # of it; the routes that overrode them, and the second run of the forward
    # studies, are gone
    @pytest.mark.parametrize("argv", [
        ["convergence"],
        ["synthesize", "--config", "{config}", "--seed", "3"],
        ["reconstruct", "--observation", "{obs}", "--config", "{config}"]],
        ids=["convergence", "synthesize-seed", "reconstruct-config"])
    def test_removed_route_is_a_usage_error(self, config_path, tmp_path, capsys, argv):
        obs = tmp_path / "observation.csv"
        argv = [a.format(config=config_path, obs=obs) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "usage: fluxrecon" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_verify_exit_codes(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "eigenbasis"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("fluxrecon.cli.run_verify",
                            lambda suite, out=None: {"passed": False})
        assert main(["verify", "--suite", "eigenbasis"]) == 3

    @pytest.mark.parametrize("boundary_max, passed", [(0.0, True), (1.0, False)])
    def test_convergence_uses_the_forward_gates(self, monkeypatch, capsys, tmp_path,
                                                boundary_max, passed):
        # second-order studies that fail only the boundary gate must fail
        # the forward suite
        errs = [4e-3, 1e-3, 2.5e-4]
        rows = [{"n": n, "nt": 4 * n * n, "interior_max": e,
                 "boundary_max": boundary_max, "initial_max": 0.0, "step_max": 0.0}
                for n, e in zip((128, 256, 512), errs)]
        monkeypatch.setattr("fluxrecon.suites.mms_spatial_errors", lambda *a: errs)
        monkeypatch.setattr("fluxrecon.suites.mms_temporal_study", lambda *a: (errs, 0.0))
        monkeypatch.setattr("fluxrecon.suites.difference_residual_study", lambda: rows)
        assert main(["verify", "--suite", "forward", "--out", str(tmp_path)]) == (
            0 if passed else 3)
        report = json.loads(capsys.readouterr().out)
        assert json.loads((tmp_path / "verify_forward.json").read_text()) == report
        assert report["passed"] is passed
        # the printed report names the gate with its value and tolerance
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["difference_boundary_max"] == {
            "name": "difference_boundary_max", "value": boundary_max,
            "tolerance": 1e-12, "direction": "<=", "passed": passed}
        assert all(c["passed"] for n, c in checks.items() if n != "difference_boundary_max")
        # the table: three levels per study, with no rate on a study's first
        assert [(r["study"], r["n"], r["nt"]) for r in report["table"]] == [
            ("mms_spatial", 16, None), ("mms_spatial", 32, None), ("mms_spatial", 64, None),
            ("mms_temporal", 128, 16), ("mms_temporal", 128, 32), ("mms_temporal", 128, 64),
            *[("difference_residual", n, 4 * n * n) for n in (128, 256, 512)]]
        assert [r["error"] for r in report["table"]] == errs * 3
        rates = [r["rate"] for r in report["table"]]
        assert rates[::3] == [None] * 3
        assert rates[1::3] + rates[2::3] == pytest.approx([2.0] * 6)

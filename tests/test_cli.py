"""End-to-end subcommand tests against temp directories."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import dcs
from dcs import PreconditionError, ValidationError, load_dataset, load_scheme, predict, save_dataset
from dcs.annealing import initial_solution
from dcs.cli import _baseline, main, mode_indices
from dcs.corrections import (
    FunctionSet,
    TriangularMembership,
    default_function_set,
    save_catalog,
)
from dcs.objective import OBJECTIVES, ObjectiveWeights, evaluate
from dcs.synth import (
    BiasProfile,
    benchmark_suite,
    generate as synth_generate,
    save_profile,
)
from conftest import make_dataset

FAST = [
    "--init-temp", "100.0",
    "--alpha", "0.6",
    "--min-temp", "0.01",
]
# 100 * 0.6^t < 0.01 at t = 19: quick but still a real multi-loop run


@pytest.fixture()
def train_csv(tmp_path):
    profile = BiasProfile(
        num_classes=3,
        class_priors=(1 / 3, 1 / 3, 1 / 3),
        target_accuracy=(0.9, 0.25, 0.85),
        confusion_temperature=1.0,
        seed=3,
    )
    path = tmp_path / "train.csv"
    save_dataset(synth_generate(profile, 300), path)
    return path


class TestOptimize:
    def test_writes_complete_layout(self, tmp_path, train_csv):
        out = tmp_path / "run"
        rc = main(
            ["optimize", "--input", str(train_csv), "--seed", "0",
             "--out", str(out), *FAST]
        )
        assert rc == 0
        for name in (
            "scheme.json",
            "solve.json",
            "trace.csv",
            "optimization_set.json",
            "dev_set.json",
            "dev_report.json",
            "dev_baseline.json",
            "dev_report.csv",
        ):
            assert (out / name).exists(), name

    def test_solve_json_fields(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "1",
              "--out", str(out), *FAST])
        payload = json.loads((out / "solve.json").read_text())
        assert payload["task"] == "train"
        assert payload["num_classes"] == 3
        assert payload["search_space"] == 3 * 49
        assert payload["outer_loops_run"] == len(payload["temperatures"])
        assert payload["wall_time"] > 0

    @pytest.mark.parametrize(
        "schedule, stop_reason, loops",
        [
            # paper defaults: the 150-loop cap binds long before T < 1e-2
            ((), "max_outer_loops", 150),
            # 0.1 * 0.95^t < 0.05 first at t = 14
            (("--init-temp", "0.1", "--min-temp", "0.05"), "min_temperature", 14),
        ],
        ids=["default-cap-bound", "cold"],
    )
    def test_solve_json_run_record(
        self, tmp_path, train_csv, schedule, stop_reason, loops
    ):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "1",
              "--out", str(out), *schedule])
        payload = json.loads((out / "solve.json").read_text())
        assert payload["stop_reason"] == stop_reason
        assert payload["outer_loops_run"] == loops
        with (out / "trace.csv").open() as fh:
            generated = sum(int(row["generated"]) for row in csv.DictReader(fh))
        assert payload["evaluations"] == generated > 0

    def test_trace_csv_matches_solve(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "1",
              "--out", str(out), *FAST])
        payload = json.loads((out / "solve.json").read_text())
        with (out / "trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == payload["outer_loops_run"]
        assert float(rows[0]["temperature"]) == payload["temperatures"][0]
        assert float(rows[-1]["best_z"]) == payload["z_trace"][-1]

    def test_scheme_loads_and_matches_optimization_set(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "2",
              "--out", str(out), *FAST])
        scheme = load_scheme(out / "scheme.json")
        opt = load_dataset(out / "optimization_set.json")
        assert scheme.matches_dataset(opt)
        payload = json.loads((out / "solve.json").read_text())
        assert scheme.best_z == payload["best_z"]

    def test_split_sizes_default_fraction(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "0",
              "--out", str(out), *FAST])
        opt = load_dataset(out / "optimization_set.json")
        dev = load_dataset(out / "dev_set.json")
        assert opt.num_instances == 285
        assert dev.num_instances == 15

    def test_dnip_mode_selects_only_weights_or_k0(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--mode", "dnip",
              "--seed", "0", "--out", str(out), *FAST])
        scheme = load_scheme(out / "scheme.json")
        fs = scheme.catalog
        for k in scheme.selection:
            assert k == fs.dont_change_index or fs.index_kind(k) == "weight"

    def test_furud_mode_selects_only_memberships(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--mode", "furud",
              "--seed", "0", "--out", str(out), *FAST])
        scheme = load_scheme(out / "scheme.json")
        for k in scheme.selection:
            assert scheme.catalog.index_kind(k) == "membership"

    def test_err_objective_forces_zero_weights(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--objective", "err",
              "--beta", "7", "--tau", "7", "--seed", "0",
              "--out", str(out), *FAST])
        scheme = load_scheme(out / "scheme.json")
        assert scheme.objective.beta == 0.0
        assert scheme.objective.tau == 0.0

    def test_missing_seed_is_a_usage_error(self, tmp_path, train_csv):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--input", str(train_csv),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_missing_input_file_exit_4(self, tmp_path):
        rc = main(["optimize", "--input", str(tmp_path / "absent.csv"),
                   "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 4

    def test_invalid_dataset_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,p_1,p_2\na,9,0.5,0.5\nb,1,0.5,0.5\n")
        rc = main(["optimize", "--input", str(bad), "--seed", "0",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_schedule_exit_3(self, tmp_path, train_csv):
        rc = main(["optimize", "--input", str(train_csv), "--seed", "0",
                   "--alpha", "1.5", "--out", str(tmp_path / "x")])
        assert rc == 3

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--init-temp", "initial_temperature"),
            ("--min-temp", "min_temperature"),
            ("--lambda1", "lambda1"),
            ("--lambda2", "lambda2"),
            ("--beta", "beta"),
            ("--tau", "tau"),
        ],
    )
    def test_nan_exits_like_negative(
        self, tmp_path, capsys, train_csv, flag, field
    ):
        def run(value):
            capsys.readouterr()
            rc = main(["optimize", "--input", str(train_csv), "--seed", "0",
                       "--max-outer", "2", flag, value,
                       "--out", str(tmp_path / value)])
            return rc, capsys.readouterr().err

        rc, err = run("nan")
        assert (rc, err) == run("-1")
        assert rc in (2, 3) and field in err
        assert not (tmp_path / "nan").exists()
        # infinity fails the same check, or a finite bound checked after it
        rc_inf, err_inf = run("inf")
        assert rc_inf == rc and field in err_inf
        assert not (tmp_path / "inf").exists()


# a catalog whose Don't Change is not its first entry
SHOULDER_FIRST = FunctionSet(
    memberships=(
        TriangularMembership(0.0, 0.0, 0.6),
        TriangularMembership(0.0, 1.0, 1.0),
    ),
    num_weights=2,
)


@settings(deadline=None, max_examples=100)
@given(
    probs=st.integers(1, 30).flatmap(
        lambda m: hnp.arrays(
            np.float64, (m, 3),
            elements=st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 0.25]),
        )
    ),
    data=st.data(),
)
def test_baseline_is_the_identity_selection(probs, data):
    # ties everywhere, between 0.0 and -0.0 too: the raw argmax must pick
    # the class the all-Don't-Change selection's predictions pick
    m, n = probs.shape
    labels = data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
    ds = make_dataset(probs, labels)

    def report(score):
        try:
            return json.dumps(score().to_dict())
        except PreconditionError as exc:  # one class present, under "full"
            return str(exc)

    for fs in (default_function_set(), SHOULDER_FIRST):
        for mode in OBJECTIVES:
            w = ObjectiveWeights.from_mode(mode)
            assert report(lambda: _baseline(ds, fs, w)) == report(
                lambda: evaluate(ds, fs, initial_solution(fs, n), w)
            )


class TestApply:
    @pytest.fixture()
    def run_dir(self, tmp_path, train_csv):
        out = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "0",
              "--out", str(out), *FAST])
        return out

    def test_apply_to_own_optimization_set(self, tmp_path, run_dir):
        out = tmp_path / "applied"
        rc = main(["apply", "--scheme", str(run_dir / "scheme.json"),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["optimization_set_match"] is True
        assert payload["recomputed_z"] == payload["recorded_best_z"]

    def test_predictions_match_library(self, tmp_path, run_dir, train_csv):
        out = tmp_path / "applied"
        main(["apply", "--scheme", str(run_dir / "scheme.json"),
              "--input", str(train_csv), "--out", str(out)])
        scheme = load_scheme(run_dir / "scheme.json")
        ds = load_dataset(train_csv)
        expected = predict(ds, scheme.catalog, scheme.selection)
        with (out / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        got = np.array([int(r["prediction"]) for r in rows])
        assert np.array_equal(got, expected)
        assert [r["id"] for r in rows] == list(ds.instance_ids)

    def test_report_csv_per_class_table(self, tmp_path, run_dir, train_csv):
        out = tmp_path / "applied"
        main(["apply", "--scheme", str(run_dir / "scheme.json"),
              "--input", str(train_csv), "--out", str(out)])
        with (out / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["class"] for r in rows] == ["1", "2", "3"]
        assert set(rows[0]) == {
            "class", "n_true", "accuracy", "correction_kind",
            "correction_params",
        }

    def test_class_count_mismatch_exit_2(self, tmp_path, run_dir, capsys):
        two_class = tmp_path / "two.csv"
        two_class.write_text(
            "id,label,p_1,p_2\na,1,0.9,0.1\nb,2,0.2,0.8\n"
        )
        scheme = run_dir / "scheme.json"
        capsys.readouterr()
        rc = main(["apply", "--scheme", str(scheme),
                   "--input", str(two_class), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {two_class}: dataset has 2 classes but scheme {scheme} "
            "covers 3\n"
        )

    def test_mistyped_scheme_exit_2(self, tmp_path, run_dir):
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload["selection"] = ["x", 1]
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_schedule_in_scheme_exit_2(self, tmp_path, run_dir, capsys):
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload["anneal_config"]["cooling_rate"] = 2
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "cooling_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field", [("anneal_config", "initial_temperature"),
                           ("anneal_config", "lambda2"),
                           ("objective", "beta")]
    )
    def test_infinity_in_scheme_exit_2(
        self, tmp_path, run_dir, capsys, section, field
    ):
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload[section][field] = math.inf
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))  # writes the token Infinity
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("data", ["optimization_set.json", "dev_set.json"])
    def test_non_finite_best_z_in_scheme_exit_2(
        self, tmp_path, run_dir, capsys, value, data
    ):
        # on its own optimization set a NaN best_z once failed to reproduce
        # (exit 3); on other data it was copied into report.json (exit 0)
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload["best_z"] = value
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))  # writes the token NaN or Infinity
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / data),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "best_z" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field, value", [("selection", [999, 1, 1]), ("best_z", math.nan)]
    )
    def test_invalid_scheme_error_names_file(
        self, tmp_path, run_dir, capsys, field, value
    ):
        # the file parses, but CorrectionScheme's own checks reject it
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload[field] = value
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and field in err

    def test_unreproduced_best_z_exit_3(self, tmp_path, run_dir, capsys):
        # apply's only exit 3: the scheme's own data no longer gives its Z
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload["best_z"] += 1e-9
        moved = tmp_path / "moved_scheme.json"
        moved.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["apply", "--scheme", str(moved),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "does not reproduce its recorded objective" in err
        assert not (tmp_path / "x").exists()

    def test_nan_beta_in_scheme_exit_2(self, tmp_path, run_dir, capsys):
        payload = json.loads((run_dir / "scheme.json").read_text())
        payload["objective"]["beta"] = float("nan")
        bad = tmp_path / "bad_scheme.json"
        bad.write_text(json.dumps(payload))
        rc = main(["apply", "--scheme", str(bad),
                   "--input", str(run_dir / "optimization_set.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "beta" in capsys.readouterr().err


class TestCompare:
    def test_grid_shape_and_sorting(self, tmp_path, train_csv):
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(train_csv),
                   "--seed", "0,1", "--out", str(out), *FAST])
        assert rc == 0
        with (out / "runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 1 dataset x 3 modes x 2 seeds
        keys = [(r["dataset"], r["mode"], int(r["seed"])) for r in rows]
        assert keys == sorted(keys)

    def test_summary_math(self, tmp_path, train_csv):
        out = tmp_path / "cmp"
        main(["compare", "--input", str(train_csv), "--mode", "dcs",
              "--seed", "0,1,2", "--out", str(out), *FAST])
        with (out / "runs.csv").open() as fh:
            runs = list(csv.DictReader(fh))
        with (out / "summary.csv").open() as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        accs = [float(r["eval_accuracy"]) for r in runs]
        assert float(summary[0]["accuracy_mean"]) == pytest.approx(
            sum(accs) / 3, abs=1e-12
        )
        assert int(summary[0]["num_seeds"]) == 3
        tally = summary[0]["kind_tally"]
        assert tally.startswith("membership:weight:dont_change=")

    def test_eval_input_pairing(self, tmp_path, train_csv):
        eval_path = tmp_path / "eval.csv"
        profile = BiasProfile(
            num_classes=3,
            class_priors=(1 / 3, 1 / 3, 1 / 3),
            target_accuracy=(0.9, 0.25, 0.85),
            confusion_temperature=1.0,
            seed=3,
        )
        save_dataset(synth_generate(profile, 200, replica=1), eval_path)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(train_csv),
                   "--eval-input", str(eval_path), "--mode", "dcs",
                   "--seed", "0", "--out", str(out), *FAST])
        assert rc == 0
        with (out / "runs.csv").open() as fh:
            row = next(csv.DictReader(fh))
        # eval metrics computed on the held-out file, not the train set
        assert row["dataset"] == "train"
        assert float(row["eval_accuracy"]) != float(row["train_accuracy"])

    def test_mismatched_pairing_exit_2(self, tmp_path, train_csv):
        rc = main(["compare", "--input", str(train_csv),
                   "--eval-input", "a.csv", "--eval-input", "b.csv",
                   "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_eval_set_class_count_mismatch_exit_2(
        self, tmp_path, train_csv, capsys
    ):
        two_class = tmp_path / "two.csv"
        two_class.write_text("id,label,p_1,p_2\na,1,0.9,0.1\nb,2,0.2,0.8\n")
        capsys.readouterr()
        rc = main(["compare", "--input", str(train_csv),
                   "--eval-input", str(two_class), "--seed", "0",
                   "--out", str(tmp_path / "x"), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {two_class}: eval set has 2 classes, train has 3\n"
        )

    @pytest.mark.parametrize(
        "extra, message",
        [
            # a 3-class and a 2-class set, both named by their stem 'train'
            (["--input", "other/train.csv"], "dataset name 'train'"),
            (["--mode", "dcs,dnip,dcs"], "mode 'dcs'"),
            (["--seed", "0,1,0"], "seed 0"),
        ],
    )
    def test_repeated_grid_key_exit_2(
        self, tmp_path, train_csv, capsys, monkeypatch, extra, message
    ):
        # their rows merged into one summary row: 'train' with num_seeds 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "train.csv").write_text(
            "id,label,p_1,p_2\na,1,0.9,0.1\nb,2,0.2,0.8\n"
        )
        capsys.readouterr()
        rc = main(["compare", "--input", str(train_csv), "--seed", "0",
                   "--out", "x", *FAST, *extra])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: compare grid repeats {message}\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "1,x", "expected comma-separated integers, got '1,x'"),
            ("--mode", "dcs,foo", "unknown mode 'foo'"),
            ("--mode", ",", "need at least one mode"),
        ],
    )
    def test_bad_list_flag_is_a_usage_error(
        self, tmp_path, train_csv, capsys, flag, value, message
    ):
        argv = ["compare", "--input", str(train_csv), "--seed", "0",
                "--out", str(tmp_path / "x"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_thread_invariance_except_wall_time(
        self, tmp_path, train_csv, monkeypatch
    ):
        out1 = tmp_path / "cmp1"
        main(["compare", "--input", str(train_csv), "--mode", "dcs,dnip",
              "--seed", "0", "--out", str(out1), *FAST])
        monkeypatch.setenv("DCS_THREADS", "2")
        out2 = tmp_path / "cmp2"
        main(["compare", "--input", str(train_csv), "--mode", "dcs,dnip",
              "--seed", "0", "--out", str(out2), *FAST])

        def strip_wall(path):
            with path.open() as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time")
            return [
                [cell for i, cell in enumerate(row) if i != drop]
                for row in rows
            ]

        assert strip_wall(out1 / "runs.csv") == strip_wall(out2 / "runs.csv")

    def test_cli_import_leaves_the_process_pool_out(self):
        # only ``compare`` with DCS_THREADS > 1 needs the pool, so a fresh
        # interpreter that imports the package and its CLI loads neither
        code = (
            "import sys, dcs, dcs.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dcs.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout == "[]\n"

    def test_invalid_thread_env_exit_2(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv("DCS_THREADS", "zero")
        rc = main(["compare", "--input", str(train_csv), "--seed", "0",
                   "--out", str(tmp_path / "x"), *FAST])
        assert rc == 2

    def test_zero_threads_exit_2(self, tmp_path, train_csv, monkeypatch, capsys):
        monkeypatch.setenv("DCS_THREADS", "0")
        capsys.readouterr()
        rc = main(["compare", "--input", str(train_csv), "--seed", "0",
                   "--out", str(tmp_path / "x"), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: DCS_THREADS must be a positive integer, got '0'\n"
        )


class TestReport:
    def test_report_to_file(self, tmp_path, train_csv):
        run = tmp_path / "run"
        main(["optimize", "--input", str(train_csv), "--seed", "0",
              "--out", str(run), *FAST])
        out_csv = tmp_path / "times.csv"
        rc = main(["report", str(run / "solve.json"), "--out", str(out_csv)])
        assert rc == 0
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["task"] == "train"
        assert int(rows[0]["search_space"]) == 147
        assert float(rows[0]["wall_time"]) > 0
        assert int(rows[0]["outer_loops"]) <= 150

    def test_malformed_solve_exit_2(self, tmp_path):
        bad = tmp_path / "solve.json"
        bad.write_text("{}")
        rc = main(["report", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"task": "t", "num_classes": 3, "search_space": 147,
             "wall_time": "abc", "outer_loops_run": 3},
            ["task"],
        ],
        ids=["wall_time_not_a_number", "top_level_list"],
    )
    def test_mistyped_solve_exit_2(self, tmp_path, payload):
        bad = tmp_path / "solve.json"
        bad.write_text(json.dumps(payload))
        rc = main(["report", str(bad)])
        assert rc == 2


class TestOracleCommand:
    def test_writes_result(self, tmp_path, tiny_catalog):
        profile = BiasProfile(
            num_classes=2,
            class_priors=(0.5, 0.5),
            target_accuracy=(0.9, 0.3),
            confusion_temperature=1.0,
            seed=5,
        )
        data = tmp_path / "small.csv"
        save_dataset(synth_generate(profile, 50), data)
        cat = tmp_path / "cat.json"
        save_catalog(tiny_catalog, cat)
        out = tmp_path / "orc"
        rc = main(["oracle", "--input", str(data), "--catalog", str(cat),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["num_evaluated"] == 16
        assert len(payload["best_xi"]) == 2

    def test_mistyped_catalog_exit_2(self, tmp_path, train_csv, tiny_catalog):
        cat = tmp_path / "cat.json"
        save_catalog(tiny_catalog, cat)
        payload = json.loads(cat.read_text())
        payload["memberships"][1]["a"] = "x"
        cat.write_text(json.dumps(payload))
        rc = main(["oracle", "--input", str(train_csv), "--catalog", str(cat),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["oracle", "optimize"])
    def test_huge_num_weights_exit_2(
        self, tmp_path, capsys, train_csv, tiny_catalog, command
    ):
        cat = tmp_path / "cat.json"
        save_catalog(tiny_catalog, cat)
        payload = json.loads(cat.read_text())
        payload["num_weights"] = 2**70
        cat.write_text(json.dumps(payload))
        argv = [command, "--input", str(train_csv), "--catalog", str(cat),
                "--out", str(tmp_path / "x")]
        if command == "optimize":
            argv += ["--seed", "0"]
        assert main(argv) == 2
        assert "num_weights" in capsys.readouterr().err

    def test_limit_guard_exit_3(self, tmp_path, train_csv):
        rc = main(["oracle", "--input", str(train_csv), "--limit", "100",
                   "--out", str(tmp_path / "x")])
        assert rc == 3


class TestGenerate:
    def test_suite_layout(self, tmp_path):
        out = tmp_path / "suite"
        rc = main(["generate", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "suite.json").read_text())
        assert len(manifest["tasks"]) == 5
        for task in manifest["tasks"]:
            train = load_dataset(out / task["train"])
            assert train.num_classes == task["num_classes"]
            assert (out / task["profile"]).exists()

    def test_single_profile_mode(self, tmp_path):
        profile = BiasProfile(
            num_classes=2,
            class_priors=(0.5, 0.5),
            target_accuracy=(0.8, 0.4),
            confusion_temperature=1.0,
            seed=13,
        )
        ppath = tmp_path / "my_profile.json"
        save_profile(profile, ppath)
        out = tmp_path / "single"
        rc = main(["generate", "--out", str(out), "--profile", str(ppath),
                   "--name", "tiny", "--train-size", "40",
                   "--eval-size", "30"])
        assert rc == 0
        train = load_dataset(out / "tiny_train.csv")
        eval_ds = load_dataset(out / "tiny_eval.csv")
        assert train.num_instances == 40
        assert eval_ds.num_instances == 30

    @pytest.mark.parametrize(
        "flags",
        [["--name", "x"], ["--train-size", "500"], ["--eval-size", "0"],
         ["--name", "", "--eval-size", "9"]],
    )
    def test_profile_flags_without_profile_exit_2(self, tmp_path, capsys, flags):
        # the suite's sizes are fixed: a size would be dropped unread
        out = tmp_path / "suite"
        assert main(["generate", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {flags[0]} applies only with --profile; without it, "
            "generate writes the built-in suite\n"
        )
        assert not out.exists()

    def test_profile_sizes_default_to_2000(self, tmp_path):
        ppath = tmp_path / "p.json"
        save_profile(benchmark_suite()[0].profile, ppath)
        out = tmp_path / "one"
        assert main(["generate", "--out", str(out), "--profile", str(ppath),
                     "--eval-size", "7"]) == 0
        task, = json.loads((out / "suite.json").read_text())["tasks"]
        assert (task["name"], task["train_size"], task["eval_size"]) == ("p", 2000, 7)
        assert load_dataset(out / "p_train.csv").num_instances == 2000

    @pytest.mark.parametrize(
        "field, value",
        [("confusion_temperature", "abc"), ("class_priors", "ab")],
    )
    def test_non_numeric_profile_field_exit_2(
        self, tmp_path, capsys, field, value
    ):
        ppath = tmp_path / "bad_profile.json"
        payload = {
            "num_classes": 2,
            "class_priors": [0.5, 0.5],
            "target_accuracy": [0.8, 0.4],
            "confusion_temperature": 1.0,
            "seed": 13,
        }
        payload[field] = value
        ppath.write_text(json.dumps(payload))
        rc = main(["generate", "--out", str(tmp_path / "x"),
                   "--profile", str(ppath)])
        assert rc == 2
        assert field in capsys.readouterr().err


# one bad file per case, each read through one JSON reader
BAD_JSON = {
    "not-utf8": b'{"task": "\xff"}',
    "long-number": b'{"task": 1' + b"0" * 5000 + b"}",
    "deep": b"[" * 10**5 + b"]" * 10**5,
    "truncated": b'{"task": [1, 2',
}


GOLDEN_DIR = Path(__file__).parent / "golden_files"


def _reader_argv(reader, bad, train_csv, out):
    """CLI arguments that make ``reader`` read the file ``bad``."""
    scheme = str(GOLDEN_DIR / "scheme.json")
    return {
        "optimize": ["optimize", "--input", bad, "--seed", "0", "--out", out],
        "apply": ["apply", "--scheme", scheme, "--input", bad, "--out", out],
        "compare": ["compare", "--input", bad, "--seed", "0", "--out", out],
        "compare-eval": ["compare", "--input", train_csv, "--eval-input", bad,
                         "--seed", "0", "--out", out],
        "oracle": ["oracle", "--input", bad, "--out", out],
        "scheme": ["apply", "--scheme", bad, "--input", train_csv,
                   "--out", out],
        "catalog": ["oracle", "--input", train_csv, "--catalog", bad,
                    "--out", out],
        "profile": ["generate", "--profile", bad, "--out", out],
        "solve": ["report", bad],
    }[reader]


class TestJsonReaders:
    """Every JSON input the CLI reads rejects bad bytes with exit 2 and a
    one-line error that starts with the file's path and names it once,
    never with a traceback."""

    @pytest.mark.parametrize("case", BAD_JSON)
    @pytest.mark.parametrize("reader", ["scheme", "catalog", "profile", "solve"])
    def test_bad_file_exit_2(self, tmp_path, capsys, train_csv, reader, case):
        bad = tmp_path / f"bad-{case}.json"
        bad.write_bytes(BAD_JSON[case])
        argv = _reader_argv(reader, str(bad), str(train_csv), str(tmp_path / "o"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert err.count(str(bad)) == 1


def _golden_with(name: str, edit) -> bytes:
    """The golden JSON file ``name`` after ``edit`` changes its payload."""
    payload = json.loads((GOLDEN_DIR / name).read_text())
    edit(payload)
    return json.dumps(payload).encode()


# datasets that fail in the parser, in LabeledDataset's checks, in the JSON
# reader and in UTF-8 decoding
BAD_DATASETS = {
    "csv-ragged": ("csv", b"id,label,p_1,p_2,p_3\na,1,0.5,0.5\n"),
    "csv-duplicate-id": (
        "csv",
        b"id,label,p_1,p_2,p_3\na,1,0.5,0.5,0.5\na,2,0.5,0.5,0.5\n",
    ),
    "json-label-out-of-range": (
        "json", b'[{"id": "a", "label": 4, "probs": [0.5, 0.5, 0.5]}]'
    ),
    "json-truncated": ("json", b'[{"id": "a"'),
    "csv-not-utf8": ("csv", b"id,label,p_1,p_2,p_3\na,1,0.5,\xff,0.5\n"),
}

# JSON records that lack a field or fail their own checks
BAD_RECORDS = {
    "scheme": {
        "missing-field": b'{"version": 1}',
        "num-classes": _golden_with(
            "scheme.json", lambda d: d.update(num_classes=7)
        ),
        "selection": _golden_with(
            "scheme.json", lambda d: d.update(selection=[999, 1, 1])
        ),
        # "selection vector is empty"
        "no-selection": _golden_with(
            "scheme.json", lambda d: d.update(selection=[], num_classes=0)
        ),
        # "must be within float range"
        "best-z-past-float": _golden_with(
            "scheme.json", lambda d: d.update(best_z=10**400)
        ),
    },
    "catalog": {
        "missing-field": b'{"memberships": []}',
        # "catalog needs at least one membership"
        "no-memberships": _golden_with(
            "catalog.json", lambda d: d.update(memberships=[])
        ),
        "vertex-order": _golden_with(
            "catalog.json", lambda d: d["memberships"][1].update(a=0.5)
        ),
        "no-weights": _golden_with(
            "catalog.json", lambda d: d.update(num_weights=0)
        ),
    },
    "profile": {
        "missing-field": b"{}",
        "one-class": _golden_with(
            "profile.json",
            lambda d: d.update(
                num_classes=1, class_priors=[1.0], target_accuracy=[0.9]
            ),
        ),
        "accuracy-above-one": _golden_with(
            "profile.json", lambda d: d.update(target_accuracy=[0.9, 1.5, 0.8])
        ),
    },
    "solve": {"missing-field": b"{}"},
}

BAD_INPUTS = [
    *(
        pytest.param(reader, f"bad.{suffix}", content, id=f"{reader}-{case}")
        for reader in ("optimize", "apply", "compare", "compare-eval", "oracle")
        for case, (suffix, content) in BAD_DATASETS.items()
    ),
    *(
        pytest.param(reader, "bad.json", content, id=f"{reader}-{case}")
        for reader, cases in BAD_RECORDS.items()
        for case, content in cases.items()
    ),
]


class TestErrorsNameTheFile:
    """A bad input file, whether it fails to parse or fails its own checks,
    exits 2 with a message that starts with its path and names it once."""

    @pytest.mark.parametrize("reader, name, content", BAD_INPUTS)
    def test_message_starts_with_path(
        self, tmp_path, capsys, train_csv, reader, name, content
    ):
        bad = tmp_path / name
        bad.write_bytes(content)
        argv = _reader_argv(reader, str(bad), str(train_csv), str(tmp_path / "o"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert err.count(str(bad)) == 1


class TestModeIndices:
    def test_partition_of_catalog(self):
        fs = default_function_set()
        assert mode_indices(fs, "dcs") == tuple(range(1, 50))
        dnip = mode_indices(fs, "dnip")
        assert dnip[0] == fs.dont_change_index
        assert all(fs.index_kind(k) == "weight" for k in dnip[1:])
        furud = mode_indices(fs, "furud")
        assert furud == tuple(range(1, 20))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown mode 'x'"):
            mode_indices(default_function_set(), "x")

import dataclasses
import json
import math
import os

import pytest

from mlnexact import cli, learning
from mlnexact.bounds import verify_all
from mlnexact.cli import build_parser, main
from mlnexact.experiment import ExperimentConfig
from mlnexact.logic import normalize_distinct, parse_mln

UNARY_MLN = "type p = 3\npredicate S(p)\n0.5 S(x)\n"
TRIANGLE_MLN = "type node = 4\npredicate R(node,node)\n0.7 R(x,y) ^ R(y,z) ^ R(x,z)\n"


@pytest.fixture
def unary_path(tmp_path):
    path = tmp_path / "unary.mln"
    path.write_text(UNARY_MLN)
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.mln"
    path.write_text(TRIANGLE_MLN)
    return str(path)


class TestVerify:
    def test_unary_model_passes_with_zero_spread(self, unary_path, capsys):
        assert main(["verify", "--mln", unary_path, "--n", "2", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        assert "log spread=0" in out

    def test_triangle_passes(self, triangle_path, capsys):
        assert main(["verify", "--mln", triangle_path, "--n", "2", "--m", "2"]) == 0
        assert "ALL CHECKS PASS" in capsys.readouterr().out

    def test_guard_violation_exits_two(self, tmp_path, capsys):
        big = tmp_path / "big.mln"
        big.write_text("type p = 6\npredicate R(p,p)\n0.5 R(x,y)\n")
        assert main(["verify", "--mln", big.as_posix(), "--n", "3", "--m", "3"]) == 2
        assert "guard" in capsys.readouterr().err

    def test_rows_written(self, unary_path, triangle_path, tmp_path):
        out = tmp_path / "checks.csv"
        main(["verify", "--mln", unary_path, "--n", "2", "--m", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "check,n,m,log_spread,worst_slack,pass"
        assert len(lines) == 6
        assert all(line.endswith("true") for line in lines[1:])
        # Every cell is the matching CheckRecord field; the triangle's spread is
        # not zero, so its floats exercise the full .17g formatting.
        for text, path, n, m in ((UNARY_MLN, unary_path, 2, 1), (TRIANGLE_MLN, triangle_path, 2, 2)):
            main(["verify", "--mln", path, "--n", str(n), "--m", str(m), "--out", str(out)])
            checks = verify_all(normalize_distinct(parse_mln(text)), n, m).checks
            assert [line.split(",") for line in out.read_text().splitlines()[1:]] == [
                [
                    c.name,
                    str(c.n),
                    str(c.m),
                    f"{c.log_spread:.17g}",
                    f"{c.worst_slack:.17g}",
                    str(c.passed).lower(),
                ]
                for c in checks
            ]

    def test_missing_file_exits_two(self, capsys):
        assert main(["verify", "--mln", "no_such.mln", "--n", "2", "--m", "1"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    def test_a_tol_that_is_not_finite_and_nonnegative_exits_two(self, tol, unary_path, capsys):
        argv = ["verify", "--mln", unary_path, "--n", "2", "--m", "1", "--tol", tol]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "tol" in captured.err and "FAIL" not in captured.out and "PASS" not in captured.out

    def test_max_atoms_above_the_hard_cap_exits_two(self, unary_path, capsys):
        argv = ["verify", "--mln", unary_path, "--n", "2", "--m", "1", "--max-atoms", "60"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "hard cap of 34" in capsys.readouterr().err
        assert build_parser().parse_args(argv[:-1] + ["34"]).max_atoms == 34

    @pytest.mark.parametrize(
        "flags", [["--force-guard", "--max-atoms", "20"], ["--max-atoms", "20", "--force-guard"]]
    )
    def test_force_guard_wins_over_max_atoms(self, flags, unary_path, monkeypatch):
        seen = []

        def fake_verify_all(model, n, m, tol, max_atoms):
            seen.append(max_atoms)
            raise ValueError("stop")

        monkeypatch.setattr(cli._bounds, "verify_all", fake_verify_all)
        assert main(["verify", "--mln", unary_path, "--n", "2", "--m", "1", *flags]) == 2
        assert seen == [34]

    def test_forced_guard_error_drops_the_override_hint(self, tmp_path, capsys):
        # G=30 passes the forced pass guard; the 25-atom front half exceeds the
        # fixed 2^24 dense-vector limit, which --force-guard does not lift. The
        # three-variable clause keeps the model off the lifted path, which
        # builds no dense front vector.
        preds = "ABCDE"
        path = tmp_path / "five.mln"
        path.write_text(
            "type p = 6\n"
            + "".join(f"predicate {q}(p)\n" for q in preds)
            + "".join(f"0.5 {q}(x)\n" for q in preds)
            + "0.5 A(x) ^ B(y) ^ C(z)\n"
        )
        argv = ["verify", "--mln", str(path), "--n", "5", "--m", "1"]
        assert main(argv + ["--force-guard"]) == 2
        err = capsys.readouterr().err
        assert "25 ground atoms exceed the enumeration guard of 24" in err
        assert "--force-guard" not in err
        assert main(argv) == 2
        assert "use --force-guard to override" in capsys.readouterr().err


class TestGenerate:
    def test_writes_databases_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert (
            main(
                [
                    "generate",
                    "--kind",
                    "fs",
                    "--population",
                    "10",
                    "--seeds",
                    "1,2,3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        files = sorted(os.listdir(out))
        assert files == [
            "fs_pop10_seed1.db",
            "fs_pop10_seed1.meta.json",
            "fs_pop10_seed2.db",
            "fs_pop10_seed2.meta.json",
            "fs_pop10_seed3.db",
            "fs_pop10_seed3.meta.json",
        ]
        meta = json.loads((out / "fs_pop10_seed1.meta.json").read_text())
        assert meta["seed"] == 1 and meta["population"] == 10

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["generate", "--population", "10", "--seeds", "5", "--out", str(out)])
        assert (a / "fs_pop10_seed5.db").read_bytes() == (b / "fs_pop10_seed5.db").read_bytes()
        assert (a / "fs_pop10_seed5.meta.json").read_bytes() == (
            b / "fs_pop10_seed5.meta.json"
        ).read_bytes()

    def test_large_population_generation_only(self, tmp_path):
        out = tmp_path / "big"
        assert main(["generate", "--population", "500", "--seeds", "1", "--out", str(out)]) == 0
        assert (out / "fs_pop500_seed1.db").exists()


class TestLearnEval:
    def test_learn_then_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        main(["generate", "--population", "3", "--seeds", "4", "--out", str(data_dir)])
        db = str(data_dir / "fs_pop3_seed4.db")
        mln = tmp_path / "fs.mln"
        from mlnexact.datagen import FRIENDS_SMOKERS_MLN

        mln.write_text(FRIENDS_SMOKERS_MLN)
        learned = tmp_path / "learned.mln"
        code = main(
            [
                "learn",
                "--mln",
                str(mln),
                "--db",
                db,
                "--n",
                "3",
                "--reg",
                "l2",
                "--lambda",
                "0.5",
                "--max-iter",
                "2000",
                "--out",
                str(learned),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert learned.exists()
        assert main(["eval", "--mln", str(learned), "--db", db, "--n", "3"]) == 0
        eval_out = capsys.readouterr().out
        assert "log-likelihood:" in eval_out

    def test_every_learn_flag_is_a_config_field(self):
        argv = ["learn", "--mln", "m", "--db", "d"]
        parsed = vars(build_parser().parse_args(argv))
        not_fields = {"mln", "db", "n", "out", "force_guard", "func", "command"}
        names = {f.name for f in dataclasses.fields(learning.LearnConfig)}
        assert set(parsed) - not_fields == names

    def test_learn_flags_reach_the_config(self, tmp_path, monkeypatch):
        seen = []

        def stop(model, data, config):
            seen.append(config)
            raise RuntimeError("stop before fitting")

        monkeypatch.setattr(cli, "learn", stop)
        mln = tmp_path / "s.mln"
        mln.write_text("type p = 2\npredicate S(p)\n0 S(x)\n")
        db = tmp_path / "s.db"
        db.write_text("S(a)\n")
        flags = ["--reg", "l1", "--lambda", "0.25", "--da", "--max-iter", "7", "--tol", "1e-3"]
        argv = ["learn", "--mln", str(mln), "--db", str(db), *flags, "--tie-split-weights"]
        with pytest.raises(RuntimeError, match="stop"):
            main(argv + ["--max-atoms", "9"])
        assert seen == [
            learning.LearnConfig(
                regularizer="l1", lam=0.25, da=True, max_iter=7, tol=1e-3,
                tie_split_weights=True, max_atoms=9,
            )
        ]

    def test_learn_max_atoms_sets_the_guard(self, tmp_path, capsys):
        # G=22 exceeds both guards, so each run fails before any learning.
        mln = tmp_path / "wide.mln"
        mln.write_text("type p = 22\npredicate S(p)\n0.5 S(x)\n")
        db = tmp_path / "wide.db"
        db.write_text("S(a)\n")
        argv = ["learn", "--mln", str(mln), "--db", str(db), "--n", "22"]
        assert main(argv + ["--max-atoms", "21"]) == 2
        assert "guard of 21" in capsys.readouterr().err
        assert main(argv) == 2
        assert "guard of 20" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "eval"])
    def test_n_zero_is_a_domain_size_not_a_default(self, command, tmp_path, capsys):
        data_dir = tmp_path / "d"
        main(["generate", "--population", "3", "--seeds", "1", "--out", str(data_dir)])
        capsys.readouterr()
        mln = tmp_path / "fs.mln"
        from mlnexact.datagen import FRIENDS_SMOKERS_MLN

        mln.write_text(FRIENDS_SMOKERS_MLN)
        db = str(data_dir / "fs_pop3_seed1.db")
        assert main([command, "--mln", str(mln), "--db", db, "--n", "0"]) == 2
        assert "database has 3 constants of type person, domain spec allows 0" in (
            capsys.readouterr().err
        )

    def test_eval_with_da_scaling(self, tmp_path, capsys):
        # --da scores the model scaled at the evaluation domain's sizes.
        from mlnexact import apply_da_scaling, db_to_world, log_probability, parse_db
        from mlnexact.datagen import FRIENDS_SMOKERS_MLN
        from mlnexact.logic import serialize_mln
        from mlnexact.worlds import DomainSpec

        data_dir = tmp_path / "d"
        main(["generate", "--population", "3", "--seeds", "4", "--out", str(data_dir)])
        db = str(data_dir / "fs_pop3_seed4.db")
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        model = model.with_weights([0.5, 1.2, 0.3, -0.4, 0.8])
        mln = tmp_path / "fs.mln"
        mln.write_text(serialize_mln(model))
        capsys.readouterr()
        assert main(["eval", "--mln", str(mln), "--db", db, "--n", "3", "--da"]) == 0
        spec = DomainSpec({"person": 3})
        with open(db, encoding="utf-8") as fh:
            world = db_to_world(parse_db(fh.read(), model.signature), spec)
        expected = log_probability(apply_da_scaling(model, dict(spec.sizes)), world)
        assert capsys.readouterr().out == f"log-likelihood: {expected:.17g}\n"


class TestExperimentCommand:
    def test_tiny_run_row_count_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = [
            "experiment",
            "--train-sets",
            "2",
            "--targets",
            "3",
            "--target-replicates",
            "2",
            "--seed",
            "11",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        learning._fit.cache_clear()  # the rerun fits afresh
        assert main(args + ["--out", str(out_b)]) == 0

        def rows(path):
            return [
                line
                for line in (path / "results.csv").read_text().splitlines()
                if not line.startswith("#")
            ]

        rows_a = rows(out_a)
        assert len(rows_a) == 1 + 2 * 4 * 1 * 2  # header + runs x methods x sizes x replicates
        assert rows_a == rows(out_b)

    def test_unregularized_deltas_are_zero(self, tmp_path):
        out = tmp_path / "o"
        main(
            [
                "experiment",
                "--train-sets",
                "1",
                "--targets",
                "3",
                "--target-replicates",
                "2",
                "--methods",
                "none,l2",
                "--out",
                str(out),
            ]
        )
        for line in (out / "results.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("run,"):
                continue
            cells = line.split(",")
            if cells[1] == "none":
                assert cells[10] == "0"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "train_sets = 1\n"
            "target_sizes = 3\n"
            "target_replicates = 1\n"
            "methods = none,l1\n"
            "seed = 3\n"
            f"out = {tmp_path / 'from_cfg'}\n"
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "results.csv").exists()
        assert not (tmp_path / "from_cfg").exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(["experiment", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        ("flags", "field"),
        [
            (["--target-replicates", "0"], "target_replicates"),
            (["--targets", "0"], "target_sizes"),
            (["--train-size", "0"], "train_size"),
            (["--train-size", "11"], "train_size"),
            (["--max-iter", "0"], "max_iter"),
        ],
    )
    def test_out_of_range_sizes_exit_two(self, flags, field, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "o"), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["nan", "0.1,-1", "inf"])
    def test_a_grid_no_fit_accepts_exits_two(self, grid, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "o"), "--grid", grid]) == 2
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_flag_is_a_config_field(self):
        parsed = vars(build_parser().parse_args(["experiment"]))
        not_fields = {"config", "force_guard", "func", "command"}
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(parsed) - not_fields <= names

    @pytest.mark.parametrize(("flags", "max_atoms"), [(["--force-guard"], 34), ([], 20)])
    def test_force_guard_lifts_the_config_file_guard(self, flags, max_atoms, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or ([], {}))
        path = tmp_path / "exp.cfg"
        path.write_text(f"max_atoms = 20\nout = {tmp_path / 'o'}\n")
        main(["experiment", "--config", str(path), *flags])
        assert [cfg.max_atoms for cfg in seen] == [max_atoms]

    def test_model_the_target_generator_cannot_fill_exits_two(self, tmp_path, capsys):
        mln = tmp_path / "smokes.mln"
        mln.write_text("type person = 3\npredicate Smokes(person)\n0 Smokes(x)\n")
        argv = ["experiment", "--mln", str(mln), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "Cancer(person)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_saved_models_reproduce_spread_column(self, tmp_path):
        out = tmp_path / "o"
        main(
            [
                "experiment",
                "--train-sets",
                "1",
                "--targets",
                "4",
                "--target-replicates",
                "1",
                "--methods",
                "none,l2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        from mlnexact.bounds import log_spread

        rows = [
            line.split(",")
            for line in (out / "results.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("run,")
        ]
        for cells in rows:
            method = cells[1]
            spread_cell = float(cells[11])
            model = normalize_distinct(
                parse_mln((out / "models" / f"run00_{method}.mln").read_text())
            )
            assert log_spread(model, 3, 1) == pytest.approx(spread_cell, abs=1e-12)


class TestConfigParsing:
    def test_from_mapping_coercions(self):
        cfg = ExperimentConfig.from_mapping(
            {
                "train_sets": "4",
                "target_sizes": "3,4",
                "grid": "0.1,1",
                "methods": "none,da",
                "da_eval_only": "true",
                "tol": "1e-7",
            }
        )
        assert cfg.train_sets == 4
        assert cfg.target_sizes == (3, 4)
        assert cfg.grid == (0.1, 1.0)
        assert cfg.da_eval_only is True
        assert cfg.tol == 1e-7

    def test_methods_require_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            ExperimentConfig(methods=("l1",))

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("target_sizes", ()),
            ("target_sizes", (3, 0)),
            ("target_replicates", 0),
            ("train_size", 0),
            ("train_size", -2),
            ("max_iter", 0),
        ],
    )
    def test_sizes_and_counts_below_one_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("grid", ()),
            ("grid", (math.nan,)),
            ("grid", (-1.0,)),
            ("grid", (0.1, math.inf)),
            ("tol", math.nan),
            ("tol", -1e-9),
        ],
    )
    def test_learner_settings_that_no_fit_accepts_name_the_field(self, field, value):
        # Each used to pass here and turn every run into an error row, or,
        # for grid=(nan,), into ok rows with lambda=nan and zero weights.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            ExperimentConfig.from_mapping({"da_eval_only": "maybe"})

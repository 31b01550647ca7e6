import json
import subprocess
import sys

import pytest

from cycres.cli import main

BASE = [sys.executable, "-m", "cycres.cli"]


def run_cli(*args, env=None, timeout=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=full_env,
        timeout=timeout,
    )


class TestSeq:
    def test_mersenne(self):
        result = run_cli("seq", "--poly", "x-2", "--n", "3")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"is_abs": False, "values": [1, 3, 7]}

    def test_abs(self):
        result = run_cli("seq", "--poly", "x+2", "--n", "2", "--abs")
        assert json.loads(result.stdout) == {"is_abs": True, "values": [3, 3]}

    def test_exact_json_schema(self):
        result = run_cli("seq", "--poly", "x-2", "--n", "2", "--exact-json")
        data = json.loads(result.stdout)
        assert data["values"][0] == ["1", "1", "0", "1"]

    def test_non_integer_values_render_as_fractions(self):
        result = run_cli("seq", "--poly", "1/2*x-1", "--n", "2")
        data = json.loads(result.stdout)
        assert data["values"] == ["1/2", "3/4"]

    def test_determinism(self):
        a = run_cli("seq", "--poly", "x^2-5*x+6", "--n", "8")
        b = run_cli("seq", "--poly", "x^2-5*x+6", "--n", "8")
        assert a.stdout == b.stdout


class TestEquiv:
    def test_worked_family(self):
        result = run_cli("equiv", "--poly", "x^3-10*x^2+31*x-30")
        data = json.loads(result.stdout)
        assert data["count"] == 4
        polys = {m["poly"] for m in data["members"]}
        assert "15*x^3-38*x^2+17*x-2" in polys
        assert "10*x^3-37*x^2+22*x-3" in polys
        assert "6*x^3-35*x^2+26*x-5" in polys

    def test_real_family(self):
        result = run_cli("equiv", "--poly", "x^3+2*x^2-3*x-10", "--real")
        data = json.loads(result.stdout)
        assert data["count"] == 8

    def test_cross_degree(self):
        result = run_cli(
            "equiv", "--poly", "15*x^5-38*x^4+17*x^3-2*x^2", "--l1", "0"
        )
        data = json.loads(result.stdout)
        assert "x^3-10*x^2+31*x-30" in {m["poly"] for m in data["members"]}

    def test_root_of_unity_is_domain_error(self):
        result = run_cli("equiv", "--poly", "x^2-1")
        assert result.returncode == 2
        data = json.loads(result.stdout)
        assert data["code"] == "root_of_unity"
        assert "message" in data and "context" in data

    def test_gaussian_root_of_unity_is_domain_error(self):
        # (x^17 - i)/(x - i): every root is a primitive 68th root of unity
        from cycres.gaussian import GaussianRational
        from cycres.polycore import Polynomial, format_poly

        i = Polynomial.constant(GaussianRational(0, 1))
        f = (Polynomial.x(17) - i).exact_div(Polynomial.x() - i)
        result = run_cli("equiv", "--poly", format_poly(f))
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "root_of_unity"


class TestReconstruct:
    def test_closed_quadratic(self):
        result = run_cli(
            "reconstruct", "--degree", "2", "--monic", "--values", "2,24"
        )
        data = json.loads(result.stdout)
        assert data["polynomial"] == "x^2-5*x+6"
        assert data["verified"] is True

    def test_method_groebner(self):
        result = run_cli(
            "reconstruct",
            "--degree", "1", "--values", "1,3", "--method", "groebner",
        )
        data = json.loads(result.stdout)
        assert data["polynomial"] == "x-2" and data["method"] == "groebner"

    def test_abs_alternating(self):
        result = run_cli(
            "reconstruct", "--degree", "1", "--monic", "--abs", "--values", "3,3"
        )
        data = json.loads(result.stdout)
        assert data["polynomial"] == "x+2"
        assert data["alt_sign"] == -1

    def test_rational_values(self):
        result = run_cli(
            "reconstruct", "--degree", "1", "--values", "1/2,-3/4"
        )
        assert result.returncode in (0, 2)  # parses; may or may not invert

    def test_no_solution_is_domain_error(self):
        result = run_cli(
            "reconstruct",
            "--degree", "2", "--monic",
            "--values=-2,-24,-182", "--method", "groebner",
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "no_solution"

    def test_zero_denominator_is_usage_error(self):
        result = run_cli("reconstruct", "--degree", "1", "--values=1/0,2")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")

    def test_negative_degree_is_usage_error(self):
        result = run_cli("reconstruct", "--degree", "-1", "--values=1,2")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")

    def test_dash_led_values_after_a_space(self, capsys):
        # argparse reads "-3,5" as an option; it must parse as --values=-3,5
        assert main(["reconstruct", "--degree", "1", "--values=-3,5"]) == 0
        glued = capsys.readouterr().out
        assert main(["reconstruct", "--degree", "1", "--values", "-3,5"]) == 0
        assert capsys.readouterr().out == glued
        assert json.loads(glued)["polynomial"] == "2/3*x+7/3"

    def test_values_followed_by_a_flag_is_still_a_usage_error(self, capsys):
        assert main(["reconstruct", "--degree", "1", "--values", "--abs"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("restarts", ["0", "-5"])
    def test_restarts_below_one_is_usage_error(self, restarts, capsys):
        argv = ["reconstruct", "--degree", "1", "--values=1,5", "--restarts", restarts]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_negative_seed_is_usage_error(self, capsys):
        argv = ["reconstruct", "--degree", "1", "--values=1,5", "--seed", "-4"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_general_cubic_returns_its_family(self):
        # a non-monic cubic is fixed by r_1..r_4 only up to its 2^(d-1) = 4
        # family members, and the Groebner route lists all of them
        result = run_cli(
            "reconstruct", "--degree", "3", "--values=-48,4800,-557424,47328000"
        )
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["method"] == "groebner" and data["verified"] is True
        assert len(data["candidates"]) == 4
        assert "3*x^3-10*x^2-29*x+84" in data["candidates"]

    def test_ambiguous_monic_quartic_lists_both_answers(self, capsys):
        # x^4-4*x^2-7*x+1 and its reversal share every r_m: a subset of the
        # roots multiplies to 1
        argv = ["reconstruct", "--degree", "4", "--monic",
                "--values=-9,-45,-351,-3825,-20889"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "groebner" and data["verified"] is True
        assert sorted(data["candidates"]) == ["x^4-4*x^2-7*x+1", "x^4-7*x^3-4*x^2+1"]
        assert data["polynomial"] in data["candidates"]

    @pytest.mark.parametrize(
        "flags, config, expected",
        [
            ([], None, (16, 0)),
            ([], "newton_restarts=5\nseed=9\n", (5, 9)),
            (["--restarts", "3", "--seed", "7"], "newton_restarts=5\nseed=9\n", (3, 7)),
        ],
    )
    def test_abs_passes_restarts_and_seed_to_newton(
        self, flags, config, expected, monkeypatch, tmp_path, capsys
    ):
        from cycres.errors import ConvergenceError

        seen = set()

        def spy(values, d, monic=True, restarts=0, seed=0):
            seen.add((restarts, seed))
            raise ConvergenceError("spy")

        monkeypatch.setattr(sys.modules["cycres.reconstruct"], "invert_newton", spy)
        argv = ["reconstruct", "--degree", "4", "--abs", "--values=1,2,3,4,5"] + flags
        if config is not None:
            (tmp_path / "cfg").write_text(config)
            argv = ["--config", str(tmp_path / "cfg")] + argv
        assert main(argv) == 2  # every sign lift declines
        assert json.loads(capsys.readouterr().out)["code"] == "no_solution"
        assert seen == {expected}

    @pytest.mark.parametrize("method", ["closed", "groebner", "newton"])
    def test_abs_with_an_explicit_method_is_usage_error(self, method, capsys):
        argv = ["reconstruct", "--degree", "1", "--monic", "--abs", "--values", "3,3"]
        assert main(argv + ["--method", method]) == 1
        out = capsys.readouterr()
        assert out.err == "usage error: --abs cannot be combined with --method\n"
        assert main(argv + ["--method", "auto"]) == 0
        assert json.loads(capsys.readouterr().out)["polynomial"] == "x+2"


class TestZeta:
    def test_matrix_file(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n": 2, "entries": [["2", "1"], ["1", "1"]]}))
        result = run_cli("zeta", "--matrix", str(path), "--order", "4")
        data = json.loads(result.stdout)
        assert data["counts"] == ["1", "5", "16", "45"]
        assert data["coefficients"][0] == [1.0, 0.0]

    def test_non_ergodic_is_domain_error(self, tmp_path):
        path = tmp_path / "rot.json"
        path.write_text(json.dumps({"n": 2, "entries": [["0", "-1"], ["1", "0"]]}))
        result = run_cli("zeta", "--matrix", str(path), "--order", "2")
        assert result.returncode == 2

    def test_negative_order_is_usage_error(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n": 1, "entries": [["2"]]}))
        result = run_cli("zeta", "--matrix", str(path), "--order", "-1")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")


class TestGrcheck:
    def test_match(self):
        left = {
            "unit": {"coeff": ["1", "1", "0", "1"], "elt": [0]},
            "factors": [[[0], [1]]],
        }
        right = {
            "unit": {"coeff": ["-1", "1", "0", "1"], "elt": [1]},
            "factors": [[[0], [-1]]],
        }
        result = run_cli(
            "grcheck", "--group", "rank=1;torsion=",
            "--left", json.dumps(left), "--right", json.dumps(right),
        )
        data = json.loads(result.stdout)
        assert data["match"] is True and data["p"] == 0
        assert data["eta"] == {"coeff": -1, "elt": [1]}

    def test_mismatch_reports_expansion(self):
        left = {"unit": {"coeff": ["1", "1", "0", "1"], "elt": [0]},
                "factors": [[[0], [1]]]}
        right = {"unit": {"coeff": ["1", "1", "0", "1"], "elt": [0]},
                 "factors": [[[0], [2]]]}
        result = run_cli(
            "grcheck", "--group", "rank=1;torsion=",
            "--left", json.dumps(left), "--right", json.dumps(right),
        )
        data = json.loads(result.stdout)
        assert data == {"match": False, "expansions_equal": False}

    def test_finite_order_error(self):
        left = {"unit": {"coeff": ["1", "1", "0", "1"], "elt": [0]},
                "factors": [[[0], [1]], [[0], [1]]]}
        right = {"unit": {"coeff": ["2", "1", "0", "1"], "elt": [0]},
                 "factors": [[[0], [1]]]}
        result = run_cli(
            "grcheck", "--group", "rank=0;torsion=2",
            "--left", json.dumps(left), "--right", json.dumps(right),
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "finite_order"

    def test_missing_fields_is_invalid_input(self):
        result = run_cli(
            "grcheck", "--group", "rank=1;torsion=", "--left", "{}", "--right", "{}"
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "invalid_input"

    def test_file_input(self, tmp_path):
        left = {"unit": {"coeff": ["1", "1", "0", "1"], "elt": [0]},
                "factors": [[[0], [1]]]}
        path = tmp_path / "left.json"
        path.write_text(json.dumps(left))
        result = run_cli(
            "grcheck", "--group", "rank=1;torsion=",
            "--left", f"@{path}", "--right", json.dumps(left),
        )
        assert json.loads(result.stdout)["match"] is True


class TestGenfun:
    def test_rep_and_series(self):
        result = run_cli("genfun", "--poly", "x^2-5*x+6", "--order", "3")
        data = json.loads(result.stdout)
        nums = sorted(c[0] for c in data["rep"]["num_factors"])
        dens = sorted(c[0] for c in data["rep"]["den_factors"])
        assert nums == [1.0, 6.0] and dens == [2.0, 3.0]
        assert data["series"][0] == [1.0, 0.0]

    def test_abs_variant(self):
        result = run_cli("genfun", "--poly", "2*x^2-3*x-2", "--abs")
        data = json.loads(result.stdout)
        assert data["rep"]["exponent"] == -1

    def test_negative_order_is_usage_error(self):
        result = run_cli("genfun", "--poly", "x-2", "--order", "-1")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")


class TestConjecture:
    def test_report(self):
        result = run_cli("conjecture", "--degree", "2", "--trials", "5", "--seed", "3")
        data = json.loads(result.stdout)
        assert data["successes"] == 5 and data["seed"] == 3

    def test_env_seed(self):
        result = run_cli(
            "conjecture", "--degree", "2", "--trials", "2",
            env={"CYCRES_SEED": "99"},
        )
        assert json.loads(result.stdout)["seed"] == 99

    def test_determinism(self):
        a = run_cli("conjecture", "--degree", "2", "--trials", "4", "--seed", "7")
        b = run_cli("conjecture", "--degree", "2", "--trials", "4", "--seed", "7")
        assert a.stdout == b.stdout

    def test_negative_trials_is_usage_error(self):
        result = run_cli("conjecture", "--degree", "2", "--trials", "-1")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")

    def test_negative_degree_is_usage_error(self):
        result = run_cli("conjecture", "--degree", "-1", "--trials", "1", timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["conjecture", "--degree", "2", "--trials", "1", "--seed", "-4"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_negative_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CYCRES_SEED", "-4")
        assert main(["conjecture", "--degree", "2", "--trials", "1"]) == 1
        out = capsys.readouterr()
        assert out.err == "usage error: CYCRES_SEED must be >= 0\n" and out.out == ""

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CYCRES_SEED", "x")
        assert main(["conjecture", "--degree", "1", "--trials", "1"]) == 1
        out = capsys.readouterr()
        assert out.err == "usage error: CYCRES_SEED must be an integer\n" and out.out == ""


class TestPlumbing:
    def test_usage_error_exit_1(self):
        result = run_cli("seq", "--poly", "x-2")  # missing --n
        assert result.returncode == 1
        assert result.stdout == ""

    def test_unknown_command_exit_1(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1

    def test_parse_error_exit_2(self):
        result = run_cli("seq", "--poly", "x^^2", "--n", "1")
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "parse_error"

    def test_degree_guard_exit_2(self):
        result = run_cli("seq", "--poly", "x^10001-2", "--n", "1")
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "degree_guard"

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--poly=--"],
            ["seq", "--poly", "x-2", "--n=--"],
            ["reconstruct", "--degree", "1", "--values=--"],
        ],
    )
    def test_double_dash_value_is_not_a_traceback(self, argv, capsys):
        # argparse turns "--opt=--" into an empty list on some Python versions
        assert main(argv) in (1, 2)

    @pytest.mark.parametrize(
        "command, poly, rest",
        [
            ("seq", "-x+2", ["--n", "3"]),
            ("equiv", "-x^2+5*x-6", []),
            ("genfun", "-x+3", []),
            ("genfun", "-(1+2i)*x+3", ["--order", "2"]),
            ("seq", "--3*x+1", ["--n", "2"]),
        ],
    )
    def test_dash_led_poly_after_a_space(self, command, poly, rest, capsys):
        # argparse reads "-x+2" as an option; it must parse as --poly=-x+2
        assert main([command, f"--poly={poly}", *rest]) == 0
        glued = capsys.readouterr().out
        assert main([command, "--poly", poly, *rest]) == 0
        assert capsys.readouterr().out == glued

    def test_pretty_flag(self):
        result = run_cli("--pretty", "seq", "--poly", "x-2", "--n", "2")
        assert result.stdout.startswith("{\n")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cycres.cfg"
        cfg.write_text("seed=123\nnewton_restarts=4\n")
        result = run_cli(
            "--config", str(cfg), "conjecture", "--degree", "2", "--trials", "2"
        )
        assert json.loads(result.stdout)["seed"] == 123

    def test_config_roundtrip(self, tmp_path):
        from cycres.config import Config

        cfg = Config(seed=42, newton_restarts=3)
        path = tmp_path / "round.cfg"
        path.write_text(cfg.dump())
        assert Config.load(str(path)) == cfg

    def test_config_rejects_nonpositive(self):
        from cycres.config import Config

        with pytest.raises(ValueError):
            Config(newton_restarts=0)

    def test_config_rejects_removed_key(self, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("root_tol=1e-30\n")
        result = run_cli("--config", str(cfg), "seq", "--poly", "x-2", "--n", "2")
        assert result.returncode == 2
        assert json.loads(result.stdout)["code"] == "invalid_input"

    def test_main_callable_directly(self, capsys):
        code = main(["seq", "--poly", "x-2", "--n", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "is_abs": False,
            "values": [1, 3, 7],
        }

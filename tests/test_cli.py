import csv
import io
import json
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from lfsym import ecgeom, families
from lfsym.cli import (
    CONSTANT_COLUMNS,
    DENSITY_COLUMNS,
    EXIT_CHECK,
    EXIT_CONFIG,
    ConfigError,
    WeilParseError,
    evaluate_weil_expression,
    load_config,
    main,
    run_families,
)
from lfsym.families import Family, ramanujan_tau_table

SMALL_CONFIG = textwrap.dedent(
    """
    [run]
    primes = 200
    sigma = 1.0
    tolerance = 0.25

    [family ec1]
    kind = elliptic
    a_poly = 0 1
    b_poly = 1
    t_min = 300
    t_max = 420

    [family ec2]
    kind = elliptic
    a_poly = 0 1
    b_poly = 2
    t_min = 300
    t_max = 420

    [family prod]
    kind = convolve
    left = ec1
    right = ec2
    """
)


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfig:
    def test_ini_round_trip(self, config_path):
        config = load_config(config_path)
        assert config.run.primes == 200
        assert [d.ident for d in config.declarations] == ["ec1", "ec2", "prod"]
        built = config.resolve()
        assert built["prod"].degree == 4

    def test_delta_and_sym_lift_kinds(self, tmp_path):
        data = {
            "run": {"primes": 100, "sigma": 1.0},
            "families": [
                {"id": "dd", "kind": "delta"},
                {"id": "lift", "kind": "sym_lift", "base": "dd", "power": 2},
            ],
        }
        path = tmp_path / "lift.json"
        path.write_text(json.dumps(data))
        built = load_config(str(path)).resolve()
        assert built["dd"].degree == 2
        assert built["lift"].degree == 3

    def test_json_equivalent(self, tmp_path):
        data = {
            "run": {"primes": 100, "sigma": 0.5},
            "families": [
                {"id": "chars", "kind": "dirichlet", "modulus": 11},
                {"id": "tw", "kind": "twist", "twist": "kronecker 5", "base": "chars"},
            ],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        config = load_config(str(path))
        built = config.resolve()
        assert built["tw"].degree == 1

    def test_unresolved_reference(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[run]\nprimes = 50\n[family x]\nkind = convolve\nleft = a\nright = b\n"
        )
        with pytest.raises(ConfigError):
            load_config(str(path)).resolve()

    def test_invalid_family_parameters_exit_config(self, tmp_path):
        from lfsym.cli import EXIT_CONFIG

        data = {
            "families": [
                {"id": "q", "kind": "quadratic", "d_min": 14, "d_max": 16}
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["constants", "--config", str(path)]) == EXIT_CONFIG

    def test_duplicate_ids_rejected(self, tmp_path):
        data = {
            "families": [
                {"id": "a", "kind": "dirichlet", "modulus": 7},
                {"id": "a", "kind": "dirichlet", "modulus": 11},
            ]
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestRunners:
    def test_constants_product_check(self, config_path):
        config = load_config(config_path)
        rows = run_families(config)
        assert [r["family_id"] for r in rows] == ["ec1", "ec2", "prod"]
        prod_row = rows[2]
        assert prod_row["c_class"] == "1"
        assert prod_row["product_check"] != ""
        # the product of the factor estimates approximates the estimate
        assert float(prod_row["product_check"]) == pytest.approx(
            float(rows[0]["c_est"]) * float(rows[1]["c_est"]), abs=0.02
        )

    def test_empty_family_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"run": {"primes": 50}, "families": []}))
        rows = run_families(load_config(str(path)))
        assert rows == []

    def test_density_rows(self, tmp_path):
        data = {
            "run": {"primes": 500, "sigma": 0.5, "tolerance": 0.05},
            "families": [
                {"id": "q", "kind": "quadratic", "d_min": 1000, "d_max": 3000}
            ],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        rows = run_families(load_config(str(path)))
        assert rows[0]["c_class"] == "1"
        emp, pred = float(rows[0]["D1_emp"]), float(rows[0]["D1_pred"])
        assert emp < 1.0 and pred == pytest.approx(0.75, abs=0.05)

    def test_determinism(self, config_path):
        config1 = load_config(config_path)
        config2 = load_config(config_path)
        assert run_families(config1) == run_families(config2)

    def test_threads_do_not_change_output(self, config_path):
        config1 = load_config(config_path)
        config2 = load_config(config_path)
        config2.run.threads = 4
        assert run_families(config1) == run_families(config2)

    def test_one_thread_works_in_the_calling_thread(self, config_path, monkeypatch):
        # so that a profiler of the command sees the families' work: one
        # pass over all the primes, in the calling thread
        idents = []
        pass_rows = families._pass_rows

        def recorded(plan, primes):
            idents.append(threading.get_ident())
            return pass_rows(plan, primes)

        monkeypatch.setattr(families, "_pass_rows", recorded)
        config = load_config(config_path)
        assert config.run.threads == 1
        run_families(config)
        assert idents == [threading.get_ident()]

    def test_one_conductor_pass_per_curve(self, tmp_path, monkeypatch):
        # the conductor pass splits each member curve's discriminant once,
        # however many derived families read its conductor
        calls = []
        batch = ecgeom._factor_batch

        def counted(values):
            calls.extend(values)
            return batch(values)

        monkeypatch.setattr(ecgeom, "_factor_batch", counted)
        ec = {"kind": "elliptic", "a_poly": "0 1", "t_min": 300, "t_max": 360}
        data = {
            "run": {"primes": 100},
            "families": [
                {"id": "ec1", "b_poly": "1", **ec},
                {"id": "ec2", "b_poly": "2", **ec},
                {"id": "prod", "kind": "convolve", "left": "ec1", "right": "ec2"},
                {"id": "k5", "kind": "twist", "twist": "kronecker 5", "base": "ec1"},
                {"id": "c7", "kind": "twist", "twist": "character 7 1", "base": "ec1"},
            ],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        assert main(["constants", "--config", str(path)]) == 0
        assert len(calls) == len(set(calls)) == 120


class TestMainExitCodes:
    def test_negative_discriminants(self, tmp_path, capsys):
        path = tmp_path / "neg.ini"
        path.write_text(
            "[run]\nprimes = 300\n\n"
            "[family q]\nkind = quadratic\nd_min = -400\nd_max = -3\n"
        )
        assert main(["constants", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2 and rows[1].startswith("q,")

    def test_constants_ok(self, config_path, capsys):
        assert main(["constants", "--config", config_path]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("family_id,sigma,P,c_est")

    def test_missing_config(self):
        assert main(["constants", "--config", "/nonexistent.ini"]) == EXIT_CONFIG

    def test_convolve_unknown_id(self, config_path):
        code = main(
            ["convolve", "--config", config_path, "--left", "nope", "--right", "ec1"]
        )
        assert code == EXIT_CONFIG

    def test_check_flags_indeterminate(self, tmp_path):
        data = {
            "run": {"primes": 60, "sigma": 1.0, "tolerance": 0.01},
            "families": [
                {
                    "id": "ec",
                    "kind": "elliptic",
                    "a_poly": "0 1",
                    "b_poly": "1",
                    "t_min": 50,
                    "t_max": 70,
                }
            ],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["constants", "--config", str(path), "--check"]) == EXIT_CHECK

    def test_check_failure_names_families_and_column(self, tmp_path, capsys):
        # the stderr line names the family and the column at fault, and
        # stdout is the table the command prints without --check
        data = {
            "run": {"primes": 60, "sigma": 1.0, "tolerance": 0.01,
                    "check_tolerance": 0.001},
            "families": [
                {"id": "ec", "kind": "elliptic", "a_poly": "0 1", "b_poly": "1",
                 "t_min": 50, "t_max": 70},
                {"id": "q", "kind": "quadratic", "d_min": 1000, "d_max": 3000},
            ],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        for command, line in [
            ("constants", "error: --check failed for family 'ec': "
                          "c_class indeterminate"),
            ("density", "error: --check failed for family 'ec', 'q': "
                        "D1_emp off D1_pred by more than 0.001"),
        ]:
            assert main([command, "--config", str(path)]) == 0
            plain = capsys.readouterr()
            assert plain.err == ""
            assert main([command, "--config", str(path), "--check"]) == EXIT_CHECK
            checked = capsys.readouterr()
            assert checked.out == plain.out
            assert checked.err.splitlines() == [line]

    def test_out_dir(self, tmp_path, config_path):
        out = tmp_path / "results"
        assert main(["constants", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "constants.csv").exists()

    def test_nan_exit_code(self, tmp_path, capsys):
        # a log R override too small for any prime to contribute leaves the
        # calibrated estimate undefined
        from lfsym.cli import EXIT_NUMERIC

        data = {
            "run": {"primes": 100, "sigma": 0.5, "log_r": 0.1},
            "families": [{"id": "chars", "kind": "dirichlet", "modulus": 7}],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main(["constants", "--config", str(path)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "chars,0.5,100,nan," in captured.out
        assert captured.err.splitlines() == [
            "error: NaN result in family 'chars' (c_est, r_est)"
        ]
        # log R = 1.24 for d in [-5, -1): no prime has a nonzero nu = 2
        # weight, so c and the predicted density are NaN
        data = {
            "run": {"primes": 200},
            "families": [
                {"id": "q", "kind": "quadratic", "d_min": -5, "d_max": -1},
                {"id": "chars", "kind": "dirichlet", "modulus": 7},
            ],
        }
        path.write_text(json.dumps(data))
        assert main(["density", "--config", str(path)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("q,1,200,nan,")
        assert captured.err.splitlines() == [
            "error: NaN result in family 'q' (c_est, D1_pred)"
        ]

    def test_empty_family_list_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"run": {"primes": 50}, "families": []}))
        assert main(["constants", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "family_id,sigma,P,c_est,c_class,r_est,eps,log_r,bad_mass,product_check"
        ]

    def test_constants_json_output(self, config_path, capsys):
        assert main(["constants", "--config", config_path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["family_id"] for r in rows] == ["ec1", "ec2", "prod"]
        assert all(sorted(r) == sorted(CONSTANT_COLUMNS) for r in rows)

    def test_density_json_output(self, config_path, capsys):
        # one runner fills every column; each command prints only its own
        assert main(["density", "--config", config_path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["family_id"] for r in rows] == ["ec1", "ec2", "prod"]
        assert all(sorted(r) == sorted(DENSITY_COLUMNS) for r in rows)

    def test_convolve_subcommand(self, config_path, capsys):
        code = main(
            ["convolve", "--config", config_path, "--left", "ec1", "--right", "ec2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == CONSTANT_COLUMNS
        assert lines[-1].startswith("ec1xec2,")

    def test_density_check_passes_for_classified_family(self, tmp_path):
        data = {
            "run": {"primes": 500, "sigma": 0.5, "tolerance": 0.05,
                    "check_tolerance": 0.25},
            "families": [
                {"id": "q", "kind": "quadratic", "d_min": 1000, "d_max": 3000}
            ],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        assert main(["density", "--config", str(path), "--check"]) == 0


TWIST_CONFIG = textwrap.dedent(
    """
    [run]
    primes = {primes}

    [family d]
    kind = dirichlet
    modulus = 7

    [family t]
    kind = twist
    twist = {twist}
    base = d
    """
)


DIRICHLET_7 = {"id": "d", "kind": "dirichlet", "modulus": 7}
INI_DIRICHLET_7 = "[run]\nprimes = 50\n[family d]\nkind = dirichlet\nmodulus = 7\n"
QUADRATIC_1_60 = {"id": "q", "kind": "quadratic", "d_min": 1, "d_max": 60}


@pytest.mark.parametrize(
    "args, config",
    [
        (["constants"], {"twist": "kronecker", "primes": 50}),
        (["constants"], {"twist": "character 7 9", "primes": 50}),
        (["density"], {"twist": "kronecker 5", "primes": "abc"}),
        (["constants", "--sigma", "-1"], {"twist": "kronecker 5", "primes": 50}),
        (["constants", "--sigma", "0"], {"twist": "kronecker 5", "primes": 50}),
        (["density", "--primes", "0"], {"twist": "kronecker 5", "primes": 50}),
        (["constants", "--threads", "0"], {"twist": "kronecker 5", "primes": 50}),
        (["weil", "sym^0([12])"], None),
        (["weil", "[12,1/0]"], None),
        (["weil", "[3/2]"], None),
        (["density"], {"twist": "delta 100", "primes": 500}),
        (["weil", "logcond([1,-3])"], None),
        # whole JSON configs, one family list each
        (["constants"], {"run": {"log_r": 0}, "families": [DIRICHLET_7]}),
        (["constants"], {"families": [{"id": "q", "kind": "quadratic",
                                       "d_min": 10, "d_max": 20, "stride": 0}]}),
        # delta takes no options: tau follows the reach of the prime sums
        (["constants"], {"families": [{"id": "dd", "kind": "delta", "bound": 2000}]}),
        (["constants"], {"families": [DIRICHLET_7, {
            "id": "x", "kind": "convolve", "left": "d", "right": "d",
            "collisions": "ec-isomorphism"}]}),
        # the family {d = 1} has log R = 0
        (["constants"], {"families": [{"id": "q", "kind": "quadratic",
                                       "d_min": 0, "d_max": 2}]}),
        # delta x delta excludes its only pair
        (["constants"], {"run": {"log_r": 4.0, "primes": 50}, "families": [
            {"id": "dd", "kind": "delta"},
            {"id": "x", "kind": "convolve", "left": "dd", "right": "dd"}]}),
        (["density"], {"run": {"log_r": 4.0, "primes": 50}, "families": [
            {"id": "dd", "kind": "delta"},
            {"id": "x", "kind": "convolve", "left": "dd", "right": "dd"}]}),
        # imprimitive characters: log |d| would not be their log-conductor
        (["constants"], {"twist": "kronecker 9", "primes": 50}),
        (["constants"], {"twist": "character 7 0", "primes": 50}),
        (["ec-scan", "--a-poly", "x", "--b-poly", "1"], None),
        (["ec-scan", "--a-poly", "0", "--b-poly", "1"], None),  # constant j
        (["ec-scan", "--a-poly", "0 1", "--b-poly", "1", "--primes", "1"], None),
        # every fiber singular: the discriminant vanishes identically
        (["ec-scan", "--a-poly", "0", "--b-poly", "0"], None),
        (["ec-scan", "--a-poly", "0 0 -3", "--b-poly", "0 0 0 2"], None),
        (["rmt-table", "--sigma", "1.5"], None),
        (["rmt-table", "--sigma", "abc"], None),
        (["rmt-table", "--ranks", "x"], None),
        # keys outside the schema: a [run] typo, the dropped out key and a
        # family option typo
        (["constants"], {"run": {"prime": 50}, "families": [DIRICHLET_7]}),
        (["constants"], {"run": {"out": "results"}, "families": [DIRICHLET_7]}),
        (["density"], {"run": {"primes": 50}, "families": [DIRICHLET_7, {
            "id": "x", "kind": "convolve", "left": "d", "right": "d",
            "colisions": "none"}]}),
        # NaN fails every comparison, so the guards must be written for it
        (["rmt-table", "--sigma", "nan"], None),
        (["rmt-table", "--ranks", "nan"], None),
        (["rmt-table", "--ranks", "inf"], None),
        # a convolution's excluded pairs follow from its factors: no option
        (["constants"], {"families": [DIRICHLET_7, {
            "id": "x", "kind": "convolve", "left": "d", "right": "d",
            "collisions": "auto"}]}),
        # Delta twisted by Delta excludes its only pair, like delta x delta
        (["constants"], {"run": {"log_r": 4.0, "primes": 50}, "families": [
            {"id": "dd", "kind": "delta"},
            {"id": "t", "kind": "twist", "base": "dd", "twist": "delta"}]}),
        # tolerances: NaN fails every comparison, so --check could never fail
        (["constants"], {"run": {"tolerance": "nan"}, "families": [DIRICHLET_7]}),
        (["constants"], {"run": {"tolerance": -1}, "families": [DIRICHLET_7]}),
        (["density", "--check"], {"run": {"primes": 200, "check_tolerance": "nan"},
                                  "families": [QUADRATIC_1_60]}),
        (["density"], {"run": {"check_tolerance": 0}, "families": [DIRICHLET_7]}),
        # a family id is an unquoted CSV field
        pytest.param(["constants"], "[run]\nprimes = 50\n[family q,x]\n"
                     "kind = quadratic\nd_min = 1\nd_max = 60\n", id="ini-comma-id"),
        (["constants"], {"families": [dict(DIRICHLET_7, id="a\nb")]}),
        (["constants"], {"families": [dict(DIRICHLET_7, id="")]}),
        (["constants"], {"families": [dict(DIRICHLET_7, id='"d"')]}),
        (["constants"], {"families": [dict(DIRICHLET_7, id=7)]}),
        # the convolution's id is already declared
        (["convolve", "--left", "a", "--right", "b"], {"run": {"primes": 50},
            "families": [dict(DIRICHLET_7, id="a"), dict(QUADRATIC_1_60, id="b"),
                         dict(QUADRATIC_1_60, id="axb")]}),
        # an INI file holds only [run] and [family ID] sections, a JSON file
        # only the keys run and families
        pytest.param(["constants"], INI_DIRICHLET_7 + "[famly e]\nkind = delta\n",
                     id="ini-misspelt-section"),
        pytest.param(["constants"], INI_DIRICHLET_7 + "[familyx]\nkind = delta\n",
                     id="ini-section-without-space"),
        pytest.param(["constants"], INI_DIRICHLET_7 + "[family ]\nkind = delta\n",
                     id="ini-section-without-id"),
        pytest.param(["constants"], {"extra": 1, "families": [DIRICHLET_7]},
                     id="json-extra-top-level-key"),
        # a file that is not UTF-8
        pytest.param(["constants"], INI_DIRICHLET_7.encode() + b"# \xff\xfe\n",
                     id="not-utf-8"),
        # an integer field takes an integer, never a bool or a float
        pytest.param(["constants"], {"run": {"primes": 50.9},
                     "families": [DIRICHLET_7]}, id="float-primes"),
        pytest.param(["constants"], {"run": {"threads": True},
                     "families": [DIRICHLET_7]}, id="bool-threads"),
        pytest.param(["constants"], {"families": [dict(DIRICHLET_7, modulus=7.9)]},
                     id="float-modulus"),
        pytest.param(["constants"], {"families": [dict(QUADRATIC_1_60, stride=True)]},
                     id="bool-stride"),
        # a float field takes a number or its text, never a bool
        *(
            pytest.param(["constants"], {"run": {"primes": 50, key: flag},
                         "families": [DIRICHLET_7]}, id=f"bool-{key}-{flag}")
            for key in ("sigma", "tolerance", "log_r")
            for flag in (True, False)
        ),
        # discriminants beyond int64, in a family and in a twist
        pytest.param(["constants"], {"families": [{
            "id": "q", "kind": "quadratic", "d_min": 10**19,
            "d_max": 10**19 + 100}]}, id="quadratic-beyond-int64"),
        pytest.param(["constants"], {"twist": "kronecker 100000000000000000000001",
                     "primes": 50}, id="kronecker-beyond-int64"),
        # an elliptic box [t_min, t_max) with no fiber at all
        *(
            pytest.param(["constants"], {"families": [{
                "id": "ec", "kind": "elliptic", "a_poly": "0 1", "b_poly": "1",
                "t_min": 600, "t_max": t_max}]}, id=f"empty-box-{t_max}")
            for t_max in (600, 500)
        ),
    ],
)
def test_bad_input_exits_config_with_one_line(args, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "bad.ini"
        if isinstance(config, bytes):
            path.write_bytes(config)
        elif isinstance(config, str):
            path.write_text(config)
        elif "families" in config:
            path.write_text(json.dumps(config))
        else:
            path.write_text(TWIST_CONFIG.format(**config))
        args = args + ["--config", str(path)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_float_fields_take_numbers_and_their_text(tmp_path, capsys):
    # an INI file holds every value as text; a JSON file may too
    outputs = []
    for run in (
        {"primes": 50, "sigma": 1.5, "tolerance": 0.25, "log_r": 4},
        {"primes": 50, "sigma": "1.5", "tolerance": "0.25", "log_r": "4.0"},
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"run": run, "families": [DIRICHLET_7]}))
        assert main(["constants", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    ini = tmp_path / "run.ini"
    ini.write_text(INI_DIRICHLET_7.replace(
        "[run]\n", "[run]\nsigma = 1.5\ntolerance = 0.25\nlog_r = 4.0\n"))
    assert main(["constants", "--config", str(ini)]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert ",1.5,50," in outputs[0]


def test_density_at_huge_log_r_warns_nothing(tmp_path, capsys):
    # p^(nu/2) log R overflows to inf, and the term it divides is then 0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "run": {"log_r": 1e300, "nu_max": 12, "primes": 50},
        "families": [DIRICHLET_7],
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "family_id,sigma,P,c_est,c_class,r_est,eps,D1_emp,D1_pred,nu3_tail,"
        "d1_bad_mass\n"
        "d,1,50,0.0366251451279,0,0.132615197479,0,1,1.13261519748,"
        "-6.50450941805e-301,0.377964473009\n"
    )
    assert captured.err == ""


GOLDEN = ROOT / "tests" / "golden"
# benchmark workloads at smoke size, seed 1: the twists kronecker 5,
# character 7 1 and kronecker -4, a sym^2 lift and a degree-2 family
GOLDEN_WORKLOADS = ("ec_pair", "characters", "ec_wide_box")
GOLDEN_INIS = (
    "hecke_p300", "forms_p300", "twists_p300", "ec_blocks_p200", "ec_big_p200",
    "ec_twist_p300", "sym_lifts_p1000",
)
# the columns that constants and density both print
SHARED_COLUMNS = ("family_id", "sigma", "P", "c_est", "c_class", "r_est", "eps")


@pytest.mark.parametrize("command", ["constants", "density"])
def test_demo_output_matches_golden_csv(command, capsys):
    # refactors of the prime side must leave every printed digit in place
    config = str(ROOT / "configs" / "demo.ini")
    assert main([command, "--config", config, "--primes", "200"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"demo_p200_{command}.csv").read_text()
    for name in GOLDEN_WORKLOADS:
        config = str(GOLDEN / f"{name}_smoke_s1.json")
        assert main([command, "--config", config]) == 0
        expected = (GOLDEN / f"{name}_smoke_s1_{command}.csv").read_text()
        assert capsys.readouterr().out == expected, name


@pytest.mark.parametrize("command", ["constants", "density"])
def test_hecke_output_matches_golden_csv(command, capsys):
    # Delta, its lifts, a delta twist and convolutions that exclude pairs;
    # with T threads, Delta's rows come from T block tau tables
    expected = (GOLDEN / f"hecke_p300_{command}.csv").read_text()
    for threads in ("1", "2", "3"):
        config = str(GOLDEN / "hecke_p300.ini")
        assert main([command, "--config", config, "--threads", threads]) == 0
        assert capsys.readouterr().out == expected, threads


@pytest.mark.parametrize("command", ["constants", "density"])
def test_forms_output_matches_golden_csv(command, capsys):
    # characters held by two families: each convolution and twist drops the
    # pairs of a character and its conjugate
    config = str(GOLDEN / "forms_p300.ini")
    assert main([command, "--config", config]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"forms_p300_{command}.csv").read_text()


@pytest.mark.parametrize("command", ["constants", "density"])
def test_ec_blocks_output_matches_golden_csv(command, capsys):
    # overlapping boxes hold the same unsplit conductor blocks, so the
    # average pair log-conductor of a x b splits them
    config = str(GOLDEN / "ec_blocks_p200.ini")
    built = load_config(config).resolve()
    assert set(built["a"].conductors.blocks) & set(built["b"].conductors.blocks)
    expected = (GOLDEN / f"ec_blocks_p200_{command}.csv").read_text()
    for threads in ("1", "2"):
        assert main([command, "--config", config, "--threads", threads]) == 0
        assert capsys.readouterr().out == expected, threads


@pytest.mark.parametrize("command", ["constants", "density"])
def test_ec_big_output_matches_golden_csv(command, capsys):
    # degree-2 discriminants near 1.6e20: cofactors above 10^12 take the
    # second gcd stage, and some of its blocks lie in [2^42, 2^63)
    config = str(GOLDEN / "ec_big_p200.ini")
    built = load_config(config).resolve()
    assert max(built["quad"].conductors.blocks) >= 2**42
    expected = (GOLDEN / f"ec_big_p200_{command}.csv").read_text()
    for threads in ("1", "2"):
        assert main([command, "--config", config, "--threads", threads]) == 0
        assert capsys.readouterr().out == expected, threads


@pytest.mark.parametrize("command", ["constants", "density"])
def test_twists_output_matches_golden_csv(command, capsys):
    # fixed twists whose character, or its conjugate, the base family holds:
    # each twist drops the one pair of its character and the conjugate
    config = str(GOLDEN / "twists_p300.ini")
    built = load_config(config).resolve()
    sizes = {ident: built[ident].size() for ident in ("chi3", "chi50", "km4", "k101")}
    assert sizes == {"chi3": 98, "chi50": 242, "km4": 242, "k101": 98}
    assert main([command, "--config", config]) == 0
    expected = (GOLDEN / f"twists_p300_{command}.csv").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["constants", "density"])
def test_ec_twist_output_matches_golden_csv(command, capsys):
    # families whose residue tables are read through the quadratic twist:
    # degree 2 with rank 2, B = 0 (j = 1728), A = 0 (j = 0), and a convolution
    config = str(GOLDEN / "ec_twist_p300.ini")
    expected = (GOLDEN / f"ec_twist_p300_{command}.csv").read_text()
    for threads in ("1", "2"):
        assert main([command, "--config", config, "--threads", threads]) == 0
        assert capsys.readouterr().out == expected, threads


@pytest.mark.parametrize("command", ["constants", "density"])
def test_sym_lifts_output_matches_golden_csv(command, capsys):
    # high symmetric powers, whose columns regroup Hecke power sums up to
    # b(p^(M nu)): Delta's sym^4, sym^2 and sym^3 of an elliptic box and
    # their convolution, and sym^5 of a degree-2 family
    config = str(GOLDEN / "sym_lifts_p1000.ini")
    expected = (GOLDEN / f"sym_lifts_p1000_{command}.csv").read_text()
    for threads in ("1", "2"):
        assert main([command, "--config", config, "--threads", threads]) == 0
        assert capsys.readouterr().out == expected, threads


def test_delta_tau_reaches_the_support_edge(tmp_path, capsys, monkeypatch):
    # R = 100.5: phi_hat(log p / log R) vanishes from p = 101 on, so the
    # sums read tau(p) up to p = 97 only
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return ramanujan_tau_table(n_max)

    monkeypatch.setattr(families, "ramanujan_tau_table", counted)
    path = tmp_path / "edge.ini"
    path.write_text(
        "[run]\nprimes = 500\nlog_r = 4.61015\n\n[family dd]\nkind = delta\n"
    )
    assert main(["constants", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("dd,1,500,")
    assert calls == [97]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_hecke_tau_stops_at_the_last_prime_read(threads, monkeypatch, capsys):
    # the sums read tau(p) up to p = 293; one pass builds Delta's rows, each
    # block of primes from one tau table of the block's reach, and every
    # delta family and twist is one Delta, so tau never runs past 293 and
    # tau(1..293) is computed once
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return ramanujan_tau_table(n_max)

    monkeypatch.setattr(families, "ramanujan_tau_table", counted)
    config = str(GOLDEN / "hecke_p300.ini")
    assert main(["density", "--config", config, "--threads", threads]) == 0
    assert calls and max(calls) == 293
    assert calls.count(293) == 1
    capsys.readouterr()


@pytest.mark.parametrize("threads", ["1", "3"])
def test_excluded_delta_pairs_read_one_tau_table_per_block(
    threads, tmp_path, monkeypatch, capsys
):
    # qd x qd excludes every (X, X), whose member matrices hold tau(p):
    # each block of primes builds Delta's rows from one tau table and the
    # excluded pairs' matrices from one more, read for both factors at once
    # since they are one family, never one table per prime
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return ramanujan_tau_table(n_max)

    monkeypatch.setattr(families, "ramanujan_tau_table", counted)
    path = tmp_path / "qdqd.ini"
    path.write_text(
        "[run]\nprimes = 300\n[family q]\nkind = quadratic\nd_min = 10\n"
        "d_max = 40\n[family qd]\nkind = twist\ntwist = delta\nbase = q\n"
        "[family cc]\nkind = convolve\nleft = qd\nright = qd\n"
    )
    assert main(["constants", "--config", str(path), "--threads", threads]) == 0
    assert capsys.readouterr().out.count("\ncc,") == 1
    assert len(calls) == 2 * int(threads)


@pytest.mark.parametrize(
    "option, message",
    [
        ("kind = delta\nbound = 2000", "unknown option 'bound'"),
        ("kind = twist\nbase = q\ntwist = delta 2000", "bad twist spec 'delta 2000'"),
    ],
    ids=["bound", "twist"],
)
def test_delta_takes_no_bound(option, message, tmp_path, capsys):
    path = tmp_path / "bound.ini"
    path.write_text(
        "[run]\nprimes = 50\n[family q]\nkind = quadratic\nd_min = 10\n"
        f"d_max = 40\n[family dd]\n{option}\n"
    )
    assert main(["constants", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: family 'dd': {message}")


def test_delta_twist_reads_tau_past_the_old_default_bound(tmp_path, capsys):
    # the prime sums reach p = 2477, past the 2000 coefficients a delta
    # family used to hold; Delta x an orthogonal family is symplectic
    path = tmp_path / "dec.ini"
    path.write_text(
        "[run]\nprimes = 2500\n"
        "[family ec]\nkind = elliptic\na_poly = 0 1\nb_poly = 1\n"
        "t_min = 500\nt_max = 600\n"
        "[family dec]\nkind = twist\ntwist = delta\nbase = ec\n"
    )
    assert main(["constants", "--config", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["family_id"] for row in rows] == ["ec", "dec"]
    assert rows[1]["c_class"] == "1"
    assert float(rows[1]["c_est"]) == pytest.approx(1.0907, abs=1e-4)


def _family_classes(cls):
    return {cls}.union(*(_family_classes(sub) for sub in cls.__subclasses__()))


@pytest.mark.parametrize(
    "config, args",
    [(ROOT / "configs" / "demo.ini", ["--primes", "200"])]
    + [(GOLDEN / f"{name}_smoke_s1.json", []) for name in GOLDEN_WORKLOADS]
    + [(GOLDEN / f"{name}.ini", []) for name in GOLDEN_INIS],
    ids=["demo_p200"]
    + [f"{name}_smoke_s1" for name in GOLDEN_WORKLOADS]
    + list(GOLDEN_INIS),
)
def test_one_moment_table_per_family(config, args, capsys, monkeypatch):
    # every (family, prime) row is computed once per command: one pass
    # builds every family's rows, derived families read their factors' rows
    # from it, and c, r and D1 of a family come from one table, so the
    # commands agree.  Rows are counted where each _rows and each
    # _rows_together makes them, each kind apart, since an override may call
    # the base's rows; the pass asks _rows_together for every row it keeps,
    # the elliptic families' too.
    rows, passes, kept = [], [], set()
    pass_rows = families._pass_rows

    def counted(cls, make_rows):
        def wrapper(self, primes, nu_max, factor_rows=()):
            rows.extend((cls, "_rows", id(self), p) for p in primes.tolist())
            return make_rows(self, primes, nu_max, factor_rows)

        return wrapper

    def counted_together(cls, make_rows):
        def wrapper(kind, jobs):
            rows.extend(
                (cls, "_rows_together", id(f), p)
                for f, primes, _, _ in jobs
                for p in primes.tolist()
            )
            return make_rows(kind, jobs)

        return classmethod(wrapper)

    def counted_pass(plan, primes):
        passes.append(len(primes))
        built = pass_rows(plan, primes)
        kept.update(
            (type(f), id(f), p)
            for f, (good, _) in built.items()
            for p in primes[: len(good)].tolist()
        )
        return built

    for cls in _family_classes(Family):
        if "_rows" in vars(cls):
            monkeypatch.setattr(cls, "_rows", counted(cls, vars(cls)["_rows"]))
        if "_rows_together" in vars(cls):
            make_rows = vars(cls)["_rows_together"].__func__
            monkeypatch.setattr(cls, "_rows_together", counted_together(cls, make_rows))
    monkeypatch.setattr(families, "_pass_rows", counted_pass)
    outputs = {}
    for command in ("constants", "density"):
        rows.clear()
        passes.clear()
        kept.clear()
        assert main([command, "--config", str(config)] + args) == 0
        assert len(rows) == len(set(rows)) > 0
        assert len(passes) == 1
        together = {(i, p) for _, hook, i, p in rows if hook == "_rows_together"}
        assert together == {(i, p) for _, i, p in kept}
        if config.name.startswith("ec_"):
            assert any(kind is families.EllipticFamily for kind, _, _ in kept)
        lines = csv.DictReader(io.StringIO(capsys.readouterr().out))
        outputs[command] = [[row[c] for c in SHARED_COLUMNS] for row in lines]
    assert outputs["constants"] == outputs["density"]


class TestWeilExpressions:
    def test_sym3(self):
        assert evaluate_weil_expression("sym^3([12])")["text"] == "[34] (+) [12]"

    def test_eps_of_tensor(self):
        # [12] x [16] = [27] + [5]: i^27 * i^5 = i^32 = +1
        assert evaluate_weil_expression("eps([12] (*) [16])")["text"] == "+1"

    def test_sign_product(self):
        assert evaluate_weil_expression("[+] (*) [-]")["text"] == "[-]"

    def test_twisted_atom(self):
        assert evaluate_weil_expression("[5,1/2]")["text"] == "[5,1/2]"

    def test_weight_one_atom_splits(self):
        assert evaluate_weil_expression("[1]")["text"] == "[+] (+) [-]"

    def test_gamma_query(self):
        out = evaluate_weil_expression("gamma([+] (*) [-])")
        assert out["text"] == "GammaR(s+1)"

    def test_logcond_query(self):
        out = evaluate_weil_expression("logcond([+])")
        assert out["value"] == 0.0

    def test_wedge2(self):
        assert evaluate_weil_expression("wedge2([3])")["text"] == "[-]"

    def test_parse_error_has_position(self):
        with pytest.raises(WeilParseError, match="position"):
            evaluate_weil_expression("sym^3([12)")

    def test_semantic_error_wedge_of_one_dim(self):
        with pytest.raises(WeilParseError, match="one-dimensional"):
            evaluate_weil_expression("wedge2([+])")

    def test_semantic_error_sym_of_reducible(self):
        with pytest.raises(WeilParseError, match="irreducible"):
            evaluate_weil_expression("sym^2([12] (*) [12])")

    def test_cli_weil_json(self, capsys):
        assert main(["weil", "eps(sym^5([12]))", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["text"] == "-1"

    def test_cli_parse_error_exit_code(self, capsys):
        assert main(["weil", "sym^(bad"]) == EXIT_CONFIG

    def test_negative_shifts_print_as_subtraction(self, capsys):
        # gamma takes any rational shift; logcond needs non-negative ones
        assert main(["weil", "gamma([1,-3])"]) == 0
        assert capsys.readouterr().out == "GammaR(s-3) GammaR(s-2)\n"
        assert main(["weil", "gamma([12,-7])"]) == 0
        assert capsys.readouterr().out == "GammaC(s-3/2)\n"
        assert main(["weil", "logcond([1,-3])"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: logcond: negative gamma shift -3\n"


class TestOtherSubcommands:
    def test_rmt_table(self, capsys):
        assert main(["rmt-table", "--sigma", "0.5", "--ranks", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "group,sigma,r,prediction"
        assert len(lines) == 6  # header + 5 groups

    def test_ec_scan(self, capsys):
        code = main(
            ["ec-scan", "--a-poly", "0 1", "--b-poly", "1", "--primes", "60"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,michel_ratio,nagao_partial"
        first = lines[1].split(",")
        assert first[0] == "5"
        # running rank estimate of the hidden-section family drifts toward 1
        last = lines[-1].split(",")
        assert float(last[2]) > 0.5

    def test_ec_scan_matches_golden_csv(self, capsys):
        # the correlation path (B = 1), and the twist path (B = T^2 + 1, and
        # the rank-2 family x^3 - T^2 x + T^2 at P = 2000)
        for golden, a_poly, b_poly, primes in (
            ("ec_scan_p200", "0 1", "1", "200"),
            ("ec_scan_quad_p200", "0 1", "1 0 1", "200"),
            ("ec_scan_r2_p2000", "0 0 -1", "0 0 1", "2000"),
        ):
            argv = ["ec-scan", "--a-poly", a_poly, "--b-poly", b_poly]
            assert main(argv + ["--primes", primes]) == 0
            expected = (GOLDEN / f"{golden}.csv").read_text()
            assert capsys.readouterr().out == expected, golden

    def test_ec_scan_reads_one_table_per_prime(self, monkeypatch, capsys):
        tables, j_checks = [], []
        residue_tables = ecgeom.ap_residue_tables
        j_is_constant_of = ecgeom.EllipticFamilySpec.j_is_constant

        def table(specs, context):
            tables.extend([context.p] * len(specs))
            return residue_tables(specs, context)

        def j_is_constant(spec):
            j_checks.append(spec)
            return j_is_constant_of(spec)

        monkeypatch.setattr(ecgeom, "ap_residue_tables", table)
        monkeypatch.setattr(ecgeom.EllipticFamilySpec, "j_is_constant", j_is_constant)
        assert main(["ec-scan", "--a-poly", "0 1", "--b-poly", "1 0 1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(tables) == tables == [int(row.split(",")[0]) for row in rows]
        assert len(j_checks) == 1

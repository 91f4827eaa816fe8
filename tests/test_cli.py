import json
import math
import os
import subprocess
import sys
import time

from splitrad.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_example(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "z^3 + (1/5)*z^2")
    assert code == 0
    data = json.loads(out)
    assert data["places"]["5"]["is_bad"] is True
    assert data["places"]["5"]["g_v"]["logs"] == {"5": "1"}
    assert data["places"]["2"]["is_bad"] is False
    assert data["places"]["3"]["is_bad"] is None
    assert data["h_crit"]["logs"] == {"3": "1", "5": "1"}  # log 15
    # round-trip: the JSON parses back to the identical structure
    assert json.loads(json.dumps(data)) == data


def test_analyze_good_everywhere(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "z^2")
    assert code == 0
    data = json.loads(out)
    assert all(pl["is_bad"] is not True for pl in data["places"].values())
    assert data["h_crit"] == {"approx": 0.0}


def test_preperiodic_example(capsys):
    code, out, _ = run(capsys, "preperiodic", "--poly", "-(2/9)*z^3 - z^2")
    assert code == 0
    vals = {entry["value"] for entry in json.loads(out)["preperiodic"]}
    assert {"0", "-3", "-9/2"} <= vals


def test_canonical_height(capsys):
    code, out, _ = run(capsys, "canonical-height", "--poly", "z^3 + (1/5)*z^2",
                       "--point", "1")
    assert code == 0
    data = json.loads(out)
    assert data["canonical_height"]["logs"] == {"5": "1/3"}
    assert abs(data["canonical_height"]["approx"] - 0.6181) < 2e-4


def test_disk_chain_csv(capsys):
    code, out, _ = run(capsys, "disk-chain", "--poly", "z^3 + (1/5)*z^2",
                       "--place", "5", "--depth", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,t,k,mass,q,modulus"
    assert lines[1] == "1,0,2,2/3,1,1/2"
    assert lines[2] == "2,-1/2,2,4/9,2,1/4"
    assert lines[4].startswith("4,-7/8,2,16/81,8")


def test_wings_json(capsys):
    code, out, _ = run(capsys, "wings", "--poly", "z^3 + (1/5)*z^2", "--place", "5")
    assert code == 0
    data = json.loads(out)
    assert data["cross_distance_logp"] == "1"
    masses = sorted(c["mass"] for c in data["clusters"])
    assert masses == ["1/3", "2/3"]


def test_equidistribution_cli(capsys):
    code, out, _ = run(capsys, "equidistribution", "--poly", "z^3 + (1/5)*z^2",
                       "--points", "0,-1/5", "--eps", "1/2", "--m0", "1")
    assert code == 0
    data = json.loads(out)
    assert data["places"][0]["verdict"] is False
    assert data["achieved_delta"] == "0"


def test_equidistribution_cli_irrational_delta(capsys):
    code, out, _ = run(capsys, "equidistribution", "--poly", "z^3 + (1/35)*z^2",
                       "--points=0,-1/35,1/5,2", "--eps", "1/2", "--m0", "1")
    assert code == 0
    lo, hi = json.loads(out)["achieved_delta"]["interval"]  # log 5 / log 35
    assert lo <= math.log(5) / math.log(35) <= hi


def test_escape_radius_beyond_float_range_exits_3(capsys):
    code, out, err = run(capsys, "canonical-height", "--poly", "z^2 + 10^400", "--point", "1")
    assert code == 3 and out == ""
    assert "escape radius lies beyond the float range" in err


def test_abc_quality_cli(capsys):
    code, out, _ = run(capsys, "abc-quality", "--triple", "1,8,-9")
    assert code == 0
    data = json.loads(out)
    assert data["quality"]["logs"] == {"2": "-1", "3": "1"}
    code, out, _ = run(capsys, "abc-quality", "--field", "Qt",
                       "--triple", "t^2,-(t-1)^2,-2t+1")
    assert code == 0
    data = json.loads(out)
    assert data["h"]["const"] == "2"
    assert data["rad"]["const"] == "4"
    assert data["quality"]["const"] == "-2"


def test_experiment_cli(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, err = run(capsys, "experiment", "--family", "z^3 + (1/a)*z^2",
                       "--param", "a", "--values", "5,7,1", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0].startswith("family_param,h_crit")
    assert "skipped 1: no bad place" in err


def test_equipotential_cli(capsys, tmp_path):
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    for p in (p1, p2):
        code, _, _ = run(capsys, "equipotential", "--poly", "(1/5)*z^3 - z^2",
                         "--grid", "120", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("<?xml")


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--poly", "z^2", "--bogus-flag")
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "analyze", "--poly", "z + 1")
    assert code == 2
    assert "domain error" in err
    code, _, _ = run(capsys, "disk-chain", "--poly", "z^3", "--place", "5")
    assert code == 2


def test_q_only_subcommands_over_qt_are_domain_errors(capsys):
    for argv in (["analyze"], ["equidistribution", "--points", "0,1"],
                 ["equipotential", "--grid", "20"]):
        code, out, err = run(capsys, argv[0], "--field", "Qt", "--poly", "z^3 + (1/5)*z^2",
                             *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("domain error:")
    code, _, err = run(capsys, "equipotential", "--poly", "z^2 + 10^400", "--grid", "20")
    assert code == 2 and err.startswith("domain error:")


def test_exit_code_undetermined(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("nonarch_maxiter = 1\n# comment\n")
    code, _, err = run(capsys, "--config", str(cfg), "canonical-height",
                       "--poly", "z^3 + (1/5)*z^2", "--point", "1")
    assert code == 3
    assert "undetermined" in err


def test_unknown_config_key_is_domain_error(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("nonarch_max_iter = 0\ntol = 1e-6\ngird = 5\n")
    code, out, err = run(capsys, "--config", str(cfg), "canonical-height",
                         "--poly", "z^3 + (1/5)*z^2", "--point", "1")
    assert code == 2 and out == ""
    assert err.startswith("domain error: unknown --config key(s) gird, nonarch_max_iter; ")
    assert "accepted: tol, nonarch_maxiter, arch_maxiter, depth, m0, eps, grid" in err


def test_format_mismatch_is_domain_error(capsys):
    code, _, err = run(capsys, "analyze", "--poly", "z^2", "--format", "svg")
    assert code == 2 and "emits json" in err
    code, _, _ = run(capsys, "disk-chain", "--poly", "z^3 + (1/5)*z^2",
                     "--place", "5", "--format", "csv")
    assert code == 0


def test_runconfig_validation():
    import pytest
    from splitrad.cli import RunConfig
    from splitrad.exact import DomainError
    rc = RunConfig()
    assert rc.tol > 0 and rc.m0 >= 1
    with pytest.raises(DomainError):
        RunConfig(tol=0.0)
    with pytest.raises(DomainError):
        RunConfig(depth=0)


def test_chain_depth_and_m0_above_the_cap_exit_2_before_any_work(capsys, tmp_path):
    # m0 = 100000 would build a chain of 100001 levels for every bad place
    chain = ("--poly", "z^3 + (1/5)*z^2", "--place", "5")
    cases = [("disk-chain", *chain, "--depth", "1001"),
             ("equidistribution", "--poly", "z^3 + (1/5)*z^2", "--points", "0,1", "--m0", "100000"),
             ("experiment", "--family", "z^3 + (1/a)*z^2", "--values", "5,7", "--m0", "1000")]
    config = tmp_path / "deep.cfg"
    config.write_text("depth = 5000\n", encoding="utf-8")
    cases.append(("--config", str(config), "disk-chain", *chain))
    for argv in cases:
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "at most the chain depth cap of 1000" in err, argv
        assert time.monotonic() - start < 5.0, argv  # uncapped, m0 = 100000 ran past 30 s
    code, out, _ = run(capsys, "disk-chain", *chain, "--depth", "1000")
    assert code == 0 and len(out.splitlines()) == 1001


def test_config_precedence_flag_then_file_then_default():
    from fractions import Fraction
    from splitrad.cli import RunConfig, _build_config, build_parser
    ap = build_parser()
    chain = ["disk-chain", "--poly", "z^3 + (1/5)*z^2", "--place", "5"]
    assert _build_config(ap.parse_args(chain), {}) == RunConfig()
    cfg = {"depth": "3", "tol": "1e-6", "nonarch_maxiter": "5", "arch_maxiter": "50", "eps": "1/3"}
    rc = _build_config(ap.parse_args(chain), cfg)
    assert (rc.depth, rc.tol, rc.nonarch_maxiter, rc.arch_maxiter) == (3, 1e-6, 5, 50)
    assert rc.eps == Fraction(1, 3) and rc.m0 == RunConfig().m0
    rc = _build_config(ap.parse_args(chain + ["--depth", "4", "--tol", "1e-3"]), cfg)
    assert (rc.depth, rc.tol, rc.nonarch_maxiter) == (4, 1e-3, 5)
    points = ["equidistribution", "--poly", "z^2", "--points", "0,1", "--eps", "1/4"]
    assert _build_config(ap.parse_args(points), cfg).eps == Fraction(1, 4)


def test_spec_cli_examples_run_quickly(capsys):
    import time
    examples = [
        ("analyze", "--poly", "z^3 + (1/5)*z^2"),
        ("preperiodic", "--poly", "-(2/9)*z^3 - z^2"),
        ("analyze", "--poly", "z^2"),
        ("disk-chain", "--poly", "z^3 + (1/5)*z^2", "--place", "5", "--depth", "6"),
        ("wings", "--poly", "z^3 + (1/5)*z^2", "--place", "5"),
        ("equidistribution", "--poly", "z^3 + (1/5)*z^2", "--points", "0,-1/5"),
        ("abc-quality", "--triple", "1,8,-9"),
    ]
    for argv in examples:
        start = time.monotonic()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert time.monotonic() - start < 10.0


def test_preperiodic_box_above_the_cap_exits_3(capsys):
    code, out, err = run(capsys, "preperiodic", "--poly", "z^2 + 1000000000")
    assert code == 3 and out == ""
    assert "box holds 2000000005 starting points, above the cap of 1000000" in err


def test_experiment_skips_a_parameter_whose_box_is_above_the_cap(capsys):
    code, out, err = run(capsys, "experiment", "--family", "z^3 + (1/a)*z^2",
                         "--values", "5,1000003")
    assert code == 0
    assert len(out.strip().splitlines()) > 1  # the rows of a = 5
    assert "skipped 1000003: certificate failure: preperiodic search box holds" in err


def test_experiment_skips_a_parameter_whose_factorization_exceeds_the_budget(capsys):
    # 1000000000100000000002379 = 1000000000039 * 1000000000061
    code, out, err = run(capsys, "experiment", "--family", "z^3 + (1/a)*z^2",
                         "--values", "5,1000000000100000000002379")
    assert code == 0
    assert out.splitlines()[1].startswith("5,log(3) + log(5),")  # the row of a = 5
    assert ("skipped 1000000000100000000002379: certificate failure: factorization of a "
            "25-digit cofactor exceeded the Pollard rho budget of 131072 steps") in err


def test_canonical_height_with_an_unfactorable_denominator_exits_3(capsys):
    import time
    start = time.monotonic()
    code, out, err = run(capsys, "canonical-height", "--poly", "z^3 + (1/5)*z^2",
                         "--point", "1/8808046456595511703397342424939986591502523")
    assert code == 3 and out == ""
    assert "exceeded the Pollard rho budget of 131072 steps" in err
    assert time.monotonic() - start < 2.0


def test_canonical_height_at_a_prime_power_denominator(capsys):
    code, out, _ = run(capsys, "canonical-height", "--poly", "z^2 - 1",
                       "--point", "1/1000003^200")
    assert code == 0
    assert json.loads(out)["canonical_height"]["logs"] == {"1000003": "200"}


def test_parabolic_maps_exit_3_at_once_as_fresh_processes():
    # the parabolic fixed point is decided exactly before any critical orbit is iterated
    # (the iteration took 0.15 s on z^2 + 1/4 and 0.5-0.7 s on z^3 + z)
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv, stderr in (
            (["hcrit", "--poly", "z^2 + 1/4"], "undetermined: parabolic fixed point: "
             "root of z - (1/2), multiplier a primitive 1st root of unity\n"),
            (["analyze", "--poly", "z^3 + z"], "undetermined: parabolic fixed point: "
             "root of z, multiplier a primitive 1st root of unity\n")):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "splitrad.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr)
        assert elapsed < 1.0, (argv, elapsed)


def test_config_and_out_files_that_cannot_be_opened_exit_1(capsys, tmp_path):
    # both raised a traceback; the --out one only after the result was computed
    code, out, err = run(capsys, "--config", str(tmp_path / "missing.cfg"), "hcrit",
                         "--poly", "z^2 + 1/5")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing.cfg" in err and err.count("\n") == 1
    code, out, err = run(capsys, "hcrit", "--poly", "z^2 + 1/5", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_values_past_the_printable_digit_limit_exit_2_before_any_work(capsys):
    # these were computed, then failed to print their echo with Python's own message
    limit = sys.get_int_max_str_digits()
    for argv in (["hcrit", "--poly", "z^2 + 10^5000"],
                 ["canonical-height", "--poly", "z^2 + 1/3", "--point", "10^5000"],
                 ["canonical-height", "--poly", "z^2 + 1/3", "--point", "7" * 4500]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, "")
        assert f"more than {limit} decimal digits, the limit of sys.get_int_max_str_digits()" \
            in err and "Exceeds" not in err
    code, out, _ = run(capsys, "canonical-height", "--poly", "z^2 + 1/3", "--point", "10^4000")
    assert code == 0 and json.loads(out)["point"] == str(10 ** 4000)


def test_experiment_param_must_be_an_identifier(capsys):
    # "(" never matched, so every value was skipped as a parse failure with exit 0
    code, out, err = run(capsys, "experiment", "--family", "z^3 + (1/a)*z^2", "--param", "(",
                         "--values", "5,7")
    assert (code, out) == (2, "")
    assert err == "domain error: parameter name '(' is not an identifier\n"

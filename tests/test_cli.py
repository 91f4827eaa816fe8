import json
import math

from splitrad.cli import main


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


def test_exit_code_undetermined(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("nonarch_maxiter = 1\n# comment\n")
    code, _, err = run(capsys, "--config", str(cfg), "canonical-height",
                       "--poly", "z^3 + (1/5)*z^2", "--point", "1")
    assert code == 3
    assert "undetermined" in err


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

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from u3kit.cli import main
from u3kit.groups import function_to_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def result_of(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def test_norm_expr(capsys):
    code, out, _ = run_cli(["norm", "--group", "Z/5", "--d", "3", "--expr", "e(x^2/5)"], capsys)
    assert code == 0
    assert abs(result_of(out)["value"] - 1.0) < 1e-9


def test_aps(capsys):
    code, out, _ = run_cli(["aps", "--group", "Z/13", "--set", "0,1,2,4", "--k", "4"], capsys)
    assert code == 0
    assert result_of(out)["proper"] == 0


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(["aps", "--group", "Q/13", "--set", "0", "--k", "4"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("group", ["Z/0", "F5^40"])
def test_bad_group_order_exit_code(group, capsys):
    # a zero factor, and an order beyond int64, are parse errors, not tracebacks
    code, _, err = run_cli(["norm", "--group", group, "--expr", "1", "--d", "2"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--group", "Z/5"])  # missing --d
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_hp_check_rejects_nonpositive_trials(trials):
    with pytest.raises(SystemExit) as exc:
        main(["hp-check", "--trials", trials])
    assert exc.value.code == 2


def test_determinism_modulo_walltime(capsys):
    args = ["norm", "--group", "Z/7", "--d", "2", "--expr", "0.5*e(x/7)+0.25"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1["manifest"].pop("wall_time_ms")
    p2["manifest"].pop("wall_time_ms")
    assert p1 == p2


def test_bohr_subcommand(capsys):
    code, out, _ = run_cli(
        ["bohr", "--group", "Z/101", "--S", "1", "--rho", "0.2",
         "--find-regular", "0.15", "--progression"],
        capsys,
    )
    assert code == 0
    res = result_of(out)
    assert res["size"] == 41 and res["regular"] is True
    assert res["progression"]["left_inclusion_ok"] and res["progression"]["right_inclusion_ok"]


def test_bogolyubov_subcommand(capsys):
    code, out, _ = run_cli(["bogolyubov", "--group", "Z/12", "--set", "0,3,6,9"], capsys)
    assert code == 0
    res = result_of(out)
    assert sorted(tuple(s) for s in res["S"]) == [[0], [4], [8]] or sorted(
        s[0] for s in res["S"]
    ) == [0, 4, 8]
    assert res["included_in_2A_minus_2A"]


def test_quad_classify_subcommand(tmp_path, capsys):
    phi = [f"{(2 * x * x + 3 * x) % 5}/5" for x in range(5)]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi))
    code, out, _ = run_cli(["quad-classify", "--group", "Z/5", "--input", str(path)], capsys)
    assert code == 0
    res = result_of(out)
    assert res["xi"] == [3]


def test_function_file_roundtrip(tmp_path, capsys):
    from u3kit.groups import GroupFunction, parse_group

    spec = parse_group("Z/11")
    f = GroupFunction(spec, np.exp(2j * np.pi * np.arange(11) / 11))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(f)))
    code, out, _ = run_cli(["norm", "--group", "Z/11", "--d", "2", "--input", str(path)], capsys)
    assert code == 0
    assert abs(result_of(out)["value"] - 1.0) < 1e-9
    # manifest carries the input digest
    assert "input" in json.loads(out)["manifest"]["input_digests"]


def test_inverse_f5_subcommand(tmp_path, capsys):
    from u3kit.groups import GroupFunction, parse_group

    spec = parse_group("F5^2")
    coords = spec.decode(np.arange(25))
    q = (coords[:, 0] ** 2 + coords[:, 1] ** 2) % 5
    f = GroupFunction(spec, np.exp(2j * np.pi * q / 5))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(f)))
    code, out, _ = run_cli(
        ["inverse-f5", "--input", str(path), "--eta", "0.5", "--seed", "7"], capsys
    )
    assert code == 0
    res = result_of(out)
    assert res["average_bias"] > 0.99


def test_nilseq_subcommand(tmp_path, capsys):
    sysj = {"factors": [{"kind": "skew", "m": 1, "alpha": 0.3, "beta": 0.0},
                        {"kind": "heis", "alpha": 0.3, "beta": 0.0, "gamma": 0.7}]}
    spath = tmp_path / "sys.json"
    spath.write_text(json.dumps(sysj))
    fpath = tmp_path / "f.json"
    code, out, _ = run_cli(
        ["nilseq", "--system", str(spath), "--F", "builtin:chi_e", "--N", "101",
         "--out", str(fpath)],
        capsys,
    )
    assert code == 0
    assert result_of(out)["dimension"] == 5
    from u3kit.groups import load_function

    seq = load_function(str(fpath))
    assert seq.owner.order == 101


def test_hp_check_subcommand(capsys):
    code, out, _ = run_cli(["hp-check", "--k", "4", "--trials", "100", "--seed", "3"], capsys)
    assert code == 0
    assert result_of(out)["pass"] is True


def test_fw_and_scan_subcommands(tmp_path, capsys):
    fpath = tmp_path / "fw.json"
    code, out, _ = run_cli(["fw", "--N", "401", "--out", str(fpath)], capsys)
    assert code == 0
    code, out, _ = run_cli(["scan", "--input", str(fpath), "--mode", "exhaustive"], capsys)
    assert code == 0
    assert result_of(out)["value"] < 0.2
    code, out, _ = run_cli(
        ["scan", "--group", "Z/101", "--expr", "e((3*x^2+x)/101)", "--mode", "exhaustive"],
        capsys,
    )
    assert code == 0
    res = result_of(out)
    assert res["a"] == 3 and res["b"] == 1


def test_gvn_subcommand(tmp_path, capsys):
    from u3kit.groups import GroupFunction, parse_group

    spec = parse_group("Z/31")
    rng = np.random.default_rng(9)
    f = GroupFunction(spec, 0.9 * np.exp(2j * np.pi * rng.uniform(size=31)))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(f)))
    code, out, _ = run_cli(["gvn", "--group", "Z/31", "--k", "4", "--inputs", str(path)], capsys)
    assert code == 0
    assert result_of(out)["slack"] >= -1e-9


def test_increment_and_driver_subcommands(tmp_path, capsys):
    from u3kit.groups import parse_group

    spec = parse_group("F5^2")
    coords = spec.decode(np.arange(25))
    q = (coords[:, 0] ** 2 + 2 * coords[:, 0] * coords[:, 1]) % 5
    A = [int(i) for i in np.nonzero(q == 0)[0]]
    path = tmp_path / "A.json"
    path.write_text(json.dumps(A))
    code, out, _ = run_cli(
        ["increment", "--n", "2", "--set", str(path), "--force", "--seed", "1"], capsys
    )
    assert code == 0
    res = result_of(out)
    assert res["new_density"] >= res["old_density"]
    code, out, _ = run_cli(["driver", "--n", "2", "--set", str(path), "--seed", "1"], capsys)
    assert code == 0
    assert len(result_of(out)["trace"]) >= 1


def test_u3_oracle_subcommand(capsys):
    code, out, _ = run_cli(
        ["u3-oracle", "--group", "Z/9", "--expr", "e((4*x^2+2*x)/9)", "--kind", "coset",
         "--H", "whole"],
        capsys,
    )
    assert code == 0
    res = result_of(out)
    assert abs(res["value"] - 1.0) < 1e-9


def test_bracket_subcommand(tmp_path, capsys):
    bqj = {"N": 5, "S": [1, 2], "quad": [[0, "5/4"], ["5/4", 0]], "lin": [0, 0]}
    path = tmp_path / "bq.json"
    path.write_text(json.dumps(bqj))
    code, out, _ = run_cli(["bracket", "--bq", str(path), "--n", "1"], capsys)
    assert code == 0
    assert abs(result_of(out)["value"] - 0.2) < 1e-12  # 2.5 * 0.2 * 0.4


def test_selftest_subcommand(capsys):
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 0
    assert result_of(out)["ok"] is True


def test_entrypoint_process():
    proc = subprocess.run(
        [sys.executable, "-m", "u3kit.cli", "aps", "--group", "Z/13", "--set", "0,1,2,4", "--k", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["proper"] == 0

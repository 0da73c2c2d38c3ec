import argparse
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import u3kit
from u3kit.cli import build_parser, main
from u3kit.groups import function_to_json, parse_group
from u3kit.quadratic import QuadraticPhase


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


def test_expr_denominator_below_one_is_a_parse_error(capsys):
    # e(P/0) was a ZeroDivisionError traceback with exit 1
    code, out, err = run_cli(["norm", "--d", "2", "--group", "Z/11", "--expr", "e(x/0)"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message": "denominator must be at least 1 (at position 4)"}


_LONG = "7" * 5000  # past Python's default 4300-digit limit on int(str)


@pytest.mark.parametrize("expr, what, pos", [
    (f"e(x/{_LONG})", "denominator", 4),
    (f"e({_LONG}*x/7)", "coefficient", 2),
    (f"e(x^{_LONG}/7)", "exponent", 4),
    (f"ind{{{_LONG}}}", "index", 4),
], ids=["denominator", "coefficient", "exponent", "index"])
def test_expr_number_too_long_to_convert_is_a_parse_error(expr, what, pos, capsys):
    # int() raised ValueError on such a token: a traceback and exit 1
    code, out, err = run_cli(["norm", "--d", "2", "--group", "Z/11", "--expr", expr], capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message":
                               f"{what} has 5000 digits, more than Python converts to an integer (at position {pos})"}


def test_expr_huge_exponent_returns_at_once():
    # a term is held as exponent -> coefficient and x^k mod Q taken by
    # repeated squaring; a coefficient list of 10^20 + 1 entries grew without
    # bound, so the child runs under a 1 GiB address-space cap and a timeout
    src = os.path.dirname(os.path.dirname(u3kit.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    k = 10**20
    code = ("import json; from u3kit.exprparse import parse_expr; from u3kit.groups import parse_group; "
            f"v = parse_expr('e(x^{k}/7)', parse_group('Z/11')).values; "
            "print(json.dumps([v.real.tolist(), v.imag.tolist()]))")

    def cap_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr
    re, im = json.loads(proc.stdout)
    want = np.exp(2j * np.pi * np.array([pow(x, k, 7) for x in range(11)]) / 7)
    assert np.array_equal(np.array(re) + 1j * np.array(im), want)


def test_expr_large_denominator_is_exact():
    # once Q >= 2^31 a product of two residues can pass 2^63, so the
    # residues are Python integers: in int64, 96,965 of the 100,003 values
    # below wrapped, the first at x = 3038
    from u3kit.exprparse import _eval_poly_mod, parse_expr

    N, Q, c = 100_003, 1_000_000_000_039, 999_999_999_999
    r = _eval_poly_mod({2: c}, N, Q)
    assert r.tolist() == [c * x * x % Q for x in range(N)]
    f = parse_expr(f"e({c}*x^2/{Q})", parse_group(f"Z/{N}"))
    xs = [0, 1, 3037, 3038, 50_000, N - 1]
    want = np.exp(2j * np.pi * np.array([(c * x * x % Q) / Q for x in xs]))
    assert np.max(np.abs(f.values[xs] - want)) < 1e-12
    # a denominator past any float still gives r / Q rounded once
    Q = 10**400 + 1
    f = parse_expr(f"e(x^3/{Q})", parse_group("Z/5"))
    assert np.array_equal(f.values, np.ones(5, dtype=complex))


def test_aps(capsys):
    code, out, _ = run_cli(["aps", "--group", "Z/13", "--set", "0,1,2,4", "--k", "4"], capsys)
    assert code == 0
    assert result_of(out)["proper"] == 0


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(["aps", "--group", "Q/13", "--set", "0", "--k", "4"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


def test_out_of_memory_exits_3_as_budget_exceeded(monkeypatch, capsys):
    # numpy raises MemoryError for an array the host cannot hold (fw --N
    # 1000000000039, or norm --d 2 on Z/1000000007 under a 3 GB address-space
    # limit); here the function the fw handler calls raises it, so nothing
    # large is allocated (the handler itself is bound in the cached parser)
    def out_of_memory(N):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000000039,)")

    monkeypatch.setattr("u3kit.experiments.fw_counterexample", out_of_memory)
    code, out, err = run_cli(["fw", "--N", "1000000000039"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "out of memory: Unable to allocate 14.6 TiB for an array with shape (1000000000039,)",
    }


_PAST_THE_ARRAY_LIMIT = "group order must be below 2^59, as its 16-byte values would pass 2^63 - 1 bytes"


@pytest.mark.parametrize("N, error", [
    (str(2**63 - 25), "ParseError"),  # the largest prime below 2^63: an array numpy refuses to make
    (str(2**63 + 1), "ParseError"),
    (str(2**64 + 13), "ParseError"),  # prime, refused before the primality test
    ("0", "NotPrime"),
    ("1", "NotPrime"),
    ("4", "NotPrime"),
])
def test_fw_near_the_64_bit_bound_exits_3_at_once(N, error, capsys):
    # trial division took minutes on a prime near 2^63, and a prime past it
    # ended in GroupSpec's ValueError; a prime in [2^59, 2^63) is refused by
    # the bound on a dense array before the primality test
    t0 = time.perf_counter()
    code, out, err = run_cli(["fw", "--N", N], capsys)
    assert (code, out, json.loads(err)["error"]) == (3, "", error)
    assert time.perf_counter() - t0 < 5
    if error == "ParseError":
        why = "group order must fit in 64 bits" if int(N) >= 2**63 else _PAST_THE_ARRAY_LIMIT
        assert json.loads(err)["message"] == f"bad N {N}: {why}"


def test_fw_on_a_prime_past_the_array_limit_names_the_bound(capsys):
    # 2^60 - 93 is prime: numpy's "array is too big" ValueError was reported
    # as out of memory
    N = 2**60 - 93
    code, out, err = run_cli(["fw", "--N", str(N)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ParseError", "message": f"bad N {N}: {_PAST_THE_ARRAY_LIMIT}"}


_BIG = f"Z/{2**63 - 25}"


@pytest.mark.parametrize("argv", [
    ["bogolyubov", "--group", _BIG, "--set", "1,2"],
    ["norm", "--group", _BIG, "--expr", "1", "--d", "2"],
    ["u3-oracle", "--group", _BIG, "--expr", "1"],
    ["scan", "--group", _BIG, "--expr", "1"],
    ["inverse-f5", "--group", _BIG, "--expr", "1", "--eta", "0.5"],
    ["bohr", "--group", _BIG, "--S", "1", "--rho", "0.1"],
    ["progression", "--group", _BIG, "--S", "1", "--rho", "0.1"],
    ["aps", "--group", _BIG, "--set", "1,2", "--k", "3"],
], ids=lambda argv: argv[0])
def test_a_group_past_numpys_array_limit_is_a_parse_error(argv, capsys):
    # the first five ended in numpy's "array is too big" traceback (exit 1);
    # the last three exited 3 with a message about pairings or memory
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ParseError", "message": f"bad group '{_BIG}': {_PAST_THE_ARRAY_LIMIT}"}


def test_bracket_out_past_the_array_limit_is_a_parse_error(tmp_path, capsys):
    # N = 2^61 - 1 ended in numpy's "array is too big" traceback; without
    # --out no array is made, and the value at one n is still reported
    bq = tmp_path / "bq.json"
    N = 2**61 - 1
    bq.write_text(json.dumps({"N": N, "S": [1], "quad": [["1/2"]], "lin": [0]}))
    code, out, err = run_cli(["bracket", "--bq", str(bq), "--out", str(tmp_path / "o.json")], capsys)
    assert (code, out) == (3, "") and not (tmp_path / "o.json").exists()
    assert json.loads(err) == {"error": "ParseError", "message": f"bad group 'Z/{N}': {_PAST_THE_ARRAY_LIMIT}"}
    code, out, _ = run_cli(["bracket", "--bq", str(bq), "--n", "5"], capsys)
    assert code == 0 and result_of(out)["N"] == N


def test_nilseq_past_the_array_limit_names_the_bound(tmp_path, capsys):
    # the bound was reported as an orbit that is not finite in floats
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"factors": [{"kind": "circle", "alpha": 0.3}]}))
    N = 2**60 + 1
    code, out, err = run_cli(["nilseq", "--system", str(system), "--N", str(N)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ParseError", "message": f"bad group 'Z/{N}': {_PAST_THE_ARRAY_LIMIT}"}


def test_nilseq_on_json_integers_writes_the_file_of_the_same_floats(tmp_path, capsys):
    # the nil layer has one float path: a parameter 1 gives the bytes 1.0 gives
    def system(one, two, zero):
        return {"factors": [{"kind": "circle", "alpha": one},
                            {"kind": "skew", "alpha": 0.25, "beta": one, "m": 3},
                            {"kind": "heis", "alpha": 0.3, "beta": two, "gamma": one},
                            {"kind": "heis", "alpha": two, "beta": 0.125, "gamma": 0.7},
                            {"kind": "circle", "alpha": zero}]}

    written = []
    for name, params in (("ints", (1, 2, 0)), ("floats", (1.0, 2.0, 0.0))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system(*params)))
        for F in ("builtin:one", "builtin:chi_e"):
            out_path = tmp_path / f"{name}-{F[8:]}-out.json"
            code, _, _ = run_cli(["nilseq", "--system", str(path), "--F", F, "--N", "101",
                                  "--out", str(out_path)], capsys)
            assert code == 0
            written.append(out_path.read_bytes())
    assert written[:2] == written[2:]
    assert len(set(json.dumps(v) for v in json.loads(written[1])["values"])) > 1  # not a constant sequence


def test_bracket_out_past_the_64_bit_bound_is_a_parse_error(tmp_path, capsys):
    # GroupSpec's ValueError ended the run in a traceback
    bq = tmp_path / "bq.json"
    bq.write_text(json.dumps({"N": 2**63 + 1, "S": [1], "quad": [["1/2"]], "lin": [0]}))
    code, out, err = run_cli(["bracket", "--bq", str(bq), "--out", str(tmp_path / "o.json")], capsys)
    assert (code, out) == (3, "") and not (tmp_path / "o.json").exists()
    assert json.loads(err) == {"error": "ParseError",
                               "message": f"bad group 'Z/{2**63 + 1}': group order must fit in 64 bits"}


def test_nilseq_past_the_64_bit_bound_names_the_bound(tmp_path, capsys):
    # the bound was reported as an orbit that is not finite in floats
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"factors": [{"kind": "circle", "alpha": 0.3}]}))
    code, out, err = run_cli(["nilseq", "--system", str(system), "--N", str(2**63 + 1)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ParseError",
                               "message": f"bad group 'Z/{2**63 + 1}': group order must fit in 64 bits"}


@pytest.mark.parametrize("argv, message", [
    (["scan", "--group", "Z/2xZ/3", "--expr", "1"], "scan requires a cyclic group"),
    (["u3-oracle", "--group", "Z/3xZ/9", "--expr", "1", "--H", "whole"],
     "coset oracle supports F_p subspaces and cyclic subgroups"),
    (["inverse-f5", "--group", "F2^3", "--expr", "1", "--eta", "0.5"],
     "the linear fit halves 2M, so the pipeline needs an odd p, not F_2^n"),
    (["inverse-f5", "--group", "F2^4", "--expr", "1 - 2*ind{0,3,5,6}", "--eta", "0.5"],
     "the linear fit halves 2M, so the pipeline needs an odd p, not F_2^n"),
])
def test_unsupported_group_is_a_spec_mismatch(argv, message, capsys):
    # neither input exceeds a budget: the group is outside the supported family
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert json.loads(err) == {"error": "SpecMismatch", "message": message}


@pytest.mark.parametrize("command", ["aps", "bogolyubov"])
@pytest.mark.parametrize("members", ["0,1,x", "0,1,13", "0,-1", "0,1.5"])
def test_bad_set_member_exit_code(command, members, capsys):
    # set members are element indices 0..|G|-1
    code, _, err = run_cli([command, "--group", "Z/13", "--set", members], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("command", ["increment", "driver"])
@pytest.mark.parametrize("content", ['[0, 1, "x"]', "[0, 1, 99999]", "[0, -1]", "[0, true]",
                                     "[0, 1.0]", '{"set": [0]}', "[0, 1"])
def test_bad_set_file_exit_code(command, content, tmp_path, capsys):
    path = tmp_path / "A.json"
    path.write_text(content)
    code, _, err = run_cli([command, "--n", "2", "--set", str(path)], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


# Every subcommand that reads a file, with {path} where the file goes.
_FILE_ARGVS = [
    ["norm", "--input", "{path}", "--d", "2"],
    ["scan", "--input", "{path}"],
    ["inverse-f5", "--input", "{path}", "--eta", "0.5"],
    ["u3-oracle", "--input", "{path}"],
    ["increment", "--n", "2", "--set", "{path}"],
    ["driver", "--n", "2", "--set", "{path}"],
    ["gvn", "--group", "Z/5", "--inputs", "{path}"],
    ["quad-classify", "--group", "Z/5", "--input", "{path}"],
    ["bracket", "--bq", "{path}", "--n", "1"],
    ["nilseq", "--system", "{path}", "--N", "5"],
]


@pytest.mark.parametrize("argv", _FILE_ARGVS, ids=lambda a: a[0])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-json", "not-utf8"])
def test_unreadable_input_file_exit_code(argv, kind, tmp_path, capsys):
    path = tmp_path / "in.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-json":
        path.write_text("{not json")
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe[0]")
    code, out, err = run_cli([a.replace("{path}", str(path)) for a in argv], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


# Files that are valid JSON of the wrong shape, per subcommand.
_WRONG_SHAPE = [
    (["quad-classify", "--group", "Z/7", "--input", "{path}"],
     ['{"a": 1}', "[1, 2]", '"1/7"', '["1/0", 0, 0, 0, 0, 0, 0]', '["x", 0, 0, 0, 0, 0, 0]',
      "[true, 0, 0, 0, 0, 0, 0]", "[NaN, 0, 0, 0, 0, 0, 0]", "[1e999, 0, 0, 0, 0, 0, 0]",
      "[[1], 0, 0, 0, 0, 0, 0]"]),
    (["bracket", "--bq", "{path}", "--n", "1"],
     ['{"a": 1}', "[1, 2]", '{"N": "x", "S": [1], "quad": [[1]], "lin": [0]}',
      '{"N": 0, "S": [1], "quad": [[1]], "lin": [0]}', '{"N": 5, "S": [1], "quad": [1], "lin": [0]}',
      '{"N": 5, "S": [1], "quad": [[1]], "lin": [null]}', '{"N": 5, "S": [1], "quad": [[1]], "lin": [1e999]}',
      '{"N": 5, "S": [1], "quad": [[NaN]], "lin": [0]}']),
    (["nilseq", "--N", "5", "--system", "{path}"],
     ['{"a": 1}', "[1, 2]", '{"factors": 3}', '{"factors": [3]}', '{"factors": [{"kind": "torus"}]}',
      '{"factors": [{"kind": "circle", "alpha": "x"}]}', '{"factors": [{"kind": "circle", "alpha": NaN}]}',
      '{"factors": [{"kind": "circle", "alpha": -1e999}]}', '{"factors": [{"kind": "skew", "m": "q"}]}',
      # m is a JSON integer; int(m) read 0.5 as 0 and true as 1, and ran that flow with exit 0
      '{"factors": [{"kind": "skew", "m": 0.5}]}', '{"factors": [{"kind": "skew", "m": true}]}',
      '{"factors": [{"kind": "skew", "m": 2.0}]}']),
]


@pytest.mark.parametrize("argv,content", [(a, c) for a, cs in _WRONG_SHAPE for c in cs],
                         ids=lambda v: v[0] if isinstance(v, list) else v)
def test_wrong_shape_input_file_exit_code(argv, content, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(content)
    code, out, err = run_cli([a.replace("{path}", str(path)) for a in argv], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["aps", "--set", "0,1"],
    ["bohr", "--S", "1", "--rho", "0.1"],
    ["bogolyubov", "--set", "0,1"],
    ["progression", "--S", "1", "--rho", "0.1"],
    ["quad-classify", "--input", "phi.json"],
], ids=lambda a: a[0])
def test_missing_group_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
@pytest.mark.parametrize("unchecked", [False, True])
def test_nonfinite_function_values_exit_code(bad, unchecked, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"group": "Z/3", "values": [[1, 0], [%s, 0], [0, 1]]}' % bad)
    argv = ["norm", "--input", str(path), "--d", "2"] + (["--unchecked"] if unchecked else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("obj", [
    {"group": "Z/5", "values": [[1, 0], [0, 1], [1, 1]]},  # wrong length
    {"group": "Z/3", "values": [1, 0, 1]},  # bare numbers, not [re, im] pairs
    {"group": "Z/2", "values": [[1, 0, 0], [0, 1, 0]]},
    {"group": "Z/2", "values": [["a", 0], [0, 1]]},
    {"group": "Z/2"},
    {"values": [[1, 0]]},
    [[1, 0]],
])
def test_bad_function_file_exit_code(obj, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["norm", "--input", str(path), "--d", "2"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("group", ["Z/0", "F5^40"])
def test_bad_group_order_exit_code(group, capsys):
    # a zero factor, and an order beyond int64, are parse errors, not tracebacks
    code, _, err = run_cli(["norm", "--group", group, "--expr", "1", "--d", "2"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ParseError"


@st.composite
def _norm_inputs(draw):
    """The text of a --input file on a group of order at most 24: valid
    values in the unit disk (random, constant or a quadratic phase), one
    NaN, one value too few or text that is not JSON; None for no file."""
    orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(lambda o: prod(o) <= 24))
    group = "x".join(f"Z/{n}" for n in orders)
    N = prod(orders)
    kind = draw(st.sampled_from(["random", "constant", "phase", "nan", "wrong-length", "not-json", "missing"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        vals = np.ones(N, dtype=complex)
    elif kind == "phase":
        vals = np.exp(2j * np.pi * np.arange(N) ** 2 / N)
    else:
        vals = rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
    pairs = [[v.real, v.imag] for v in vals]
    if kind == "nan":
        pairs[draw(st.integers(0, N - 1))][0] = float("nan")
    if kind == "wrong-length":
        pairs = pairs[:-1]
    if kind == "missing":
        return None
    if kind == "not-json":
        return "{" + json.dumps(pairs)
    return json.dumps({"group": group, "values": pairs})


def run_contract(argv, text, extra=()):
    """Run `u3kit <argv> FILE <extra>`, where argv ends in the flag that
    takes the file, FILE holds `text` (no file for None) and "{path}" in
    extra also stands for FILE.  Checks the CLI contract, exit 0 (a JSON
    result on stdout), 2 (usage) or 3 (a JSON error on stderr, nothing on
    stdout) and never a traceback, and returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        if text is not None:
            with open(path, "w") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([*argv, path, *(a.replace("{path}", path) for a in extra)])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        assert "result" in json.loads(out.getvalue())
    if code == 3:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(text=_norm_inputs(), d=st.sampled_from(range(-1, 6)),
       method=st.sampled_from([None, "auto", "direct", "recursive", "fourier"]), unchecked=st.booleans())
def test_norm_cli_contract(text, d, method, unchecked):
    # every run ends in exit 0 (a value in [0, 1] on stdout), 2 (usage) or 3
    # (a JSON error on stderr), never in an uncaught exception
    extra = ["--d", str(d)] + (["--method", method] if method else []) + (["--unchecked"] if unchecked else [])
    code, out, _ = run_contract(["norm", "--input"], text, extra)
    # --method takes direct or recursive (the default); any other is a usage error
    assert (code == 2) == (method in ("auto", "fourier"))
    if code == 0:
        result = result_of(out)
        assert 0.0 <= result["value"] <= 1.0 and result["d"] == d


def _phase_at(result: dict, orders, x_coords):
    """The classified phase M x.x + xi.x + c at one point, exactly."""
    B = [[Fraction(v) for v in row] for row in result["bilinear"]]
    val = Fraction(result["c"])
    for i, a in enumerate(x_coords):
        val += Fraction(result["xi"][i] * a, orders[i])
        for j, b in enumerate(x_coords):
            val += B[i][j] * a * b
    return val % 1


@st.composite
def _phase_table_inputs(draw):
    """(group, file text, table or None) for quad-classify: a quadratic
    phase table on a group of order at most 45 (odd or even) with a
    constant whose denominator is small or past 2^45 or 2^63, the same with
    one point moved or a cubic term, a float table, or a malformed one
    (wrong length, bad fraction, dict, not JSON, no file)."""

    orders = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3).filter(lambda o: prod(o) <= 45))
    group = "x".join(f"Z/{n}" for n in orders)
    N = prod(orders)
    coords = list(np.ndindex(*orders))
    m = [draw(st.integers(0, n - 1)) for n in orders]
    xi = [draw(st.integers(0, n - 1)) for n in orders]
    c = Fraction(draw(st.integers(0, 6)), draw(st.sampled_from([7, 2**45 + 1, 2**70 + 1])))
    table = [(sum(Fraction(m[i] * x[i] * x[i] + xi[i] * x[i], orders[i]) for i in range(len(orders))) + c) % 1
             for x in coords]
    kind = draw(st.sampled_from(["quadratic", "quadratic", "moved", "cubic", "float", "wrong-length",
                                 "bad-fraction", "dict", "not-json", "missing"]))
    if kind == "moved":
        x = draw(st.integers(0, N - 1))
        table[x] = (table[x] + Fraction(1, 3)) % 1
    elif kind == "cubic":
        table = [(v + Fraction(x[0] ** 3, orders[0])) % 1 for v, x in zip(table, coords)]
    if kind == "missing":
        return group, None, None
    if kind == "not-json":
        return group, "[1, 2", None
    if kind == "dict":
        return group, json.dumps({"a": 1}), None
    if kind == "float":  # read as the nearest fraction of denominator <= 10^9
        floats = [float(v) for v in table]
        return group, json.dumps(floats), [Fraction(v).limit_denominator(10**9) % 1 for v in floats]
    raw = [f"{v.numerator}/{v.denominator}" for v in table]
    if kind == "wrong-length":
        raw = raw[:-1]
    if kind == "bad-fraction":
        raw[draw(st.integers(0, N - 1))] = draw(st.sampled_from(["1/0", "x/3", "1/2/3", ""]))
    return group, json.dumps(raw), table if kind in ("quadratic", "moved", "cubic") else None


@settings(max_examples=150)
@given(_phase_table_inputs())
def test_quad_classify_cli_contract(case):
    # exit 0 only with a classification that reproduces the table exactly
    group, text, table = case
    code, out, _ = run_contract(["quad-classify", "--group", group, "--input"], text)
    if code == 0:
        orders = [int(n) for n in group.replace("Z/", "").split("x")]
        result = result_of(out)
        assert table is not None
        assert all(_phase_at(result, orders, x) == v for x, v in zip(np.ndindex(*orders), table))


@st.composite
def _bracket_inputs(draw):
    """The text of a --bq file: a bracket quadratic with Fraction-string,
    int or float coefficients, or one with a bad N, NaN, unequal lengths,
    an asymmetric matrix, a missing key or text that is not JSON."""
    N = draw(st.integers(1, 60))
    s = draw(st.integers(0, 2))
    coef = st.one_of(st.integers(-5, 5), st.floats(-5, 5, allow_nan=False),
                     st.fractions(-5, 5, max_denominator=20).map(lambda f: f"{f.numerator}/{f.denominator}"))
    quad = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            quad[i][j] = quad[j][i] = draw(coef)
    obj = {"N": N, "S": [draw(st.integers(-N, 2 * N)) for _ in range(s)], "quad": quad,
           "lin": [draw(coef) for _ in range(s)], "const": draw(st.one_of(coef, st.just(0.0)))}
    kind = draw(st.sampled_from(["valid", "valid", "valid", "N", "nan", "lengths", "asymmetric", "missing-key",
                                 "bad-fraction", "not-json"]))
    if kind == "N":
        obj["N"] = draw(st.sampled_from([0, -3, "x", 2.5]))
    elif kind == "nan":
        obj["const"] = float("nan")
    elif kind == "lengths":
        obj["lin"] = obj["lin"] + [1]
    elif kind == "asymmetric" and s == 2:
        obj["quad"] = [[1, 2], [3, 4]]
    elif kind == "missing-key":
        del obj[draw(st.sampled_from(["N", "S", "quad", "lin"]))]
    elif kind == "bad-fraction":
        obj["const"] = draw(st.sampled_from(["1/0", "a/b", "1/2/3"]))
    elif kind == "not-json":
        return "{" + json.dumps(obj)
    return json.dumps(obj)


@settings(max_examples=150)
@given(text=st.one_of(_bracket_inputs(), st.none()), n=st.one_of(st.none(), st.integers(-10**6, 10**6)),
       bad_n=st.booleans())
def test_bracket_cli_contract(text, n, bad_n):
    extra = [] if n is None else ["--n", "1.5" if bad_n else str(n)]
    code, out, _ = run_contract(["bracket", "--bq"], text, extra)
    if code == 0:
        result = result_of(out)
        assert n is None or 0.0 <= result["value"] < 1.0
    elif code == 2:
        assert bad_n and n is not None


def test_bracket_cli_tiny_negative_constant():
    # t - floor(t) rounds up to 1.0 for a tiny negative float; the value stays in [0, 1)
    text = json.dumps({"N": 7, "S": [], "quad": [], "lin": [], "const": -3.1e-100})
    code, out, _ = run_contract(["bracket", "--bq"], text, ["--n", "0"])
    assert code == 0
    assert result_of(out)["value"] == 0.0


# Group specs for the subcommands on the index layer: small products of
# cyclic factors, F_p^n, and malformed or empty specs.
_contract_groups = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda o: prod(o) <= 300).map(
        lambda o: "x".join(f"Z/{n}" for n in o)),
    st.builds(lambda p, n: f"F{p}^{n}", st.sampled_from([2, 3, 5]), st.integers(0, 3)),
    st.sampled_from(["Z/0", "Z/-3", "Q", "F5^x", "", "Z/5xx"]),
)
_int_entries = st.one_of(st.integers(-5, 320).map(str), st.sampled_from(["x", "", " ", "1.5", "9" * 30]))


@settings(max_examples=150)
@given(group=_contract_groups, members=st.lists(_int_entries, max_size=12),
       k=st.one_of(st.integers(-2, 8).map(str), st.just("x")))
def test_aps_cli_contract(group, members, k):
    # aps takes no file: the helper's path goes to --out
    code, out, _ = run_contract(["aps", "--group", group, "--set", ",".join(members), "--k", k, "--out"], None)
    if code == 0:
        result = result_of(out)
        assert result["k"] == int(k) and 0 <= result["proper"] <= result["total"]
    elif code == 2:
        assert not k.lstrip("-").isdigit() or int(k) < 1


_radii = st.one_of(st.fractions(0, 1, max_denominator=12).map(lambda f: str(float(f))),
                   st.sampled_from(["1", "0", "-0.5", "1.5", "nan", "inf", "x", "1/3", "1e-7"]))


@settings(max_examples=150)
@given(group=_contract_groups, S=st.one_of(
           st.lists(_int_entries, max_size=3).map(",".join),
           st.lists(st.lists(st.integers(-6, 12).map(str), min_size=1, max_size=3).map(",".join),
                    min_size=1, max_size=3).map(";".join)),
       rho=_radii, find_regular=st.one_of(st.none(), _radii), progression=st.booleans())
def test_bohr_cli_contract(group, S, rho, find_regular, progression):
    # bohr takes no file: the helper's path goes to --out
    extra = (["--find-regular", find_regular] if find_regular is not None else []) + (
        ["--progression"] if progression else [])
    code, out, _ = run_contract(["bohr", "--group", group, "--S", S, "--rho", rho, *extra, "--out"], None)
    if code == 0:
        result = result_of(out)
        assert 1 <= result["size"] <= parse_group(group).order and result["d"] >= 1


@st.composite
def _f5_function_inputs(draw):
    """The text of a --input file for inverse-f5: a unimodular function on
    F5^1..F5^3 (random, or a quadratic phase with noise), one on a group that
    is not F5^n, a value of modulus above 1, a NaN, one value too few or text
    that is not JSON; None for no file."""
    kind = draw(st.sampled_from(["random", "phase", "phase", "other-group", "large", "nan", "wrong-length",
                                 "not-json", "missing"]))
    group = draw(st.sampled_from(["Z/7", "Z/4xZ/4", "F3^2", "Z/25"])) if kind == "other-group" else (
        f"F5^{draw(st.integers(1, 3))}")
    spec = parse_group(group)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = spec.decode(np.arange(spec.order))
    if kind == "phase":
        q = (x[:, 0] ** 2 + 2 * x[:, 0] * x[:, -1] + 3 * x[:, -1]) % 5
        vals = np.exp(2j * np.pi * (q / 5 + draw(st.sampled_from([0, 0.05, 0.3])) * rng.uniform(size=spec.order)))
    else:
        vals = np.exp(2j * np.pi * rng.uniform(size=spec.order))
    pairs = [[v.real, v.imag] for v in vals]
    if kind == "large":
        pairs[0] = [1.5, 0.0]
    if kind == "nan":
        pairs[-1][1] = float("nan")
    if kind == "wrong-length":
        pairs = pairs[:-1]
    if kind == "missing":
        return None
    if kind == "not-json":
        return json.dumps(pairs)[:-1]
    return json.dumps({"group": group, "values": pairs})


@settings(max_examples=100)
@given(text=_f5_function_inputs(), eta=st.sampled_from(["0.01", "0.3", "0.5", "1", "0", "-1", "2", "nan", "x"]),
       seed=st.one_of(st.none(), st.integers(-5, 2**40).map(str), st.just("x")))
def test_inverse_f5_cli_contract(text, eta, seed):
    extra = ["--eta", eta] + (["--seed", seed] if seed is not None else [])
    code, out, _ = run_contract(["inverse-f5", "--input"], text, extra)
    if code == 0:
        result = result_of(out)
        # the pipeline takes unbounded functions too; its bias is at most max |f|
        bound = max(1.0, *(abs(complex(*v)) for v in json.loads(text)["values"]))
        assert result["eta"] == float(eta) and 0.0 <= result["average_bias"] <= bound + 1e-9
    elif code == 2:
        assert (seed is not None and not seed.isdigit()) or not 0 < float(eta if eta != "x" else "nan") <= 1


@st.composite
def _driver_inputs(draw):
    """(--n, text of the --set file): a subset of F5^n for n = 1..3 (random,
    empty, all of it, or an arithmetic progression), a member out of range,
    a bool or a float member, an object in place of a list, text that is not
    JSON, or no file; n may also be 0, negative or past the set's group."""
    n = draw(st.integers(1, 3))
    N = 5**n
    kind = draw(st.sampled_from(["random", "random", "empty", "all", "line", "out-of-range", "bool", "float",
                                 "object", "not-json", "missing"]))
    if kind == "missing":
        text = None
    elif kind == "not-json":
        text = "[1, 2"
    elif kind == "object":
        text = json.dumps({"set": [1, 2]})
    else:
        members = {"random": draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N)), "empty": [],
                   "all": list(range(N)), "line": [(draw(st.integers(0, N - 1)) + j * 7) % N for j in range(5)]
                   }.get(kind, [0, 1])
        members = list(members)
        if kind == "out-of-range":
            members.append(draw(st.sampled_from([-1, N, 2**70])))
        elif kind == "bool":
            members.append(True)
        elif kind == "float":
            members.append(1.0)
        text = json.dumps(members)
    return str(draw(st.one_of(st.just(n), st.integers(-1, 4)))), text


@settings(max_examples=100)
@given(case=_driver_inputs(), seed=st.one_of(st.none(), st.integers(-5, 2**40).map(str)))
def test_driver_cli_contract(case, seed):
    n, text = case
    extra = ["--n", n] + (["--seed", seed] if seed is not None else [])
    code, out, _ = run_contract(["driver", "--set"], text, extra)
    if code == 0:
        trace = result_of(out)["trace"]
        assert trace and all(0.0 <= step["density"] <= 1.0 for step in trace)
    elif code == 2:
        assert seed is not None and not seed.isdigit()


@st.composite
def _function_inputs(draw, groups):
    """The text of a --input file on one of `groups`: most often a random
    function in the unit disk, else a quadratic phase, one with a value of
    modulus 2, a NaN, one value too few or text that is not JSON; None for
    no file."""
    spec = parse_group(draw(st.sampled_from(groups)))
    kind = draw(st.sampled_from(["random"] * 3 + ["phase", "large", "nan", "wrong-length", "not-json", "missing"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "phase":
        x = spec.decode(np.arange(spec.order))
        vals = np.exp(2j * np.pi * (x[:, 0] ** 2 + x[:, -1]) / spec.orders[0])
    else:
        vals = rng.uniform(0, 1, spec.order) * np.exp(2j * np.pi * rng.uniform(0, 1, spec.order))
    pairs = [[v.real, v.imag] for v in vals]
    if kind == "large":
        pairs[0] = [2.0, 0.0]
    if kind == "nan":
        pairs[-1][0] = float("nan")
    if kind == "wrong-length":
        pairs = pairs[:-1]
    if kind == "missing":
        return None
    if kind == "not-json":
        return json.dumps(pairs)[:-1]
    return json.dumps({"group": str(spec), "values": pairs})


# Mostly valid values first, then the malformed ones, for sampled_from.
_seeds = st.sampled_from([None, None, None, "0", "7", "123456789", "-3", "x"])
_small_groups = st.sampled_from(["Z/7", "Z/13", "Z/31", "Z/12", "F5^2", "F3^2", "Z/4xZ/6", "Z/9xZ/3", "Z/1",
                                 "F5^0", "Z/0", "Q"])
_set_entries = st.sampled_from([str(i) for i in range(13)] + ["x", "-1", "999", ""])
_some_radii = st.sampled_from(["0.2", "0.1", "0.24", "0.5", "1", "0", "-0.5", "nan", "x"])


@settings(max_examples=80)
@given(text=_function_inputs(["Z/7", "Z/9", "Z/25", "Z/15", "F5^2", "F3^2", "Z/9xZ/3", "Z/4", "Z/1"]),
       kind=st.sampled_from(["coset", "bracket"]), y=st.sampled_from(["0", "0", "1", "5", "-1", "99"]),
       H=st.sampled_from(["whole", "whole", "div:3", "div:1", "span:1,2", "span:1,0;0,1", "span:0,0", "div:2", "x"]),
       S=st.sampled_from(["1", "1", "2", "1,2", "1,0", "1,0;0,1", "", "0", "x"]),
       grid=st.sampled_from(["1", "2", "3", "0", "-1", "x"]), rho=st.sampled_from([None, None, "0.3", "1", "0", "x"]))
def test_u3_oracle_cli_contract(text, kind, y, H, S, grid, rho):
    extra = ["--kind", kind, "--y", y, "--H", H, "--S", S, "--grid", grid] + (["--rho", rho] if rho else [])
    code, out, _ = run_contract(["u3-oracle", "--input"], text, extra)
    if code == 2:
        assert "x" in (y, grid, rho) or rho == "0"


@settings(max_examples=60)
@given(text=_function_inputs(["Z/5", "Z/7", "Z/11", "Z/9", "Z/6", "Z/1"]),
       copies=st.sampled_from([1, 1, 3, 4, 5, 2, 6]), k=st.sampled_from(["3", "4", "5", "3", "0", "6", "x"]),
       unchecked=st.booleans())
def test_gvn_cli_contract(text, copies, k, unchecked):
    # the file given 1-6 times: one input is used --k times, several must number 3-5
    extra = ["{path}"] * (copies - 1) + ["--k", k] + (["--unchecked"] if unchecked else [])
    code, out, _ = run_contract(["gvn", "--inputs"], text, extra)
    if code == 2:
        assert k not in ("3", "4", "5")


@settings(max_examples=60)
@given(group=_small_groups, members=st.lists(_set_entries, max_size=12))
def test_bogolyubov_cli_contract(group, members):
    # bogolyubov takes no file: the helper's path goes to --out
    run_contract(["bogolyubov", "--group", group, "--set", ",".join(members), "--out"], None)


@settings(max_examples=80)
@given(group=_small_groups, S=st.one_of(
           st.lists(_set_entries, min_size=1, max_size=3).map(",".join),
           st.lists(st.lists(st.integers(-6, 12).map(str), min_size=1, max_size=3).map(",".join),
                    min_size=1, max_size=3).map(";".join)),
       rho=_some_radii)
def test_progression_cli_contract(group, S, rho):
    # progression takes no file: the helper's path goes to --out
    code, _, _ = run_contract(["progression", "--group", group, "--S", S, "--rho", rho, "--out"], None)
    if code == 2:
        assert rho in ("0", "-0.5", "nan", "x")


@pytest.mark.parametrize("argv", [
    ["progression", "--group", "Z/7", "--rho", "0.2"],
    ["bohr", "--group", "Z/7", "--rho", "0.2"],
    ["u3-oracle", "--group", "Z/7", "--expr", "1", "--kind", "bracket", "--grid", "1"],
])
def test_negative_frequency_list_after_S(argv, capsys):
    # `--S -1,0` exited 2 ("expected one argument"): argparse took the list
    # for an option; it now reads as `--S=-1,0` does, and so does `-1;2`
    for S in ("-1,0", "-3"):
        code, out, _ = run_cli([*argv, "--S", S], capsys)
        assert code == 0
        code_eq, out_eq, _ = run_cli([*argv, f"--S={S}"], capsys)
        assert code_eq == 0 and result_of(out) == result_of(out_eq)


_nil_numbers = st.sampled_from([0.0, 0.3, -0.25, 0.7071, 12.5, -3, 2, 1e300, -1e300, "0.5", None, True])


@st.composite
def _nil_system_inputs(draw):
    """The text of a --system file: 0-2 factors of each kind with small,
    huge or mistyped parameters, or a malformed object; None for no file."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["not-json", "list", "missing"]))
    if kind == "missing":
        return None
    if kind == "not-json":
        return "{"
    if kind == "list":
        return "[]"
    factors = []
    for _ in range(draw(st.integers(0, 2))):
        f = {"kind": draw(st.sampled_from(["circle", "skew", "heis", "heis", "torus"]))}
        for key in draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "m"]), unique=True)):
            f[key] = draw(_nil_numbers)
        factors.append(f)
    return json.dumps({"factors": factors})


@settings(max_examples=80)
@given(text=_nil_system_inputs(), N=st.sampled_from(["1", "5", "7", "31", "41", "4", "0", "-3", "x"]),
       F=st.sampled_from(["builtin:chi_e", "builtin:one", "builtin:x", "e(x)"]), out=st.booleans())
def test_nilseq_cli_contract(text, N, F, out):
    extra = ["--N", N, "--F", F] + (["--out", "{path}.out"] if out else [])
    code, _, _ = run_contract(["nilseq", "--system"], text, extra)
    if code == 2:
        assert N in ("0", "-3", "x")


@settings(max_examples=40)
@given(k=st.sampled_from(["3", "4", "3", "4", "5", "x"]), trials=st.sampled_from(["1", "7", "20", "7", "0", "-1", "x"]),
       seed=_seeds)
def test_hp_check_cli_contract(k, trials, seed):
    # hp-check takes no file: the helper's path goes to --out
    extra = ["--seed", seed] if seed is not None else []
    code, out, _ = run_contract(["hp-check", "--k", k, "--trials", trials, *extra, "--out"], None)
    if code == 0:
        assert result_of(out)["pass"]
    else:
        assert code == 2 and (k in ("5", "x") or trials in ("0", "-1", "x") or seed in ("-3", "x"))


@settings(max_examples=40)
@given(N=st.sampled_from([401, 409, 421, 443, 463, 487, 499, 503, 509, 400, 403, 500, 7, 2, 1, 0, -3]))
def test_fw_cli_contract(N):
    # fw takes no file: the helper's path goes to --out (the generated function)
    code, out, _ = run_contract(["fw", "--N", str(N), "--out"], None)
    if code == 0:
        assert result_of(out)["support"] > 0


@settings(max_examples=60)
@given(text=_function_inputs(["Z/7", "Z/31", "Z/60", "Z/401", "Z/1", "Z/5xZ/5"]),
       mode=st.sampled_from(["exhaustive", "exhaustive", "sampled", "both"]), seed=_seeds,
       csv=st.sampled_from([None, "{path}.csv", "{path}/no-such-dir/scan.csv"]))
def test_scan_cli_contract(text, mode, seed, csv):
    extra = ["--mode", mode] + (["--seed", seed] if seed is not None else []) + (["--csv", csv] if csv else [])
    code, out, _ = run_contract(["scan", "--input"], text, extra)
    if code == 0:
        assert 0.0 <= result_of(out)["value"] <= 2.0  # at most max |f|


@st.composite
def _increment_sets(draw):
    """(--n, text of the --set file): most often a random subset of F5^n of
    density 0.1-0.6 for n = 1..3, else the malformed sets and wrong n of
    `_driver_inputs`."""
    if draw(st.sampled_from([False, False, True])):
        return draw(_driver_inputs())
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = np.flatnonzero(rng.uniform(size=5**n) < draw(st.sampled_from([0.1, 0.3, 0.6])))
    return str(n), json.dumps(members.tolist())


@settings(max_examples=30)
@given(case=_increment_sets(), eta=st.sampled_from([None, None, "0.5", "0.01", "1", "0", "x"]),
       force=st.sampled_from([True, True, False]), seed=_seeds)
def test_increment_cli_contract(case, eta, force, seed):
    n, text = case
    extra = (["--n", n] + (["--eta", eta] if eta is not None else []) + (["--force"] if force else [])
             + (["--seed", seed] if seed is not None else []))
    code, out, _ = run_contract(["increment", "--set"], text, extra)
    if code == 0:
        result = result_of(out)
        assert 0.0 <= result["old_density"] <= 1.0 and 0.0 <= result["new_density"] <= 1.0


def test_unwritable_output_path_is_a_domain_error(tmp_path):
    # a path that cannot be written ended in a FileNotFoundError traceback after
    # the result was printed; now nothing is printed and the exit code is 3
    bad = str(tmp_path / "no-such-dir" / "out.json")
    for argv in (["aps", "--group", "Z/13", "--set", "0,1", "--out", bad], ["fw", "--N", "401", "--out", bad],
                 ["hp-check", "--trials", "2", "--out", bad]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code == 3 and stdout.getvalue() == ""
        assert json.loads(stderr.getvalue())["error"] == "ParseError"


def test_gvn_input_count_and_k_are_checked(tmp_path, capsys):
    # --k 0 and two inputs ended in IndexError / ValueError tracebacks
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"group": "Z/5", "values": [[1.0, 0.0]] * 5}))
    with pytest.raises(SystemExit) as exc:
        main(["gvn", "--inputs", str(path), "--k", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run_cli(["gvn", "--inputs", str(path), str(path)], capsys)
    assert code == 3 and json.loads(err)["error"] == "ParseError"
    # with several inputs --k was ignored; a --k other than their count is refused
    code, out, err = run_cli(["gvn", "--inputs", *[str(path)] * 4, "--k", "3"], capsys)
    assert code == 3 and out == "" and json.loads(err)["error"] == "ParseError"
    code, out, _ = run_cli(["gvn", "--inputs", *[str(path)] * 4, "--k", "4"], capsys)
    assert code == 0 and result_of(out)["k"] == 4


def test_nilseq_bad_length_and_overflowing_orbit(tmp_path, capsys):
    # --N -3 ended in a ValueError traceback from GroupSpec, and parameters
    # near 1e300 in a NaN lift (floor(t + 1/2) of inf - inf)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"factors": [{"kind": "heis", "alpha": 1e300, "beta": 1e300, "gamma": 1e300}]}))
    with pytest.raises(SystemExit) as exc:
        main(["nilseq", "--system", str(path), "--N", "-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(["nilseq", "--system", str(path), "--N", "5"], capsys)
    assert code == 3 and out == "" and json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("group", ["Z/1009", "Z/9xZ/15xZ/7"])
def test_quad_classify_large_groups(group, tmp_path, capsys):
    # refused by the old N^3 locality budget; the generator test is rank^3 N
    spec = parse_group(group)
    if spec.rank == 1:
        Q = QuadraticPhase.cyclic(spec, 17, 5, Fraction(3, 1009))
    else:
        B = ((Fraction(2, 9), Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(4, 15), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(3, 7)))
        Q = QuadraticPhase(spec, B, (1, 2, 3), Fraction(1, 5))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps([f"{v.numerator}/{v.denominator}" for v in Q.values()]))
    code, out, _ = run_cli(["quad-classify", "--group", group, "--input", str(path)], capsys)
    assert code == 0
    assert result_of(out) == Q.to_json() | {"group": group}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--group", "Z/5"])  # missing --d
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_hp_check_rejects_nonpositive_trials(trials):
    with pytest.raises(SystemExit) as exc:
        main(["hp-check", "--trials", trials])
    assert exc.value.code == 2


RADIUS_COMMANDS = {
    "bohr": ["bohr", "--group", "Z/101", "--S", "1", "--rho"],
    "progression": ["progression", "--group", "Z/101", "--S", "1", "--rho"],
    "u3-oracle": ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--S", "1",
                  "--grid", "2", "--rho"],
    "find-regular": ["bohr", "--group", "Z/101", "--S", "1", "--rho", "0.2", "--find-regular"],
}


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(RADIUS_COMMANDS))
def test_out_of_range_radius_is_usage_error(command, value):
    # --rho must lie in (0, 1] and --find-regular in (0, 1/2)
    with pytest.raises(SystemExit) as exc:
        main(RADIUS_COMMANDS[command] + [value])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,value", [("bohr", "1"), ("u3-oracle", "1"), ("progression", "0.2"),
                                           ("find-regular", "0.49")])
def test_radius_at_the_edge_is_accepted(command, value, capsys):
    code, _, _ = run_cli(RADIUS_COMMANDS[command] + [value], capsys)
    assert code == 0


ETA_COMMANDS = {
    "inverse-f5": ["inverse-f5", "--group", "F5^2", "--expr", "1", "--eta"],
    "increment": ["increment", "--n", "2", "--set", "A.json", "--eta"],
}


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("command", sorted(ETA_COMMANDS))
def test_out_of_range_eta_is_usage_error(command, value):
    # --eta must be a finite number in (0, 1]
    with pytest.raises(SystemExit) as exc:
        main(ETA_COMMANDS[command] + [value])
    assert exc.value.code == 2


def test_eta_at_the_edge_is_accepted(tmp_path, capsys):
    code, out, _ = run_cli(ETA_COMMANDS["inverse-f5"] + ["1"], capsys)
    assert code == 0 and result_of(out)["eta"] == 1.0
    # increment takes eta = 1 as well; on this set the pipeline then finds
    # no shift graph, a domain outcome (exit 3), not a usage error
    path = tmp_path / "A.json"
    path.write_text("[0, 1, 2, 6, 12]")
    argv = [str(path) if a == "A.json" else a for a in ETA_COMMANDS["increment"]]
    code, _, err = run_cli(argv + ["1"], capsys)
    assert code == 3 and json.loads(err)["error"] == "PipelineEmpty"


# Integer lists that are empty, hold a non-integer or have the wrong shape.
_BAD_INTEGER_LISTS = [
    ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--grid", "2"],  # --S ""
    ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--grid", "2", "--S", "1,x"],
    ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--grid", "2", "--S", ","],
    ["bohr", "--group", "Z/101", "--S", "", "--rho", "0.2"],
    ["bohr", "--group", "Z/101", "--S", "1,x", "--rho", "0.2"],
    ["bohr", "--group", "F5^2", "--S", "1", "--rho", "0.2"],
    ["bohr", "--group", "F5^2", "--S", "1,2;3", "--rho", "0.2"],
    ["progression", "--group", "Z/101", "--S", "", "--rho", "0.2"],
    ["progression", "--group", "Z/101", "--S", "1,x", "--rho", "0.2"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:x"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:4"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:0"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:3,3"],
    ["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:"],
    ["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:1,x"],
    ["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:1"],
    ["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:1,2;"],
]


@pytest.mark.parametrize("argv", _BAD_INTEGER_LISTS, ids=lambda a: " ".join(a[a.index("--group") + 1:]))
def test_bad_integer_list_exit_code(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--grid", "2", "--S", "1, 5"],
    ["bohr", "--group", "F5^2", "--S", "1,2;0,1", "--rho", "0.2"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "div:3"],
    ["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:1,2"],
], ids=lambda a: " ".join(a[a.index("--group") + 1:]))
def test_good_integer_list_is_accepted(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 0


# A grid below 1 is an invalid argument, not a cost over a limit.
@pytest.mark.parametrize("grid", ["0", "-1"])
def test_bracket_grid_below_one_is_too_small(grid, capsys):
    argv = ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--S", "1", "--grid", grid]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "TooSmall"


def test_bracket_frequency_cap_is_too_many_frequencies(capsys):
    # the same cap as the nil factorization's, under the same error name
    argv = ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--S", "1,2,3,4,5", "--grid", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "TooManyFrequencies", "message": "at most 4 frequencies supported"}


# --H span: is the F_p-span of vectors, so the group must be F_p^k with p prime.
@pytest.mark.parametrize("argv", [
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "span:3"],
    ["u3-oracle", "--group", "Z/9xZ/9", "--expr", "1", "--H", "span:3,0"],
    ["u3-oracle", "--group", "Z/9", "--expr", "1", "--H", "span:1"],
    ["u3-oracle", "--group", "Z/15", "--expr", "1", "--H", "span:1"],
], ids=lambda a: " ".join(a[a.index("--group") + 1:]))
def test_span_outside_a_prime_field_exit_code(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("y", ["25", "999", "-1"])
def test_coset_y_outside_the_group_exit_code(y, capsys):
    # --y is an element index 0..|G|-1, not taken modulo |G|
    code, out, err = run_cli(["u3-oracle", "--group", "F5^2", "--expr", "1", "--y", y], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_coset_y_last_element_is_accepted(capsys):
    code, out, _ = run_cli(["u3-oracle", "--group", "F5^2", "--expr", "1", "--H", "span:0,1",
                            "--y", "24"], capsys)
    assert code == 0
    assert result_of(out)["witness"]["y"] == [4, 4]


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


def test_inverse_f5_cross_checks_f7_3(tmp_path, capsys):
    # the oracle is priced by the axis products its scan runs, so a planted
    # F7^3 phase is cross-checked; at the price of a naive scan, 7^12
    # correlation terms, it exited 3 with BudgetExceeded
    from u3kit.groups import GroupFunction, parse_group

    spec = parse_group("F7^3")
    x = spec.decode(np.arange(spec.order))
    q = (np.einsum("ni,ij,nj->n", x, np.array([[1, 2, 0], [2, 3, 1], [0, 1, 5]]), x) + x @ [1, 0, 4]) % 7
    noise = 0.05 * np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=spec.order))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(GroupFunction(spec, np.exp(2j * np.pi * q / 7) + noise))))
    code, out, err = run_cli(["inverse-f5", "--input", str(path), "--eta", "0.5", "--seed", "1"], capsys)
    assert code == 0, err
    res = result_of(out)
    assert res["oracle_check"].keys() == res["witnesses"].keys()
    for y, w in res["witnesses"].items():
        assert res["oracle_check"][y] >= w["bias"] - 1e-9


def test_inverse_f5_cross_checks_a_four_dimensional_w(tmp_path, capsys):
    # the pipeline asks the oracle instead of pricing W itself, so W = F3^4,
    # 2.1e7 axis multiply-adds, is cross-checked; a rule of dim W <= 3
    # used to skip it
    from u3kit.groups import GroupFunction, parse_group

    spec = parse_group("F3^4")
    x = spec.decode(np.arange(spec.order))
    A = [[1, 2, 0, 1], [2, 0, 1, 0], [0, 1, 2, 2], [1, 0, 2, 1]]
    q = (np.einsum("ni,ij,nj->n", x, np.array(A), x) + x @ [1, 0, 2, 2]) % 3
    noise = 0.05 * np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=spec.order))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(GroupFunction(spec, np.exp(2j * np.pi * q / 3) + noise))))
    code, out, err = run_cli(["inverse-f5", "--input", str(path), "--eta", "0.5", "--seed", "1"], capsys)
    assert code == 0, err
    res = result_of(out)
    assert len(res["W_basis"]) == 4 and res["oracle_check"].keys() == res["witnesses"].keys() == {"0"}
    assert res["witnesses"]["0"]["A"] == A
    assert res["oracle_check"]["0"] >= res["witnesses"]["0"]["bias"] - 1e-9


def test_inverse_f5_skips_a_cross_check_over_the_oracle_budget(tmp_path, capsys):
    # W = F11^3 prices the oracle's scan at 2.8e10 axis multiply-adds, over
    # ORACLE_BUDGET: the oracle refuses before it runs, the pipeline drops the
    # check, and the witnesses found without it are the answer (the refusal
    # used to exit 3)
    from u3kit.groups import GroupFunction, parse_group
    from u3kit.norms import ORACLE_BUDGET, _scan_price

    spec = parse_group("F11^3")
    assert _scan_price(11, 3) > ORACLE_BUDGET
    x = spec.decode(np.arange(spec.order))
    A, b = [[1, 2, 0], [2, 3, 1], [0, 1, 5]], [1, 0, 4]
    q = (np.einsum("ni,ij,nj->n", x, np.array(A), x) + x @ b) % 11
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(GroupFunction(spec, np.exp(2j * np.pi * q / 11)))))
    code, out, err = run_cli(["inverse-f5", "--input", str(path), "--eta", "0.5", "--seed", "1"], capsys)
    assert code == 0, err
    res = result_of(out)
    assert res["W_basis"] == np.eye(3, dtype=int).tolist() and res["oracle_check"] == {}
    (w,) = res["witnesses"].values()
    assert (w["A"], w["b"]) == (A, b) and w["bias"] > 1 - 1e-9


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
    from u3kit.groups import function_from_json

    seq = function_from_json(json.loads(fpath.read_text()))
    assert seq.owner.order == 101


def test_hp_check_subcommand(capsys):
    code, out, _ = run_cli(["hp-check", "--k", "4", "--trials", "100", "--seed", "3"], capsys)
    assert code == 0
    assert result_of(out)["pass"] is True


def test_seed_env_read_per_call(monkeypatch, capsys):
    args = ["hp-check", "--trials", "3"]
    seeds = []
    for env in ("5", "9"):
        monkeypatch.setenv("U3KIT_SEED", env)
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        seeds.append(json.loads(out)["manifest"]["seed"])
    _, out, _ = run_cli(args + ["--seed", "2"], capsys)
    assert seeds + [json.loads(out)["manifest"]["seed"]] == [5, 9, 2]
    monkeypatch.delenv("U3KIT_SEED")
    _, out, _ = run_cli(args, capsys)
    assert json.loads(out)["manifest"]["seed"] == 0


def test_invalid_seed_env(monkeypatch, capsys):
    for raw in ("abc", "-3"):  # numpy's generators take no negative seed
        monkeypatch.setenv("U3KIT_SEED", raw)
        with pytest.raises(SystemExit) as exc:
            main(["hp-check", "--trials", "3"])
        assert exc.value.code == 2
        assert "U3KIT_SEED" in capsys.readouterr().err
    # a subcommand without --seed never reads it
    code, out, _ = run_cli(["norm", "--group", "Z/5", "--expr", "1", "--d", "2"], capsys)
    assert code == 0 and json.loads(out)["manifest"]["seed"] is None
    # nor does one given --seed explicitly
    code, _, _ = run_cli(["hp-check", "--trials", "3", "--seed", "1"], capsys)
    assert code == 0


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


def test_scan_exhaustive_limit_on_pairs(capsys):
    # the scan is priced at N^2 (1 + ceil(log2 N)) multiply-adds against
    # ORACLE_BUDGET: Z/11549 is refused before any work, and Z/4097, past the
    # old limit of 2^24 pairs, is admitted
    code, out, err = run_cli(["scan", "--group", "Z/11549", "--expr", "0", "--mode", "exhaustive"], capsys)
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "BudgetExceeded" and "> ORACLE_BUDGET = 2000000000" in error["message"]
    code, out, err = run_cli(["scan", "--group", "Z/4097", "--expr", "0", "--mode", "exhaustive"], capsys)
    assert code == 0, err
    assert result_of(out) == {"value": 0.0, "a": 0, "b": 0, "mode": "exhaustive", "pairs_examined": 4097**2}


def test_bracket_grid_is_priced_not_capped(capsys):
    # no cap on the grid itself: grid 65 on a one-point region, 8515^2
    # tuples, is within ORACLE_BUDGET; grid 10^9 is refused before any table
    argv = ["u3-oracle", "--group", "Z/101", "--expr", "1", "--kind", "bracket", "--S", "1", "--rho", "0.001"]
    code, out, err = run_cli(argv + ["--grid", "65"], capsys)
    assert code == 0, err
    res = result_of(out)
    assert res["value"] == 1.0 and res["witness"]["quad"] == [["-65/1"]] and res["witness"]["lin"] == ["-65/1"]
    code, out, err = run_cli(argv + ["--grid", str(10**9)], capsys)
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "BudgetExceeded" and error["message"].endswith("> ORACLE_BUDGET = 2000000000")


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


def test_driver_answers_on_a_greedy_f5_4_set(tmp_path, capsys):
    # the 120-point greedy 4-AP-free set of F5^4 at seed 0: a slice fold of
    # |acc| * |K| = 144658 * 625 pair sums, over SUMSET_BUDGET, convolves
    # over the 5^8 points of G x dual(G) at a price of 16 * 5^8, inside it
    from u3kit.experiments import ap_free_search

    A = ap_free_search(parse_group("F5^4"), 4, "greedy", seed=0)
    path = tmp_path / "A.json"
    path.write_text(json.dumps(A))
    code, out, err = run_cli(["driver", "--n", "4", "--set", str(path), "--seed", "0"], capsys)
    assert code == 0, err
    trace = result_of(out)["trace"]
    assert trace and trace[0]["dimension"] == 4 and trace[0]["density"] == len(A) / 625


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


# Options every subcommand shares, read outside its handler: the function by
# _load_function (--input, --expr, --group), --group also by the manifest, and
# --out and --seed by _run and main.
SHARED_OPTIONS = {"input", "expr", "group", "out", "seed"}


def test_every_option_is_read():
    # an option that no code reads is parsed and silently ignored
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("handler"))
        for action in parser._actions:
            if action.dest != "help" and action.dest not in SHARED_OPTIONS:
                assert f"args.{action.dest}" in source, f"{name} --{action.dest} is never read"
    with pytest.raises(SystemExit) as exc:  # inverse-f5 --n was one, and is gone
        main(["inverse-f5", "--group", "F5^2", "--expr", "1", "--eta", "0.5", "--n", "2"])
    assert exc.value.code == 2


def test_selftest_subcommand(capsys):
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 0
    assert result_of(out)["ok"] is True
    assert "PASS quadratic scan against brute force on F3^3" in err
    assert "PASS phase-derivative graph: U3 and -h witnesses on F3^3" in err


def test_entrypoint_process():
    # the child imports the same u3kit as this test, also under a bare `pytest`
    # whose src path (pyproject's pythonpath) is not in the environment
    src = os.path.dirname(os.path.dirname(u3kit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "u3kit.cli", "aps", "--group", "Z/13", "--set", "0,1,2,4", "--k", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["proper"] == 0

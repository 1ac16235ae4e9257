"""Command line: problem files, dispatch, exit codes, adapter fidelity.

Core claims:
    - problem files parse with positional diagnostics and validate semantics
    - each command is a thin adapter: output matches the library byte for byte
    - exit codes: 0 on success, 1 on domain errors, 2 on usage errors
"""

import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from zdsi import fixtures, quantizers
from zdsi.cli import build_parser, dispatch, load_problem
from zdsi.errors import ParseError, ValidationError
from zdsi.probability import marginal_source
from zdsi.quantizers import export_curve_csv, lower_convex_envelope, optimal_decoder, rd_points
from zdsi.ri_codes import export_protocol, solve_ri
from zdsi.fixtures import pentagon


GOOD = {
    "source_alphabet": ["a", "b"],
    "si_alphabet": ["u", "v"],
    "pmf": [["1/4", "1/4"], ["1/4", "1/4"]],
    "distortion": [["0", "1"], ["1", "0"]],
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_problem_well_formed(tmp_path):
    spec = load_problem(write(tmp_path, GOOD))
    assert spec.pmf.nrows == 2
    assert spec.distortion(0, 1) == 1
    assert spec.triple is None


def test_load_problem_bad_rational(tmp_path):
    doc = dict(GOOD, pmf=[["1/0", "1/4"], ["1/4", "1/4"]])
    with pytest.raises(ParseError, match=r"pmf\[0\]\[0\]"):
        load_problem(write(tmp_path, doc))


def test_load_problem_sum_not_one(tmp_path):
    doc = dict(GOOD, pmf=[["1", "1/4"], ["1/4", "1/2"]])
    with pytest.raises(ValidationError, match="sum"):
        load_problem(write(tmp_path, doc))


def test_load_problem_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"source_alphabet": [')
    with pytest.raises(ParseError, match=r":1:"):
        load_problem(str(path))


def test_load_problem_missing_field(tmp_path):
    with pytest.raises(ParseError, match="si_alphabet"):
        load_problem(write(tmp_path, {"source_alphabet": ["a"]}))


def test_load_problem_triple(tmp_path):
    doc = {
        "source_alphabet": ["a", "b"],
        "si_alphabet": ["u"],
        "encoder_si_alphabet": ["s0", "s1"],
        "pmf_sxy": [[["1/4"], ["1/4"]], [["1/4"], ["1/4"]]],
    }
    spec = load_problem(write(tmp_path, doc))
    assert spec.triple is not None
    assert spec.pmf.probs[0][0] == Fraction(1, 2)


def test_solve_ri_pentagon_output(capsys):
    assert dispatch(["solve-ri", "--example", "pentagon"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "L_Y = 7/5"
    pmf, _ = pentagon()
    protocol, _ = solve_ri(pmf)
    expected = export_protocol(pmf.source, marginal_source(pmf), protocol)
    assert out.strip().split("\n", 1)[1] == expected


def test_rd_curve_fully_connected_csv(capsys):
    assert dispatch(["rd-curve", "--example", "fully-connected", "--M", "5", "--p", "3/10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["D_num,D_den,R_num,R_den", "0,1,12,5", "3,10,0,1"]


def test_rd_curve_matches_library_bytes(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert dispatch(["rd-curve", "--file", path]) == 0
    out = capsys.readouterr().out.strip()
    spec = load_problem(path)
    curve = lower_convex_envelope(rd_points(spec.pmf, spec.distortion))
    assert out == export_curve_csv(curve, exact=True)


def test_mt_region_query(capsys):
    assert dispatch(["mt-region", "--example", "mt-binary", "--query", "0,1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "achievable: yes" in out
    assert dispatch(["mt-region", "--example", "mt-binary", "--query", "0,0,0,0"]) == 0
    assert "achievable: no" in capsys.readouterr().out


def test_simulate_stream_runs(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = dispatch([
        "simulate-stream", "--example", "pentagon", "--D", "0",
        "--n", "500", "--seed", "1", "--trace", str(trace),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,total_bits,rate,distortion,sync_errors"
    assert trace.read_text().splitlines()[0] == "t,x,y,z,codeword,xhat"


def test_simulate_seq_runs(capsys):
    code = dispatch([
        "simulate-seq", "--example", "pentagon", "--D", "1/2",
        "--n", "8", "--trials", "30", "--seed", "2", "--mode", "variable",
    ])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("alpha,n,R,pc_bound")


def test_causal_curve_float_schema(capsys):
    assert dispatch(["causal-curve", "--example", "c6"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "D,R"


def test_encoder_si_curve_from_file(tmp_path, capsys):
    doc = {
        "source_alphabet": ["a", "b"],
        "si_alphabet": ["u", "v"],
        "encoder_si_alphabet": ["s"],
        "pmf_sxy": [[["1/4", "1/4"], ["1/4", "1/4"]]],
    }
    assert dispatch(["encoder-si-curve", "--file", write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "D_num,D_den,R_num,R_den"


def test_examples_command(capsys):
    assert dispatch(["examples"]) == 0
    out = capsys.readouterr().out
    assert "pentagon" in out and "mt-binary" in out


def test_domain_error_exit_code(tmp_path, capsys):
    doc = dict(GOOD, pmf=[["1", "1/4"], ["1/4", "1/2"]])
    code = dispatch(["solve-ri", "--file", write(tmp_path, doc)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        dispatch(["no-such-command"])
    assert info.value.code == 2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "curve.csv"
    assert dispatch([
        "rd-curve", "--example", "fully-connected", "--M", "4", "--p", "1/5",
        "--out", str(target),
    ]) == 0
    assert target.read_text().splitlines()[0] == "D_num,D_den,R_num,R_den"


def test_split_cell_example(capsys):
    assert dispatch(["solve-ri", "--example", "split-cell", "--p", "3/10"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "L_Y = 9/5"


def test_missing_file_is_a_parse_error(capsys):
    assert dispatch(["solve-ri", "--file", "/nonexistent/problem.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_fully_connected_requires_parameters(capsys):
    assert dispatch(["rd-curve", "--example", "fully-connected"]) == 1
    assert "--M" in capsys.readouterr().err


def test_mt_region_from_file_with_second_distortion(tmp_path, capsys):
    doc = dict(GOOD, distortion_y=[["0", "1"], ["1", "0"]])
    code = dispatch(["mt-region", "--file", write(tmp_path, doc), "--query", "1,1,0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "order,Rx,Ry,Dx,Dy,partitionX,partitionY"
    assert "achievable:" in out


def test_mt_region_simultaneous_flag(capsys):
    assert dispatch(["mt-region", "--example", "mt-binary", "--simultaneous"]) == 0
    assert "SIM," in capsys.readouterr().out


def test_mt_region_simultaneous_makes_one_pass(tmp_path, monkeypatch, capsys):
    doc = {
        "source_alphabet": ["a", "b", "c"],
        "si_alphabet": ["u", "v", "w"],
        "pmf": [["1/6", "1/12", "0"], ["1/12", "1/6", "1/12"], ["0", "1/12", "1/3"]],
    }
    path = write(tmp_path, doc)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return optimal_decoder(*args, **kwargs)

    monkeypatch.setattr(quantizers, "optimal_decoder", counting)
    counts = []
    for extra in ([], ["--simultaneous"]):
        calls.clear()
        assert dispatch(["mt-region", "--file", path, *extra]) == 0
        counts.append(len(calls))
    # Bell(3) = 5 partitions a side: one X and one Y decoder per pair, and
    # the SIM points come from the same region
    assert counts == [50, 50]
    assert capsys.readouterr().out.count("\nSIM,") == 25


@pytest.mark.parametrize("query,message", [
    ("1,2,x,3", "bad rational 'x'"),
    ("1,2,3", "needs 4 rationals Rx,Ry,Dx,Dy, got '1,2,3'"),
    ("1,1,1/0,1", "bad rational '1/0'"),
])
def test_bad_query_is_a_usage_error(query, message, capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["mt-region", "--example", "mt-binary", "--query", query])
    assert info.value.code == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "argument --query:" in line]
    assert len(err) == 1 and err[0].endswith(message)


@pytest.mark.parametrize("argv", [
    ["simulate-stream", "--example", "pentagon", "--n", "0"],
    ["simulate-seq", "--example", "mt-binary", "--n", "0", "--trials", "5"],
    ["pc-estimate", "--n", "0", "--trials", "5"],
])
def test_monte_carlo_commands_reject_empty_blocks(argv, capsys):
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: n must be >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["rd-curve", "--example", "fully-connected", "--M", "5", "--p", "abc"],
    ["rd-curve", "--example", "fully-connected", "--M", "5", "--p", "1/0"],
    ["simulate-stream", "--example", "pentagon", "--D", "xyz"],
])
def test_bad_rational_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(argv)
    assert info.value.code == 2
    assert f"bad rational {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["solve-ri", "--example", "split-cell", "--p", "3/4"], "needs 0 < p <= 1/2, got 3/4"),
    (["rd-curve", "--example", "fully-connected", "--M", "1", "--p", "1/5"], "needs m >= 2, got 1"),
])
def test_out_of_domain_example_parameter_is_a_domain_error(argv, message, capsys):
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _readme_commands() -> list[list[str]]:
    """The argument lists of the `zdsi ...` lines in README's Command line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("zdsi ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if getattr(args, "example", None) is not None:
            assert args.example in fixtures.EXAMPLES


@pytest.mark.parametrize("alpha", ["0", "-0.0", "1.5"])
def test_pc_estimate_rejects_alpha_outside_unit_interval(alpha, capsys):
    assert dispatch(["pc-estimate", "--alpha", alpha, "--trials", "5"]) == 1
    assert capsys.readouterr().err == f"error: need 0 < alpha <= 1, got {float(alpha)}\n"


@pytest.mark.parametrize("argv,message", [
    (["pc-estimate", "--R", "100"], "error: codebook of 2^2400 entries exceeds the cap 1048576"),
    (["pc-estimate", "--R", "inf"], "error: codebook of 2^inf entries exceeds the cap 1048576"),
    (["pc-estimate", "--R", "nan"], "error: need codebook rate R >= 0, got R=nan"),
    (["pc-estimate", "--R", "-1"], "error: need codebook rate R >= 0, got R=-1.0"),
    (["simulate-seq", "--example", "pentagon", "--epsilon", "100"], "error: codebook of 2^"),
    (["simulate-seq", "--example", "pentagon", "--epsilon", "nan"], "error: need codebook rate R >= 0"),
    (["simulate-seq", "--example", "pentagon", "--n", "100000"], "error: n=100000 exceeds the block cap 16384"),
])
def test_codebook_overflow_is_one_error_line(argv, message, capsys):
    # the caps are checked before 2^(nR) is formed, which overflows binary64
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1

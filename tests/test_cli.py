import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qilab as q
from qilab.cli import build_parser, main
from qilab.serialize import (
    FormatError,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
)


def write_density(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(rho.mat, rho.dims)))
    return str(path)


def write_pure(tmp_path, psi, name="pure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(state_to_json(psi)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_serialize_roundtrips():
    m = np.array([[1, 2j], [-2j, 0.5]])
    obj = matrix_to_json(m, (2,))
    back, dims = matrix_from_json(obj)
    assert np.allclose(back, m)
    assert dims == (2,)
    psi = q.phi_plus()
    assert np.allclose(state_from_json(state_to_json(psi)).amps, psi.amps)
    with pytest.raises(FormatError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1], "im": [0]})


finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4), with_dims=st.booleans())
def test_matrix_json_round_trip_is_bit_exact(data, rows, cols, with_dims):
    entries = data.draw(st.lists(st.tuples(finite, finite), min_size=rows * cols, max_size=rows * cols))
    m = np.array([complex(re, im) for re, im in entries]).reshape(rows, cols)
    dims = (rows,) if with_dims else None
    back, back_dims = matrix_from_json(json.loads(json.dumps(matrix_to_json(m, dims))))
    assert bits(back) == bits(m) and back_dims == dims


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3), data=st.data())
def test_state_json_round_trip_is_bit_exact(dims, data):
    size = math.prod(dims)
    entries = data.draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                                 min_size=size, max_size=size))
    v = np.array([complex(re, im) for re, im in entries])
    assume(np.linalg.norm(v) > 0.1)
    amps = np.empty(size, dtype=complex)  # scaled part by part, so signed zeros stay
    amps.real, amps.imag = v.real / np.linalg.norm(v), v.imag / np.linalg.norm(v)
    psi = q.PureState(amps, dims)
    back = state_from_json(json.loads(json.dumps(state_to_json(psi))))
    assert bits(back.amps) == bits(psi.amps) and back.dims == psi.dims


def test_json_round_trip_keeps_signed_zeros():
    m = np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0)], [complex(0.0, -0.0), 1.0]])
    back, _ = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert bits(back) == bits(m)
    psi = q.PureState(np.array([complex(-0.0, 1.0), complex(-0.0, 0.0)]))
    assert bits(state_from_json(state_to_json(psi)).amps) == bits(psi.amps)


def test_cli_ppt_and_exit_codes(tmp_path, capsys):
    path = write_density(tmp_path, q.phi_plus().density())
    code, rep = run(capsys, ["ppt", "--state", path])
    assert code == 0
    assert rep["results"]["is_ppt"] is False
    assert rep["results"]["min_eig"] == pytest.approx(-0.5, abs=1e-9)


def test_cli_witness(tmp_path, capsys):
    path = write_density(tmp_path, q.phi_plus().density())
    code, rep = run(capsys, ["witness", "--state", path, "--witness", "chsh"])
    assert code == 0
    assert rep["results"]["value"] == pytest.approx(-1 / math.sqrt(2), abs=1e-9)
    assert rep["results"]["detects"] is True


def test_cli_extend_infeasible_exit_code(tmp_path, capsys):
    path = write_density(tmp_path, q.phi_plus().density())
    code, rep = run(capsys, ["extend", "--state", path, "--k", "2"])
    assert code == 2
    assert rep["results"]["status"] == "InfeasibleEvidence"
    assert rep["results"]["residual"] >= 0.05


def test_cli_classify_and_marginal(tmp_path, capsys):
    path = write_pure(tmp_path, q.ghz_state())
    code, rep = run(capsys, ["classify3q", "--state", path])
    assert code == 0
    assert rep["results"]["class"] == "GHZ"
    code, rep = run(capsys, ["marginal3q", "--a", "0.7", "--b", "0.65", "--c", "0.8"])
    assert code == 0
    assert rep["results"]["compatible"] is True
    code, rep = run(capsys, ["marginal3q", "--a", "0.9", "--b", "0.9", "--c", "0.5"])
    assert code == 0
    assert rep["results"]["compatible"] is False


def test_cli_teleport_deterministic(capsys):
    code, rep1 = run(capsys, ["teleport"])
    assert code == 0
    assert rep1["results"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    code, rep2 = run(capsys, ["teleport"])
    assert rep1 == rep2  # default seed, byte-identical report


def test_cli_compress(capsys):
    code, rep = run(capsys, ["compress", "--p0", "0.11", "--rate", "0.6",
                             "--n", "300", "--trials", "50"])
    assert code == 0
    assert rep["results"]["success_rate"] >= 0.9


def test_cli_entropy(tmp_path, capsys):
    path = write_density(tmp_path, q.phi_plus().density())
    code, rep = run(capsys, ["entropy", "--state", path])
    assert code == 0
    assert rep["results"]["I_AB"] == pytest.approx(2.0, abs=1e-9)


def test_cli_definetti_spectrum_datahiding_motzkin(capsys):
    code, rep = run(capsys, ["definetti", "--d", "2", "--n", "100", "--k", "5"])
    assert code == 0
    assert rep["results"]["overlap"] >= rep["results"]["overlap_lower_bound"]
    code, rep = run(capsys, ["spectrum", "--r", "0.25", "--n", "4"])
    assert code == 0
    assert sum(rep["results"]["probs"].values()) == pytest.approx(1.0, abs=1e-9)
    assert set(rep["results"]["probs"]) == {"2", "1", "0"}
    code, rep = run(capsys, ["datahiding", "--d", "2"])
    assert code == 0
    assert rep["results"]["ppt_bias_bound"] == pytest.approx(1 / 3, abs=1e-9)
    code, rep = run(capsys, ["motzkin", "--n", "3", "--edges", "0-1,1-2,0-2"])
    assert code == 0
    assert rep["results"]["clique_number"] == 3


def test_cli_chsh_deterministic(capsys):
    code1, rep1 = run(capsys, ["chsh"])
    code2, rep2 = run(capsys, ["chsh"])
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["results"]["classical"] == 0.75
    assert rep1["results"]["quantum"] == pytest.approx(q.QUANTUM_OPTIMUM, abs=1e-6)


def test_cli_chsh_never_reports_a_negative_tsirelson_gap(capsys):
    # seeds 2 and 3 land one ulp above the float bound
    for seed in range(1, 9):
        code, rep = run(capsys, ["--seed", str(seed), "chsh"])
        assert code == 0
        assert rep["results"]["tsirelson_gap"] >= 0.0


def test_cli_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ppt", "--state", str(bad)]) == 1
    assert main(["marginal3q", "--a", "0.3", "--b", "0.6", "--c", "0.6"]) == 1
    missing = tmp_path / "missing.json"
    assert main(["witness", "--state", str(missing)]) == 1
    assert main(["frobnicate"]) == 1  # unknown subcommand
    # library errors: subsystem index out of range, empty block
    path = write_density(tmp_path, q.phi_plus().density())
    assert main(["ppt", "--state", path, "--cut", "3"]) == 1
    assert main(["compress", "--p0", "0.9", "--n", "0", "--rate", "0.5"]) == 1
    assert main(["compress", "--p0", "0.1", "--n", "10", "--rate", "nan"]) == 1
    assert main(["compress", "--p0", "0.1", "--n", "20001", "--rate", "0.5"]) == 1
    assert main(["compress", "--p0", "0.1", "--n", "10", "--rate", "0.5", "--trials", "100001"]) == 1
    for flag in ("--d", "--n", "--k"):
        argv = {"--d": "2", "--n": "100", "--k": "5", flag: "10001"}
        assert main(["definetti", *(a for kv in argv.items() for a in kv)]) == 1
    # checks that only the library makes
    ghz = write_density(tmp_path, q.ghz_state().density(), "ghz.json")
    bell = write_pure(tmp_path, q.phi_plus(), "bell.json")
    qutrit = write_pure(tmp_path, q.PureState(np.array([1.0, 0.0, 0.0])), "qutrit.json")
    assert main(["definetti", "--d", "2", "--n", "0", "--k", "1"]) == 1
    assert main(["datahiding", "--d", "1"]) == 1
    assert main(["spectrum", "--r", "0.7", "--n", "10"]) == 1
    assert main(["extend", "--state", ghz, "--k", "2"]) == 1
    assert main(["classify3q", "--state", bell]) == 1
    assert main(["teleport", "--state", qutrit]) == 1
    assert capsys.readouterr().out == ""


PHI_MATRIX = matrix_to_json(q.phi_plus().density().mat, (2, 2))
HALF = 2 ** -0.5


@pytest.mark.parametrize("obj", [
    dict(PHI_MATRIX, dims=None),
    dict(PHI_MATRIX, dims=[[2], [2]]),
    dict(PHI_MATRIX, dims=[2.9, 2.1]),
    dict(PHI_MATRIX, dims=[True, 4]),
    dict(PHI_MATRIX, rows="1e400"),  # written as the bare number, which reads as inf
    dict(PHI_MATRIX, rows=4.7, cols=4.2),
    dict(PHI_MATRIX, rows=True),
    {"amps_re": [HALF, 0, 0, HALF], "amps_im": [0, 0, 0, 0], "dims": [2.5, 2.5]},
], ids=["dims-null", "dims-nested", "dims-fractional", "dims-bool", "rows-huge", "rows-fractional",
        "rows-bool", "pure-dims-fractional"])
def test_cli_state_file_integers_are_strict(tmp_path, capsys, obj):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj).replace('"1e400"', "1e400"))
    assert main(["entropy", "--state", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("qi-cli: input error: ")


def test_cli_state_file_integral_floats_are_integers(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(dict(PHI_MATRIX, rows=4.0, cols=4, dims=[2.0, 2])))
    code, rep = run(capsys, ["entropy", "--state", str(path)])
    assert code == 0 and rep["results"]["I_AB"] == 2.0


@pytest.mark.parametrize("d, k", [(2, 10**6), (3, 10**8)])
def test_cli_extend_refuses_huge_k_at_once(tmp_path, capsys, d, k):
    path = write_density(tmp_path, q.phi_plus(d).density())
    start = time.perf_counter()
    assert main(["extend", "--state", path, "--k", str(k)]) == 1
    assert time.perf_counter() - start < 2
    assert "exceeds cap 4096" in capsys.readouterr().err


def test_cli_text_format(tmp_path, capsys):
    path = write_density(tmp_path, q.phi_plus().density())
    code = main(["--format", "text", "ppt", "--state", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "results.is_ppt" in out


@pytest.mark.parametrize("argv", [
    ["ppt", "--state", "{phi}", "--cut", "3"],  # IndexError inside the library
    ["compress", "--p0", "0.9", "--n", "0", "--rate", "0.5", "--trials", "5"],
    ["ppt", "--state", "{big}"],  # a 2^17-amplitude pure state: its density is over the cap
    ["compress", "--p0", "0.9", "--n", "10", "--rate", "0.5", "--trials", "0"],
    ["compress", "--p0", "0.9", "--n", "10", "--rate", "0.5", "--trials", "-3"],
    ["compress", "--p0", "0.9", "--n", "10", "--rate", "0.5", "--trials", "100001"],
    ["definetti", "--d", "2", "--n", "200000", "--k", "1"],
])
def test_cli_library_errors_exit_1_without_traceback(tmp_path, argv):
    phi = write_density(tmp_path, q.phi_plus().density())
    big = write_pure(tmp_path, q.PureState(np.eye(1, 2**17)[0], (256, 512)), "big.json")
    src = str(pathlib.Path(q.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "qilab.cli", *(a.format(phi=phi, big=big) for a in argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qi-cli: input error: ")
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_out_fractions_and_decimal():
    # only estimation_overlap_exact (qi-cli definetti) needs fractions, which imports decimal
    src = str(pathlib.Path(q.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qilab.cli; "
            "print(sorted({'fractions', 'decimal', 'scipy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# --- the CLI surface: every subcommand and option as qi-cli has declared them --------

STATE = ("--state", "state", None, True, None, None, None)


def required(flag, type_):
    return (flag, flag[2:], type_, True, None, None, None)


# (name, help, handler, [(flag, dest, type, required, default, choices, help)])
CLI_SURFACE = [
    ("ppt", "partial-transpose spectrum test", "_cmd_ppt",
     [STATE, ("--cut", "cut", int, False, 0, None, None)]),
    ("witness", "evaluate a built-in two-qubit witness", "_cmd_witness",
     [STATE, ("--witness", "witness", None, False, "flip", ("flip", "chsh"), None)]),
    ("extend", "k-extendibility by alternating projections", "_cmd_extend", [STATE, required("--k", int)]),
    ("chsh", "classical and quantum CHSH optima", "_cmd_chsh", []),
    ("classify3q", "three-qubit SLOCC class", "_cmd_classify3q", [STATE]),
    ("marginal3q", "one-body marginal compatibility", "_cmd_marginal3q",
     [required("--a", float), required("--b", float), required("--c", float)]),
    ("teleport", "teleport a qubit through |Phi+>", "_cmd_teleport",
     [("--state", "state", None, False, None, None, None)]),
    ("compress", "fixed-rate compression simulation", "_cmd_compress",
     [required("--p0", float), ("--n", "n", int, False, 1000, None, None), required("--rate", float),
      ("--trials", "trials", int, False, 200, None, None)]),
    ("entropy", "entropic measures of a state", "_cmd_entropy",
     [STATE, ("--parties", "parties", None, False, None, None, "e.g. 0/1 or 0/1/2 or 0,1/2")]),
    ("definetti", "symmetric-subspace overlap and error bound", "_cmd_definetti",
     [required("--d", int), required("--n", int), required("--k", int)]),
    ("spectrum", "total-spin outcome distribution", "_cmd_spectrum",
     [required("--r", float), required("--n", int)]),
    ("datahiding", "Werner-pair hiding bias bounds", "_cmd_datahiding", [required("--d", int)]),
    ("motzkin", "clique number vs quadratic optimum", "_cmd_motzkin",
     [required("--n", int), ("--edges", "edges", None, True, None, None, 'e.g. "0-1,1-2,0-2"')]),
]


def parser_subcommands():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def test_cli_surface_is_unchanged():
    sub = parser_subcommands()
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = [(name, helps[name], p.get_default("handler").__name__,
                [(" ".join(a.option_strings), a.dest, a.type, a.required, a.default, a.choices, a.help)
                 for a in p._actions if not isinstance(a, argparse._HelpAction)])
               for name, p in sub.choices.items()]
    assert surface == CLI_SURFACE


# --- fuzzing: generated argv for every subcommand ----------------------------

EDGE_INTEGERS = st.sampled_from(["nan", "inf", "-1", "0", "1e308", "1" + "0" * 30, str(-2**63),
                                 "0x10", "1.5", "x", ""])
EDGE_REALS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1e308", "1e308", "x"]),
                       st.floats().map(repr))


def integers(lo, hi):
    """Integers in lo..hi, where every subcommand is cheap, and edge values."""
    return st.integers(lo, hi).map(str), EDGE_INTEGERS


def reals(lo, hi):
    """Floats in lo..hi, and NaN, +-inf and any other float as edge values."""
    return st.floats(lo, hi).map(repr), EDGE_REALS


FUZZ_STATES = {
    "phi": PHI_MATRIX,
    "phi_pure": state_to_json(q.phi_plus()),
    "ghz": state_to_json(q.ghz_state()),
    "qubit": state_to_json(q.PureState(np.array([0.6, 0.8]))),
    "qutrit": state_to_json(q.PureState(np.array([1.0, 0.0, 0.0]))),
    "mixed3": matrix_to_json(q.maximally_mixed(8).mat, (2, 2, 2)),
}
FUZZ_BAD_FILES = {"list": "[1, 2]", "nan": '{"amps_re": [NaN, 1], "amps_im": [0, 0]}',
                  "bad": "{not json", "empty": ""}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """State files named in argv as {dir}/<name>.json; missing.json is not written."""
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, obj in FUZZ_STATES.items():
        (tmp / f"{name}.json").write_text(json.dumps(obj))
    for name, text in FUZZ_BAD_FILES.items():
        (tmp / f"{name}.json").write_text(text)
    return tmp


FUZZ_STATE = (st.sampled_from(sorted(FUZZ_STATES)).map("{{dir}}/{}.json".format),
              st.sampled_from(sorted(FUZZ_BAD_FILES) + ["missing"]).map("{{dir}}/{}.json".format))
FUZZ_TEXT = st.text(alphabet="0123456789-,/ x", max_size=16)
MOTZKIN_N = st.shared(st.integers(1, 20), key="motzkin n")  # one n per request: edges inside 0..n-1
MOTZKIN_EDGES = MOTZKIN_N.flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda e: f"{e[0]}-{e[1]}"),
    max_size=40).map(",".join))
# subcommand: [(option, (good values, edge values))]; every subcommand of the parser has a row
FUZZ_COMMANDS = {
    "ppt": [("--state", FUZZ_STATE), ("--cut", integers(0, 1))],
    "witness": [("--state", FUZZ_STATE), ("--witness", (st.sampled_from(["flip", "chsh"]), FUZZ_TEXT))],
    "extend": [("--state", FUZZ_STATE), ("--k", integers(2, 3))],
    "chsh": [],
    "classify3q": [("--state", FUZZ_STATE)],
    "marginal3q": [("--a", reals(0.5, 1)), ("--b", reals(0.5, 1)), ("--c", reals(0.5, 1))],
    "teleport": [("--state", FUZZ_STATE)],
    "compress": [("--p0", reals(0.01, 0.99)), ("--n", integers(1, 200)),
                 ("--rate", reals(0, 2)), ("--trials", integers(1, 50))],
    "entropy": [("--state", FUZZ_STATE),
                ("--parties", (st.sampled_from(["0/1", "0/1/2", "0,1/2", "1/0"]), FUZZ_TEXT))],
    "definetti": [("--d", integers(1, 50)), ("--n", integers(1, 500)), ("--k", integers(0, 50))],
    "spectrum": [("--r", reals(0, 0.5)), ("--n", integers(0, 64))],
    "datahiding": [("--d", integers(2, 40))],
    "motzkin": [("--n", (MOTZKIN_N.map(str), EDGE_INTEGERS)), ("--edges", (MOTZKIN_EDGES, FUZZ_TEXT))],
}


def test_cli_fuzz_table_covers_every_subcommand():
    assert sorted(FUZZ_COMMANDS) == sorted(parser_subcommands().choices)


@st.composite
def cli_argv(draw):
    """A request whose options are drawn from cheap ranges, except that one
    of them (or none) is given an edge value or left out."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    options = [("--seed", integers(-5, 5))] + FUZZ_COMMANDS[command]
    spoilt = draw(st.sampled_from([None] + [flag for flag, _ in options]))
    argv = []
    for flag, (good, edge) in options:
        if flag != spoilt:
            argv += [flag, draw(good)]
        elif draw(st.sampled_from([True, True, True, False])):  # else the option is left out
            argv += [flag, draw(edge)]
        if flag == "--seed":
            argv.append(command)
    return argv


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=1000, deadline=None)
@given(argv=cli_argv())
def test_cli_fuzz_exits_cleanly_with_strict_json(fuzz_dir, argv):
    argv = [a.replace("{dir}", str(fuzz_dir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
    else:
        assert strict_json(out.getvalue())["command"] in argv


# --- fuzzing: valid and mutated state files ------------------------------------

FILE_COMMANDS = [["ppt"], ["witness"], ["extend", "--k", "2"], ["entropy"], ["classify3q"], ["teleport"]]
# "1e400" is written as the bare number; 2.0 and 4.0 are integral floats, which pass as integers
ODD_VALUES = [None, True, False, 0, -1, 1, 2, 2.0, 4.0, 2.5, 1e300, 1.7e308, -1.7e308, "1e400",
              10**30, "2", [], [2], [[2], [2]], {"rows": 2}]


@st.composite
def state_file(draw):
    """One of FUZZ_STATES as JSON text, unchanged or with one field (or one entry
    of a list field) removed or replaced by an odd value."""
    obj = json.loads(json.dumps(FUZZ_STATES[draw(st.sampled_from(sorted(FUZZ_STATES)))]))
    field = draw(st.sampled_from([None] + sorted(obj)))
    if field is not None:
        how = draw(st.sampled_from(["missing", "field", "entry"]))
        value = draw(st.sampled_from(ODD_VALUES))
        if how == "missing":
            del obj[field]
        elif how == "entry" and isinstance(obj[field], list) and obj[field]:
            obj[field][draw(st.integers(0, len(obj[field]) - 1))] = value
        else:
            obj[field] = value
    return json.dumps(obj).replace('"1e400"', "1e400")


@settings(max_examples=1000, deadline=None)
@given(text=state_file(), command=st.sampled_from(FILE_COMMANDS))
def test_cli_state_file_fuzz_exits_cleanly_with_strict_json(fuzz_dir, text, command):
    path = fuzz_dir / "mutated.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--state", str(path), *command[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
    else:
        assert strict_json(out.getvalue())["command"] == command[0]

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chainkit.space as sp
from chainkit._report import dumps
from chainkit.cli import main
from chainkit.dirichlet import path_graph, save_graph_csv


@pytest.fixture
def line_space(tmp_path):
    space = sp.build_space({"type": "euclidean",
                            "coords": np.arange(11.0).tolist()})
    path = tmp_path / "line.json"
    sp.save_space(space, path)
    return str(path)


@pytest.fixture
def path_csv(tmp_path):
    path = tmp_path / "p11.csv"
    save_graph_csv(path_graph(11), path)
    return str(path)


def test_scale_phi_prints_quarter(capsys):
    assert main(["scale", "phi", "--psi", "power:2", "--s", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_scale_eval_and_inverse(capsys):
    assert main(["scale", "eval", "--psi", "power:3", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["scale", "inverse", "--psi", "power:2", "--v", "9"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_scale_regularity_exit_codes(tmp_path, capsys):
    assert main(["scale", "regularity", "--psi", "power:2"]) == 0
    capsys.readouterr()
    # quadratic data claimed as a clean cubic must fail the certificate
    table = tmp_path / "quad.csv"
    r = np.geomspace(0.01, 100.0, 30)
    np.savetxt(table, np.c_[r, r ** 2], delimiter=",")
    assert main(["scale", "regularity", "--psi", f"table:{table}:3,3,1.0",
                 "--window", "0.01,100"]) == 2


def test_missing_input_file_is_usage_error(capsys):
    assert main(["chain", "--space", "/no/such/file.json", "--eps", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["scale", "phi", "--psi", "power:2"]) == 1


def test_chain_subcommand_json(line_space, capsys):
    assert main(["chain", "--space", line_space, "--eps", "1.5",
                 "--pairs", "0,10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["analyses"][0]["d_eps"] == 10
    assert out["scan"]["worst_ratio"] > 0
    assert out["config"]["command"] == "chain"


def test_chain_report_is_deterministic(line_space, tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for r in (r1, r2):
        assert main(["--json-only", "chain", "--space", line_space,
                     "--eps", "1.5,2.5", "--report", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


_json_values = st.recursive(
    st.text() | st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


@given(_json_values)
def test_dumps_round_trips_through_json(obj):
    assert json.loads(dumps(obj)) == obj


def test_net_subcommand(line_space, capsys):
    assert main(["net", "--space", line_space, "--eps", "2", "--certify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["members"] == [0, 2, 4, 6, 8, 10]
    assert out["certified"]


def test_dirichlet_cap_subcommand(path_csv, capsys):
    assert main(["dirichlet", "cap", "--graph", path_csv,
                 "--A", "0", "--B", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["capacity"] == pytest.approx(0.1, abs=1e-12)


def test_dirichlet_cap_requires_sets(path_csv, capsys):
    assert main(["dirichlet", "cap", "--graph", path_csv]) == 1


def test_duplicate_csv_edge_is_an_error(tmp_path, capsys):
    graph = tmp_path / "dup.csv"
    graph.write_text("0,1,1.0\n1,2,1.0\n1,0,1.0\n")
    assert main(["dirichlet", "cap", "--graph", str(graph),
                 "--A", "0", "--B", "2"]) == 1
    assert "more than once" in capsys.readouterr().err


def test_non_integral_csv_id_is_an_error(tmp_path, capsys):
    graph = tmp_path / "frac.csv"
    graph.write_text("0,1,1.0\n1.5,2,1.0\n")
    assert main(["dirichlet", "cap", "--graph", str(graph),
                 "--A", "0", "--B", "2"]) == 1
    assert "non-integral vertex id" in capsys.readouterr().err


def test_zero_conductance_csv_edge_is_an_error(tmp_path, capsys):
    graph = tmp_path / "zero.csv"
    graph.write_text("0,1,1\n1,2,0\n2,3,1\n")
    assert main(["heat", "--graph", str(graph), "--times", "1"]) == 1
    assert "conductances must be positive" in capsys.readouterr().err


def test_heat_subcommand_writes_csv(path_csv, tmp_path, capsys):
    out_csv = tmp_path / "kernels.csv"
    assert main(["heat", "--graph", path_csv, "--times", "1,10",
                 "--out", str(out_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["times"] == [1, 10]
    assert out_csv.exists()
    rows = out_csv.read_text().strip().split("\n")
    assert len(rows) == 2 * 11


def test_gasket_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "g2.csv"
    assert main(["gasket", "--level", "2", "--out", str(out_csv)]) == 0
    from chainkit.dirichlet import load_graph_csv

    form = load_graph_csv(out_csv)
    assert form.n == 15


def test_replay_subcommand(tmp_path, capsys):
    path = tmp_path / "p101.csv"
    save_graph_csv(path_graph(101), path)
    assert main(["replay", "--graph", str(path), "--psi", "power:2",
                 "--x", "0", "--y", "100", "--eps", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_eps"] == 20
    assert out["maximal_constant"] == pytest.approx(18.0)


def test_verify_all_suites_pass(capsys):
    for suite in ("geodesic", "snowflake", "replay"):
        assert main(["verify-all", "--suite", suite]) == 0
        assert "[PASS]" in capsys.readouterr().out


def test_verify_all_unknown_suite(capsys):
    assert main(["verify-all", "--suite", "nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--psi", "piecewise:1,2;3", "--r", "nan"],
    ["inverse", "--psi", "piecewise:1,2;3", "--v", "nan"],
    ["eval", "--psi", "power:2", "--r", "nan"],
    ["phi", "--psi", "power:2", "--s", "nan"],
])
def test_scale_rejects_nan(argv, capsys):
    assert main(["scale", *argv]) == 1
    assert "defined for" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["0.01", "0.7", "3"])
def test_scale_phi_exponent_below_one_inside(s, capsys):
    assert main(["scale", "phi", "--psi", "piecewise:0.5,2;1.5,0.6;3", "--s", s]) == 0
    assert float(capsys.readouterr().out) > 0


def test_scale_phi_infinite_is_an_error(capsys):
    assert main(["scale", "phi", "--psi", "power:0.7", "--s", "1"]) == 1
    assert "phi is infinite" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[1, 2, 3], {"points": 3, "metric": {"type": "euclidean"}}])
def test_malformed_space_file_is_an_error(payload, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(payload))
    assert main(["net", "--space", str(path), "--eps", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")

import json
import math
from collections import OrderedDict
from json.encoder import encode_basestring

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import chainkit.space as sp
from chainkit._report import Rows, dumps, write_report
from chainkit.cli import main
from chainkit.dirichlet import load_graph_csv, path_graph, save_graph_csv
from chainkit.heat import heat_kernel, sierpinski_gasket_graph


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


def test_chain_all_pairs_in_loop_order(line_space, tmp_path, capsys):
    import chainkit.chain as ch
    from chainkit.scale import parse_psi_spec

    report = tmp_path / "all.json"
    assert main(["--json-only", "chain", "--space", line_space, "--eps", "1.5,2.5",
                 "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    # the (i, j > i) loop the command ran before, and its first 32 analyses per eps
    loop = [(i, j) for i in range(11) for j in range(i + 1, 11)]
    assert [(a["x"], a["y"]) for a in out["analyses"]] == loop[:32] * 2
    scan = ch.main_inequality_scan(sp.load_space(line_space), parse_psi_spec("power:2"),
                                   loop, [1.5, 2.5])
    assert out["scan"] == json.loads(dumps(scan))


def test_chain_with_a_psi_that_overflows_is_an_error(line_space, capsys):
    # psi(10) = 10 ** 400 is inf: the report read NaN ratios and exited 0
    assert main(["chain", "--space", line_space, "--eps", "1.5",
                 "--pairs", "0,10", "--psi", "power:400"]) == 1
    assert "psi is not finite and positive at eps = 1.5" in capsys.readouterr().err


_json_values = st.recursive(
    st.text() | st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


@given(_json_values)
def test_dumps_round_trips_through_json(obj):
    assert json.loads(dumps(obj)) == obj


# the byte reference for dumps: every report must render exactly as this
# naive renderer would
def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            out.append('"Infinity"' if x > 0 else '"-Infinity"')
        elif math.isnan(x):
            out.append('"NaN"')
        else:
            out.append(f"{x:.17g}")
    elif isinstance(obj, str):
        # the string encoder of json.dumps(obj, ensure_ascii=False)
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            _render(str(k), out)
            out.append(":")
            _render(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray, frozenset, set, range)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def reference_dumps(obj) -> str:
    out: list = []
    _render(obj, out)
    return "".join(out)


_text = st.text() | st.text(st.sampled_from('\x00\x1f\x7f"\\/\u00e9\u2028\u20ac\U0001f600'))
_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
    | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
    | st.floats(width=16).map(np.float16) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
    | st.integers(-128, 127).map(np.int8) | st.integers(0, 2 ** 64 - 1).map(np.uint64)
    | hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64]),
                 hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
    | st.sets(st.integers() | st.floats()) | st.frozensets(_text)
    | st.builds(range, st.integers(-5, 5), st.integers(-5, 20), st.integers(1, 3)),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.integers() | st.floats() | _text, inner)
    # repeated key tuples, as in a report's table rows
    | st.lists(st.dictionaries(st.sampled_from(["x", "y", "d_eps"]), inner))
    | st.dictionaries(_text, inner).map(OrderedDict),
    max_leaves=30,
)


@st.composite
def _rows(draw):
    """Int64 and float64 columns of 0-4 rows; the floats all finite (one
    %-format renders the table) or with inf and NaN (the row-loop fallback)."""
    n = draw(st.integers(0, 4))
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
    if draw(st.booleans()):
        floats |= st.sampled_from([math.inf, -math.inf, math.nan])
    names = st.sampled_from(["x", "eps", "d_eps", "%d", "a%%s%"]) | _text
    columns = draw(st.dictionaries(names, st.sampled_from(["int64", "float64"]), max_size=5))
    return Rows(**{k: draw(hnp.arrays(t, n, elements=floats if t == "float64"
                                      else st.integers(-2 ** 63, 2 ** 63 - 1)))
                   for k, t in columns.items()})


@given(_report_values | _rows())
@settings(max_examples=400, deadline=None)
def test_dumps_matches_the_reference_renderer(obj):
    assert dumps(obj) == reference_dumps(list(obj) if isinstance(obj, Rows) else obj)


@given(_rows())
@settings(max_examples=100, deadline=None)
def test_rows_is_a_sequence_of_row_dicts(rows):
    n = len(rows)
    assert reference_dumps([rows[i] for i in range(-n, 0)]) == reference_dumps(list(rows))
    assert dumps(rows[1:-1]) == reference_dumps(list(rows)[1:-1])
    with pytest.raises(IndexError):
        rows[n]
    with pytest.raises(IndexError):
        rows[-n - 1]
    for row in rows:
        assert [type(v) for v in row.values()] == [
            float if c.dtype.kind == "f" else int for c in rows.columns.values()]


def test_rows_iterates_across_blocks_of_rows():
    rows = Rows(x=np.arange(10_000), ratio=np.arange(10_000) / 7)
    assert list(rows) == [rows[i] for i in range(len(rows))]


def test_rows_columns_must_have_equal_lengths():
    with pytest.raises(ValueError, match="equal lengths"):
        Rows(x=np.arange(3), ratio=np.ones(2))


class _Tagged(str):
    def __str__(self):
        return "tag:" + self


def test_dumps_renders_str_subclass_keys_by_their_str():
    # a str subclass key sorts and renders by its str, next to equal exact-str keys too
    obj = [{"b": 1, "a": 2}, {_Tagged("b"): 1, "a": 2}, {"b": 3, _Tagged("a"): 4}]
    assert dumps(obj) == reference_dumps(obj)
    assert dumps(obj[1]) == '{"a":2,"tag:b":1}'


@pytest.mark.parametrize("obj", [np.bool_(True), object(), [1, np.bool_(False)],
                                 {"a": object()}, np.array(True), np.array(1.0),
                                 np.array([True, False]), 1 + 2j])
def test_dumps_rejects_what_the_reference_rejects(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        dumps(obj)


def test_write_report_calls_dumps_once(monkeypatch, tmp_path):
    # a tracer that wraps dumps counts each report's bytes once only when
    # nested values render without going back through dumps
    calls = []
    monkeypatch.setattr("chainkit._report.dumps", lambda obj: calls.append(obj) or dumps(obj))
    rows = Rows(x=np.arange(3), ratio=np.ones(3))
    payload = {"config": {"eps": [1.5, 2.0]}, "scan": {"rows": rows},
               "analyses": [{"x": 0, "path": np.arange(2)}]}
    write_report(payload, tmp_path / "r.json")
    assert len(calls) == 1
    assert (tmp_path / "r.json").read_text() == reference_dumps(
        {**payload, "scan": {"rows": list(rows)}}) + "\n"


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


@pytest.mark.parametrize("A, B, bad", [("-1", "0", -1), ("0", "3,999", 999)])
def test_dirichlet_cap_rejects_ids_outside_the_graph(path_csv, capsys, A, B, bad):
    # -1 read the last vertex and exited 0; 999 ended in an IndexError
    assert main(["dirichlet", "cap", "--graph", path_csv, "--A", A, "--B", B]) == 1
    assert f"A and B must be vertex ids in 0..10; got {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("x, y, message", [("0", "42", "unknown point id 42"),
                                            ("-1", "3", "unknown point id -1"),
                                            ("5", "5", "x and y must differ")])
def test_replay_checks_its_points(tmp_path, capsys, x, y, message):
    graph = tmp_path / "g3.csv"
    save_graph_csv(sierpinski_gasket_graph(3), graph)  # 42 vertices
    assert main(["replay", "--graph", str(graph), "--x", x, "--y", y, "--eps", "1"]) == 1
    assert message in capsys.readouterr().err


def test_chain_pair_outside_the_space_is_an_error(line_space, capsys):
    assert main(["chain", "--space", line_space, "--eps", "1", "--pairs", "0,99"]) == 1
    assert "unknown point id 99" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["0\n1\n", "0,1.0,2\n1,1.0,2\n"])
def test_vertex_file_needs_two_columns(path_csv, tmp_path, capsys, rows):
    masses = tmp_path / "m.csv"
    masses.write_text(rows)
    assert main(["dirichlet", "cap", "--graph", path_csv, "--vertices", str(masses),
                 "--A", "0", "--B", "10"]) == 1
    assert "vertex file must have 2 columns" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["heat", "--times", "1"],
    ["dirichlet", "cap", "--A", "0", "--B", "10"],
    ["replay", "--x", "0", "--y", "10", "--eps", "3"],
], ids=["heat", "dirichlet", "replay"])
def test_a_vertex_file_that_lists_an_id_twice_is_an_error(path_csv, tmp_path, capsys, argv):
    # the last row won: vertex 0 got mass 5, and each command exited 0
    masses = tmp_path / "m.csv"
    masses.write_text("0,1\n0,5\n2,1\n")
    assert main(argv + ["--graph", path_csv, "--vertices", str(masses)]) == 1
    assert "vertex file lists vertex 0 more than once" in capsys.readouterr().err


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


def test_replay_accepts_decimal_edge_lengths(tmp_path, capsys):
    # their geodesic sums differ in the last bit when taken from either end
    graph = tmp_path / "lens.csv"
    lengths = [0.1, 0.2, 0.7, 0.1, 0.3, 0.2, 0.1]
    graph.write_text("".join(f"{i},{i + 1},1,{ln}\n" for i, ln in enumerate(lengths)))
    assert main(["replay", "--graph", str(graph), "--x", "0", "--y", "7", "--eps", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["lipschitz_ok"]


@pytest.mark.parametrize("lengths", ["-1,-1", "0,1"])
def test_replay_rejects_nonpositive_edge_lengths(lengths, tmp_path, capsys):
    # a negative length used to send Dijkstra round a negative cycle for minutes
    graph = tmp_path / "path3.csv"
    a, b = lengths.split(",")
    graph.write_text(f"0,1,1,{a}\n1,2,1,{b}\n")
    assert main(["replay", "--graph", str(graph), "--x", "0", "--y", "2", "--eps", "1"]) == 1
    assert "lengths must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["net", "--space", "{line}", "--eps", "nan", "--certify"], "epsilon must be positive"),
    (["chain", "--space", "{line}", "--eps", "nan"], "epsilon must be positive"),
    (["replay", "--graph", "{path}", "--x", "0", "--y", "10", "--eps", "nan"],
     "epsilon must be positive"),
    (["heat", "--graph", "{path}", "--times", "nan,1"], "times must be finite and positive"),
    (["heat", "--graph", "{path}", "--times", "inf,1"], "times must be finite and positive"),
    (["scale", "phi", "--psi", "power:2", "--s", "inf"], "phi is defined for finite s > 0"),
    (["scale", "phi", "--psi", "power:2", "--s", "nan"], "phi is defined for finite s > 0"),
    (["dirichlet", "energy", "--graph", "{path}", "--f", "nan" + ",1" * 10],
     "energy requires finite --f values"),
    (["dirichlet", "energy", "--graph", "{path}", "--f", "1" + ",1" * 9 + ",inf"],
     "energy requires finite --f values"),
    (["chain", "--space", "{line}", "--eps", "1", "--pairs", "0,1,2"], "--pairs takes all or x,y"),
    (["chain", "--space", "{line}", "--eps", "1", "--pairs", "0"], "--pairs takes all or x,y"),
    (["chain", "--space", "{line}", "--eps", "1", "--pairs", "a,b"], "--pairs takes all or x,y"),
])
def test_nan_and_infinite_inputs_are_errors(argv, message, line_space, path_csv, capsys):
    # NaN compares False: net certified every point, heat wrote NaN diagonals,
    # and chain, replay and heat at inf failed with unrelated messages; phi at
    # s = inf printed 0 and the energy of a NaN --f printed "NaN", both exit 0;
    # a --pairs that is not x,y failed with Python's unpacking or int() message
    assert main([a.format(line=line_space, path=path_csv) for a in argv]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["chain", "--space", "{line}", "--eps", ","], "expected comma-separated numbers"),
    (["heat", "--graph", "{path}", "--times", ","], "expected comma-separated numbers"),
    (["scale", "regularity", "--psi", "power:2", "--window", ","],
     "expected comma-separated numbers"),
    (["scale", "regularity", "--psi", "power:2", "--window", "1"], "--window takes r_min,r_max"),
    (["scale", "regularity", "--psi", "power:2", "--window", "1,2,3"],
     "--window takes r_min,r_max"),
])
def test_empty_or_misshapen_number_lists_are_usage_errors(argv, message, line_space, path_csv,
                                                          capsys):
    # an empty --eps or --times wrote an empty report and an empty --window fell
    # back to the default window, all with exit 0; a --window of one or three
    # values failed with Python's unpacking message
    assert main([a.format(line=line_space, path=path_csv) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_heat_subcommand_writes_csv(path_csv, tmp_path, capsys):
    out_csv = tmp_path / "kernels.csv"
    assert main(["heat", "--graph", path_csv, "--times", "1,10",
                 "--out", str(out_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["times"] == [1, 10]
    assert out_csv.exists()
    rows = out_csv.read_text().strip().split("\n")
    assert len(rows) == 2 * 11


def test_heat_keeps_one_copy_of_each_time(path_csv, tmp_path, capsys):
    # "times" listed 1 twice, over two diagonals and 2n rows
    out_csv = tmp_path / "kernels.csv"
    assert main(["heat", "--graph", path_csv, "--times", "1,0.5,1", "--out", str(out_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["times"] == [0.5, 1] and list(out["diagonal"]) == ["0.5", "1"]
    assert len(out_csv.read_text().splitlines()) == 2 * 11


def test_heat_csv_bytes_match_the_per_entry_loop(tmp_path):
    graph, out_csv = tmp_path / "g3.csv", tmp_path / "kernels.csv"
    save_graph_csv(sierpinski_gasket_graph(3), graph)
    assert main(["--json-only", "heat", "--graph", str(graph), "--times", "0.1,1,10",
                 "--out", str(out_csv), "--report", str(tmp_path / "heat.json")]) == 0
    form = load_graph_csv(str(graph))
    table = heat_kernel(form, [0.1, 1.0, 10.0])
    lines = []
    for t in sorted(table.kernels):  # one f-string per entry, as heat --out wrote
        P = table.kernels[t]
        for i in range(form.n):
            row = ",".join(f"{v:.17g}" for v in P[i])
            lines.append(f"{t:.17g},{i},{row}\n")
    assert out_csv.read_bytes() == "".join(lines).encode()


def test_heat_csv_with_masses_and_a_short_time_equals_the_per_row_format(tmp_path):
    graph, masses, out_csv = tmp_path / "g3.csv", tmp_path / "m.csv", tmp_path / "k.csv"
    save_graph_csv(sierpinski_gasket_graph(3), graph)
    rng = np.random.default_rng(3)
    n = sierpinski_gasket_graph(3).n
    masses.write_text("".join(f"{i},{m!r}\n" for i, m in enumerate(rng.uniform(0.2, 4.0, n).tolist())))
    times = [0.01, 0.1, 1.0, 10.0]
    assert main(["--json-only", "heat", "--graph", str(graph), "--vertices", str(masses),
                 "--times", ",".join(map(str, times)), "--out", str(out_csv),
                 "--report", str(tmp_path / "heat.json")]) == 0
    table = heat_kernel(load_graph_csv(str(graph), str(masses)), times)
    row = ",".join(["%.17g"] * n)  # one format per CSV row, as heat --out wrote
    lines = [f"{t:.17g},{i}," + row % tuple(values.tolist()) + "\n"
             for t in sorted(table.kernels) for i, values in enumerate(table.kernels[t])]
    assert out_csv.read_text() == "".join(lines)
    far = table.kernels[0.01]
    assert (far < 0).any() and (np.abs(far) < 1e-15).any()  # far entries are signed noise


def test_a_table_of_many_blocks_equals_the_reference_renderer():
    rng = np.random.default_rng(4)
    n = 4096 * 2 + 123
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    floats[::7] = -0.0
    floats[::11] = np.round(floats[::11])
    rows = Rows(x=rng.integers(-2 ** 63, 2 ** 63 - 1, n), eps=np.repeat([1.5, -4.5, 0.0], n // 3 + 1)[:n],
                ratio=floats, count=rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64),
                small=rng.integers(-128, 127, n).astype(np.int8))
    assert dumps(rows) == reference_dumps(list(rows))
    assert dumps({"table": rows}) == reference_dumps({"table": list(rows)})


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


@pytest.mark.parametrize("spec", ["power:nan", "power:inf", "power:-2", "power:0",
                                  "piecewise:1,2;inf", "piecewise:-1,2;3", "piecewise:0,2;3",
                                  "piecewise:nan,2;3"])
def test_scale_rejects_malformed_parameters(spec, capsys):
    assert main(["scale", "eval", "--psi", spec, "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("action", [["eval", "--r", "2"], ["regularity"]])
def test_scale_table_with_a_nan_row_is_an_error(action, tmp_path, capsys):
    table = tmp_path / "nan.csv"
    table.write_text("1,1\n2,nan\n3,9\n")
    assert main(["scale", action[0], "--psi", f"table:{table}", *action[1:]]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("claim", ["2,2,nan", "nan,nan,nan", "3,1,-5"])
def test_scale_table_with_a_malformed_claim_is_an_error(claim, tmp_path, capsys):
    table = tmp_path / "quad.csv"
    r = np.geomspace(0.01, 100.0, 30)
    np.savetxt(table, np.c_[r, r ** 2], delimiter=",")
    assert main(["scale", "regularity", "--psi", f"table:{table}:{claim}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "claimed exponents" in captured.err


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

import dataclasses
import importlib
import json
import math
import warnings

import numpy as np
import pytest

from capax import (
    BlockShape,
    ChebyshevEstimate,
    GraphMap,
    build_mesh,
    graph_lift,
    parse_poly,
    transfinite_diameter,
)
from capax.cli import main

SQUARES = {"f1": "z1^2", "f2": "z2^2", "precision": "exact"}
TRIANGULAR = {"f1": "z1^2 + z2", "f2": "z2^2 + 1", "precision": "exact"}


@pytest.fixture
def map_file(tmp_path):
    def write(payload, name="map.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


# ---------------------------------------------------------------------------
# happy paths


def test_resultant_squares(map_file, capsys):
    code, payload = run_json(capsys, ["resultant", "--map", map_file(SQUARES)])
    assert code == 0
    assert payload["res"] == {"re": 1, "im": 0}
    assert payload["log_abs"] == 0.0
    assert payload["config"]["command"] == "resultant"


def test_resultant_with_oracle(map_file, capsys):
    path = map_file({"f1": "z1^2 + z2^2", "f2": "z1^2 + z1*z2 + 2*z2^2"})
    code, payload = run_json(capsys, ["resultant", "--map", path, "--oracle"])
    assert code == 0
    assert payload["oracle_rel_diff"] < 1e-10
    assert payload["config"]["oracle"] is True


def test_resultant_beyond_float_range(map_file, capsys):
    # Res = 10^800 exactly; its float conversion overflows
    big = "1" + "0" * 200
    path = map_file({"f1": f"{big}*z1^2", "f2": f"{big}*z2^2"})
    code, payload = run_json(capsys, ["resultant", "--map", path])
    assert code == 0
    assert payload["res"] == {"re": 10 ** 800, "im": 0}
    assert abs(payload["log_abs"] / (800 * math.log(10)) - 1.0) < 1e-12
    # a coefficient of 10^400 is no float: the exact resultant still runs,
    # and the float paths stop with one error line
    huge = map_file({"f1": "1" + "0" * 400 + "*z1^2", "f2": "z2^2"}, "huge.json")
    code, payload = run_json(capsys, ["resultant", "--map", huge])
    assert code == 0
    assert payload["res"] == {"re": 10 ** 800, "im": 0}
    for argv in (["resultant", "--oracle"], ["pullback", "--set", "torus:1,1", "--mesh", "8", "--nmax", "2"]):
        assert main([*argv, "--map", huge]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_float_resultant_beyond_float_range(map_file, capsys):
    # Res = 10^800 is no finite float, but its log is
    path = map_file({"f1": "1.0e200*z1^2", "f2": "1.0e200*z2^2", "precision": "float"})
    code, payload = run_json(capsys, ["resultant", "--map", path])
    assert code == 0
    assert payload["res"] is None
    assert abs(payload["log_abs"] / (800 * math.log(10)) - 1.0) < 1e-12
    assert main(["resultant", "--map", path, "--oracle"]) == 1


@pytest.mark.parametrize("precision, det", [("exact", "bareiss_det"), ("float", "slogdet")])
def test_resultant_computes_one_determinant(precision, det, map_file, capsys, monkeypatch):
    path = map_file({"f1": "z1^2 + 3*z2^2", "f2": "z1*z2 + 2*z2^2", "precision": precision})
    # the package's `resultant` is the function, so the module is imported by name
    module = importlib.import_module("capax.resultant") if precision == "exact" else np.linalg
    calls = []
    real = getattr(module, det)
    monkeypatch.setattr(module, det, lambda m: calls.append(1) or real(m))
    code, payload = run_json(capsys, ["resultant", "--map", path])
    assert code == 0
    assert payload["log_abs"] == pytest.approx(math.log(7))
    assert len(calls) == 1


def test_staircase_frozen(map_file, capsys):
    code, payload = run_json(capsys, ["staircase", "--map", map_file(TRIANGULAR)])
    assert code == 0
    assert payload["staircase"] == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert payload["generic"] is False


def test_basis_count(map_file, capsys):
    code, payload = run_json(
        capsys, ["basis", "--map", map_file(SQUARES), "--basis", "B", "--nmax", "2"]
    )
    assert code == 0
    assert payload["count"] == 15
    first = payload["monomials"][0]
    assert first == {"alpha": [0, 0], "beta": [0, 0], "weight": 0}


def test_basis_w_needs_no_map(capsys):
    code, payload = run_json(capsys, ["basis", "--basis", "w", "--nmax", "2"])
    assert code == 0
    assert payload["count"] == 6


def test_block_check(map_file, capsys):
    code, payload = run_json(
        capsys, ["block-check", "--map", map_file(SQUARES), "--k", "3"]
    )
    assert code == 0
    assert payload["matches"] is True
    assert payload["copies"] == 1


def test_fiber_json(map_file, capsys):
    code, payload = run_json(
        capsys,
        ["fiber", "--map", map_file(TRIANGULAR), "--w", "3,0,5,0", "--format", "json"],
    )
    assert code == 0
    assert len(payload["points"]) == 4
    assert payload["defect"] == 0
    assert payload["residual_max"] < 1e-9


def test_fiber_csv_layout(map_file, capsys):
    code = main(
        ["fiber", "--map", map_file(SQUARES), "--w", "4,0,9,0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "z1_re,z1_im,z2_re,z2_im"
    assert len(lines) == 6


def test_cheb_value_on_torus(map_file, capsys):
    code, payload = run_json(
        capsys,
        ["cheb", "--set", "torus:1,1", "--basis", "w", "--alpha", "2,1", "--mesh", "8,8"],
    )
    assert code == 0
    assert abs(payload["value"] - 1.0) < 1e-9
    assert payload["lower"] <= payload["value"]
    assert payload["residual"] == payload["value"] - payload["lower"]
    assert payload["prefix_size"] == 7


def test_cheb_transform_mode(capsys):
    code, payload = run_json(
        capsys,
        [
            "cheb",
            "--set",
            "torus:1.5,1.5",
            "--basis",
            "w",
            "--theta",
            "0.5",
            "--s",
            "4",
            "--mesh",
            "8,8",
        ],
    )
    assert code == 0
    assert abs(payload["transform"] - 1.5) < 1e-9


def test_tdiam_csv_default_format(capsys):
    code = main(["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "2", "--mesh", "8,8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("# meta ")
    assert lines[2] == "n,m_n,l_n,logVan,estimate"
    assert len(lines) == 5
    cfg = json.loads(lines[0][len("# config ") :])
    assert cfg["command"] == "tdiam"
    assert cfg["mesh"] == [8, 8]
    code, payload = run_json(
        capsys,
        ["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "2", "--mesh", "8,8", "--format", "json"],
    )
    assert code == 0
    assert json.loads(lines[1][len("# meta ") :]) == payload["meta"]


def test_pullback_squares(map_file, capsys):
    code, payload = run_json(
        capsys,
        [
            "pullback",
            "--map",
            map_file(SQUARES),
            "--set",
            "torus:1,1",
            "--nmax",
            "3",
            "--mesh",
            "12,12",
        ],
    )
    assert code == 0
    assert abs(payload["lhs"] - 1.0) < 1e-9
    assert abs(payload["rhs"] - 1.0) < 1e-9
    assert abs(payload["ratio"] - 1.0) < 1e-9
    assert "d2_cross" not in payload  # the formula reads no B series
    assert "oracle" not in payload["config"]  # only resultant has --oracle
    assert payload["meta"]["near_discriminant_fibers"] == 0
    assert payload["meta"]["roots_missing"] == 0


def test_pullback_float_map_matches_exact(map_file, capsys):
    # the formula needs no staircase, so a float map takes the same path
    scaled = {"f1": "3/2*z1^2", "f2": "3/2*z2^2"}
    argv = ["pullback", "--set", "torus:1,1", "--nmax", "3", "--mesh", "12"]
    code, exact = run_json(capsys, argv + ["--map", map_file(scaled)])
    assert code == 0
    code, floating = run_json(capsys, argv + ["--map", map_file(scaled), "--precision", "float"])
    assert code == 0
    assert floating["config"]["precision"] == "float"
    want = 1.5**-0.5
    for key in ("lhs", "rhs"):
        assert abs(floating[key] - want) < 1e-9
        assert floating[key] == pytest.approx(exact[key], rel=1e-12)
    assert floating["res_log_abs"] == pytest.approx(exact["res_log_abs"], rel=1e-12)


def test_pullback_rejects_a_map_that_is_not_regular(map_file, capsys):
    # the top forms share z1^2, so Res = 0
    code = main(["pullback", "--map", map_file({"f1": "z1^2 + z2", "f2": "z1^2"}),
                 "--set", "torus:1,1", "--nmax", "2", "--mesh", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not regular" in err


def test_pullback_refuses_a_float_map_that_is_not_regular(map_file, capsys):
    # Res is finite but below is_regular's floor: the top forms nearly share
    # a root, and every fiber of the 8 x 8 lift once came back short
    path = map_file({"f1": "z1^2 + z2^2 + 0.3*z1", "f2": "z1^2 + 1.0000000000001*z2^2 + 0.2*z2",
                     "precision": "float"})
    assert main(["pullback", "--map", path, "--set", "torus:1,1", "--mesh", "8", "--nmax", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "not regular" in err


def test_tdiam_json_carries_series_meta(capsys):
    code, payload = run_json(
        capsys,
        ["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "2", "--mesh", "8,8",
         "--format", "json"],
    )
    assert code == 0
    assert "oracle" not in payload["config"]
    meta = payload["meta"]
    assert meta["points"] == 64
    assert 0 <= meta["irls_converged"] <= len(payload["m"]) * 6
    assert meta["irls_steps"] >= meta["irls_converged"]
    assert 0.0 <= meta["cheb_gap_max"] <= 1e-6
    assert meta["cheb_uncertified"] == []


def test_tdiam_lifts_the_set_through_the_map(map_file, capsys):
    mapping = {"f1": "z1^2 + z1*z2 + z2^2", "f2": "z1*z2 + 1"}
    code, payload = run_json(
        capsys,
        ["tdiam", "--map", map_file(mapping), "--set", "torus:1,1", "--basis", "B",
         "--nmax", "2", "--mesh", "8", "--format", "json"],
    )
    assert code == 0
    f = GraphMap(parse_poly(mapping["f1"]), parse_poly(mapping["f2"]))
    series = transfinite_diameter(graph_lift(f, build_mesh("torus:1,1", 8)), "B", 2)
    assert payload["estimates"] == series.estimates


def test_cheb_z_target_on_lifted_torus(map_file, capsys):
    code, payload = run_json(
        capsys,
        ["cheb", "--map", map_file(SQUARES), "--set", "torus:1,1", "--basis", "z",
         "--alpha", "0,0", "--beta", "2,0"],
    )
    assert code == 0
    assert abs(payload["value"] - 1.0) < 1e-12


def test_z_basis_without_map_is_domain_error(capsys):
    code = main(["tdiam", "--set", "torus:1,1", "--basis", "z", "--nmax", "1"])
    assert code == 1
    assert "pass --map" in capsys.readouterr().err


def test_threads_flag_is_gone(capsys):
    code = main(["resultant", "--map", "f.json", "--threads", "2"])
    assert code == 2


@pytest.mark.parametrize("flags", [["--seed", "1"], ["--verbose"]])
def test_seed_and_verbose_flags_are_gone(flags, capsys):
    code = main(["resultant", "--map", "f.json", *flags])
    assert code == 2


def test_csv_on_json_only_command_leaves_out_file(map_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    code = main(
        ["resultant", "--map", map_file(SQUARES), "--format", "csv", "--out", str(target)]
    )
    assert code == 2
    assert "no CSV form" in capsys.readouterr().err
    assert target.read_text() == "earlier report\n"


def test_out_writes_file(map_file, capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["resultant", "--map", map_file(SQUARES), "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["res"] == {"re": 1, "im": 0}


def test_determinism_byte_identical(map_file, capsys):
    argv = ["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "2", "--mesh", "8,8"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_report_bytes_do_not_depend_on_out_path(tmp_path, capsys):
    argv = ["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "2", "--mesh", "8,8"]
    paths = [tmp_path / "tdiam-1.json", tmp_path / "tdiam-2.json"]
    for path in paths:
        assert main(argv + ["--format", "json", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cheb_value_keys_are_the_estimate_fields(capsys):
    code, payload = run_json(
        capsys,
        ["cheb", "--set", "torus:1,1", "--basis", "w", "--alpha", "2,1", "--mesh", "8,8"],
    )
    assert code == 0
    names = {f.name for f in dataclasses.fields(ChebyshevEstimate)}
    assert set(payload) == names | {"residual", "config"}


def test_block_check_keys_are_the_shape_fields(map_file, capsys):
    code, payload = run_json(capsys, ["block-check", "--map", map_file(SQUARES), "--k", "5"])
    assert code == 0
    names = {f.name for f in dataclasses.fields(BlockShape)}
    assert set(payload) == names | {"matches", "sign", "det", "res", "config"}


def test_tdiam_json_log_vandermonde_is_the_csv_column(capsys):
    argv = ["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "3", "--mesh", "8,8"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[2].split(",")
    column = [float(line.split(",")[header.index("logVan")]) for line in lines[3:]]
    code, payload = run_json(capsys, argv + ["--format", "json"])
    assert code == 0
    assert len(column) == 3
    assert payload["log_vandermonde"] == column


def strict_loads(text):
    """json.loads that rejects NaN and +-Infinity, as strict parsers do."""

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "spec, mesh, nmax, log_van",
    [
        # w2 = 0 on the sample: both levels hold a dependent step
        ("box:-2,2,0,0", "8,1", "2", [None, None]),
        # w1^4 = w2^4 = 1 on the 4 x 4 torus: level 4 holds two dependent steps
        ("torus:1,1", "4", "4", [1.3862943611198906, 4.1588830833596715, 9.70406052783923, None]),
    ],
)
def test_tdiam_json_is_strict_and_csv_keeps_minus_inf(spec, mesh, nmax, log_van, capsys):
    argv = ["tdiam", "--set", spec, "--mesh", mesh, "--basis", "w", "--nmax", nmax]
    assert main(argv + ["--format", "json"]) == 0
    payload = strict_loads(capsys.readouterr().out)
    got = payload["log_vandermonde"]
    assert [v is None for v in got] == [v is None for v in log_van]
    for g, want in zip(got, log_van):
        if want is not None:
            assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12)
    assert payload["estimates"][-1] == 0.0
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[3:]
    assert [row.split(",")[3] == "-inf" for row in rows] == [v is None for v in log_van]


def test_resultant_json_of_a_map_that_is_not_regular_is_strict(map_file, capsys):
    path = map_file({"f1": "z1^2 + z2", "f2": "z1^2"})
    assert main(["resultant", "--map", path]) == 0
    payload = strict_loads(capsys.readouterr().out)
    assert payload["log_abs"] is None
    assert payload["res"] == {"re": 0, "im": 0}


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_supplies_defaults(map_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": map_file(SQUARES), "k": 3}))
    code, payload = run_json(capsys, ["block-check", "--config", str(cfg)])
    assert code == 0
    assert payload["k"] == 3


def test_flag_beats_config_file(map_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": map_file(SQUARES), "k": 3}))
    code, payload = run_json(
        capsys, ["block-check", "--config", str(cfg), "--k", "5"]
    )
    assert code == 0
    assert payload["k"] == 5


def test_unknown_config_key_rejected(map_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": map_file(SQUARES), "wat": 1}))
    code = main(["resultant", "--config", str(cfg)])
    assert code == 2
    assert "wat" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "verbose", "threads"])
def test_removed_config_keys_rejected(key, map_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": map_file(SQUARES), key: 1}))
    code = main(["resultant", "--config", str(cfg)])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["tdiam", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--nmax", "1"],
         {"theta": 0.5, "s": 4}),
        (["cheb", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--alpha", "2,1"],
         {"nmax": 3, "k": 2}),
        (["resultant", "--map", "f.json"], {"k": 2}),
        (["block-check", "--map", "f.json", "--k", "3"], {"oracle": True}),
        (["basis", "--basis", "w", "--nmax", "1"], {"w": [1, 0, 1, 0]}),
        (["staircase", "--map", "f.json"], {"nmax": 2}),
        (["fiber", "--map", "f.json", "--w", "1,0,1,0"], {"set": "torus:1,1"}),
        (["pullback", "--map", "f.json", "--set", "torus:1,1", "--nmax", "1"], {"basis": "B"}),
    ],
)
def test_config_keys_the_command_does_not_read_rejected(argv, extra, tmp_path, capsys):
    # the same keys as flags are argparse errors; from a file they must not
    # slip through into the report's config.  Each key is one that some
    # other command reads.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(extra))
    code = main(argv + ["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert all(key in err for key in extra)


def test_config_keys_the_command_reads_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"set": "torus:1,1", "mesh": 8, "basis": "w", "theta": 0.5, "s": 4}))
    code, payload = run_json(capsys, ["cheb", "--config", str(cfg)])
    assert code == 0
    assert payload["config"]["theta"] == 0.5 and payload["config"]["s"] == 4
    assert payload["transform"] > 0


def test_config_values_parse_like_flags(tmp_path, capsys):
    argv = ["tdiam", "--set", "torus:1,1", "--basis", "w", "--format", "json"]
    code, by_flags = run_json(capsys, argv + ["--nmax", "2", "--mesh", "8,8"])
    assert code == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh": "8,8", "nmax": "2"}))
    code, by_config = run_json(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    assert by_config == by_flags


@pytest.mark.parametrize(
    "key, value",
    [
        ("nmax", "two"), ("nmax", 2.5), ("mesh", [8, 8, 8]), ("k", "3,"), ("oracle", "false"),
        # values outside the flag's choices
        ("format", "xml"), ("precision", "double"), ("basis", "Q"),
    ],
)
def test_bad_config_value_is_usage_error(key, value, map_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": map_file(SQUARES), "k": 3, key: value}))
    # block-check has no --basis; the basis command has
    command = "basis" if key == "basis" else "block-check"
    code = main([command, "--config", str(cfg)])
    assert code == 2
    assert f"config key {key}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_missing_map_file_is_domain_error(capsys):
    code = main(["resultant", "--map", "/nonexistent/f.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["resultant", "--map", "{dir}"],
        ["tdiam", "--set", "points:{dir}", "--basis", "w", "--nmax", "1"],
    ],
)
def test_directory_in_place_of_a_file_is_domain_error(argv, tmp_path, capsys):
    code = main([a.format(dir=tmp_path) for a in argv])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tdiam", "--set", "torus:nan,1", "--mesh", "8", "--basis", "w", "--nmax", "2"],
        ["tdiam", "--set", "box:0,nan,0,1", "--mesh", "8", "--basis", "w", "--nmax", "2"],
        ["tdiam", "--set", "polydisc:1,nan", "--mesh", "8", "--basis", "w", "--nmax", "2"],
        ["tdiam", "--set", "torus:inf,1", "--mesh", "8", "--basis", "w", "--nmax", "2"],
        ["tdiam", "--set", "points:{points}", "--basis", "w", "--nmax", "1"],
        ["fiber", "--map", "{map}", "--w", "nan,0,1,0"],
        ["resultant", "--map", "{float_map}"],
    ],
)
def test_input_that_is_not_finite_is_domain_error(argv, map_file, tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("1,0,0,1\nnan,0,0,-1\n-1,0,0,-1\n")
    paths = {
        "points": points,
        "map": map_file({"f1": "z1^2 + z1*z2 + z2^2", "f2": "z1*z2 + 1"}),
        "float_map": map_file({"f1": "1.0e400*z1^2", "f2": "z2^2", "precision": "float"}, "big.json"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.fixture
def torus_points(tmp_path):
    """The 8 x 8 torus mesh as a points: file."""
    path = tmp_path / "torus.csv"
    w = build_mesh("torus:1,1", 8).w.tolist()
    path.write_text("".join(f"{a.real!r},{a.imag!r},{b.real!r},{b.imag!r}\n" for a, b in w))
    return f"points:{path}"


@pytest.mark.parametrize(
    "argv",
    [
        ["cheb", "--basis", "w", "--alpha", "1,1"],
        ["tdiam", "--basis", "w", "--nmax", "2", "--format", "json"],
        ["pullback", "--map", "{map}", "--nmax", "2"],
    ],
)
def test_points_set_takes_no_mesh(argv, torus_points, map_file, capsys):
    argv = [a.format(map=map_file(SQUARES)) for a in argv] + ["--set", torus_points]
    code = main(argv + ["--mesh", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "--mesh" in err
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert "mesh" not in payload["config"]
    assert "mesh" not in payload.get("meta", {})
    # the same points as the 8 x 8 mesh give the same report
    code, meshed = run_json(capsys, [a.replace(torus_points, "torus:1,1") for a in argv]
                            + ["--mesh", "8"])
    assert code == 0
    for key in set(payload) - {"config", "meta"}:
        assert payload[key] == pytest.approx(meshed[key], rel=1e-12, abs=1e-12), key


def test_nmax_out_of_range(capsys):
    code = main(["tdiam", "--set", "torus:1,1", "--basis", "w", "--nmax", "0"])
    assert code == 2
    assert "nmax out of range" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    code = main(["resultant"])
    assert code == 2


def test_unknown_command(capsys):
    code = main(["frobnicate"])
    assert code == 2


def test_cheb_needs_target_or_direction(capsys):
    code = main(["cheb", "--set", "torus:1,1", "--basis", "w", "--mesh", "8,8"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["0", "1", "1.5"])
def test_cheb_theta_outside_open_interval_is_usage_error(theta, capsys):
    code = main(["cheb", "--set", "torus:1,1", "--basis", "w", "--mesh", "8,8",
                 "--theta", theta, "--s", "4"])
    assert code == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "1,1", "--theta", "0.5", "--s", "4"],
        ["--alpha", "1,1", "--s", "4"],
        ["--beta", "0,1", "--theta", "0.5", "--s", "4"],
    ],
)
def test_cheb_rejects_flags_it_would_ignore(flags, capsys):
    code = main(["cheb", "--set", "torus:1,1", "--basis", "w", "--mesh", "8,8", *flags])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, from_file, flag",
    [
        (["cheb", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--alpha", "1,1",
          "--map", "{map}"], {}, "--map"),
        (["tdiam", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--nmax", "1",
          "--map", "{map}"], {}, "--map"),
        (["basis", "--basis", "z", "--nmax", "1", "--map", "{map}"], {}, "--map"),
        (["basis", "--basis", "w", "--nmax", "1", "--map", "{map}"], {}, "--map"),
        (["basis", "--basis", "w", "--nmax", "1", "--precision", "float"], {}, "--precision"),
        (["cheb", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--alpha", "1,1",
          "--precision", "exact"], {}, "--precision"),
        (["tdiam", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--nmax", "1",
          "--precision", "exact"], {}, "--precision"),
        # the same keys from a config file
        (["tdiam", "--set", "torus:1,1", "--mesh", "8", "--basis", "w", "--nmax", "1"],
         {"map": "{map}"}, "--map"),
        (["basis", "--basis", "z", "--nmax", "1"], {"map": "{map}"}, "--map"),
        (["basis", "--basis", "w", "--nmax", "1"], {"precision": "float"}, "--precision"),
    ],
)
def test_flags_a_command_would_ignore_are_usage_errors(argv, from_file, flag, map_file,
                                                       tmp_path, capsys):
    path = map_file(SQUARES)
    argv = [a.format(map=path) for a in argv]
    if from_file:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({k: v.format(map=path) for k, v in from_file.items()}))
        argv += ["--config", str(cfg)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and flag in err


def test_config_key_command_is_rejected(map_file, tmp_path, capsys):
    # the subcommand comes from argv alone; a file's "command" would be ignored
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "staircase"}))
    code = main(["resultant", "--map", map_file(SQUARES), "--config", str(cfg)])
    assert code == 2
    assert "config key command" in capsys.readouterr().err


def test_singular_map_reports_domain_error(map_file, capsys):
    # shared top-form factor: the staircase is not finite
    path = map_file({"f1": "z1^2 + z1*z2", "f2": "z1*z2", "precision": "exact"})
    code = main(["staircase", "--map", path])
    assert code == 1
    assert "error:" in capsys.readouterr().err

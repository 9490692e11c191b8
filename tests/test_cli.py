"""End-to-end command-line runs against small on-disk instances."""

from __future__ import annotations

import pytest

from orbitlb import dataset_path
from orbitlb.cli import main

DIAMOND_TOPO = """\
node s 0
node a 0
node b 0
node t 0
link e_sa s a 10
link e_at a t 10
link e_sb s b 2
link e_bt b t 2
"""

DIAMOND_DEMANDS = "demand 0 s t 8 -\n"


@pytest.fixture
def diamond_files(tmp_path):
    topo = tmp_path / "d.topo"
    topo.write_text(DIAMOND_TOPO)
    dem = tmp_path / "d.demands"
    dem.write_text(DIAMOND_DEMANDS)
    return str(topo), str(dem)


def test_sweep_writes_expected_files(diamond_files, tmp_path):
    topo, dem = diamond_files
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--topology", topo,
            "--demands", dem,
            "--kappa", "1,2",
            "--epsilon", "1,2",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = (out / "sweep.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "kappa,epsilon,max_link_utilization,acceptance_ratio"
    assert len(lines) == 5  # 2x2 grid, all feasible
    assert (out / "guarantees_k1_e1.txt").exists()
    assert (out / "events_k2_e2.csv").exists()


def test_sweep_runs_are_byte_identical(diamond_files, tmp_path):
    topo, dem = diamond_files
    args = ["sweep", "--topology", topo, "--demands", dem, "--kappa", "1,2", "--epsilon", "1,3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()


def test_sweep_skips_infeasible_combos(diamond_files, tmp_path, capsys):
    topo, dem = diamond_files
    code = main(
        [
            "sweep",
            "--topology", topo,
            "--demands", dem,
            "--kappa", "3,4",  # 4 nodes: eps 1 gives floor(4/3)*3 = 3 < 4
            "--epsilon", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "kappa=3" in err and "skipped" in err
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2  # only kappa=4 survived


def test_sweep_with_no_feasible_combo_fails(diamond_files, tmp_path, capsys):
    topo, dem = diamond_files
    code = main(
        [
            "sweep",
            "--topology", topo,
            "--demands", dem,
            "--kappa", "3",
            "--epsilon", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "no (kappa, epsilon) pair was feasible" in capsys.readouterr().err


def test_sweep_empty_demand_file(diamond_files, tmp_path):
    topo, _ = diamond_files
    empty = tmp_path / "none.demands"
    empty.write_text("# nothing\n")
    code = main(
        [
            "sweep",
            "--topology", topo,
            "--demands", str(empty),
            "--kappa", "1",
            "--epsilon", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "1,1,0,1"


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_group_in_pieces_is_warned_about(tmp_path, capsys, command):
    extra = ["--algorithms", "orbit", "--oracle-prefix", "0"] if command == "compare" else []
    code = main([
        command,
        "--topology", dataset_path("geant.topo"),
        "--demands", dataset_path("geant.demands"),
        "--kappa", "2", "--epsilon", "1", *extra,
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: kappa=2 epsilon=1: group 1 internal links leave its 11 nodes in 2 pieces\n"
    )


def test_connected_groups_give_no_warning(tmp_path, capsys):
    code = main([
        "sweep",
        "--topology", dataset_path("internet2.topo"),
        "--demands", dataset_path("internet2.demands"),
        "--kappa", "2", "--epsilon", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_missing_topology_file_exits_one(tmp_path, capsys):
    dem = tmp_path / "d.demands"
    dem.write_text(DIAMOND_DEMANDS)
    code = main(
        [
            "sweep",
            "--topology", str(tmp_path / "missing.topo"),
            "--demands", str(dem),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_topology_exits_one(tmp_path, capsys):
    topo = tmp_path / "bad.topo"
    topo.write_text("node a\n")
    dem = tmp_path / "d.demands"
    dem.write_text("")
    code = main(
        ["sweep", "--topology", str(topo), "--demands", str(dem), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "bad.topo:1" in capsys.readouterr().err


def test_repeated_vnfcost_exits_one(diamond_files, tmp_path, capsys):
    _, dem = diamond_files
    topo = tmp_path / "twice.topo"
    topo.write_text(DIAMOND_TOPO + "vnf fw\nvnfcost a fw 1\nvnfcost a fw 7\n")
    code = main(["export", "--topology", str(topo), "--demands", dem, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "twice.topo:11:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep", "export"])
@pytest.mark.parametrize(
    "bad, text",
    [
        pytest.param("topology", DIAMOND_TOPO.replace("node b 0", "node b 1_000"), id="separator"),
        pytest.param("topology", DIAMOND_TOPO.replace("node a 0", "node a \u0663"), id="non_ascii"),
        pytest.param("demands", "demand 1_0 s t 1_0.5 -\n", id="demand_separators"),
    ],
)
def test_malformed_number_exits_one(diamond_files, tmp_path, capsys, command, bad, text):
    topo, dem = diamond_files
    files = {"topology": topo, "demands": dem}
    broken = tmp_path / f"broken.{bad}"
    broken.write_text(text, encoding="utf-8")
    files[bad] = str(broken)
    code = main(
        [command, "--topology", files["topology"], "--demands", files["demands"],
         "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"broken.{bad}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad, data, line",
    [("topology", b"node a 1\nnode b\xff 1\n", 2), ("demands", b"demand 0 s\xff t 8 -\n", 1)],
)
def test_file_that_is_not_utf8_exits_one(diamond_files, tmp_path, capsys, bad, data, line):
    """A file that is not UTF-8 text is malformed input: exit 1 and one
    error line naming it, with no traceback."""
    topo, dem = diamond_files
    files = {"topology": topo, "demands": dem}
    broken = tmp_path / f"broken.{bad}"
    broken.write_bytes(data)
    files[bad] = str(broken)
    code = main(
        ["export", "--topology", files["topology"], "--demands", files["demands"],
         "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {broken}:{line}: line is not valid UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def test_negative_demand_id_fails_export_only(diamond_files, tmp_path, capsys):
    topo, _dem = diamond_files
    dem = tmp_path / "neg.demands"
    dem.write_text("demand -2 s t 1 -\ndemand 3 s t 1 -\n")
    files = ["--topology", topo, "--demands", str(dem)]
    assert main(["export", *files, "--out", str(tmp_path / "lp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "demand -2: negative id" in err
    assert not (tmp_path / "lp").exists()
    assert main(["sweep", *files, "--out", str(tmp_path / "sweep")]) == 0
    events = (tmp_path / "sweep" / "events_k1_e1.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in events[1:]] == ["-2", "3"]


def test_usage_errors_exit_two(diamond_files, tmp_path):
    topo, dem = diamond_files
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--topology", topo, "--demands", dem,
              "--algorithms", "orbit,magic", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


BAD_VALUES = [("--kappa", "0"), ("--kappa", "2,x"), ("--epsilon", "0.5"),
              ("--wmax", "0"), ("--oracle-prefix", "-1")]


@pytest.mark.parametrize(
    "command, flag, value",
    [(command, flag, value) for command in ("sweep", "compare") for flag, value in BAD_VALUES]
    + [
        ("export", "--pd", "0"),
        ("sweep", "--oracle-prefix", "-5"),
        ("sweep", "--epsilon", "nan"),
        ("sweep", "--epsilon", "inf"),
        # flag values are read as the input files' numbers are: ASCII
        # digits, no '_' separators
        ("sweep", "--kappa", "1_0"),
        ("sweep", "--epsilon", "٣.5"),
        ("sweep", "--seed", "1_0"),
        ("compare", "--seed", "٣"),
        ("export", "--pd", "٢"),
    ]
    + [
        ("compare", flag, value)
        for flag, value in [
            ("--sa-t0", "0"), ("--sa-t0", "inf"), ("--sa-t0", "nan"),
            ("--sa-stop", "-1"), ("--sa-stop", "nan"),
            ("--sa-cooling", "2"), ("--sa-cooling", "1"), ("--sa-cooling", "0"),
            ("--sa-cooling", "nan"),
            ("--sa-iterations", "-1"), ("--sa-iterations", "1.5"),
        ]
    ],
)
def test_bad_flag_value_is_a_usage_error_naming_the_flag(
    diamond_files, tmp_path, capsys, command, flag, value
):
    topo, dem = diamond_files
    with pytest.raises(SystemExit) as exc:
        main([command, "--topology", topo, "--demands", dem, flag, value,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: orbitlb {command}" in err
    assert f"argument {flag}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, default", [("sweep", 0), ("compare", 10)])
def test_help_shows_the_oracle_prefix_default(capsys, command, default):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"seeds the online weights (default: {default})" in text


def test_compare_all_algorithms(diamond_files, tmp_path):
    topo, dem = diamond_files
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--topology", topo,
            "--demands", dem,
            "--kappa", "1",
            "--epsilon", "1",
            "--wmax", "2",
            "--sa-iterations", "10",
            "--sa-stop", "0.3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "algorithm,max_link_utilization,acceptance_ratio,runtime_ms"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"orbit", "oracle", "sa"}
    assert rows["oracle"][1] == "0.8"
    assert rows["oracle"][2] == "1"
    # seeded by the oracle prefix, the online run reaches the same optimum
    assert rows["orbit"][1] == "0.8"
    assert (out / "oracle_log.csv").exists()
    assert (out / "events_compare.csv").exists()


def test_compare_algorithm_subset(diamond_files, tmp_path):
    topo, dem = diamond_files
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--topology", topo,
            "--demands", dem,
            "--algorithms", "sa",
            "--sa-iterations", "5",
            "--sa-stop", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("sa,")


def test_compare_oracle_guard_writes_nan_row(diamond_files, tmp_path, capsys):
    topo, dem = diamond_files
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--topology", topo,
            "--demands", dem,
            "--algorithms", "oracle",
            "--wmax", "100",  # 100^4 combinations trips the guard
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "skipped" in capsys.readouterr().err
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1] == "oracle,nan,nan,nan"


def test_export_writes_model(diamond_files, tmp_path, capsys):
    topo, dem = diamond_files
    out = tmp_path / "out"
    code = main(
        ["export", "--topology", topo, "--demands", dem, "--pd", "2", "--out", str(out)]
    )
    assert code == 0
    text = (out / "model.lp").read_text()
    assert text.startswith("\\ delta")
    assert text.rstrip().endswith("End")
    assert "variables" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "compare", "export"])
@pytest.mark.parametrize("bad", ["topology", "demands"])
def test_non_finite_input_exits_one(diamond_files, tmp_path, capsys, command, bad):
    topo, dem = diamond_files
    files = {"topology": topo, "demands": dem}
    broken = tmp_path / f"broken.{bad}"
    if bad == "topology":
        broken.write_text(DIAMOND_TOPO.replace("link e_bt b t 2", "link e_bt b t nan"))
    else:
        broken.write_text("demand 0 s t inf -\n")
    files[bad] = str(broken)
    extra = ["--algorithms", "orbit"] if command == "compare" else []
    code = main(
        [command, "--topology", files["topology"], "--demands", files["demands"],
         *extra, "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"broken.{bad}:" in err and "must be a finite number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sweep", "--pd", "2"),
        ("compare", "--pd", "2"),
        ("export", "--kappa", "2"),
        ("export", "--epsilon", "2"),
        ("export", "--seed", "1"),
        ("export", "--wmax", "2"),
        ("export", "--oracle-prefix", "1"),
    ],
)
def test_ignored_flags_are_not_accepted(diamond_files, tmp_path, capsys, command, flag, value):
    topo, dem = diamond_files
    with pytest.raises(SystemExit) as exc:
        main([command, "--topology", topo, "--demands", dem, flag, value,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [",", ""])
def test_compare_rejects_empty_algorithm_list(diamond_files, tmp_path, capsys, value):
    topo, dem = diamond_files
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--topology", topo, "--demands", dem, "--algorithms", value,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--algorithms: list is empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--kappa", "--epsilon"])
def test_compare_rejects_value_lists(diamond_files, tmp_path, capsys, flag):
    topo, dem = diamond_files
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--topology", topo, "--demands", dem, flag, "1,2",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "one (kappa, epsilon) pair" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

"""CLI surface: subcommands, report determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from cayley_workbench.cli import build_parser, main

FRAME_1234 = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]}
FRAME_FREE = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]]}
SUBSPACE_5 = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
                          [0, 0, 0, 0, 1, 0, 0, 0]]}


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(FRAME_1234))
    return str(path)


@pytest.fixture
def free_frame_file(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps(FRAME_FREE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HELP_COMMANDS = [
    ["--help"],
    ["verify-all", "--help"],
    ["phi", "eval", "--help"],
    ["phi", "check", "--help"],
    ["phi", "reconcile", "--help"],
    ["decompose", "--help"],
    ["plane", "test", "--help"],
    ["plane", "sample", "--help"],
    ["plane", "comass", "--help"],
    ["plane", "contains-cayley", "--help"],
    ["frame", "identities", "--help"],
    ["frame", "extract", "--help"],
    ["mirror", "build", "--help"],
    ["topology", "check", "--help"],
]


@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=lambda a: " ".join(a))
def test_every_subcommand_has_help(argv):
    with pytest.raises(SystemExit) as ex:
        build_parser().parse_args(argv)
    assert ex.value.code == 0


class TestPhiCommands:
    def test_eval(self, capsys, frame_file):
        code, out, _ = run_cli(capsys, "phi", "eval", "--frame", frame_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1.0
        assert payload["raw_value"] == 1

    def test_check_builtin(self, capsys, tmp_path):
        from cayley_workbench.cayley import phi0
        form_path = tmp_path / "phi0.json"
        form_path.write_text(json.dumps(phi0().form.to_json_dict()))
        code, out, _ = run_cli(capsys, "phi", "check", "--input", str(form_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["stab_dim"] == 21

    def test_check_with_descent(self, capsys, tmp_path):
        from cayley_workbench.cayley import phi0
        form_path = tmp_path / "phi0.json"
        form_path.write_text(json.dumps(phi0().form.to_json_dict()))
        code, out, _ = run_cli(capsys, "phi", "check", "--input", str(form_path),
                               "--descend")
        assert code == 0
        assert json.loads(out)["orbit_distance_to_phi0"] < 1e-8

    def test_reconcile_builtins(self, capsys, tmp_path):
        from cayley_workbench.cayley import phi0, phi_octonionic
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(phi_octonionic().form.to_json_dict()))
        b.write_text(json.dumps(phi0().form.to_json_dict()))
        code, out, _ = run_cli(capsys, "phi", "reconcile", "--a", str(a), "--b", str(b))
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert payload["map"]["signs"] == [1, 1, 1, -1, 1, -1, -1, -1]


class TestPlaneCommands:
    def test_plane_test(self, capsys, free_frame_file):
        code, out, _ = run_cli(capsys, "plane", "test", "--frame", free_frame_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_cayley_free"] is True
        assert payload["is_cayley"] is False
        assert payload["value"] == 0.0

    def test_sample_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "plane", "sample", "--n", "2000", "--seed", "7")
        assert code == 0
        code, out2, _ = run_cli(capsys, "plane", "sample", "--n", "2000", "--seed", "7")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["max_abs_value"] <= 1 + 1e-9
        assert payload["near_cayley_count"] == 0

    def test_comass_deterministic(self, capsys):
        args = ("plane", "comass", "--restarts", "4", "--steps", "200", "--seed", "1")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert abs(json.loads(out1)["comass"] - 1.0) < 1e-5
        assert sum(json.loads(out1)["stops"].values()) == 4

    def test_contains_cayley(self, capsys, tmp_path):
        path = tmp_path / "s5.json"
        path.write_text(json.dumps(SUBSPACE_5))
        code, out, _ = run_cli(capsys, "plane", "contains-cayley", "--subspace",
                               str(path), "--restarts", "6", "--seed", "0")
        assert code == 0
        assert json.loads(out)["contains_cayley"] is True
        assert sum(json.loads(out)["stops"].values()) == 6


class TestFrameCommands:
    def test_identities_json(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "identities",
                               "--samples", "400", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        for i in "123":
            assert payload["identities"][i]["magnitudes_match"] is True

    def test_identities_csv(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "identities", "--samples", "200",
                               "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("identity,")
        assert len(lines) == 4

    def test_extract(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "extract", "--identity", "2",
                               "--samples", "300", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert abs(abs(payload["c_a"]) - 4.0) < 1e-9


class TestOtherCommands:
    def test_decompose_json(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--degree", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimensions"] == {"2_7": 7, "2_21": 21}
        assert payload["total"] == 28

    def test_decompose_csv(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--degree", "3",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "component,dimension"

    def test_mirror_build(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(json.dumps(FRAME_FREE))
        args = ("mirror", "build", "--frame", str(path))
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2  # byte-stable report
        payload = json.loads(out1)
        assert payload["composite"]["is_acs"] is True

    def test_mirror_build_refuses_calibrated(self, capsys, frame_file):
        code, _, err = run_cli(capsys, "mirror", "build", "--frame", frame_file)
        assert code == 2
        assert "not Cayley-free" in err

    def test_topology_check(self, capsys):
        code, out, _ = run_cli(capsys, "topology", "check", "--chi", "2",
                               "--sigma", "1", "--p1sq", "4", "--p2", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["intersection_cay0"] == 2
        assert payload["admits_spin7"] == "No"

    def test_report_file(self, capsys, tmp_path, frame_file):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "phi", "eval", "--frame", frame_file,
                               "--report", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["value"] == 1.0


class TestErrorPaths:
    def test_malformed_json_gets_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vectors": [[1,2,\n  oops]]}')
        code, _, err = run_cli(capsys, "phi", "eval", "--frame", str(bad))
        assert code == 2
        assert f"{bad}:2:" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "phi", "eval", "--frame", "/nonexistent.json")
        assert code == 2
        assert "No such file" in err

    def test_wrong_vector_count(self, capsys, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"vectors": [[0] * 8] * 3}))
        code, _, err = run_cli(capsys, "phi", "eval", "--frame", str(bad))
        assert code == 2
        assert "expected 4 vectors" in err

    def test_degenerate_frame_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "dup.json"
        v = [1, 0, 0, 0, 0, 0, 0, 0]
        bad.write_text(json.dumps({"vectors": [v, v, v, v]}))
        code, _, err = run_cli(capsys, "plane", "test", "--frame", str(bad))
        assert code == 2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cayley_workbench.cli",
                           "topology", "check", "--chi", "0", "--sigma", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["admits_spin7"] == "Yes_Both"

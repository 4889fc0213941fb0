"""CLI surface: subcommands, report determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from cayley_workbench.cayley import phi0, phi_octonionic
from cayley_workbench.cli import build_parser, main
from cayley_workbench.forms import KForm, blade

FRAME_1234 = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]}
FRAME_FREE = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]]}
SUBSPACE_5 = {"vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
                          [0, 0, 0, 0, 1, 0, 0, 0]]}

BROKEN_PHI0 = KForm(8, 4, {**phi0().form.terms, 0b1111: -1})  # dx1234 flipped


@pytest.fixture
def form_file(tmp_path):
    def write(form):
        path = tmp_path / f"form{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(form.to_json_dict()))
        return str(path)
    return write


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

    def test_check_builtin(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "check", "--input", form_file(phi0().form))
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["stab_dim"] == 21

    def test_check_with_descent(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "check", "--input", form_file(phi0().form),
                               "--descend")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbit_distance_to_phi0"] < 1e-8
        assert payload["orbit_method"] == "construction" and "orbit_stops" not in payload
        assert payload["orbit_residual"] == 0.0

    def test_check_with_descent_outside_the_orbit(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "check", "--input",
                               form_file(blade(8, 1, 2, 3, 4)), "--descend")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["orbit_distance_to_phi0"] - 13 ** 0.5) < 1e-9
        assert payload["orbit_method"] == "descent" and payload["orbit_residual"] is None
        assert set(payload["orbit_stops"]) == {"gtol", "line_search_stall", "step_budget"}
        assert sum(payload["orbit_stops"].values()) == 4

    def test_check_fourteen_unit_terms_not_cayley(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "check", "--input", form_file(BROKEN_PHI0))
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_match"] is None and payload["orbit_residual"] is None
        assert payload["admissible"] is False

    def test_reconcile_closest_map(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "reconcile", "--a", form_file(BROKEN_PHI0),
                               "--b", form_file(phi0().form))
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False and payload["mismatches"] == 1
        assert payload["map"] == {"perm": list(range(1, 9)), "signs": [1] * 8}
        assert payload["diff"] == [{"idx": [1, 2, 3, 4], "got": -1, "want": 1}]

    def test_reconcile_rejects_unequal_degrees(self, capsys, form_file):
        code, _, err = run_cli(capsys, "phi", "reconcile", "--a", form_file(blade(8, 1, 2, 3)),
                               "--b", form_file(blade(8, 1, 2, 3, 4)))
        assert code == 2
        assert "one degree" in err

    def test_reconcile_builtins(self, capsys, form_file):
        code, out, _ = run_cli(capsys, "phi", "reconcile", "--a",
                               form_file(phi_octonionic().form), "--b", form_file(phi0().form))
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
        # a 5-plane is answered in closed form, whatever --restarts says
        assert json.loads(out)["stops"] == {"closed_form": 1}


class TestFrameCommands:
    def test_identities_json(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "identities",
                               "--samples", "400", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        for i in "123":
            assert payload["identities"][i]["magnitudes_match"] is True

    def test_identities_are_exact(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "identities", "--seed", "3")
        assert code == 0
        assert '"c_a": -3' in out and '"c_a": -4' in out and '"c_a": 6' in out
        assert out.count('"fit_residual": 0,') == 3

    @pytest.mark.parametrize("argv, n", [(("identities", "--samples", "9"), "9"),
                                         (("extract", "--identity", "1", "--samples", "-3"),
                                          "-3")])
    def test_sample_count_at_least_ten(self, capsys, argv, n):
        code, out, err = run_cli(capsys, "frame", *argv)
        assert code == 2 and out == ""
        assert f"--samples must be at least 10, got {n}" in err

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

    def test_mirror_build_prints_positive_zero_ratio(self, capsys, free_frame_file):
        code, out, _ = run_cli(capsys, "mirror", "build", "--frame", free_frame_file)
        assert code == 0
        assert '"volume_ratio": [0, -1.3333333333333333]' in out
        assert "-0," not in out

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

    def test_timings_leave_the_report_unchanged(self, capsys, tmp_path):
        plain, timed, timings = (tmp_path / f for f in ("plain.json", "timed.json", "t.json"))
        assert run_cli(capsys, "verify-all", "--report", str(plain))[0] == 0
        code, out, _ = run_cli(capsys, "verify-all", "--report", str(timed),
                               "--timings", str(timings))
        assert code == 0 and out == ""
        assert timed.read_bytes() == plain.read_bytes()
        data = json.loads(timings.read_text())
        assert data["seed"] == 0
        assert [c["number"] for c in data["criteria"]] == list(range(1, 10))
        assert all(c["elapsed_s"] >= 0 and c["budget_s"] > 0 for c in data["criteria"])
        comass = data["criteria"][5]["diagnostics"]["comass"]
        assert set(comass["stops"]) == {"gtol", "line_search_stall", "step_budget"}
        assert sum(comass["stops"].values()) == 64
        assert comass["iterations"] > 0 and comass["backtracks"] >= 0
        assert all(c["diagnostics"] == {} for c in data["criteria"] if c["number"] != 6)

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

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_sample_count_must_be_positive(self, capsys, n):
        code, out, err = run_cli(capsys, "plane", "sample", "--n", n)
        assert code == 2 and out == ""
        assert "--n must be at least 1" in err

    @pytest.mark.parametrize("form", [blade(8, 1, 2), blade(6, 1, 2, 3, 4)],
                             ids=["2-form", "4-form-on-R6"])
    @pytest.mark.parametrize("command", [["plane", "test", "--frame"], ["plane", "comass"],
                                         ["phi", "eval", "--frame"],
                                         ["mirror", "build", "--frame"]],
                             ids=lambda c: "-".join(c[:2]))
    def test_phi_must_be_a_4form_on_r8(self, capsys, form_file, free_frame_file, command, form):
        path = form_file(form)
        argv = command + [free_frame_file] * (command[-1] == "--frame") + ["--phi", path]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert (f"{path}: --phi must be a 4-form on R^8, "
                f"got degree {form.degree} on R^{form.n}") in err

    def test_comass_needs_a_restart(self, capsys):
        code, out, err = run_cli(capsys, "plane", "comass", "--restarts", "0")
        assert code == 2 and out == ""
        assert "restarts must be at least 1" in err

    def test_subspace_needs_four_to_eight_vectors(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"vectors": FRAME_1234["vectors"][:3]}))
        code, out, err = run_cli(capsys, "plane", "contains-cayley", "--subspace", str(path))
        assert code == 2 and out == ""
        assert f"{path}: a subspace needs 4 to 8 vectors, got 3" in err

    def test_unwritable_report_is_input_error(self, capsys, tmp_path, frame_file):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "phi", "eval", "--frame", frame_file,
                                 "--report", str(path))
        assert code == 2 and out == ""
        assert f"{path}: No such file" in err

    def test_unwritable_timings_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "timings.json"
        code, out, err = run_cli(capsys, "verify-all", "--timings", str(path))
        assert code == 2 and out == ""
        assert f"{path}: No such file" in err

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_decompose_needs_an_admissible_phi(self, capsys, form_file, degree):
        path = form_file(blade(8, 1, 2, 3, 4))
        code, out, err = run_cli(capsys, "decompose", "--degree", degree, "--phi", path)
        assert code == 2 and out == ""
        assert f"{path}: form fails the admissibility certificates" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mirror_of_a_form_without_complex_structures(self, capsys, form_file,
                                                         free_frame_file):
        path = form_file(blade(8, 1, 2, 3, 4))
        code, out, err = run_cli(capsys, "mirror", "build", "--frame", free_frame_file,
                                 "--phi", path)
        assert code == 2 and out == ""
        assert f"{path}: failed to complete an adapted basis" in err

    def test_internal_value_error_exits_3(self, capsys, monkeypatch):
        def broken(chi, sigma):
            raise ValueError("broken on purpose")

        monkeypatch.setattr("cayley_workbench.topology.intersection_with_cay0", broken)
        code, out, err = run_cli(capsys, "topology", "check", "--chi", "2", "--sigma", "0")
        assert code == 3 and out == ""
        assert "internal error: ValueError('broken on purpose')" in err
        assert "Traceback (most recent call last)" in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cayley_workbench.cli",
                           "topology", "check", "--chi", "0", "--sigma", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["admits_spin7"] == "Yes_Both"

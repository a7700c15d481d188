import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uew.analysis
import uew.cli
from conftest import GS_EXACT, PC_EXACT
from uew import (
    DensityMatrix,
    Example31Config,
    HermitianOperator,
    OptimizerConfig,
    build_example31,
    noisy_member,
    sup_product_unconstrained,
)
from uew.cli import main
from uew.fileio import load_operator, operator_from_dict, operator_to_dict, save_density, save_operator
from uew.states import NoisyStateFamily


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("UEW_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "uew", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    return proc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ops")
    ex = Example31Config()
    C, L, phi = build_example31(ex)
    rho0 = DensityMatrix.from_ket(phi, dims=(2, 2))
    family = NoisyStateFamily(pure=rho0)
    paths = {
        "L": root / "L.json",
        "C": root / "C.json",
        "I4": root / "ident.json",
        "rho0": root / "rho0.json",
        "mixed": root / "mixed.json",
        "root": root,
    }
    save_operator(L, paths["L"])
    save_operator(C, paths["C"])
    save_operator(HermitianOperator.identity((2, 2)), paths["I4"])
    save_density(rho0, paths["rho0"])
    save_density(noisy_member(family, 1.0), paths["mixed"])
    # role-swapped instance (test C, constraint L, c = 0.2): the product
    # state maximising its limit test C - L lies on the <= side
    paths["swapped_argmax"] = root / "swapped_argmax.json"
    opt = sup_product_unconstrained(C - L, OptimizerConfig(seed=0))
    save_density(DensityMatrix.from_product(opt.argmax), paths["swapped_argmax"])
    return paths


def grab(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(f"{key} not in output:\n{stdout}")


class TestRoundTrip:
    def test_operator_serialization_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = HermitianOperator((g + g.conj().T) / 2, dims=(2, 2))
        path = tmp_path / "op.json"
        save_operator(op, path)
        back = load_operator(path)
        assert np.array_equal(back.mat, op.mat)
        assert back.dims == op.dims

    def test_dict_round_trip_single_party(self):
        op = HermitianOperator(np.diag([0.25, 0.75]))
        back = operator_from_dict(operator_to_dict(op))
        assert np.array_equal(back.mat, op.mat)
        assert back.dims == (2,)

    def test_rejects_non_hermitian_document(self):
        doc = {"dims": [2, 1], "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValueError):
            operator_from_dict(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_document(self, bad):
        doc = {"dims": [2, 1], "matrix": [[[bad, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError):
            operator_from_dict(doc)

    @pytest.mark.parametrize("scale", [1e5, 1e6, 1e7])
    def test_loads_large_rotated_operators(self, scale):
        # q M q^dagger written entry by entry keeps its rounding asymmetry,
        # which grows with the norm of M; an absolute band of 1e-10 rejected
        # every draw from 1e6 on
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            mat = q @ (scale * (g + g.conj().T) / 2) @ q.conj().T
            doc = {"dims": [2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in mat.tolist()]}
            back = operator_from_dict(json.loads(json.dumps(doc)))
            assert np.array_equal(back.mat, (mat + mat.conj().T) / 2)

    @pytest.mark.parametrize(
        "dims, cell",
        [
            ([1.5, 2], [1, 0]),  # a fractional dim, which int() would floor
            ([2.0, 2], [1, 0]),
            ([True, 2], [1, 0]),
            ([2, 2], [1, 0, 9]),  # three parts
            ([2, 2], [True, False]),
            ([2, 2], [1]),
            ([2, 2], ["1", 0]),
            ([2, 2], 1.0),
            ([2, 2], [10**400, 0]),  # an integer past the float range
        ],
    )
    def test_rejects_malformed_documents(self, dims, cell):
        doc = operator_to_dict(HermitianOperator.identity((2, 2)))
        doc["dims"] = dims
        doc["matrix"][0][0] = cell
        with pytest.raises(ValueError, match="malformed operator document"):
            operator_from_dict(doc)

    def test_rejects_ragged_rows(self):
        doc = {"dims": [2, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}
        with pytest.raises(ValueError, match="malformed operator document"):
            operator_from_dict(doc)

    def test_relative_band_still_rejects_non_hermitian_document(self):
        doc = {"dims": [2, 1], "matrix": [[[1e5, 0], [1e-4, 0]], [[0, 0], [1e5, 0]]]}  # 1e-9 of the largest entry
        with pytest.raises(ValueError, match="Hermitian"):
            operator_from_dict(doc)


class TestGs:
    def test_identity(self, files):
        proc = run_cli("gs", "--test", str(files["I4"]), "--seed", "1")
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "g_s")) == pytest.approx(1.0, abs=1e-10)

    def test_worked_example(self, files):
        proc = run_cli("gs", "--test", str(files["L"]), "--seed", "2")
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "g_s")) == pytest.approx(GS_EXACT, abs=1e-6)
        assert grab(proc.stdout, "converged") == "true"

    def test_malformed_json_exits_1(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("gs", "--test", str(bad))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "dims, cell",
        [
            ([1.5, 2], [1.0, 0.0]),
            ([2, 2], [1.0, 0.0, 9.0]),
            ([2, 2], [True, False]),
            ([2, 2], [10**400, 0]),
        ],
    )
    def test_malformed_document_exits_1(self, tmp_path, dims, cell):
        path = tmp_path / "bad.json"
        doc = operator_to_dict(HermitianOperator.identity((2, 2)))
        doc["dims"] = dims
        doc["matrix"][0][0] = cell
        path.write_text(json.dumps(doc))
        proc = run_cli("gs", "--test", str(path))
        assert proc.returncode == 1
        assert "malformed operator document" in proc.stderr
        assert "g_s" not in proc.stdout

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_exits_1(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        doc = operator_to_dict(HermitianOperator.identity((2, 2)))
        doc["matrix"][1][1] = [bad, 0.0]
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
        proc = run_cli("gs", "--test", str(path))
        assert proc.returncode == 1
        assert "finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "g_s" not in proc.stdout


class TestPc:
    def test_geq_interior(self, files):
        proc = run_cli(
            "pc", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "1/100", "--side", "geq", "--seed", "0",
        )
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "p_c")) == pytest.approx(GS_EXACT, abs=1e-6)
        assert grab(proc.stdout, "boundary_active") == "false"

    def test_leq_boundary(self, files):
        proc = run_cli(
            "pc", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "1/100", "--side", "leq", "--seed", "0",
        )
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "p_c")) == pytest.approx(PC_EXACT, abs=1e-8)
        assert grab(proc.stdout, "boundary_active") == "true"

    def test_leq_near_the_cut_is_not_active(self, files):
        # the unconstrained optimum has <C> = 0.24999999999999992, 5e-7 inside
        # the cut: far outside the 1e-9 boundary band
        proc = run_cli(
            "pc", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "0.2500005", "--side", "leq", "--seed", "0",
        )
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "p_c")) == pytest.approx(GS_EXACT, abs=1e-12)
        assert grab(proc.stdout, "method") == "seesaw"
        assert grab(proc.stdout, "boundary_active") == "false"

    def test_infeasible_exits_3(self, files):
        proc = run_cli(
            "pc", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "-0.5", "--side", "leq",
        )
        assert proc.returncode == 3

    def test_qubit_qutrit_boundary(self, tmp_path):
        # max 0.2 p0 q0 + p1 q2 subject to p1 q2 <= 1/4 has value 0.3 on the cut
        L, C = tmp_path / "L.json", tmp_path / "C.json"
        save_operator(HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3)), L)
        save_operator(HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3)), C)
        proc = run_cli(
            "pc", "--test", str(L), "--constraint", str(C),
            "--cvalue", "1/4", "--side", "leq", "--seed", "0", "--restarts", "16",
        )
        assert proc.returncode == 0
        assert float(grab(proc.stdout, "p_c")) == pytest.approx(0.3, abs=1e-9)
        assert grab(proc.stdout, "method") == "hybrid"
        assert grab(proc.stdout, "boundary_active") == "true"
        assert float(grab(proc.stdout, "constraint_value")) <= 0.25


class TestScan:
    def test_full_row(self, files):
        proc = run_cli(
            "scan", "--example31", "--x", "2/3", "--cvalue", "1/100",
            "--alphas", "0,-1,-10,-100,-inf", "--seed", "11",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "alpha,bound,threshold_p"
        assert len(lines) == 6
        alphas = [ln.split(",")[0] for ln in lines[1:]]
        assert alphas == ["0.0", "-1.0", "-10.0", "-100.0", "-inf"]

    def test_single_alpha(self, files):
        proc = run_cli("scan", "--example31", "--alphas", "0", "--seed", "4")
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 2

    def test_alpha_validation(self, files):
        proc = run_cli("scan", "--example31", "--alphas", "2")
        assert proc.returncode == 1

    @pytest.mark.parametrize("alphas, cvalue", [("1/0", "1/100"), ("0", "1/0"), ("0", "nan"), ("0", "inf")])
    def test_zero_denominator_exits_1(self, files, alphas, cvalue):
        proc = run_cli("scan", "--example31", "--alphas", alphas, "--cvalue", cvalue)
        assert proc.returncode == 1
        assert ("finite" if cvalue in ("nan", "inf") else "denominator") in proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_without_example31_exits_1(self):
        proc = run_cli("scan", "--alphas", "0")
        assert proc.returncode == 1
        assert "scan currently supports only the built-in --example31 instance" in proc.stderr
        assert proc.stdout == ""
        assert "wall_time_s" not in proc.stderr

    def test_byte_identical_reruns(self, files):
        args = ("scan", "--example31", "--alphas", "0,-1,-inf", "--seed", "9")
        out1 = run_cli(*args)
        out2 = run_cli(*args)
        assert out1.stdout == out2.stdout
        assert out1.returncode == out2.returncode == 0


class TestDetect:
    def test_rotated_detects_pure_state(self, files):
        proc = run_cli(
            "detect", "--state", str(files["rho0"]), "--test", str(files["L"]),
            "--constraint", str(files["C"]), "--cvalue", "0.01", "--alpha", "-1", "--seed", "0",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "verdict") == "entangled"
        assert grab(proc.stdout, "side") == "leq"

    def test_maximally_mixed_not_detected(self, files):
        proc = run_cli(
            "detect", "--state", str(files["mixed"]), "--test", str(files["L"]),
            "--constraint", str(files["C"]), "--cvalue", "0.01", "--seed", "0",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "verdict") == "not-detected"

    def test_limit_witness_detects_pure_state(self, files):
        proc = run_cli(
            "detect", "--state", str(files["rho0"]), "--test", str(files["L"]),
            "--constraint", str(files["C"]), "--cvalue", "0.01", "--alpha", "-inf", "--seed", "0",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "verdict") == "entangled"

    @pytest.mark.parametrize("spelling", ["-Infinity", "-INF"])
    def test_limit_witness_other_spellings(self, files, spelling):
        proc = run_cli(
            "detect", "--state", str(files["rho0"]), "--test", str(files["L"]),
            "--constraint", str(files["C"]), "--cvalue", "0.01", "--alpha", spelling, "--seed", "0",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "verdict") == "entangled"

    def test_limit_witness_spares_swapped_product_argmax(self, files):
        proc = run_cli(
            "detect", "--state", str(files["swapped_argmax"]), "--test", str(files["C"]),
            "--constraint", str(files["L"]), "--cvalue", "0.2", "--alpha", "-inf", "--seed", "0",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "side") == "leq"
        assert grab(proc.stdout, "verdict") == "not-detected"

    def test_state_with_other_party_dims_exits_1(self, tmp_path):
        # a (3, 2) state has the total dimension of the (2, 3) operators,
        # but their witness bound belongs to the (2, 3) factorisation
        paths = {name: tmp_path / f"{name}.json" for name in ("L6", "C6", "rho32")}
        save_operator(HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3)), paths["L6"])
        save_operator(HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3)), paths["C6"])
        save_density(DensityMatrix.maximally_mixed((3, 2)), paths["rho32"])
        proc = run_cli(
            "detect", "--state", str(paths["rho32"]), "--test", str(paths["L6"]),
            "--constraint", str(paths["C6"]), "--cvalue", "0.1",
        )
        assert proc.returncode == 1
        assert "state dims (3, 2) vs operator dims (2, 3)" in proc.stderr
        assert "verdict" not in proc.stdout

    def test_state_checked_before_any_solve(self, tmp_path, monkeypatch, capsys):
        paths = {name: tmp_path / f"{name}.json" for name in ("L6", "C6", "rho32")}
        save_operator(HermitianOperator(np.diag([0.2, 0, 0, 0, 0, 1.0]), dims=(2, 3)), paths["L6"])
        save_operator(HermitianOperator(np.diag([0, 0, 0, 0, 0, 1.0]), dims=(2, 3)), paths["C6"])
        save_density(DensityMatrix.maximally_mixed((3, 2)), paths["rho32"])
        calls = []
        monkeypatch.setattr(uew.analysis, "sup_product_constrained", lambda *a: calls.append(a))
        code = main([
            "detect", "--state", str(paths["rho32"]), "--test", str(paths["L6"]),
            "--constraint", str(paths["C6"]), "--cvalue", "0.1",
        ])
        assert code == 1
        assert "state dims (3, 2) vs operator dims (2, 3)" in capsys.readouterr().err
        assert calls == []

    def test_non_state_input_exits_1(self, files, tmp_path):
        bad = tmp_path / "notpsd.json"
        mat = np.diag([1.5, -0.5, 0.0, 0.0])
        doc = {"dims": [2, 2], "matrix": [[[float(mat[i, j]), 0.0] for j in range(4)] for i in range(4)]}
        bad.write_text(json.dumps(doc))
        proc = run_cli(
            "detect", "--state", str(bad), "--test", str(files["L"]),
            "--constraint", str(files["C"]), "--cvalue", "0.01",
        )
        assert proc.returncode == 1


class TestNonFiniteCvalue:
    @pytest.mark.parametrize("cvalue", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["pc", "detect", "alpha0"])
    def test_exits_1_without_a_result(self, files, command, cvalue, capsys):
        extra = {"pc": ["--side", "leq"], "detect": ["--state", str(files["rho0"])], "alpha0": []}[command]
        code = main([
            command, "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", cvalue, "--restarts", "8", *extra,
        ])
        out, err = capsys.readouterr()
        assert code == 1
        assert "must be finite" in err
        # the report header only
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["command", "config", "tool"]


class TestAlpha0:
    def test_worked_example_reports_case_i_and_no_threshold(self, files):
        proc = run_cli(
            "alpha0", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "1/100", "--restarts", "24", "--seed", "3",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "case") == "case-i"
        assert grab(proc.stdout, "alpha0") == "none"

    def test_role_swapped_reports_finite_threshold(self, files):
        proc = run_cli(
            "alpha0", "--test", str(files["C"]), "--constraint", str(files["L"]),
            "--cvalue", "0.2", "--restarts", "24", "--seed", "3",
        )
        assert proc.returncode == 0
        assert grab(proc.stdout, "case") == "case-ii"
        a0 = float(grab(proc.stdout, "alpha0"))
        assert -0.5 < a0 < -0.2

    def test_cut_through_the_optimum_reports_degenerate(self, files, capsys):
        # <C> at the worked test operator's product optimum is 1/4
        code = main([
            "alpha0", "--test", str(files["L"]), "--constraint", str(files["C"]),
            "--cvalue", "1/4", "--seed", "0",
        ])
        assert code == 0
        assert grab(capsys.readouterr().out, "case") == "degenerate"

    def test_infinite_bracket_min_exits_1(self, files):
        proc = run_cli(
            "alpha0", "--test", str(files["C"]), "--constraint", str(files["L"]),
            "--cvalue", "0.2", "--restarts", "24", "--seed", "3", "--bracket-min", "-inf",
        )
        assert proc.returncode == 1
        assert "--bracket-min" in proc.stderr  # the flag is gone
        assert "infeasible" not in proc.stderr
        assert "Warning" not in proc.stderr

    def test_identical_operators_exit_1(self, files):
        proc = run_cli(
            "alpha0", "--test", str(files["L"]), "--constraint", str(files["L"]),
            "--cvalue", "0.1",
        )
        assert proc.returncode == 1
        assert "differ" in proc.stderr


class TestPlane:
    def test_single_state(self, files, tmp_path):
        d = tmp_path / "states"
        d.mkdir()
        save_density(DensityMatrix.maximally_mixed((2, 2)), d / "mixed.json")
        proc = run_cli("plane", "--states", str(d), "--test", str(files["L"]), "--constraint", str(files["C"]))
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "label,x,y"
        label, x, y = lines[1].split(",")
        assert label == "mixed"
        assert float(x) == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert float(y) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_empty_directory_header_only(self, files, tmp_path):
        d = tmp_path / "none"
        d.mkdir()
        proc = run_cli("plane", "--states", str(d), "--test", str(files["L"]), "--constraint", str(files["C"]))
        assert proc.returncode == 0
        assert proc.stdout == "label,x,y\n"

    def test_invalid_file_exits_1_with_name(self, files, tmp_path):
        d = tmp_path / "mix"
        d.mkdir()
        save_density(DensityMatrix.maximally_mixed((2, 2)), d / "good.json")
        (d / "broken.json").write_text("{oops")
        proc = run_cli("plane", "--states", str(d), "--test", str(files["L"]), "--constraint", str(files["C"]))
        assert proc.returncode == 1
        assert "broken.json" in proc.stderr


class TestSeedResolution:
    def test_env_seed_used_without_flag(self, files):
        proc = run_cli("gs", "--test", str(files["I4"]), env_extra={"UEW_SEED": "77"})
        assert "seed=77" in proc.stdout

    def test_flag_wins_over_env(self, files):
        proc = run_cli("gs", "--test", str(files["I4"]), "--seed", "5", env_extra={"UEW_SEED": "77"})
        assert "seed=5" in proc.stdout
        assert "config: seed=5 restarts=64" in proc.stdout.splitlines()

    def test_report_reproducible_apart_from_wall_time(self, files):
        out1 = run_cli("gs", "--test", str(files["L"]), "--seed", "5").stdout
        out2 = run_cli("gs", "--test", str(files["L"]), "--seed", "5").stdout
        strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("wall_time")]
        assert strip(out1) == strip(out2)


class TestNoConvergence:
    """Exit code 2 keeps the partial report inside the full frame."""

    @staticmethod
    def unconverged(monkeypatch, name):
        solve = getattr(uew.cli, name)
        monkeypatch.setattr(uew.cli, name, lambda *a: dataclasses.replace(solve(*a), converged=False))

    @pytest.mark.parametrize(
        "command, solver, extra, partial",
        [
            ("gs", "sup_product_unconstrained", [], ["g_s", "argmax_a", "argmax_b", "converged"]),
            (
                "pc", "sup_product_constrained",
                ["--constraint", "C", "--cvalue", "1/100", "--side", "leq"],
                ["p_c", "argmax_a", "argmax_b", "constraint_value", "boundary_active", "method"],
            ),
            ("alpha0", "sup_product_constrained", ["--constraint", "C", "--cvalue", "1/100"], ["case"]),
        ],
    )
    def test_exits_2_with_header_partial_report_and_footer(
        self, files, monkeypatch, capsys, command, solver, extra, partial
    ):
        self.unconverged(monkeypatch, solver)
        extra = [str(files["C"]) if tok == "C" else tok for tok in extra]
        code = main([command, "--test", str(files["L"]), *extra, "--seed", "0", "--restarts", "8"])
        out, err = capsys.readouterr()
        assert code == 2
        keys = [ln.split(":")[0] for ln in out.splitlines()]
        assert keys == ["command", "config", "tool", *partial, "wall_time_s"]
        assert "config: seed=0 restarts=8" in out.splitlines()
        assert err == ""
        if command == "gs":
            assert grab(out, "converged") == "false"


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    monkeypatch.setattr(uew.cli, "_build_parser", lambda: pytest.fail("main rebuilt the parser"))
    assert main(["gs", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: uew gs")


def test_readme_scan_block(capsys):
    # the README's worked scan, run through main, prints that block's CSV byte for byte
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```sh\n\$ uew (scan --example31 --x 4/5 [^\n]*)\n(.*?)```", readme, re.S)
    assert main(block.group(1).split()) == 0
    assert capsys.readouterr().out == block.group(2)

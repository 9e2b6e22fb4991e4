import csv
import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

import ifestates.cli as cli
from ifestates import core, linalg
from ifestates.cli import main
from ifestates.core import ife_sectors, ife_sectors_oracle
from ifestates.linalg import hermiticity_defect
from ifestates.mixed import (
    _block_size,
    _uses_frequencies,
    block_structure_residuals,
    random_ife_mixed,
    trace_density_matrix,
)
from ifestates.serialize import canonical_dumps, load_state, load_system, pairs_to_matrix, save_system

from helpers import (
    MALFORMED_FIELDS,
    commutator,
    commuting_system,
    edited_copy,
    factorized_operators,
    matrix_to_pairs,
    record_factorizations,
    snapped_coupling,
)


def run_cli(*argv):
    return main(list(argv))


def normalized(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["timing_ms"] = 0.0
    return canonical_dumps(doc)


@pytest.fixture()
def star_file(data_dir):
    return str(data_dir / "system_spin_star_n2.json")


class TestSectors:
    def test_spin_star_exit_zero(self, star_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("sectors", star_file, "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["exit_code"] == 0
        assert len(report["sectors"]) == 1
        assert abs(report["sectors"][0]["alpha"]) < 1e-10
        assert report["sectors"][0]["dimension"] == 4
        assert report["commutator_kernel_dimension"] == 4

    def test_include_bases(self, star_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("sectors", star_file, "--include-bases", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        basis = report["sectors"][0]["basis"]
        assert len(basis) == 8 and len(basis[0]) == 4 and len(basis[0][0]) == 2

    def test_no_ife_states_exit_three(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("sectors", str(data_dir / "system_no_ife.json"), "--out", str(out))
        assert code == 3
        report = json.loads(out.read_text())
        assert report["sectors"] == []
        assert report["exit_code"] == 3

    def test_uncoupled_system_single_full_sector(self, tmp_path):
        # zero coupling: every state is IFE, one sector spans everything
        from ifestates import BipartiteSystem
        from ifestates.serialize import save_system

        sys_ = BipartiteSystem(
            2, 3,
            np.diag([1.0, -1.0]).astype(complex),
            np.diag([0.2, 0.4, 0.6]).astype(complex),
            np.zeros((6, 6), dtype=complex),
        )
        path = tmp_path / "uncoupled.json"
        save_system(sys_, path)
        out = tmp_path / "report.json"
        assert run_cli("sectors", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert len(report["sectors"]) == 1
        assert report["sectors"][0]["alpha"] == 0
        assert report["sectors"][0]["dimension"] == 6

    def test_non_hermitian_file_exit_one(self, data_dir, capsys):
        code = run_cli("sectors", str(data_dir / "system_bad_hermitian.json"))
        assert code == 1
        assert "'h_i'" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert run_cli("sectors", str(tmp_path / "absent.json")) == 1

    @pytest.mark.parametrize("field, value", [("h_i", float("nan")), ("h_a", float("inf"))])
    def test_non_finite_field_exit_one(self, star_file, tmp_path, capsys, field, value):
        # rejected at load with the field named, not exit 2 from an SVD
        doc = json.loads(Path(star_file).read_text(encoding="utf-8"))
        doc[field][0][0][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("sectors", str(path)) == 1
        err = capsys.readouterr().err
        assert f"field '{field}' has non-finite entries" in err

    @pytest.mark.parametrize("case, name, field, index, value", MALFORMED_FIELDS,
                             ids=[c[0] for c in MALFORMED_FIELDS])
    def test_malformed_field_exit_one(self, star_file, data_dir, tmp_path, capsys,
                                      case, name, field, index, value):
        path = edited_copy(data_dir / name, tmp_path / "bad.json", field, index, value)
        if name.startswith("system"):
            argv = ["sectors", str(path)]
        else:
            argv = ["verify", star_file, "--state", str(path)]
        assert run_cli(*argv) == 1
        assert f"error: {path}: field {field!r}" in capsys.readouterr().err

    def test_batch_mode(self, data_dir, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        shutil.copy(data_dir / "system_spin_star_n2.json", batch / "a.json")
        shutil.copy(data_dir / "system_no_ife.json", batch / "b.json")
        out_dir = tmp_path / "reports"
        code = run_cli("sectors", str(batch), "--batch", "--out", str(out_dir))
        assert code == 3  # worst exit among files
        assert json.loads((out_dir / "a.report.json").read_text())["exit_code"] == 0
        assert json.loads((out_dir / "b.report.json").read_text())["exit_code"] == 3

    def test_batch_mode_follows_exit_table(self, data_dir, tmp_path, monkeypatch, capsys):
        import ifestates.cli as cli
        from ifestates import ResonanceError

        raised = {
            "linalg": np.linalg.LinAlgError("SVD did not converge"),
            "float": FloatingPointError("overflow"),
            "resonance": ResonanceError("omega0 == omega"),
        }
        real_load = cli.load_system

        def load(path):
            if path.stem in raised:
                raise raised[path.stem]
            return real_load(path)

        monkeypatch.setattr(cli, "load_system", load)

        def run_batch(*names):
            batch = tmp_path / "-".join(names)
            batch.mkdir()
            for name in names:
                if name == "malformed":
                    (batch / "malformed.json").write_text("{", encoding="utf-8")
                else:
                    shutil.copy(data_dir / "system_spin_star_n2.json", batch / f"{name}.json")
            return run_cli("sectors", str(batch), "--batch", "--out", str(batch / "reports")), batch

        assert run_batch("ok", "malformed")[0] == 1
        assert run_batch("ok", "linalg", "malformed")[0] == 2
        assert run_batch("ok", "float")[0] == 2
        capsys.readouterr()
        code, batch = run_batch("linalg", "malformed", "ok", "resonance")
        assert code == 5  # the worst code over the files
        err = capsys.readouterr().err
        assert f"error: numerical failure: {batch / 'linalg.json'}: SVD did not converge" in err
        assert f"error: {batch / 'malformed.json'}: " in err
        assert f"error: resonance: {batch / 'resonance.json'}: omega0 == omega" in err
        # each line names its file once, whether or not the loader's message names it too
        lines = err.splitlines()
        assert len(lines) == 3
        for name in ("linalg", "malformed", "resonance"):
            line, = (text for text in lines if f"{name}.json" in text)
            assert line.count(str(batch / f"{name}.json")) == 1, line
        # files after a failure are still processed
        assert json.loads((batch / "reports" / "ok.report.json").read_text())["exit_code"] == 0

    # h_a nested 100 000 levels deep, read three ways: orjson parses it and
    # numpy rejects the depth; a ``true`` inside makes the boolean scan walk
    # it; a NaN elsewhere sends the file to ``json``, which hits its
    # recursion limit.  (inner text, h_i[0][0][0], error when orjson reads it)
    DEEP = {
        "plain": ("", None, "field 'h_a' must be a square matrix"),
        "bool": ("true", None, "field 'h_a' holds a boolean"),
        "nan": ("", float("nan"), None),
    }

    def deep_copy(self, star_file, path, variant):
        """Write the deep copy to ``path``; return the error it must give."""
        inner, h_i_entry, message = self.DEEP[variant]
        doc = json.loads(Path(star_file).read_text(encoding="utf-8"))
        doc["h_a"] = "@deep@"
        if h_i_entry is not None:
            doc["h_i"][0][0][0] = h_i_entry
        depth = 100_000
        path.write_text(json.dumps(doc).replace('"@deep@"', "[" * depth + inner + "]" * depth),
                        encoding="utf-8")
        try:
            orjson.loads(path.read_bytes())
        except orjson.JSONDecodeError:  # the NaN, or an orjson that caps the depth
            return "not valid JSON: maximum recursion depth exceeded"
        return message

    @pytest.mark.parametrize("variant", DEEP)
    def test_deep_nesting_exit_one(self, star_file, tmp_path, capsys, variant):
        path = tmp_path / "deep.json"
        message = self.deep_copy(star_file, path, variant)
        assert run_cli("sectors", str(path)) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("variant", DEEP)
    def test_batch_goes_past_deep_file(self, star_file, tmp_path, capsys, variant):
        batch = tmp_path / "batch"
        batch.mkdir()
        message = self.deep_copy(star_file, batch / "a_deep.json", variant)
        shutil.copy(star_file, batch / "b_ok.json")
        assert run_cli("sectors", str(batch), "--batch", "--out", str(tmp_path / "reports")) == 1
        assert f"{batch / 'a_deep.json'}: {message}" in capsys.readouterr().err
        report = json.loads((tmp_path / "reports" / "b_ok.report.json").read_text())
        assert report["exit_code"] == 0

    def test_undecodable_bytes_exit_one(self, star_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(Path(star_file).read_bytes().replace(b"spin-star", b"spin\xffstar"))
        assert run_cli("sectors", str(path)) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff" in err

    def test_twenty_digit_dim_exit_one(self, star_file, tmp_path, capsys):
        # orjson reads an integer beyond 2**64 as a float, so the dimension
        # itself is rejected; json kept the integer and failed at 'h_a'.
        path = edited_copy(star_file, tmp_path / "bad.json", "dim_a", (), 99999999999999999999)
        assert run_cli("sectors", str(path)) == 1
        assert f"error: {path}: field 'dim_a' must be a positive integer" in capsys.readouterr().err

    def test_golden_report(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli("sectors", star_file, "--out", str(out))
        golden = (data_dir / "report_sectors_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden

    @pytest.mark.parametrize("system, options, golden, want", [
        ("system_two_sectors.json", ["--include-bases"], "report_sectors_two_sectors.json", 0),
        ("system_no_ife.json", [], "report_sectors_no_ife.json", 3),
    ])
    def test_golden_report_non_star(self, data_dir, tmp_path, system, options, golden, want):
        out = tmp_path / "report.json"
        assert run_cli("sectors", str(data_dir / system), *options, "--out", str(out)) == want
        assert normalized(out) == (data_dir / golden).read_text(encoding="utf-8")


class TestVerify:
    def test_ife_vector_exit_zero(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", star_file, "--state", str(data_dir / "state_ife_n2.json"),
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["claims"][0]["pass"] is True
        assert report["claims"][0]["residual"] <= 1e-9 * np.sqrt(8)

    def test_flip_flop_vector_exit_four(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", star_file,
                       "--state", str(data_dir / "state_plus_down_down_n2.json"),
                       "--out", str(out))
        assert code == 4
        report = json.loads(out.read_text())
        assert report["claims"][0]["residual"] > 0.1

    def test_single_point_grid_trivially_passes(self, star_file, data_dir, tmp_path):
        code = run_cli("verify", star_file,
                       "--state", str(data_dir / "state_plus_down_down_n2.json"),
                       "--t-max", "0", "--steps", "1", "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_sector_mode(self, star_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", star_file, "--sector", "0", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert len(report["claims"]) == 4
        assert all(c["pass"] for c in report["claims"])

    def test_sector_out_of_range(self, star_file):
        assert run_cli("verify", star_file, "--sector", "5") == 1

    def test_density_matrix_state(self, star_file, data_dir, tmp_path):
        code = run_cli("verify", star_file, "--state", str(data_dir / "rho_ife_n2.json"),
                       "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_csv_traces(self, star_file, data_dir, tmp_path):
        csv_path = tmp_path / "traces.csv"
        run_cli("verify", star_file, "--state", str(data_dir / "state_ife_n2.json"),
                "--out", str(tmp_path / "r.json"), "--csv", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "vector,time,deviation,energy_a,energy_b,covariance"
        assert len(lines) == 102

    def test_unnormalized_state_exit_one(self, star_file, tmp_path):
        bad = tmp_path / "bad_state.json"
        bad.write_text('{"vector": [[1.0, 0.0], [1.0, 0.0]]}')
        assert run_cli("verify", star_file, "--state", str(bad)) == 1

    @pytest.mark.parametrize("command, payload, message", [
        ("verify", {"vector": [[0.5, 0.0]] * 4}, "state has dimension 4, expected 8"),
        ("verify", {"vector": [[0.5, 0.0]] * 8}, "state is not normalized: ||psi|| = "),
        ("verify", {"rho": matrix_to_pairs(np.eye(4) / 4)}, "state has dimension 4, expected 8"),
        ("mixed", {"rho": matrix_to_pairs(np.eye(4) / 4)}, "state has dimension 4, expected 8"),
    ], ids=["vector_size", "vector_norm", "verify_rho_size", "mixed_rho_size"])
    def test_state_checks_share_one_message(self, star_file, tmp_path, capsys,
                                            command, payload, message):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "r.json"
        assert run_cli(command, star_file, "--state", str(state), "--out", str(out)) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_golden_report(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli("verify", star_file, "--state", str(data_dir / "state_ife_n2.json"),
                "--out", str(out))
        golden = (data_dir / "report_verify_ife_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden

    def test_golden_density_matrix_report(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", star_file, "--state", str(data_dir / "rho_ife_n2.json"),
                       "--out", str(out)) == 0
        golden = (data_dir / "report_verify_rho_ife_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden


class TestSpinStar:
    def test_check_all_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("spin-star", "--n", "2", "--omega0", "1.0", "--omega", "0.7",
                       "--gammas", "3,4", "--check-all", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert [c["pass"] for c in report["claims"]] == [True] * 4
        assert report["sectors"][0]["dimension"] == 4
        assert len(report["sectors"][0]["basis"]) == 8

    def test_n3_dimension(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("spin-star", "--n", "3", "--omega0", "0.3", "--omega", "1.1",
                       "--gammas", "0.5,1.0,0.25", "--check-all", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["sectors"][0]["dimension"] == 6

    def test_resonance_exit_five(self, capsys):
        code = run_cli("spin-star", "--n", "2", "--omega0", "1.0", "--omega", "1.0",
                       "--gammas", "3,4")
        assert code == 5
        assert "resonance" in capsys.readouterr().err

    def test_resonance_checked_before_dressing(self, capsys):
        # the dressing rejects a negative coupling with exit 1; resonance wins
        code = run_cli("spin-star", "--n", "2", "--omega0", "1.0", "--omega", "1.0",
                       "--gammas=-3,4", "--check-all")
        assert code == 5
        assert "resonance" in capsys.readouterr().err

    def test_dressed_blocks_built_once_per_call(self, monkeypatch, tmp_path):
        import ifestates.spin_star as spin_star

        calls = []

        def counted(name):
            original = getattr(spin_star, name)
            monkeypatch.setattr(spin_star, name,
                                lambda *a, **k: calls.append(name) or original(*a, **k))

        counted("dressed_blocks")
        counted("_embed_block")
        code = run_cli("spin-star", "--n", "4", "--omega0", "1.0", "--omega", "0.7",
                       "--gammas", "1,1.2,0.8,1.5", "--check-all", "--out", str(tmp_path / "r.json"))
        assert code == 0
        # each of the 2 x 3 blocks is embedded once, for the report and the claims alike
        assert calls == ["dressed_blocks"] + ["_embed_block"] * 6

    def test_bad_gammas_exit_one(self):
        assert run_cli("spin-star", "--n", "2", "--omega0", "1.0", "--omega", "0.7",
                       "--gammas", "3,oops") == 1

    def test_wrong_gamma_count_exit_one(self):
        assert run_cli("spin-star", "--n", "3", "--omega0", "1.0", "--omega", "0.7",
                       "--gammas", "3,4") == 1

    def test_verdict_is_residual_within_tolerance(self, tmp_path):
        # at --tol 1e-200 the sector computation finds no sector: every claim but
        # the eigenvector one fails, and each report verdict is the library's
        from ifestates import SpinStarParams, verify_spin_star_claims

        out = tmp_path / "report.json"
        argv = ["--n", "3", "--omega0", "1.0", "--omega", "0.7", "--gammas", "3,4,5",
                "--check-all", "--tol", "1e-200"]
        assert run_cli("spin-star", *argv, "--out", str(out)) == 6
        claims = json.loads(out.read_text())["claims"]
        results = verify_spin_star_claims(SpinStarParams(3, 1.0, 0.7, (3.0, 4.0, 5.0)), 1e-200)
        assert [c["name"] for c in claims] == [r.name for r in results]
        assert [c["pass"] for c in claims] == [r.passed for r in results] == [False] * 3 + [True]
        for claim in claims:
            assert claim["pass"] == (claim["residual"] <= claim["tolerance"])
        assert claims[1]["residual"] >= 1.0

    def test_golden_report(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli("spin-star", "--n", "2", "--omega0", "1.0", "--omega", "0.7",
                "--gammas", "3,4", "--check-all", "--out", str(out))
        golden = (data_dir / "report_spin_star_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden


class TestOracleDiff:
    def test_spin_star_matches(self, star_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("oracle-diff", star_file, "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["claims"])

    def test_two_sector_system_matches(self, data_dir, tmp_path):
        code = run_cli("oracle-diff", str(data_dir / "system_two_sectors.json"),
                       "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_spin_star_n3_single_matching_sector(self, tmp_path):
        from ifestates import SpinStarParams, build_spin_star
        from ifestates.serialize import save_system

        sys_ = build_spin_star(SpinStarParams(3, 0.3, 1.1, (0.5, 1.0, 0.25)))
        path = tmp_path / "n3.json"
        save_system(sys_, path)
        out = tmp_path / "report.json"
        assert run_cli("oracle-diff", str(path), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert len(report["sectors"]) == 1
        assert report["sectors"][0]["dimension"] == 6

    def test_fat_tolerance_can_mismatch(self, data_dir, tmp_path):
        # with an absurd cutoff the two routes keep different directions
        code = run_cli("oracle-diff", str(data_dir / "system_no_ife.json"),
                       "--tol", "0.5", "--out", str(tmp_path / "r.json"))
        assert code == 6

    def test_golden_report(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli("oracle-diff", star_file, "--out", str(out))
        golden = (data_dir / "report_oracle_diff_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden

    def test_golden_report_two_sectors(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("oracle-diff", str(data_dir / "system_two_sectors.json"), "--out", str(out)) == 0
        golden = (data_dir / "report_oracle_diff_two_sectors.json").read_text(encoding="utf-8")
        assert normalized(out) == golden


class TestMixed:
    def test_ife_density_matrix_exit_zero(self, star_file, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("mixed", star_file, "--state", str(data_dir / "rho_ife_n2.json"),
                       "--out", str(out))
        assert code == 0
        golden = (data_dir / "report_mixed_rho_ife_n2.json").read_text(encoding="utf-8")
        assert normalized(out) == golden

    def test_cross_sector_state_exit_four(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("mixed", str(data_dir / "system_two_sectors.json"),
                       "--state", str(data_dir / "rho_cross_two_sectors.json"),
                       "--out", str(out))
        assert code == 4
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["claims"]}
        assert not by_name["cross_sector_coherence"]["pass"]
        assert not by_name["dynamical_deviation"]["pass"]

    def test_sampling_mode(self, star_file, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("mixed", star_file, "--samples", "3", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["samples"]) == 3
        assert all(c["pass"] for c in report["claims"])

    def test_sampling_deterministic_given_seed(self, star_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli("mixed", star_file, "--samples", "2", "--seed", "99", "--out", str(out))
            outs.append(normalized(out))
        assert outs[0] == outs[1]

    def test_sampling_without_sectors_exit_three(self, data_dir, tmp_path):
        code = run_cli("mixed", str(data_dir / "system_no_ife.json"),
                       "--out", str(tmp_path / "r.json"))
        assert code == 3

    def test_vector_state_rejected(self, star_file, data_dir):
        assert run_cli("mixed", star_file, "--state", str(data_dir / "state_ife_n2.json")) == 1

    def test_csv_without_state_exit_one(self, star_file, tmp_path, capsys):
        out, csv_path = tmp_path / "r.json", tmp_path / "x.csv"
        assert run_cli("mixed", star_file, "--samples", "1", "--csv", str(csv_path),
                       "--out", str(out)) == 1
        assert "error: --csv requires --state" in capsys.readouterr().err
        assert not csv_path.exists() and not out.exists()

    def test_csv_with_state_writes_rows(self, star_file, data_dir, tmp_path):
        out, csv_path = tmp_path / "r.json", tmp_path / "x.csv"
        assert run_cli("mixed", star_file, "--state", str(data_dir / "rho_ife_n2.json"),
                       "--steps", "4", "--out", str(out), "--csv", str(csv_path)) == 0
        block = json.loads(out.read_text())["traces"][0]
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["vector", "time", "deviation", "energy_a", "energy_b", "covariance"]
        assert rows[1:] == [
            ["0", format(t, ".17g"), *(format(block[key][k], ".17g")
                                       for key in ("deviation", "energy_a", "energy_b")), ""]
            for k, t in enumerate(block["times"])
        ]

    @pytest.mark.parametrize("system, state, code", [
        ("system_spin_star_n2.json", "rho_ife_n2.json", 0),
        ("system_two_sectors.json", "rho_cross_two_sectors.json", 4),
    ], ids=["ife", "cross"])
    def test_verify_and_mixed_report_equal_traces(self, data_dir, tmp_path, system, state, code):
        traces = []
        for command in ("verify", "mixed"):
            out = tmp_path / f"{command}.json"
            assert run_cli(command, str(data_dir / system), "--state", str(data_dir / state),
                           "--steps", "9", "--out", str(out)) == code
            traces.append(json.loads(out.read_text())["traces"])
        assert traces[0] == traces[1]
        assert [t["label"] for t in traces[0]] == ["density_matrix"]


def commuting_file(tmp_path, dim_a, dim_b, seed):
    path = tmp_path / f"commuting_{dim_a * dim_b}.json"
    save_system(commuting_system(dim_a, dim_b, np.random.default_rng(seed)), path)
    return path


class TestMixedSampleGroups:
    """Sampling mode draws, checks and traces its samples a group at a time."""

    def test_groups_report_what_one_sample_at_a_time_gives(self, tmp_path):
        # d = 64: groups of four, so six samples take two groups
        path = commuting_file(tmp_path, 4, 16, 90)
        assert _block_size(64) == 4
        out = tmp_path / "report.json"
        assert run_cli("mixed", str(path), "--samples", "6", "--seed", "7", "--steps", "21",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        system = load_system(path)[0]
        dec = ife_sectors(system)
        weights = np.full(dec.n_sectors, 1.0 / dec.n_sectors)
        times = cli.time_grid(10.0, 21)
        expected, names = [], []
        for i in range(6):
            rho = random_ife_mixed(dec, weights, 7 + i)
            outside, cross = block_structure_residuals(rho, dec)
            expected.append({"seed": 7 + i, "outside_norm": outside, "cross_norm": cross,
                             "max_deviation": trace_density_matrix(system, rho, times).max_deviation})
            names += [f"sample_{i}_block_structure", f"sample_{i}_dynamical_deviation"]
        assert report["samples"] == expected
        assert [c["name"] for c in report["claims"]] == names

    def test_peak_memory_does_not_grow_with_samples(self, tmp_path):
        # d = 128 takes groups of one state, so eight samples peak as two do:
        # a group of eight would hold eight d x d stacks of each kind (2 MiB apiece)
        path = commuting_file(tmp_path, 4, 32, 91)
        assert _block_size(128) == 1
        run_cli("mixed", str(path), "--samples", "1", "--steps", "11",
                "--out", str(tmp_path / "warm.json"))
        peaks = {}
        for k in (2, 8):
            tracemalloc.start()
            try:
                assert run_cli("mixed", str(path), "--samples", str(k), "--steps", "11",
                               "--out", str(tmp_path / f"{k}.json")) == 0
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the margin is one d x d complex matrix (256 KiB)
        assert abs(peaks[8] - peaks[2]) < 128**2 * 16, peaks


class TestInputsDigest:
    """``inputs_digest`` names the bytes each command parsed, read once per file."""

    @pytest.mark.parametrize("command, system, state", [
        ("sectors", "system_spin_star_n2.json", None),
        ("oracle-diff", "system_two_sectors.json", None),
        ("verify", "system_spin_star_n2.json", "state_ife_n2.json"),
        ("verify", "system_spin_star_n2.json", "rho_ife_n2.json"),
        ("mixed", "system_spin_star_n2.json", "rho_ife_n2.json"),
    ], ids=["sectors", "oracle-diff", "verify-vector", "verify-rho", "mixed"])
    def test_digest_of_each_file_read_once(self, data_dir, tmp_path, monkeypatch,
                                           command, system, state):
        inputs = [data_dir / name for name in (system, state) if name]
        argv = [command, str(inputs[0]), "--out", str(tmp_path / "report.json")]
        if state:
            argv += ["--state", str(inputs[1]), "--steps", "5"]
        reads = []
        real_read = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or real_read(path))
        assert run_cli(*argv) == 0
        assert sorted(reads) == sorted(inputs)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inputs_digest"] == ",".join(
            "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs)


class TestParserContract:
    def test_unknown_argument_exit_one(self, capsys):
        assert run_cli("sectors", "x.json", "--frobnicate") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_exit_one(self):
        assert run_cli() == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "ifestates" in capsys.readouterr().out

    @pytest.mark.parametrize("option, argv", [
        ("--t-max", ["verify", "{star}", "--sector", "0", "--t-max", "nan"]),
        ("--t-max", ["mixed", "{star}", "--t-max", "inf"]),
        ("--tol", ["sectors", "{star}", "--tol", "nan"]),
        ("--tol", ["sectors", "{star}", "--tol", "0"]),
        ("--tol", ["oracle-diff", "{star}", "--tol", "inf"]),
        ("--tol", ["verify", "{star}", "--sector", "0", "--tol", "-1"]),
        ("--tol", ["mixed", "{star}", "--tol", "nan"]),
        ("--tol", ["spin-star", "--n", "2", "--omega0", "1", "--omega", "0.7", "--gammas", "3,4",
                   "--tol=-1e-10"]),
        ("--omega0", ["spin-star", "--n", "2", "--omega0", "nan", "--omega", "0.7", "--gammas", "3,4"]),
        ("--omega", ["spin-star", "--n", "2", "--omega0", "1", "--omega=-inf", "--gammas", "3,4"]),
        ("--gammas", ["spin-star", "--n", "2", "--omega0", "1", "--omega", "0.7", "--gammas", "3,nan"]),
        ("--samples", ["mixed", "{star}", "--samples", "0"]),
        ("--samples", ["mixed", "{star}", "--samples", "-1"]),
        ("--steps", ["verify", "{star}", "--sector", "0", "--steps", "0"]),
        ("--steps", ["verify", "{star}", "--sector", "0", "--steps", "2.5"]),
        ("--steps", ["mixed", "{star}", "--steps", "-3"]),
        ("--n", ["spin-star", "--n", "0", "--omega0", "1", "--omega", "0.7", "--gammas", "3,4"]),
        ("--seed", ["mixed", "{star}", "--seed", "-1"]),
    ])
    def test_invalid_numeric_option_exit_one(self, option, argv, star_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [star_file if a == "{star}" else a for a in argv]
        assert run_cli(*argv, "--out", str(out)) == 1
        assert f"argument {option}: must be" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_seed_accepted(self, star_file, tmp_path):
        assert run_cli("mixed", star_file, "--seed", "0", "--samples", "1", "--steps", "3",
                       "--out", str(tmp_path / "r.json")) == 0

    def test_parser_built_once_and_reused(self, star_file, data_dir, tmp_path):
        # verify --state, verify --sector, then mixed through one cached parser:
        # each report equals the one a freshly built parser gives
        runs = [
            ["verify", star_file, "--state", str(data_dir / "state_ife_n2.json"), "--steps", "5"],
            ["verify", star_file, "--sector", "0", "--steps", "5"],
            ["mixed", star_file, "--samples", "2", "--steps", "5"],
        ]
        cached = []
        for k, argv in enumerate(runs):
            out = tmp_path / f"cached{k}.json"
            assert run_cli(*argv, "--out", str(out)) == 0
            cached.append(normalized(out))
        assert cli.build_parser() is cli.build_parser()
        for k, argv in enumerate(runs):
            cli.build_parser.cache_clear()
            out = tmp_path / f"fresh{k}.json"
            assert run_cli(*argv, "--out", str(out)) == 0
            assert normalized(out) == cached[k]

    def test_console_entry_point(self, star_file):
        proc = subprocess.run(
            [sys.executable, "-m", "ifestates.cli", "sectors", star_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"schema_version": "ife-report/1"' in proc.stdout


@pytest.fixture()
def multisector_file(tmp_path):
    """Commuting 2x4 system, rotated by local unitaries, with sectors of
    dimensions 5, 2 and 1 (coupling eigenvalues -1, 0.5 and 2)."""
    from ifestates import BipartiteSystem
    from ifestates.serialize import save_system

    from helpers import random_unitary

    rng = np.random.default_rng(40)
    u_a, u_b = random_unitary(2, rng), random_unitary(4, rng)
    u = np.kron(u_a, u_b)
    d_i = np.array([-1.0, 0.5, -1.0, 2.0, -1.0, 0.5, -1.0, -1.0])
    sys_ = BipartiteSystem(
        2, 4,
        (u_a * np.array([1.0, -1.0])) @ u_a.conj().T,
        (u_b * np.array([0.5, -0.5, 1.5, 0.0])) @ u_b.conj().T,
        (u * d_i) @ u.conj().T,
    )
    path = tmp_path / "multisector.json"
    save_system(sys_, path)
    return str(path)


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Hermitian factorizations: a copy of each matrix passed to numpy.linalg.eigh or eigvalsh."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, fn=original, **kw: calls.append(np.array(a))
                            or fn(a, *args, **kw))
    return calls


STAR_N2_ARGS = ["--n", "2", "--omega0", "1.0", "--omega", "0.7", "--gammas", "3,4"]
F, C = "float64", "complex128"  # the dtype each factorization runs in
# ife_sectors' cluster blocks
SVD_BLOCKS_N2 = [("svd", "other", (2, 8, 2), F), ("svd", "other", (1, 8, 4), F)]
SECTORS_N2 = [("eigh", "h_i", (8, 8), F), ("eigh", "h_a", (2, 2), F), ("eigh", "h_b", (4, 4), F),
              ("eigvalsh", "i C~", (8, 8), C), *SVD_BLOCKS_N2]


class TestFactorizationLedger:
    """Every ``eigh``, ``eigvalsh`` and ``svd`` a command takes, in order, as ``(function, operator, shape, dtype)``.

    Operators are named as in ``helpers.factorized_operators``, and further
    ``"i C~"`` (the commutator in the coupling eigenbasis, times ``i``) and
    ``"rho"`` (the state file's density matrix), each matched to ``1e-12``.
    Each factorization is taken once per system, in the same order whatever
    routine asks for it first.  The star is real, so every factorization of
    it runs in float64 but those of ``i C~`` and of the complex ``rho``; the
    commuting ``d = 128`` system is complex, and so is each of its.
    """

    @pytest.mark.parametrize("argv, ledger", [
        (["sectors", "{star}"], SECTORS_N2),
        (["oracle-diff", "{star}"],
         [*SECTORS_N2, ("svd", "other", (2, 8, 1), F), ("svd", "other", (2, 8, 2), F),
          ("svd", "other", (8, 4), F)]),  # the spectral norm of the principal-angle residual
        (["verify", "{star}", "--sector", "0", "--steps", "5"], [*SECTORS_N2, ("eigh", "H", (8, 8), F)]),
        (["verify", "{star}", "--state", "{psi}", "--steps", "5"],
         [("eigh", "H", (8, 8), F), ("eigh", "h_a", (2, 2), F), ("eigh", "h_b", (4, 4), F)]),
        (["mixed", "{star}", "--state", "{rho}", "--steps", "5"],
         [*SECTORS_N2, ("eigvalsh", "rho", (8, 8), C), ("eigh", "H", (8, 8), F)]),
        (["mixed", "{star}", "--samples", "2", "--steps", "5"], [*SECTORS_N2, ("eigh", "H", (8, 8), F)]),
        (["spin-star", *STAR_N2_ARGS, "--check-all"],
         # spectral norms: claim 1 and claim 3 residuals, then claim 4's per-block
         # residuals of H_0 and H on each of the four single-column blocks; claim 1
         # reads the commutator kernel, whose vectors come from the complex eigh(i C~)
         [*SECTORS_N2[:4], ("eigh", "i C~", (8, 8), C), ("svd", "other", (8, 4), C), *SVD_BLOCKS_N2,
          ("svd", "other", (8, 4), F), ("eigvalsh", "H", (8, 8), F), *[("svd", "other", (8, 1), F)] * 8]),
        # a commuting system: the zero test needs no eigvalsh, and no cluster an SVD
        (["mixed", "{d128}", "--samples", "2", "--steps", "26"],
         [("eigh", "h_i", (128, 128), C), ("eigh", "h_a", (4, 4), C), ("eigh", "h_b", (32, 32), C),
          ("eigh", "H", (128, 128), C)]),
    ], ids=["sectors", "oracle-diff", "verify-sector", "verify-state", "mixed-state",
            "mixed-samples", "spin-star", "mixed-frequency"])
    def test_ledger(self, argv, ledger, star_file, data_dir, tmp_path, monkeypatch):
        path = star_file
        if "{d128}" in argv:
            path = str(tmp_path / "d128.json")
            save_system(commuting_system(4, 32, np.random.default_rng(70)), path)
        system = load_system(path)[0]
        if "{d128}" in argv:
            assert _uses_frequencies(system, 26)  # the mixed deviation takes the frequency form
        _, v = np.linalg.eigh(system.h_i)
        product = commutator(core.build_h0(system), snapped_coupling(system))
        rho = load_state(data_dir / "rho_ife_n2.json")["value"]
        targets = {"i C~": 1j * (v.conj().T @ product @ v), "rho": rho}
        seen = record_factorizations(monkeypatch)
        argv = [a.format(star=path, d128=path, psi=data_dir / "state_ife_n2.json",
                         rho=data_dir / "rho_ife_n2.json") for a in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == 0
        monkeypatch.undo()
        names = factorized_operators([a for _, a in seen], system)
        names = [next((key for key, t in targets.items() if name == "other" and a.shape == t.shape
                       and np.allclose(a, t, rtol=0.0, atol=1e-12)), name)
                 for name, (_, a) in zip(names, seen)]
        assert [(fn, name, a.shape, a.dtype.name) for name, (fn, a) in zip(names, seen)] == ledger


class TestOneFactorization:
    """verify and mixed diagonalize H, H_0 and H_I once per system."""

    def test_verify_sector_eigh_count_independent_of_dimension(self, multisector_file,
                                                                eigh_calls, tmp_path):
        hermitian = 1j * core._commutator(load_system(multisector_file)[0])
        eigh_calls.clear()
        dims, counts = [], []
        for k in range(3):
            out = tmp_path / f"sector{k}.json"
            assert run_cli("verify", multisector_file, "--sector", str(k), "--steps", "5",
                           "--out", str(out)) == 0
            dims.append(len(json.loads(out.read_text())["claims"]))
            # H, H_0, H_I and i C~ act on the 8-dim product space; h_a (2x2)
            # and h_b (4x4) give the commutator's zero scale.  The system
            # commutes, so ||C~||_F settles the zero test and i C~ takes no
            # eigensolve
            factors = tuple(sorted(a.shape[-1] for a in eigh_calls if a.shape[-1] != 8))
            commutators = sum(np.allclose(a, hermitian, rtol=0.0, atol=1e-12)
                              for a in eigh_calls if a.shape == hermitian.shape)
            operators = len(eigh_calls) - len(factors) - commutators
            counts.append((operators, commutators, factors))
            eigh_calls.clear()
        assert sorted(dims) == [1, 2, 5]
        assert max(operators for operators, _, _ in counts) <= 3 and len(set(counts)) == 1
        assert counts[0][1:] == (0, (2, 4))

    def test_mixed_samples_eigh_count_independent_of_samples(self, star_file, eigh_calls, tmp_path):
        counts = []
        for samples in ("1", "5"):
            assert run_cli("mixed", star_file, "--samples", samples, "--steps", "5",
                           "--out", str(tmp_path / f"m{samples}.json")) == 0
            counts.append(len(eigh_calls))
            eigh_calls.clear()
        assert counts[0] == counts[1]

    def test_csv_rows_match_report_traces(self, multisector_file, tmp_path):
        out, csv_path = tmp_path / "report.json", tmp_path / "traces.csv"
        assert run_cli("verify", multisector_file, "--sector", "0", "--steps", "7",
                       "--out", str(out), "--csv", str(csv_path)) == 0
        keys = ("deviation", "energy_a", "energy_b", "covariance")
        expected = [["vector", "time", *keys]]
        for block in json.loads(out.read_text())["traces"]:
            for k, t in enumerate(block["times"]):
                expected.append([str(block["vector"]), format(t, ".17g"),
                                 *(format(block[key][k], ".17g") for key in keys)])
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == expected
        assert len(rows) == 1 + 5 * 7


class TestCommutatorFactorizations:
    """Each command factorizes the commutator once, as ``i C~`` in the coupling eigenbasis.

    ``C~ = V^H [H_0, H_I] V`` is anti-Hermitian, so one ``eigvalsh`` of
    ``i C~`` gives its singular values; the spin-star claims add one ``eigh``
    for the kernel vectors.  No command takes an SVD of a ``d x d``
    commutator in either basis.
    """

    @pytest.mark.parametrize("argv, vectors", [
        (["sectors", "{star}"], 0),
        (["oracle-diff", "{star}"], 0),
        (["verify", "{star}", "--sector", "0", "--steps", "5"], 0),
        (["mixed", "{star}", "--samples", "2", "--steps", "5"], 0),
        (["mixed", "{star}", "--state", "{rho}", "--steps", "5"], 0),
        (["spin-star", "--n", "2", "--omega0", "1.0", "--omega", "0.7", "--gammas", "3,4",
          "--check-all"], 1),
    ], ids=["sectors", "oracle-diff", "verify-sector", "mixed-samples", "mixed-state", "spin-star"])
    def test_svd_calls_of_the_commutator(self, argv, vectors, star_file, data_dir, tmp_path,
                                         monkeypatch):
        system, _, _ = load_system(star_file)
        c_eig = core._commutator(system)
        targets = {"product": commutator(core.build_h0(system), system.h_i),
                   "eigenbasis": c_eig, "hermitian": 1j * c_eig}
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, name=name, fn=original, **kw):
                calls.extend((name, key) for key, t in targets.items()
                             if np.shape(a) == t.shape and np.allclose(a, t, rtol=0.0, atol=1e-12))
                return fn(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, recording)
        argv = [a.format(star=star_file, rho=data_dir / "rho_ife_n2.json") for a in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == 0
        assert calls == [("eigvalsh", "hermitian")] + [("eigh", "hermitian")] * vectors

    @pytest.mark.parametrize("argv", [
        ["sectors"],
        ["oracle-diff"],
        ["verify", "--sector", "0", "--steps", "5"],
        ["mixed", "--samples", "2", "--steps", "5"],
    ], ids=lambda argv: argv[0])
    def test_zero_commutator_takes_no_eigensolve(self, argv, multisector_file, tmp_path,
                                                 monkeypatch):
        # a conjugated commuting system: ||C~||_F alone settles the zero test
        system = load_system(multisector_file)[0]
        c_eig = core._commutator(system)
        assert core._commutator_is_zero(system) and np.linalg.norm(c_eig) > 0.0
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, fn=original, **kw: (
                np.shape(a) == c_eig.shape and np.abs(np.asarray(a)).max() <= 1e-12
                and calls.append(name)) or fn(a, *args, **kw))
        assert run_cli(argv[0], multisector_file, *argv[1:], "--out", str(tmp_path / "r.json")) == 0
        assert calls == []


@pytest.fixture()
def hermitian_checks(monkeypatch):
    """The ``name`` of every ``require_hermitian`` call, through any package module."""
    names = []
    original = linalg.require_hermitian

    def counted(a, rel_tol=linalg.HERMITIAN_RTOL, name="operator"):
        names.append(name)
        return original(a, rel_tol, name)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ifestates") and hasattr(module, "require_hermitian"):
            monkeypatch.setattr(module, "require_hermitian", counted)
    return names


class TestOneHermiticityCheckPerState:
    """A file's density matrix is checked once, at its gate; a sample never."""

    @pytest.mark.parametrize("argv, checks", [
        (["mixed", "--state"], 1),
        (["verify", "--state"], 1),
        (["mixed", "--samples", "3"], 0),
    ], ids=["mixed_state", "verify_state", "mixed_samples"])
    def test_density_matrix_checks(self, star_file, data_dir, tmp_path, hermitian_checks,
                                   argv, checks):
        if argv[-1] == "--state":
            argv = argv + [str(data_dir / "rho_ife_n2.json")]
        out = tmp_path / "r.json"
        assert run_cli(argv[0], star_file, *argv[1:], "--steps", "5", "--out", str(out)) == 0
        assert hermitian_checks.count("density matrix") == checks


def defect_copy(src, dst, rel_defect=3e-11, seed=5, fields=("h_a", "h_i")):
    """``src`` with an anti-Hermitian defect ``i eps S`` added to each of ``fields``.

    ``S`` is real symmetric with largest entry 1 and ``eps`` is chosen so
    that each field's relative defect is ``rel_defect``; the default is
    above the ``1e-12`` of derived-operator checks, below the ``1e-10``
    file gate.
    """
    doc = json.loads(Path(src).read_text(encoding="utf-8"))
    rng = np.random.default_rng(seed)
    for field in fields:
        m = pairs_to_matrix(doc[field], field)
        s = rng.uniform(-1.0, 1.0, m.shape)
        s = (s + s.T) / np.abs(s + s.T).max()
        m = m + 0.5j * rel_defect * max(1.0, np.linalg.norm(m)) * s
        assert hermiticity_defect(m) == pytest.approx(rel_defect, rel=1e-6)
        doc[field] = matrix_to_pairs(m)
    Path(dst).write_text(json.dumps(doc), encoding="utf-8")
    return str(dst)


class TestValidateOnce:
    """A system file passes or fails its checks once, on load."""

    @pytest.mark.parametrize("argv", [
        ["sectors"],
        ["oracle-diff"],
        ["verify", "--sector", "0", "--steps", "5"],
        ["mixed", "--samples", "1", "--steps", "5"],
    ], ids=lambda argv: argv[0])
    def test_defect_within_file_gate_exit_zero(self, star_file, tmp_path, capsys, argv):
        path = defect_copy(star_file, tmp_path / "defect.json")
        out = tmp_path / "r.json"
        assert run_cli(argv[0], path, *argv[1:], "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["exit_code"] == 0

    @pytest.mark.parametrize("command", ["verify", "mixed"])
    def test_density_matrix_defect_within_file_gate_exit_zero(self, star_file, data_dir,
                                                               tmp_path, capsys, command):
        state = defect_copy(data_dir / "rho_ife_n2.json", tmp_path / "rho.json", fields=("rho",))
        out = tmp_path / "r.json"
        assert run_cli(command, star_file, "--state", state, "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["exit_code"] == 0

    @pytest.mark.parametrize("command", ["verify", "mixed"])
    def test_density_matrix_defect_beyond_file_gate_exit_one(self, star_file, data_dir,
                                                             tmp_path, capsys, command):
        state = defect_copy(data_dir / "rho_ife_n2.json", tmp_path / "rho.json",
                            rel_defect=3e-9, fields=("rho",))
        out = tmp_path / "r.json"
        assert run_cli(command, star_file, "--state", state, "--out", str(out)) == 1
        assert ("error: density matrix is not Hermitian: relative defect 3.000e-09 exceeds 1.0e-10"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_defect_file_routes_agree(self, star_file, tmp_path):
        system, _, _ = load_system(defect_copy(star_file, tmp_path / "defect.json"))
        for field in ("h_a", "h_b", "h_i"):
            assert hermiticity_defect(getattr(system, field)) == 0.0
        direct, oracle = ife_sectors(system), ife_sectors_oracle(system)
        assert direct.alphas == oracle.alphas
        assert [s.dimension for s in direct.sectors] == [s.dimension for s in oracle.sectors] == [4]

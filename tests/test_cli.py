import csv
import json
import math
import os
import subprocess
import sys

import pytest

import neumann_bounds
from neumann_bounds.cli import emit_table, main

PI2 = math.pi**2


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def pair_domain(tmp_path):
    return write_json(
        tmp_path / "cells.json",
        {
            "type": "cells",
            "cells": [
                {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                {"vertices": [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]},
            ],
        },
    )


def run_cli(args):
    return main([str(a) for a in args])


class TestBoundCommands:
    def test_bound_star_passes_oracle(self, tmp_path):
        out = tmp_path / "star.json"
        code = run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.1, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["passed"] is True
        assert report["certificates"][0]["data"]["bound"] > report["checks"][0]["oracle_value"]

    def test_bound_star_3d_has_no_oracle(self, tmp_path):
        out = tmp_path / "star3.json"
        code = run_cli(["bound-star", "--delta", 1.0, "--dim", 3, "--p", 4, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"] == []
        details = report["certificates"][0]["data"]["details"]
        assert "cross-section-volume-deficit" in details

    def test_bound_cells_pair(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run_cli(
            ["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2, "--h", 0.1, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["bound"] == pytest.approx(
            math.sqrt(64.0 / PI2), rel=1e-12
        )
        assert report["checks"][0]["passed"] is True

    def test_bound_cells_chain_from_indices(self, tmp_path):
        cells = [
            {"vertices": [[0.5 * j, 0], [0.5 * j + 1, 0], [0.5 * j + 1, 1], [0.5 * j, 1]]}
            for j in range(5)
        ]
        domain = write_json(
            tmp_path / "chain.json",
            {"type": "cells", "cells": cells, "structure": "chain",
             "triples": [[0, 1, 2], [2, 3, 4]]},
        )
        out = tmp_path / "chain_report.json"
        code = run_cli(["bound-cells", "--domain", domain, "--p", 2, "--h", 0.12, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["multiplicity"] == 2
        assert report["checks"][0]["passed"] is True

    def test_star_domain_file(self, tmp_path):
        domain = write_json(tmp_path / "star.json", {"type": "star", "delta": 2.0, "dim": 2})
        out = tmp_path / "star_report.json"
        code = run_cli(["bound-star", "--domain", domain, "--p", 2, "--h", 0.15, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["config"]["delta"] == 2.0

    def test_snowflake_domain_file(self, tmp_path):
        domain = write_json(
            tmp_path / "snow.json", {"type": "snowflake", "a": 1.0, "depth": 6}
        )
        out = tmp_path / "snow_report.json"
        code = run_cli(["bound-snowflake", "--domain", domain, "--p", 2, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["config"]["depth"] == 6

    def test_bound_snowflake(self, tmp_path):
        out = tmp_path / "snow.json"
        code = run_cli(["bound-snowflake", "--a", 1.0, "--depth", 12, "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        labels = [c["label"] for c in report["certificates"]]
        assert labels == ["snowflake-finite-tree", "snowflake-infinite", "snowflake-tail"]
        tail = report["certificates"][2]["data"]
        assert 0 < tail["tail_bound"] < math.inf
        assert tail["tail_relative_increment"] < 1e-6
        assert any("no oracle" in n for n in report["notes"])


class TestTransferCommand:
    def test_identity_transfer_returns_base(self, tmp_path):
        pair_report = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report])
        base = json.loads(pair_report.read_text())
        base_value = base["certificates"][0]["data"]["bound"]
        map_path = write_json(
            tmp_path / "map.json",
            {"kind": "linear", "matrix": [[1, 0], [0, 1]], "domain_volume": 1.5},
        )
        out = tmp_path / "transfer.json"
        code = run_cli(["transfer", "--map", map_path, "--base", pair_report,
                        "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["mu_lower"] == pytest.approx(
            base_value**-2.0, rel=1e-12
        )

    def test_sampled_map_and_poincare_mode(self, tmp_path):
        map_path = write_json(
            tmp_path / "sampled.json",
            {
                "kind": "sampled",
                "weights": [0.5, 0.5],
                "dphi": [1.0, 1.2],
                "jac": [1.0, 1.0],
                "K": 1.5,
                "alpha": 8.0,
                "n": 2,
            },
        )
        base_path = write_json(
            tmp_path / "base.json",
            {"bound": 0.5, "p": 2.0, "r": 4.0, "form": "deviation-from-mean"},
        )
        out = tmp_path / "tr.json"
        code = run_cli(["transfer", "--map", map_path, "--base", base_path,
                        "--mode", "poincare", "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        data = report["certificates"][0]["data"]
        assert data["bound"] == pytest.approx(
            math.prod(f["value"] for f in data["chain"]), rel=1e-12
        )


class TestVerifyCommand:
    def test_good_bound_passes(self, tmp_path):
        pair_report = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report])
        out = tmp_path / "verify.json"
        code = run_cli(["verify", "--bound", pair_report, "--domain", pair_domain(tmp_path),
                        "--h", 0.12, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["checks"][0]["passed"] is True

    def test_corrupted_bound_fails_with_exit_2(self, tmp_path):
        pair_report_path = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report_path])
        report = json.loads(pair_report_path.read_text())
        cert = report["certificates"][0]["data"]
        # shrink the claim below the oracle value, keeping the certificate coherent
        cert["bound"] *= 0.15
        for term in cert["terms"]:
            term["value"] *= 0.15**2
        corrupted = write_json(tmp_path / "corrupted.json", report)
        code = run_cli(["verify", "--bound", corrupted, "--domain", pair_domain(tmp_path),
                        "--h", 0.12, "--out", tmp_path / "v.json"])
        assert code == 2
        assert json.loads((tmp_path / "v.json").read_text())["checks"][0]["passed"] is False

    def test_incoherent_certificate_is_an_input_error(self, tmp_path, capsys):
        pair_report_path = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report_path])
        report = json.loads(pair_report_path.read_text())
        report["certificates"][0]["data"]["bound"] *= 0.5  # terms no longer match
        bad = write_json(tmp_path / "bad.json", report)
        code = run_cli(["verify", "--bound", bad, "--domain", pair_domain(tmp_path),
                        "--h", 0.12])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_mesh_file_domain(self, tmp_path):
        from neumann_bounds.oracle import mesh_domain

        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.15)
        mesh_path = write_json(tmp_path / "mesh.json", mesh.to_dict())
        bound_path = write_json(
            tmp_path / "bound.json",
            {"bound": 0.6, "p": 2.0, "form": "deviation-from-mean"},
        )
        code = run_cli(["verify", "--bound", bound_path, "--domain", mesh_path,
                        "--out", tmp_path / "v.json"])
        assert code == 0


class TestErrorPaths:
    def test_malformed_json_exit_1_with_location(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"type": "cells", ')
        code = run_cli(["bound-cells", "--domain", broken])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run_cli(["bound-cells", "--domain", tmp_path / "nope.json"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["bound-star", "--delta"])
        assert err.value.code == 1

    def test_invalid_p(self, tmp_path, capsys):
        code = run_cli(["bound-star", "--delta", 1.0, "--p", 1.0])
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["bound-star", "--p", "nan"],
            ["bound-star", "--h", "inf"],
            ["bound-star", "--delta=-inf"],
            ["bound-snowflake", "--a", "nan"],
        ],
    )
    def test_non_finite_number_one_line(self, args, capsys):
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be a finite number" in err[0]

    def test_non_finite_config_value_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"p": NaN}')
        assert run_cli(["bound-star", "--config", config]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "p must be a finite number" in err[0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"depth": "x"}', "depth must be an integer"),
            ('{"mgon": 12.5}', "mgon must be an integer"),
            ('{"seed": true}', "seed must be an integer"),
            ('{"overlap_fraction": "a"}', "overlap_fraction must be a finite number"),
            ('{"r": Infinity}', "r must be a finite number"),
            ('{"overlap_fraction": 1' + "0" * 400 + "}", "overlap_fraction must be a finite number"),
            ('{"p": -1' + "0" * 400 + "}", "p must be a finite number"),
            ('{"h": false}', "h must be a finite number"),
            ('{"mode": 3}', "mode must be a string"),
            ('{"map": ["m.json"]}', "map must be a string"),
            ('{"inputs": "a.json"}', "inputs must be a list of strings"),
            ('{"inputs": ["a.json", 1]}', "inputs must be a list of strings"),
            ('{"verify": "yes"}', "verify must be true or false"),
        ],
    )
    def test_config_value_of_wrong_type_one_line(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run_cli(["bound-snowflake", "--depth", 4, "--config", config]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    def test_config_values_of_right_type_accepted(self, tmp_path):
        config = write_json(
            tmp_path / "config.json",
            {"depth": 5, "a": 1, "p": 2.5, "r": None, "overlap_fraction": 0.25,
             "mode": "auto", "inputs": [], "verify": False},
        )
        out = tmp_path / "snow.json"
        assert run_cli(["bound-snowflake", "--config", config, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["depth"] == 5 and report["config"]["a"] == 1

    def test_non_object_json_one_line(self, tmp_path, capsys):
        domain = write_json(tmp_path / "list.json", [{"type": "cells"}])
        assert run_cli(["bound-cells", "--domain", domain]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be an object" in err[0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_huge_delta_exit_1_one_line(self, dim):
        # Qhull crashes the interpreter on 3D input of this size, so run it
        # in its own process
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(neumann_bounds.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "neumann_bounds.cli", "bound-star",
             "--dim", str(dim), "--delta", "1e300"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "too large" in err[0]


class TestReportAndTables:
    def test_single_report_single_row(self, tmp_path, capsys):
        star = tmp_path / "star.json"
        run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12, "--out", star])
        code = run_cli(["report", star, "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "domain,p,bound,oracle_value,margin,formula_chain"
        assert len(lines) == 2

    def test_mixed_p_rows_in_input_order(self, tmp_path):
        reports = []
        for p in (2.0, 3.0):
            path = tmp_path / f"snow{p}.json"
            run_cli(["bound-snowflake", "--a", 1.0, "--depth", 6, "--p", p, "--out", path])
            reports.append(json.loads(path.read_text()))
        table = emit_table(reports, "csv")
        rows = list(csv.reader(table.splitlines()))
        assert [r[1] for r in rows[1:4]] == ["2.0"] * 3
        assert [r[1] for r in rows[4:]] == ["3.0"] * 3

    def test_csv_round_trip_full_precision(self, tmp_path):
        star = tmp_path / "star.json"
        run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12, "--out", star])
        report = json.loads(star.read_text())
        table = emit_table([report], "csv")
        rows = list(csv.DictReader(table.splitlines()))
        assert float(rows[0]["bound"]) == report["certificates"][0]["data"]["bound"]
        assert float(rows[0]["oracle_value"]) == report["checks"][0]["oracle_value"]
        assert float(rows[0]["margin"]) == report["checks"][0]["margin"]

    def test_empty_report_list_rejected(self):
        with pytest.raises(Exception):
            emit_table([], "csv")


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12,
                     "--seed", 7, "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_breaks_nothing_but_adds_field(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["bound-snowflake", "--a", 1.0, "--depth", 4, "--p", 2,
                 "--timing", "--out", out])
        assert "timing_seconds" in json.loads(out.read_text())
        out2 = tmp_path / "t2.json"
        run_cli(["bound-snowflake", "--a", 1.0, "--depth", 4, "--p", 2, "--out", out2])
        assert "timing_seconds" not in json.loads(out2.read_text())

    def test_config_file_with_flag_override(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", {"delta": 1.0, "p": 2.0, "h": 0.12})
        out = tmp_path / "from_config.json"
        code = run_cli(["bound-star", "--config", config, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["delta"] == 1.0
        out2 = tmp_path / "override.json"
        run_cli(["bound-star", "--config", config, "--delta", 2.0, "--out", out2])
        assert json.loads(out2.read_text())["config"]["delta"] == 2.0

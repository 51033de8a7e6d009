import json
import os

import numpy as np
import pytest

from qoc.cli import main
from qoc.io import InstanceError, load_instance, validate_instance_dict

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def instance_path(name):
    return os.path.join(INSTANCES, name)


def run(argv):
    return main(argv)


class TestValidate:
    def test_bundled_instances_are_valid(self):
        for name in ("qkl_ring4.json", "qlqr_scalar.json", "troc_small.json"):
            assert run(["validate", instance_path(name)]) == 0

    def test_missing_file(self, capsys):
        assert run(["validate", "no_such_file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 1

    def test_schema_violation_reports_location(self, tmp_path, capsys):
        doc = json.load(open(instance_path("qkl_ring4.json")))
        doc["q"] = 1.5
        bad = tmp_path / "bad_q.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", str(bad)]) == 1
        assert "$.q" in capsys.readouterr().err

    def test_override_can_invalidate(self, capsys):
        assert run(["validate", instance_path("qkl_ring4.json"), "--q", "2.0"]) == 1


class TestSolve:
    def test_qkl_outputs(self, tmp_path):
        out = str(tmp_path)
        assert run(["solve", instance_path("qkl_ring4.json"), "--out", out]) == 0
        for name in ("solution.json", "controlled_matrices.csv", "result_bundle.json"):
            assert os.path.exists(os.path.join(out, name))
        doc = json.load(open(os.path.join(out, "solution.json")))
        assert doc["kind"] == "qkl"
        mats = np.asarray(doc["controlled_matrices"])
        assert np.allclose(mats.sum(axis=1), 1.0, atol=1e-9)

    def test_bundle_manifest_checksums(self, tmp_path):
        import hashlib

        out = str(tmp_path)
        run(["solve", instance_path("qlqr_scalar.json"), "--out", out])
        bundle = json.load(open(os.path.join(out, "result_bundle.json")))
        assert bundle["kind"] == "qlqr"
        for entry in bundle["manifest"]:
            digest = hashlib.sha256(open(entry["path"], "rb").read()).hexdigest()
            assert digest == entry["sha256"]

    def test_deterministic_across_runs(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            run(["solve", instance_path("troc_small.json"), "--out", out, "--seed", "3"])
        a = open(os.path.join(out1, "policy.csv")).read()
        b = open(os.path.join(out2, "policy.csv")).read()
        assert a == b

    def test_bundle_identical_across_runs(self, tmp_path):
        out = str(tmp_path)
        bundles = []
        for _ in range(2):
            assert run(["solve", instance_path("troc_small.json"), "--out", out]) == 0
            bundles.append(open(os.path.join(out, "result_bundle.json"), "rb").read())
        assert bundles[0] == bundles[1]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QOC_OUT_DIR", str(tmp_path))
        assert run(["solve", instance_path("troc_small.json")]) == 0
        assert os.path.exists(tmp_path / "solution.json")

    def test_override_changes_solution(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(["solve", instance_path("qkl_ring4.json"), "--out", out1])
        run(["solve", instance_path("qkl_ring4.json"), "--out", out2, "--q", "0.9"])
        a = json.load(open(os.path.join(out1, "solution.json")))
        b = json.load(open(os.path.join(out2, "solution.json")))
        assert not np.allclose(a["controlled_matrices"], b["controlled_matrices"])


class TestSweep:
    def test_q_sweep_csv(self, tmp_path):
        out = str(tmp_path)
        code = run(
            [
                "sweep",
                instance_path("qlqr_scalar.json"),
                "--out",
                out,
                "--parameter",
                "q",
                "--grid",
                "0.1:0.9:5",
            ]
        )
        assert code == 0
        lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
        assert lines[0] == "parameter,cost,entropy,support_radius,sparsity_count"
        assert len(lines) == 6

    def test_explicit_grid_values(self, tmp_path):
        out = str(tmp_path)
        run(
            [
                "sweep",
                instance_path("qkl_ring4.json"),
                "--out",
                out,
                "--grid",
                "0.25,0.5",
                "--horizon",
                "30",
            ]
        )
        lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
        assert len(lines) == 3

    def test_bad_grid_point_counts_as_failure(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run(
            [
                "sweep",
                instance_path("qkl_ring4.json"),
                "--out",
                out,
                "--grid",
                "0.25,1.5",
                "--horizon",
                "10",
            ]
        )
        assert code == 2
        lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
        assert len(lines) == 2  # header plus the one good point


class TestSimulate:
    def test_qlqr_simulation(self, tmp_path):
        out = str(tmp_path)
        run(["solve", instance_path("qlqr_scalar.json"), "--out", out])
        code = run(
            [
                "simulate",
                instance_path("qlqr_scalar.json"),
                os.path.join(out, "solution.json"),
                "--out",
                out,
                "--trajectories",
                "20",
                "--steps",
                "10",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "envelope.csv"))
        assert os.path.exists(os.path.join(out, "trajectories.csv"))

    def test_envelope_only_with_zero_trajectories(self, tmp_path):
        out = str(tmp_path)
        run(["solve", instance_path("qlqr_scalar.json"), "--out", out])
        code = run(
            [
                "simulate",
                instance_path("qlqr_scalar.json"),
                os.path.join(out, "solution.json"),
                "--out",
                out,
                "--trajectories",
                "0",
                "--steps",
                "5",
            ]
        )
        assert code == 0
        assert not os.path.exists(os.path.join(out, "trajectories.csv"))

    def test_kind_mismatch(self, tmp_path, capsys):
        out = str(tmp_path)
        run(["solve", instance_path("qlqr_scalar.json"), "--out", out])
        code = run(
            [
                "simulate",
                instance_path("qkl_ring4.json"),
                os.path.join(out, "solution.json"),
                "--out",
                out,
                "--horizon",
                "10",
            ]
        )
        assert code == 2

    def test_horizon_too_short(self, tmp_path, capsys):
        out = str(tmp_path)
        run(["solve", instance_path("qlqr_scalar.json"), "--out", out, "--horizon", "5"])
        args = ["simulate", instance_path("qlqr_scalar.json"), os.path.join(out, "solution.json")]
        assert run(args + ["--out", out, "--steps", "6"]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, message, edit",
        [
            ("qlqr_scalar.json", "etas", lambda doc: {k: doc[k] for k in doc if k != "etas"}),
            (
                "qlqr_scalar.json",
                "noise_covariances",
                lambda doc: dict(doc, noise_covariances=[[1.0, 0.0]] * 100),
            ),
            (
                "qkl_ring4.json",
                "controlled_matrices",
                lambda doc: dict(
                    doc,
                    controlled_matrices=(np.nan * np.array(doc["controlled_matrices"])).tolist(),
                ),
            ),
            ("qkl_ring4.json", "values", lambda doc: dict(doc, values="none")),
            ("qkl_ring4.json", "JSON object", lambda doc: [doc]),
        ],
    )
    def test_malformed_solution_exits_1(self, tmp_path, capsys, name, message, edit):
        out = str(tmp_path)
        run(["solve", instance_path(name), "--out", out])
        solution = os.path.join(out, "solution.json")
        doc = edit(json.load(open(solution)))
        with open(solution, "w") as fh:
            json.dump(doc, fh)
        code = run(["simulate", instance_path(name), solution, "--out", out, "--steps", "5"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_qkl_rollouts_deterministic(self, tmp_path):
        out = str(tmp_path)
        run(["solve", instance_path("qkl_ring4.json"), "--out", out, "--horizon", "40"])
        args = [
            "simulate",
            instance_path("qkl_ring4.json"),
            os.path.join(out, "solution.json"),
            "--out",
            out,
            "--horizon",
            "40",
            "--trajectories",
            "5",
            "--steps",
            "20",
            "--seed",
            "11",
        ]
        run(args)
        first = open(os.path.join(out, "trajectories.csv")).read()
        run(args)
        assert open(os.path.join(out, "trajectories.csv")).read() == first


class TestIoHelpers:
    def test_load_instance_applies_overrides(self):
        kind, inst = load_instance(
            instance_path("qkl_ring4.json"), {"q": 0.5, "lambda": 2.0, "horizon": 7}
        )
        assert kind == "qkl"
        assert float(inst.q) == 0.5
        assert inst.lam == 2.0
        assert inst.horizon == 7

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(InstanceError):
            validate_instance_dict({"kind": "mystery", "q": 0.3, "lambda": 1.0, "horizon": 5})



class TestSimulateRejectsInvalidSolutions:
    def _simulate_edited(self, tmp_path, name, edit):
        out = str(tmp_path)
        assert run(["solve", instance_path(name), "--out", out]) == 0
        solution = os.path.join(out, "solution.json")
        doc = json.load(open(solution))
        edit(doc)
        with open(solution, "w") as fh:
            json.dump(doc, fh)
        return run(["simulate", instance_path(name), solution, "--out", out, "--steps", "5"])

    @pytest.mark.parametrize("entry", [-0.5, 0.9])
    def test_qkl_column_not_a_distribution(self, tmp_path, capsys, entry):
        # -0.5 is negative; 0.9 keeps every entry non-negative but breaks a column sum
        def edit(doc):
            doc["controlled_matrices"][0][0][0] = entry

        assert self._simulate_edited(tmp_path, "qkl_ring4.json", edit) == 1
        err = capsys.readouterr().err
        assert "controlled_matrices" in err and "Traceback" not in err

    def test_qlqr_noise_covariance_not_positive_definite(self, tmp_path, capsys):
        def edit(doc):
            doc["noise_covariances"][1] = [[-1.0]]

        assert self._simulate_edited(tmp_path, "qlqr_scalar.json", edit) == 1
        err = capsys.readouterr().err
        assert "noise_covariances" in err and "positive definite" in err

import json
import os
import warnings

import numpy as np
import pytest

import qoc.entmax
import qoc.io
from qoc.cli import main
from qoc.io import InstanceError, load_instance, validate_instance_dict
from qoc.qlqr import solve_qlqr

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

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("troc_small.json", "q", "half", "$.q: 'half' is not of type 'number'"),
            ("qkl_ring4.json", "kind", None, "$: 'kernel' is a required property"),
            ("qlqr_scalar.json", "horizon", -3, "$.horizon: -3 is less than the minimum of 1"),
            ("qlqr_scalar.json", "a", [[1.0, "x"]], "$.a[0][1]: 'x' is not of type 'number'"),
        ],
    )
    def test_schema_error_message_is_exact(self, tmp_path, capsys, name, key, value, message):
        doc = json.load(open(instance_path(name)))
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for _ in range(2):  # the second run uses the validator compiled by the first
            assert run(["validate", str(bad)]) == 1
            assert capsys.readouterr().err == f"error: invalid instance at {message}\n"

    @pytest.mark.parametrize(
        "cell, message",
        [
            (True, "$.stage_cost[1][2]: True is not valid under any of the given schemas"),
            ("x", "$.stage_cost[1][2]: 'x' is not valid under any of the given schemas"),
        ],
    )
    def test_stage_cost_leaf_must_be_a_number(self, tmp_path, capsys, cell, message):
        doc = json.load(open(instance_path("troc_small.json")))
        doc["stage_cost"][1][2] = cell
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: invalid instance at {message}\n"

    def test_time_varying_stage_cost_leaf_must_be_a_number(self, tmp_path, capsys):
        doc = json.load(open(instance_path("troc_small.json")))
        doc["stage_cost"] = [[list(row) for row in doc["stage_cost"]] for _ in range(doc["horizon"])]
        path = tmp_path / "varying.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 0
        doc["stage_cost"][3][1][2] = False
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 1
        message = "$.stage_cost[3][1][2]: False is not of type 'number'"
        assert capsys.readouterr().err == f"error: invalid instance at {message}\n"


class TestBadNumbers:
    """Unusable command-line numbers exit 1 with one error line, never a traceback."""

    @pytest.mark.parametrize("grid", ["abc", "0.1:0.2:-1", "0.1:0.2:0", "0.1:0.2", "0.1,,0.2"])
    def test_sweep_rejects_grid(self, tmp_path, capsys, grid):
        args = ["sweep", instance_path("qkl_ring4.json"), "--grid", grid, "--out", str(tmp_path)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "sweep.csv")

    @pytest.mark.parametrize(
        "name, flag, value",
        [
            ("qkl_ring4.json", "--steps", "-1"),
            ("qlqr_scalar.json", "--steps", "-1"),
            ("qkl_ring4.json", "--trajectories", "-2"),
            ("qlqr_scalar.json", "--trajectories", "-2"),
            ("qkl_ring4.json", "--seed", "-1"),
            ("qlqr_scalar.json", "--seed", "-1"),
        ],
    )
    def test_simulate_rejects_negative_counts(self, tmp_path, capsys, name, flag, value):
        out = str(tmp_path)
        assert run(["solve", instance_path(name), "--out", out]) == 0
        solution = os.path.join(out, "solution.json")
        assert run(["simulate", instance_path(name), solution, "--out", out, flag, value]) == 1
        assert capsys.readouterr().err.endswith(f"error: {flag} must be non-negative, got {value}\n")

    @pytest.mark.parametrize("grid", ["nan", "inf", "0.2,nan", "0:inf:3"])
    def test_sweep_rejects_non_finite_grid(self, tmp_path, capsys, grid):
        args = ["sweep", instance_path("qkl_ring4.json"), "--grid", grid, "--out", str(tmp_path)]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: --grid {grid!r} has a point that is not finite\n"
        assert not os.path.exists(tmp_path / "sweep.csv")

    def test_sweep_of_unreadable_instance_exits_1(self, tmp_path, capsys):
        args = ["sweep", str(tmp_path / "missing.json"), "--grid", "0.2,0.4", "--out", str(tmp_path)]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("error: cannot read instance file")


class TestUnusableOut:
    """An --out that cannot hold the outputs exits 1 with one error line and leaves it as it was."""

    @pytest.mark.parametrize("command", ["solve", "sweep", "simulate"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_regular_file(self, tmp_path, capsys, command, below):
        name = "qlqr_scalar.json"
        solution = str(tmp_path / "solution.json")
        assert run(["solve", instance_path(name), "--out", str(tmp_path)]) == 0
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        out = str(blocker / "sub") if below else str(blocker)
        extra = {"solve": [], "sweep": ["--grid", "0.2,0.4"], "simulate": [solution, "--steps", "3"]}
        capsys.readouterr()
        assert run([command, instance_path(name), *extra[command], "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert blocker.read_text() == "keep me\n"


class TestUsageErrors:
    """argparse's own errors exit 1, like malformed input; 2 is kept for infeasibility."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "I", "S", "--steps", "abc"], "argument --steps: invalid int value"),
            (["solve"], "the following arguments are required: instance"),
            (["solve", "I", "--no-such-option"], "unrecognized arguments: --no-such-option"),
            (["validate", "I", "--out", "D"], "unrecognized arguments: --out D"),
            (["solve", "I", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["sweep", "I", "--grid", "0.5", "--seed", "3"], "unrecognized arguments: --seed 3"),
        ],
        ids=["non-numeric-steps", "missing-instance", "unknown-option", "validate-out",
             "solve-seed", "sweep-seed"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qoc") and f"error: {message}" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qoc solve")


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
            run(["solve", instance_path("troc_small.json"), "--out", out])
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

    def test_sweep_with_no_good_point_writes_the_header_only(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run(["sweep", instance_path("qkl_ring4.json"), "--out", out, "--grid", "1.5,2"])
        assert code == 2
        csv_text = open(os.path.join(out, "sweep.csv")).read()
        assert csv_text == "parameter,cost,entropy,support_radius,sparsity_count\n"

    def test_instance_is_validated_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(doc):
            calls.append(doc)
            return validate_instance_dict(doc)

        monkeypatch.setattr(qoc.io, "validate_instance_dict", counting)
        argv = ["sweep", instance_path("qkl_ring4.json"), "--grid", "0.1:0.9:5",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        assert "5 points, 0 failures" in capsys.readouterr().out
        assert len(calls) == 1

    def test_swept_field_out_of_range_in_the_document_exits_1(self, tmp_path, capsys):
        doc = json.load(open(instance_path("qkl_ring4.json")))
        path = tmp_path / "bad_q.json"
        path.write_text(json.dumps(dict(doc, q=1.5)))
        out = tmp_path / "out"
        assert run(["sweep", str(path), "--grid", "0.2,0.4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid instance at $.q") and err.count("\n") == 1
        assert not out.exists()

    def test_lambda_point_rejected_by_the_constructor(self, tmp_path, capsys):
        argv = ["sweep", instance_path("qkl_ring4.json"), "--parameter", "lambda",
                "--grid", "0,0.5", "--out", str(tmp_path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "1 points, 1 failures" in captured.out
        assert captured.err == "sweep point 0.0 failed: lam must be positive and finite, got 0.0\n"
        assert len(open(tmp_path / "sweep.csv").read().strip().splitlines()) == 2

    def test_q_sweep_entropy_tends_to_the_gaussian_limit(self, tmp_path):
        # the stage-0 noise covariance tends to lam/2 (R + B^T Pi_1 B)^{-1}, so the entropy
        # column tends to that Gaussian's differential entropy plus 1, within O(1 - q)
        grid = [0.99, 0.99999999, 0.9999999999, 0.999999999999, 0.99999999999999, 0.999999999999999]
        path = instance_path("qlqr_scalar.json")
        argv = ["sweep", path, "--grid", ",".join(map(repr, grid)), "--out", str(tmp_path)]
        assert run(argv) == 0
        _, instance = load_instance(path)
        pi_1 = solve_qlqr(instance).pi_matrices[1]
        sigma = instance.lam / 2.0 * np.linalg.inv(instance.r_cost + instance.b.T @ pi_1 @ instance.b)
        limit = 0.5 * np.linalg.slogdet(2.0 * np.pi * np.e * sigma)[1] + 1.0
        table = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], grid)
        assert np.all(np.abs(table[:, 2] - limit) <= 5.0 * (1.0 - table[:, 0]) + 1e-13)


class TestTinyPassiveWeight:
    """A well-posed qkl instance whose cheapest successor has a negligible passive weight."""

    DOC = {
        "kind": "qkl",
        "q": 0.5,
        "lambda": 0.001,
        "horizon": 2,
        "state_cost": [0, 1e6, 2e6],
        "passive_matrix": [[0.5, 0.5, 1e-300], [0.5, 0.5, 0.5], [0, 0, 0.5]],
    }

    def _write(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.DOC))
        return str(path)

    def test_solve_gives_distributions(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", self._write(tmp_path), "--out", str(out)]) == 0
        mats = np.asarray(json.load(open(out / "solution.json"))["controlled_matrices"])
        assert mats.shape == (2, 3, 3) and np.all(mats >= 0)
        assert np.all(np.abs(mats.sum(axis=1) - 1.0) < 1e-9)

    def test_q_sweep_has_no_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", self._write(tmp_path), "--grid", "0.1:0.9:5", "--out", str(out)]
        assert run(argv) == 0
        assert "5 points, 0 failures" in capsys.readouterr().out
        assert len(open(out / "sweep.csv").read().strip().splitlines()) == 6


class TestRootIterationCap:
    """A root still moving at the cap exits 2, naming the stage, row and step count."""

    @pytest.mark.parametrize("name, stage", [("troc_small.json", 3), ("qkl_ring4.json", 199)])
    def test_solve_exits_2_naming_the_stage(self, tmp_path, capsys, monkeypatch, name, stage):
        monkeypatch.setattr(qoc.entmax, "ROOT_MAX_ITER", 1)
        out = tmp_path / "out"
        assert run(["solve", instance_path(name), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"stage {stage}: normalization root did not converge in row " in err
        assert "after 1 Newton steps: g " in err
        assert not (out / "solution.json").exists()


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

    def test_troc_is_refused_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", instance_path("troc_small.json"), "--out", str(tmp_path)]) == 0
        solution = str(tmp_path / "solution.json")
        assert run(["simulate", instance_path("troc_small.json"), solution, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "simulate supports qkl and qlqr solutions\n"
        assert not out.exists()

    def test_qkl_zero_trajectories_writes_the_header_only(self, tmp_path):
        out = str(tmp_path)
        assert run(["solve", instance_path("qkl_ring4.json"), "--out", out]) == 0
        args = ["simulate", instance_path("qkl_ring4.json"), os.path.join(out, "solution.json")]
        assert run(args + ["--out", out, "--trajectories", "0", "--steps", "3"]) == 0
        assert open(os.path.join(out, "trajectories.csv")).read() == "stage,trajectory,state\n"
        bundle = json.load(open(os.path.join(out, "result_bundle.json")))
        assert [os.path.basename(e["path"]) for e in bundle["manifest"]] == ["trajectories.csv"]

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
            (
                "qlqr_scalar.json",
                "'etas' is not a 1-d array of numbers",
                lambda doc: dict(doc, etas=[str(eta) for eta in doc["etas"]]),
            ),
            (
                "qlqr_scalar.json",
                "'gains' is not a 3-d array of numbers",
                lambda doc: dict(doc, gains=[[[True]]] + doc["gains"][1:]),
            ),
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


class TestInvalidLawsAndCosts:
    """Inputs that are not distributions or not positive definite exit 1 and name the field."""

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "solve", "sweep", "simulate"])
    def test_qkl_initial_summing_to_2(self, tmp_path, capsys, command):
        doc = json.load(open(instance_path("qkl_ring4.json")))
        bad = self._write(tmp_path, dict(doc, initial=[0.5] * 4))
        out = str(tmp_path / "out")
        extra = {
            "validate": [],
            "solve": ["--out", out],
            "sweep": ["--grid", "0.2,0.4", "--out", out],
            "simulate": [str(tmp_path / "solution.json"), "--out", out, "--steps", "5"],
        }[command]
        if command == "simulate":  # a valid solution, so only the instance is at fault
            assert run(["solve", instance_path("qkl_ring4.json"), "--out", str(tmp_path)]) == 0
            capsys.readouterr()
        assert run([command, bad] + extra) == 1
        err = capsys.readouterr().err
        assert "initial must be non-negative and sum to 1" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_sweep_fails_before_any_point(self, tmp_path, capsys):
        doc = json.load(open(instance_path("qkl_ring4.json")))
        bad = self._write(tmp_path, dict(doc, initial=[0.5] * 4))
        assert run(["sweep", bad, "--grid", "0.2,0.4", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sweep point" not in err

    def test_negative_qkl_initial(self, tmp_path, capsys):
        doc = json.load(open(instance_path("qkl_ring4.json")))
        assert run(["validate", self._write(tmp_path, dict(doc, initial=[1.5, -0.5, 0, 0]))]) == 1
        err = capsys.readouterr().err
        assert "initial" in err and "Traceback" not in err

    def test_triangular_r_cost(self, tmp_path, capsys):
        eye, zeros = np.eye(2).tolist(), np.zeros((2, 2)).tolist()
        doc = {
            "kind": "qlqr", "q": 0.25, "lambda": 0.01, "horizon": 10,
            "a": eye, "b": eye, "q_cost": eye, "s_cost": zeros,
            "r_cost": [[1.0, 1.0], [0.0, 1.0]], "terminal_cost": eye, "initial_state": [1.0, 0.0],
        }
        assert run(["solve", self._write(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "r_cost must be symmetric positive definite" in err and "Traceback" not in err

    def test_r_cost_asymmetric_by_1e_6(self, tmp_path, capsys):
        doc = json.load(open(instance_path("qlqr_scalar.json")))
        eye, zeros = np.eye(2).tolist(), np.zeros((2, 2)).tolist()
        doc.update(a=eye, b=eye, q_cost=eye, s_cost=zeros, terminal_cost=eye, initial_state=[1.0, 0.0])
        assert run(["validate", self._write(tmp_path, dict(doc, r_cost=[[1.0, 0.5], [0.5, 1.0]]))]) == 0
        bad = self._write(tmp_path, dict(doc, r_cost=[[1.0, 0.5], [0.500001, 1.0]]))
        assert run(["validate", bad]) == 1
        assert "r_cost must be symmetric positive definite" in capsys.readouterr().err


class TestOverflow:
    """Finite inputs whose solve overflows float64 exit 2, name the stage and write nothing."""

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("troc_small.json", {"terminal_cost": [1e308] * 3},
             "stage 3: values or normalizers overflowed"),
            ("qkl_ring4.json", {"state_cost": [1e308] * 4},
             "stage 199: values or normalizers overflowed"),
            ("qlqr_scalar.json", {"q_cost": 1e308, "terminal_cost": 1e308},
             "stage 99: Riccati matrices overflowed"),
        ],
        ids=["troc", "qkl", "qlqr"],
    )
    def test_solve_exits_2_naming_the_stage(self, tmp_path, capsys, name, edit, message):
        doc = json.load(open(instance_path(name)))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(doc, **edit)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    def test_qlqr_noise_exits_2_naming_the_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", instance_path("qlqr_scalar.json"), "--lambda", "1e-320",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "solver infeasible: stage 0: sigma must be symmetric positive definite\n"
        assert not (out / "solution.json").exists()

    def test_simulate_exits_2_naming_the_stage(self, tmp_path, capsys):
        # zero costs give a zero gain, so the state grows by a = 1e100 per stage
        doc = json.load(open(instance_path("qlqr_scalar.json")))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(doc, a=1e100, q_cost=0.0, terminal_cost=0.0, horizon=5)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", str(path), "--out", str(out)]) == 0
            argv = ["simulate", str(path), str(out / "solution.json"), "--steps", "5",
                    "--trajectories", "3", "--out", str(out)]
            assert run(argv) == 2
        assert "stage 2: envelope overflowed float64" in capsys.readouterr().err
        assert not (out / "envelope.csv").exists()
        assert not (out / "trajectories.csv").exists()

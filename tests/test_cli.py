import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meantype.cli
import meantype.invariant
from meantype.cli import build_parser, main, parse_vector
from meantype.errors import ParseError

AGM_CFG = "p = 2\ndomain = (0, inf)\ncomponents = arithmetic, geometric\n"
AH_BOX_CFG = "p = 2\ndomain = [0.5, 10]\ncomponents = arithmetic, harmonic\n"
SHIFT3_CFG = "p = 3\ndomain = (-inf, inf)\ncomponents = projection:2, projection:3, arithmetic\n"
PROJ_CFG = "p = 2\ndomain = (-inf, inf)\ncomponents = projection:1, projection:2\n"


@pytest.fixture
def cfg(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return {
        "agm": write("agm.cfg", AGM_CFG),
        "ah": write("ah.cfg", AH_BOX_CFG),
        "shift3": write("shift3.cfg", SHIFT3_CFG),
        "proj": write("proj.cfg", PROJ_CFG),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseVector:
    def test_basic(self):
        assert parse_vector("1,2.5,-3") == (1.0, 2.5, -3.0)

    def test_scientific(self):
        assert parse_vector("1e-3, 2E4") == (0.001, 20000.0)

    def test_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse_vector("1,zap,3")
        assert exc.value.token == "zap"


class TestExitCodes:
    def test_success_is_zero(self, capsys, cfg):
        code, out, _ = run(capsys, "invariant", "--mapping", cfg["agm"], "--vector", "1,2")
        assert code == 0

    def test_missing_file_is_one(self, capsys):
        code, _, err = run(capsys, "invariant", "--mapping", "nope.cfg", "--vector", "1,2")
        assert code == 1
        assert "error" in err

    def test_malformed_config_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("p = 2\ndomain = (0, inf)\ncomponents = arithmetic, quadratic\n")
        code, _, err = run(capsys, "map-apply", "--mapping", str(bad), "--vector", "1,2")
        assert code == 1
        assert "quadratic" in err

    def test_bad_vector_is_one(self, capsys, cfg):
        code, _, err = run(capsys, "map-apply", "--mapping", cfg["agm"], "--vector", "1,x")
        assert code == 1
        assert "x" in err

    def test_arity_mismatch_is_one(self, capsys, cfg):
        code, _, err = run(capsys, "map-apply", "--mapping", cfg["agm"], "--vector", "1,2,3")
        assert code == 1

    @pytest.mark.parametrize("vector", ["--vector=2,2,2", "--vector=-1,-1"])
    @pytest.mark.parametrize("output", ["human", "json"])
    def test_invalid_constant_start_is_one(self, capsys, cfg, vector, output):
        # a constant start that is no input of the mapping is not its own invariant mean
        code, out, err = run(capsys, "invariant", "--mapping", cfg["agm"], vector,
                             "--output", output)
        assert (code, out) == (1, "")
        assert "step 1: component 1 (arithmetic): " in err

    def test_usage_error_is_one(self, capsys, cfg):
        code, _, err = run(capsys, "invariant", "--mapping", cfg["agm"])  # no --vector
        assert code == 1

    def test_counterexample_is_two(self, capsys, cfg):
        code, out, _ = run(capsys, "contractive-probe", "--mapping", cfg["proj"],
                           "--samples", "10")
        assert code == 2
        assert "counterexample" in out

    def test_no_counterexample_is_zero(self, capsys, cfg):
        code, out, _ = run(capsys, "contractive-probe", "--mapping", cfg["agm"],
                           "--samples", "200")
        assert code == 0
        assert "no counterexample" in out

    def test_n0_cap_exhausted_is_two(self, capsys, cfg):
        code, out, _ = run(capsys, "n0", "--mapping", cfg["proj"], "--vector", "0,1",
                           "--cap", "20")
        assert code == 2

    def test_max_iter_reached_is_two(self, capsys, cfg):
        code, out, _ = run(capsys, "invariant", "--mapping", cfg["proj"],
                           "--vector", "0,1", "--max-iter", "25")
        assert code == 2
        assert "max_iter_reached" in out


class TestFloatEdges:
    @pytest.mark.parametrize("mean", ["arithmetic", "quasi:identity"])
    def test_mean_eval_sum_overflow(self, capsys, mean):
        code, out, err = run(capsys, "mean-eval", "--mean", mean, "--vector", "1e308,1.7e308")
        assert code == 0, err
        assert 1e308 <= float(out.split("=")[1]) <= 1.7e308

    @pytest.mark.parametrize("vector, value", [
        ("1.7976931348623157e308,1.79769313486231e308", "1.7976931348623157e+308"),
        ("1,1.0000000000000002", "1.0000000000000002"),
    ], ids=["sum-overflows", "past-the-max"])
    def test_weights_summing_past_one_stay_internal(self, capsys, vector, value):
        # the weights sum to 1 + 5e-13, within the spec's tolerance, so the
        # weighted sum exceeds max(v): at float max, past the float range
        code, out, err = run(capsys, "mean-eval", "--mean", "weighted:0.5000000000005,0.5",
                             f"--vector={vector}")
        assert (code, out, err) == (0, f"value = {value}\n", "")

    def test_float_max_pair_converges(self, capsys, tmp_path):
        # the power mean's log-space path rounds the start's pair 4.2e294 below
        # the domain's least float; clamped, the first iterate is its end
        path = tmp_path / "max-pair.cfg"
        path.write_text("p = 2\ndomain = [1.7976931348623155e308, inf)\n"
                        "components = arithmetic, power:-1e300\n")
        code, out, err = run(capsys, "invariant", "--mapping", str(path),
                             "--vector=1.7976931348623157e308,1.7976931348623155e308",
                             "--output", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["value"], doc["steps"], doc["status"]) == (1.7976931348623155e308, 1,
                                                               "converged")

    def test_invariant_near_overflow(self, capsys, cfg):
        code, out, err = run(capsys, "invariant", "--mapping", cfg["agm"],
                             "--vector", "1.7e308,1e308", "--relative", "--output", "json")
        assert code == 0, err
        assert 1e308 <= json.loads(out)["value"] <= 1.7e308

    def test_invariant_near_overflow_absolute_tol(self, capsys, cfg):
        # an absolute tol of 1e-12 is below one ulp at 1e308: reported, not raised
        code, out, err = run(capsys, "invariant", "--mapping", cfg["agm"],
                             "--vector", "1.7e308,8e307", "--max-iter", "50",
                             "--output", "json")
        assert code == 2, err
        doc = json.loads(out)
        assert doc["status"] == "max_iter_reached"
        assert 8e307 <= doc["value"] <= 1.7e308

    @pytest.mark.parametrize("command", ["contractive-probe", "uniqueness"])
    def test_samples_near_float_max(self, capsys, tmp_path, command):
        # the stress vectors' midpoint 0.5 * (lo + hi) overflowed here
        path = tmp_path / "edge.cfg"
        path.write_text("p = 2\ndomain = [1e308, 1.7e308]\ncomponents = arithmetic, max\n")
        code, out, err = run(capsys, command, "--mapping", str(path), "--samples", "20")
        assert code == 0, err

    def test_probe_tests_samples_beyond_the_cut(self, capsys, tmp_path):
        # 1.6983e308 + 200 rounds back to 1.6983e308: the sampling box was one point
        path = tmp_path / "edge.cfg"
        path.write_text("p = 2\ndomain = [1.6983e308, inf)\ncomponents = arithmetic, max\n")
        code, out, err = run(capsys, "contractive-probe", "--mapping", str(path),
                             "--samples", "20", "--output", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["samples_tested"] > 0 and doc["skipped"] == 0

    @pytest.mark.parametrize("command", ["contractive-probe", "uniqueness", "residual",
                                         "decompose"])
    def test_probe_on_a_single_float_domain_is_one(self, capsys, tmp_path, command):
        # the domain holds one float: every sample would be constant, so none tests anything
        path = tmp_path / "point.cfg"
        path.write_text("p = 2\ndomain = [1.7976931348623157e308, inf)\n"
                        "components = arithmetic, max\n")
        argv = [command, "--mapping", str(path), "--samples", "20"]
        argv += ["--function", "product"] if command == "decompose" else []
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("error: cannot draw 20 nonconstant samples from domain "
                       "[1.7976931348623157e+308, inf): its sampling box is the single point "
                       "1.7976931348623157e+308\n")

    @pytest.mark.parametrize("command", ["uniqueness", "residual"])
    @pytest.mark.parametrize("domain", ["(1, 1.000000000001)", "(0, 1e-320)"])
    def test_samples_of_a_narrow_open_domain_stay_inside(self, capsys, tmp_path, command, domain):
        # the open endpoints' inset is lost to rounding: the samples held an endpoint
        path = tmp_path / "narrow.cfg"
        path.write_text(f"p = 2\ndomain = {domain}\ncomponents = arithmetic, max\n")
        code, out, err = run(capsys, command, "--mapping", str(path), "--samples", "20")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("domain", ["(1, 1.000000000001)", "[1, 1.0000000001]"])
    def test_contractive_probe_tests_a_narrow_domain(self, capsys, tmp_path, domain):
        # the skip threshold scales with the sampling box: about 4500 floats wide is not noise
        path = tmp_path / "narrow.cfg"
        path.write_text(f"p = 2\ndomain = {domain}\ncomponents = arithmetic, max\n")
        code, out, err = run(capsys, "contractive-probe", "--mapping", str(path),
                             "--samples", "20", "--output", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"] == "no_counterexample" and doc["samples_tested"] > 0

    def test_contractive_probe_that_tests_nothing_is_one(self, capsys, tmp_path):
        # every sample of the negative half-line fails the geometric mean, so every one is skipped
        path = tmp_path / "negative.cfg"
        path.write_text("p = 2\ndomain = (-inf, 0)\ncomponents = arithmetic, geometric\n")
        code, out, err = run(capsys, "contractive-probe", "--mapping", str(path),
                             "--samples", "20")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: contractivity probe tested none of its 20 samples ")

    @pytest.mark.parametrize("components,function,message", [
        ("arithmetic, max", "sum", "function sum overflows: "),
        ("arithmetic, geometric", "product", "function product is inf"),
    ])
    def test_decompose_overflow_is_one(self, capsys, tmp_path, components, function, message):
        # F leaves the float range on the first sample
        path = tmp_path / "edge.cfg"
        path.write_text(f"p = 2\ndomain = [1e307, 1.7e308]\ncomponents = {components}\n")
        code, out, err = run(capsys, "decompose", "--mapping", str(path),
                             "--function", function, "--samples", "20")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: sample 0 [") and f"]: {message}" in err

    def test_unary_domain_error_is_one(self, capsys, cfg):
        code, out, err = run(capsys, "decompose", "--mapping", cfg["shift3"],
                             "--function", "sqrt@sum", "--samples", "20")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_json_non_finite_is_string(self, capsys, cfg):
        code, out, err = run(capsys, "map-iterate", "--mapping", cfg["shift3"],
                             "--vector=1e308,-1e308,0", "--steps", "1", "--output", "json")
        assert code == 0, err

        def bare(token):
            raise ValueError(f"bare {token} in JSON output")

        steps = json.loads(out, parse_constant=bare)["trace"]["steps"]
        assert steps[0]["diameter"] == "inf"
        assert steps[1]["diameter"] == 1e308

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_bad_invariance_threshold_is_one(self, capsys, cfg, threshold):
        code, out, err = run(capsys, "decompose", "--mapping", cfg["shift3"],
                             "--function", "sum", "--invariance-threshold", threshold,
                             "--output", "json")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["invariant", "uniqueness", "decompose", "residual"])
    def test_nan_tol_is_one(self, capsys, cfg, command):
        for tol in ("nan", "inf", "1e400"):  # an infinite tol stops any start at once
            argv = [command, "--mapping", cfg["agm"], "--tol", tol]
            argv += ["--vector", "1,2"] if command == "invariant" else ["--samples", "5"]
            if command == "decompose":
                argv += ["--function", "product"]
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert "tol must be positive" in err
            assert err.count("\n") == 1 and err.startswith("error: "), err


class TestNegativeVector:
    @pytest.mark.parametrize("argv", [
        ["map-apply", "--mapping", "{shift3}"],
        ["map-iterate", "--mapping", "{shift3}", "--steps", "2"],
        ["mean-eval", "--mean", "arithmetic"],
    ], ids=["map-apply", "map-iterate", "mean-eval"])
    def test_two_token_form_matches_attached(self, capsys, cfg, argv):
        argv = [a.format(**cfg) for a in argv]
        attached = run(capsys, *argv, "--vector=-1,2,0.5")
        two_token = run(capsys, *argv, "--vector", "-1,2,0.5")
        assert two_token[0] == 0, two_token[2]
        assert two_token == attached

    def test_wrong_arity_reads_as_vector(self, capsys, cfg):
        # p = 3: the two-token form fails on the arity, as the attached form does
        code, out, err = run(capsys, "map-apply", "--mapping", cfg["shift3"], "--vector", "-1,2")
        assert (code, out) == (1, "")
        assert "length 2" in err
        attached = run(capsys, "map-apply", "--mapping", cfg["shift3"], "--vector=-1,2")
        assert attached == (code, out, err)

    def test_option_after_vector_flag_is_not_joined(self, capsys, cfg):
        code, _, err = run(capsys, "map-apply", "--mapping", cfg["shift3"], "--vector", "--output")
        assert code == 1
        assert "--vector" in err


# A valid argv per command; each hostile flag below is appended, so it
# overrides the same flag given earlier (argparse keeps the last) or is
# rejected by a command that has no such flag.
_VALID_ARGV = {
    "mean-eval": ["--mean", "arithmetic", "--vector", "1,2"],
    "map-apply": ["--mapping", "{agm}", "--vector", "1,2"],
    "map-iterate": ["--mapping", "{agm}", "--vector", "1,2", "--steps", "3"],
    "contractive-probe": ["--mapping", "{agm}", "--samples", "5"],
    "n0": ["--mapping", "{shift3}", "--vector", "0,1,0"],
    "invariant": ["--mapping", "{agm}", "--vector", "1,2"],
    "residual": ["--mapping", "{agm}", "--samples", "5"],
    "uniqueness": ["--mapping", "{agm}", "--samples", "5"],
    "decompose": ["--mapping", "{ah}", "--samples", "5", "--function", "product"],
}
_HOSTILE = {
    "nan": ["--vector=nan,1"],
    "inf": ["--vector=inf,1"],
    "1e309": ["--vector=1e309,1"],
    "empty-vector": ["--vector="],
    "wrong-arity": ["--vector=1,2,3,4"],
    "tol": ["--tol", "-1"],
    "samples": ["--samples", "0"],
    "cap": ["--cap", "0"],
    "steps": ["--steps", "-1"],
    "unknown-mean": ["--mean", "quadratic"],
}


class TestHostileInputs:
    @pytest.mark.parametrize("hostile", list(_HOSTILE))
    @pytest.mark.parametrize("command", list(_VALID_ARGV))
    def test_exits_cleanly(self, capsys, cfg, command, hostile):
        argv = [command] + [a.format(**cfg) for a in _VALID_ARGV[command]] + _HOSTILE[hostile]
        code, out, err = run(capsys, *argv)  # raising fails the test
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
        # every case is a bad value or a flag the command lacks, except a
        # 4-vector for mean-eval, which takes its arity from the vector
        assert code == (0 if (command, hostile) == ("mean-eval", "wrong-arity") else 1), err

    def test_a_mapping_file_that_is_not_utf8_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff")
        code, out, err = run(capsys, "invariant", "--mapping", str(path), "--vector", "1,2")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot read mapping file {str(path)!r}: ")
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("command", list(_VALID_ARGV))
    def test_valid_argv_succeeds(self, capsys, cfg, command):
        # the hostile cases above differ from a run that exits 0 or 2 by one flag
        argv = [command] + [a.format(**cfg) for a in _VALID_ARGV[command]]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), err


class TestCommands:
    def test_invariant_agm(self, capsys, cfg):
        code, out, _ = run(capsys, "invariant", "--mapping", cfg["agm"], "--vector", "1,2")
        assert code == 0
        assert "value = 1.456791031" in out
        assert "status = converged" in out

    def test_map_apply_fixed_point(self, capsys, cfg):
        code, out, _ = run(capsys, "map-apply", "--mapping", cfg["agm"], "--vector", "5,5")
        assert code == 0
        assert "result = (5.0, 5.0)" in out

    def test_n0_shift3(self, capsys, cfg):
        code, out, _ = run(capsys, "n0", "--mapping", cfg["shift3"], "--vector", "0,1,0")
        assert code == 0
        assert "n0 = 2" in out

    def test_mean_eval(self, capsys):
        code, out, _ = run(capsys, "mean-eval", "--mean", "power:0.5",
                           "--vector", "4,9", "--domain", "(0, inf)")
        assert code == 0
        value = float(out.split("=")[1])
        assert value == pytest.approx(((2.0 + 3.0) / 2) ** 2, abs=1e-12)

    def test_mean_eval_rejects_bad_mean(self, capsys):
        code, _, err = run(capsys, "mean-eval", "--mean", "quadratic", "--vector", "1,2")
        assert code == 1
        assert "quadratic" in err

    @pytest.mark.parametrize("steps", ["0", "2"])
    def test_map_iterate_invalid_start_is_one(self, capsys, cfg, steps):
        # the last vector is checked too: its error is the one invariant gives
        argv = ("--mapping", cfg["agm"], "--vector=-1,2")
        code, out, err = run(capsys, "map-iterate", *argv, "--steps", steps)
        assert (code, out) == (1, "")
        assert err == ("error: step 1: component 1 (arithmetic): "
                       "coordinate 1 = -1.0 outside domain (0.0, inf)\n")
        assert run(capsys, "invariant", *argv) == (code, out, err)

    def test_map_iterate_human(self, capsys, cfg):
        code, out, _ = run(capsys, "map-iterate", "--mapping", cfg["shift3"],
                           "--vector", "0,1,0", "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("step 0:")

    def test_residual_with_catalog_mean(self, capsys, cfg):
        code, out, _ = run(capsys, "residual", "--mapping", cfg["ah"],
                           "--mean", "geometric", "--samples", "100")
        assert code == 0
        assert float(out.split("=")[1]) <= 1e-12

    def test_residual_default_invariant_mean(self, capsys, cfg):
        code, out, _ = run(capsys, "residual", "--mapping", cfg["ah"], "--samples", "50")
        assert code == 0
        assert float(out.split("=")[1]) <= 2e-12

    def test_uniqueness(self, capsys, cfg):
        code, out, _ = run(capsys, "uniqueness", "--mapping", cfg["agm"],
                           "--samples", "50")
        assert code == 0
        assert float(out.split("=")[1].split("(")[0]) <= 2e-12

    def test_decompose_invariant_function(self, capsys, cfg):
        code, out, _ = run(capsys, "decompose", "--mapping", cfg["ah"],
                           "--function", "product", "--samples", "50")
        assert code == 0
        assert "invariance_residual" in out

    def test_decompose_non_invariant_is_two(self, capsys, cfg):
        code, out, _ = run(capsys, "decompose", "--mapping", cfg["agm"],
                           "--function", "coord:1", "--samples", "50")
        assert code == 2
        assert "exceeds threshold" in out

    @pytest.mark.parametrize("patched", [("cli", "decompose"), ("cli",), ("decompose",)])
    def test_decompose_calls_verify_decomposition_once(self, capsys, cfg, monkeypatch, patched):
        # bench/spans.py sets one wrapper on both modules' verify_decomposition;
        # each of them alone sees the command's one call too
        argv = ["decompose", "--mapping", cfg["ah"], "--function", "product", "--samples", "20"]
        plain = run(capsys, *argv)
        calls, verify = [], meantype.decompose.verify_decomposition

        def counted(*args, **kwargs):
            calls.append(args)
            return verify(*args, **kwargs)

        for name in patched:
            monkeypatch.setattr(getattr(meantype, name), "verify_decomposition", counted)
        assert run(capsys, *argv) == plain
        assert len(calls) == 1


class TestOutputFormats:
    def test_json_document_fields(self, capsys, cfg):
        code, out, _ = run(capsys, "invariant", "--mapping", cfg["agm"],
                           "--vector", "1,2", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"mapping", "v", "tol", "max_iter", "value", "steps",
                            "final_diameter", "status", "timestamp"}
        assert doc["status"] == "converged"
        assert doc["v"] == [1.0, 2.0]

    def test_json_stable_modulo_timestamp(self, capsys, cfg):
        _, out1, _ = run(capsys, "invariant", "--mapping", cfg["agm"],
                         "--vector", "1,2", "--output", "json")
        _, out2, _ = run(capsys, "invariant", "--mapping", cfg["agm"],
                         "--vector", "1,2", "--output", "json")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timestamp")
        doc2.pop("timestamp")
        assert json.dumps(doc1) == json.dumps(doc2)

    def test_probe_json_stable_for_seed(self, capsys, cfg):
        _, out1, _ = run(capsys, "contractive-probe", "--mapping", cfg["shift3"],
                         "--samples", "50", "--seed", "7", "--output", "json")
        _, out2, _ = run(capsys, "contractive-probe", "--mapping", cfg["shift3"],
                         "--samples", "50", "--seed", "7", "--output", "json")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timestamp")
        doc2.pop("timestamp")
        assert doc1 == doc2

    def test_csv_trace(self, capsys, cfg):
        code, out, _ = run(capsys, "map-iterate", "--mapping", cfg["agm"],
                           "--vector", "1,2", "--steps", "3", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,x1,x2,diameter"
        assert len(lines) == 5

    def test_csv_rejected_without_trace(self, capsys, cfg):
        code, _, err = run(capsys, "map-apply", "--mapping", cfg["agm"],
                           "--vector", "1,2", "--output", "csv")
        assert code == 1
        assert "csv" in err

    def test_invariant_trace_csv(self, capsys, cfg):
        code, out, _ = run(capsys, "invariant", "--mapping", cfg["agm"],
                           "--vector", "1,2", "--trace", "--output", "csv")
        assert code == 0
        assert out.startswith("step,x1,x2,diameter")

    def test_trace_attached_to_json(self, capsys, cfg):
        _, out, _ = run(capsys, "invariant", "--mapping", cfg["agm"],
                        "--vector", "1,2", "--trace", "--output", "json")
        doc = json.loads(out)
        assert "trace" in doc
        assert doc["trace"]["steps"][0]["vector"] == [1.0, 2.0]


class TestSeedEnvVar:
    def test_env_overrides_default_seed(self, capsys, cfg, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "777")
        _, out, _ = run(capsys, "contractive-probe", "--mapping", cfg["agm"],
                        "--samples", "20", "--output", "json")
        assert json.loads(out)["seed"] == 777

    def test_explicit_flag_beats_env(self, capsys, cfg, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "777")
        _, out, _ = run(capsys, "contractive-probe", "--mapping", cfg["agm"],
                        "--samples", "20", "--seed", "3", "--output", "json")
        assert json.loads(out)["seed"] == 3

    def test_bad_env_value_is_error(self, capsys, cfg, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "not-a-number")
        code, _, err = run(capsys, "contractive-probe", "--mapping", cfg["agm"],
                           "--samples", "20")
        assert code == 1
        assert "MEANTYPE_SEED" in err

    # The variable is read only by a command that takes --seed and is not given it.
    def test_bad_env_value_spares_a_command_without_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "abc")
        code, out, err = run(capsys, "mean-eval", "--mean", "arithmetic", "--vector", "1,2")
        assert (code, out, err) == (0, "value = 1.5\n", "")

    def test_bad_env_value_spares_help(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "abc")
        code, out, err = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: meantype") and err == ""

    def test_bad_env_value_spares_an_explicit_seed(self, capsys, cfg, monkeypatch):
        monkeypatch.setenv("MEANTYPE_SEED", "abc")
        code, out, err = run(capsys, "contractive-probe", "--mapping", cfg["agm"],
                             "--samples", "20", "--seed", "3", "--output", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["seed"] == 3


# Options each command offers (besides -h), with its --output and --readout
# choices ("" where it has no --readout).
_SOLVE = {"--tol", "--max-iter"}
_SAMPLE = {"--mapping", "--samples", "--seed", "--output"}
_SURFACE = {
    "mean-eval": ({"--mean", "--vector", "--domain", "--output"}, "human,json", ""),
    "map-apply": ({"--mapping", "--vector", "--output"}, "human,json", ""),
    "map-iterate": ({"--mapping", "--vector", "--steps", "--output"}, "human,json,csv", ""),
    "contractive-probe": (_SAMPLE, "human,json", ""),
    "n0": ({"--mapping", "--vector", "--cap", "--output"}, "human,json", ""),
    "invariant": ({"--mapping", "--vector", "--readout", "--relative", "--trace", "--output"}
                  | _SOLVE, "human,json,csv", "mid,min,max,first"),
    "residual": (_SAMPLE | _SOLVE | {"--readout", "--relative", "--mean"}, "human,json",
                 "mid,min,max,first"),
    "uniqueness": (_SAMPLE | _SOLVE | {"--relative"}, "human,json", ""),
    "decompose": (_SAMPLE | _SOLVE | {"--function", "--invariance-threshold"}, "human,json",
                  ""),
}


# Removed flags, csv without a trace and flag prefixes: (command, appended flags, part of
# the error).
_REJECTED = [
    ("decompose", ["--relative"], "unrecognized arguments: --relative"),
    ("decompose", ["--readout", "mid"], "unrecognized arguments: --readout mid"),
    ("uniqueness", ["--readout", "mid"], "unrecognized arguments: --readout mid"),
    *[(c, ["--output", "csv"], "invalid choice: 'csv'")
      for c in _SURFACE if c not in ("map-iterate", "invariant")],
    ("invariant", ["--output", "csv"], "csv output is only available"),
    ("residual", ["--me", "geometric"], "unrecognized arguments: --me geometric"),
    ("uniqueness", ["--re"], "unrecognized arguments: --re"),
]


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParserSurface:
    def test_each_command_offers_the_options_it_reads(self):
        commands = _subparsers()
        assert set(commands) == set(_SURFACE)
        for name, sub in commands.items():
            actions = {a.option_strings[0]: a for a in sub._actions if a.option_strings[0] != "-h"}
            options, outputs, readouts = _SURFACE[name]
            assert set(actions) == options, name
            assert ",".join(actions["--output"].choices) == outputs, name
            assert ",".join(getattr(actions.get("--readout"), "choices", ())) == readouts, name

    @pytest.mark.parametrize("command, extra, message", _REJECTED,
                             ids=[f"{c} {' '.join(e)}" for c, e, _ in _REJECTED])
    def test_rejected_with_one_error_line(self, capsys, cfg, command, extra, message):
        argv = [command] + [a.format(**cfg) for a in _VALID_ARGV[command]] + extra
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("command", [None, *_SURFACE])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_returns_zero(self, capsys, command, flag):
        argv = [flag] if command is None else [command, flag]
        code, out, err = run(capsys, *argv)  # raising SystemExit fails the test
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: meantype {command or ''}".rstrip())

    @pytest.mark.parametrize("argv, solves", [
        # one solve per sample: both readouts, or K(M(v)) and K(v), come from one orbit
        (["uniqueness", "--mapping", "{agm}", "--samples", "5"], 5),
        (["uniqueness", "--mapping", "{agm}", "--samples", "5", "--output", "csv"], 0),
        (["residual", "--mapping", "{agm}", "--samples", "5"], 5),
        (["decompose", "--mapping", "{ah}", "--samples", "5", "--function", "product"], 5),
        (["invariant", "--mapping", "{agm}", "--vector", "1,2"], 1),
        (["invariant", "--mapping", "{agm}", "--vector", "1,2", "--output", "csv"], 0),
    ], ids=["uniqueness", "uniqueness-csv", "residual", "decompose", "invariant",
            "invariant-csv"])
    def test_csv_rejected_before_any_solve(self, capsys, cfg, monkeypatch, argv, solves):
        # every Gauss run of these commands goes through _solve
        calls, solve = [], meantype.invariant._solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(meantype.invariant, "_solve", counted)
        code, _, _ = run(capsys, *[a.format(**cfg) for a in argv])
        assert code == (1 if "csv" in argv else 0)
        assert len(calls) == solves


class TestResidualFlags:
    @pytest.mark.parametrize("flag, message", [
        (["--tol", "-1"], "tol must be positive, got -1.0"),
        (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
    ], ids=["tol", "max-iter"])
    def test_gauss_flags_checked_with_mean(self, capsys, cfg, flag, message):
        # K is the geometric mean here, but a bad Gauss flag still exits 1
        code, out, err = run(capsys, "residual", "--mapping", cfg["ah"], "--samples", "5",
                             "--mean", "geometric", *flag)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


def test_import_loads_no_unneeded_modules():
    # Fresh interpreters, since pytest has loaded these modules itself; -S
    # keeps site-packages start-up hooks from loading any of them first.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def child(code):
        return subprocess.run([sys.executable, "-S", "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True).stdout

    unneeded = ("dataclasses", "inspect", "csv", "datetime", "typing", "meantype.decompose",
                "json", "random")
    loaded = f"sorted(set({unneeded!r}) & set(sys.modules))"
    assert child(f"import sys, meantype; print({loaded})\n"
                 f"import meantype.cli; print({loaded})") == "[]\n[]\n"
    # a command that neither decomposes nor writes JSON loads neither module;
    # the names of decompose still import, one by one, by *, and by pickle
    assert child(
        "import contextlib, io, sys\n"
        "from meantype import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['invariant', '--mapping', 'configs/agm.cfg', '--vector', '1,2'])\n"
        "print(code, out.getvalue().splitlines()[0])\n"
        "print(sorted({'meantype.decompose', 'json'} & set(sys.modules)))\n"
        "import pickle\n"
        "from meantype import verify_decomposition\n"
        "from meantype import *\n"
        "report = verify_decomposition(product_function(2), arithmetic_harmonic_mapping(),\n"
        "                              sample_count=5)\n"
        "copy = pickle.loads(pickle.dumps(report))\n"
        "print(type(copy) is DecompositionReport, copy == report)\n"
    ) == "0 value = 1.4567910310469068\n[]\nTrue True\n"


@pytest.mark.parametrize("launcher", [
    ["-m", "meantype"], ["-c", "from meantype.cli import entrypoint; entrypoint()"],
], ids=["module", "entrypoint"])
def test_process_entry_points(launcher):
    # __main__.py and cli.entrypoint, each as a process's exit status and output
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def process(*argv):
        return subprocess.run([sys.executable, *launcher, *argv], cwd=root, env=env,
                              capture_output=True, text=True)

    agm = ["--mapping", "configs/agm.cfg", "--vector", "1,2"]
    done = process("invariant", *agm)
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "value = 1.4567910310469068"
    assert process("n0", "--mapping", "configs/projections.cfg", "--vector=0,1",
                   "--cap", "5").returncode == 2
    failed = process("uniqueness")
    assert failed.returncode == 1
    assert len(failed.stderr.splitlines()) == 1 and failed.stderr.startswith("error: ")
    done = process("invariant", *agm, "--output", "json")
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    keys = list(doc)
    assert (keys[0], doc["command"], keys[-1]) == ("command", "invariant", "timestamp")

import json
import math

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eta_forge.cli import parse_complex, run


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def invoke_json(argv, capsys):
    code, out = invoke(argv, capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("2") == 2.0
    assert parse_complex(" -2") == -2.0
    assert parse_complex("0.5+14.1i") == complex(0.5, 14.1)
    assert parse_complex("0.5 - 0.4i") == complex(0.5, -0.4)
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("1.5j") == 1.5j
    with pytest.raises(Exception):
        parse_complex("spam")


# ---------------------------------------------------------------------------
# envelopes and exit codes
# ---------------------------------------------------------------------------

def test_eta_eval_exact_zero(capsys):
    code, env = invoke_json(["--no-timing", "eta", "eval", "--family", "hasse",
                             "--n", "3", "--s", " -2"], capsys)
    assert code == 0
    assert env["schema_version"] == "1.0"
    assert env["command"] == "eta eval"
    assert env["results"]["value"] == {"re": "0.0", "im": "0.0"}
    assert env["diagnostics"]["abs_err_bound"] == 0.0


def test_verify_thm1_residual(capsys):
    code, env = invoke_json(["--no-timing", "verify", "thm1", "--n", "1", "--s", "1"], capsys)
    assert code == 0
    assert env["results"]["residual"] <= 1e-10


@pytest.mark.parametrize("argv, reason", [
    (["verify", "thm2", "--n", "3", "--s", "0.0005"],
     "inside pole-guard radius of genuine pole at s = 0"),
    (["verify", "thm1", "--n", "2", "--s", "3.9996"],
     "inside pole-guard radius of genuine pole at s = 4"),
    (["verify", "thm2", "--n", "3", "--s", "2.0001"],
     "inside pole-guard annulus of pole-free point s = 2 (0/0 limit)"),
])
def test_verify_skips_are_strict_json(argv, reason, capsys):
    code, out = invoke(["--no-timing"] + argv, capsys)
    assert code == 0
    res = _strict_json(out)["results"]
    assert res["skipped"] is True and res["reason"] == reason
    if "genuine" in reason:  # no closed form, so no residual
        assert res["residual"] is None and res["rhs"] is None
    else:  # the 0/0 limit still agrees with the quadrature
        assert res["residual"] <= 1e-6


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eta", "eval", "--family", "hasse", "--n", "not-an-int", "--s", "1"])
    assert exc.value.code == 2


def test_rest_frames_at_a_fraction_of_a_turn(capsys):
    # u = e^(2 pi i / 3): w = e^(2 pi i k), k = 1/6, 5/12, 2/3, 11/12, and exactly the w with
    # w^2 = -u swap a and b
    code, env = invoke_json(["--no-timing", "weyl", "rest-frames", "--u", "1/3"], capsys)
    assert code == 0
    assert [(f["w"], f["swaps_ab"]) for f in env["results"]["frames"]] == [
        (f"e^(2*pi*i*{k})", k in ("5/12", "11/12")) for k in ("1/6", "5/12", "2/3", "11/12")]
    with pytest.raises(SystemExit) as exc:
        run(["--no-timing", "weyl", "rest-frames", "--u", "1/0"])
    assert exc.value.code == 2


def test_negative_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eta", "eval", "--family", "hasse", "--n", "-1", "--s", "1"])
    assert exc.value.code == 2


def test_family_precondition_is_computational_error(capsys):
    # hstar needs n >= 1: a domain precondition, not a CLI usage error
    code, env = invoke_json(["--no-timing", "eta", "eval", "--family", "hstar",
                             "--n", "0", "--s", "1"], capsys)
    assert code == 1
    assert env["error"]["type"] == "DomainError"


def test_computational_error_envelope(capsys):
    code, env = invoke_json(["--no-timing", "zeta", "eval", "--s", "1"], capsys)
    assert code == 1
    assert env["error"]["type"] == "SingularPrefactorError"
    assert "center" in env["error"]


def test_round_trip_under_schema(capsys):
    import jsonschema

    from eta_forge.cli import ENVELOPE_SCHEMA

    code, env = invoke_json(["--no-timing", "apow", "pi-s", "--s", "0.5"], capsys)
    assert code == 0
    jsonschema.validate(env, ENVELOPE_SCHEMA)
    val = env["results"]["value"]
    assert complex(float(val["re"]), float(val["im"])) == pytest.approx(2 ** 0.5)
    assert "tail_bound" in env["diagnostics"]
    # error envelopes re-parse under the same schema
    code, env = invoke_json(["--no-timing", "zeta", "eval", "--s", "1"], capsys)
    assert code == 1
    jsonschema.validate(env, ENVELOPE_SCHEMA)
    # a sweep of representative success envelopes
    for argv in (["eta", "eval", "--family", "hstar", "--n", "2", "--s", "0.3+0.2i"],
                 ["integral", "compute", "--family", "hasse", "--n", "1", "--s", "0.7"],
                 ["weyl", "rest-frames", "--u", "i"],
                 ["planck", "--p", "13"]):
        code, env = invoke_json(["--no-timing"] + argv, capsys)
        assert code == 0
        jsonschema.validate(env, ENVELOPE_SCHEMA)


def test_full_precision_serialization(capsys):
    code, env = invoke_json(["--no-timing", "eta-global", "eval", "--s", "1"], capsys)
    assert code == 0
    re_str = env["results"]["value"]["re"]
    assert float(re_str) == pytest.approx(0.6931471805599453, abs=1e-12)
    assert len(re_str.split(".")[1]) >= 15  # shortest round-trip repr, no loss


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_output(capsys):
    argv = ["--no-timing", "zero", "refine", "--t0", "14.1"]
    _, out1 = invoke(argv, capsys)
    _, out2 = invoke(argv, capsys)
    assert out1 == out2


def test_timing_flag_controls_diagnostics(capsys):
    _, env = invoke_json(["--no-timing", "planck", "--p", "2"], capsys)
    assert "timing_ms" not in env["diagnostics"]
    _, env = invoke_json(["planck", "--p", "2"], capsys)
    assert "timing_ms" in env["diagnostics"]


def test_jobs_variation_is_deterministic(capsys):
    base = ["--no-timing", "--format", "csv", "proto", "scan", "--n", "1",
            "--sigma", "0.5", "--t-min", "1", "--t-max", "30", "--step", "0.05"]
    _, out1 = invoke(["--jobs", "1"] + base[0:] , capsys)
    _, out4 = invoke(["--jobs", "4"] + base[0:], capsys)
    assert out1 == out4
    assert out1.splitlines()[0] == "n,sigma,t,magnitude,decay,magnitude_err"
    assert len(out1.splitlines()) == 4  # header + 3 minima


def test_proto_records_carry_their_magnitude_bound(capsys):
    # each record's magnitude_err: evaluate's bound plus the rounding of abs, within the target
    for argv in (["scan", "--n", "4", "--sigma", "0.5", "--t-min", "5", "--t-max", "12"],
                 ["cloud", "--n-max", "2", "--sigma", "0.5", "--t-center", "9.06",
                  "--half-width", "1"]):
        code, env = invoke_json(["--no-timing", "proto", *argv], capsys)
        records = env["results"]["records"]
        assert code == 0 and records
        assert all(0 < r["magnitude_err"] <= 1e-13 * r["magnitude"] for r in records)


# ---------------------------------------------------------------------------
# formats and configuration
# ---------------------------------------------------------------------------

def test_csv_only_for_list_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--format", "csv", "planck", "--p", "2"])
    assert exc.value.code == 2


def test_csv_zeros_report(capsys):
    code, out = invoke(["--no-timing", "--format", "csv", "eta", "zeros",
                        "--family", "hasse", "--n", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "argument,value"
    assert lines[1:] == ["0,0", "-1,0", "-2,0", "-3,0"]


def test_env_overrides_default(capsys, monkeypatch):
    monkeypatch.setenv("ETA_FORGE_NO_TIMING", "1")
    _, env = invoke_json(["planck", "--p", "2"], capsys)
    assert "timing_ms" not in env["diagnostics"]


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ETA_FORGE_FORMAT", "csv")
    code, env = invoke_json(["--no-timing", "--format", "json", "eta", "zeros",
                             "--family", "hasse", "--n", "2"], capsys)
    assert code == 0 and env["results"]["all_exactly_zero"]


def test_config_file_lowest_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "forge.conf"
    cfg.write_text("# settings\nno-timing = true\ntol = 1e-12\n")
    monkeypatch.setenv("ETA_FORGE_CONFIG", str(cfg))
    _, env = invoke_json(["planck", "--p", "3"], capsys)
    assert "timing_ms" not in env["diagnostics"]
    monkeypatch.setenv("ETA_FORGE_NO_TIMING", "false")
    _, env = invoke_json(["planck", "--p", "3"], capsys)
    assert "timing_ms" in env["diagnostics"]  # env beats file


def test_precision_bits_flag(capsys):
    code, env = invoke_json(["--no-timing", "--precision-bits", "120",
                             "eta", "eval", "--family", "hasse", "--n", "2",
                             "--s", "0.5+3i"], capsys)
    assert code == 0
    assert len(env["results"]["value"]["re"]) > 20  # extended-precision digits


def test_precision_bits_sets_the_default_tolerance(capsys):
    code, env = invoke_json(["--no-timing", "--precision-bits", "200",
                             "zeta", "eval", "--s", "2"], capsys)
    assert code == 0
    tail = env["diagnostics"]["tail_bound"]
    with mp.workprec(264):
        value = mp.mpf(env["results"]["value"]["re"])
        assert abs(value - mp.zeta(2)) <= tail
        # the target is 2^(8 - 200), and the bound meets it
        assert tail <= 2.0 ** -192 * value
    # an explicit tolerance still wins over the precision's default
    code, env = invoke_json(["--no-timing", "--precision-bits", "200", "--tol", "1e-20",
                             "zeta", "eval", "--s", "2"], capsys)
    assert code == 0 and 1e-40 < env["diagnostics"]["tail_bound"] <= 1e-19


def test_pi_s_refuses_a_requested_precision(capsys):
    code, env = invoke_json(["--no-timing", "--precision-bits", "200",
                             "apow", "pi-s", "--s", "0.5+1i"], capsys)
    assert code == 1
    assert env["error"]["type"] == "DomainError"
    assert "fast-tier only" in env["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["integral", "compute", "--family", "hasse", "--n", "3", "--s", "0.5+1i"],
    ["verify", "thm2", "--n", "3", "--s", "0.5+1i"],
    ["zero", "refine", "--t0", "14.13"],  # Newton runs on the double table
    # grid values come from the double table or a Taylor model rounded to doubles
    ["proto", "scan", "--n", "4", "--sigma", "0.5", "--t-min", "5", "--t-max", "12"],
    ["proto", "cloud", "--n-max", "2", "--sigma", "0.5", "--t-center", "9.06",
     "--half-width", "1"],
])
def test_kernel_commands_refuse_a_requested_precision(argv, capsys):
    code, env = invoke_json(["--no-timing", "--precision-bits", "200"] + argv, capsys)
    assert code == 1
    assert env["error"]["type"] == "DomainError"
    assert "fast-tier only" in env["error"]["message"]


def test_weyl_cli_surface(capsys):
    code, env = invoke_json(["--no-timing", "weyl", "normal-order", "--word", "BBAA"], capsys)
    assert code == 0
    assert env["results"]["poly"] == "a^2 b^2 + 4u a b + 2u^2"
    code, env = invoke_json(["--no-timing", "weyl", "lemmas", "--n-max", "4"], capsys)
    assert code == 0 and env["results"]["passed"]
    code, env = invoke_json(["--no-timing", "weyl", "equilibrium"], capsys)
    assert code == 0 and env["results"]["scalar"] == "2s^2 - 2s + 1"
    code, env = invoke_json(["--no-timing", "weyl", "rest-frames", "--u", "-1"], capsys)
    assert code == 0 and len(env["results"]["frames"]) == 4
    code, env = invoke_json(["--no-timing", "apow", "clifford", "--s", "0.5",
                             "--side", "b"], capsys)
    assert code == 0 and env["results"]["contains"] is True
    code, env = invoke_json(["--no-timing", "apow", "clifford", "--s", "1e300"], capsys)
    assert code == 0 and env["results"]["contains"] is False


def test_integral_and_funceq_cli(capsys):
    code, env = invoke_json(["--no-timing", "integral", "compute", "--family",
                             "hstar", "--n", "1", "--s", "1"], capsys)
    assert code == 0
    assert float(env["results"]["value"]["re"]) == pytest.approx(1.5707963267948966, abs=1e-10)
    assert env["diagnostics"]["evaluations"] > 0
    code, env = invoke_json(["--no-timing", "funceq", "check", "--s", "2"], capsys)
    assert code == 0 and env["results"]["residual"] < 1e-8
    code, env = invoke_json(["--no-timing", "proto", "cloud", "--n-max", "1",
                             "--sigma", "0.5", "--t-center", "9.06",
                             "--half-width", "1"], capsys)
    assert code == 0 and len(env["results"]["records"]) == 1


# ---------------------------------------------------------------------------
# boundary: non-finite input and output, invalid settings
# ---------------------------------------------------------------------------

def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _run_captured(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (["eta", "eval", "--family", "hasse", "--n", "3", "--s", "nan"], 2),
    (["eta", "eval", "--family", "hasse", "--n", "3", "--s", "1e400"], 2),
    (["zero", "refine", "--t0", "nan"], 2),
    (["proto", "cloud", "--n-max", "2", "--sigma", "0.5", "--t-center", "14",
      "--half-width", "inf"], 2),
    (["--tol", "0", "planck", "--p", "3"], 2),
    (["eta", "eval", "--family", "hasse", "--n", "3", "--s", "-800"], 1),
    (["zeta", "eval", "--s", "-400.5"], 1),
    (["apow", "pi-s", "--s", "1e300"], 1),
])
def test_boundary_inputs_give_strict_json_or_usage_error(argv, expected, capsys):
    code, out, err = _run_captured(["--no-timing"] + argv, capsys)
    assert code in (1, 2) and code == expected
    assert "Traceback" not in out and "Traceback" not in err
    if code == 2:
        assert out == ""  # usage errors go to stderr only
    else:
        env = _strict_json(out)
        assert env["error"]["type"] == "RangeError"


@pytest.mark.parametrize("argv", [
    ["integral", "compute", "--family", "hasse", "--n", "3", "--s", "0.5+1e306i"],
    ["integral", "compute", "--family", "hstar", "--n", "3", "--s", "0.5+1e306i"],
    ["verify", "thm1", "--n", "3", "--s", "1-1e306i"],
    ["verify", "thm2", "--n", "3", "--s", "1-1e306i"],
    ["verify", "thm1", "--n", "90", "--s", "0.5"],  # the closed form's 180! leaves the doubles
])
def test_a_quadrature_beyond_the_doubles_is_a_range_error(argv, capsys):
    # the phase of u^(s-1) at the quadrature's least node, or the closed form's m!, leaves the
    # doubles: a RangeError envelope, not a traceback
    code, out, err = _run_captured(["--no-timing"] + argv, capsys)
    assert code == 1
    assert "Traceback" not in out and "Traceback" not in err
    assert _strict_json(out)["error"]["type"] == "RangeError"


def test_zeta_at_a_trivial_zero_beyond_the_double_terms_is_exact(capsys):
    # zeta(-400) is taken exactly, -B_401 / 401 = 0: no sum of terms (k+1)^400 is formed
    code, env = invoke_json(["--no-timing", "zeta", "eval", "--s", "-400"], capsys)
    assert code == 0
    assert env["results"]["value"] == {"re": "0.0", "im": "0.0"}
    assert env["diagnostics"]["tail_bound"] == 0.0


def test_global_series_at_a_huge_ordinate_is_an_error_envelope(capsys):
    # pi |Im s| passes the double range, so the length bound is inf: the 400-term cap is a
    # ConvergenceError envelope, not a traceback from a NaN length
    argv = ["--no-timing", "--precision-bits", "120", "eta-global", "eval", "--s", "0.5+1e308i"]
    code, out, err = _run_captured(argv, capsys)
    assert code == 1 and "Traceback" not in out + err
    assert _strict_json(out)["error"]["type"] == "ConvergenceError"


@pytest.mark.parametrize("s", ["1e-17", "5e-324", "5e-324+5e-324i"])
def test_quadrature_beside_the_pole_at_zero(s, capsys):
    # the integral is refused with a typed error, the identity skips the genuine pole at 0
    integral = ["--no-timing", "integral", "compute", "--family", "hasse", "--n", "0", "--s", s]
    code, out, _ = _run_captured(integral, capsys)
    assert code == 1 and _strict_json(out)["error"]["type"] == "ConvergenceError"
    code, out, _ = _run_captured(["--no-timing", "verify", "thm2", "--n", "0", "--s", s], capsys)
    assert code == 0 and _strict_json(out)["results"]["skipped"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_and_budget_must_be_positive(value, capsys, tmp_path, monkeypatch):
    planck = ["planck", "--p", "3"]
    budget = ["integral", "compute", "--family", "hasse", "--n", "1", "--s", "0.5",
              "--budget", value]
    assert _run_captured(["--jobs", value] + planck, capsys)[0] == 2
    assert _run_captured(budget, capsys)[0] == 2
    monkeypatch.setenv("ETA_FORGE_JOBS", value)
    assert _run_captured(planck, capsys)[0] == 2
    monkeypatch.delenv("ETA_FORGE_JOBS")
    cfg = tmp_path / "forge.conf"
    cfg.write_text(f"jobs = {value}\n")
    assert _run_captured(["--config", str(cfg)] + planck, capsys)[0] == 2


_S_PART = st.one_of(st.floats(-60, 60),
                    st.sampled_from([1e17, -1e17, 1e300, -1e300, 1e306, -1e306,
                                     1.7976931348623157e308, math.nan, math.inf, -math.inf]))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([["eta", "eval", "--family", "hasse"],
                                ["eta", "eval", "--family", "hstar"],
                                ["zeta", "eval"], ["eta-global", "eval"]]),
       n=st.integers(0, 8), re=_S_PART, im=_S_PART)
def test_argv_fuzz_keeps_the_exit_contract(command, n, re, im, capsys):
    argv = ["--no-timing"] + command + (["--n", str(n)] if command[0] == "eta" else [])
    code, out, err = _run_captured(argv + [f"--s={re!r}{im:+}i"], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in out and "Traceback" not in err
    if code == 2:
        assert out == ""
    else:
        env = _strict_json(out)
        if code == 0:  # the finite sums and the global series meet their target
            value = complex(float(env["results"]["value"]["re"]),
                            float(env["results"]["value"]["im"]))
            bound = env["diagnostics"]["abs_err_bound" if command[0] == "eta" else "tail_bound"]
            assert bound <= 1e-13 * abs(value)


@pytest.mark.parametrize("s", ["-20+0.5i", "-10+3i", "1e17"])
def test_global_series_meets_its_target(s, capsys):
    # the left half-plane and huge real s, where a heuristic stopping rule failed
    code, out, _ = _run_captured(["--no-timing", "eta-global", "eval", f"--s={s}"], capsys)
    assert code == 0
    env = _strict_json(out)
    value = complex(float(env["results"]["value"]["re"]), float(env["results"]["value"]["im"]))
    tail = env["diagnostics"]["tail_bound"]
    with mp.workprec(300):
        ref = mp.altzeta(mp.mpc(parse_complex(s)))
        assert abs(mp.mpc(value) - ref) <= tail <= 1e-13 * abs(ref)


_REAL_ARG = st.one_of(st.floats(-60, 60), st.sampled_from([1e17, -1e17, 1e300, -1e300, math.nan]))
_S_ARG = st.builds(lambda re, im: f"--s={re!r}{im:+}i", _S_PART, _S_PART)
_N_ARG = st.integers(0, 4).map(str)
_BUDGET_ARG = st.integers(1, 400).map(str)


def _scan_argv(family, n, sigma, t_min, width):
    return ["proto", "scan", "--family", family, "--n", n, f"--sigma={sigma!r}",
            f"--t-min={t_min!r}", f"--t-max={t_min + width!r}"]


_NUMERIC_ARGV = st.one_of(
    st.builds(lambda fam, n, s, b: ["integral", "compute", "--family", fam, "--n", n, s,
                                    "--budget", b],
              st.sampled_from(["hasse", "hstar"]), _N_ARG, _S_ARG, _BUDGET_ARG),
    st.builds(lambda thm, n, s, b: ["verify", thm, "--n", n, s, "--budget", b],
              st.sampled_from(["thm1", "thm2"]), _N_ARG, _S_ARG, _BUDGET_ARG),
    st.builds(lambda s: ["funceq", "check", s], _S_ARG),
    st.builds(lambda t: ["zero", "refine", f"--t0={t!r}"], _REAL_ARG),
    st.builds(lambda s: ["apow", "pi-s", s], _S_ARG),
    st.builds(lambda s, side: ["apow", "clifford", s, "--side", side],
              _S_ARG, st.sampled_from(["a", "b"])),
    st.builds(_scan_argv, st.sampled_from(["hasse", "hstar"]), _N_ARG, _REAL_ARG, _REAL_ARG,
              st.floats(0, 3)),
    st.builds(lambda p: ["planck", "--p", str(p)], st.integers(-10, 10 ** 12)),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_NUMERIC_ARGV)
def test_argv_fuzz_every_numeric_subcommand(argv, capsys):
    code, out, err = _run_captured(["--no-timing"] + argv, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in out and "Traceback" not in err
    if code == 2:
        assert out == ""
        return
    env = _strict_json(out)
    if code == 0 and argv[:2] == ["integral", "compute"]:  # the quadrature meets its target
        value = complex(float(env["results"]["value"]["re"]), float(env["results"]["value"]["im"]))
        assert env["diagnostics"]["abs_err_estimate"] <= max(1e-12, 1e-13 * abs(value))
    if code == 0 and argv[:2] == ["zero", "refine"]:
        assert env["results"]["residual_eta"] <= 1e-10


@pytest.mark.parametrize("key, bad, good", [
    ("format", "xml", "json"), ("format", "CSV", "json"), ("no_timing", "maybe", "off"),
])
def test_environment_and_config_values_go_through_the_flag_parser(key, bad, good, capsys,
                                                                  tmp_path, monkeypatch):
    # a bad value is refused from either source, even where a higher source overrides it
    planck, var = ["planck", "--p", "3"], "ETA_FORGE_" + key.upper()
    flag = ["--format", "json"] if key == "format" else ["--no-timing"]
    monkeypatch.setenv(var, bad)
    assert _run_captured(planck, capsys)[:2] == (2, "")
    assert _run_captured(flag + planck, capsys)[:2] == (2, "")
    cfg = tmp_path / "forge.conf"
    cfg.write_text(f"{key} = {bad}\n")
    monkeypatch.setenv(var, good)
    assert _run_captured(["--config", str(cfg)] + planck, capsys)[:2] == (2, "")
    cfg.write_text(f"{key} = {good}\n")
    code, out, _ = _run_captured(["--config", str(cfg)] + planck, capsys)
    assert code == 0 and _strict_json(out)["results"]["p"] == 3


@pytest.mark.parametrize("settings", [
    ["--precision-bits", "120", "--tol", "1e-40"],  # below one ulp at 120 bits
    ["--tol", "1e-20"],  # below one ulp at 53 bits
    ["--precision-bits", "40"],  # below the fast tier's 53 bits
])
def test_a_precision_the_context_cannot_hold_is_a_usage_error(settings, capsys):
    argv = ["--no-timing"] + settings + ["eta", "eval", "--family", "hasse", "--n", "3",
                                         "--s", "2"]
    assert _run_captured(argv, capsys)[:2] == (2, "")

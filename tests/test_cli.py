"""Command-line surface: exit codes, CSV schemas, the worked example."""

import os
import pathlib
import subprocess
import sys

import pytest

from uwblab.analytic import (appendix_prob_delta, appendix_prob_within_threshold, prob_evade_rcv,
                             prob_noise_pass, prob_success)
from uwblab.cli import _agreement_ok, build_parser, main
from uwblab.montecarlo import EstimateRow

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_pevade_row(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pevade",
                           "--alpha", "10", "--beta", "20", "--r", "2", "--k", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "# formula=pevade"
    assert lines[2] == "k,p"
    assert lines[3] == "6,%.12g" % prob_evade_rcv(10, 20, 2, 6)


def test_analytic_psa_needs_zeta(capsys):
    code, _, err = run_cli(capsys, "analytic", "--formula", "psa", "--k", "5")
    assert code == 2
    assert "error:" in err


def test_analytic_psa_with_zeta(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "analytic", "--formula", "psa",
                           "--alpha", "10", "--beta", "20", "--r", "2",
                           "--zeta", "5.0", "--k", "6")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("6,")
    # a config line k = 4 is the flag --k=4: one row, not the whole k grid
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 4\n")
    code, out, _ = run_cli(capsys, "analytic", "--formula", "psa", "--zeta", "5",
                           "--config", str(cfg))
    assert code == 0
    assert out.strip().split("\n")[3:] == ["4,%.12g" % prob_success(50, 100, 8, 5.0, 4)]


def test_analytic_pnoise_single_kappa(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pnoise",
                           "--alpha", "80", "--beta", "100", "--r", "80",
                           "--kappa", "40")
    assert code == 0
    assert out.strip().split("\n")[-1] == "40,%.12g" % prob_noise_pass(80, 100, 80, 40)


def test_analytic_pdelta_rows(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pdelta",
                           "--alpha", "3", "--beta", "5", "--n", "8", "--k", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[2] == "delta,p"
    # the whole support, -k..k, so the printed pmf sums to one
    rows = [line.split(",") for line in lines[3:]]
    assert [int(d) for d, _ in rows] == list(range(-4, 5))
    for delta_s, p_s in rows:
        assert float(p_s) == pytest.approx(appendix_prob_delta(8, 3, 4, int(delta_s)))
    assert abs(sum(float(p) for _, p in rows) - 1.0) <= 1e-12


def test_analytic_pthreshold_names_its_column(capsys):
    # the one row is the ceiling factor's, not an injection count's
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pthreshold", "--alpha", "50",
                           "--n", "150", "--k", "50", "--gamma-factor", "1.5")
    assert code == 0
    lines = out.split("\n")
    assert lines[2] == "gamma_factor,p"
    assert lines[3] == "%.12g,%.12g" % (1.5, appendix_prob_within_threshold(150, 50, 50, 1.5))


@pytest.mark.parametrize("argv, head, last", [
    (("pevade", "--alpha", "50", "--beta", "100", "--r", "8", "--k-max", "150"),
     "k,p", "150,0.03515625"),
    (("pnoise", "--alpha", "80", "--beta", "100", "--r", "80", "--k-max", "40",
      "--k-step", "10"), "k,p", "40,0.537679154358"),
    (("pdelta", "--alpha", "8", "--n", "20", "--k", "10"), "delta,p", "10,0.0845118443379"),
], ids=("pevade", "pnoise", "pdelta"))
def test_analytic_head_and_tail_bytes(capsys, argv, head, last):
    code, out, _ = run_cli(capsys, "analytic", "--formula", *argv)
    assert code == 0
    lines = out.split("\n")
    assert lines[:3] == ["# schema=1", "# formula=" + argv[0], head]
    assert lines[-2:] == [last, ""]


def test_simulate_schema_and_byte_stability(tmp_path, capsys):
    argv = ["simulate", "--metric", "evade", "--alpha", "10", "--beta", "20",
            "--r", "2", "--k-min", "0", "--k-max", "30", "--k-step", "10",
            "--trials", "5000", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[2] == "k,trials,successes,p_hat,ci_low,ci_high,analytic_p"
    assert len(lines) == 7


def test_simulate_validate_agrees(capsys):
    code, out, err = run_cli(capsys, "simulate", "--metric", "evade",
                             "--alpha", "10", "--beta", "20", "--r", "2",
                             "--k-min", "0", "--k-max", "30", "--k-step", "6",
                             "--trials", "20000", "--seed", "1", "--validate")
    assert code == 0
    assert err == ""


ATTACK_ARGV = ("simulate", "--metric", "attack", "--alpha", "10", "--beta", "20",
               "--r", "2", "--k", "5", "--trials", "200", "--seed", "1")


def test_simulate_attack_has_no_overlay(capsys):
    # no closed form plays the attack metric's game
    code, out, _ = run_cli(capsys, *ATTACK_ARGV)
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[-1] == "nan"


def test_simulate_attack_refuses_validate(capsys):
    code, out, err = run_cli(capsys, *ATTACK_ARGV, "--validate")
    assert code == 2
    assert out == ""
    assert "no closed form matches the attack metric" in err


def test_simulate_trace_out(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, _, _ = run_cli(capsys, "simulate", "--metric", "evade",
                         "--alpha", "10", "--beta", "20", "--r", "2",
                         "--k", "0", "--trials", "1000", "--sigma-n2", "0",
                         "--d2", "0", "--trace-out", str(trace))
    assert code == 0
    text = trace.read_text()
    assert "commit: t_tof=" in text


def test_validate_small_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "validate", "--trials", "1500", "--seed", "2",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[2] == "alpha,beta,r,k,trials,successes,p_hat,ci_low,ci_high,analytic_p,within"
    assert lines[-1].startswith("# contained ")
    assert len(lines) == 4 + 66
    assert lines[1] == "# validation grid: alpha=50 beta in (50, 150) r in (1, 2, 8)"
    assert out.read_text().endswith("\n# contained 65/66 (0.9848)\n")


def test_agreement_check_flags_outliers():
    good = [EstimateRow(k=0, trials=10**6, successes=250000, p_hat=0.25,
                        ci_low=0.249, ci_high=0.251, analytic_p=0.25)]
    bad = [EstimateRow(k=0, trials=10**6, successes=300000, p_hat=0.3,
                       ci_low=0.299, ci_high=0.301, analytic_p=0.25)]
    assert _agreement_ok(good)
    assert not _agreement_ok(bad)


def test_example_walkthrough_default(capsys):
    code, out, _ = run_cli(capsys, "example")
    assert code == 0
    assert "power ratio 10^(f/10) = 3.16e-07" in out
    assert "per-pulse room R = f(d1+d2) - (f(d1) + E) = 3.45 dB" in out
    assert "ceiling Gamma = alpha * lam_b^2 = 5 * 2.4 = 12 units" in out
    assert out.strip().split("\n")[-1] == "AttackDetected: aggregate 17 > Γ 12"


def test_example_zero_added_distance(capsys):
    code, out, _ = run_cli(capsys, "example", "--d2", "0")
    assert code == 0
    assert "no added distance: path-loss terms cancel, R = -E = 10 dB" in out


def test_example_no_power_headroom(capsys):
    code, out, _ = run_cli(capsys, "example", "--d1", "15.11", "--d2", "32.68")
    assert code == 0
    assert "no power headroom" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("alpha = 10\nbeta = 20  # slots\n\nr = 2\n")
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pevade",
                           "--k", "6", "--config", str(cfg))
    assert code == 0
    assert out.strip().split("\n")[-1] == "6,%.12g" % prob_evade_rcv(10, 20, 2, 6)
    code, out, _ = run_cli(capsys, "analytic", "--formula", "pevade",
                           "--k", "6", "--alpha", "12", "--config", str(cfg))
    assert out.strip().split("\n")[-1] == "6,%.12g" % prob_evade_rcv(12, 20, 2, 6)


def test_bad_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 10\n")
    code, _, err = run_cli(capsys, "analytic", "--formula", "pevade",
                           "--k", "1", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("line, argv, flag", [
    ("alpha = ten", ("analytic", "--formula", "pevade"), "--alpha"),
    ("upsilon = 5", ("analytic", "--formula", "pevade"), "--upsilon"),
    ("validate = false", ("simulate", "--trials", "10"), "--validate"),
])
def test_config_line_is_parsed_as_its_flag(tmp_path, capsys, line, argv, flag):
    # a bad value, a key the subcommand lacks and a switch all exit 2
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_example_config_link_flag_loses_to_explicit(tmp_path, capsys):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("d1 = 5\n")
    code, out, _ = run_cli(capsys, "example", "--config", str(cfg))
    assert code == 0
    assert "scenario: d1 = 5 m true" in out
    code, out, _ = run_cli(capsys, "example", "--config", str(cfg), "--d1", "6")
    assert code == 0
    assert "scenario: d1 = 6 m true" in out


def test_parameter_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--alpha", "10", "--beta", "10",
                           "--r", "20", "--trials", "100")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "analytic", "--formula", "pevade",
                           "--k-step", "0")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("analytic", "--formula", "psa", "--zeta", "nan", "--k", "10"), "zeta"),
    (("analytic", "--formula", "pthreshold", "--gamma-factor", "nan"), "gamma_factor"),
    (("simulate", "--metric", "attack", "--k", "10", "--gain", "nan"), "replay gain"),
    (("example", "--d1", "nan"), "distances"),
    (("example", "--d1", "inf"), "d1_m"),
    (("example", "--d2", "inf"), "d2_m"),
    # the trace's session refuses the delay before anything is written
    *[(("simulate", "--metric", "attack", "--alpha", "4", "--beta", "8", "--r", "1", "--k", "0",
        "--trials", "16", "--d1", "10", "--d2", "0", "--delay", delay,
        "--trace-out", os.devnull), "replay_delay_ns") for delay in ("nan", "-200")],
    # every metric refuses it, though only the attack trace replays
    (("simulate", "--metric", "evade", "--alpha", "4", "--beta", "8", "--r", "1", "--k", "0",
      "--trials", "16", "--delay", "nan", "--trace-out", os.devnull), "replay_delay_ns"),
])
def test_nan_parameter_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # only simulate and validate draw random numbers, so only they take --seed
    for argv in (["analytic", "--formula", "pevade", "--seed", "1"], ["example", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_help_names_no_none_default(capsys):
    # a flag whose default is None says what unset means in its own help, if anything
    for command in ("analytic", "simulate", "validate", "example"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo the line wrapping
        assert "(default: None)" not in text, command
        assert "(default: " in text, command


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # the package and its cli module both run as the command-line front end
    for module in ("uwblab", "uwblab.cli"):
        result = subprocess.run([sys.executable, "-m", module, "validate", "--help"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "--trials" in result.stdout

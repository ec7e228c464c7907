"""Command-line front end: sweeps, simulations, validation, worked example.

Everything prints CSV (first line `# schema=1`) or a plain-text report, so
plots come from external tooling. A flat key=value config file can preload
any valued flag: each line `key = value` is parsed as the flag `--key=value`
(underscores become dashes), and explicit flags win over it. Exit codes: 0
success, 1 validation failure, 2 usage or parameter error.
"""

import argparse
import sys
from functools import partial

import numpy as np

from . import analytic
from .adversary import AttackPlan
from .channel import (
    LinkModel,
    adversary_room,
    adversary_rx_power,
    expected_rx_power,
    path_loss_db,
    power_ratio,
    synthesize_timeline,
    unity_link,
    worst_case_rx_power,
)
from .codec import CodeParams, code_from_line
from .montecarlo import TrialConfig, run_grid, rows_to_csv
from .protocol import run_session, session_trace
from .receiver import (
    PLAUSIBILITY_ENERGY_EXCEEDED,
    ReceiverConfig,
    Thresholds,
    attack_plausibility,
)

# the walk-through frame: 5 pulses over 18 slots, 10 random-phase
# injections, two of which amplify and one annihilates
FIG_SENT = "0,-1,0,0,0,-1,1,0,0,0,0,0,1,0,-1,0,0,0"
FIG_INJECTED = (1, 1, 0, 0, -1, 0, 1, -1, 1, 0, 0, -1, 1, 0, 0, 0, -1, -1)

FORMULAS = ("pevade", "psa", "pnoise", "pdelta", "pthreshold")

# link flag -> (LinkModel field, help); the field's default is the flag's
LINK_FLAGS = {
    "d1": ("d1_m", "true sender-receiver distance, m"),
    "d2": ("d2_m", "distance the adversary adds, m"),
    "d3": ("d3_m", "adversary-receiver distance, m"),
    "e": ("e_db", "extra degradation of the authentic signal, dB"),
    "p_sent": ("p_sent", "sender transmit power, power units"),
    "p_adv_sent": ("p_adv_sent", "adversary transmit power, power units"),
    "sigma_n2": ("sigma_n2", "receiver noise variance, power units"),
}


def load_config(path: str) -> list:
    """Flat key=value file as the flags it names; blank lines and # comments ignored."""
    config = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return ["--%s=%s" % (key.replace("_", "-"), value) for key, value in config.items()]


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _k_grid(args, n: int) -> list:
    if args.k is not None:
        return [args.k]
    k_max = n if args.k_max is None else args.k_max
    if args.k_step < 1 or k_max < args.k_min:
        raise ValueError("need k_step >= 1 and k_max >= k_min")
    return list(range(args.k_min, k_max + 1, args.k_step))


def _link_from(args) -> LinkModel:
    return LinkModel(**{field: getattr(args, flag) for flag, (field, _) in LINK_FLAGS.items()})


def cmd_analytic(args) -> int:
    alpha, beta, r = args.alpha, args.beta, args.r
    lines = ["# schema=1", "# formula=" + args.formula,
             "delta,p" if args.formula == "pdelta" else "k,p"]
    if args.formula in ("pevade", "psa"):
        for k in _k_grid(args, alpha + beta):
            if args.formula == "pevade":
                p = analytic.prob_evade_rcv(alpha, beta, r, k)
            elif args.zeta is None:
                raise ValueError("psa needs --zeta")
            else:
                p = analytic.prob_success(alpha, beta, r, args.zeta, k)
            lines.append("%d,%.12g" % (k, p))
    elif args.formula == "pnoise":
        kappas = [args.kappa] if args.kappa is not None else _k_grid(args, alpha + beta)
        for kappa in kappas:
            lines.append("%d,%.12g" % (kappa, analytic.prob_noise_pass(alpha, beta, r, kappa)))
    else:
        n = alpha + beta if args.n is None else args.n
        k = alpha if args.k is None else args.k
        if args.formula == "pdelta":
            for delta in range(-k, k + 1):
                lines.append(
                    "%d,%.12g" % (delta, analytic.appendix_prob_delta(n, alpha, k, delta))
                )
        else:
            gf = args.gamma_factor
            lines.append(
                "%.12g,%.12g" % (gf, analytic.appendix_prob_within_threshold(n, alpha, k, gf))
            )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _agreement_ok(rows) -> bool:
    """At most 1% of points (and never a lone grid's single point) may sit
    more than four standard errors from the analytic value."""
    flagged = 0
    for row in rows:
        se = np.sqrt(max(row.analytic_p * (1 - row.analytic_p), 1e-300) / row.trials)
        if abs(row.p_hat - row.analytic_p) > 4 * se:
            flagged += 1
    return flagged <= max(0, len(rows) // 100)


def cmd_simulate(args) -> int:
    alpha, beta, r, metric = args.alpha, args.beta, args.r, args.metric
    if not 0 <= args.delay < np.inf:  # for every metric, though only an attack trace reads it
        raise ValueError("replay_delay_ns must be finite and nonnegative, got %r" % args.delay)
    if args.validate and metric == "attack":
        raise ValueError("no closed form matches the attack metric; --validate needs --metric evade")
    cfg = TrialConfig(
        link=_link_from(args),
        params=CodeParams(n=alpha + beta, alpha=alpha, beta=beta, r=r),
        receiver=ReceiverConfig(r=r, upsilon=args.upsilon, p_noise_threshold=args.cut),
        k_grid=tuple(_k_grid(args, alpha + beta)),
        trials=args.trials,
        base_seed=args.seed,
        metric=metric,
        replay_gain_db=args.gain,
    )
    session = None
    if args.trace_out is not None:
        # before any output, so a session that fails writes nothing
        session = run_session(
            cfg.params,
            cfg.link,
            seed=args.seed,
            k=cfg.k_grid[0],
            replay_delay_ns=args.delay if metric == "attack" else 0.0,
            replay_gain_db=cfg.replay_gain_db,
            receiver=cfg.receiver,
        )
    rows = run_grid(cfg)
    extra = "metric=%s alpha=%d beta=%d r=%d trials=%d seed=%d" % (
        metric, alpha, beta, r, args.trials, args.seed,
    )
    _write(rows_to_csv(rows, header_extra=extra), args.out)
    if session is not None:
        _write(session_trace(session), args.trace_out)
    if args.validate and not _agreement_ok(rows):
        print("validation failed: simulation disagrees with the analytic curve", file=sys.stderr)
        return 1
    return 0


VALIDATION_BETAS = (50, 150)
VALIDATION_RS = (1, 2, 8)


def cmd_validate(args) -> int:
    """Sweep the standard validation grid and check CI containment."""
    alpha = 50
    lines = [
        "# schema=1",
        "# validation grid: alpha=50 beta in %s r in %s" % (VALIDATION_BETAS, VALIDATION_RS),
        "alpha,beta,r,k,trials,successes,p_hat,ci_low,ci_high,analytic_p,within",
    ]
    total = 0
    contained = 0
    for beta in VALIDATION_BETAS:
        n = alpha + beta
        ks = tuple(range(0, n + 1, n // 10))
        for r in VALIDATION_RS:
            params = CodeParams(n=n, alpha=alpha, beta=beta, r=r)
            cfg = TrialConfig(
                params=params,
                k_grid=ks,
                trials=args.trials,
                base_seed=args.seed,
                metric="evade",
                receiver=ReceiverConfig(r=r),
            )
            for row in run_grid(cfg):
                within = int(row.ci_low <= row.analytic_p <= row.ci_high)
                total += 1
                contained += within
                lines.append(
                    "%d,%d,%d,%d,%d,%d,%.12g,%.12g,%.12g,%.12g,%d"
                    % (
                        alpha, beta, r, row.k, row.trials, row.successes,
                        row.p_hat, row.ci_low, row.ci_high, row.analytic_p, within,
                    )
                )
    fraction = contained / total
    lines.append("# contained %d/%d (%.4f)" % (contained, total, fraction))
    _write("\n".join(lines) + "\n", args.out)
    if fraction < 0.95:
        print(
            "validation failed: only %.1f%% of grid points contain the analytic value"
            % (100 * fraction),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_example(args) -> int:
    """Walk the numbers of one enlargement scenario end to end."""
    link = _link_from(args)
    d1, d2, d3, e_db = link.d1_m, link.d2_m, link.d3_m, link.e_db
    committed = d1 + d2
    lam_b2 = expected_rx_power(link.p_sent, committed)
    out = ["distance enlargement walk-through"]
    out.append(
        "scenario: d1 = %g m true, d2 = %g m claimed extra, adversary at d3 = %g m, E = %g dB"
        % (d1, d2, d3, e_db)
    )
    out.append("path loss f(%g m) = %.4f dB" % (committed, path_loss_db(committed)))
    out.append("power ratio 10^(f/10) = %.3g" % power_ratio(committed))
    out.append("best-case pulse power at the committed distance: %.5g power units" % lam_b2)
    out.append("authentic pulse power actually arriving: %.5g power units"
               % worst_case_rx_power(link))
    out.append("adversary pulse power arriving: %.5g power units" % adversary_rx_power(link))
    r_db, zeta = adversary_room(d1, d2, e_db)
    if d2 == 0:
        out.append(
            "no added distance: path-loss terms cancel, R = -E = %g dB, "
            "zeta = 10^(-E/10) = %g" % (r_db, zeta)
        )
    else:
        out.append("per-pulse room R = f(d1+d2) - (f(d1) + E) = %.2f dB, zeta = %.3g" % (r_db, zeta))
    if abs(r_db) < 0.05:
        out.append("room ≈ 0 dB: the adversary has no power headroom at this geometry")

    # worked frame in scaled units (1 unit = 1e-6 power units); displayed
    # quantities round to 2 significant figures the way back-of-envelope
    # budgets do, so the ceiling reads as a small integer
    code = code_from_line(FIG_SENT)
    alpha_fig = code.params.alpha
    lam_b2_scaled = float("%.2g" % (lam_b2 * 1e6))
    gamma_worked = alpha_fig * lam_b2_scaled
    plan = AttackPlan(phases=FIG_INJECTED)
    timeline = synthesize_timeline(code, unity_link(), attack=plan)
    received = timeline.amplitudes[timeline.slot_bins(timeline.start_bin)]
    energies = received**2
    aggregate = float(energies.sum())
    out.append("frame walk-through, scaled units (unit received pulses, noiseless):")
    out.append("  ceiling Gamma = alpha * lam_b^2 = %d * %.2g = %g units"
               % (alpha_fig, lam_b2_scaled, gamma_worked))
    out.append("  sent:     " + FIG_SENT)
    out.append(
        "  injected: k=%d random-phase unit pulses at slots %s (1-based)"
        % (plan.k, ",".join(str(s + 1) for s in plan.slots))
    )
    # unit amplitudes carry float residue from the back-solved transmit
    # powers; rounding only affects the printed rows
    out.append("  received: " + ",".join("%g" % round(a, 9) for a in received))
    out.append("  energies: " + ",".join("%g" % round(v, 9) for v in energies))
    verdict = attack_plausibility(energies, Thresholds(0.0, gamma_worked))
    if verdict == PLAUSIBILITY_ENERGY_EXCEEDED:
        out.append("AttackDetected: aggregate %.0f > Γ %.0f" % (aggregate, gamma_worked))
    else:
        out.append("Plausible: aggregate %.0f <= Γ %.0f" % (aggregate, gamma_worked))
    _write("\n".join(out) + "\n", args.out)
    return 0


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write the output here instead of stdout")
    sub.add_argument("--config", default=None, help="file of `key = value` lines, one flag each")


def _add_link_flags(sub):
    for flag, (field, text) in LINK_FLAGS.items():
        sub.add_argument("--" + flag.replace("_", "-"), type=float,
                         default=getattr(LinkModel, field), help=text)


def _add_k_grid_flags(sub, k_help: str):
    sub.add_argument("--k", type=int, default=None, help=k_help)
    sub.add_argument("--k-min", type=int, default=0, help="first k of the grid")
    sub.add_argument("--k-max", type=int, default=None, help="last k of the grid; n when unset")
    sub.add_argument("--k-step", type=int, default=1, help="k grid spacing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwblab",
        description="energy-coded ranging laboratory: sweeps, simulations, walk-throughs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(subs.add_parser, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p_an = add_parser("analytic", help="evaluate probability formulas over a grid")
    p_an.add_argument("--formula", choices=FORMULAS, required=True)
    p_an.add_argument("--alpha", type=int, default=50, help="pulse slots")
    p_an.add_argument("--beta", type=int, default=100, help="empty slots")
    p_an.add_argument("--r", type=int, default=8, help="sample size per comparison")
    p_an.add_argument("--zeta", type=float, default=None, help="energy budget (psa)")
    p_an.add_argument("--kappa", type=int, default=None, help="one kappa instead of the k grid (pnoise)")
    _add_k_grid_flags(p_an, "one k instead of a grid; alpha when unset (pdelta, pthreshold)")
    p_an.add_argument("--n", type=int, default=None, help="frame slots; alpha + beta when unset")
    p_an.add_argument("--gamma-factor", type=float, default=1.0, help="ceiling factor (pthreshold)")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analytic)

    p_sim = add_parser("simulate", help="Monte-Carlo estimates over a k grid")
    p_sim.add_argument("--metric", choices=("evade", "attack"), default=TrialConfig.metric,
                       help="the game to estimate")
    p_sim.add_argument("--alpha", type=int, default=50, help="pulse slots")
    p_sim.add_argument("--beta", type=int, default=50, help="empty slots")
    p_sim.add_argument("--r", type=int, default=8, help="sample size per comparison")
    _add_k_grid_flags(p_sim, "one k instead of a grid")
    p_sim.add_argument("--trials", type=int, default=TrialConfig.trials, help="trials per k")
    p_sim.add_argument("--upsilon", type=int, default=ReceiverConfig.upsilon, help="sample votes")
    p_sim.add_argument("--cut", type=float, default=ReceiverConfig.p_noise_threshold,
                       help="vote ratio a candidate must exceed")
    p_sim.add_argument("--delay", type=float, default=200.0, help="replay delay in the trace, ns")
    p_sim.add_argument("--gain", type=float, default=TrialConfig.replay_gain_db, help="replay dB")
    p_sim.add_argument("--validate", action="store_true", help="exit 1 unless the overlay agrees")
    p_sim.add_argument("--trace-out", default=None, help="write one session trace here")
    _add_link_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=TrialConfig.base_seed, help="random seed")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_val = add_parser("validate", help="simulation vs analytic on the standard grid")
    p_val.add_argument("--trials", type=int, default=TrialConfig.trials, help="trials per point")
    p_val.add_argument("--seed", type=int, default=TrialConfig.base_seed, help="random seed")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_ex = add_parser("example", help="worked enlargement-detection walk-through")
    _add_link_flags(p_ex)
    _add_common(p_ex)
    p_ex.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the subcommand; config flags go right after it and
            # before the command-line flags, so that those win
            args = parser.parse_args(argv[:1] + load_config(args.config) + argv[1:])
        return args.func(args)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: sweeps, simulations, validation, worked example.

Everything prints CSV (first line `# schema=1`) or a plain-text report, so
plots come from external tooling. A flat key=value config file can preload
any flag's value; explicit flags win over the config, which wins over
built-in defaults. Exit codes: 0 success, 1 validation failure, 2 usage or
parameter error.
"""

import argparse
import sys

import numpy as np

from . import analytic
from .adversary import AttackPlan
from .channel import (
    LinkModel,
    adversary_room,
    path_loss_db,
    power_ratio,
    synthesize_timeline,
    unity_link,
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
FIG_INJECT_SLOTS = (0, 1, 4, 6, 7, 8, 11, 12, 16, 17)
FIG_INJECT_PHASES = (1, 1, -1, 1, -1, 1, -1, 1, -1, -1)

FORMULAS = ("pevade", "psa", "pnoise", "pdelta", "pthreshold")


def load_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
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
    return config


def _resolve(flag_value, config: dict, key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key in config:
        return cast(config[key])
    return default


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _k_grid(args, config, n: int) -> list:
    if args.k is not None:
        return [args.k]
    k_min = _resolve(args.k_min, config, "k_min", 0, int)
    k_max = _resolve(args.k_max, config, "k_max", n, int)
    k_step = _resolve(args.k_step, config, "k_step", 1, int)
    if k_step < 1 or k_max < k_min:
        raise ValueError("need k_step >= 1 and k_max >= k_min")
    return list(range(k_min, k_max + 1, k_step))


def _link_from(args, config) -> LinkModel:
    return LinkModel(
        d1_m=_resolve(args.d1, config, "d1", 4.0, float),
        d2_m=_resolve(args.d2, config, "d2", 4.5, float),
        d3_m=_resolve(args.d3, config, "d3", 6.0, float),
        e_db=_resolve(args.e, config, "e", -10.0, float),
        p_sent=_resolve(args.p_sent, config, "p_sent", 7.67, float),
        p_adv_sent=_resolve(args.p_adv_sent, config, "p_adv_sent", 15.77, float),
        sigma_n2=_resolve(args.sigma_n2, config, "sigma_n2", 0.0, float),
    )


def cmd_analytic(args, config) -> int:
    alpha = _resolve(args.alpha, config, "alpha", 50, int)
    beta = _resolve(args.beta, config, "beta", 100, int)
    r = _resolve(args.r, config, "r", 8, int)
    lines = ["# schema=1", "# formula=" + args.formula, "k,p"]
    if args.formula in ("pevade", "psa"):
        ks = _k_grid(args, config, alpha + beta)
        for k in ks:
            if args.formula == "pevade":
                p = analytic.prob_evade_rcv(alpha, beta, r, k)
            else:
                zeta = _resolve(args.zeta, config, "zeta", None, float)
                if zeta is None:
                    raise ValueError("psa needs --zeta")
                p = analytic.prob_success(alpha, beta, r, zeta, k)
            lines.append("%d,%.12g" % (k, p))
    elif args.formula == "pnoise":
        if args.kappa is not None:
            kappas = [args.kappa]
        else:
            kappas = _k_grid(args, config, alpha + beta)
        for kappa in kappas:
            lines.append("%d,%.12g" % (kappa, analytic.prob_noise_pass(alpha, beta, r, kappa)))
    elif args.formula == "pdelta":
        n = _resolve(args.n, config, "n", alpha + beta, int)
        k = args.k if args.k is not None else _resolve(None, config, "k", alpha, int)
        for delta in range(0, k + 1):
            lines.append(
                "%d,%.12g" % (delta, analytic.appendix_prob_delta(n, alpha, k, delta))
            )
    else:
        n = _resolve(args.n, config, "n", alpha + beta, int)
        k = args.k if args.k is not None else _resolve(None, config, "k", alpha, int)
        gf = _resolve(args.gamma_factor, config, "gamma_factor", 1.0, float)
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


def cmd_simulate(args, config) -> int:
    alpha = _resolve(args.alpha, config, "alpha", 50, int)
    beta = _resolve(args.beta, config, "beta", 50, int)
    r = _resolve(args.r, config, "r", 8, int)
    trials = _resolve(args.trials, config, "trials", 100_000, int)
    seed = _resolve(args.seed, config, "seed", 0, int)
    metric = _resolve(args.metric, config, "metric", "evade", str)
    if r > alpha or r > beta:
        raise ValueError("sample size r cannot exceed either bin")
    if args.validate and metric == "attack":
        raise ValueError("no closed form matches the attack metric; --validate needs --metric evade")
    link = _link_from(args, config)
    params = CodeParams(n=alpha + beta, alpha=alpha, beta=beta, r=r)
    receiver = ReceiverConfig(
        r=r,
        upsilon=_resolve(args.upsilon, config, "upsilon", 100, int),
        p_noise_threshold=_resolve(args.cut, config, "cut", 0.8, float),
    )
    ks = _k_grid(args, config, params.n)
    cfg = TrialConfig(
        params=params,
        link=link,
        k_grid=tuple(ks),
        trials=trials,
        base_seed=seed,
        metric=metric,
        replay_gain_db=_resolve(args.gain, config, "gain", 6.0, float),
        receiver=receiver,
    )
    rows = run_grid(cfg)
    extra = "metric=%s alpha=%d beta=%d r=%d trials=%d seed=%d" % (
        metric, alpha, beta, r, trials, seed,
    )
    _write(rows_to_csv(rows, header_extra=extra), args.out)
    if args.trace_out is not None:
        delay = _resolve(args.delay, config, "delay", 200.0, float)
        session = run_session(
            params,
            link,
            seed=seed,
            k=ks[0],
            replay_delay_ns=delay if metric == "attack" else 0.0,
            replay_gain_db=cfg.replay_gain_db,
            receiver=receiver,
        )
        _write(session_trace(session), args.trace_out)
    if args.validate and not _agreement_ok(rows):
        print("validation failed: simulation disagrees with the analytic curve", file=sys.stderr)
        return 1
    return 0


VALIDATION_BETAS = (50, 150)
VALIDATION_RS = (1, 2, 8)


def cmd_validate(args, config) -> int:
    """Sweep the standard validation grid and check CI containment."""
    trials = _resolve(args.trials, config, "trials", 100_000, int)
    seed = _resolve(args.seed, config, "seed", 0, int)
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
                trials=trials,
                base_seed=seed,
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


def cmd_example(args, config) -> int:
    """Walk the numbers of one enlargement scenario end to end."""
    d1 = _resolve(args.d1, config, "d1", 4.0, float)
    d2 = _resolve(args.d2, config, "d2", 4.5, float)
    d3 = _resolve(args.d3, config, "d3", 6.0, float)
    e_db = _resolve(args.e, config, "e", -10.0, float)
    p_sent = _resolve(args.p_sent, config, "p_sent", 7.67, float)
    p_adv = _resolve(args.p_adv_sent, config, "p_adv_sent", 15.77, float)
    link = LinkModel(d1_m=d1, d2_m=d2, d3_m=d3, e_db=e_db, p_sent=p_sent, p_adv_sent=p_adv)

    committed = d1 + d2
    ratio = power_ratio(committed)
    lam_b2 = p_sent * ratio
    lam_w2 = p_sent * power_ratio(d1, e_db)
    lam_a2 = p_adv * power_ratio(d3, e_db)
    out = []
    out.append("distance enlargement walk-through")
    out.append(
        "scenario: d1 = %g m true, d2 = %g m claimed extra, adversary at d3 = %g m, E = %g dB"
        % (d1, d2, d3, e_db)
    )
    out.append("path loss f(%g m) = %.4f dB" % (committed, path_loss_db(committed)))
    out.append("power ratio 10^(f/10) = %.3g" % ratio)
    out.append("best-case pulse power at the committed distance: %.5g power units" % lam_b2)
    out.append("authentic pulse power actually arriving: %.5g power units" % lam_w2)
    out.append("adversary pulse power arriving: %.5g power units" % lam_a2)
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
    plan = AttackPlan(
        slots=np.array(FIG_INJECT_SLOTS),
        phases=np.array(FIG_INJECT_PHASES),
        powers=np.ones(len(FIG_INJECT_SLOTS)),
    )
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
        % (len(FIG_INJECT_SLOTS), ",".join(str(s + 1) for s in FIG_INJECT_SLOTS))
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
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--config", default=None)


def _add_link_flags(sub):
    sub.add_argument("--d1", type=float, default=None)
    sub.add_argument("--d2", type=float, default=None)
    sub.add_argument("--d3", type=float, default=None)
    sub.add_argument("--e", type=float, default=None)
    sub.add_argument("--p-sent", type=float, default=None)
    sub.add_argument("--p-adv-sent", type=float, default=None)
    sub.add_argument("--sigma-n2", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwblab",
        description="energy-coded ranging laboratory: sweeps, simulations, walk-throughs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analytic", help="evaluate probability formulas over a grid")
    p_an.add_argument("--formula", choices=FORMULAS, required=True)
    p_an.add_argument("--alpha", type=int, default=None)
    p_an.add_argument("--beta", type=int, default=None)
    p_an.add_argument("--r", type=int, default=None)
    p_an.add_argument("--zeta", type=float, default=None)
    p_an.add_argument("--kappa", type=int, default=None)
    p_an.add_argument("--k", type=int, default=None)
    p_an.add_argument("--k-min", type=int, default=None)
    p_an.add_argument("--k-max", type=int, default=None)
    p_an.add_argument("--k-step", type=int, default=None)
    p_an.add_argument("--n", type=int, default=None)
    p_an.add_argument("--gamma-factor", type=float, default=None)
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analytic)

    p_sim = subs.add_parser("simulate", help="Monte-Carlo estimates over a k grid")
    p_sim.add_argument("--metric", choices=("evade", "attack"), default=None)
    p_sim.add_argument("--alpha", type=int, default=None)
    p_sim.add_argument("--beta", type=int, default=None)
    p_sim.add_argument("--r", type=int, default=None)
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--k-min", type=int, default=None)
    p_sim.add_argument("--k-max", type=int, default=None)
    p_sim.add_argument("--k-step", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--upsilon", type=int, default=None)
    p_sim.add_argument("--cut", type=float, default=None)
    p_sim.add_argument("--delay", type=float, default=None)
    p_sim.add_argument("--gain", type=float, default=None)
    p_sim.add_argument("--validate", action="store_true")
    p_sim.add_argument("--trace-out", default=None)
    _add_link_flags(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_val = subs.add_parser("validate", help="simulation vs analytic on the standard grid")
    p_val.add_argument("--trials", type=int, default=None)
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_ex = subs.add_parser("example", help="worked enlargement-detection walk-through")
    _add_link_flags(p_ex)
    _add_common(p_ex)
    p_ex.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four verbs: ``sweep`` (polarisation vs protocol period), ``spectrum``
(quasi-energy branches and avoided crossings), ``schedule`` (staged
repetition protocol on one evolving state) and ``compare`` (closed-form
resonance table against the engine's conventions).

Exit codes: 0 on success, 1 for configuration or argument problems, 2 for
numerical failures, 141 (the status of a writer killed by SIGPIPE) when the
reader of stdout closes it early, as ``| head`` does; that last case prints
nothing on stderr. Each warning is one ``warning: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from functools import partial
from math import inf, isfinite

import numpy as np

from .engine import ScheduleStage, run_schedule, sweep_trace, write_schedule_csv, write_trace_csv
from .errors import DnpsimError, NumericalError, ValidationError
from .floquet import compute_spectrum, find_crossings, local_minima, write_spectrum_csv
from .protocols import TAU_PER_PERIOD, cpmg_for_period, pulsepol_for_period, resonant_period
from .spins import load_register_file, precession_frequency
from .table import fmt, write_csv


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors surface as exit code 1."""

    def error(self, message):
        raise ValidationError(message)


class _StdoutClosed(Exception):
    """The reader of stdout has gone."""


def _say(line: str) -> None:
    """Print one line to stdout; raise _StdoutClosed if its reader has gone."""
    try:
        print(line)
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` for the CLI: the message alone, one line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def _checked(kind: type, ok, rule: str):
    """An argparse type: ``kind`` of the text, refused unless ``ok`` holds,
    and named by ``kind`` in usage errors ("invalid float value: 'x'")."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


_finite = _checked(float, isfinite, "must be finite")
_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1")
# find_crossings' own check on --gap-threshold, made before any work is done.
_gap_threshold = _checked(float, lambda v: 0 < v < inf, "gap_threshold: must be finite and > 0")


def _builder(args):
    build = pulsepol_for_period if args.protocol == "pulsepol" else cpmg_for_period
    return partial(build, harmonic=args.harmonic, rabi=args.rabi)


def _grid(args) -> np.ndarray:
    if not args.t_stop > args.t_start > 0:
        raise ValidationError("need 0 < --t-start < --t-stop")
    if args.steps < 2:
        raise ValidationError(f"--steps: need at least 2, got {args.steps}")
    return np.linspace(args.t_start, args.t_stop, args.steps)


def _cmd_sweep(args) -> int:
    register = load_register_file(args.config)
    grid = _grid(args)
    trace = sweep_trace(
        _builder(args), register, grid, n_periods=args.n_periods, repetitions=args.reps,
        wait_us=args.wait_us, reinit_state=args.reinit,
    )
    total = (args.scale * trace.values).sum(axis=1)
    tau = TAU_PER_PERIOD[args.protocol]
    if args.out:
        write_trace_csv(trace, args.out, tau, args.scale)
    t = trace.periods
    m = int(np.argmax(total))
    t_peak, v_peak = t[m], total[m]
    if 0 < m < t.size - 1:
        # The first maximum passes local_minima's test on -total.
        _, _, t_star, v_star = local_minima(t[m - 1 : m + 2], -total[m - 1 : m + 2, None], inf)
        t_peak, v_peak = t_star[0], -v_star[0]
    _say(f"points: {t.size}")
    _say(f"peak: period_us={fmt(t_peak)} tau_us={fmt(t_peak * tau)} total={fmt(v_peak)}")
    # Dips: local minima below 1 percent of the trace maximum.
    _, _, t_dips, v_dips = local_minima(t, total[:, None], 0.01 * total.max())
    for t_dip, v_dip in zip(t_dips, v_dips):
        _say(f"dip: period_us={fmt(t_dip)} tau_us={fmt(t_dip * tau)} total={fmt(v_dip)}")
    if args.out:
        _say(f"wrote {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    register = load_register_file(args.config)
    grid = _grid(args)
    spectrum = compute_spectrum(_builder(args), register, grid)
    if args.out:
        write_spectrum_csv(spectrum, args.out, TAU_PER_PERIOD[args.protocol])
    crossings = find_crossings(spectrum, gap_threshold=args.gap_threshold)
    _say(f"branches: {spectrum.dim}  points: {spectrum.periods.size}")
    _say(f"crossings below gap {args.gap_threshold}: {len(crossings)}")
    if spectrum.sectors is not None:
        # Branches of different parity sectors do not couple: no avoided crossing.
        sector = spectrum.sectors
        protected = sum(sector[c.branch_a] != sector[c.branch_b] for c in crossings)
        _say(f"protected crossings (different sectors): {protected}")
    if args.protocol == "cpmg" and args.rabi is None:
        _say("note: ideal CPMG is doubly degenerate; gap=0 partner crossings are rounding noise")
    for c in crossings:
        who = ", ".join(f"{label} ({w:.3f})" for label, w in c.participants)
        _say(
            f"crossing: period_us={fmt(c.period)} gap={fmt(c.gap)} "
            f"branches={c.branch_a},{c.branch_b} spins: {who}"
        )
    if args.out:
        _say(f"wrote {args.out}")
    return 0


def _parse_stage(text: str) -> ScheduleStage:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValidationError(f"--stage: expected PERIOD:REPS or PERIOD:REPS:NP, got {text!r}")
    try:
        period = float(parts[0])
        reps = int(parts[1])
        n_p = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise ValidationError(f"--stage: {text!r}: {exc}") from None
    return ScheduleStage(period=period, repetitions=reps, n_periods=n_p)


def _cmd_schedule(args) -> int:
    register = load_register_file(args.config)
    stages = tuple(_parse_stage(s) for s in args.stage)
    result = run_schedule(
        _builder(args), register, stages, n_periods=args.n_periods, wait_us=args.wait_us,
        reinit_state=args.reinit,
    )
    values = args.scale * result.values
    if args.out:
        write_schedule_csv(result._replace(values=values), args.out)
    final = values[-1]
    _say(f"stages: {len(stages)}  repetitions: {result.times.size}")
    _say(f"elapsed_us: {fmt(float(result.times[-1]))}")
    _say("final: " + "  ".join(f"{n}={fmt(x)}" for n, x in zip(result.labels, final)))
    _say(f"final total: {fmt(float(final.sum()))}")
    if args.out:
        _say(f"wrote {args.out}")
    return 0


def _cmd_compare(args) -> int:
    from .analytic import blockade_pair, effective_params, optimal_pulse_count

    register = load_register_file(args.config)
    if not register.nuclei:
        raise ValidationError("config contains no nuclei")
    if args.blockade is not None:
        strong_spin = register.nucleus(args.blockade)
    else:
        strong_spin = max(register.nuclei, key=lambda s: s.a_perp)
    k = args.harmonic
    rows = []
    for spin in register.nuclei:
        omega_i = precession_frequency(spin, register.larmor)
        p = effective_params(spin, register.larmor, resonant_period(omega_i, k), k)
        n_opt = optimal_pulse_count(p) if p.g > 0 else 0
        if spin.label == strong_spin.label:
            blocked = (None, None, None)
        else:
            pair = blockade_pair(effective_params(strong_spin, register.larmor, p.period, k), p)
            blocked = (pair.ratio, pair.shifted_period, pair.rabi)
        rows.append((spin.label, p, n_opt, *blocked))
    # Every row is computed before the first line is printed, so a usage
    # error leaves stdout empty.
    _say(f"blockade spin: {strong_spin.label}  harmonic: k={k}")
    _say(
        f"{'label':<8} {'omega_i':>10} {'T_r':>10} {'g':>10} {'N_opt':>6} "
        f"{'shift':>10} {'T_shifted':>10} {'g_blocked':>10}"
    )
    for label, p, n_opt, *blocked in rows:
        cells = [f"{label:<8}", *(f"{x:>10.6f}" for x in (p.omega_i, p.resonant_period, p.g))]
        cells.append(f"{n_opt:>6d}")
        cells.extend(f"{'-':>10}" if x is None else f"{x:>10.6f}" for x in blocked)
        _say(" ".join(cells))
    if args.out:
        write_csv(
            args.out,
            ["label", "omega_i", "resonant_period_us", "g", "n_opt",
             "shift_ratio", "shifted_period_us", "g_blocked"],
            ([label, p.omega_i, p.resonant_period, p.g, *rest] for label, p, *rest in rows),
        )
        _say(f"wrote {args.out}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="register YAML file")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--harmonic", type=_positive_int, default=3, help="resonance harmonic k")


def _add_protocol(sub: argparse.ArgumentParser) -> None:
    """The period builder's options, for the verbs that build periods."""
    sub.add_argument("--protocol", choices=("pulsepol", "cpmg"), default="pulsepol",
                     help="period builder (default pulsepol)")
    sub.add_argument("--rabi", type=float, default=None,
                     help="finite-pulse Rabi frequency in rad/us (default: ideal pulses)")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="accepted and ignored: every verb runs in one process")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-start", type=_finite, required=True, help="first period (us)")
    sub.add_argument("--t-stop", type=_finite, required=True, help="last period (us)")
    sub.add_argument("--steps", type=int, default=101, help="grid points")


def _add_run(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--np", dest="n_periods", type=int, default=4,
                     help="protocol periods per repetition")
    sub.add_argument("--wait-us", type=float, default=0.0, help="wait between repetitions")
    sub.add_argument("--reinit", type=int, choices=(0, 1), default=0,
                     help="electron reset state index")
    sub.add_argument("--scale", type=_finite, default=1.0,
                     help="multiply reported polarisations (2 maps spin-1/2 onto [-1, 1])")


#: Each verb: its help line, the option groups it takes, its own options
#: as {flag: keyword arguments}, and the command that runs it.
_VERBS = {
    "sweep": ("polarisation vs protocol period", (_add_common, _add_protocol, _add_grid, _add_run),
              {"--reps": dict(type=int, default=1, help="repetitions per grid point")}, _cmd_sweep),
    "spectrum": ("quasi-energy branches and crossings", (_add_common, _add_protocol, _add_grid),
                 {"--gap-threshold": dict(type=_gap_threshold, default=0.5,
                                          help="report crossings with phase gap below this")},
                 _cmd_spectrum),
    "schedule": ("staged protocol on one state", (_add_common, _add_protocol, _add_run),
                 {"--stage": dict(action="append", required=True, metavar="PERIOD:REPS[:NP]",
                                  help="stage spec; repeat for several stages")},
                 _cmd_schedule),
    "compare": ("closed-form resonance table (ideal PulsePol)", (_add_common,),
                {"--blockade": dict(
                    help="blockade spin label (default: largest transverse coupling)")},
                _cmd_compare),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The dnpsim parser with every verb, or with ``verb`` alone when it
    names one: a run parses only its own verb's options, and the help,
    usage and error text of that verb is the same either way."""
    parser = _Parser(prog="dnpsim", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, adders, options, command) in _VERBS.items():
        if verb in _VERBS and name != verb:
            continue
        sub = subs.add_parser(name, help=help_text)
        for add in adders:
            add(sub)
        for flag, kwargs in options.items():
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _main(argv)


def _main(argv: list[str] | None) -> int:
    words = sys.argv[1:] if argv is None else argv
    parser = build_parser(words[0] if words else None)
    try:
        args = parser.parse_args(argv)
        rc = args.func(args)
        try:
            sys.stdout.flush()
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc
        return rc
    except _StdoutClosed:
        # Point stdout at /dev/null so that the interpreter's final flush
        # of the unwritten buffer cannot raise a second time at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DnpsimError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

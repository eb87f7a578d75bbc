"""Batch command-line front end.

Three subcommands: `run` executes one configured scenario and writes its
trace, `sweep` walks one parameter axis emitting an analytic-plus-empirical
table, and `analyze` prints closed-form values directly. Machine output is
CSV or JSONL; the human summary goes to stdout. A gas schedule override file
can be pointed to with the TIDSIM_GAS_SCHEDULE environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .actors import ProtocolError
from .adversary import run_bribery, sybil_capture_trials
from .analysis import (
    AnalysisError,
    availability,
    availability_mc,
    bribery_cost,
    cost_report,
    optimal_sybil_fraction,
    share_loss_probability,
    sybil_min_deposit,
)
from .ledger import GasSchedule, LedgerError, WEI_PER_ETHER, fmt_usd
from .scenario import ConfigError, ScenarioConfig, run_scenario

GAS_SCHEDULE_ENV = "TIDSIM_GAS_SCHEDULE"


def load_schedule() -> Optional[GasSchedule]:
    """The override schedule the environment names, if any; a file whose
    contents do not make a valid schedule is a config error."""
    path = os.environ.get(GAS_SCHEDULE_ENV)
    if not path:
        return None
    try:
        return GasSchedule.from_file(path)
    except (LedgerError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ConfigError(f"gas schedule {path}: {exc}") from None


def _number(cast, text: str):
    """int() or float() of a command-line value, as a config error."""
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"expected {cast.__name__}, got {text!r}") from None


def parse_range(spec: str, as_float: bool) -> list | range:
    """Accept '1,2,3' lists or 'start:stop:step' (stop inclusive). An integer
    range is a lazy `range`, so a long one costs nothing until swept."""
    cast = float if as_float else int
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("range syntax is start:stop:step")
        start, stop, step = (_number(cast, p) for p in parts)
        if as_float and not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"range {spec} needs a finite start, stop and step")
        if step <= 0:
            raise ConfigError("range step must be positive")
        if start > stop + (1e-9 if as_float else 0):
            raise ConfigError(f"range {spec} is empty: start exceeds stop")
        if not as_float:
            return range(start, stop + 1, step)
        values = []
        value = start
        while value <= stop + 1e-9:
            values.append(round(value, 10))
            if value + step == value:
                raise ConfigError(f"range {spec}: step {step} does not move past {value}")
            value += step
        return values
    return [_number(cast, p) for p in spec.split(",")]


def write_table(rows: list[dict], out: Optional[str], fmt: str):
    if not rows:
        return
    if out is None or out == "-":
        handle = sys.stdout
        close = False
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        handle = open(out, "w", encoding="utf-8", newline="")
        close = True
    try:
        if fmt == "csv":
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    finally:
        if close:
            handle.close()


def load_config(args) -> ScenarioConfig:
    if args.config:
        config = ScenarioConfig.from_json_file(args.config)
    else:
        config = ScenarioConfig().validate()
    if args.seed is not None:
        config = replace(config, seed=args.seed).validate()
    return config


def cmd_run(args) -> int:
    config = load_config(args)
    schedule = load_schedule()
    trace = run_scenario(config, schedule=schedule)
    summary = trace.summary()
    report = cost_report(trace=trace, schedule=schedule)
    print(f"mode:        {trace.mode}")
    print(f"status:      {trace.status}")
    print(f"epochs:      {'-'.join(str(e) for e in trace.epoch_sequence) or 'n/a'}")
    print(f"service gas: {trace.service_gas}")
    print(f"service usd: {fmt_usd(report.service_usd_quoted)}")
    print(f"slashes:     {len(trace.slashes)}")
    print(f"trace hash:  {summary['trace_hash']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(trace.jsonl_lines(summary))
        print(f"trace:       {args.out}")
    return 0


def _sweep_n(config: ScenarioConfig, values, trials, schedule) -> list[dict]:
    rows = []
    for n in values:
        cfg = replace(
            config,
            n=n,
            t=min(config.t, n),
            l=min(config.l, n),
            pool_size=max(config.pool_size, n + 2),
            selection_override=None,
        ).validate()
        trace = run_scenario(cfg, schedule=schedule)
        rows.append(
            {
                "n": n,
                "mode": cfg.mode,
                "status": trace.status,
                "service_gas": trace.service_gas,
                "service_usd": fmt_usd(cost_report(trace=trace, schedule=schedule).service_usd_quoted),
                "analytic_light_usd": fmt_usd(
                    cost_report(mode="lightweight", n=n, schedule=schedule).service_usd_quoted
                ),
                "analytic_heavy_usd": fmt_usd(
                    cost_report(mode="heavyweight", n=n, schedule=schedule).service_usd_quoted
                ),
                "analytic_strawman_gas": cost_report(
                    mode="strawman", n=n, schedule=schedule
                ).total_gas,
            }
        )
    return rows


def _sweep_availability(config: ScenarioConfig, values, trials, schedule) -> list[dict]:
    rows = []
    for a_t in values:
        closed = availability(config.l, config.t, config.n, a_t)
        rows.append(
            {
                "a_t": a_t,
                "l": config.l,
                "t": config.t,
                "n": config.n,
                "share_loss": share_loss_probability(config.l, a_t),
                "availability_closed": closed,
                "availability_mc": availability_mc(
                    config.l, config.t, config.n, a_t, trials, seed=config.seed
                ),
            }
        )
    return rows


def _sweep_l(config: ScenarioConfig, values, trials, schedule) -> list[dict]:
    d_eth = config.deposit_wei / WEI_PER_ETHER
    rows = []
    for l in values:
        row = {
            "l": l,
            "availability_closed": availability(l, config.t, config.n, config.availability),
            "bribery_cost": bribery_cost(config.t, l, d_eth),
        }
        row["sybil_min_deposit"] = (
            sybil_min_deposit(l, config.pool_size, d_eth) if l >= 2 else None
        )
        rows.append(row)
    return rows


def _sweep_x(config: ScenarioConfig, values, trials, schedule) -> list[dict]:
    v = config.pool_size
    d_eth = config.deposit_wei / WEI_PER_ETHER
    rows = []
    for x in values:
        counts = sybil_capture_trials(config.l, v, x, config.t, config.n, trials, seed=config.seed + x)
        rate = counts.mean() / config.n
        p_m = x / (x + v)
        rows.append(
            {
                "x": x,
                "p_m": p_m,
                "analytic_capture_p": p_m**config.l,
                "empirical_capture_p": rate,
                "success_rate": float((counts >= config.t).mean()),
                "expected_deposit": (x * d_eth * config.t / (config.n * rate)) if rate else None,
                "deposit_spent": x * d_eth,
                "trials": trials,
            }
        )
    return rows


def _sweep_bribe(config: ScenarioConfig, values, trials, schedule) -> list[dict]:
    for bribe_eth in values:
        if not 0 <= bribe_eth * WEI_PER_ETHER < math.inf:  # false for NaN too
            raise ConfigError(f"bribe must be a finite non-negative number of wei, got {bribe_eth} ether")
    rows = []
    for bribe_eth in values:
        bribe = int(bribe_eth * WEI_PER_ETHER)
        outcome = run_bribery(config, bribe)
        rows.append(
            {
                "bribe_eth": bribe_eth,
                "key_recovered": outcome.key_recovered,
                "shares_obtained": outcome.shares_obtained,
                "total_spent_eth": outcome.total_spent / WEI_PER_ETHER,
                "deposits_forfeited_eth": outcome.deposits_forfeited / WEI_PER_ETHER,
                "analytic_bound": bribery_cost(config.t, config.l, config.deposit_wei / WEI_PER_ETHER),
            }
        )
    return rows


SWEEPS = {
    "n": (_sweep_n, False),
    "A_T": (_sweep_availability, True),
    "l": (_sweep_l, False),
    "x": (_sweep_x, False),
    "bribe": (_sweep_bribe, True),
}


def cmd_sweep(args) -> int:
    config = load_config(args)
    sweep_fn, as_float = SWEEPS[args.sweep_axis]
    values = parse_range(args.sweep_range, as_float)
    schedule = load_schedule()
    rows = sweep_fn(config, values, args.trials, schedule)
    write_table(rows, args.out, args.format)
    if args.out and args.out != "-":
        print(f"{len(rows)} rows -> {args.out}")
    return 0


# each analysis and the names of its positional parameters, in order
ANALYSES = {
    "availability": ("l", "t", "n", "A_T"),
    "cost": ("mode", "n"),
    "sybil": ("l", "v", "d"),
    "bribery": ("t", "l", "d"),
}


def cmd_analyze(args) -> int:
    what = args.what
    params = args.params
    names = ANALYSES[what]
    if len(params) != len(names):
        raise ConfigError(f"analyze {what} takes {len(names)} parameters ({' '.join(names)}), got {len(params)}")
    if what == "availability":
        l, t, n = (_number(int, p) for p in params[:3])
        a_t = _number(float, params[3])
        print(f"{availability(l, t, n, a_t):.6f}")
    elif what == "cost":
        mode = params[0]
        n = _number(int, params[1])
        report = cost_report(mode=mode, n=n, schedule=load_schedule())
        print(f"${fmt_usd(report.service_usd_quoted)}")
    elif what == "sybil":
        l, v = _number(int, params[0]), _number(int, params[1])
        d = _number(float, params[2])
        print(f"{sybil_min_deposit(l, v, d):.1f}")
        print(f"optimal fraction: {optimal_sybil_fraction(l)}")
    elif what == "bribery":
        t, l = _number(int, params[0]), _number(int, params[1])
        d = _number(float, params[2])
        print(f"{bribery_cost(t, l, d):.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidsim",
        description="Timed-information-delivery protocol simulator and analysis suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario from a config file")
    run_p.add_argument("--config", help="scenario config JSON (defaults apply if omitted)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", help="write the full trace (JSONL) here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="walk one axis and emit a table")
    sweep_p.add_argument("--config", help="base scenario config JSON")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--sweep-axis", required=True, choices=sorted(SWEEPS))
    sweep_p.add_argument("--sweep-range", required=True, help="'5,10,20' or 'start:stop:step'")
    sweep_p.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials per point")
    sweep_p.add_argument("--out", help="output file ('-' or omit for stdout)")
    sweep_p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sweep_p.set_defaults(func=cmd_sweep)

    an_p = sub.add_parser("analyze", help="print closed-form values")
    an_p.add_argument("what", choices=tuple(ANALYSES))
    an_p.add_argument("params", nargs="+")
    an_p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AnalysisError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI tests: exit codes, file outputs, idempotency, schedule override."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import tidsim
from tidsim import crypto
from tidsim.adversary import run_bribery
from tidsim.analysis import availability as availability_of, bribery_cost, sybil_min_deposit
from tidsim.cli import main, parse_range
from tidsim.ledger import WEI_PER_ETHER
from tidsim.scenario import ConfigError, ScenarioConfig, ScenarioTrace, run_scenario

from conftest import numpy_pin_note


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({"seed": 5, "pool_size": 6, "l": 2, "t": 2, "n": 4})
    )
    return str(path)


class TestParseRange:
    def test_comma_list(self):
        assert parse_range("5,10,20", as_float=False) == [5, 10, 20]

    def test_colon_range(self):
        assert list(parse_range("2:10:4", as_float=False)) == [2, 6, 10]
        assert parse_range("0.9:0.95:0.025", as_float=True) == [0.9, 0.925, 0.95]

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            parse_range("1:5:0", as_float=False)

    @pytest.mark.parametrize("spec", ["1:2", "1:2:3:4", ":"])
    @pytest.mark.parametrize("as_float", [False, True])
    def test_range_needs_three_parts(self, spec, as_float):
        with pytest.raises(ConfigError) as info:
            parse_range(spec, as_float)
        assert (type(info.value), str(info.value)) == (ConfigError, "range syntax is start:stop:step")

    def test_long_integer_range_is_lazy(self):
        values = parse_range("0:10000000000:1", as_float=False)
        assert values == range(0, 10_000_000_001)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0:inf:1", "needs a finite start, stop and step"),
            ("-inf:0:1", "needs a finite start, stop and step"),
            ("0:1:nan", "needs a finite start, stop and step"),
            ("1e20:2e20:1", "step 1.0 does not move past"),
            ("1e20:1e20:1", "step 1.0 does not move past"),
        ],
    )
    def test_endless_float_range_rejected(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            parse_range(spec, as_float=True)


class TestRun:
    def test_honest_run_exit_zero(self, config_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["run", "--config", config_file, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "delivered_light" in printed
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[0])
        assert summary["type"] == "summary"
        assert summary["status"] == "delivered_light"
        assert any(json.loads(l)["type"] == "receipt" for l in lines[1:])

    def test_all_honest_costs_2_21(self, config_file, capsys):
        code = main(["run", "--config", config_file])
        assert code == 0
        assert "service usd: 2.21" in capsys.readouterr().out

    def test_failed_delivery_still_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "fail.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "pool_size": 6,
                    "l": 2,
                    "t": 4,
                    "n": 4,
                    "fault_policies": {"0": "absent", "1": "absent"},
                }
            )
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert "failed" in capsys.readouterr().out

    def test_invalid_config_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"seed": 1, "pool_size": 6, "l": 2, "t": 5, "n": 4}))
        code = main(["run", "--config", str(cfg)])
        assert code != 0
        assert "threshold" in capsys.readouterr().err

    def test_protocol_error_exit_one_without_traceback(self, tmp_path, capsys):
        # courier 0 refuses and the pool has no spare to replace it
        cfg = tmp_path / "exhausted.json"
        cfg.write_text(json.dumps({"pool_size": 4, "n": 4, "refusals": [0]}))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pool exhausted")
        assert "Traceback" not in err

    def test_unregistrable_pool_exits_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "min_deposit.json"
        cfg.write_text(
            json.dumps({"seed": 1, "pool_size": 5, "n": 4, "l": 2, "t": 2, "min_deposit_wei": 2 * 10**18})
        )
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: min_deposit_wei")
        assert "Traceback" not in err

    def test_overlong_clock_exits_two_without_running(self, tmp_path, capsys):
        cfg = tmp_path / "overlong.json"
        cfg.write_text(json.dumps({"day": 10**9}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: clock too long")
        assert "Traceback" not in err

    def test_json_syntax_error_carries_line(self, tmp_path, capsys):
        cfg = tmp_path / "syntax.json"
        cfg.write_text("{\n  broken\n}")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "syntax.json:2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[{}]", "config must be a JSON object"),
            ('{"n": "ten"}', "n must be an integer"),
            ('{"availability": null}', "availability must be a number"),
            ('{"fault_policies": [1]}', "fault_policies must be an object"),
            ('{"refusals": 3}', "refusals must be a list of integers"),
        ],
    )
    def test_mistyped_config_exit_two_without_traceback(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "mistyped.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "Traceback" not in err

    def test_out_file_is_to_jsonl_written_line_by_line(self, config_file, tmp_path, monkeypatch):
        expected = run_scenario(ScenarioConfig.from_json_file(config_file)).to_jsonl()

        def whole(self):
            raise AssertionError("--out built the whole trace file in memory")

        monkeypatch.setattr(ScenarioTrace, "to_jsonl", whole)
        out = tmp_path / "trace.jsonl"
        assert main(["run", "--config", config_file, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    def test_out_hashes_the_trace_once(self, config_file, tmp_path, monkeypatch):
        calls = []
        trace_hash = ScenarioTrace.trace_hash

        def counted(self):
            calls.append(self)
            return trace_hash(self)

        monkeypatch.setattr(ScenarioTrace, "trace_hash", counted)
        assert main(["run", "--config", config_file, "--out", str(tmp_path / "trace.jsonl")]) == 0
        assert len(calls) == 1

    def test_idempotent_byte_for_byte(self, config_file, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        main(["run", "--config", config_file, "--out", str(out_a)])
        main(["run", "--config", config_file, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_trace(self, config_file, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        main(["run", "--config", config_file, "--out", str(out_a)])
        main(["run", "--config", config_file, "--seed", "99", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()


class TestSweep:
    def test_n_sweep_constant_light_gas(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "pool_size": 7, "l": 2, "t": 2, "n": 5, "withdraw_at_end": False}))
        out = tmp_path / "table.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--sweep-axis",
                "n",
                "--sweep-range",
                "5,8,12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(json.loads(json.dumps(r)) for r in _read_csv(out))
        assert [int(r["n"]) for r in rows] == [5, 8, 12]
        assert len({r["service_gas"] for r in rows}) == 1

    def test_availability_sweep_jsonl(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "pool_size": 12, "l": 4, "t": 4, "n": 10}))
        out = tmp_path / "avail.jsonl"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--sweep-axis",
                "A_T",
                "--sweep-range",
                "0.9,0.95,0.99",
                "--trials",
                "20000",
                "--format",
                "jsonl",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().strip().splitlines()]
        closed = [r["availability_closed"] for r in rows]
        assert closed == sorted(closed)
        for row in rows:
            assert abs(row["availability_closed"] - row["availability_mc"]) < 0.01

    def test_availability_sweep_pinned(self):
        out = io.StringIO()
        argv = ["sweep", "--sweep-axis", "A_T", "--sweep-range", "0.80:0.99:0.01"]
        argv += ["--trials", "20000", "--seed", "5", "--format", "jsonl"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "4e5a9d7f883632110f131d9a2db5fd3feafeb9b421ef1dd179f02523163999fb", numpy_pin_note()

    def test_availability_sweep_pinned_across_chunks(self):
        # 9,001 trials of n*l = 30 draws are 9 Monte Carlo chunks of 1,092
        # trials, the last one partial
        out = io.StringIO()
        argv = ["sweep", "--sweep-axis", "A_T", "--sweep-range", "0.80:0.99:0.01"]
        argv += ["--trials", "9001", "--seed", "6", "--format", "jsonl"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "33faf070a7f09154670503e1a754077e992dc2b6eee52ea33c45eb106c948060", numpy_pin_note()

    def test_x_sweep_pinned(self):
        out = io.StringIO()
        argv = ["sweep", "--sweep-axis", "x", "--sweep-range", "0:300:50"]
        argv += ["--trials", "4000", "--seed", "3", "--format", "jsonl"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "79ec04b95d1be061a90d711d05e395564ef364fa2a89f51dd1f918ec80996c7e", numpy_pin_note()

    def test_unallocatable_sweep_exits_one_without_traceback(self, capsys):
        # one trial over a pool of 10**12 couriers is an 8 TB draw, which
        # fails to allocate at once, before any memory is touched
        assert main(["sweep", "--sweep-axis", "x", "--sweep-range", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_x_sweep_minimum_near_optimum(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "pool_size": 100, "l": 3, "t": 4, "n": 10}))
        out = tmp_path / "sybil.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--sweep-axis",
                "x",
                "--sweep-range",
                "120:300:30",
                "--trials",
                "4000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = _read_csv(out)
        costed = [(float(r["expected_deposit"]), int(r["x"])) for r in rows if r["expected_deposit"]]
        _, best_x = min(costed)
        assert abs(best_x - 200) <= 60

    @pytest.mark.parametrize("availability", [None, 0.9], ids=["default", "a_t_0.9"])
    def test_l_sweep_rows(self, tmp_path, capsys, availability):
        argv = ["sweep", "--sweep-axis", "l", "--sweep-range", "1:4:1", "--format", "jsonl"]
        config = ScenarioConfig()
        if availability is not None:
            config = ScenarioConfig(availability=availability)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"availability": availability}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["l"] for row in rows] == [1, 2, 3, 4]
        closed = [row["availability_closed"] for row in rows]
        assert closed == sorted(closed, reverse=True)
        if availability is not None:
            assert len(set(closed)) == 4
        d = config.deposit_wei / WEI_PER_ETHER
        for row in rows:
            l = row["l"]
            assert row["availability_closed"] == availability_of(l, config.t, config.n, config.availability)
            assert row["bribery_cost"] == bribery_cost(config.t, l, d)
            assert (row["sybil_min_deposit"] is None) == (l == 1)
            if l > 1:
                assert row["sybil_min_deposit"] == sybil_min_deposit(l, config.pool_size, d)

    def test_bribe_sweep_rows_are_run_bribery_outcomes(self, tmp_path, capsys):
        fields = {"seed": 7, "pool_size": 6, "l": 2, "t": 2, "n": 4}
        fields["fault_policies"] = {str(i): "briberable" for i in range(6)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        bribes = [0.5, 1.0, 1.01, 3.0]
        argv = ["sweep", "--config", str(cfg), "--sweep-axis", "bribe", "--format", "jsonl"]
        assert main(argv + ["--sweep-range", ",".join(map(str, bribes))]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        config = ScenarioConfig.from_json_file(str(cfg))
        d = config.deposit_wei / WEI_PER_ETHER
        assert [row["bribe_eth"] for row in rows] == bribes
        for row, bribe in zip(rows, bribes):
            outcome = run_bribery(config, int(bribe * WEI_PER_ETHER))
            assert row == {
                "bribe_eth": bribe,
                "key_recovered": outcome.key_recovered,
                "shares_obtained": outcome.shares_obtained,
                "total_spent_eth": outcome.total_spent / WEI_PER_ETHER,
                "deposits_forfeited_eth": outcome.deposits_forfeited / WEI_PER_ETHER,
                "analytic_bound": bribery_cost(config.t, config.l, d),
            }
        # bribes at or below the deposit buy nothing; above it they restore the key
        assert [row["key_recovered"] for row in rows] == [False, False, True, True]


class TestAnalyze:
    def test_availability(self, capsys):
        assert main(["analyze", "availability", "3", "4", "10", "0.95"]) == 0
        value = float(capsys.readouterr().out)
        assert 0.9998 < value < 1.0

    def test_cost(self, capsys):
        assert main(["analyze", "cost", "heavyweight", "20"]) == 0
        assert capsys.readouterr().out.strip() == "$18.91"

    def test_sybil(self, capsys):
        assert main(["analyze", "sybil", "3", "100", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "200.0"
        assert "2/3" in out

    def test_bribery(self, capsys):
        assert main(["analyze", "bribery", "4", "3", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "12.0"

    @pytest.mark.parametrize(
        "params",
        [["availability", "3", "4", "10"], ["cost", "lightweight"], ["sybil", "3", "100"], ["bribery", "4"]],
        ids=lambda params: params[0],
    )
    def test_short_params_exit_two(self, capsys, params):
        assert main(["analyze", *params]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: analyze {params[0]} takes")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "availability", "3", "4", "0", "0.9"], "invalid threshold"),
            (["analyze", "bribery", "0", "0", "1"], "bribery cost needs positive parameters"),
            (["analyze", "availability", "x", "4", "10", "0.9"], "expected int, got 'x'"),
            (["analyze", "cost", "heavyweight", "ten"], "expected int, got 'ten'"),
            (["sweep", "--sweep-axis", "l", "--sweep-range", "0"], "onion depth must be at least 1"),
            (["sweep", "--sweep-axis", "l", "--sweep-range", "5:1:1", "--out", "o.csv"], "range 5:1:1 is empty"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "0.9,high"], "expected float, got 'high'"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "2"], "availability must lie in [0, 1]"),
            (["sweep", "--sweep-axis", "x", "--sweep-range", "0", "--trials", "0"], "need a positive trial count"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "0.9", "--trials", "0"], "need a positive trial count"),
            (["sweep", "--sweep-axis", "bribe", "--sweep-range", "-1"], "got -1.0"),
            (["sweep", "--sweep-axis", "bribe", "--sweep-range", "nan"], "got nan"),
            (["sweep", "--sweep-axis", "bribe", "--sweep-range", "2,inf"], "got inf"),
            (["sweep", "--sweep-axis", "bribe", "--sweep-range", "1e300"], "got 1e+300"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "0:inf:1"], "needs a finite start"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "1e20:2e20:1"], "does not move past"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "0:1:nan"], "needs a finite start"),
            (["sweep", "--sweep-axis", "A_T", "--sweep-range", "0.9:0.8:0.01"], "is empty: start exceeds stop"),
            (["sweep", "--sweep-axis", "n", "--sweep-range", "0:10000000000:1"], "invalid threshold t=0 for n=0"),
            (["analyze", "bribery", "2", "2", "nan"], "deposit must be a finite positive number, got nan"),
            (["analyze", "bribery", "2", "2", "inf"], "deposit must be a finite positive number, got inf"),
            (["analyze", "sybil", "2", "10", "nan"], "deposit must be a finite positive number, got nan"),
            (["analyze", "sybil", "2", "10", "inf"], "deposit must be a finite positive number, got inf"),
        ],
        ids=[
            "availability n=0",
            "bribery zeros",
            "availability non-integer",
            "cost non-integer",
            "l sweep zero",
            "l sweep empty range",
            "A_T sweep non-float",
            "A_T sweep above one",
            "x sweep no trials",
            "A_T sweep no trials",
            "bribe sweep negative",
            "bribe sweep nan",
            "bribe sweep inf",
            "bribe sweep wei overflow",
            "A_T sweep infinite stop",
            "A_T sweep stalled step",
            "A_T sweep nan step",
            "A_T sweep empty range",
            "n sweep endless range",
            "bribery nan deposit",
            "bribery inf deposit",
            "sybil nan deposit",
            "sybil inf deposit",
        ],
    )
    def test_bad_parameters_exit_two(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestScheduleOverride:
    def test_env_gas_schedule(self, tmp_path, monkeypatch, capsys):
        override = tmp_path / "gas.json"
        override.write_text(json.dumps({"usd_display": {"recipientReceipt": "0.99"}}))
        monkeypatch.setenv("TIDSIM_GAS_SCHEDULE", str(override))
        assert main(["analyze", "cost", "lightweight", "10"]) == 0
        assert capsys.readouterr().out.strip() == "$3.04"  # 1.81 + 0.24 + 0.99

    @pytest.mark.parametrize(
        "text",
        [
            '{"gas": {"withdraw": -1}}',
            '{"gas_to_ether": "1e-30"}',
            "[1, 2]",
            '{"gas": {"withdraw": "abc"}}',
            '{"gas": {"withdraw": null}}',
            '{"ether_to_usd": "1/0"}',
            "{",
            '{"gas": {"withdraw": 1.9}}',
            '{"gas": {"newService": true}}',
            '{"gas_per_unit": {"revealIdentity": 0.5}}',
            '{"gas": {"withdraw": Infinity}}',
            '{"gas_to_ether": -1.67e-8}',
            '{"ether_to_usd": -175}',
            '{"ether_to_usd": 0}',
            '{"usd_display": {"newService": -1}}',
        ],
        ids=[
            "negative gas",
            "fractional wei",
            "not an object",
            "non-integer gas",
            "null gas",
            "zero denominator",
            "bad json",
            "fractional gas",
            "bool gas",
            "fractional per-unit gas",
            "infinite gas",
            "negative gas price",
            "negative ether price",
            "zero ether price",
            "negative published price",
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [["analyze", "cost", "lightweight", "10"], ["run"], ["sweep", "--sweep-axis", "n", "--sweep-range", "4"]],
        ids=lambda argv: argv[0],
    )
    def test_bad_schedule_exit_two(self, tmp_path, monkeypatch, capsys, text, argv):
        override = tmp_path / "gas.json"
        override.write_text(text)
        monkeypatch.setenv("TIDSIM_GAS_SCHEDULE", str(override))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: gas schedule {override}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_run_reads_schedule_once(self, config_file, tmp_path, monkeypatch, capsys):
        from tidsim.ledger import GasSchedule

        override = tmp_path / "gas.json"
        override.write_text("{}")
        monkeypatch.setenv("TIDSIM_GAS_SCHEDULE", str(override))
        reads = []
        from_file = GasSchedule.from_file
        monkeypatch.setattr(GasSchedule, "from_file", lambda path: reads.append(path) or from_file(path))
        assert main(["run", "--config", config_file]) == 0
        assert reads == [str(override)]


COLD_START = """
import contextlib, io, json, sys
from random import Random
import tidsim, tidsim.cli
from tidsim.crypto import _base_table, _gcm
assert "ctypes" not in sys.modules
seen = []
def look():
    seen.append([
        "numpy" in sys.modules,
        _base_table.cache_info().currsize,
        _gcm.cache_info().currsize,
        "cryptography" in sys.modules,
    ])
look()
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert tidsim.cli.main(["analyze", "availability", "3", "4", "10", "0.95"]) == 0
assert out.getvalue() == "0.999903\\n", out.getvalue()
look()
for axis, values in [("l", "2:4:1"), ("x", "0:4:2"), ("A_T", "0.9")]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert tidsim.cli.main(["sweep", "--sweep-axis", axis, "--sweep-range", values, "--trials", "100"]) == 0
    look()
tidsim.keypair_gen(Random(0))
look()
tidsim.availability_mc(3, 4, 10, 0.9, 100)
look()
key = tidsim.crypto.new_secret_key(Random(1))
blob = tidsim.crypto.sym_encrypt(key, b"first encryption", Random(0))
look()
assert tidsim.crypto.sym_decrypt(key, blob) == b"first encryption"
with contextlib.redirect_stdout(io.StringIO()):
    assert tidsim.cli.main(["run"]) == 0
look()
print(json.dumps(seen))
"""


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports tidsim from this checkout."""
    src = str(Path(tidsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_numpy_and_base_table_on_first_use():
    """A fresh interpreter importing tidsim and its CLI loads no numpy and
    no ctypes, reads no k * G table and binds no AES-GCM, nor does `tidsim
    analyze` or an l sweep; the first Monte Carlo (the x sweep) loads numpy,
    a key pair reads the table, and only the first encryption binds AES-GCM,
    through the OpenSSL hashlib already maps. No step, a whole `tidsim run`
    included, loads `cryptography`."""
    assert json.loads(_fresh_python(COLD_START)) == [
        [False, 0, 0, False],  # import tidsim, tidsim.cli
        [False, 0, 0, False],  # analyze availability
        [False, 0, 0, False],  # sweep l
        [True, 0, 0, False],  # sweep x
        [True, 0, 0, False],  # sweep A_T
        [True, 1, 0, False],  # keypair_gen
        [True, 1, 0, False],  # availability_mc
        [True, 1, 1, False],  # sym_encrypt
        [True, 1, 1, False],  # sym_decrypt, then tidsim run
    ]


FIRST_DECRYPT = """
import sys
from tidsim import crypto
try:
    getattr(crypto, sys.argv[1])(bytes.fromhex(sys.argv[2]), bytes.fromhex(sys.argv[3]))
except crypto.AuthenticationError as exc:
    print(exc, crypto._gcm.cache_info().currsize, "cryptography" in sys.modules, sep="\\n")
"""


@pytest.mark.parametrize(
    "decrypt, message",
    [("sym_decrypt", "wrong key or tampered ciphertext"), ("ecies_decrypt", "wrong key or tampered onion layer")],
)
def test_first_failing_decrypt_raises_authentication_error(decrypt, message):
    """A process whose first AES call is a decryption under the wrong key
    binds AES-GCM there and reports AuthenticationError with the message
    the function always gave, without loading `cryptography`."""
    rng = Random(3)
    if decrypt == "sym_decrypt":
        wrong_key, blob = crypto.new_secret_key(rng), crypto.sym_encrypt(crypto.new_secret_key(rng), b"info", rng)
    else:
        wrong_key = crypto.keypair_gen(rng).privkey
        blob = crypto.ecies_encrypt(crypto.keypair_gen(rng).pubkey, b"share", rng)
    assert _fresh_python(FIRST_DECRYPT, decrypt, wrong_key.hex(), blob.hex()).splitlines() == [message, "1", "False"]


def _read_csv(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))

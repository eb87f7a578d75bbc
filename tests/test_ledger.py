"""Ledger tests: accounts, gas metering, clock, conservation, rollback."""

import copy
import dataclasses
import functools
import json
import operator
import re
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tidsim import crypto, ledger as ledger_module, scenario as scenario_module
from tidsim.crypto import hash256
from tidsim.ledger import (
    _BLOCK,
    _DEPTH,
    _journaled,
    Contract,
    ContractRevert,
    FN_DEPLOY_SUPPLEMENTARY,
    FN_DEPLOY_SWITCH,
    FN_NEW_SERVICE,
    FN_RECIPIENT_RECEIPT,
    FN_WITHDRAW,
    GasSchedule,
    JournaledDict,
    JournaledList,
    Ledger,
    LedgerError,
    TxContext,
    TxReceipt,
    WEI_PER_ETHER,
    fmt_usd,
    json_digest,
    json_pieces,
    public_record,
    round_usd_cents,
)
from tidsim.scenario import ScenarioConfig, ScenarioRunner, run_scenario

ETHER = WEI_PER_ETHER


class PingContract(Contract):
    deploy_fn = FN_DEPLOY_SWITCH  # borrow a scheduled function for tests

    def init_state(self):
        self.state = {"count": 0, "ticks": []}

    def gas_units(self, fn, args):
        return len(args.get("items", [])) or 1

    def fn_newService(self, ctx, items=None, fail=False, send_back=0, to=None):
        self.state["count"] += 1
        if send_back:
            ctx.pay_out(to or ctx.caller, send_back)
        if fail:
            raise ContractRevert("requested failure")

    def on_tick(self, tick):
        self.state["ticks"].append(tick)


class NestedContract(Contract):
    """Writes deep into its own state, or into another contract's, may pay
    out, and reverts unless `fail` is false."""

    deploy_fn = FN_DEPLOY_SWITCH

    def init_state(self):
        self.state = {"book": {"alice": {"tags": ["a"], "n": 1}}, "log": [[1, 2], {"k": None}], "on": True}

    def fn_newService(self, ctx, into=None, pay=0, fail=True):
        target = ctx.contract_at(into) if into is not None else self
        target.state["book"]["bob"] = {"tags": [], "n": 0}
        target.state["book"]["alice"]["tags"].append("b")
        target.state["log"][0].append(3)
        target.state["log"][1]["k"] = "x"
        target.state["on"] = False
        if pay:
            ctx.pay_out(ctx.caller, pay)
        if fail:
            raise ContractRevert("after nested writes")


class RecordContract(Contract):
    """Inserts a record, or takes the one an earlier call inserted, and
    writes into it through the state; reverts if `fail`."""

    deploy_fn = FN_DEPLOY_SWITCH

    def init_state(self):
        self.state = {"records": {}}

    def fn_newService(self, ctx, key, fail=False):
        record = self.state["records"].setdefault(key, {"tags": [], "n": 0})
        record["tags"].append("t%d" % record["n"])
        record["n"] += 1
        if fail:
            raise ContractRevert("requested failure")


class ScriptContract(Contract):
    """Starts from the given state; a call runs `edit` on it, then reverts
    if `fail`."""

    deploy_fn = FN_DEPLOY_SWITCH

    def init_state(self, state):
        self.state = state

    def fn_newService(self, ctx, edit, fail):
        edit(self.state)
        if fail:
            raise ContractRevert("requested failure")


@pytest.fixture
def ledger():
    return Ledger()


@pytest.fixture
def funded(ledger):
    account = ledger.register_eoa(bytes([1]) * 20)
    ledger.fund(account.address, 100 * ETHER)
    return account


def deploy_ping(ledger, account):
    return ledger.deploy_contract(account.address, PingContract)


class TestAccounts:
    def test_create_then_fund(self, ledger):
        account = ledger.register_eoa(bytes([5]) * 20)
        ledger.fund(account.address, 100)
        assert ledger.balance(account.address) == 100

    def test_fund_unknown_address(self, ledger):
        with pytest.raises(LedgerError):
            ledger.fund(b"\x00" * 20, 1)


OUTSIDER = bytes([9]) * 20  # an address the ledger does not hold


def _ctx(ledger, funded):
    return TxContext(ledger, funded.address, 0)


def _collide(ledger, funded, contract):
    ledger.register_eoa(ledger.predict_address(funded.address, 1))
    ledger.deploy_contract(funded.address, PingContract)


def _corrupt_then_audit(ledger, funded, contract):
    ledger.accounts[funded.address].balance += 1
    ledger.audit()


class TestGuards:
    """Each guard of the ledger, its schedule and its transaction context
    raises its own error, of its own type."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda lg, a, c: lg.schedule.gas_for("noSuchFunction"),
                LedgerError, "unknown function in gas schedule: noSuchFunction", id="gas_for",
            ),
            pytest.param(
                lambda lg, a, c: _ctx(lg, a).pay_out(a.address, -1), ContractRevert, "negative payout", id="negative_payout"
            ),
            pytest.param(
                lambda lg, a, c: _ctx(lg, a).pay_out(OUTSIDER, 1),
                ContractRevert, "payout to an unknown account", id="unknown_payee",
            ),
            pytest.param(
                lambda lg, a, c: _ctx(lg, a).contract_at(OUTSIDER),
                ContractRevert, "no contract at target address", id="contract_at",
            ),
            pytest.param(
                lambda lg, a, c: c.handle(FN_WITHDRAW, _ctx(lg, a), {}),
                ContractRevert, f"unknown function {FN_WITHDRAW}", id="handle",
            ),
            pytest.param(
                lambda lg, a, c: lg.register_eoa(a.address), LedgerError, "address already registered", id="register_eoa"
            ),
            pytest.param(lambda lg, a, c: lg.fund(a.address, -1), LedgerError, "cannot fund a negative amount", id="fund"),
            pytest.param(lambda lg, a, c: lg.balance(OUTSIDER), LedgerError, "unknown address", id="balance"),
            pytest.param(
                lambda lg, a, c: lg.deploy_contract(c.address, PingContract),
                LedgerError, "creator must be an existing EOA", id="deploy_from_contract",
            ),
            pytest.param(_collide, LedgerError, "contract address collision", id="address_collision"),
            pytest.param(
                lambda lg, a, c: lg.submit_tx(c.address, c.address, FN_NEW_SERVICE),
                LedgerError, "caller must be an existing EOA", id="call_from_contract",
            ),
            pytest.param(lambda lg, a, c: lg.hook_burn(c.address, -1), LedgerError, "invalid hook burn", id="hook_burn"),
            pytest.param(_corrupt_then_audit, LedgerError, "conservation violated: balances=", id="audit"),
        ],
    )
    def test_guard_raises(self, ledger, funded, call, error, message):
        contract = deploy_ping(ledger, funded)
        with pytest.raises(error, match=re.escape(message)) as info:
            call(ledger, funded, contract)
        assert type(info.value) is error

    def test_payout_to_unknown_account_reverts_the_call(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        balances = {addr: account.balance for addr, account in ledger.accounts.items()}
        receipt = ledger.submit_tx(
            funded.address, contract.address, FN_NEW_SERVICE, {"send_back": 1, "to": OUTSIDER}, value=5
        )
        assert (receipt.success, receipt.error) == (False, "payout to an unknown account")
        assert contract.state["count"] == 0 and OUTSIDER not in ledger.accounts
        balances[funded.address] -= receipt.gas_used * ledger.schedule.wei_per_gas
        assert {addr: account.balance for addr, account in ledger.accounts.items()} == balances
        ledger.audit()


class TestDeployment:
    def test_predicted_address_matches(self, ledger, funded):
        predicted = ledger.predict_address(funded.address, 0)
        contract = deploy_ping(ledger, funded)
        assert contract.address == predicted
        # second deploy bumps the nonce
        assert ledger.deploy_contract(funded.address, PingContract).address == ledger.predict_address(
            funded.address, 1
        )

    def test_switch_deploy_gas(self, ledger, funded):
        deploy_ping(ledger, funded)
        assert ledger.receipts[-1].gas_used == 616_666

    def test_supplementary_gas_constant(self):
        assert GasSchedule.default().gas_for(FN_DEPLOY_SUPPLEMENTARY) == 2_425_356

    def test_deploy_needs_balance(self, ledger):
        poor = ledger.register_eoa(bytes([2]) * 20)
        with pytest.raises(LedgerError):
            deploy_ping(ledger, poor)


class TestTransactions:
    def test_new_service_gas(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        receipt = ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE)
        assert receipt.gas_used == 83_121
        assert receipt.success

    def test_recipient_receipt_usd(self):
        schedule = GasSchedule.default()
        exact = schedule.usd_exact(schedule.gas_for(FN_RECIPIENT_RECEIPT))
        assert fmt_usd(exact) == "0.16"
        assert schedule.usd_quoted(FN_RECIPIENT_RECEIPT) == Fraction("0.16")

    def test_unfunded_caller_rejected(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        poor = ledger.register_eoa(bytes([3]) * 20)
        before = contract.state["count"]
        with pytest.raises(LedgerError):
            ledger.submit_tx(poor.address, contract.address, FN_NEW_SERVICE)
        assert contract.state["count"] == before
        assert not any(r.caller == poor.address for r in ledger.receipts)

    def test_revert_charges_gas_and_rolls_back(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        sink_before = ledger.gas_sink
        receipt = ledger.submit_tx(
            funded.address, contract.address, FN_NEW_SERVICE, {"fail": True}, value=5
        )
        assert not receipt.success
        assert receipt.error == "requested failure"
        assert contract.state["count"] == 0
        assert ledger.gas_sink > sink_before
        assert ledger.balance(contract.address) == 0
        ledger.audit()

    def test_unknown_target(self, ledger, funded):
        with pytest.raises(LedgerError):
            ledger.submit_tx(funded.address, b"\x01" * 20, FN_NEW_SERVICE)

    def test_unit_priced_call(self, ledger, funded):
        schedule = ledger.schedule
        contract = deploy_ping(ledger, funded)
        receipt = ledger.submit_tx(
            funded.address, contract.address, FN_NEW_SERVICE, {"items": [1, 2, 3]}
        )
        assert receipt.units == 3
        assert receipt.gas_used == schedule.gas_for(FN_NEW_SERVICE, 3)

    def test_value_escrow_and_payout(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, value=10)
        assert ledger.balance(contract.address) == 10
        ledger.submit_tx(
            funded.address, contract.address, FN_NEW_SERVICE, {"send_back": 10}
        )
        assert ledger.balance(contract.address) == 0
        ledger.audit()


class TestRollback:
    def test_revert_restores_nested_writes(self, ledger, funded):
        contract = ledger.deploy_contract(funded.address, NestedContract)
        before = contract.state_dump()
        receipt = ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE)
        assert receipt.error == "after nested writes"
        assert contract.state_dump() == before

    def test_revert_restores_writes_through_contract_at(self, ledger, funded):
        caller = ledger.deploy_contract(funded.address, NestedContract)
        other = ledger.deploy_contract(funded.address, NestedContract)
        before = (caller.state_dump(), other.state_dump())
        receipt = ledger.submit_tx(funded.address, caller.address, FN_NEW_SERVICE, {"into": other.address})
        assert not receipt.success
        assert (caller.state_dump(), other.state_dump()) == before

    def test_overdraw_restores_state_and_value(self, ledger, funded):
        contract = ledger.deploy_contract(funded.address, NestedContract)
        before = contract.state_dump()
        receipt = ledger.submit_tx(
            funded.address, contract.address, FN_NEW_SERVICE, {"pay": 6, "fail": False}, value=5
        )
        assert receipt.error == "contract overdraw"
        assert contract.state_dump() == before
        assert ledger.balance(contract.address) == 0
        ledger.audit()

    def test_revert_restores_in_place(self, ledger, funded):
        contract = ledger.deploy_contract(funded.address, NestedContract)
        live = contract.state  # the object the reverted handler wrote into
        tags = live["book"]["alice"]["tags"]
        before = copy.deepcopy(live)
        ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE)
        assert contract.state is live
        assert live["book"]["alice"]["tags"] is tags
        assert repr(live) == repr(before)

    @pytest.mark.parametrize("in_tx", [True, False], ids=["in_tx", "outside_tx"])
    @pytest.mark.parametrize("how", ["setitem", "update", "setdefault", "append", "insert", "slice", "index"])
    def test_stored_dict_or_list_is_journaled_at_once(self, ledger, funded, how, in_tx):
        contract = ledger.deploy_contract(funded.address, ScriptContract, state={"d": {}, "l": []})
        value = {"inner": [{"x": 1}]}
        stored = []

        def edit(state):
            if how == "setitem":
                state["d"]["k"] = value
            elif how == "update":
                state["d"].update(k=value)
            elif how == "setdefault":
                state["d"].setdefault("k", value)
            elif how == "append":
                state["l"].append(value)
            elif how == "insert":
                state["l"].insert(0, value)
            elif how == "slice":
                state["l"][0:0] = [value]
            else:
                state["l"].append(None)
                state["l"][0] = value
            stored.append(state["d"]["k"] if state["d"] else state["l"][0])  # as stored, before any commit

        if in_tx:
            assert ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, {"edit": edit, "fail": False}).success
        else:
            edit(contract.state)
        (kept,) = stored
        assert kept == value and kept is not value and kept["inner"] is not value["inner"]
        assert all(type(c) in (JournaledDict, JournaledList) for c in containers(kept))
        assert any(c is kept for c in containers(contract.state))
        value["inner"].append("after")  # the caller's object is not the state's
        assert kept == {"inner": [{"x": 1}]}

    def test_revert_restores_record_inserted_by_earlier_commit(self, ledger, funded):
        contract = ledger.deploy_contract(funded.address, RecordContract)
        assert ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, {"key": "a"}).success
        assert contract.state["records"] == {"a": {"tags": ["t0"], "n": 1}}
        receipt = ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, {"key": "a", "fail": True})
        assert not receipt.success
        assert contract.state["records"] == {"a": {"tags": ["t0"], "n": 1}}

    @pytest.mark.parametrize("insert", ["setitem", "update", "setdefault"])
    def test_revert_restores_nested_dict_inserted_into_large_dict(self, ledger, funded, insert):
        pool = {f"m{i}": {"n": i, "tags": [i]} for i in range(1000)}
        contract = ledger.deploy_contract(funded.address, ScriptContract, state={"pool": pool})

        def add(state):
            record = {"inner": {"tags": []}}
            if insert == "setitem":
                state["pool"]["new"] = record
            elif insert == "update":
                state["pool"].update(new=record)
            else:
                state["pool"].setdefault("new", record)
            state["pool"]["new"]["inner"]["tags"].append("a")  # a write the commit keeps

        def write_into(state):
            state["pool"]["new"]["inner"]["tags"].append("b")
            state["pool"]["new"]["inner"]["k"] = 1

        assert ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, {"edit": add, "fail": False}).success
        assert all(type(c) in (JournaledDict, JournaledList) for c in containers(contract.state))
        receipt = ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE, {"edit": write_into, "fail": True})
        assert not receipt.success
        assert contract.state["pool"]["new"] == {"inner": {"tags": ["a"]}}
        assert len(contract.state["pool"]) == 1001


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=40,
)


def containers(value):
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in containers(v)]
    if isinstance(value, list):
        return [value] + [c for v in value for c in containers(v)]
    return []


def draw_edit(data, state):
    """Draw one mutator call on a container reachable from `state`: the path
    to it, the mutator and its arguments."""
    path, target = [], state
    while True:
        items = target.items() if isinstance(target, dict) else enumerate(target)
        children = [k for k, v in items if isinstance(v, (dict, list))]
        pick = data.draw(st.integers(0, len(children)))
        if not pick:
            break
        path.append(children[pick - 1])
        target = target[children[pick - 1]]
    size = len(target)
    if isinstance(target, dict):
        keys = st.sampled_from(sorted(target)) | st.text(max_size=3) if target else st.text(max_size=3)
        mapping = st.dictionaries(keys, json_like, max_size=3)
        choices = [
            ("__setitem__", st.tuples(keys, json_like)),
            ("setdefault", st.tuples(keys, json_like)),
            ("pop", st.tuples(keys, st.none())),
            ("update", st.tuples(mapping)),
            ("__ior__", st.tuples(mapping)),
            ("clear", st.just(())),
        ]
        if target:
            choices += [("__delitem__", st.tuples(st.sampled_from(sorted(target)))), ("popitem", st.just(()))]
    else:
        index = st.integers(-size, size - 1)
        bound = st.integers(0, size)
        values = st.lists(json_like, max_size=3)
        choices = [
            ("append", st.tuples(json_like)),
            ("extend", st.tuples(values)),
            ("__iadd__", st.tuples(values)),
            ("__imul__", st.tuples(st.integers(0, 1))),  # a larger factor aliases containers
            ("insert", st.tuples(st.integers(-size - 1, size + 1), json_like)),
            ("__setitem__", st.tuples(st.builds(slice, bound, bound), values)),
            ("__delitem__", st.tuples(st.builds(slice, bound, bound))),
            ("clear", st.just(())),
            ("reverse", st.just(())),
            ("sort", st.just(())),
        ]
        if target:
            choices += [
                ("__setitem__", st.tuples(index, json_like)),
                ("__delitem__", st.tuples(index)),
                ("pop", st.tuples(index)),
                ("remove", st.tuples(st.sampled_from(list(target)))),
            ]
    name, args = data.draw(st.sampled_from(choices).flatmap(lambda c: st.tuples(st.just(c[0]), c[1])))
    return path, name, args


def apply_edit(state, edit):
    path, name, args = edit
    target = state
    for key in path:
        target = target[key]
    args = copy.deepcopy(args)  # the live and the mirror state each get their own values
    if name == "sort":
        target.sort(key=repr)  # state may mix types that do not compare
    elif name.startswith("__i"):
        getattr(operator, name.strip("_"))(target, *args)
    else:
        getattr(target, name)(*args)


@given(
    initial=st.dictionaries(st.text(max_size=8), json_like, max_size=5),
    outcomes=st.lists(st.tuples(st.booleans(), st.integers(0, 6)), min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_journal_matches_deepcopy(initial, outcomes, data):
    """Random transactions of random mutator calls, each committed or
    reverted: a revert leaves the state as a deepcopy taken before it, a
    commit as the same calls applied to a plain copy, and every container
    in the state is journaled after each call. repr tells True from 1,
    which == does not."""
    ledger = Ledger()
    account = ledger.register_eoa(bytes([1]) * 20)
    ledger.fund(account.address, 100 * ETHER)
    contract = ledger.deploy_contract(account.address, ScriptContract, state=copy.deepcopy(initial))
    mirror = copy.deepcopy(initial)
    for fail, count in outcomes:
        before = copy.deepcopy(contract.state)
        edits = []

        def edit(state):
            for _ in range(count):
                edits.append(draw_edit(data, state))
                apply_edit(state, edits[-1])
                assert all(type(c) in (JournaledDict, JournaledList) for c in containers(state))

        receipt = ledger.submit_tx(account.address, contract.address, FN_NEW_SERVICE, {"edit": edit, "fail": fail})
        assert receipt.success is not fail
        if fail:
            assert repr(contract.state) == repr(before)
        else:
            for each in edits:
                apply_edit(mirror, each)
            assert repr(contract.state) == repr(mirror)
        assert all(type(c) in (JournaledDict, JournaledList) for c in containers(contract.state))


class TestClock:
    def test_advance_to_same_time_is_noop(self, ledger):
        ledger.advance_time(0)
        assert ledger.tick == 0

    def test_epoch_boundary_hooks_fire(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        ledger.advance_time(3)
        assert contract.state["ticks"] == [1, 2, 3]

    def test_regression_rejected(self, ledger):
        ledger.advance_time(5)
        with pytest.raises(LedgerError):
            ledger.advance_time(4)


class TestMoney:
    def test_usd_cost_is_exact_rational(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        receipt = ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE)
        expected = Fraction(83_121) * Fraction(167, 10**10) * 175
        assert receipt.usd_cost == expected

    def test_round_half_up(self):
        assert round_usd_cents(Fraction("2.204")) == Fraction("2.20")
        assert round_usd_cents(Fraction("2.205")) == Fraction("2.21")
        assert fmt_usd(Fraction("9.305")) == "9.31"

    def test_fmt_usd_matches_fraction_rounding(self):
        def reference(amount):
            cents = round_usd_cents(amount) * 100
            return f"{int(cents) // 100}.{int(cents) % 100:02d}"

        amounts = [Fraction(k, den) for den in (1, 3, 7, 100, 200, 1000, 10**10) for k in range(-1500, 1501, 7)]
        amounts += [Fraction(2 * k + 1, 200) for k in range(-300, 300)]  # exact half cents
        amounts += [sign * (10**6 + Fraction(k, 200)) for sign in (1, -1) for k in range(0, 400, 3)]
        amounts += [Fraction(0), Fraction(10**12, 3), Fraction(83_121) * Fraction(167, 10**10) * 175]
        for amount in amounts:
            assert fmt_usd(amount) == reference(amount), amount

    def test_schedule_file_reads_whole_gas(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps({"gas": {"withdraw": 2.0, FN_NEW_SERVICE: 7}}))
        schedule = GasSchedule.from_file(str(path))
        assert schedule.gas["withdraw"] == 2 and schedule.gas[FN_NEW_SERVICE] == 7

    @pytest.mark.parametrize(
        "override",
        [
            {"gas_to_ether": Fraction(-167, 10**10)},
            {"gas_to_ether": Fraction(0)},
            {"ether_to_usd": Fraction(-175)},
            {"ether_to_usd": Fraction(0)},
            {"usd_display": {FN_NEW_SERVICE: Fraction(-1)}},
        ],
        ids=["negative gas price", "zero gas price", "negative ether price", "zero ether price", "negative published price"],
    )
    def test_schedule_rejects_non_positive_rates_and_negative_prices(self, override):
        fields = {"gas": {FN_NEW_SERVICE: 83_121}, **override}
        with pytest.raises(LedgerError):
            GasSchedule(**fields)

    def test_rates_are_read_only(self):
        schedule = GasSchedule.default()
        for name in ("gas_to_ether", "ether_to_usd", "wei_per_gas"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(schedule, name, getattr(schedule, name) * 2)
        assert schedule.wei_per_gas == 16_700_000_000
        assert schedule.usd_exact(10**10) == 10**10 * Fraction(167, 10**10) * 175

    def test_published_prices_match_table(self):
        schedule = GasSchedule.default()
        assert schedule.usd_quoted(FN_DEPLOY_SWITCH) == Fraction("1.81")
        assert schedule.usd_quoted(FN_DEPLOY_SUPPLEMENTARY) == Fraction("7.10")

    def test_default_schedule_is_a_private_copy(self):
        mine = GasSchedule.default()
        mine.gas[FN_DEPLOY_SWITCH] = 1
        mine.gas_per_unit[FN_DEPLOY_SWITCH] = 1
        mine.usd_display[FN_DEPLOY_SWITCH] = Fraction(99)
        fresh = GasSchedule.default()
        assert fresh.gas_for(FN_DEPLOY_SWITCH) == 616_666
        assert fresh.usd_quoted(FN_DEPLOY_SWITCH) == Fraction("1.81")
        assert fresh != mine

    def test_conservation_across_random_activity(self, ledger, funded):
        rng = Random(17)
        contract = deploy_ping(ledger, funded)
        for _ in range(50):
            action = rng.randrange(3)
            if action == 0:
                ledger.submit_tx(
                    funded.address, contract.address, FN_NEW_SERVICE, value=rng.randrange(100)
                )
            elif action == 1:
                ledger.submit_tx(
                    funded.address,
                    contract.address,
                    FN_NEW_SERVICE,
                    {"fail": rng.random() < 0.5},
                )
            else:
                ledger.advance_time(ledger.tick + 1)
            ledger.audit()


class TestDeterminism:
    def test_state_digest_stable(self):
        def run():
            ledger = Ledger()
            account = ledger.register_eoa(bytes([4]) * 20)
            ledger.fund(account.address, ETHER)
            contract = ledger.deploy_contract(account.address, PingContract)
            ledger.submit_tx(account.address, contract.address, FN_NEW_SERVICE)
            ledger.advance_time(3)
            return ledger.state_digest(ledger.onchain_state())

        assert run() == run()

    def test_caller_exclusion_changes_digest_scope(self, ledger, funded):
        contract = deploy_ping(ledger, funded)
        ledger.submit_tx(funded.address, contract.address, FN_NEW_SERVICE)
        full = ledger.onchain_state()
        redacted = public_record(full["receipts"][-1])
        assert "caller" in full["receipts"][-1]
        assert "caller" not in redacted
        assert redacted == {k: v for k, v in full["receipts"][-1].items() if k != "caller"}


class TestEndOfRun:
    """A run builds, dumps and hashes its end state once each."""

    @pytest.mark.parametrize("mode", ["silent", "strawman"])
    def test_one_digest_dump_and_record_each(self, monkeypatch, mode):
        digested = []

        def counting_digest(value):
            digested.append(value)
            return json_digest(value)

        monkeypatch.setattr(ledger_module, "json_digest", counting_digest)
        monkeypatch.setattr(scenario_module, "json_digest", counting_digest)
        dumped = []
        state_dump = Contract.state_dump

        def counting_dump(contract):
            dumped.append(contract.address)
            return state_dump(contract)

        monkeypatch.setattr(Contract, "state_dump", counting_dump)
        built = []
        build = TxReceipt.record.func

        def counting_record(receipt):
            built.append(receipt.seq)
            return build(receipt)

        record = functools.cached_property(counting_record)
        record.__set_name__(TxReceipt, "record")
        monkeypatch.setattr(TxReceipt, "record", record)

        config = ScenarioConfig(seed=2, pool_size=6, n=4, l=2, t=2, mode=mode, fault_policies={0: "premature"})
        runner = ScenarioRunner(config)
        trace = runner.run()
        trace.trace_hash()
        contracts = runner.ledger.contracts
        # the final state, hashed from the live contract states, then the trace
        assert len(digested) == 2
        final, whole = digested
        assert final["receipts"] is trace.receipts
        assert len(final["contracts"]) == len(contracts)
        assert all(final["contracts"][addr.hex()] is c.state for addr, c in contracts.items())
        assert whole["digest"] == trace.final_digest
        # the pre-settlement snapshot is the one dump of each contract
        assert sorted(dumped) == sorted(contracts)
        # one record per receipt, which the trace holds; the snapshot holds
        # the earlier ones without their caller
        receipts = runner.ledger.receipts
        assert built == list(range(len(receipts)))
        assert all(rec is r.record for rec, r in zip(trace.receipts, receipts))
        snapshot = trace.pre_settlement_state["receipts"]
        assert 0 < len(snapshot) < len(receipts)
        assert snapshot == [{k: v for k, v in rec.items() if k != "caller"} for rec in trace.receipts[: len(snapshot)]]
        # the pre-settlement digest is computed on first read, once
        pre_digest = trace.pre_settlement_digest
        assert trace.pre_settlement_digest is pre_digest
        assert len(digested) == 3 and digested[2] is trace.pre_settlement_state
        assert pre_digest == hash256(json.dumps(trace.pre_settlement_state, sort_keys=True).encode()).hex()
        # and the live state hashes as a dumped snapshot of it would
        assert trace.final_digest == json_digest(runner.ledger.onchain_state()).hex()

    def test_one_string_per_address(self):
        runner = ScenarioRunner(ScenarioConfig(seed=3, pool_size=40, n=4, l=2, t=2))
        trace = runner.run()
        named = [*trace.roles.values(), *trace.balances, *trace.selected_addresses, *runner.agent.state["mailmen"]]
        named += [rec[key] for rec in trace.receipts for key in ("target", "caller")]
        assert len(runner.agent.state["mailmen"]) == 40
        # each address is named by one str object, wherever it appears
        first = {}
        assert all(first.setdefault(name, name) is name for name in named)
        assert sorted(first) == sorted(addr.hex() for addr in runner.ledger.accounts)

    def test_pre_settlement_state_is_built_on_first_read(self, monkeypatch):
        settle = ScenarioRunner._settlement_phase
        eager = []

        def snapshot_first(runner):
            ledger = runner.ledger
            eager.append(
                {
                    "contracts": {addr.hex(): c.state_dump() for addr, c in sorted(ledger.contracts.items())},
                    "receipts": [{k: v for k, v in r.record.items() if k != "caller"} for r in ledger.receipts],
                }
            )
            settle(runner)

        monkeypatch.setattr(ScenarioRunner, "_settlement_phase", snapshot_first)
        trace = run_scenario(ScenarioConfig(seed=2, pool_size=6, n=4, l=2, t=2, fault_policies={0: "premature"}))
        trace.trace_hash()
        assert "pre_settlement_state" not in vars(trace)
        state = trace.pre_settlement_state
        assert "pre_settlement_state" in vars(trace)
        assert state == eager[0]
        assert trace.pre_settlement_state is state
        assert len(state["receipts"]) == trace.pre_settlement_receipts < len(trace.receipts)
        assert trace.pre_settlement_digest == json_digest(eager[0]).hex()

    def test_run_memory_bounded(self):
        # a pool-400 run and its trace hash; the trace held each address as
        # several strings and a second, caller-less copy of every receipt
        # record, and the memo an (x, y) tuple per key beside its pubkey bytes:
        # 2.88 MiB, against about 2.35 held once
        crypto._base_table()  # loaded once per process, outside the window
        tracemalloc.start()
        try:
            ScenarioRunner(ScenarioConfig(seed=5, pool_size=400, n=4, l=2, t=2)).run().trace_hash()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, f"a pool-400 run peaked at {peak / 2**20:.2f} MiB"


# JSON values of every kind json_pieces meets, including non-ASCII text,
# non-finite floats and dicts with int keys, which it encodes whole.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_SMALL = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _sized(draw, entries):
    """A list, str-keyed dict or int-keyed dict of a block's size give or
    take one, or of two blocks and one, cycling through a few drawn entries."""
    size = draw(st.sampled_from((_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)))
    drawn = draw(st.lists(entries, min_size=1, max_size=3))
    values = [drawn[i % len(drawn)] for i in range(size)]
    kind = draw(st.sampled_from(("list", "str", "int")))
    if kind == "list":
        return values
    prefix = draw(st.text(max_size=2))
    return {(f"{prefix}{i}" if kind == "str" else i): v for i, v in enumerate(values)}


@st.composite
def _nested(draw, inner):
    """`inner` under up to _DEPTH + 1 levels of small str-keyed dicts, so
    that some big containers sit below the levels json_pieces looks through."""
    value = draw(inner)
    for _ in range(draw(st.integers(0, _DEPTH + 1))):
        siblings = draw(st.dictionaries(st.text(max_size=3), _SMALL, max_size=2))
        value = {**siblings, draw(st.text(max_size=3)): value}
    return value


_DOCUMENTS = _nested(_SMALL | _sized(_SMALL) | _sized(_sized(_SCALARS)))


def _largest(value) -> int:
    """The most entries any container in `value` holds."""
    if isinstance(value, dict):
        return max([len(value), *map(_largest, value.values())])
    if isinstance(value, list):
        return max([len(value), *map(_largest, value)])
    return 0


class TestJsonPieces:
    @settings(max_examples=40, deadline=None)
    @given(_DOCUMENTS, st.booleans())
    def test_pieces_are_the_dumps_bytes(self, value, journaled):
        if journaled:
            value = _journaled(value)
        expected = json.dumps(value, sort_keys=True).encode()
        pieces = list(json_pieces(value))
        assert b"".join(pieces) == expected
        assert json_digest(value) == hash256(expected)
        # a document with no container over one block is one encode call
        if _largest(value) <= _BLOCK:
            assert len(pieces) == 1

    def test_state_digest_memory_bounded(self):
        # a pool-400 marketplace: 400 registrations and the registry's
        # mailmen, three dicts down; hashed whole the dump took about
        # 1.6 MiB on top of itself
        runner = ScenarioRunner(ScenarioConfig(seed=1, pool_size=400, n=3, l=1, t=1))
        runner.build_marketplace()
        state = runner.ledger.onchain_state()
        expected = json.dumps(state, sort_keys=True).encode()
        assert len(expected) >= 300_000
        tracemalloc.start()
        try:
            digest = runner.ledger.state_digest(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hash256(expected)
        assert peak < 0.5 * 2**20, f"state_digest peaked {peak / 2**20:.2f} MiB above its input"

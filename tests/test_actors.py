"""End-to-end behavior tests: recruitment, the dual-mode epoch driver,
strawman comparison runs, secrecy, and rationality."""

import collections
import contextlib
import copy
import gc
import json
import sys
import weakref
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from tidsim import actors, crypto, scenario
from tidsim.actors import TAG_ACCEPT, TAG_REFUSE, peel_with_keys, tag_of
from tidsim.crypto import (
    AuthenticationError,
    Onion,
    Share,
    Signature,
    _N,
    encode_parts,
    hash256,
    keypair_gen,
    new_secret_key,
    onion_peel,
    onion_wrap,
    sign,
    sym_encrypt,
)
from tidsim.contracts import SwitchContract, agreement_digest_mailman, sup_auth_digest
from tidsim.ledger import EPOCH_GRAPH, SERVICE_FUNCTIONS
from tidsim.scenario import (
    ConfigError,
    MAX_LAST_TICK,
    MODE_SILENT,
    MODE_STRAWMAN,
    ScenarioConfig,
    ScenarioRunner,
    run_scenario,
)

LIGHT_CALLS = {"deploySwitch", "newService", "recipientReceipt"}


def epoch_path_is_valid(sequence):
    if not sequence or sequence[0] != 0 or sequence[-1] != 6:
        return False
    return all(b in EPOCH_GRAPH[a] for a, b in zip(sequence, sequence[1:]))


def small_config(**kw):
    base = dict(seed=1, pool_size=6, l=2, t=2, n=4)
    base.update(kw)
    return ScenarioConfig(**base)


class TestSetupAndSelection:
    def test_selection_distinct_and_deterministic(self):
        cfg = ScenarioConfig(seed=5, pool_size=12, l=3, t=4, n=10)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert len(set(a.selected)) == 10
        assert a.selected == b.selected
        assert a.trace_hash() == b.trace_hash()

    def test_different_seed_different_trace(self):
        a = run_scenario(small_config(seed=1))
        b = run_scenario(small_config(seed=2))
        assert a.trace_hash() != b.trace_hash()

    def test_setup_writes_only_switch_and_service(self):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        before = len(runner.ledger.receipts)
        runner.sender.setup()
        new = [r.function for r in runner.ledger.receipts[before:]]
        assert new == ["deploySwitch", "newService"]

    def test_pool_too_small(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=1, pool_size=3, l=2, t=2, n=4).validate()

    @pytest.mark.parametrize("day, slot", [(0, 24), (0, 30), (-1, 30), (1, -1), (-1, 8)])
    def test_time_frame_outside_the_day_rejected(self, day, slot):
        # 24 slots per day; each of these has timeframe_tick >= 3
        with pytest.raises(ConfigError, match="time frame"):
            ScenarioConfig(day=day, slot=slot).validate()

    @pytest.mark.parametrize("day, slot", [(0, 23), (1, 0), (0, 3)])
    def test_time_frame_at_the_edges_accepted(self, day, slot):
        assert ScenarioConfig(day=day, slot=slot).validate().timeframe_tick == day * 24 + slot

    @pytest.mark.parametrize("day, slot, epoch_ticks", [(41666, 10, 1), (0, 4, 166666)])
    def test_clock_ends_by_the_last_tick(self, day, slot, epoch_ticks):
        # the ledger steps through every tick, so an unbounded clock could run for hours
        at_bound = ScenarioConfig(day=day, slot=slot, epoch_ticks=epoch_ticks).validate()
        assert at_bound.timeframe_tick + 6 * epoch_ticks == MAX_LAST_TICK
        with pytest.raises(ConfigError, match="clock too long"):
            ScenarioConfig(day=day, slot=slot + 1, epoch_ticks=epoch_ticks).validate()

    @pytest.mark.parametrize("mode", [MODE_SILENT, MODE_STRAWMAN])
    def test_minimum_deposit_above_deposit_rejected(self, mode):
        # every registration would revert, and the run would then crash
        cfg = ScenarioConfig(seed=1, pool_size=5, n=4, l=2, t=2, min_deposit_wei=2 * 10**18, mode=mode)
        with pytest.raises(ConfigError, match="min_deposit_wei"):
            cfg.validate()
        with pytest.raises(ConfigError, match="min_deposit_wei"):
            run_scenario(cfg)
        equal = ScenarioConfig(seed=1, pool_size=5, n=4, l=2, t=2, min_deposit_wei=10**18, mode=mode)
        assert run_scenario(equal).status.startswith("delivered")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"l": 0}, "onion depth l=0 must be within 1..n"),
            ({"l": 11}, "onion depth l=11 must be within 1..n"),
            ({"availability": 1.5}, "availability must lie in [0, 1]"),
            ({"availability": -0.1}, "availability must lie in [0, 1]"),
            ({"drop_prob": 1.0}, "drop_prob must lie in [0, 1)"),
            ({"drop_prob": -0.5}, "drop_prob must lie in [0, 1)"),
            ({"epoch_ticks": 0}, "epoch_ticks must be at least 1"),
            ({"slot": 2}, "time frame too early: setup and pending need ticks 0..2"),
            ({"mode": "loud"}, "unknown mode 'loud'"),
            ({"fault_policies": {"12": "absent"}}, "fault policy names unknown mailman 12"),
            ({"fault_policies": {"-1": "absent"}}, "fault policy names unknown mailman -1"),
            ({"fault_policies": {"0": "gremlin"}}, "unknown fault policy 'gremlin'"),
            ({"refusals": [12]}, "refusal names unknown mailman 12"),
            ({"selection_override": [0, 1, 2]}, "selection_override must list n distinct pool indices"),
            ({"selection_override": [0] * 10}, "selection_override must list n distinct pool indices"),
            ({"selection_override": list(range(9)) + [12]}, "selection_override names unknown mailmen"),
            ({"deposit_wei": 0}, "deposit and remuneration must be positive"),
            ({"remuneration_wei": -1}, "deposit and remuneration must be positive"),
            ({"colour": "blue", "seed": 1}, "unknown config keys: ['colour']"),
            ({"fault_policies": {"first": "absent"}}, "fault_policies keys must be pool indices"),
            (
                {"day": 10**9},
                "clock too long: time frame tick 24000000008 + 6 * epoch_ticks 1 exceeds the last tick 1000000",
            ),
        ],
    )
    def test_invalid_config_message(self, raw, message):
        # defaults: pool_size 12, n 10, slot 8
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict(raw)
        assert str(info.value) == message

    def test_json_null_only_for_optional_fields(self):
        nulls = {"min_deposit_wei": None, "selection_override": None}
        assert ScenarioConfig.from_dict(nulls) == ScenarioConfig()
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"n": None})
        assert (type(info.value), str(info.value)) == (ConfigError, "n must be an integer, got null")

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"fault_policies": {str(i): "absent" for i in range(12)}}, "fault policy names unknown mailman '0'"),
            ({"fault_policies": {True: "absent"}}, "fault policy names unknown mailman True"),
            ({"refusals": ("1",)}, "refusal names unknown mailman '1'"),
            ({"selection_override": tuple(map(str, range(10)))}, "selection_override names unknown mailmen"),
        ],
    )
    def test_non_int_pool_index_rejected(self, knobs, message):
        # from_dict turns JSON's string keys into ints; a config built in
        # code is checked as given, since a run looks its mailmen up by int
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**knobs).validate()
        assert str(info.value) == message


class TestRecruitment:
    def test_honest_run_counts(self):
        cfg = ScenarioConfig(seed=3, pool_size=12, l=3, t=4, n=10, withdraw_at_end=False)
        runner = ScenarioRunner(cfg)
        trace = runner.run()
        assert len(runner.sender.agreements) == 10
        assert all(o.layers_remaining == 3 for o in runner.sender.onions)
        assert trace.status == "delivered_light"

    def test_refusal_triggers_reselection(self):
        cfg = small_config(refusals=(0, 1), pool_size=8)
        runner = ScenarioRunner(cfg)
        trace = runner.run()
        assert trace.status == "delivered_light"
        assert not ({0, 1} & set(trace.selected))

    def test_mailman_refuses_forged_authorization(self):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        runner.sender.setup()
        mailman = runner.pool[0]
        forged = sign(mailman.keypair.privkey, hash256(b"not the right digest"))
        reply = mailman.handle_invite(
            runner.sender.address,
            [
                (1).to_bytes(8, "big"),
                runner.sender.switch.address,
                runner.sender.sup_code,
                forged.to_bytes(),
            ],
        )
        assert tag_of(reply) == TAG_REFUSE

    def test_mailman_refuses_wrong_sup_code(self):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        runner.sender.setup()
        mailman = runner.pool[0]
        wrong_code = b"some-other-contract-code"
        vrs = sign(
            runner.sender.keypair.privkey,
            sup_auth_digest(runner.sender.switch.address, wrong_code),
        )
        reply = mailman.handle_invite(
            runner.sender.address,
            [
                (1).to_bytes(8, "big"),
                runner.sender.switch.address,
                wrong_code,
                vrs.to_bytes(),
            ],
        )
        assert tag_of(reply) == TAG_REFUSE

    @pytest.mark.parametrize("case", ["not_a_switch", "other_sender", "no_service", "index_zero", "index_past_n"])
    def test_mailman_refuses_an_invite_that_does_not_check_out(self, case):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        sender = runner.sender
        sender.setup()
        mailman = runner.pool[0]
        inviter, switch_addr, index = sender.address, sender.switch.address, 1
        if case == "not_a_switch":
            switch_addr = runner.agent.address
        elif case == "other_sender":
            inviter = runner.pool[1].address
        elif case == "no_service":
            switch_addr = runner.ledger.deploy_contract(
                sender.address,
                SwitchContract,
                agent_addr=runner.agent.address,
                sender=sender.address,
                sup_code=sender.sup_code,
            ).address
        else:
            index = 0 if case == "index_zero" else runner.config.n + 1
        vrs = sign(sender.keypair.privkey, sup_auth_digest(switch_addr, sender.sup_code))
        body = [index.to_bytes(8, "big"), switch_addr, sender.sup_code, vrs.to_bytes()]
        assert mailman.handle_invite(inviter, body) == TAG_REFUSE + encode_parts(index)
        assert mailman.index is None

    def test_sender_refuses_an_acceptance_signed_by_another_key(self, monkeypatch):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        sender = runner.sender
        sender.setup()
        mailman, other = runner.pool[0], runner.pool[1]
        vrs_m = sign(other.keypair.privkey, agreement_digest_mailman(sender.switch.address, 1))
        monkeypatch.setattr(mailman, "handle_invite", lambda *args: TAG_ACCEPT + encode_parts(1, vrs_m))
        vrs_sup = sign(sender.keypair.privkey, sup_auth_digest(sender.switch.address, sender.sup_code))
        assert sender._handshake(mailman, 1, vrs_sup) is False
        assert sender.agreements == {}

    def test_bundle_blob_under_another_key_is_skipped(self):
        rng = Random(3)
        key, other = new_secret_key(rng), new_secret_key(rng)
        vrs_s, vrs_m = (sign(keypair_gen(rng).privkey, hash256(b"%d" % i)) for i in range(2))
        bundle = tuple(sym_encrypt(k, encode_parts(i, vrs_s, vrs_m), rng) for i, k in ((1, other), (2, key)))
        assert actors._agreements_in(key, bundle) == {2: (vrs_s, vrs_m)}

    def test_bundle_with_short_signature_refused(self):
        runner = ScenarioRunner(small_config())
        runner.build_marketplace()
        runner.sender.setup()
        mailman = runner.pool[0]
        bundle_blob, onions_blob = encode_parts(b"bundle"), encode_parts()
        vrs_sm = sign(runner.sender.keypair.privkey, hash256(encode_parts(bundle_blob, onions_blob)))
        body = [bundle_blob, onions_blob, vrs_sm.to_bytes()]
        assert not mailman.accept_bundle(runner.sender.address, body[:2] + [body[2][:64]])
        assert mailman.bundle == ()
        assert mailman.accept_bundle(runner.sender.address, body)

    def test_tampered_package_resent_and_accepted(self):
        cfg = small_config(tamper_package=True)
        trace = run_scenario(cfg)
        assert trace.status == "delivered_light"
        assert trace.info_delivered
        clean = run_scenario(small_config(tamper_package=False))
        to_recipient = lambda t: [
            m for m in t.messages if m["to"] == t.roles["recipient"] and m["from"] == t.roles["sender"]
        ]
        # tampering costs one resend round trip
        assert len(to_recipient(trace)) == len(to_recipient(clean)) + 1


class TestSignatureRecovery:
    def test_only_the_tampered_package_reaches_recovery(self, monkeypatch):
        # every party signs in the run's scope, so its signatures are
        # answered from the memo sign() fills; only the flipped package is
        # foreign
        real = crypto._recover_address
        kernel = []

        def counted(digest, sig):
            kernel.append((digest, sig))
            return real(digest, sig)

        monkeypatch.setattr(crypto, "_recover_address", counted)
        for tamper, recoveries in ((False, 0), (True, 1)):
            kernel.clear()
            runner = ScenarioRunner(ScenarioConfig(tamper_package=tamper))
            trace = runner.run()
            assert trace.status == "delivered_light"
            assert len(kernel) == recoveries
            assert all(real(d, s) != runner.sender.address for d, s in kernel)


@pytest.fixture
def mul_add_calls(monkeypatch):
    """Every point that reaches the variable-base multiplication, a * G + b * P."""
    calls = []
    real = crypto._mul_add

    def counted(a, b, point):
        calls.append(point)
        return real(a, b, point)

    monkeypatch.setattr(crypto, "_mul_add", counted)
    return calls


class TestSharedSecrets:
    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(n=16, l=3, t=4, pool_size=20),
            ScenarioConfig(n=50, l=3, t=25, pool_size=54),
        ],
    )
    def test_in_process_runs_make_no_variable_base_multiplication(self, mul_add_calls, cfg):
        # every point a run multiplies was drawn in its scope, so each ECDH
        # is one fixed-base multiplication by the product of two scalars
        assert run_scenario(cfg).status == "delivered_light"
        assert mul_add_calls == []

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(n=16, l=3, t=4, pool_size=20),
            ScenarioConfig(n=50, l=3, t=25, pool_size=54),
            ScenarioConfig(n=50, l=6, t=25, pool_size=54),
            ScenarioConfig(seed=3, n=30, l=3, t=10, pool_size=34, drop_prob=0.2, availability=0.9),
        ],
    )
    def test_each_layer_is_decrypted_once(self, monkeypatch, decrypt_calls, cfg):
        # the wrapping recorded each layer's recipient, so each trial peel
        # tries only the layer's opener and no trial decryption misses
        peels = []

        def recording(onions, privkeys):
            before = len(decrypt_calls)
            shares = peel_with_keys(onions, privkeys)
            peels.append((len(onions), set(privkeys), decrypt_calls[before:]))
            return shares

        monkeypatch.setattr(actors, "peel_with_keys", recording)
        monkeypatch.setattr(scenario, "peel_with_keys", recording)
        runner = ScenarioRunner(cfg)
        assert runner.run().status == "delivered_light"
        assert peels
        reached = set()
        for count, keys, calls in peels:
            # the layers this peel held the keys for, from each onion's
            # outermost layer in (onions arrive in broadcast order, onion k
            # carrying share k + 1)
            openable = set()
            for share in range(1, count + 1):
                for depth, holder in enumerate(reversed(runner.sender.layer_holders(share))):
                    if holder.timeframe_keys[cfg.timeframe_tick].privkey not in keys:
                        break
                    openable.add((share, depth))
            assert len(calls) == len(openable)
            assert all(ok for _, _, ok in calls)
            assert len({blob for _, blob, _ in calls}) == len(openable)
            reached |= openable
        # all n * l layers unless the availability coin kept a courier silent
        assert (len(reached) == cfg.n * cfg.l) == (cfg.availability == 1)

    def test_signing_multiplies_only_for_its_nonce(self, monkeypatch):
        # key generation recorded every signer's key pair, so no signature
        # multiplies for its signer's address: each takes one k*G, for its
        # nonce
        real_sign, real_base = crypto.sign, crypto._base_mul
        multiplied = []
        nonces = []
        addresses = []

        def counted_sign(privkey, digest):
            before = len(nonces)
            sig = real_sign(privkey, digest)
            multiplied.append(len(nonces) - before)
            return sig

        def counted_base(k):
            # called straight from sign, for its nonce; from deeper in sign, for its signer's address
            frame = sys._getframe(1)
            if frame.f_code is real_sign.__code__:
                nonces.append(k)
            else:
                while frame is not None and frame.f_code is not real_sign.__code__:
                    frame = frame.f_back
                if frame is not None:
                    addresses.append(k)
            return real_base(k)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("tidsim") and getattr(module, "sign", None) is real_sign:
                monkeypatch.setattr(module, "sign", counted_sign)
        monkeypatch.setattr(crypto, "_base_mul", counted_base)
        cfg = ScenarioConfig()
        assert run_scenario(cfg).status == "delivered_light"
        # signed in order: vrs_sup, n acceptances, n countersignatures, vrs_sm, vrs_st
        assert multiplied == [1] * (2 * cfg.n + 3)
        assert len(nonces) == 2 * cfg.n + 3
        assert addresses == []

    # Listed in the CI step that runs the golden traces under two hash seeds.
    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(n=16, l=3, t=4, pool_size=20),
            ScenarioConfig(fault_policies={i: "withhold_light" for i in range(12)}),
            ScenarioConfig(mode=MODE_STRAWMAN),
            ScenarioConfig(tamper_package=True),
        ],
        ids=["default", "n16_light", "withhold_heavy", "strawman", "tamper"],
    )
    def test_same_trace_without_the_memo(self, monkeypatch, mul_add_calls, cfg):
        with_memo = run_scenario(cfg).trace_hash()
        mul_add_calls.clear()
        # outside a scope crypto's memo records nothing, so the wrap
        # multiplies each layer's ephemeral key on its own
        monkeypatch.setattr(scenario, "scope", contextlib.nullcontext)
        assert run_scenario(cfg).trace_hash() == with_memo
        # the strawman sends each courier a bare share, so it makes no ECDH at all
        assert bool(mul_add_calls) == (cfg.mode != MODE_STRAWMAN)


class TestSharedBundle:
    """Every selected courier receives the same bundle and onions, and the
    recipient the same onions, so a run decodes them once (ROADMAP item 14)."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(n=16, l=3, t=4, pool_size=20),
            ScenarioConfig(fault_policies={0: "withhold_light"}),
        ],
        ids=["default", "n16", "withhold_light"],
    )
    def test_settlement_opens_each_agreement_once(self, monkeypatch, cfg):
        opened = collections.Counter()
        real = actors.sym_decrypt

        def counted(key, blob):
            opened[key, blob] += 1
            return real(key, blob)

        monkeypatch.setattr(actors, "sym_decrypt", counted)
        runner = ScenarioRunner(cfg)
        assert runner.run().status == "delivered_light"
        bundle = set(runner.sender.selected[0].bundle)
        settled = [count for (_, blob), count in opened.items() if blob in bundle]
        # every courier proved its agreement, from one opening per blob
        assert len(bundle) == cfg.n
        assert settled == [1] * cfg.n

    @pytest.mark.parametrize("cfg", [ScenarioConfig(), ScenarioConfig(n=16, l=3, t=4, pool_size=20)], ids=["default", "n16"])
    def test_settlement_looks_each_agreement_up_once(self, monkeypatch, cfg):
        lookups = collections.Counter()

        class CountedResults(dict):
            def get(self, fn, default=None):
                lookups[fn.__name__] += 1
                return dict.get(self, fn, default)

        real_scope = scenario.scope

        @contextlib.contextmanager
        def counted():
            with real_scope() as memo:
                memo.results = CountedResults()
                yield memo

        monkeypatch.setattr(scenario, "scope", counted)
        runner = ScenarioRunner(cfg)
        assert runner.run().status == "delivered_light"
        couriers = runner.sender.selected
        # each courier looks its agreement up in the run's one index of the
        # shared bundle, and no memo is read more than once per party
        assert lookups["_agreements_in"] == cfg.n
        assert max(lookups.values()) <= cfg.n + 1
        assert all(m.bundle is couriers[0].bundle for m in couriers)

    def test_each_onion_is_decoded_once_per_run(self, monkeypatch):
        decoded = collections.Counter()
        real = Onion.from_wire.__func__

        def counted(cls, raw):
            decoded[raw] += 1
            return real(cls, raw)

        monkeypatch.setattr(Onion, "from_wire", classmethod(counted))
        cfg = ScenarioConfig(n=16, l=3, t=4, pool_size=20, tamper_package=True)
        runner = ScenarioRunner(cfg)
        assert runner.run().status == "delivered_light"
        assert list(decoded.values()) == [1] * cfg.n
        # every courier holding onions and the recipient hold the one decoded tuple
        assert list(runner.recipient.onions) == runner.sender.onions
        assert all(m.onions is runner.recipient.onions for m in runner.sender.selected if m.onions)

    def test_recruitment_hashes_the_bundle_once_and_every_courier_checks_it(self, monkeypatch):
        hashed = collections.Counter()
        checked = collections.Counter()
        real_hash, real_signed_by = actors.hash256, actors.signed_by

        def counted_hash(data):
            hashed[data] += 1
            return real_hash(data)

        def counted_signed_by(digest, sig_bytes, address):
            checked[digest] += 1
            return real_signed_by(digest, sig_bytes, address)

        monkeypatch.setattr(actors, "hash256", counted_hash)
        monkeypatch.setattr(actors, "signed_by", counted_signed_by)
        cfg = ScenarioConfig(n=16, l=3, t=4, pool_size=20)
        runner = ScenarioRunner(cfg)
        assert runner.run().status == "delivered_light"
        courier = runner.sender.selected[0]
        signed = encode_parts(encode_parts(*courier.bundle), encode_parts(*[o.wire_bytes() for o in courier.onions]))
        # once in the run: the sender signs the digest every courier checks
        assert hashed[signed] == 1
        assert checked[real_hash(signed)] == cfg.n

    def test_a_finished_run_frees_what_it_decoded(self, monkeypatch):
        held = []
        memos = []
        real_scope = scenario.scope

        @contextlib.contextmanager
        def watched():
            with real_scope() as memo:
                yield memo
                memos.append(weakref.ref(memo))
                for results in memo.results.values():
                    for result in results.values():
                        if isinstance(result, dict):  # a bundle's agreements, by index
                            result = tuple(sig for pair in result.values() for sig in pair)
                        parts = result if isinstance(result, tuple) else (result,)
                        held.extend(weakref.ref(part) for part in parts if isinstance(part, (Onion, Signature)))

        monkeypatch.setattr(scenario, "scope", watched)
        cfg = ScenarioConfig()
        assert run_scenario(cfg).status == "delivered_light"
        gc.collect()
        # the run's memo, n onions and 2n agreement signatures, none of which outlives it
        assert len(memos) == 1 and len(held) == 3 * cfg.n
        assert all(ref() is None for ref in memos + held)


class TestLightweightDelivery:
    def test_all_honest_service_calls(self):
        cfg = ScenarioConfig(seed=4, pool_size=12, l=3, t=4, n=10, withdraw_at_end=False)
        trace = run_scenario(cfg)
        assert trace.status == "delivered_light"
        service_calls = {r["function"] for r in trace.receipts if r["function"] in SERVICE_FUNCTIONS}
        assert service_calls == LIGHT_CALLS
        assert trace.service_gas == 754_078
        assert trace.epoch_sequence == [0, 1, 6]

    def test_one_absent_mailman_still_delivers(self):
        # share i is wrapped by holders at positions i-1..i+l-2, so one absent
        # holder kills exactly l=3 onion chains; 7 of 10 survive, above t=4
        cfg = ScenarioConfig(
            seed=6,
            pool_size=12,
            l=3,
            t=4,
            n=10,
            selection_override=tuple(range(10)),
            fault_policies={0: "absent"},
            withdraw_at_end=False,
        )
        trace = run_scenario(cfg)
        assert trace.status == "delivered_light"
        assert trace.shares_recovered_light == 7

    def test_gas_constant_across_n(self):
        gas = {}
        for n in (5, 10, 20):
            cfg = ScenarioConfig(
                seed=8, pool_size=n + 2, l=3, t=4, n=n, withdraw_at_end=False
            )
            gas[n] = run_scenario(cfg).service_gas
        assert len(set(gas.values())) == 1


class TestHeavyweightDelivery:
    def test_withheld_lightweight_goes_heavy(self):
        n = 6
        cfg = ScenarioConfig(
            seed=9,
            pool_size=n + 2,
            l=2,
            t=2,
            n=n,
            fault_policies={i: "withhold_light" for i in range(n + 2)},
        )
        trace = run_scenario(cfg)
        assert trace.status == "delivered_heavy"
        assert trace.epoch_sequence == [0, 1, 2, 3, 4, 5, 6]
        expected = 616_666 + 83_121 + 2_425_356 + n * (72_678 + 90_689) + 54_291
        assert trace.service_gas == expected
        assert trace.info_delivered

    def test_mass_withholding_fails_service(self):
        # n-t+1 = 7 silent in both reveal rounds: only one full chain survives
        cfg = ScenarioConfig(
            seed=10,
            pool_size=12,
            l=3,
            t=4,
            n=10,
            selection_override=tuple(range(10)),
            fault_policies={i: "absent" for i in range(7)},
        )
        trace = run_scenario(cfg)
        assert trace.status == "failed"
        assert trace.epoch_sequence == [0, 1, 2, 6]
        assert not trace.slashes
        # every mailman recovers its deposit, the sender its remuneration
        deposits = cfg.deposit_wei
        for i in trace.selected:
            addr = trace.roles[f"mailman_{i}"]
            withdrawals = [
                e
                for r in trace.receipts
                if r.get("caller") == addr and r["function"] == "withdraw" and r["success"]
                for e in r["events"]
                if e["event"] == "Withdrawal"
            ]
            assert withdrawals and int(withdrawals[0]["amount"]) == deposits

    def test_premature_disclosure_path(self):
        cfg = ScenarioConfig(
            seed=11,
            pool_size=8,
            l=2,
            t=2,
            n=4,
            selection_override=(0, 1, 2, 3),
            fault_policies={0: "premature"},
        )
        trace = run_scenario(cfg)
        assert trace.epoch_sequence == [0, 2, 3, 4, 5, 6]
        assert trace.status == "delivered_heavy"
        kinds = [s["kind"] for s in trace.slashes]
        assert kinds == ["premature"]
        assert trace.slashes[0]["accused"] == trace.roles["mailman_0"]

    def test_fake_key_slashed(self, ):
        cfg = ScenarioConfig(
            seed=12,
            pool_size=8,
            l=2,
            t=2,
            n=4,
            selection_override=(0, 1, 2, 3),
            fault_policies={0: "fake", **{i: "withhold_light" for i in (1, 2, 3)}},
        )
        trace = run_scenario(cfg)
        assert trace.status == "delivered_heavy"
        assert [s["kind"] for s in trace.slashes] == ["fake"]
        assert trace.slashes[0]["accused"] == trace.roles["mailman_0"]


class TestStrawmanRuns:
    def test_relationships_public_at_setup(self):
        cfg = ScenarioConfig(seed=13, pool_size=12, l=1, t=4, n=10, mode=MODE_STRAWMAN)
        trace = run_scenario(cfg)
        state = str(trace.pre_settlement_state)
        for addr in trace.selected_addresses:
            assert addr in state

    def test_gas_linear_in_n(self):
        gas = {}
        for n in (5, 10, 20):
            cfg = ScenarioConfig(
                seed=14, pool_size=n + 2, l=1, t=4, n=n, mode=MODE_STRAWMAN
            )
            gas[n] = run_scenario(cfg).service_gas
        slope1 = (gas[10] - gas[5]) / 5
        slope2 = (gas[20] - gas[10]) / 10
        assert slope1 == slope2 > 0

    def test_premature_share_splits_deposit(self):
        cfg = ScenarioConfig(
            seed=15,
            pool_size=8,
            l=1,
            t=2,
            n=4,
            mode=MODE_STRAWMAN,
            selection_override=(0, 1, 2, 3),
            fault_policies={0: "premature"},
        )
        trace = run_scenario(cfg)
        assert [s["kind"] for s in trace.slashes] == ["premature"]
        slash = trace.slashes[0]
        assert slash["award"] == cfg.deposit_wei // 2
        assert slash["compensation"] == cfg.deposit_wei - cfg.deposit_wei // 2
        assert slash["burned"] == 0

    @pytest.mark.parametrize("drop_prob", [0.1, 0.3])
    def test_lossy_runs_terminate(self, drop_prob):
        # a courier whose share is lost acts as absent, and a recipient whose
        # package is lost cannot restore; neither may crash the run
        for seed in range(40):
            cfg = ScenarioConfig(seed=seed, pool_size=6, n=4, l=1, t=2, mode=MODE_STRAWMAN, drop_prob=drop_prob)
            runner = ScenarioRunner(cfg)
            trace = runner.run()
            assert trace.status in ("delivered_heavy", "failed")
            runner.ledger.audit()
            svc = runner.strawman.state["services"][runner.sender.service_id]
            assert bool(svc["shares_paid"]) == (trace.status == "delivered_heavy")

    def test_dropped_disclosure_is_not_reported(self):
        # three premature couriers, but the bus drops the only disclosure sent
        cfg = ScenarioConfig(
            seed=1,
            pool_size=6,
            n=4,
            l=1,
            t=2,
            mode=MODE_STRAWMAN,
            fault_policies={0: "premature", 1: "premature", 2: "premature"},
            selection_override=(0, 1, 2, 3),
            drop_prob=0.5,
        )
        trace = run_scenario(cfg)
        disclosures = [m for m in trace.messages if m["to"] == "broadcast" and m["payload"].startswith(b"SHR".hex())]
        assert [m["delivered"] for m in disclosures] == [False]
        assert trace.slashes == []


class TestSecrecy:
    def test_lightweight_onchain_state_selection_independent(self):
        base = dict(seed=16, pool_size=12, l=3, t=4, n=10, withdraw_at_end=False)
        a = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(10))))
        b = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(2, 12))))
        assert a.selected != b.selected
        assert a.pre_settlement_digest == b.pre_settlement_digest

    def test_pre_settlement_digest_hashes_the_recorded_state(self, monkeypatch):
        # settlement runs after the checkpoint and must not reach into its
        # dump: the digest, computed when read, is the chain's before settlement
        settle = ScenarioRunner._settlement_phase
        before = []

        def hashing_first(runner):
            state = runner.ledger.onchain_state()
            state["receipts"] = [{k: v for k, v in rec.items() if k != "caller"} for rec in state["receipts"]]
            before.append(hash256(json.dumps(state, sort_keys=True).encode()))
            settle(runner)

        monkeypatch.setattr(ScenarioRunner, "_settlement_phase", hashing_first)
        trace = run_scenario(ScenarioConfig(seed=16, pool_size=6, l=2, t=2, n=4))
        blob = json.dumps(trace.pre_settlement_state, sort_keys=True).encode()
        assert trace.pre_settlement_digest == hash256(blob).hex() == before[0].hex()
        assert len(trace.receipts) > len(trace.pre_settlement_state["receipts"])

    def test_strawman_leaks_selection(self):
        base = dict(seed=16, pool_size=12, l=1, t=4, n=10, mode=MODE_STRAWMAN, withdraw_at_end=False)
        a = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(10))))
        b = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(2, 12))))
        assert a.pre_settlement_digest != b.pre_settlement_digest

    def test_message_profile_selection_independent(self):
        base = dict(seed=16, pool_size=12, l=3, t=4, n=10, withdraw_at_end=False)
        a = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(10))))
        b = run_scenario(ScenarioConfig(**base, selection_override=tuple(range(2, 12))))
        profile_a = [(m["size"], m["to"] == "broadcast") for m in a.messages]
        profile_b = [(m["size"], m["to"] == "broadcast") for m in b.messages]
        assert profile_a == profile_b


class TestEpochGraphFuzz:
    POLICIES = ["honest", "honest", "absent", "fake", "withhold_light", "premature"]

    def test_random_fault_scenarios_follow_graph(self):
        rng = Random(2024)
        for case in range(40):
            n = rng.choice([3, 4, 5])
            pool = n + rng.choice([1, 2])
            faults = {
                i: rng.choice(self.POLICIES)
                for i in range(pool)
                if rng.random() < 0.5
            }
            faults[rng.randrange(pool)] = "honest"
            cfg = ScenarioConfig(
                seed=3000 + case,
                pool_size=pool,
                l=rng.choice([1, 2]),
                t=rng.randrange(1, n + 1),
                n=n,
                fault_policies=faults,
                availability=rng.choice([1.0, 0.9]),
                withdraw_at_end=rng.random() < 0.5,
            )
            trace = run_scenario(cfg)
            assert epoch_path_is_valid(trace.epoch_sequence), (
                case,
                trace.epoch_sequence,
            )
            # slashes must name non-honest mailmen only
            for slash in trace.slashes:
                offender = slash["accused"]
                idx = next(
                    int(k.split("_")[1])
                    for k, v in trace.roles.items()
                    if v == offender and k.startswith("mailman_")
                )
                if slash["kind"] != "false_report" and cfg.availability == 1.0:
                    assert cfg.fault_policies.get(idx, "honest") != "honest"


class TestRationality:
    def paired_balances(self, fault, **kw):
        base = dict(
            seed=77,
            pool_size=6,
            l=2,
            t=2,
            n=4,
            selection_override=(0, 1, 2, 3),
        )
        base.update(kw)
        deviant = ScenarioConfig(**base, fault_policies={0: fault})
        honest = ScenarioConfig(**base)
        td, th = run_scenario(deviant), run_scenario(honest)
        addr = td.roles["mailman_0"]
        return td.balances[addr], th.balances[addr], td, th

    @pytest.mark.parametrize("fault", ["absent", "fake", "premature"])
    def test_deviation_never_profits(self, fault):
        dev, hon, td, th = self.paired_balances(fault)
        assert dev <= hon

    def test_detected_deviation_strictly_loses(self):
        # lightweight absence alone is not slashable; drive the heavy path
        # with a threshold low enough that recovery succeeds without the
        # deviant, so epoch 3 is reached and the absence is reported
        base = dict(
            seed=78,
            pool_size=6,
            l=2,
            t=2,
            n=4,
            selection_override=(0, 1, 2, 3),
        )
        withheld = {i: "withhold_light" for i in range(1, 4)}
        deviant = ScenarioConfig(**base, fault_policies={0: "absent", **withheld})
        honest = ScenarioConfig(**base, fault_policies={0: "withhold_light", **withheld})
        td = run_scenario(deviant)
        th = run_scenario(honest)
        addr = td.roles["mailman_0"]
        assert any(s["accused"] == addr for s in td.slashes)
        assert td.balances[addr] < th.balances[addr]


class TestLossyChannels:
    def test_drops_degrade_but_never_crash(self):
        rng = Random(555)
        outcomes = set()
        for case in range(12):
            cfg = ScenarioConfig(
                seed=7000 + case,
                pool_size=8,
                l=2,
                t=2,
                n=4,
                drop_prob=rng.choice([0.1, 0.3, 0.5]),
            )
            trace = run_scenario(cfg)
            assert epoch_path_is_valid(trace.epoch_sequence)
            outcomes.add(trace.status)
        assert "delivered_light" in outcomes


class TestConservation:
    def test_every_scenario_conserves(self):
        # run_scenario audits at each driver checkpoint; a sweep across modes and
        # fault mixes doubles as the conservation fuzz
        cases = [
            small_config(seed=2),
            small_config(seed=3, fault_policies={0: "fake", 1: "absent"}),
            small_config(seed=4, mode=MODE_STRAWMAN, l=1),
            small_config(seed=5, fault_policies={i: "withhold_light" for i in range(6)}),
        ]
        for cfg in cases:
            trace = run_scenario(cfg)
            assert trace.status in ("delivered_light", "delivered_heavy", "failed")


class TestLifetime:
    def test_finished_runner_is_freed_without_the_cycle_collector(self):
        configs = [small_config(seed=2), small_config(seed=4, mode=MODE_STRAWMAN, l=1)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for cfg in configs:
                runner = ScenarioRunner(cfg)
                runner.run()
                ledger = weakref.ref(runner.ledger)
                del runner
                assert ledger() is None, cfg.mode
        finally:
            if enabled:
                gc.enable()


class TestCopy:
    @pytest.mark.parametrize("cfg", [small_config(seed=2), small_config(seed=3, fault_policies={0: "premature"})])
    def test_runner_copied_after_recruitment_finishes_like_a_fresh_run(self, cfg):
        runner = ScenarioRunner(cfg)
        runner.build_marketplace()
        runner.sender.setup()
        runner.sender.recruit(runner.pool, cfg.selection_override)
        runner._deliver_recruitment_messages()
        fork = copy.deepcopy(runner)
        assert fork.agent.ledger.contracts is fork.ledger.contracts
        assert all(c.ledger.contracts is fork.ledger.contracts for c in fork.ledger.contracts.values())
        # the copy runs on from where it was made: its prefix is already done
        fork.build_marketplace = lambda: None
        fork.sender.setup = lambda: None
        fork.sender.recruit = lambda pool, override: None
        fork._deliver_recruitment_messages = lambda: None
        assert fork.run().trace_hash() == run_scenario(cfg).trace_hash()

    def test_editing_a_copied_ledger_leaves_the_parent_unchanged(self):
        runner = ScenarioRunner(small_config(seed=2))
        runner.build_marketplace()
        before = runner.ledger.state_digest(runner.ledger.onchain_state())
        fork = copy.deepcopy(runner)
        fork.ledger.fund(fork.sender.address, 1)
        fork.agent.state["mailmen"].clear()
        fork.ledger.advance_time(3)
        assert fork.ledger.state_digest(fork.ledger.onchain_state()) != before
        assert runner.ledger.state_digest(runner.ledger.onchain_state()) == before
        assert runner.agent.state["mailmen"] and runner.ledger.tick == 0

    def test_contract_copied_alone_holds_a_proxy_of_the_copied_ledger(self):
        runner = ScenarioRunner(small_config(seed=2))
        runner.build_marketplace()
        assert type(copy.deepcopy(runner.agent).ledger) is weakref.ProxyType
        memo = {}
        agent = copy.deepcopy(runner.agent, memo)
        assert type(agent.ledger) is weakref.ProxyType
        assert agent.ledger.contracts is memo[id(runner.ledger)].contracts
        assert agent.ledger.contracts[agent.address] is agent
        assert runner.ledger.contracts[agent.address] is runner.agent


def naive_peel(onions, privkeys):
    """Every key against every layer, first hit wins: the unmemoized peel."""
    recovered = {}
    for onion in onions:
        current = onion
        progress = True
        while current.layers_remaining and progress:
            progress = False
            for key in privkeys:
                try:
                    current = onion_peel(current, key)
                    progress = True
                    break
                except AuthenticationError:
                    continue
        if current.layers_remaining == 0:
            share = current.share()
            recovered[share.index] = share
    return recovered


def wire_onions(n, l, seed):
    """n onions laid out like SenderActor.layer_holders, as broadcast."""
    rng = Random(seed)
    keys = [keypair_gen(rng) for _ in range(n)]
    onions = []
    for i in range(1, n + 1):
        holders = [keys[(i - 1 + j) % n] for j in range(l)]
        onion = onion_wrap(Share(i, 1000 + i), [kp.pubkey for kp in holders], rng)
        onions.append(Onion.from_wire(onion.wire_bytes()))
    outsiders = [keypair_gen(rng).privkey for _ in range(2)]
    fakes = [
        ((int.from_bytes(kp.privkey, "big") * 2 + 1) % 2**255 + 1).to_bytes(32, "big")
        for kp in keys[:2]
    ]
    too_big = [(_N + 5).to_bytes(32, "big"), (2**256 - 1).to_bytes(32, "big")]
    return onions, [kp.privkey for kp in keys], outsiders + fakes + too_big


LAYOUT_SEEDS = {(4, 2): 11, (3, 3): 12, (5, 1): 13}
# wrapped outside any scope, so no layer is recorded
LAYOUTS = {layout: wire_onions(*layout, seed) for layout, seed in LAYOUT_SEEDS.items()}


@pytest.fixture
def decrypt_calls(monkeypatch):
    """Every ECIES decryption made, as (privkey, blob, opened)."""
    calls = []
    real = crypto.ecies_decrypt

    def counted(privkey, blob):
        try:
            inner = real(privkey, blob)
        except AuthenticationError:
            calls.append((privkey, blob, False))
            raise
        calls.append((privkey, blob, True))
        return inner

    monkeypatch.setattr(crypto, "ecies_decrypt", counted)
    return calls


class TestTrialPeel:
    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
        order=st.randoms(use_true_random=False),
        recorded=st.booleans(),
    )
    @settings(max_examples=16, deadline=None)
    @example(layout=(3, 3), keep=[True] * 5, order=Random(0), recorded=False)
    @example(layout=(4, 2), keep=[True] * 5, order=Random(0), recorded=False)
    @example(layout=(3, 3), keep=[True] * 5, order=Random(0), recorded=True)
    def test_matches_naive_peel_for_any_key_order(self, layout, keep, order, recorded):
        # a recorded layer is tried only with its openers, any other with every key
        with crypto.scope() if recorded else contextlib.nullcontext():
            wrapped = wire_onions(*layout, LAYOUT_SEEDS[layout]) if recorded else LAYOUTS[layout]
            onions, true_keys, junk = wrapped
            keys = [k for k, kept in zip(true_keys, keep) if kept] + junk
            order.shuffle(keys)
            onions = list(onions)
            order.shuffle(onions)
            assert peel_with_keys(onions, keys) == naive_peel(onions, keys)

    @pytest.mark.parametrize("seed", range(3))
    def test_negated_keys_recover_the_same_shares(self, decrypt_calls, seed):
        # N - d has the ECDH x of d, so both open d's layers; the layers are
        # wrapped in this scope, so only d and N - d are tried, d first, and
        # no trial misses even when only N - d is on hand
        with crypto.scope():
            onions, true_keys, junk = wire_onions(4, 2, 20 + seed)
            negated = [(_N - int.from_bytes(k, "big")).to_bytes(32, "big") for k in true_keys]
            for keys, openers in ((true_keys + negated[:2] + junk, true_keys), (negated + junk, negated)):
                Random(seed).shuffle(keys)
                decrypt_calls.clear()
                shares = peel_with_keys(onions, keys)
                assert len(decrypt_calls) == 8
                assert sorted(key for key, _, ok in decrypt_calls if ok) == sorted(openers * 2)
                assert sorted(shares) == [1, 2, 3, 4]
                assert shares == naive_peel(onions, keys)

    def test_recipient_decrypts_each_layer_once(self, decrypt_calls, monkeypatch):
        n, l = 8, 3
        per_peel = []

        def counting(*args):
            before = len(decrypt_calls)
            shares = peel_with_keys(*args)
            per_peel.append(len(decrypt_calls) - before)
            return shares

        monkeypatch.setattr(actors, "peel_with_keys", counting)
        monkeypatch.setattr(scenario, "peel_with_keys", counting)
        trace = run_scenario(ScenarioConfig(seed=1, pool_size=n + 4, l=l, t=4, n=n))
        assert trace.status == "delivered_light"
        recipient, settlement = per_peel
        # the run's scope recorded every layer, so each peel opens each
        # layer once, by its opener, and no trial misses
        assert recipient == settlement == n * l
        assert all(ok for _, _, ok in decrypt_calls)


class TestRevealPolicy:
    # policy -> (reveals in the lightweight round, reveals in a heavyweight round)
    TABLE = {
        actors.POLICY_HONEST: (True, True),
        actors.POLICY_PREMATURE: (False, False),
        actors.POLICY_ABSENT: (False, False),
        actors.POLICY_FAKE: (True, True),
        actors.POLICY_WITHHOLD_LIGHT: (False, True),
        actors.POLICY_BRIBERABLE: (True, True),
    }

    def test_table_covers_every_fault_policy(self):
        assert set(self.TABLE) == set(actors.FAULT_POLICIES)

    @pytest.mark.parametrize("policy", actors.FAULT_POLICIES)
    @pytest.mark.parametrize("lightweight", [True, False], ids=["lightweight", "heavyweight"])
    def test_reveals(self, policy, lightweight):
        mailman = actors.MailmanActor(
            keypair=None,
            channel_keys=None,
            timeframe_keys={},
            ledger=None,
            bus=None,
            agent=None,
            deposit=0,
            policy=policy,
        )
        assert mailman.reveals(lightweight) == self.TABLE[policy][0 if lightweight else 1]

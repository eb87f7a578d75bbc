"""Golden trace hashes: byte-identity guard for changes that must not alter
what a run does.

Each case is a config whose `ScenarioTrace.trace_hash()` (config, status,
epoch path, receipts, message metadata, balances and final state digest)
is pinned. Most are small (n <= 4). Together they reach the lightweight
and heavyweight paths, every deviating courier policy except bribery, the
strawman contract (delivered, failed, premature slashing, faults, offline
couriers, slow epochs, no withdrawals, a lost package and lost shares), a
lightweight run without withdrawals, message loss, a tampered package,
refusals, slow epochs and availability below 1. One case registers a
40-courier pool, so every later transaction, through settlement and
withdrawals, snapshots a long registry. Five large-n cases (n=50 light,
n=50 withheld into heavyweight, n=50 with loss and availability below 1,
n=200 light and n=400 light) pin the paths whose cost grows with n, such
as each courier's trial peel, bundle decoding and agreement proof at
settlement. A speed-up that changes one byte of any of these runs fails
here. Each case also pins its pre_settlement_digest, which the trace hash
leaves out, and runs once more to check that its live contract state stays
JSON-ready after every transaction, as the final digest, which hashes that
state in place of a copy, requires.
"""

import hashlib

import pytest

from tidsim.ledger import Ledger, json_digest
from tidsim.scenario import ScenarioConfig, ScenarioRunner, run_scenario

GOLDEN = [
    (
        "silent_light",
        dict(seed=1, pool_size=6, n=4, l=2, t=2),
        "delivered_light",
        "c445f4bfb014b4dffe523b1bb117960d98bcfead6b3ac0d88020dec4b72ffd70",
    ),
    (
        "full_depth_light",
        dict(seed=14, pool_size=4, n=3, l=3, t=2),
        "delivered_light",
        "b85ac56e3e0c87a798dda0e87839919367617e945c9608d8d933562d932bc65a",
    ),
    (
        "single_layer_light",
        dict(seed=16, pool_size=5, n=4, l=1, t=3, fault_policies={2: "absent"}),
        "delivered_light",
        "fa3b24f387099f6326cd568ed3b83d3f588cac4d140c3b98bddd9015a400060e",
    ),
    (
        "premature_heavy",
        dict(seed=2, pool_size=6, n=4, l=2, t=2, fault_policies={0: "premature"}),
        "delivered_heavy",
        "621725620f6c3f82782153b736a123d9aaa53728b2de812a182525bd7e4b41e7",
    ),
    (
        "full_depth_heavy",
        dict(seed=15, pool_size=4, n=3, l=3, t=2, fault_policies={3: "premature"}),
        "delivered_heavy",
        "1f38e42263e2c38491a9f06cdbb5871072ba3bf350e7d35e13ee13f86f0bf2a9",
    ),
    (
        "fake_heavy",
        dict(seed=3, pool_size=5, n=4, l=2, t=2, fault_policies={1: "fake", 4: "premature"}),
        "delivered_heavy",
        "69ae72d9673e0816883529519203dca410da036574a0909b3c4395c4ca8dadc3",
    ),
    (
        "fake_failed",
        dict(seed=3, pool_size=5, n=4, l=2, t=3, fault_policies={1: "fake"}),
        "failed",
        "5e336e3b86f9c890409c5ba48e8bd8143e75bbaee0c1a21db77badd32c8c1e28",
    ),
    (
        "absent_heavy",
        dict(seed=4, pool_size=5, n=4, l=2, t=2, fault_policies={2: "absent", 0: "premature"}),
        "delivered_heavy",
        "96cf646a387ac769c97445ae639dd996ea963de0cbf7371f12c3346cdbccba5c",
    ),
    (
        "withhold_light",
        dict(seed=5, pool_size=5, n=4, l=2, t=3, fault_policies={0: "withhold_light", 3: "withhold_light"}),
        "delivered_heavy",
        "c6e03d98e32136bf0b86b61bab6b37dce8780d40874545232a2b596f61d902b8",
    ),
    (
        "strawman",
        dict(seed=6, pool_size=5, n=4, l=2, t=2, mode="strawman"),
        "delivered_heavy",
        "2032e3b5f816a68f9c0852d60ee2d71b2d8ad12da6630f13d1b3a038f462110d",
    ),
    (
        "strawman_premature",
        dict(seed=15, pool_size=6, n=4, l=1, t=2, selection_override=(0, 1, 2, 3), mode="strawman",
             fault_policies={0: "premature"}),
        "delivered_heavy",
        "d6197365fd702a589f7591fc2c27afd608205fc150d3077703305bb8811e08c0",
    ),
    (
        "strawman_fake_absent",
        dict(seed=17, pool_size=6, n=4, l=1, t=2, selection_override=(0, 1, 2, 3), mode="strawman",
             fault_policies={1: "fake", 2: "absent"}),
        "delivered_heavy",
        "0fc276088e2888d668d13944d21fa255f76c99acc4967cc9d92ae5576f85b1ef",
    ),
    (
        "strawman_failed",
        dict(seed=18, pool_size=5, n=4, l=1, t=3, selection_override=(0, 1, 2, 3), mode="strawman",
             fault_policies={1: "fake", 2: "withhold_light"}),
        "failed",
        "da87eb09b3defb663d81cb5896fe710457b9629bb1b83f3bbc3cf03c29d7788c",
    ),
    (
        "strawman_offline_slow",
        dict(seed=19, pool_size=5, n=4, l=1, t=2, selection_override=(0, 1, 2, 3), mode="strawman",
             availability=0.8, epoch_ticks=2),
        "delivered_heavy",
        "b43b77fe5e6721dfd63a0081bca9206f2e1a421abf718dd444174b51a9f8e2bd",
    ),
    (
        "strawman_no_withdraw",
        dict(seed=20, pool_size=5, n=4, l=1, t=2, selection_override=(0, 1, 2, 3), mode="strawman",
             withdraw_at_end=False),
        "delivered_heavy",
        "e14062becfc1d60c272957f869db2021e91b14dbaeea624b1771de35795d4d51",
    ),
    (
        "strawman_lossy_failed",
        # the package and one share are lost: the recipient cannot restore
        dict(seed=1, pool_size=6, n=4, l=1, t=2, mode="strawman", drop_prob=0.3),
        "failed",
        "54e94df6d6baeb2467c20165c1444e95feaa7b28cc6cb67455062d76d1696fae",
    ),
    (
        "strawman_lossy_heavy",
        # one share is lost, the other three still reach t
        dict(seed=7, pool_size=6, n=4, l=1, t=2, mode="strawman", drop_prob=0.3),
        "delivered_heavy",
        "f9fa1e7e89c367b36c84ea0fba2a663147fa0bbb74d73dffd6c2e556c6fe44a0",
    ),
    (
        "lossy_light",
        dict(seed=7, pool_size=6, n=4, l=2, t=2, drop_prob=0.2),
        "delivered_light",
        "84725e0c38f6d0609d17b7716a56ad4ce53f95b601bdfc2ed5eebc4826f63020",
    ),
    (
        "lossy_heavy",
        dict(seed=7, pool_size=6, n=4, l=2, t=2, drop_prob=0.2, fault_policies={0: "premature"}),
        "delivered_heavy",
        "f9fc6e92aafe81c3627d236c6ed9eab13c4d37a830e3dcb88fddd2ece5156581",
    ),
    (
        "tamper_package",
        dict(seed=8, pool_size=5, n=4, l=2, t=2, tamper_package=True),
        "delivered_light",
        "0ce2f15618ac0a6c136b95106caf029122ed508921bf61b23f4d20a5455d1785",
    ),
    (
        "refusals",
        dict(seed=9, pool_size=6, n=4, l=2, t=2, refusals=(0, 3)),
        "delivered_light",
        "7d5c4b95e447b5d1f20593f2386510522cc427772b00e142adc22284acf173ab",
    ),
    (
        "slow_epochs_heavy",
        dict(seed=10, pool_size=5, n=4, l=2, t=2, epoch_ticks=2, fault_policies={1: "premature"}),
        "delivered_heavy",
        "9709d4da334707f6442518caa398688b483ca06656262688f8dda20e7204b0cc",
    ),
    (
        "offline",
        dict(seed=12, pool_size=5, n=4, l=2, t=2, availability=0.8),
        "delivered_heavy",
        "e992461035a4c1b5efe67adf5d5b92e3d347a1f71ca1dc0341eb09976365f800",
    ),
    (
        "silent_no_withdraw",
        dict(seed=21, pool_size=5, n=4, l=2, t=2, withdraw_at_end=False),
        "delivered_light",
        "8303eff0ce193ea232f79de713d8317336ee92b040110b1956e3bd0b8679a75b",
    ),
    (
        "withhold_light_delivered",
        # the withholding courier sends no key in epoch 1, yet proves its
        # agreement and is paid after the lightweight delivery
        dict(seed=1, pool_size=5, n=4, l=2, t=2, fault_policies={0: "withhold_light"}),
        "delivered_light",
        "cea8042f43bc76d4ffd822447f2bf3ac4e4f73be9da333c88dfa88518101b197",
    ),
    (
        "large_registry_heavy",
        dict(seed=1, pool_size=40, n=4, l=2, t=2, fault_policies={0: "premature"}),
        "delivered_heavy",
        "8460ad81a8570f6a2f8db21edd144b3beb47e745d324d90f23de4aee59443ecf",
    ),
    (
        "light_n50",
        dict(seed=1, pool_size=54, n=50, l=3, t=25),
        "delivered_light",
        "39302afaaf9722e9e2bcebac617ba5947b31914db47cb5acc325bc23f15386af",
    ),
    (
        "withhold_heavy_n50",
        dict(seed=1, pool_size=54, n=50, l=3, t=25, fault_policies={i: "withhold_light" for i in range(0, 54, 2)}),
        "delivered_heavy",
        "7f70a59e3a5bc5fde99b7a040669911bbdd1b306fc91f15fa2a2e92f48295dc3",
    ),
    (
        "lossy_offline_n50",
        dict(seed=1, pool_size=54, n=50, l=3, t=25, availability=0.9, drop_prob=0.05),
        "delivered_heavy",
        "3414275ee35ce8ac5b954cbd638fa024d1753c343a867825c15756595d871804",
    ),
    (
        "light_n200",
        # about a second: each courier's settlement peel is the step that
        # grows fastest in n
        dict(seed=1, pool_size=204, n=200, l=3, t=100),
        "delivered_light",
        "6dcab9c1af8cd9b74f40f2ee3cff8e133c256109a9aa2c0ebf6e4303d4a89914",
    ),
    (
        "light_n400",
        # a few seconds: 400 couriers each receive the same bundle and prove
        # their agreement from it at settlement
        dict(seed=1, pool_size=404, n=400, l=3, t=200),
        "delivered_light",
        "212b115525d8c782999fab8d998262e7542fd30693d40bae42e11243094ebe25",
    ),
]


# Each case's pre_settlement_digest: the hash of the chain as the run left it
# before settlement (contracts and caller-free receipts), which the trace hash
# does not cover. The trace computes it on first read, so a settlement that
# wrote into the snapshot would change it here.
PRE_SETTLEMENT = {
    "silent_light": "2b37d789556cabff4b614cc92271bb6a3f0d913d2d01b6ad231def2a088a3570",
    "full_depth_light": "05eef461ff3027032565974cd41bf8aa387670f14c336ce0a700863e49557408",
    "single_layer_light": "78d921889d28ba0adc25e0010aab388e3161d2ccb3f662077a200e10a3aac1b5",
    "premature_heavy": "a86ffae37da41aa6fac6e1d95ff437d071ec92d087d305e3f5e50ece6a3d8b24",
    "full_depth_heavy": "bbd46e10fcc0e4b09d0be7b22647d442b89be8ef7f21d4a0352307c8d46040be",
    "fake_heavy": "e23852d362a92940a4d8d75ca284dda549a66532a467bbda929154cc7411b700",
    "fake_failed": "10125c4aa903969ebce8d45e48a8b522896d1120f939751646629c070f8d5018",
    "absent_heavy": "f7542fa3a0494f61483ecfcd043080d02362bc272a574e8bdd9a0c497dfe0dfa",
    "withhold_light": "a61f831896df259db8bc4f7e5d014e8b6df79bf01a0154354dba9630b50a779c",
    "strawman": "f8e32b80d811579b365c63fa2463cead4b64c401c63c0722a21aa10859a3c3cb",
    "strawman_premature": "3ba51703c8b84bff0cc085be64b536e0698c054269e884eca466400c522b30bf",
    "strawman_fake_absent": "fd7351175bc87927aaec6d6a87642f3c4a40240240b6d4b564337e0c4a1c2186",
    "strawman_failed": "a40970c8c77ece82c55ecd18e44a6a289296145e685e3fb090f811c3511a4b1a",
    "strawman_offline_slow": "7b4a281b7983dd3239031910fd4d4bb51646d54a2f6b22a2b6366d32bcc15383",
    "strawman_no_withdraw": "277b402529bdec8ee18c0b5d4df50af48f94453e494e7636d2a1b6272a93616b",
    "strawman_lossy_failed": "236b9d7779e7dab5a7517521b0d61fc00f06217eaea713a2e5e3eb7a07502c32",
    "strawman_lossy_heavy": "c6eecc59b847a650686f2be7858199c9ea27cfb736e5134992e0479c737b34d4",
    "lossy_light": "cdfd26a5963f1d864e0ef9e16b4c2f85aaa30686505e270d96f972ed186c3efa",
    "lossy_heavy": "bea53dec53b423ab6c58bd67c77e43b2f36f434a2a029e8627c906557923a792",
    "tamper_package": "5c9e05229ff27da13a4935abc713b400f9ce2c403a021e4197b8144a337a3ec5",
    "refusals": "48c42f4a2911337ab7cc9925e52ef048262c98c84bf5ffb3f57e0b7c2ded2752",
    "slow_epochs_heavy": "0dab68d2a9210e4b21d36ad719f799afb9b9b8541a1ba5b9fa9a3a3873ab3a4a",
    "offline": "14d24fab202a97632555cf8e28435511c43afc4d7f44e334d21a6048f1da1935",
    "silent_no_withdraw": "4a651e860345e2800c799e7f60b246f44f591fd282ad63f0a8a3533715d19753",
    "withhold_light_delivered": "1bb000bcb77174d86151ae27c6d67846fc400c50a41156e7d73483b57f1ec16d",
    "large_registry_heavy": "4e08e921e49bba236a42eab7fdc1c853e24227616737ad8d03f4c9b6724be1f7",
    "light_n50": "172d350db1e287539d0f17b6aff7ccacc012750a4ed7a6d396288a6080303636",
    "withhold_heavy_n50": "10e07a3c9232988ec200235cf777078b64309581fcb0ae4add9a7d185a40c27f",
    "lossy_offline_n50": "d0bdbff492ce10d8bed8e199aa14fd4e39355a04674b7020beee54d75d878ed7",
    "light_n200": "54ab88d2243284921b88845aa036c12f901a4e5702ce57202b84b90a4717c0d5",
    "light_n400": "1e9f9e7e68bcbf06f9d2eb38b92a816758604a6a8e27af9a1dd1175538558827",
}


def test_every_case_pins_its_pre_settlement_digest():
    assert list(PRE_SETTLEMENT) == [case[0] for case in GOLDEN]


@pytest.mark.parametrize("name, config, status, digest", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_trace_hash(name, config, status, digest):
    trace = run_scenario(ScenarioConfig(**config))
    assert trace.status == status
    assert trace.trace_hash() == digest
    assert trace.pre_settlement_digest == PRE_SETTLEMENT[name]


def _assert_json_ready(value):
    """`value` holds only str-keyed dicts, lists, str, int, bool and None."""
    if isinstance(value, dict):
        for key, inner in value.items():
            assert type(key) is str, key
            _assert_json_ready(inner)
    elif isinstance(value, list):
        for inner in value:
            _assert_json_ready(inner)
    else:
        assert value is None or type(value) in (str, int, bool), value


def _assert_live_state_json_ready(ledger):
    for contract in ledger.contracts.values():
        _assert_json_ready(contract.state)
        assert json_digest(contract.state) == json_digest(contract.state_dump())


@pytest.mark.parametrize("name, config, status, digest", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_live_state_is_json_ready(monkeypatch, name, config, status, digest):
    # the final digest hashes each contract's live state, not a state_dump
    # copy: the two give the same bytes only while the state holds no bytes,
    # after every transaction and at the end of the run
    record = Ledger._record
    recorded = []

    def checked(ledger, *args):
        receipt = record(ledger, *args)
        _assert_live_state_json_ready(ledger)
        recorded.append(receipt)
        return receipt

    monkeypatch.setattr(Ledger, "_record", checked)
    runner = ScenarioRunner(ScenarioConfig(**config))
    trace = runner.run()
    _assert_live_state_json_ready(runner.ledger)
    assert recorded == runner.ledger.receipts
    assert trace.trace_hash() == digest



# SHA-256 of the whole `to_jsonl()` output, whose first line is the summary:
# these also pin `service_gas` and `total_gas`, which the trace hash leaves out.
JSONL = [
    (
        "light",
        dict(seed=1, pool_size=6, n=4, l=2, t=2),
        "4d1a01bffa8c72395a189fbb2aede0f203f2f0d03b7bf8965c9d6be12d99b80a",
    ),
    (
        "heavy",
        dict(seed=2, pool_size=6, n=4, l=2, t=2, fault_policies={0: "premature"}),
        "60bf164554f67ebfa7cbe25bae18da1581da0c89bfb8ea7094457a6b70743d3b",
    ),
    (
        "strawman",
        dict(seed=6, pool_size=5, n=4, l=2, t=2, mode="strawman"),
        "e486bfb6af8d58bd76b9aeac4a10d7c35f605c4c292d10c320914163c61fc760",
    ),
]


@pytest.mark.parametrize("name, config, digest", JSONL, ids=[case[0] for case in JSONL])
def test_jsonl_output_pinned(name, config, digest):
    trace = run_scenario(ScenarioConfig(**config))
    assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == digest

"""Deterministic simulator for a timed-information-delivery marketplace.

A sender splits a delivery key into onion-wrapped threshold shares held by
silently recruited couriers ("mailmen"), who reveal per-timeframe keys at
the prescribed time. Contracts enforce deposits, receipts, and a dual-mode
(lightweight/heavyweight) epoch state machine; the analysis layer evaluates
the availability, attack-cost, and gas-cost models and cross-checks them
against simulation.
"""

from .analysis import (
    CostBreakdown,
    availability,
    availability_mc,
    bribery_cost,
    cost_report,
    optimal_sybil_fraction,
    sybil_expected_deposit,
    sybil_min_deposit,
)
from .adversary import (
    AttackOutcome,
    adversary_view,
    inject_fault,
    run_bribery,
    sybil_capture_trials,
)
from .crypto import (
    KeyPair,
    Onion,
    Share,
    Signature,
    hash256,
    keypair_gen,
    onion_peel,
    onion_wrap,
    recover_signer,
    sign,
    ss_restore,
    ss_split,
    sym_decrypt,
    sym_encrypt,
)
from .ledger import GasSchedule, Ledger, TxReceipt
from .scenario import ScenarioConfig, ScenarioRunner, ScenarioTrace, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "CostBreakdown",
    "GasSchedule",
    "KeyPair",
    "Ledger",
    "Onion",
    "ScenarioConfig",
    "ScenarioRunner",
    "ScenarioTrace",
    "Share",
    "Signature",
    "TxReceipt",
    "adversary_view",
    "availability",
    "availability_mc",
    "bribery_cost",
    "cost_report",
    "hash256",
    "inject_fault",
    "keypair_gen",
    "onion_peel",
    "onion_wrap",
    "optimal_sybil_fraction",
    "recover_signer",
    "run_bribery",
    "run_scenario",
    "sign",
    "ss_restore",
    "ss_split",
    "sybil_capture_trials",
    "sybil_expected_deposit",
    "sybil_min_deposit",
    "sym_decrypt",
    "sym_encrypt",
]

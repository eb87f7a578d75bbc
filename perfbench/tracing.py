"""Span tracing from outside the program.

`Tracer.installed()` replaces each entry point named in `TARGETS` with a
wrapper that records a span (name, start, end, parent span, item id,
outcome) and restores the originals on exit. A module-level function is
replaced in every `tidsim` namespace that bound it, so a call through
`tidsim.actors.recover_signer` is seen as well as one through
`tidsim.crypto.recover_signer`. A method is replaced on the class that
defines it.

A target that no longer exists, or no longer lives where it is listed,
raises `MissingTarget`: a refactor must update this table rather than
silently zero a layer.

The program runs in one thread, so no layer ever waits on another; spans
carry busy time only and the benchmark reports no wait time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute or Class.method, metric name)
TARGETS = (
    ("tidsim.crypto", "ecies_decrypt", "crypto.ecies_decrypt"),
    ("tidsim.crypto", "ecies_encrypt", "crypto.ecies_encrypt"),
    ("tidsim.crypto", "sign", "crypto.sign"),
    ("tidsim.crypto", "recover_signer", "crypto.recover_signer"),
    ("tidsim.crypto", "keypair_gen", "crypto.keypair_gen"),
    ("tidsim.actors", "peel_with_keys", "actors.peel_with_keys"),
    ("tidsim.ledger", "Ledger.submit_tx", "ledger.submit_tx"),
    ("tidsim.ledger", "Contract.handle", "contracts.handle"),
    ("tidsim.ledger", "Ledger.advance_time", "ledger.advance_time"),
    ("tidsim.ledger", "Ledger.audit", "ledger.audit"),
    ("tidsim.ledger", "Ledger.state_digest", "ledger.state_digest"),
    ("tidsim.channels", "MessageBus.deliver_pending", "channels.deliver_pending"),
    ("tidsim.scenario", "ScenarioRunner.build_marketplace", "scenario.build_marketplace"),
    ("tidsim.actors", "SenderActor.setup", "scenario.setup"),
    ("tidsim.actors", "SenderActor.recruit", "scenario.recruit"),
    ("tidsim.scenario", "ScenarioRunner._pend_phase", "scenario.pend"),
    ("tidsim.scenario", "ScenarioRunner._epoch1_lightweight", "scenario.epoch1"),
    ("tidsim.scenario", "ScenarioRunner._epoch2_switch", "scenario.epoch2"),
    ("tidsim.scenario", "ScenarioRunner._epoch3_reveal_onchain", "scenario.epoch3"),
    ("tidsim.scenario", "ScenarioRunner._epoch4_reporting", "scenario.epoch4"),
    ("tidsim.scenario", "ScenarioRunner._epoch5_second_receipt", "scenario.epoch5"),
    ("tidsim.scenario", "ScenarioRunner._settlement_phase", "scenario.settle"),
    ("tidsim.scenario", "ScenarioRunner._run_strawman", "scenario.strawman"),
    ("tidsim.scenario", "ScenarioRunner._build_trace", "scenario.build_trace"),
    ("tidsim.analysis", "availability_mc", "analysis.availability_mc"),
    ("tidsim.analysis", "cost_report", "analysis.cost_report"),
    ("tidsim.adversary", "sybil_capture_trials", "adversary.sybil_capture_trials"),
    ("tidsim.adversary", "blind_bribery_trials", "adversary.blind_bribery_trials"),
    ("tidsim.cli", "cmd_sweep", "cli.sweep"),
)

# Span record fields, kept as lists for low overhead.
NAME, START, END, PARENT, ITEM, OK = range(6)


class MissingTarget(RuntimeError):
    pass


def _resolve(module_name: str, attr: str):
    """Return (owner, attribute name, original) or raise MissingTarget."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"{module_name}: cannot import ({exc})") from exc
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = module.__dict__.get(cls_name)
        if not isinstance(cls, type) or meth not in cls.__dict__:
            raise MissingTarget(f"{module_name}.{attr} no longer exists")
        return cls, meth, cls.__dict__[meth]
    fn = module.__dict__.get(attr)
    if fn is None or getattr(fn, "__module__", None) != module_name:
        raise MissingTarget(f"{module_name}.{attr} no longer exists")
    return module, attr, fn


class Tracer:
    """Collects spans in memory while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        # recover_signer inputs per item, to count unique (digest, sig) pairs
        self.recover_inputs: dict = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        note_recover = name == "crypto.recover_signer"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, False]
            stack.append(len(spans))
            spans.append(record)
            if note_recover:
                self.recover_inputs.setdefault(self.item, set()).add((args[0], repr(args[1])))
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[OK] = True
                return result
            finally:
                record[END] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        resolved = [(_resolve(mod, attr), name) for mod, attr, name in TARGETS]
        patches = []  # (owner, attribute, original)
        for (owner, attr, original), name in resolved:
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "tidsim" and not mod_name.startswith("tidsim."):
                    continue
                if module.__dict__.get(attr) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, successes.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice. Self time is a span's duration
        minus the durations of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            entry = totals.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0})
            duration = rec[END] - rec[START]
            entry["calls"] += 1
            entry["ok"] += rec[OK]
            entry["self_s"] += duration - child_time[i]
            if not self._has_ancestor_named(i, rec[NAME]):
                entry["s"] += duration
        return totals

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path: str):
        """Write all spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": round(rec[START] - origin, 9),
                            "end": round(rec[END] - origin, 9),
                            "parent": rec[PARENT],
                            "item": rec[ITEM],
                            "ok": rec[OK],
                        }
                    )
                    + "\n"
                )

"""The doc-drift gates (tools/check_docs.py) as tests.

CI runs the script directly; this wrapper keeps the gates inside the
normal test suite too, and pins the property that makes them useful:
each required-name list is *derived* from the code's exports, so a new
knob, lane, phase, flag or wire message cannot ship without
documentation.
"""

import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flow_exports():
    from repro.net.flowcontrol import Lane, policy_knobs
    from repro.wire.messages import DisconnectReason

    # today that is 4 knobs + 2 lanes + 3 reasons
    return (
        list(policy_knobs())
        + [lane.name for lane in Lane]
        + [reason.name for reason in DisconnectReason]
    )


def _topology_exports():
    from repro.core.errors import StaleEpochError
    from repro.runtime.migration import OUTCOMES
    from repro.runtime.topology import TopologyConfig

    # knobs + outcomes + 2 phases + code + counter + rule + helper
    return (
        [f.name for f in fields(TopologyConfig)]
        + list(OUTCOMES)
        + ["freezing", "installing"]
        + [StaleEpochError.code, "stale_epoch_rejects"]
        + ["SHARD004", "strip_migration_edges"]
    )


def _transfer_exports():
    from repro.core.transfer import transfer_knobs
    from repro.wire import messages
    from repro.wire.messages import TransferPolicy

    # today that is 8 knobs + 5 policies + 3 flags + 3 messages + the
    # warm start's paragraph and key
    return (
        list(transfer_knobs())
        + [policy.name for policy in TransferPolicy]
        + [flag for flag in messages.__all__ if flag.startswith("SNAP_")]
        + ["StateChunk", "ChunkAck", "TransferResume"]
        + ["**Warm start.**", "bandwidth estimate per peer host"]
    )


def _effect_exports():
    from repro.core import events

    # every concrete Effect in the public catalogue, the fan-out included
    # (not Effect.__subclasses__(): slots=True rebuilds each class, and
    # the discarded pre-slots one is a subclass too)
    exported = (getattr(events, name) for name in events.__all__)
    return [cls.__name__ for cls in exported
            if isinstance(cls, type) and issubclass(cls, events.Effect)
            and cls is not events.Effect]


#: gate -> (exports the gate must demand, a name to strip from the doc)
EXPECTED = {
    "flow": (_flow_exports, "coalesce_watermark"),
    "topology": (_topology_exports, "hot_queue_depth"),
    "transfer": (_transfer_exports, "resume_ttl"),
    "effects": (_effect_exports, "SendFanout"),
}


def test_every_gate_has_a_test_row(checker):
    assert sorted(checker.GATES) == sorted(EXPECTED)


@pytest.mark.parametrize("gate", sorted(EXPECTED))
def test_doc_covers_every_exported_name(checker, gate, capsys):
    assert checker.main([gate]) == 0
    assert "covers all" in capsys.readouterr().out


@pytest.mark.parametrize("gate", sorted(EXPECTED))
def test_required_names_track_the_code_exports(checker, gate):
    exports, _victim = EXPECTED[gate]
    _doc, required, _layer = checker.GATES[gate]
    assert sorted(required()) == sorted(exports())


@pytest.mark.parametrize("gate", sorted(EXPECTED))
def test_gate_fails_when_a_name_goes_missing(checker, gate, monkeypatch, tmp_path, capsys):
    _exports, victim = EXPECTED[gate]
    doc, required, layer = checker.GATES[gate]
    stripped = tmp_path / doc.name
    stripped.write_text(doc.read_text().replace(victim, "renamed"))
    monkeypatch.setitem(checker.GATES, gate, (stripped, required, layer))
    assert checker.main([gate]) == 1
    assert victim in capsys.readouterr().err


def test_transfer_gate_fails_when_the_warm_start_goes_undescribed(
    checker, monkeypatch, tmp_path, capsys
):
    doc, required, layer = checker.GATES["transfer"]
    stripped = tmp_path / doc.name
    stripped.write_text(doc.read_text().replace("**Warm start.**", ""))
    monkeypatch.setitem(checker.GATES, "transfer", (stripped, required, layer))
    assert checker.main(["transfer"]) == 1
    assert "Warm start" in capsys.readouterr().err


@pytest.mark.parametrize("gate", sorted(EXPECTED))
def test_gate_fails_when_the_doc_is_gone(checker, gate, monkeypatch, tmp_path, capsys):
    _doc, required, layer = checker.GATES[gate]
    monkeypatch.setitem(checker.GATES, gate, (tmp_path / "nope.md", required, layer))
    assert checker.main([gate]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_all_gates_run_by_default_and_unknown_gates_are_rejected(checker, capsys):
    assert checker.main([]) == 0
    assert capsys.readouterr().out.count("covers all") == len(checker.GATES)
    assert checker.main(["nope"]) == 2
    assert "unknown gate" in capsys.readouterr().err

#!/usr/bin/env python
"""Doc-drift gates: a normative document must mention every name the
code it describes exports.

One table, one row per contract: the document, and a function deriving
the required names from the code — so a new knob, lane, phase, flag or
wire message cannot ship without its documentation:

``flow``      docs/flow-control.md — every ``FlowControlConfig`` knob,
              priority lane and typed disconnect reason.
``topology``  docs/architecture.md §8 — every ``TopologyConfig`` knob,
              migration outcome and in-flight phase, the fencing error
              code and its counter, the lease-discipline deepcheck rule
              and the strip-the-edge helper.
``transfer``  docs/protocol.md §3.5 — every ``TransferConfig`` knob,
              ``TransferPolicy`` value, ``SNAP_*`` flag, the three
              transfer wire messages, and the warm start (a behaviour,
              not a name: its paragraph lead-in and its key).
``effects``   docs/architecture.md §1-2 — every ``Effect`` subclass
              ``repro.core.events`` exports.

Run from the repo root with ``PYTHONPATH=src python tools/check_docs.py``
(CI does; see .github/workflows/ci.yml); pass gate names to run a subset.
Exit 1 when any gate fails.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable

DOCS = Path(__file__).resolve().parents[1] / "docs"

#: The front's in-flight migration phases (see ShardSessions).
PHASES = ("freezing", "installing")

_TRANSFER_MESSAGES = ("StateChunk", "ChunkAck", "TransferResume")
#: The warm start has no knob of its own, so the gate asks for its
#: description: the §3.5.2 paragraph and what the estimate is keyed by.
_TRANSFER_BEHAVIOUR = ("**Warm start.**", "bandwidth estimate per peer host")


def _flow_names() -> list[str]:
    from repro.net.flowcontrol import Lane, policy_knobs
    from repro.wire.messages import DisconnectReason

    names = list(policy_knobs())
    names += [lane.name for lane in Lane]
    names += [reason.name for reason in DisconnectReason]
    return names


def _topology_names() -> list[str]:
    from repro.core.errors import StaleEpochError
    from repro.runtime.migration import OUTCOMES
    from repro.runtime.topology import TopologyConfig

    names = [f.name for f in fields(TopologyConfig)]
    names += list(OUTCOMES) + list(PHASES)
    names += [StaleEpochError.code, "stale_epoch_rejects"]
    names += ["SHARD004", "strip_migration_edges"]
    return names


def _transfer_names() -> list[str]:
    from repro.core.transfer import transfer_knobs
    from repro.wire import messages

    names = list(transfer_knobs())
    names += [policy.name for policy in messages.TransferPolicy]
    names += [flag for flag in messages.__all__ if flag.startswith("SNAP_")]
    names += list(_TRANSFER_MESSAGES) + list(_TRANSFER_BEHAVIOUR)
    return names


def _effect_names() -> list[str]:
    from repro.core import events

    exported = (getattr(events, name) for name in events.__all__)
    return [
        cls.__name__ for cls in exported
        if isinstance(cls, type) and issubclass(cls, events.Effect)
        and cls is not events.Effect
    ]


#: gate -> (document, required names, what exports them)
GATES: dict[str, tuple[Path, Callable[[], list[str]], str]] = {
    "flow": (DOCS / "flow-control.md", _flow_names, "flow-control layer"),
    "topology": (DOCS / "architecture.md", _topology_names, "elastic-topology layer"),
    "transfer": (DOCS / "protocol.md", _transfer_names, "state-transfer layer"),
    "effects": (DOCS / "architecture.md", _effect_names, "effect catalogue"),
}


def check(gate: str) -> int:
    """Run one gate; 0 when its document covers every required name."""
    doc, required, layer = GATES[gate]
    if not doc.exists():
        print(f"check_docs[{gate}]: {doc} does not exist", file=sys.stderr)
        return 1
    text = doc.read_text()
    names = required()
    missing = [name for name in names if name not in text]
    for name in missing:
        print(
            f"check_docs[{gate}]: docs/{doc.name} does not mention {name!r} "
            f"(exported by the {layer})",
            file=sys.stderr,
        )
    if missing:
        return 1
    print(f"check_docs[{gate}]: docs/{doc.name} covers all {len(names)} exported names")
    return 0


def main(argv: list[str] | None = None) -> int:
    gates = (sys.argv[1:] if argv is None else argv) or list(GATES)
    unknown = [gate for gate in gates if gate not in GATES]
    if unknown:
        print(f"check_docs: unknown gate(s) {unknown}; have {list(GATES)}",
              file=sys.stderr)
        return 2
    return max(check(gate) for gate in gates)


if __name__ == "__main__":
    sys.exit(main())

"""The correctness gate: a serial fold the server's state must equal.

The reference is deliberately independent of the code under test: it is
built from the bytes the generator *sent* (``Traffic.op``), ordered by
the sequence numbers the probe member *saw*, and folded with the paper's
two rules -- ``bcastState`` overrides an object, ``bcastUpdate`` appends
to it (section 3.2).  Nothing here imports ``repro.core``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.wire.messages import ObjectState, UpdateKind

__all__ = ["VerifyError", "Fold", "fold_in_order", "compare_objects"]


class VerifyError(AssertionError):
    """An output of the server differs from the reference."""


class Fold:
    """Shared state of one group, folded op by op."""

    def __init__(self, initial: Iterable[ObjectState] = ()) -> None:
        self._base: dict[str, bytes] = {o.object_id: o.data for o in initial}
        self._tail: dict[str, list[bytes]] = {}
        self.applied = 0

    def apply(self, object_id: str, kind: UpdateKind, data: bytes) -> None:
        if kind is UpdateKind.STATE:
            self._base[object_id] = data
            self._tail.pop(object_id, None)
        else:
            self._base.setdefault(object_id, b"")
            self._tail.setdefault(object_id, []).append(data)
        self.applied += 1

    def object(self, object_id: str) -> bytes:
        return self._base[object_id] + b"".join(self._tail.get(object_id, ()))

    def objects(self) -> dict[str, bytes]:
        return {object_id: self.object(object_id) for object_id in self._base}


def fold_in_order(
    initial: Iterable[ObjectState],
    ops: Iterable[tuple[str, UpdateKind, bytes]],
    checkpoints: Mapping[int, list[tuple[str, Mapping[str, bytes]]]] | None = None,
) -> Fold:
    """Fold *ops* (already in seqno order) over *initial*.

    *checkpoints* maps "number of ops applied" to ``(label, objects)``
    pairs captured at that point by someone else (a joiner's snapshot);
    each must equal the fold there, object by object.
    """
    fold = Fold(initial)
    pending = dict(checkpoints or {})
    for label, objects in pending.pop(0, []):
        compare_objects(label, objects, fold, subset=True)
    for object_id, kind, data in ops:
        fold.apply(object_id, kind, data)
        for label, objects in pending.pop(fold.applied, []):
            compare_objects(label, objects, fold, subset=True)
    if pending:
        raise VerifyError(
            f"snapshots taken at seqnos {sorted(pending)} lie beyond the "
            f"{fold.applied} ops the probe saw"
        )
    return fold


def compare_objects(
    label: str,
    got: Mapping[str, bytes],
    reference: Fold | Mapping[str, bytes],
    subset: bool = False,
) -> None:
    """Raise unless *got* equals *reference* object by object.

    With *subset* only the objects present in *got* are compared (a
    joiner's live objects; its ballast was compared when it joined).
    """
    want = reference.objects() if isinstance(reference, Fold) else reference
    if not subset and set(got) != set(want):
        raise VerifyError(
            f"{label}: object ids differ: only here {sorted(set(got) - set(want))}, "
            f"missing {sorted(set(want) - set(got))}"
        )
    for object_id, data in got.items():
        expected = want.get(object_id)
        if expected != data:
            raise VerifyError(
                f"{label}: object {object_id!r} differs from the reference "
                f"({len(data)} bytes vs "
                f"{'absent' if expected is None else len(expected)})"
            )

"""One contract for the three handles a caller waits on.

``SaveHandle``, ``StandbySync`` and ``RecoveryHandle`` share ``Pending``:
a value lands once, a late ``on_done`` fires at once, resolving twice is
an error, and a failure surfaces from ``result``. The error texts are each
kind's own and are pinned here.
"""

import pytest

from repro.errors import RecoveryError
from repro.recovery.model import RecoveryHandle
from repro.recovery.save import SaveHandle
from repro.recovery.standby import StandbySync

KINDS = {
    "save": (
        lambda: SaveHandle("app/state"),
        "save of 'app/state' has not finished",
        "save handle for 'app/state' resolved twice",
    ),
    "standby sync": (
        lambda: StandbySync("app/state"),
        "standby sync of 'app/state' has not finished",
        "standby sync of 'app/state' resolved twice",
    ),
    "recovery": (
        lambda: RecoveryHandle("star", "app/state"),
        "recovery of 'app/state' via star has not finished",
        "handle for 'app/state' resolved twice",
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_handle_resolves_once_and_says_so(kind):
    make, unfinished, twice = KINDS[kind]

    handle = make()
    early = []
    handle.on_done(early.append)
    assert not handle.done
    with pytest.raises(RecoveryError) as exc:
        handle.result
    assert str(exc.value) == unfinished

    value = object()
    handle._resolve(value)
    assert handle.done and handle.result is value
    assert early == [value]
    late = []
    handle.on_done(late.append)
    assert late == [value]
    for again in (lambda: handle._resolve(value), lambda: handle._fail(ValueError())):
        with pytest.raises(RecoveryError) as exc:
            again()
        assert str(exc.value) == twice
    assert early == [value]

    failed = make()
    waiting = []
    failed.on_done(waiting.append)
    error = ValueError("lost")
    failed._fail(error)
    assert failed.done
    with pytest.raises(ValueError) as exc:
        failed.result
    assert exc.value is error
    with pytest.raises(RecoveryError) as exc:
        failed._resolve(object())
    assert str(exc.value) == twice
    assert waiting == []


@pytest.mark.parametrize("cls", [SaveHandle, RecoveryHandle])
def test_on_done_sits_in_the_class_own_dict(cls):
    # benchmarks/perf/layertrace.py wraps it per class through vars(cls).
    assert "on_done" in vars(cls)

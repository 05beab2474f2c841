"""Records: immutable NamedTuples whose checks run on construction and on ``_replace``."""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from dnpsim import (
    DensityState,
    EventKind,
    NuclearSpin,
    PolarisationTrace,
    ProtocolRun,
    PulseEvent,
    ScheduleStage,
    SpinRegister,
    ValidationError,
    initial_state,
    pulsepol_for_period,
)

from conftest import make_register


def _checked():
    """(record, field, bad value, error) for each of the eight checked records."""
    reg = make_register("C3")
    seq = pulsepol_for_period(6.9)
    return [
        (NuclearSpin("C1", 0.1, 0.2), "a_perp", -1.0, ValidationError),
        (reg, "larmor", -1.0, ValidationError),
        (reg, "nuclei", reg.nuclei * 2, ValidationError),
        (PulseEvent(EventKind.FREE_EVOLUTION, duration=1.0), "duration", -1.0, ValidationError),
        (PulseEvent(EventKind.ROTATION, 1.0, 0.0), "phase", None, ValidationError),
        (seq, "period", -1.0, ValidationError),
        (seq, "period", 7.0, ValidationError),
        (initial_state(reg), "rho", np.eye(3), ValidationError),
        (ProtocolRun(seq, 8, 10), "repetitions", 0, ValidationError),
        (ProtocolRun(seq, 8, 10), "reinit_state", 2, ValidationError),
        (PolarisationTrace([1.0, 2.0], ["C3"], np.zeros((2, 1))), "values", np.ones((2, 1)),
         ValidationError),
        (ScheduleStage(6.9, 10), "n_periods", 0, ValidationError),
    ]


CHECKED = _checked()
IDS = [f"{type(record).__name__}.{field}" for record, field, _, _ in CHECKED]


@pytest.mark.parametrize(("record", "field", "bad", "error"), CHECKED, ids=IDS)
def test_replace_checks_a_field_as_the_constructor_does(record, field, bad, error):
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), field: bad})
    with pytest.raises(error) as replaced:
        record._replace(**{field: bad})
    assert str(replaced.value) == str(built.value)
    fields = [bad if name == field else value for name, value in zip(record._fields, record)]
    with pytest.raises(error):
        type(record)._make(fields)


@pytest.mark.parametrize(("record", "field"), [case[:2] for case in CHECKED], ids=IDS)
def test_a_checked_record_is_immutable_and_equal_to_its_copies(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    again = record._replace()
    assert type(again) is type(record) and repr(again) == repr(record)
    if not isinstance(record, (DensityState, PolarisationTrace)):  # arrays: no hash, no ==
        assert again == record and hash(again) == hash(record) == hash(tuple(record))
        assert pickle.loads(pickle.dumps(record)) == record


def test_replace_coerces_as_the_constructor_does():
    trace = PolarisationTrace([1.0, 2.0], ["C3"], np.zeros((2, 1)))
    values = np.full((2, 1), 0.25)
    replaced = trace._replace(labels=["C4"], values=values)
    assert replaced.labels == ("C4",)
    assert replaced.values is not values and not replaced.values.flags.writeable
    reg = make_register("C3", "C21")
    assert reg._replace(nuclei=list(reg.nuclei)).nuclei == reg.nuclei


def test_records_keep_their_field_order_defaults_and_repr():
    run = ProtocolRun(pulsepol_for_period(6.9), 8, 10)
    assert run._fields == ("sequence", "n_periods", "repetitions", "wait_us", "reinit_state")
    assert (run.wait_us, run.reinit_state) == (0.0, 0)
    assert ScheduleStage(6.9, 10).n_periods is None
    assert PulseEvent(EventKind.FREE_EVOLUTION).duration == 0.0
    spin = NuclearSpin("C3", -0.1, 0.2)
    assert repr(spin) == "NuclearSpin(label='C3', a_parallel=-0.1, a_perp=0.2)"
    assert repr(SpinRegister(2.0, [spin])) == f"SpinRegister(larmor=2.0, nuclei=({spin!r},))"

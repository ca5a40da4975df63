"""The result and parameter types are ``core.Record`` subclasses: immutable
records built without runtime code generation, with the construction,
comparison, hash and repr of a frozen dataclass over the same fields."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import greedyaug as ga
import greedyaug.cli  # noqa: F401  (every module that defines a record)
from greedyaug import exactlp, families
from greedyaug.core import ParameterError, Record

F = Fraction


def records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from records(sub)


def _lp_solution():
    return exactlp.maximize([F(1), F(1)], [{0: F(1)}, {0: F(1), 1: F(1)}], [F(1), F(3)])


def _flow():
    return dict(num_vertices=3, arcs=((0, 1), (0, 2)), source=0, sinks=(1, 2),
                capacities=((F(1), F(2)),))


# One value per field of each record, in field order: a valid instance.
SAMPLES = {
    "GroundSet": lambda: (3, ("a", "b", "c")),
    "GreedyTrace": lambda: ((0, 1), (0,), (F(1),), (F(0), F(1)), ((0,),)),
    "OptimumRecord": lambda: (1, 0b1, F(1)),
    "Witness": lambda: (0b1, 0b10, F(0), F(1, 2)),
    "AuditReport": lambda: (False, F(1), F(2), "strong", "low", "full",
                            ga.Witness(0b1, 0b10, F(0), F(1, 2)), 7),
    "RatioResult": lambda: (F(1, 2), 0, 0b11, 5, "high"),
    "BoundRecord": lambda: (2, "pre", F(3, 4), F(1), F(1, 2), F(1, 4)),
    "RankQuotientResult": lambda: (F(1, 2), 0b111, 0b1, 0b110, 8),
    "ExchangeViolation": lambda: (1, 2, True, F(0), F(1)),
    "ExchangeReport": lambda: (True, (), 3, 2, (2, 1, 0)),
    "LPSolution": lambda: tuple(getattr(_lp_solution(), f) for f in exactlp.LPSolution._fields),
    "FlowInstance": lambda: tuple(_flow().values()) + (("s", "t", "u"), "tiny"),
    "CriticalParams": lambda: (F(1, 2), F(1), 3),
    "DescribedInstance": lambda: (ga.make_modular([1, 2]), ga.uniform_matroid(2, 1)),
    "Family": lambda: tuple(families.FAMILIES["critical"]._values()),
    "CheckResult": lambda: ("a-check", False, "went wrong"),
}
RECORDS = sorted(records(), key=lambda cls: cls.__name__)


def test_import_loads_neither_dataclasses_nor_inspect():
    """Building the records takes no runtime code generation, so importing the
    CLI loads neither module; only modules new since the import count."""
    code = ("import sys; before = set(sys.modules); import greedyaug.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ga.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_every_record_has_a_sample():
    assert {cls.__name__ for cls in RECORDS} == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    values = SAMPLES[cls.__name__]()
    fields = cls._fields
    assert len(values) == len(fields)
    kwargs = dict(zip(fields, values))
    record = cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert cls(**kwargs) == record and cls(values[0], **dict(list(kwargs.items())[1:])) == record
    assert record != values and (record == values) is False

    # Defaults: the trailing fields with class-attribute defaults may be left out.
    defaults = {f: getattr(cls, f) for f in fields if f in vars(cls)}
    required = {f: v for f, v in kwargs.items() if f not in defaults}
    bare = cls(**required)
    assert all(getattr(bare, f) == v for f, v in defaults.items())

    with pytest.raises(TypeError, match=repr(fields[0])):
        cls(**{f: v for f, v in kwargs.items() if f != fields[0]})
    with pytest.raises(TypeError, match="'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"got multiple values for argument {fields[0]!r}"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match="arguments but"):
        cls(*values, None)

    # repr, equality and hash as a frozen dataclass over the same fields gives them.
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin = reference(*(getattr(record, f) for f in fields))
    assert repr(record) == repr(twin)
    try:
        expected = hash(twin)
    except TypeError:  # a dict-valued field: unhashable either way
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == expected

    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values


def test_post_init_still_refuses_bad_input():
    with pytest.raises(ParameterError, match="n >= 1"):
        ga.GroundSet(0)
    with pytest.raises(ParameterError, match="labels length"):
        ga.GroundSet(2, labels=("a",))
    with pytest.raises(ParameterError, match=r"bad arc \(0,0\)"):
        ga.FlowInstance(**{**_flow(), "arcs": ((0, 1), (0, 0))})
    with pytest.raises(ParameterError, match="k must exceed alpha"):
        ga.CriticalParams(F(1), F(2), 2)


def test_post_init_may_normalise_a_field():
    inst = ga.FlowInstance(**{**_flow(), "capacities": ((1, ga.flows.INF),)})
    assert inst.capacities == ((F(1), ga.flows.INF),)
    assert type(inst.capacities[0][0]) is Fraction


def test_cached_properties_are_built_once():
    solution = _lp_solution()
    assert "x" not in vars(solution) and "y" not in vars(solution)
    x, y = solution.x, solution.y
    assert x == [F(1), F(2)] and y == [F(0), F(1)]
    assert solution.x is x and solution.y is y and vars(solution)["x"] is x
    inst = ga.FlowInstance(**_flow())
    model = inst.lp_model
    assert inst.lp_model is model and vars(inst)["lp_model"] is model

"""The package's public surface: submodules on first use, the record types, and who reads a matrix's storage."""

import ast
import json
import os
import subprocess
import sys

import pytest

import dualcech
from dualcech import bicomplex, localmodel, presheaf, snc, toric

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

# the records that carry no __post_init__ check and no cached property
RECORDS = [
    snc.Component,
    snc.TableEntry,
    snc.SncDivisor,
    snc.Summand,
    snc.CohomologyReport,
    snc.HodgeTable,
    snc.CurveEulerResult,
    snc.RationalityReport,
    toric.Fan,
    localmodel.LocalModelSpec,
    localmodel.ExactnessVerdict,
    presheaf.Presheaf,
    bicomplex.SpectralPage,
]

FIRST_USE = """
import json, sys
import dualcech
before = sorted(m for m in sys.modules if m.startswith("dualcech."))
make = dualcech.snc.make_snc_divisor
names = {}
exec("from dualcech import *", names)
print(json.dumps([before, make.__module__, sorted(k for k in names if not k.startswith("__"))]))
"""


def test_submodules_load_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", FIRST_USE], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    before, home, star = json.loads(proc.stdout)
    assert before == []
    assert home == "dualcech.snc"
    assert star == sorted(dualcech.__all__) and len(star) == 8


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'sncc'"):
        dualcech.sncc  # noqa: B018


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_read_by_name_refuse_assignment_and_compare_by_value(record):
    fields = list(record.__annotations__)
    values = [f"{record.__name__}.{field}" for field in fields]
    item = record(*values)
    for field, value in zip(fields, values):
        assert getattr(item, field) == value
        with pytest.raises(AttributeError):
            setattr(item, field, "changed")
    with pytest.raises(AttributeError):
        item.extra = 1
    assert item == record(*values)
    assert item != record(*values[:-1], "other")



def test_only_exactla_reads_the_matrix_storage():
    # a matrix's numerators and denominator are exactla's; every other
    # module builds matrices through its doors and its block writer
    package = os.path.join(ROOT, "src", "dualcech")
    readers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            if any(isinstance(node, ast.Attribute) and node.attr in ("_num", "_den") for node in ast.walk(tree)):
                readers.add(name)
    assert readers == {"exactla.py"}

"""The package's result records: immutable named tuples, built without
generated code, that keep the reprs, defaults and truth values they had
as frozen dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import loopchains
from loopchains.boxquot import (CubeFamily, EqualityVerdict,
                                HomotopyCertificate, QuotientComparison,
                                Realization)
from loopchains.cli import SuiteResult, Workspace
from loopchains.cobarloop import LoopComplexModel, TVerification
from loopchains.exactalg import ComplexVerdict, HomologySummary, SmithForm
from loopchains.freeloop import GVerification, S1Report
from loopchains.hochschild import TruncatedHomology
from loopchains.signkoszul import IdentityReport, IdentitySweep
from loopchains.simpcx import CollapsedComplex, SimplicialComplex

EDGE = SimplicialComplex("edge", (0, 1), ((0, 1),))

# one instance of every record, and its repr as a frozen dataclass
RECORDS = (
    (HomologySummary(degree=0, rank=1, torsion=()),
     "HomologySummary(degree=0, rank=1, torsion=())"),
    (ComplexVerdict(ok=True),
     "ComplexVerdict(ok=True, first_failing_degree=None, message='')"),
    (SmithForm((1, 2, 0), None, None),
     "SmithForm(diagonal=(1, 2, 0), left=None, right=None)"),
    (IdentityReport((0, 1), 1, 0, 1, 0),
     "IdentityReport(degrees=(0, 1), d1=1, r=0, lhs=1, rhs=0)"),
    (IdentitySweep(4, (), (), 1, 3, 0),
     "IdentitySweep(total=4, failures=(), failing_combos=(), "
     "boundary_total=1, interior_total=3, interior_failures=0)"),
    (EDGE, "SimplicialComplex(name='edge', vertices=(0, 1), "
           "facets=((0, 1),))"),
    (CollapsedComplex(EDGE, frozenset({frozenset({0, 1})})),
     "CollapsedComplex(source=SimplicialComplex(name='edge', "
     "vertices=(0, 1), facets=((0, 1),)), "
     "tree=frozenset({frozenset({0, 1})}))"),
    (EqualityVerdict(False, (Fraction(1, 2),)),
     "EqualityVerdict(equal=False, witness=(Fraction(1, 2),))"),
    (HomotopyCertificate(True, ("a",), ()),
     "HomotopyCertificate(ok=True, checks=('a',), failures=())"),
    (QuotientComparison({}, {}, 0, 0),
     "QuotientComparison(plain={}, quotient={}, concat_relations=0, "
     "transpose_relations=0)"),
    (GVerification(True, 3, {}),
     "GVerification(ok=True, words_checked=3, failures={})"),
    (S1Report(False, True, True, True, 1),
     "S1Report(strict=False, sigma_included=True, sigma_matches_wrap=True, "
     "chain_closed=True, winding=1)"),
    (TVerification(((0, 1),), {}, {}),
     "TVerification(cells=((0, 1),), residuals={}, corner_census={})"),
    (TruncatedHomology(0, 2, HomologySummary(0, 1, ()), True),
     "TruncatedHomology(degree=0, max_weight=2, "
     "summary=HomologySummary(degree=0, rank=1, torsion=()), "
     "stabilized=True)"),
    (SuiteResult("signs", ("x: ok",), 0),
     "SuiteResult(name='signs', lines=('x: ok',), failures=0)"),
)


def _package_classes():
    for info in pkgutil.iter_modules(loopchains.__path__):
        module = importlib.import_module(f"loopchains.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_only_the_conventions_and_the_suites_are_dataclasses():
    found = {name for name, cls in _package_classes()
             if dataclasses.is_dataclass(cls)}
    assert found == {"conventions.Conventions", "cli.Suite"}


def test_every_record_class_has_an_instance_here():
    records = {name for name, cls in _package_classes()
               if issubclass(cls, tuple)}
    assert records == {f"{type(r).__module__.rpartition('.')[2]}."
                       f"{type(r).__name__}" for r, _ in RECORDS} | {
        "boxquot.CubeFamily", "cobarloop.LoopComplexModel"}


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_keep_their_repr_and_refuse_assignment(record, text):
    assert repr(record) == text
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_keep_defaults_truth_values_and_properties():
    verdict = ComplexVerdict(ok=True)
    assert (verdict.first_failing_degree, verdict.message) == (None, "")
    assert TVerification((), {}, {"w": (1, 1)}).ok
    assert not TVerification((), {(0, 1): {"w": 1}}, {}).ok
    assert not TVerification((), {}, {"w": (1, 0)}).ok
    assert not EqualityVerdict(False, (Fraction(1, 3),))
    assert EqualityVerdict(True, None)
    assert not HomotopyCertificate(False, ("a",), (("a", (0,)),))
    assert HomotopyCertificate(True, ("a",), ())
    assert not SuiteResult("x", (), 1).ok
    assert SmithForm((1, 2, 0), None, None).rank == 2


def test_records_with_unhashable_fields_still_work():
    model = LoopComplexModel(None, {0: [(), ((("tau", (0, 1)),))]}, 1)
    assert model.word_count() == 2
    family = CubeFamily("f", None, ("c0", "c1"), ("a", "b"))
    with pytest.raises(AttributeError):
        family.name = "g"


def test_simplicial_complexes_stay_hashable_inside_realization_keys():
    coords = {0: (0,), 1: (1,)}
    one = Realization(EDGE, coords)
    two = Realization(SimplicialComplex("edge", (0, 1), ((0, 1),)),
                      {0: (Fraction(0),), 1: (Fraction(1),)})
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    assert hash(EDGE) == hash(SimplicialComplex(*EDGE))


def test_the_workspace_is_a_plain_cache_holder(tmp_path):
    ws = Workspace(tmp_path)
    assert ws.fixtures == tmp_path
    assert ws.complex("ball3").facets == ((0, 1, 2, 3),)
    assert ws.complex("ball3") is ws.complex("ball3")

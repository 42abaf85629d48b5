"""The public surface of the package and the hooks the traced benchmark uses."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import squaregap
from squaregap.graphcore import SimpleGraph

PUBLIC = [
    "ConstructedGraph", "GapCertificate", "LemmaReport",
    "ListAssignment", "ListColoringResult", "SearchAttestation", "SearchBudgetExceeded",
    "SimpleGraph",
    "are_orthogonal", "build_latin", "build_mols_family", "certify_gap",
    "check_independence", "check_lemma_nv", "check_lemma_nw", "check_pq_adjacency",
    "check_square_structure", "construct_counterexample", "is_latin",
    "is_list_colorable", "multipartite_list_colorable", "require_prime",
    "run_all_checks", "serialize", "square",
    "vetrik_assignment", "vetrik_lower_bound",
]


def test_public_names():
    assert sorted(squaregap.__all__) == PUBLIC
    for name in squaregap.__all__:
        assert getattr(squaregap, name) is not None


def test_records_are_immutable_named_tuples():
    report = squaregap.LemmaReport("nw", 3)
    assert repr(report) == ("LemmaReport(lemma_id='nw', checked_cases=3, failure_count=0, "
                            "item_witnesses=())")
    assert report == ("nw", 3, 0, ()) and report.passed and report.witness is None
    with pytest.raises(AttributeError):
        report.checked_cases = 4
    with pytest.raises(AttributeError):
        report.extra = 1  # __slots__ = (): no instance dict
    assert squaregap.SearchAttestation(7) == (7, None)


def test_names_the_bench_tracer_wraps_still_exist():
    # bench/spans.py wraps these by module and name; a missing one would break
    # `bench/run.py --trace 1` rather than any other test
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.WRAPPED.items():
        home = importlib.import_module(f"squaregap.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"squaregap.{module}.{name}"
    assert isinstance(vars(SimpleGraph)["from_edges"], classmethod)

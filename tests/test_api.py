"""The public surface of the package."""

import json
import re
from pathlib import Path

import ptstrace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned_and_resolve():
    assert sorted(ptstrace.__all__) == [
        "All", "AllFinite", "AllInfinite", "Cone", "CongruenceBasis",
        "DistributionSumViolation", "DuplicateIdentifier", "Empty",
        "Equivalent", "Extraction", "FiniteWord", "Inconclusive", "InfCone",
        "InvariantError", "MalformedRational", "NotEquivalent", "OutputKind",
        "ProbabilityOutOfRange", "Pts", "PtsFormatError",
        "SingularRestrictedSystem", "UnknownIdentifier", "brute_measure",
        "build_rep", "dirac", "finite_mass_vector", "hk", "hkc_finite",
        "hkc_inf", "measure", "naive", "parse_pts", "parse_query",
        "parse_rational", "pts_to_dict", "serialize_pts", "step",
        "tokenize_word", "validate", "word_oracle_equiv",
    ]
    for name in ptstrace.__all__:
        assert getattr(ptstrace, name) is not None


def _readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_library_example_runs_on_the_readme_document():
    # the Input format document is the first JSON block; the Library block
    # reads it as ``doc``
    doc = json.loads(_readme_blocks("json")[0])
    (library,) = _readme_blocks("python")
    namespace = {"doc": doc}
    exec(compile(library, str(README), "exec"), namespace)
    assert namespace["pts"].states == tuple(doc["states"])

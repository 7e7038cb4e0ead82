"""The public surface of the package."""

import ptstrace


def test_public_names_are_pinned_and_resolve():
    assert sorted(ptstrace.__all__) == [
        "All", "AllFinite", "AllInfinite", "Cone", "CongruenceBasis",
        "DistributionSumViolation", "DuplicateIdentifier", "Empty",
        "Equivalent", "Extraction", "FiniteWord", "Inconclusive", "InfCone",
        "InvariantError", "MalformedRational", "NotEquivalent", "OutputKind",
        "ProbabilityOutOfRange", "Pts", "PtsFormatError",
        "SingularRestrictedSystem", "UnknownIdentifier", "brute_measure",
        "build_rep", "dirac", "finite_mass_vector", "hk", "hkc_finite",
        "hkc_inf", "measure", "naive", "out_term", "out_total", "parse_pts",
        "parse_query", "parse_rational", "pts_to_dict", "serialize_pts",
        "step", "tokenize_word", "validate", "word_oracle_equiv",
        "word_transform",
    ]
    for name in ptstrace.__all__:
        assert getattr(ptstrace, name) is not None

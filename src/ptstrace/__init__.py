"""Exact trace measures and trace equivalence for finite generative
probabilistic transition systems.

Everything is computed over arbitrary-precision rationals: measures of
word sets (single words, cones, the finite/infinite splits), the
determinized linear representation, and equivalence checking with
counterexample words via bisimulation up to congruence.
"""

from .equivalence import (CongruenceBasis, Equivalent, Extraction,
                          Inconclusive, InvariantError, NotEquivalent,
                          OutputKind, hk, hkc_finite, hkc_inf, naive)
from .linear import (build_rep, dirac, out_term, out_total, step,
                     word_transform)
from .measure import (All, AllFinite, AllInfinite, Cone, Empty, FiniteWord,
                      InfCone, SingularRestrictedSystem, finite_mass_vector,
                      measure, parse_query, tokenize_word)
from .model import (DistributionSumViolation, DuplicateIdentifier,
                    MalformedRational, ProbabilityOutOfRange, Pts,
                    PtsFormatError, UnknownIdentifier, parse_pts,
                    parse_rational, pts_to_dict, serialize_pts, validate)
from .oracle import brute_measure, word_oracle_equiv

__version__ = "0.1.0"

__all__ = [
    "All", "AllFinite", "AllInfinite", "Cone", "CongruenceBasis",
    "DistributionSumViolation", "DuplicateIdentifier", "Empty", "Equivalent",
    "Extraction", "FiniteWord", "InfCone", "Inconclusive", "InvariantError",
    "MalformedRational", "NotEquivalent", "OutputKind",
    "ProbabilityOutOfRange", "Pts", "PtsFormatError",
    "SingularRestrictedSystem", "UnknownIdentifier", "brute_measure",
    "build_rep", "dirac", "finite_mass_vector", "hk", "hkc_finite",
    "hkc_inf", "measure", "naive", "out_term", "out_total", "parse_pts",
    "parse_query", "parse_rational", "pts_to_dict", "serialize_pts", "step",
    "tokenize_word", "validate", "word_oracle_equiv", "word_transform",
]

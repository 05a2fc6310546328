"""Mixed-radix asymptotic bases: exact arithmetic, representation counting,
and certificate-emitting verification."""

# Set before the submodule imports: verifier stamps it into certificates.
__version__ = "0.1.0"

from .core import DigitRep, DigitRangeError, DomainError, GadicSequence
from .partition import (HypothesisViolatedError, IntervalFamilies,
                        PartitionSpec, detect_interval_families, min_t)
from .basis import BasisSpec, MemberWindow, WindowTooLargeError
from .repcount import RepCountResult, count_reps_digitdp
from .verifier import (BasisReport, WitnessCertificate, construct_witness,
                       removability_scan, verify_minimality, verify_theorem1,
                       verify_theorem2, verify_witness)
from .config import PRESETS, ConfigError, RunConfig, load_preset

__all__ = [
    "BasisReport", "BasisSpec", "ConfigError", "DigitRangeError", "DigitRep",
    "DomainError", "GadicSequence", "HypothesisViolatedError",
    "IntervalFamilies", "MemberWindow", "PartitionSpec", "PRESETS",
    "RepCountResult", "RunConfig", "WindowTooLargeError",
    "WitnessCertificate", "construct_witness", "count_reps_digitdp",
    "detect_interval_families", "load_preset", "min_t", "removability_scan",
    "verify_minimality", "verify_theorem1", "verify_theorem2", "verify_witness",
]

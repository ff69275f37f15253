"""Partition-path calculus over the real composition algebras.

The package has four layers:

- ``compalg.algebra``: the seven Cayley-Dickson algebras with exact
  structure constants, quadratic/bilinear/trace forms, inverses, and an
  axiom verifier.
- ``compalg.model``: measurements as set partitions, paths, the partial
  operations (chaining, coarsening, unchaining, refinement, reversal,
  insertion), impossibility analysis, and nonredundant normal forms.
- ``compalg.engine``: transition-amplitude assignments, path amplitudes
  by thread summation, quadratic probabilities, sum-rule validation, and
  reproducible sampling.
- ``compalg.dsl`` / ``compalg.cli``: a declaration language and the
  ``compalg`` command-line tool.
"""

from .algebra import (
    Algebra,
    AlgebraKind,
    Amplitude,
    AxiomReport,
    bilinear_form,
    conj,
    gram_determinant,
    inverse,
    make_algebra,
    mul,
    quadratic_form,
    trace_form,
    verify_axioms,
)
from .engine import (
    Assignment,
    ProbabilityResult,
    ValidationReport,
    amplitude_of,
    check_certain_insertion,
    check_markov,
    probability_of,
    sample,
    total_probability,
    validate_assignment,
)
from .model import (
    GroundSet,
    Measurement,
    MeasurementSequence,
    Path,
    PathClass,
    chain,
    classify,
    coarsen,
    enumerate_partitions,
    enumerate_paths,
    equal_measurements,
    equivalent,
    factorize,
    find_igps,
    insert_cyclic,
    insert_measurement,
    is_possible,
    normal_form,
    refine,
    reverse,
    unchain_left,
    unchain_right,
    weakly_equivalent,
)
from .dsl import Workspace, parse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

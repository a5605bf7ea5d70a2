"""Exact combinatorics of Dynkin diagrams, two-bundle varieties, tags, and drums."""

from types import ModuleType as _ModuleType

from .classifier import (
    HomogeneousModel,
    ShapeVerdict,
    TagPair,
    TwoBundleData,
    check_shape_constraint,
    homogeneous_tags,
    match_model,
)
from .drum import (
    HorosphericalDrum,
    IntersectionLedger,
    bandwidth,
    build_drum,
    ledger,
    weyl_dim,
)
from .dynkin import (
    DynkinDiagram,
    RootSystem,
    automorphisms,
    cartan_matrix,
    pairing,
    parse_diagram,
    positive_roots,
    subdiagram,
    weyl_order,
)
from .errors import DomainError, ParseError
from .homogeneous import (
    ContractionFiber,
    MarkedDiagram,
    TwoBundleEntry,
    contraction_fiber,
    dimension,
    enumerate_two_bundles,
    is_projective_space,
    is_two_bundle_pair,
    parse_marked,
    picard_number,
)
from .tags import (
    RestrictedTag,
    Tag,
    TagShape,
    ZeroData,
    classify_tag_shape,
    is_trivial,
    nesting_admissible,
    parse_tag,
    restrict_tag,
    symplectic_reduce,
    tag_from_splitting,
    zero_data,
)

# the re-exported names, not the submodules that importing them binds here
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]

__version__ = "0.1.0"

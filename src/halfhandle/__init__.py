"""Symbolic rewriting engine for Morse data of embedded cobordisms.

A cobordism between manifolds with boundary, embedded with positive
codimension, is described here purely symbolically: critical points with
exact rational values, the graph of flow lines between them, and the
component bookkeeping of the regular level sets.  The package rewrites
such data by rearrangement, cancellation, and wall splitting moves, and
drives any admissible datum into the splitting normal form where every
remaining handle is attached along the boundary wall.
"""

from .errors import (
    BadLevels,
    Blocked,
    BoundExceeded,
    BrokenTrajectoryExists,
    CriticalLevel,
    CycleDetected,
    EdgeOrderViolation,
    EngineError,
    ExtremalIndex,
    Inadmissible,
    IndexMismatch,
    InfeasibleSpec,
    InvalidEffect,
    InvalidIndexKind,
    KindMismatch,
    LocusViolation,
    MoveError,
    NotInterior,
    NotJoinable,
    NotSingleTrajectory,
    ParseError,
    PartialConfiguration,
    PipelineBlocked,
    StuckNoJoinablePoint,
    SwapBlocked,
    UnknownId,
    ValidationError,
)
from .morse_data import (
    Ambient,
    CriticalPoint,
    DimensionProfile,
    Flags,
    Kind,
    MorseDatum,
    check_index_kind,
    dimension_profile,
    index_bounds,
    is_admissible,
    validate_datum,
)
from .trajectory import (
    FlowEdge,
    Locus,
    TrajectoryGraph,
    broken_closure,
    can_rearrange,
    generic_disjoint,
    has_broken_path,
    has_path,
)
from .slice_topology import (
    ComponentEffect,
    EffectKind,
    Slice,
    SliceComplex,
    SliceComponent,
    joinable_to_wall,
    level_slices,
    replay,
    state_at_level,
)
from .moves import (
    MoveRecord,
    apply_script,
    assign_values,
    cancel_pair,
    realize_configuration,
    rearrange_pair,
    split_interior,
)
from .normal_form import (
    Decomposition,
    Segment,
    band_levels,
    derive_half_handle_decomposition,
    derive_monotone_decomposition,
    ensure_joinable,
    global_split,
    schedule_levels,
    scheduled_rank,
    tsa_check,
    verify_decomposition,
)
from .cli_io import (
    GeneratorSpec,
    brute_force_reachability,
    generate,
    main,
    parse_datum,
    parse_script,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

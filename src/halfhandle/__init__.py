"""Symbolic rewriting engine for Morse data of embedded cobordisms.

A cobordism between manifolds with boundary, embedded with positive
codimension, is described here purely symbolically: critical points with
exact rational values, the graph of flow lines between them, and the
component bookkeeping of the regular level sets.  The package rewrites
such data by rearrangement, cancellation, and wall splitting moves, and
drives any admissible datum into the splitting normal form where every
remaining handle is attached along the boundary wall.

The top level re-exports the data model and the entry points; every other
function is imported from its module.  Every module is imported here, so
each is an attribute of the package.
"""

from . import cli_io, errors, morse_data, moves, normal_form, slice_topology, trajectory
from .cli_io import GeneratorSpec, generate, parse_datum, serialize_datum
from .errors import InfeasibleSpec
from .morse_data import Ambient, CriticalPoint, Kind, MorseDatum, validate_datum
from .normal_form import global_split
from .slice_topology import ComponentEffect, EffectKind, SliceComplex, SliceComponent
from .trajectory import FlowEdge, Locus, TrajectoryGraph

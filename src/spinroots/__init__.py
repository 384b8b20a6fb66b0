"""Exact construction of rank-4 Coxeter root systems from rank-3 spinors."""

from .clifford import (E1, E2, E3, I, Multivector, apply_versor, reflect,
                       rotate, scalar, vector)
from .coxeter import (GROUPS, CapExceeded, CartanMatrix, RootSystem,
                      SimpleRoots, cartan_matrix, orbit_closure,
                      reflect_root, simple_roots, verify_root_system)
from .exactfield import ONE, SIGMA, SQRT2, SQRT5, SQRT10, TAU, ZERO, FieldScalar
from .quaternion import Quaternion, apply_pq, catalog
from .spingroup import (VersorGroup, catalog_match,
                        check_pure_quaternion_subrootsystem, classify_versors,
                        generate_from_two, generate_versor_group,
                        induce_rank4, run_pipeline)

__version__ = "0.1.0"

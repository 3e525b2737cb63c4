"""Numerical geometry of line bundles over the projective plane.

Constructs the sphere/projective-plane configuration spaces, the trivial and
nontrivial complex line bundles with their projectors and transition
functions, the correspondence between odd functions and sections, parallel
transport for projector connections with its Z2 holonomy, and the moving
two-spin basis with its exchange rule, then checks every identity
numerically.

The package exports nothing at top level: callers import the layer modules
(config_space, line_bundle, section_algebra, transport, kernels,
berry_robbins, experiments, cli).
"""

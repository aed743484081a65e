"""Central tolerance table.

Tolerances, floors and sample counts of the geometry kernel, the boundary
curves, the hull, the mesh, the discrete surfaces and the solvers live here,
so that modules do not hard-code their own numbers.  Every name here is read
by some module.
"""

# geometry kernel
CAUSAL_CLASS_TOL = 1e-8      # deciding timelike/null/spacelike of a normalized vector
ORTHO_TOL = 1e-8             # <p,v>=0 precondition of the geodesic exponential
SEPARATION_CLASS_TOL = 1e-9  # slack of -<p,q> against +-1 in lorentz_separation
NULL_TOL = 1e-8              # ruling_coords: relative |<v,v>| above this is not null
MOBIUS_DET_FLOOR = 1e-3      # random_mobius redraws matrices with det at or below this
TINY = 1e-300                # floor of a nonnegative quantity before a sqrt or a division

# boundary curves
ACHRONAL_TOL = 1e-9          # slack in |dtau| <= |dtheta| for sampled curves
LIGHTLIKE_RUN_TOL = 1e-9     # cells with |dtau/dtheta| >= 1 - this are lightlike
PLANAR_TOL = 1e-9            # singular-value ratio of a planar (Mobius) curve
QS_ANGLES = 24               # qs_modulus: rotations of the base quadruple over [0, pi)
QS_SCALES = 9                # qs_modulus: boosts on a symmetric log ladder
QS_MAX_LOG_SCALE = 3.0       # qs_modulus: largest |log| boost of the ladder
STEP_COEFF_CUT = 1e-17       # step_family drops Fourier coefficients at or below this

# convex hull / width
VERTICAL_FACET_TOL = 1e-6    # |time component of facet normal| below this -> vertical
WIDTH_REJECT_GAP = 1e-3      # solve_maximal rejects data whose width is >= pi/2 - this
POLE_MARGIN = 1e-12          # recentered curves must keep |tau| below pi/2 - this
HULL_BLOCK_ROWS = 32         # rows (points or past edges) per block of the facet margins, of hull_heights' elementwise pass and of width's search, which takes its Gram products block by block and builds no edge-pair table; ~130 KB per buffer at the ~510 searched future edges of 512 samples

# meshes
PAIR_BLOCK = 8192            # pairs per block of the passes over 2-ring stencils (fit) and edges (shape_data), cut between vertices, so a block may exceed it by one vertex's pairs; 64 KB per per-pair array
MESH_GRADING = 0.9           # exponent of the ring spacing in ring_radii; < 1 packs rings toward the rim
RING_SPAN_TOL = 1e-12        # ring_radii: relative error of the clamped steps' total span

# discrete surfaces
SPACELIKE_MARGIN = 1e-3      # default certified margin eps of a spacelike graph
MARGIN_FLOOR = 1e-7          # graphs below this margin are rejected outright
BOUNDARY_MASK_RINGS = 2      # curvature diagnostics masked this close to the rim
CHI_MASK_TOL = 1e-8          # |det B| below this -> chi is masked (flat spot)
CHI_SMOOTH_WIDTH = 0.25      # width (sqrt of variance) of the heat mollifier in chi_residual
CHI_VALID_FRAC = 0.98        # chi_residual keeps vertices whose diffused indicator exceeds this
CONE_FLOOR = 1e-14           # floor on 1 - w^2 |grad u|^2 before the gradient function v = 1/sqrt(.) is taken
GRADIENT_CAP = 0.999999      # vertex_gradient clamps w |du| to this fraction of the light cone
FIT_RIDGE = 1e-12            # ridge on the normal equations of fit_derivatives' cubic fit
SHAPE_RIDGE = 1e-14          # ridge on the normal equations of shape_data's shape operator fit
FOCAL_GUARD = 1e6            # equidistant refuses when |tan(arctan |k| + |r|)| exceeds this

# solvers
MEAN_CURV_TOL = 1e-6         # terminal max-norm of H ("tol_H")
STEP_UNDERFLOW = 1e-12       # flow step size below this aborts
MAX_NEWTON = 60              # Newton iterations per exhaustion stage
NEWTON_CG_RTOL = 1e-12       # relative residual at which a later Newton step's CG run (preconditioned by the solve's kept factor) stops
NEWTON_CG_MAXITER = 60       # CG iterations per later Newton step; a step that misses this cap is solved directly and refactors
FLOW_BUDGET = 4000           # flow steps in flow_run
FLOW_DS_GROWTH = 1.3         # flow step growth after an accepted step
FLOW_INFLATION = 1.5         # a flow step may raise sup|H| by at most this factor
SLOPE_LIMIT_ROUNDS = 200     # neighbour-average rounds in slope_limit
AREA_ROUNDOFF = 1e-12        # relative area drop a Newton line search still accepts as round-off
LINE_SEARCH_HALVINGS = 40    # step halvings before a Newton line search gives up
STAGNATION_STEP = 1e-3       # a Newton step length below this counts as stagnant
STAGNATION_COUNT = 5         # consecutive stagnant Newton steps that end a stage
WARM_START_FRAC = 0.98       # warm_start interpolates the previous stage inside this fraction of its radius
CAUCHY_COMMON_FRAC = 0.9     # Cauchy differences compare stages inside this fraction of the common radius
FLOW_CHECK_SKIP_FRAC = 0.05  # flow_bound_checks skips this leading share of the history (transient)
FLOW_CHECK_SLACK = 0.1       # relative slack of the appendix bound H^2 <= (n/2)/s
FLOW_CHECK_DU_SLACK = 0.01   # absolute slack of the appendix bound |u_s - u_0| <= sqrt(n s)

"""Central tolerance table.

All exact-identity checks in the geometry kernel use EXACT_TOL; renormalization
of quadric points is tighter.  Solver and mesh tolerances live here too so that
no module hard-codes its own numbers.
"""

# geometry kernel
QUADRIC_RENORM_TOL = 1e-12   # |<v,v>+1| after renormalization
EXACT_TOL = 1e-10            # closed-form identities (isometry, duality, geodesics)
CAUSAL_CLASS_TOL = 1e-8      # deciding timelike/null/spacelike of a normalized vector
ORTHO_TOL = 1e-8             # <p,v>=0 precondition of the geodesic exponential
SEPARATION_CLASS_TOL = 1e-9  # slack of -<p,q> against +-1 in lorentz_separation

# boundary curves
ACHRONAL_TOL = 1e-9          # slack in |dtau| <= |dtheta| for sampled curves
LIGHTLIKE_RUN_TOL = 1e-9     # cells with |dtau/dtheta| >= 1 - this are lightlike
PLANAR_TOL = 1e-9            # singular-value ratio of a planar (Mobius) curve

# convex hull / width
RESAMPLE_SPACING_RATIO = 3.0  # convex_hull resamples above this max/min dtheta
VERTICAL_FACET_TOL = 1e-6    # |time component of facet normal| below this -> vertical
HULL_FACET_TOL = 1e-9        # convexity slack for vertex-in-facet checks
WIDTH_REJECT_GAP = 1e-3      # solve_maximal rejects data whose width is >= pi/2 - this
REGULARITY_LEVEL = 2         # barycentric grid level of the past-hull samples in regularity_margin
REGULARITY_REFINE = 64       # regularity_margin refines at most this many argmin candidates
REGULARITY_CHART_DEPTH = 0.05  # regularity_margin drops hull samples with 1+z3^2-z1^2-z2^2 below this

# discrete surfaces
SPACELIKE_MARGIN = 1e-3      # default certified margin eps of a spacelike graph
MARGIN_FLOOR = 1e-7          # graphs below this margin are rejected outright
BOUNDARY_MASK_RINGS = 2      # curvature diagnostics masked this close to the rim
CHI_MASK_TOL = 1e-8          # |det B| below this -> chi is masked (flat spot)

# solvers
MEAN_CURV_TOL = 1e-6         # terminal max-norm of H ("tol_H")
STEP_UNDERFLOW = 1e-12       # flow step size below this aborts
MAX_NEWTON = 60              # Newton iterations per exhaustion stage
FLOW_BUDGET = 4000           # flow steps in flow_run
FLOW_DS_GROWTH = 1.3         # flow step growth after an accepted step
FLOW_INFLATION = 1.5         # a flow step may raise sup|H| by at most this factor
SLOPE_LIMIT_ROUNDS = 200     # neighbour-average rounds in slope_limit
FLOW_FALLBACK_STEPS = 200    # flow steps before solve_maximal retries Newton
AREA_ROUNDOFF = 1e-12        # relative area drop a Newton line search still accepts as round-off

//! Step 1: ring waveguide construction (Sec. III-A).
//!
//! Models the connection problem as a *modified travelling salesman*
//! problem: find a minimum-length cycle visiting every node once such that
//! the selected edges can be realized as L-shaped waveguides without
//! crossings. The MILP holds the degree constraints (1) and objective (4)
//! of the paper; everything else is separated lazily on integral
//! candidates: the conflict constraints (3), and one subtour cut
//! `Σ_{i,j∈S} x_ij ≤ |S|−1` per sub-cycle `S`, which for `|S| = 2` is
//! exactly constraint (2). The solver therefore returns one Hamiltonian
//! cycle of minimum length; the paper's heuristic sub-cycle merging
//! (Fig. 6(e)/(f)) is not needed.
//!
//! After an order is found, a 2-SAT instance assigns one L-route option
//! per edge so the realized ring is globally crossing-free.

use crate::error::SynthesisError;
use crate::heuristics::{heuristic_tour, perimeter_tour, tour_length};
use crate::netspec::{NetworkSpec, NodeId};
use crate::variation::SplitMix64;
use std::time::{Duration, Instant};
use xring_geom::{classify_edge_pair, LRoute, Point, Polyline, RouteOption, TwoSat};
use xring_milp::{
    progress, BranchAndBound, ConvergenceCollector, ConvergenceSummary, FactorizationKind, LinExpr,
    LpBackendKind, Model, PricingKind, Relation, VarId,
};

/// Travel direction on a ring waveguide. `Cw` follows the cycle order,
/// `Ccw` opposes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follows the cycle order (`order\[0\] → order\[1\] → …`).
    Cw,
    /// Opposes the cycle order.
    Ccw,
}

impl Direction {
    /// The opposite direction.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Cw => Direction::Ccw,
            Direction::Ccw => Direction::Cw,
        }
    }
}

/// Which algorithm constructs the node order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingAlgorithm {
    /// The paper's MILP (exact modified-TSP with lazy conflicts), warm
    /// started by [`heuristic_tour`].
    Milp,
    /// Nearest-neighbour + 2-opt only (ablation / large networks).
    Heuristic,
    /// Naive centroid-angle perimeter order (ablation baseline).
    Perimeter,
}

impl RingAlgorithm {
    /// Every algorithm, in declaration order.
    pub const ALL: [RingAlgorithm; 3] = [
        RingAlgorithm::Milp,
        RingAlgorithm::Heuristic,
        RingAlgorithm::Perimeter,
    ];

    /// Stable lowercase name, also accepted by [`FromStr`](std::str::FromStr).
    pub fn as_str(self) -> &'static str {
        match self {
            RingAlgorithm::Milp => "milp",
            RingAlgorithm::Heuristic => "heuristic",
            RingAlgorithm::Perimeter => "perimeter",
        }
    }
}

impl std::str::FromStr for RingAlgorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|a| a.as_str() == s)
            .ok_or_else(|| {
                let names = Self::ALL.map(Self::as_str).join("|");
                format!("unknown ring algorithm {s:?} (expected {names})")
            })
    }
}

/// Statistics from ring construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RingStats {
    /// Branch-and-bound nodes (0 for heuristic algorithms).
    pub milp_nodes: usize,
    /// LP relaxations solved (0 for heuristic algorithms).
    pub lp_solves: usize,
    /// LP solves that adopted the parent node's basis (warm starts).
    pub lp_warm_starts: usize,
    /// LP solves that were *offered* a parent basis — the denominator
    /// for the warm-start rate (only root and post-recovery solves are
    /// excluded).
    pub lp_warm_eligible: usize,
    /// Lazy conflict and subtour constraints separated.
    pub lazy_cuts: usize,
    /// Objective value of the MILP's optimal tour — its Manhattan length,
    /// perturbed on a retry (0.0 for heuristic algorithms).
    /// Backend-independent: alternate optimal tours may differ across LP
    /// kernels, but this value must agree.
    pub milp_objective: f64,
    /// True when the global 2-SAT option assignment was infeasible and a
    /// greedy crossing-minimizing fallback realized the geometry.
    pub twosat_fallback: bool,
    /// How the MILP solve converged (time to first incumbent, time to
    /// 1% gap, final gap). `Some` only when the ring was built by the
    /// MILP **and** telemetry was on — tracing enabled
    /// (`xring_obs::start`) or a solver-progress sink installed
    /// (`--solver-log`); `None` otherwise, so the telemetry-off hot
    /// path stays unchanged.
    pub convergence: Option<ConvergenceSummary>,
}

/// A realized ring: the node visiting order plus one L-route per edge.
#[derive(Debug, Clone, PartialEq)]
pub struct RingCycle {
    order: Vec<NodeId>,
    position_of: Vec<usize>,
    routes: Vec<LRoute>,
    /// `offset[p]`: clockwise ring length from position 0 to position
    /// `p`; `offset[len()]` is the perimeter.
    offset: Vec<i64>,
    /// Residual crossings between ring edges (0 unless the 2-SAT fallback
    /// was taken).
    residual_crossings: usize,
}

impl RingCycle {
    /// Realizes the geometry for a node order: picks one routing option
    /// per edge via 2-SAT so that no two ring edges cross; falls back to
    /// a greedy crossing-minimizing assignment when the pairwise-feasible
    /// order admits no global assignment.
    pub fn from_order(net: &NetworkSpec, order: Vec<NodeId>) -> (Self, bool) {
        let n = order.len();
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let endpoints: Vec<(Point, Point)> = (0..n)
            .map(|i| (net.position(order[i]), net.position(order[(i + 1) % n])))
            .collect();
        // Edges whose closed endpoint boxes are disjoint cannot cross
        // under any option, so only the overlapping pairs can add
        // clauses, constrain the fallback or cross.
        let pairs = overlapping_box_pairs(&endpoints);

        // 2-SAT: variable i == true  <=>  edge i routes VerticalFirst.
        // The clause order fixes which satisfying assignment is found:
        // pairs come in (i, j) order, as in an all-pairs loop.
        let mut sat = TwoSat::new(n);
        for &(i, j) in &pairs {
            let (i, j) = (i as usize, j as usize);
            let (a1, a2) = endpoints[i];
            let (b1, b2) = endpoints[j];
            let pair = classify_edge_pair(a1, a2, b1, b2);
            for (oi, oa) in RouteOption::BOTH.into_iter().enumerate() {
                for (oj, ob) in RouteOption::BOTH.into_iter().enumerate() {
                    if pair.crosses(oa, ob) {
                        sat.forbid_pair(i, oi == 1, j, oj == 1);
                    }
                }
            }
        }

        let (options, fallback) = match sat.solve() {
            Some(sol) => {
                let opts: Vec<RouteOption> = (0..n)
                    .map(|i| {
                        if sol.value(i) {
                            RouteOption::VerticalFirst
                        } else {
                            RouteOption::HorizontalFirst
                        }
                    })
                    .collect();
                (opts, false)
            }
            None => (greedy_options(&endpoints, &pairs), true),
        };
        xring_obs::counter("ring.twosat_fallback", u64::from(fallback));

        let routes: Vec<LRoute> = (0..n)
            .map(|i| LRoute::new(endpoints[i].0, endpoints[i].1, options[i]))
            .collect();
        let residual_crossings = pairs
            .iter()
            .filter(|&&(i, j)| routes[i as usize].crosses(&routes[j as usize]))
            .count();

        let mut position_of = vec![usize::MAX; net.len()];
        for (pos, id) in order.iter().enumerate() {
            position_of[id.index()] = pos;
        }
        let mut offset = Vec::with_capacity(n + 1);
        offset.push(0);
        for r in &routes {
            offset.push(offset[offset.len() - 1] + r.length());
        }

        (
            RingCycle {
                order,
                position_of,
                routes,
                offset,
                residual_crossings,
            },
            fallback,
        )
    }

    /// The cyclic node order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The cycle position of a node (index into [`order`](Self::order)).
    ///
    /// # Panics
    ///
    /// Panics if the node is not on the ring.
    pub fn position_of(&self, node: NodeId) -> usize {
        let pos = self.position_of[node.index()];
        assert!(pos != usize::MAX, "{node} is not on the ring");
        pos
    }

    /// The realized route of edge `i` (`order[i] → order[i+1 mod n]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn edge_route(&self, i: usize) -> &LRoute {
        &self.routes[i]
    }

    /// Length of edge `i` in µm.
    pub fn edge_length(&self, i: usize) -> i64 {
        self.routes[i].length()
    }

    /// Total ring perimeter in µm.
    pub fn perimeter(&self) -> i64 {
        self.offset[self.len()]
    }

    /// Residual crossings between ring edges (0 in the normal case).
    pub fn residual_crossings(&self) -> usize {
        self.residual_crossings
    }

    /// Length in µm of the arc from `from` to `to` in direction `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (a signal never targets its own node).
    pub fn arc_length(&self, from: usize, to: usize, dir: Direction) -> i64 {
        assert_ne!(from, to, "degenerate arc");
        // A counter-clockwise arc covers the clockwise arc's edges from
        // `to` back to `from`.
        let (from, to) = match dir {
            Direction::Cw => (from, to),
            Direction::Ccw => (to, from),
        };
        if from < to {
            self.offset[to] - self.offset[from]
        } else {
            self.perimeter() - (self.offset[from] - self.offset[to])
        }
    }

    /// Number of 90° bends on edge `i` plus the junction turn entering
    /// edge `i+1`.
    pub fn bends_on_edge(&self, i: usize) -> usize {
        let n = self.len();
        let internal = self.routes[i].bend_count();
        // Junction turn at the node between edge i and edge i+1: compare
        // the arrival direction of edge i with the departure direction of
        // edge i+1.
        let next = (i + 1) % n;
        let arrive_horizontal = {
            let r = &self.routes[i];
            let c = r.corner();
            if c == r.to() {
                // Degenerate: single segment.
                r.from().y == r.to().y
            } else {
                c.y == r.to().y
            }
        };
        let depart_horizontal = {
            let r = &self.routes[next];
            let c = r.corner();
            if c == r.from() {
                r.from().y == r.to().y
            } else {
                c.y == r.from().y
            }
        };
        internal + usize::from(arrive_horizontal != depart_horizontal)
    }

    /// The closed polyline of the realized ring (for feasibility checks
    /// against shortcuts and the PDN).
    pub fn polyline(&self) -> Polyline {
        let n = self.len();
        let mut vertices = Vec::with_capacity(2 * n);
        for r in &self.routes {
            vertices.push(r.from());
            let c = r.corner();
            if c != r.from() && c != r.to() {
                vertices.push(c);
            }
        }
        // Drop consecutive duplicates that arise from degenerate routes.
        vertices.dedup();
        if vertices.len() >= 2 && vertices[0] == *vertices.last().expect("non-empty") {
            vertices.pop();
        }
        Polyline::closed(vertices)
    }
}

/// Greedy crossing-minimizing options: edge by edge, the option that
/// crosses the fewest earlier edges, ties to `HorizontalFirst`. Only
/// the box-overlapping `pairs` can cross.
fn greedy_options(endpoints: &[(Point, Point)], pairs: &[(u32, u32)]) -> Vec<RouteOption> {
    let n = endpoints.len();
    // (j, i) for every overlapping pair i < j, grouped by the later edge.
    let mut by_later: Vec<(u32, u32)> = pairs.iter().map(|&(i, j)| (j, i)).collect();
    by_later.sort_unstable();
    let mut options = vec![RouteOption::HorizontalFirst; n];
    let mut rest = &by_later[..];
    for i in 0..n {
        let split = rest.partition_point(|&(j, _)| j as usize == i);
        let (earlier, later) = rest.split_at(split);
        rest = later;
        let mut best = (usize::MAX, RouteOption::HorizontalFirst);
        for opt in RouteOption::BOTH {
            let ri = LRoute::new(endpoints[i].0, endpoints[i].1, opt);
            let crossings = earlier
                .iter()
                .filter(|&&(_, j)| {
                    let (a, b) = endpoints[j as usize];
                    ri.crosses(&LRoute::new(a, b, options[j as usize]))
                })
                .count();
            if crossings < best.0 {
                best = (crossings, opt);
            }
        }
        options[i] = best.1;
    }
    options
}

/// The index pairs `(i, j)`, `i < j`, of the segments whose closed
/// endpoint boxes overlap, in lexicographic order. A sweep over the boxes
/// sorted by min x compares each box only with the boxes that start
/// within its x extent, so the cost is O(N log N + K) for K overlapping
/// x extents instead of N(N−1)/2 box tests.
fn overlapping_box_pairs(segments: &[(Point, Point)]) -> Vec<(u32, u32)> {
    let boxes: Vec<[i64; 4]> = segments
        .iter()
        .map(|&(a, b)| [a.x.min(b.x), a.x.max(b.x), a.y.min(b.y), a.y.max(b.y)])
        .collect();
    let mut by_min_x: Vec<u32> = (0..boxes.len() as u32).collect();
    by_min_x.sort_unstable_by_key(|&i| boxes[i as usize][0]);
    let mut pairs = Vec::new();
    for (k, &i) in by_min_x.iter().enumerate() {
        let [_, max_x, min_y, max_y] = boxes[i as usize];
        for &j in &by_min_x[k + 1..] {
            let other = boxes[j as usize];
            if other[0] > max_x {
                break; // every later box starts further right
            }
            if other[2] <= max_y && min_y <= other[3] {
                pairs.push((i.min(j), i.max(j)));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Builds the ring (Step 1).
#[derive(Debug, Clone)]
pub struct RingBuilder {
    algorithm: RingAlgorithm,
    max_milp_nodes: usize,
    deadline: Option<Instant>,
    objective_perturbation: Option<u64>,
    lp_backend: LpBackendKind,
    solver_threads: usize,
    pricing: PricingKind,
    factorization: FactorizationKind,
}

impl Default for RingBuilder {
    fn default() -> Self {
        RingBuilder {
            algorithm: RingAlgorithm::Milp,
            max_milp_nodes: 50_000,
            deadline: None,
            objective_perturbation: None,
            lp_backend: LpBackendKind::default(),
            solver_threads: 1,
            pricing: PricingKind::default(),
            factorization: FactorizationKind::default(),
        }
    }
}

/// The output of ring construction.
#[derive(Debug, Clone)]
pub struct RingOutcome {
    /// The realized ring.
    pub cycle: RingCycle,
    /// Construction statistics.
    pub stats: RingStats,
    /// Wall time of the construction; a replayed ring keeps its solve's.
    pub elapsed: Duration,
}

impl RingBuilder {
    /// A builder running the paper's MILP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the construction algorithm.
    pub fn with_algorithm(mut self, algorithm: RingAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Caps branch-and-bound nodes (MILP algorithm only).
    pub fn with_max_milp_nodes(mut self, max: usize) -> Self {
        self.max_milp_nodes = max;
        self
    }

    /// Sets a cooperative wall-clock deadline for the MILP search (see
    /// [`BranchAndBound::with_deadline`]); expiry surfaces as
    /// [`SynthesisError::DeadlineExceeded`]. The heuristic algorithms run
    /// to completion regardless — they are fast and have no node loop to
    /// interrupt.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Perturbs each MILP objective coefficient by a deterministic,
    /// seed-derived relative factor in `[1, 1 + 1e-6)` (MILP algorithm
    /// only). Used by the degradation chain's retry step: the tiny tilt
    /// breaks objective ties and steers branch-and-bound down a different
    /// search path after a numerical failure, while keeping any optimum
    /// within a negligible length of the unperturbed one. The warm-start
    /// incumbent is skipped when perturbing, both because its objective
    /// would no longer match and because the retry *wants* a fresh
    /// search. `None` (the default) solves the exact objective.
    pub fn with_objective_perturbation(mut self, seed: Option<u64>) -> Self {
        self.objective_perturbation = seed;
        self
    }

    /// Selects the LP backend the MILP relaxations run on (see
    /// [`LpBackendKind`]). The default revised simplex warm-starts child
    /// nodes from the parent basis; [`LpBackendKind::Dense`] is the
    /// slower reference tableau.
    pub fn with_lp_backend(mut self, backend: LpBackendKind) -> Self {
        self.lp_backend = backend;
        self
    }

    /// Sets the worker-thread count for the MILP's per-round node-batch
    /// LP solves (default 1, minimum 1). Deterministic: the design and
    /// objective are identical at every setting.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads.max(1);
        self
    }

    /// Selects the revised backend's pricing rule (see
    /// [`xring_milp::PricingKind`]).
    pub fn with_pricing(mut self, pricing: PricingKind) -> Self {
        self.pricing = pricing;
        self
    }

    /// Selects the revised backend's basis factorization (see
    /// [`xring_milp::FactorizationKind`]).
    pub fn with_factorization(mut self, factorization: FactorizationKind) -> Self {
        self.factorization = factorization;
        self
    }

    /// Constructs the ring for `net`.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::RingMilp`] when the MILP solver fails
    /// unrecoverably, [`SynthesisError::RingConstruction`] when the
    /// solution does not decode to one Hamiltonian cycle (the heuristic
    /// algorithms cannot fail).
    pub fn build(&self, net: &NetworkSpec) -> Result<RingOutcome, SynthesisError> {
        let t0 = Instant::now();
        let from_tour = |order| {
            let (cycle, twosat_fallback) = RingCycle::from_order(net, order);
            let stats = RingStats {
                twosat_fallback,
                ..RingStats::default()
            };
            (cycle, stats)
        };
        let (cycle, stats) = match self.algorithm {
            RingAlgorithm::Perimeter => from_tour(perimeter_tour(net)),
            RingAlgorithm::Heuristic => from_tour(heuristic_tour(net)),
            RingAlgorithm::Milp => self.build_milp(net)?,
        };
        Ok(RingOutcome {
            cycle,
            stats,
            elapsed: t0.elapsed(),
        })
    }

    #[allow(clippy::needless_range_loop)] // index loops mirror the b_ij matrix notation
    fn build_milp(&self, net: &NetworkSpec) -> Result<(RingCycle, RingStats), SynthesisError> {
        let n = net.len();
        let mut model = Model::new();

        // One binary per directed edge.
        let mut var: Vec<Vec<Option<VarId>>> = vec![vec![None; n]; n];
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * (n - 1));
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    var[i][j] = Some(model.add_binary(format!("b_{i}_{j}")));
                    edges.push((i, j));
                }
            }
        }
        let v = |i: usize, j: usize| -> Result<VarId, SynthesisError> {
            var[i][j].ok_or_else(|| SynthesisError::RingConstruction {
                detail: format!("edge variable b_{i}_{j} missing from the model"),
            })
        };

        // Constraint (1): every vertex has exactly one incoming and one
        // outgoing selected edge.
        for i in 0..n {
            let outgoing: Vec<VarId> = (0..n)
                .filter(|&j| j != i)
                .map(|j| v(i, j))
                .collect::<Result<_, _>>()?;
            let incoming: Vec<VarId> = (0..n)
                .filter(|&j| j != i)
                .map(|j| v(j, i))
                .collect::<Result<_, _>>()?;
            model.add_constraint(LinExpr::sum(outgoing), Relation::Eq, 1.0);
            model.add_constraint(LinExpr::sum(incoming), Relation::Eq, 1.0);
        }
        // Objective (4): total Manhattan length, optionally tilted by a
        // deterministic relative perturbation (degradation retry).
        let mut obj = LinExpr::new();
        for &(i, j) in &edges {
            let mut coeff = net.distance(NodeId(i as u32), NodeId(j as u32)) as f64;
            if let Some(seed) = self.objective_perturbation {
                coeff *= perturbation_factor(seed, i, j);
            }
            obj += (v(i, j)?, coeff);
        }
        model.set_objective(obj);

        // Lazy separation of the conflict constraints (3) and of one
        // subtour cut per sub-cycle (constraint (2) when |S| = 2).
        let separate = |values: &[f64]| {
            let succ = successors(&var, values);
            let Ok(cycles) = subcycles(&succ) else {
                // Not an assignment; the decode below reports it.
                return Vec::new();
            };
            let mut cuts = Vec::new();
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    let (j1, j2) = (succ[i1], succ[i2]);
                    if i1 == j2 || j1 == i2 || j1 == j2 {
                        continue; // edges sharing a node never conflict
                    }
                    let c = classify_edge_pair(
                        net.position(NodeId(i1 as u32)),
                        net.position(NodeId(j1 as u32)),
                        net.position(NodeId(i2 as u32)),
                        net.position(NodeId(j2 as u32)),
                    );
                    if c.is_conflicting() {
                        if let (Some(e1), Some(e2)) = (var[i1][j1], var[i2][j2]) {
                            cuts.push((LinExpr::sum([e1, e2]), Relation::Le, 1.0));
                        }
                    }
                }
            }
            if cycles.len() > 1 {
                for cycle in &cycles {
                    let inside = cycle.iter().flat_map(|&i| {
                        let row = &var[i];
                        cycle.iter().filter_map(move |&j| row[j])
                    });
                    cuts.push((LinExpr::sum(inside), Relation::Le, (cycle.len() - 1) as f64));
                }
            }
            cuts
        };

        let mut solver = BranchAndBound::new()
            .with_max_nodes(self.max_milp_nodes)
            .with_deadline(self.deadline)
            .with_lp_backend(self.lp_backend)
            .with_solver_threads(self.solver_threads)
            .with_pricing(self.pricing)
            .with_factorization(self.factorization);
        // Warm start with the heuristic tour when the separation accepts
        // it and the objective is exact (a perturbed retry wants a fresh
        // search).
        if self.objective_perturbation.is_none() {
            let tour = heuristic_tour(net);
            let mut values = vec![0.0f64; model.num_vars()];
            for k in 0..n {
                let a = tour[k].index();
                let b = tour[(k + 1) % n].index();
                values[v(a, b)?.index()] = 1.0;
            }
            if separate(&values).is_empty() {
                solver = solver.with_incumbent(values, tour_length(net, &tour) as f64);
            }
        }

        // Attach the convergence collector only when someone can see
        // its output (a trace or a --solver-log sink); otherwise the
        // solve keeps the plain one-relaxed-load telemetry-off path.
        let mut collector =
            (xring_obs::enabled() || progress::sink_enabled()).then(ConvergenceCollector::new);
        let solution = match collector.as_mut() {
            Some(collector) => solver.solve_with_lazy_observed(&model, separate, collector)?,
            None => solver.solve_with_lazy(&model, separate)?,
        };
        let convergence = collector.map(ConvergenceCollector::finish);

        let cycles = subcycles(&successors(&var, solution.values()))
            .map_err(|detail| SynthesisError::RingConstruction { detail })?;
        let [order] = cycles.as_slice() else {
            return Err(SynthesisError::RingConstruction {
                detail: format!(
                    "MILP solution decodes to {} sub-cycles, not one Hamiltonian cycle",
                    cycles.len()
                ),
            });
        };
        let order = order.iter().map(|&i| NodeId(i as u32)).collect();

        let (cycle, fb) = RingCycle::from_order(net, order);
        let stats = RingStats {
            milp_nodes: solution.stats().nodes,
            lp_solves: solution.stats().lp_solves,
            lp_warm_starts: solution.stats().warm_starts,
            lp_warm_eligible: solution.stats().warm_eligible,
            lazy_cuts: solution.stats().lazy_constraints,
            milp_objective: solution.objective(),
            twosat_fallback: fb,
            convergence,
        };
        Ok((cycle, stats))
    }
}

/// Deterministic relative perturbation factor for the objective
/// coefficient of edge `(i, j)` under `seed`: `1 + 1e-6 * u` with
/// `u ∈ [0, 1)` drawn from a SplitMix64 stream keyed on the edge, so the
/// factor is independent of iteration order.
fn perturbation_factor(seed: u64, i: usize, j: usize) -> f64 {
    let edge_key = ((i as u64) << 32 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    1.0 + 1.0e-6 * SplitMix64::new(seed ^ edge_key).next_f64()
}

/// The successor of every node in the 0/1 edge selection `values`
/// (`usize::MAX` for a node with no selected outgoing edge).
fn successors(var: &[Vec<Option<VarId>>], values: &[f64]) -> Vec<usize> {
    var.iter()
        .map(|row| {
            row.iter()
                .position(|v| v.is_some_and(|v| values[v.index()] > 0.5))
                .unwrap_or(usize::MAX)
        })
        .collect()
}

/// Splits a successor map into its cycles, each walked from its smallest
/// node. Shared by the MILP's subtour separation and its final decode.
///
/// # Errors
///
/// A description of the first node without an outgoing edge or with two
/// incoming edges: the map is then no permutation and the walk would not
/// close.
fn subcycles(succ: &[usize]) -> Result<Vec<Vec<usize>>, String> {
    let n = succ.len();
    if let Some(orphan) = (0..n).find(|&i| succ[i] >= n) {
        return Err(format!(
            "node {orphan} has no outgoing edge in the MILP solution"
        ));
    }
    let mut entered = vec![false; n];
    if let Some(&twice) = succ
        .iter()
        .find(|&&j| std::mem::replace(&mut entered[j], true))
    {
        return Err(format!(
            "node {twice} has two incoming edges in the MILP solution"
        ));
    }
    let mut cycles = Vec::new();
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut cycle = vec![start];
        seen[start] = true;
        let mut cur = succ[start];
        while cur != start {
            seen[cur] = true;
            cycle.push(cur);
            cur = succ[cur];
        }
        cycles.push(cycle);
    }
    Ok(cycles)
}

/// Edge and position lists of an arc: the oracles that
/// [`LaneArc`](crate::mapping::LaneArc)'s interval methods are tested
/// against.
#[cfg(test)]
impl RingCycle {
    /// The edges covered when travelling from cycle position `from` to
    /// cycle position `to` in direction `dir`. Edge `i` connects
    /// positions `i` and `i+1 (mod n)`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (a signal never targets its own node).
    pub(crate) fn arc_edges(&self, from: usize, to: usize, dir: Direction) -> Vec<usize> {
        assert_ne!(from, to, "degenerate arc");
        let n = self.len();
        let mut edges = Vec::new();
        match dir {
            Direction::Cw => {
                let mut p = from;
                while p != to {
                    edges.push(p);
                    p = (p + 1) % n;
                }
            }
            Direction::Ccw => {
                let mut p = from;
                while p != to {
                    p = (p + n - 1) % n;
                    edges.push(p);
                }
            }
        }
        edges
    }

    /// The interior cycle positions strictly between `from` and `to` when
    /// travelling in `dir` (nodes passed through).
    pub(crate) fn interior_positions(&self, from: usize, to: usize, dir: Direction) -> Vec<usize> {
        let n = self.len();
        let mut out = Vec::new();
        let mut p = from;
        loop {
            p = match dir {
                Direction::Cw => (p + 1) % n,
                Direction::Ccw => (p + n - 1) % n,
            };
            if p == to {
                break;
            }
            out.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_cycle(net: &NetworkSpec, cycle: &RingCycle) {
        assert_eq!(cycle.len(), net.len());
        let mut seen = vec![false; net.len()];
        for id in cycle.order() {
            assert!(!seen[id.index()], "node repeated in cycle");
            seen[id.index()] = true;
        }
    }

    #[test]
    fn milp_ring_on_square() {
        let net = NetworkSpec::regular_grid(2, 2, 1_000).expect("valid");
        let out = RingBuilder::new().build(&net).expect("solved");
        assert_valid_cycle(&net, &out.cycle);
        assert_eq!(out.cycle.perimeter(), 4_000);
        assert_eq!(out.cycle.residual_crossings(), 0);
    }

    #[test]
    fn milp_ring_on_3x3_grid_is_optimal() {
        // Odd grid: optimal closed rectilinear tour visiting all 9 cells
        // has length 10 * pitch.
        let net = NetworkSpec::regular_grid(3, 3, 1_000).expect("valid");
        let out = RingBuilder::new().build(&net).expect("solved");
        assert_valid_cycle(&net, &out.cycle);
        assert!(
            out.cycle.perimeter() <= 10_000,
            "perimeter {} exceeds optimum",
            out.cycle.perimeter()
        );
        assert_eq!(out.cycle.residual_crossings(), 0);
    }

    #[test]
    fn milp_matches_or_beats_heuristic() {
        let net = NetworkSpec::irregular(9, 8_000, 11).expect("valid");
        let milp = RingBuilder::new().build(&net).expect("milp");
        let heur = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("heuristic");
        assert_valid_cycle(&net, &milp.cycle);
        // A heuristic ring without residual crossings has no conflicting
        // edge pair, so its tour is feasible for the MILP, whose optimum
        // cannot be longer.
        if heur.cycle.residual_crossings() == 0 {
            assert!(
                milp.cycle.perimeter() <= heur.cycle.perimeter(),
                "milp {} vs heuristic {}",
                milp.cycle.perimeter(),
                heur.cycle.perimeter()
            );
        }
    }

    /// True when no pair of tour edges is geometrically conflicting: the
    /// reference for the MILP's lazy conflict separation.
    fn tour_is_conflict_free(net: &NetworkSpec, tour: &[NodeId]) -> bool {
        let n = tour.len();
        for a in 0..n {
            for b in a + 1..n {
                let (i1, j1) = (tour[a], tour[(a + 1) % n]);
                let (i2, j2) = (tour[b], tour[(b + 1) % n]);
                if i1 == i2 || i1 == j2 || j1 == i2 || j1 == j2 {
                    continue;
                }
                if classify_edge_pair(
                    net.position(i1),
                    net.position(j1),
                    net.position(i2),
                    net.position(j2),
                )
                .is_conflicting()
                {
                    return false;
                }
            }
        }
        true
    }

    /// The shortest tour without a pairwise-conflicting edge pair — the
    /// MILP's feasible set — over every order that starts at node 0.
    fn brute_force_minimum(net: &NetworkSpec) -> Option<i64> {
        fn extend(net: &NetworkSpec, tour: &mut Vec<NodeId>, best: &mut Option<i64>) {
            if tour.len() == net.len() {
                let len = tour_length(net, tour);
                if best.is_none_or(|b| len < b) && tour_is_conflict_free(net, tour) {
                    *best = Some(len);
                }
                return;
            }
            for id in (1..net.len()).map(|i| NodeId(i as u32)) {
                if !tour.contains(&id) {
                    tour.push(id);
                    extend(net, tour, best);
                    tour.pop();
                }
            }
        }
        let mut best = None;
        extend(net, &mut vec![NodeId(0)], &mut best);
        best
    }

    #[test]
    fn milp_ring_is_the_shortest_conflict_free_tour() {
        let mut nets = Vec::new();
        for n in 5..=8 {
            for seed in 1..=12u64 {
                let net = NetworkSpec::irregular(n, 4_000, seed).expect("irregular");
                nets.push((format!("irregular {n} seed {seed}"), net));
            }
        }
        // Two far-apart clusters: the assignment optimum is one cycle
        // per cluster, so the solver has to cut it apart.
        let clusters = [
            (0, 0),
            (1_200, 300),
            (400, 1_500),
            (1_100, 1_400),
            (9_000, 200),
            (10_300, 0),
            (9_600, 1_100),
            (10_200, 1_600),
        ];
        let clusters = NetworkSpec::new(clusters.iter().map(|&(x, y)| Point::new(x, y)).collect());
        nets.push(("two clusters".to_owned(), clusters.expect("valid")));
        for (name, net) in &nets {
            let out = RingBuilder::new().build(net).expect("solved");
            if name == "two clusters" {
                assert!(out.stats.lazy_cuts > 0, "the assignment LP did not split");
            }
            assert_valid_cycle(net, &out.cycle);
            assert_eq!(
                Some(out.cycle.perimeter()),
                brute_force_minimum(net),
                "{name}"
            );
            assert_eq!(out.cycle.residual_crossings(), 0, "{name}");
        }
    }

    #[test]
    fn ring_on_proton_8() {
        let net = NetworkSpec::proton_8();
        let out = RingBuilder::new().build(&net).expect("solved");
        assert_valid_cycle(&net, &out.cycle);
        // 2x4 grid, pitch 1.5mm: optimal tour = 8 edges = 12 mm.
        assert_eq!(out.cycle.perimeter(), 12_000);
        assert_eq!(out.cycle.residual_crossings(), 0);
    }

    #[test]
    fn perturbed_objective_still_finds_an_optimal_ring() {
        // The perturbation is ≤ 1e-6 relative while tour lengths differ by
        // ≥ 1 µm, so a perturbed solve must land on a tour of exactly
        // optimal length — just possibly a different one.
        let net = NetworkSpec::proton_8();
        let plain = RingBuilder::new().build(&net).expect("solved");
        let perturbed = RingBuilder::new()
            .with_objective_perturbation(Some(0xDEAD_BEEF))
            .build(&net)
            .expect("solved");
        assert_valid_cycle(&net, &perturbed.cycle);
        assert_eq!(perturbed.cycle.perimeter(), plain.cycle.perimeter());
        assert_eq!(perturbed.cycle.residual_crossings(), 0);
    }

    #[test]
    fn arc_edges_cw_and_ccw() {
        let net = NetworkSpec::regular_grid(2, 2, 1_000).expect("valid");
        let out = RingBuilder::new().build(&net).expect("solved");
        let c = &out.cycle;
        let cw = c.arc_edges(0, 2, Direction::Cw);
        assert_eq!(cw, vec![0, 1]);
        let ccw = c.arc_edges(0, 2, Direction::Ccw);
        assert_eq!(ccw, vec![3, 2]);
        assert_eq!(
            c.arc_length(0, 2, Direction::Cw) + c.arc_length(2, 0, Direction::Cw),
            c.perimeter()
        );
    }

    #[test]
    fn arc_length_sums_the_arc_edges() {
        let net = NetworkSpec::psion_16();
        let out = RingBuilder::new().build(&net).expect("solved");
        let c = &out.cycle;
        for from in 0..c.len() {
            for to in (0..c.len()).filter(|&to| to != from) {
                for dir in [Direction::Cw, Direction::Ccw] {
                    let edges = c.arc_edges(from, to, dir);
                    let summed: i64 = edges.iter().map(|&e| c.edge_length(e)).sum();
                    assert_eq!(c.arc_length(from, to, dir), summed);
                }
            }
        }
    }

    /// The original arc length: walk the arc edge by edge.
    fn reference_arc_length(c: &RingCycle, from: usize, to: usize, dir: Direction) -> i64 {
        let n = c.len();
        let (mut p, mut len) = (from, 0);
        while p != to {
            match dir {
                Direction::Cw => {
                    len += c.edge_length(p);
                    p = (p + 1) % n;
                }
                Direction::Ccw => {
                    p = (p + n - 1) % n;
                    len += c.edge_length(p);
                }
            }
        }
        len
    }

    #[test]
    fn arc_length_matches_the_edge_walk() {
        for (name, net) in crate::netspec::oracle_floorplans() {
            let (c, _) = RingCycle::from_order(&net, heuristic_tour(&net));
            let summed: i64 = (0..c.len()).map(|e| c.edge_length(e)).sum();
            assert_eq!(c.perimeter(), summed, "{name}");
            for from in 0..c.len() {
                for to in (0..c.len()).filter(|&to| to != from) {
                    for dir in [Direction::Cw, Direction::Ccw] {
                        assert_eq!(
                            c.arc_length(from, to, dir),
                            reference_arc_length(&c, from, to, dir),
                            "{name}: {from} -> {to} {dir:?}"
                        );
                    }
                }
            }
        }
    }

    /// All pairs `i < j` whose closed boxes share a point, in (i, j) order.
    fn reference_box_pairs(segments: &[(Point, Point)]) -> Vec<(u32, u32)> {
        let overlap = |a: i64, b: i64, c: i64, d: i64| a.min(b) <= c.max(d) && c.min(d) <= a.max(b);
        let mut pairs = Vec::new();
        for (i, &(a1, a2)) in segments.iter().enumerate() {
            for (j, &(b1, b2)) in segments.iter().enumerate().skip(i + 1) {
                if overlap(a1.x, a2.x, b1.x, b2.x) && overlap(a1.y, a2.y, b1.y, b2.y) {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }

    #[test]
    fn box_sweep_matches_the_all_pairs_reference() {
        let p = Point::new;
        // Boxes that touch only on a boundary: at equal min x, where one
        // box ends exactly where another starts, at a corner, along a
        // degenerate (zero-width or zero-height) box; and ones one unit
        // apart.
        let touching = vec![
            (p(0, 0), p(10, 10)),
            (p(10, 20), p(20, 10)),
            (p(0, 11), p(0, 30)),
            (p(20, 0), p(30, 5)),
            (p(10, 0), p(10, 0)),
            (p(0, -5), p(-10, 0)),
            (p(31, 5), p(40, 5)),
            (p(-10, 30), p(0, 30)),
            (p(0, 0), p(10, 10)),
        ];
        assert_eq!(
            overlapping_box_pairs(&touching),
            reference_box_pairs(&touching)
        );
        assert!(overlapping_box_pairs(&touching).contains(&(0, 1)));
        for (name, net) in crate::netspec::oracle_floorplans() {
            for tour in [heuristic_tour(&net), perimeter_tour(&net)] {
                let n = tour.len();
                let edges: Vec<(Point, Point)> = (0..n)
                    .map(|i| (net.position(tour[i]), net.position(tour[(i + 1) % n])))
                    .collect();
                assert_eq!(
                    overlapping_box_pairs(&edges),
                    reference_box_pairs(&edges),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn interior_positions_excludes_endpoints() {
        let net = NetworkSpec::proton_8();
        let out = RingBuilder::new().build(&net).expect("solved");
        let ints = out.cycle.interior_positions(0, 3, Direction::Cw);
        assert_eq!(ints, vec![1, 2]);
        assert_eq!(
            out.cycle.interior_positions(0, 1, Direction::Cw),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn polyline_length_matches_perimeter() {
        let net = NetworkSpec::proton_8();
        let out = RingBuilder::new().build(&net).expect("solved");
        assert_eq!(out.cycle.polyline().length(), out.cycle.perimeter());
    }

    #[test]
    fn perimeter_algorithm_gives_valid_ring() {
        let net = NetworkSpec::psion_16();
        let out = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Perimeter)
            .build(&net)
            .expect("built");
        assert_valid_cycle(&net, &out.cycle);
    }

    /// The crossing test `from_order` originally ran: every pair of
    /// `segments()`, allocated per call, with no bounding-box rejection.
    fn crosses_by_segments(a: &LRoute, b: &LRoute) -> bool {
        let theirs = b.segments();
        a.segments()
            .iter()
            .any(|sa| theirs.iter().any(|sb| sa.crosses_properly(sb)))
    }

    /// The original all-pairs realization: 2-SAT clauses from the four
    /// option combinations of every edge pair, the greedy fallback and
    /// the residual count, all on [`crosses_by_segments`]. Returns the
    /// routes, residual crossings and fallback flag.
    fn reference_realization(net: &NetworkSpec, order: &[NodeId]) -> (Vec<LRoute>, usize, bool) {
        let n = order.len();
        let endpoints: Vec<(Point, Point)> = (0..n)
            .map(|i| (net.position(order[i]), net.position(order[(i + 1) % n])))
            .collect();
        let route = |i: usize, o: RouteOption| LRoute::new(endpoints[i].0, endpoints[i].1, o);
        let mut sat = TwoSat::new(n);
        for i in 0..n {
            for j in i + 1..n {
                for (oi, oa) in RouteOption::BOTH.into_iter().enumerate() {
                    for (oj, ob) in RouteOption::BOTH.into_iter().enumerate() {
                        if crosses_by_segments(&route(i, oa), &route(j, ob)) {
                            sat.forbid_pair(i, oi == 1, j, oj == 1);
                        }
                    }
                }
            }
        }
        let (options, fallback) = match sat.solve() {
            Some(sol) => {
                let opts = (0..n)
                    .map(|i| RouteOption::BOTH[usize::from(sol.value(i))])
                    .collect();
                (opts, false)
            }
            None => {
                let mut opts = vec![RouteOption::HorizontalFirst; n];
                for i in 0..n {
                    let mut best = (usize::MAX, RouteOption::HorizontalFirst);
                    for opt in RouteOption::BOTH {
                        let crossings = (0..i)
                            .filter(|&j| crosses_by_segments(&route(i, opt), &route(j, opts[j])))
                            .count();
                        if crossings < best.0 {
                            best = (crossings, opt);
                        }
                    }
                    opts[i] = best.1;
                }
                (opts, true)
            }
        };
        let routes: Vec<LRoute> = (0..n).map(|i| route(i, options[i])).collect();
        let mut residual = 0;
        for i in 0..n {
            for j in i + 1..n {
                residual += usize::from(crosses_by_segments(&routes[i], &routes[j]));
            }
        }
        (routes, residual, fallback)
    }

    #[test]
    fn from_order_matches_the_all_pairs_reference() {
        use crate::heuristics::nearest_neighbor_tour;
        let mut nets: Vec<(String, NetworkSpec)> = Vec::new();
        for (rows, cols) in [(3, 3), (4, 4), (4, 8), (8, 8), (12, 12)] {
            let net = NetworkSpec::regular_grid(rows, cols, 1_000).expect("grid");
            nets.push((format!("grid {rows}x{cols}"), net));
        }
        // Small dies make dense nets with many shared coordinates; the
        // 128-node die is the heuristic-large floorplan size.
        for seed in 1..=5u64 {
            for (n, die_um) in [
                (8, 1_500),
                (16, 2_500),
                (32, 4_000),
                (64, 8_000),
                (128, 28_000),
            ] {
                let net = NetworkSpec::irregular(n, die_um, seed).expect("irregular");
                nets.push((format!("irregular {n}/{die_um} seed {seed}"), net));
            }
        }
        nets.extend(crate::netspec::oracle_floorplans());
        type Tour = fn(&NetworkSpec) -> Vec<NodeId>;
        let orders: [(&str, Tour); 3] = [
            ("heuristic", heuristic_tour),
            ("perimeter", perimeter_tour),
            ("nearest-neighbour", nearest_neighbor_tour),
        ];
        let mut fallbacks = 0;
        for (name, net) in &nets {
            for (order_name, tour) in orders {
                let order = tour(net);
                let (cycle, fallback) = RingCycle::from_order(net, order.clone());
                let routes: Vec<LRoute> = (0..cycle.len()).map(|i| *cycle.edge_route(i)).collect();
                let got = (routes, cycle.residual_crossings(), fallback);
                assert_eq!(
                    got,
                    reference_realization(net, &order),
                    "{name}, {order_name} order"
                );
                fallbacks += usize::from(fallback);
            }
        }
        assert!(fallbacks > 0, "no case took the greedy fallback");
    }

    #[test]
    fn twosat_fallback_is_counted() {
        let count = |net: &NetworkSpec| {
            let ctx = xring_obs::RequestCtx::new(xring_obs::RequestId::mint(0, 0, 0));
            let out = {
                let _scope = ctx.attach();
                RingBuilder::new()
                    .with_algorithm(RingAlgorithm::Heuristic)
                    .build(net)
                    .expect("heuristic ring")
            };
            (
                out.stats.twosat_fallback,
                ctx.finish().total("ring.twosat_fallback"),
            )
        };
        let (mut with, mut without) = (0, 0);
        for seed in 1..=6u64 {
            let net = NetworkSpec::irregular(128, 28_000, seed).expect("irregular");
            let (fallback, counted) = count(&net);
            assert_eq!(counted, u64::from(fallback), "seed {seed}");
            with += usize::from(fallback);
            without += usize::from(!fallback);
        }
        assert!(
            with > 0 && without > 0,
            "{with} with fallback, {without} without"
        );
    }

    #[test]
    fn position_of_inverts_order() {
        let net = NetworkSpec::proton_8();
        let out = RingBuilder::new().build(&net).expect("solved");
        for (pos, id) in out.cycle.order().iter().enumerate() {
            assert_eq!(out.cycle.position_of(*id), pos);
        }
    }
}

//! Maximum cycle ratio solvers.
//!
//! The Precedence component (§4.9 of the paper) bounds throughput by the
//! maximum, over all cycles `C` of a dependence graph, of
//! `Σ latency(e) / Σ iteration_count(e)` for `e ∈ C`.
//!
//! * [`max_cycle_ratio_howard`] — Howard's policy-iteration algorithm
//!   over the full graph, as used by the paper (citing Dasdan's survey):
//!   the one production solver. The precedence kernel takes the bound
//!   and the critical chain from the same call (the cycle choice,
//!   rotation included, is what the golden reports pin). A linear
//!   worklist first peels every node that cannot lie on a cycle, so the
//!   long acyclic tails of straight-line dependence graphs cost O(V+E)
//!   and an acyclic graph is answered without policy iteration.
//! * [`max_cycle_ratio_lawler`] — Lawler's binary search over λ with
//!   Bellman–Ford positive-cycle detection: Howard's fallback if policy
//!   iteration fails to converge, and its cross-check in the tests.
//!
//! All edge weights that reach these solvers are sums of small integral
//! latencies, so cycle sums are exact in `f64` regardless of summation
//! order, and Howard's ratio is the exact `Σw / Σt` of its critical
//! cycle.

/// An edge of a ratio graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct REdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Latency weight (numerator contribution).
    pub weight: f64,
    /// Iteration count (denominator contribution); 0 for intra-iteration
    /// edges, 1 for loop-carried edges.
    pub count: u32,
}

/// A directed graph with two edge weights, for cycle-ratio queries.
#[derive(Debug, Clone, Default)]
pub struct RatioGraph {
    n: usize,
    edges: Vec<REdge>,
}

impl RatioGraph {
    /// An empty graph with `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> RatioGraph {
        RatioGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Reset to an empty graph with `n` nodes, keeping the edge buffer's
    /// allocation (for scratch-arena reuse across calls).
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Add an edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the weight is negative/NaN.
    pub fn add_edge(&mut self, from: usize, to: usize, weight: f64, count: u32) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert!(weight >= 0.0, "negative or NaN latency weight");
        self.edges.push(REdge {
            from,
            to,
            weight,
            count,
        });
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges of the graph.
    #[must_use]
    pub fn edges(&self) -> &[REdge] {
        &self.edges
    }
}

const EPS: f64 = 1e-9;

/// Result of a maximum-cycle-ratio query.
#[derive(Debug, Clone, PartialEq)]
pub enum Mcr {
    /// The graph has no cycle (through counted edges): no bound.
    Acyclic,
    /// The maximum ratio and one critical cycle achieving it, as a list of
    /// node indices in order (the cycle closes from the last back to the
    /// first).
    Ratio {
        /// The maximum cycle ratio.
        value: f64,
        /// Nodes of a critical cycle.
        cycle: Vec<usize>,
    },
    /// A cycle with positive latency but zero iteration count exists: the
    /// constraint system is infeasible (cannot happen for well-formed
    /// dependence graphs).
    Unbounded,
}

impl Mcr {
    /// The ratio as a plain number: 0 for acyclic graphs, infinity when
    /// unbounded.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self {
            Mcr::Acyclic => 0.0,
            Mcr::Ratio { value, .. } => *value,
            Mcr::Unbounded => f64::INFINITY,
        }
    }
}

/// Reusable buffers for [`max_cycle_ratio_howard`]. The solver runs
/// once per prediction whose dependence graph has a loop-carried edge;
/// without reuse each call makes a dozen vector allocations.
#[derive(Debug, Default)]
struct HowardScratch {
    alive: Vec<bool>,
    // Edge indices grouped by source and by target (see `group_edges`),
    // and the live out/in-degrees the dead-node peel counts down.
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    in_start: Vec<u32>,
    in_edges: Vec<u32>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    work: Vec<usize>,
    policy: Vec<Option<usize>>,
    lambda: Vec<f64>,
    dist: Vec<f64>,
    cycle_of: Vec<Option<usize>>,
    state: Vec<u8>,
    path: Vec<usize>,
}

thread_local! {
    static HOWARD_SCRATCH: std::cell::RefCell<HowardScratch> =
        std::cell::RefCell::new(HowardScratch::default());
}

fn reset<T: Clone>(buf: &mut Vec<T>, n: usize, value: T) {
    buf.clear();
    buf.resize(n, value);
}

/// Group the edge indices of `g` by the node `key` picks (a counting
/// sort): the edges of node `v` are `list[start[v]..start[v + 1]]`, in
/// edge order.
fn group_edges(
    g: &RatioGraph,
    key: impl Fn(&REdge) -> usize,
    start: &mut Vec<u32>,
    list: &mut Vec<u32>,
) {
    let n = g.num_nodes();
    reset(start, n + 1, 0u32);
    for e in g.edges() {
        start[key(e)] += 1;
    }
    // Inclusive prefix sums: `start[v]` is the end of v's range ...
    for v in 1..=n {
        start[v] += start[v - 1];
    }
    // ... and filling back to front moves it to the range's start.
    reset(list, g.num_edges(), 0u32);
    for (ei, e) in g.edges().iter().enumerate().rev() {
        let k = key(e);
        start[k] -= 1;
        list[start[k] as usize] = ei as u32;
    }
}

/// Restrict `s.alive` to the nodes that can lie on a cycle: the largest
/// node set in which every node has an incoming and an outgoing edge.
/// A worklist peels nodes whose live in- or out-degree drops to zero,
/// so each edge is looked at a constant number of times, even on a long
/// acyclic dependence tail. The set is unique, so the peel order does
/// not matter.
fn peel_dead_nodes(g: &RatioGraph, s: &mut HowardScratch) {
    let n = g.num_nodes();
    group_edges(g, |e| e.from, &mut s.out_start, &mut s.out_edges);
    group_edges(g, |e| e.to, &mut s.in_start, &mut s.in_edges);
    reset(&mut s.alive, n, true);
    s.out_deg.clear();
    s.out_deg
        .extend(s.out_start.windows(2).map(|w| w[1] - w[0]));
    s.in_deg.clear();
    s.in_deg.extend(s.in_start.windows(2).map(|w| w[1] - w[0]));
    s.work.clear();
    for v in 0..n {
        if s.out_deg[v] == 0 || s.in_deg[v] == 0 {
            s.alive[v] = false;
            s.work.push(v);
        }
    }
    while let Some(v) = s.work.pop() {
        for i in s.out_start[v] as usize..s.out_start[v + 1] as usize {
            let w = g.edges()[s.out_edges[i] as usize].to;
            if s.alive[w] {
                s.in_deg[w] -= 1;
                if s.in_deg[w] == 0 {
                    s.alive[w] = false;
                    s.work.push(w);
                }
            }
        }
        for i in s.in_start[v] as usize..s.in_start[v + 1] as usize {
            let u = g.edges()[s.in_edges[i] as usize].from;
            if s.alive[u] {
                s.out_deg[u] -= 1;
                if s.out_deg[u] == 0 {
                    s.alive[u] = false;
                    s.work.push(u);
                }
            }
        }
    }
}

/// Maximum cycle ratio via Howard's policy iteration, with one critical
/// cycle. Callers that want the bound alone take [`Mcr::value`].
#[must_use]
pub fn max_cycle_ratio_howard(g: &RatioGraph) -> Mcr {
    let mcr = HOWARD_SCRATCH.with(|s| howard_with(g, &mut s.borrow_mut()));
    let path = if matches!(mcr, Mcr::Acyclic) {
        ACYCLIC
    } else {
        HOWARD
    };
    SOLVES.add(path, 1);
    mcr
}

#[allow(clippy::too_many_lines)]
fn howard_with(g: &RatioGraph, s: &mut HowardScratch) -> Mcr {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return Mcr::Acyclic;
    }

    peel_dead_nodes(g, s);
    let alive = &s.alive;
    if !alive.iter().any(|a| *a) {
        return Mcr::Acyclic;
    }

    // Initial policy: any outgoing edge to a live node.
    let policy = &mut s.policy;
    reset(policy, n, None);
    for (ei, e) in g.edges().iter().enumerate() {
        if alive[e.from] && alive[e.to] && policy[e.from].is_none() {
            policy[e.from] = Some(ei);
        }
    }

    let lambda = &mut s.lambda;
    let dist = &mut s.dist;
    let cycle_of = &mut s.cycle_of; // representative node of the policy cycle reached
    reset(lambda, n, f64::NEG_INFINITY);
    reset(dist, n, 0.0f64);
    reset(cycle_of, n, None);
    let mut best = Mcr::Acyclic;

    for _round in 0..1000 {
        // --- policy evaluation ---
        // Walk the functional policy graph; every live node reaches exactly
        // one cycle.
        let state = &mut s.state; // 0 unvisited, 1 in progress, 2 done
        reset(state, n, 0u8);
        let mut unbounded = false;
        for start in 0..n {
            if !alive[start] || state[start] != 0 {
                continue;
            }
            // Follow the policy path, marking in-progress nodes.
            let path = &mut s.path;
            path.clear();
            let mut v = start;
            while alive[v] && state[v] == 0 {
                state[v] = 1;
                path.push(v);
                v = g.edges()[policy[v].expect("live node has a policy edge")].to;
            }
            if state[v] == 1 {
                // Found a new cycle starting at `v` within `path`.
                let pos = path.iter().position(|x| *x == v).expect("v is on path");
                let cyc = &path[pos..];
                let mut w_sum = 0.0;
                let mut t_sum = 0u32;
                for &u in cyc {
                    let e = g.edges()[policy[u].expect("policy edge")];
                    w_sum += e.weight;
                    t_sum += e.count;
                }
                let lam = if t_sum == 0 {
                    if w_sum > EPS {
                        unbounded = true;
                        f64::INFINITY
                    } else {
                        0.0
                    }
                } else {
                    w_sum / f64::from(t_sum)
                };
                // Anchor distances on the cycle: d(v) = 0, propagate
                // backwards around the cycle using
                // d(u) = w(u,π(u)) − λ·t + d(π(u)). `cyc` runs in policy
                // order from v, so each node's predecessor precedes it.
                dist[v] = 0.0;
                lambda[v] = lam;
                cycle_of[v] = Some(v);
                let mut u = v;
                for &pred in cyc[1..].iter().rev() {
                    let e = g.edges()[policy[pred].expect("edge")];
                    dist[pred] = e.weight - lam * f64::from(e.count) + dist[u];
                    lambda[pred] = lam;
                    cycle_of[pred] = Some(v);
                    u = pred;
                }
                for &u in cyc {
                    state[u] = 2;
                }
            }
            // Unwind the tree part of the path (nodes feeding the cycle).
            for &u in path.iter().rev() {
                if state[u] == 2 {
                    continue;
                }
                let e = g.edges()[policy[u].expect("edge")];
                let succ = e.to;
                lambda[u] = lambda[succ];
                cycle_of[u] = cycle_of[succ];
                dist[u] = e.weight - lambda[u] * f64::from(e.count) + dist[succ];
                state[u] = 2;
            }
        }
        if unbounded {
            return Mcr::Unbounded;
        }

        // --- policy improvement ---
        let mut changed = false;
        for (ei, e) in g.edges().iter().enumerate() {
            if !alive[e.from] || !alive[e.to] {
                continue;
            }
            let (u, v) = (e.from, e.to);
            if lambda[v] > lambda[u] + EPS {
                policy[u] = Some(ei);
                changed = true;
            } else if (lambda[v] - lambda[u]).abs() <= EPS {
                let cand = e.weight - lambda[u] * f64::from(e.count) + dist[v];
                if cand > dist[u] + EPS {
                    policy[u] = Some(ei);
                    changed = true;
                }
            }
        }
        if !changed {
            // Converged: the answer is the best policy cycle.
            let lam = lambda
                .iter()
                .zip(alive.iter())
                .filter(|(_, a)| **a)
                .map(|(l, _)| *l)
                .fold(f64::NEG_INFINITY, f64::max);
            if lam == f64::NEG_INFINITY {
                return Mcr::Acyclic;
            }
            // Extract one critical cycle: walk the policy from a node whose
            // λ equals the maximum.
            let start = (0..n)
                .find(|&v| alive[v] && (lambda[v] - lam).abs() <= EPS * lam.abs().max(1.0))
                .expect("a node attains the maximum ratio");
            let rep = cycle_of[start].expect("evaluated node has a cycle");
            let mut cycle = vec![rep];
            let mut v = g.edges()[policy[rep].expect("edge")].to;
            while v != rep {
                cycle.push(v);
                v = g.edges()[policy[v].expect("edge")].to;
            }
            best = Mcr::Ratio {
                value: lam.max(0.0),
                cycle,
            };
            break;
        }
    }
    if matches!(best, Mcr::Acyclic) {
        // The iteration cap was reached without convergence (should not
        // happen for well-formed graphs); fall back to the binary-search
        // solver so callers still get a sound answer.
        return max_cycle_ratio_lawler(g);
    }
    best
}

/// How often [`max_cycle_ratio_howard`] has run, process-wide, by
/// outcome: one relaxed counter bump per call, cheap enough to stay on
/// in production, so the perf harness can show what share of solves
/// find a cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolvePathCounts {
    /// Calls that found no cycle through counted edges.
    pub acyclic: u64,
    /// Always 0; kept so readers that sum all four fields still build.
    pub simple_cycle: u64,
    /// Always 0; kept so readers that sum all four fields still build.
    pub longest_path: u64,
    /// Calls that found a cycle (a ratio, or an unbounded one).
    pub howard: u64,
}

/// Howard calls per path, in per-thread cells: every worker solves, so
/// one shared counter would be written by all of them.
static SOLVES: facile_util::Counters<2> = facile_util::Counters::new();
const ACYCLIC: usize = 0;
const HOWARD: usize = 1;

/// Current [`SolvePathCounts`].
#[must_use]
pub fn solve_path_counts() -> SolvePathCounts {
    SolvePathCounts {
        acyclic: SOLVES.get(ACYCLIC),
        simple_cycle: 0,
        longest_path: 0,
        howard: SOLVES.get(HOWARD),
    }
}

/// Maximum cycle ratio via Lawler's binary search with Bellman–Ford
/// positive-cycle detection. Returns the ratio only (no cycle extraction).
#[must_use]
pub fn max_cycle_ratio_lawler(g: &RatioGraph) -> Mcr {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return Mcr::Acyclic;
    }
    // A cycle with Σt = 0 and Σw > 0 makes the problem unbounded. Detect it
    // by looking for a positive cycle among count-0 edges only.
    if has_positive_cycle(g, |e| if e.count == 0 { Some(e.weight) } else { None }) {
        return Mcr::Unbounded;
    }
    // Is there any cycle through counted edges at all? λ = -1 makes every
    // counted edge attractive; weights are non-negative, so a positive
    // cycle w.r.t. (w + t) exists iff a cycle with Σt ≥ 1 exists.
    if !has_positive_cycle(g, |e| Some(e.weight + f64::from(e.count))) {
        return Mcr::Acyclic;
    }
    let mut lo = 0.0f64;
    let mut hi = 1.0 + g.edges().iter().map(|e| e.weight).sum::<f64>();
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if has_positive_cycle(g, |e| Some(e.weight - mid * f64::from(e.count))) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Mcr::Ratio {
        value: lo.max(0.0),
        cycle: Vec::new(),
    }
}

/// Bellman–Ford-style detection of a cycle with positive total weight under
/// the given edge-weight mapping (edges mapped to `None` are absent).
fn has_positive_cycle(g: &RatioGraph, weight: impl Fn(&REdge) -> Option<f64>) -> bool {
    let n = g.num_nodes();
    let mut d = vec![0.0f64; n];
    for round in 0..n {
        let mut changed = false;
        for e in g.edges() {
            let Some(w) = weight(e) else { continue };
            let cand = d[e.from] + w;
            if cand > d[e.to] + EPS {
                d[e.to] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n - 1 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(g: &RatioGraph) -> f64 {
        let h = max_cycle_ratio_howard(g);
        let l = max_cycle_ratio_lawler(g);
        assert!(
            (h.value() - l.value()).abs() < 1e-6,
            "howard {} != lawler {}",
            h.value(),
            l.value()
        );
        h.value()
    }

    #[test]
    fn empty_graph() {
        let g = RatioGraph::new(0);
        assert_eq!(max_cycle_ratio_howard(&g), Mcr::Acyclic);
        assert_eq!(max_cycle_ratio_lawler(&g), Mcr::Acyclic);
    }

    #[test]
    fn acyclic_graph() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 5.0, 0);
        g.add_edge(1, 2, 5.0, 1);
        assert_eq!(ratio(&g), 0.0);
    }

    #[test]
    fn self_loop() {
        let mut g = RatioGraph::new(1);
        g.add_edge(0, 0, 4.0, 1);
        assert!((ratio(&g) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn two_cycles_max_wins() {
        let mut g = RatioGraph::new(4);
        // cycle A: 0 -> 1 -> 0 with total weight 6 over 1 iteration
        g.add_edge(0, 1, 5.0, 0);
        g.add_edge(1, 0, 1.0, 1);
        // cycle B: 2 -> 3 -> 2 with total weight 8 over 2 iterations
        g.add_edge(2, 3, 4.0, 1);
        g.add_edge(3, 2, 4.0, 1);
        assert!((ratio(&g) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn multi_iteration_cycle() {
        // One long cycle spanning 3 iterations with latency 9 -> ratio 3.
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 3.0, 1);
        g.add_edge(1, 2, 3.0, 1);
        g.add_edge(2, 0, 3.0, 1);
        assert!((ratio(&g) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn shared_node_cycles() {
        let mut g = RatioGraph::new(3);
        // small fast loop at node 0
        g.add_edge(0, 0, 1.0, 1);
        // bigger slow loop 0 -> 1 -> 2 -> 0
        g.add_edge(0, 1, 4.0, 0);
        g.add_edge(1, 2, 4.0, 0);
        g.add_edge(2, 0, 4.0, 1);
        assert!((ratio(&g) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn unbounded_zero_count_cycle() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 0);
        g.add_edge(1, 0, 1.0, 0);
        assert_eq!(max_cycle_ratio_howard(&g), Mcr::Unbounded);
        assert_eq!(max_cycle_ratio_lawler(&g), Mcr::Unbounded);
    }

    #[test]
    fn critical_cycle_is_reported() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 1.0, 1); // ratio-1 cycle
        g.add_edge(1, 0, 0.0, 0);
        g.add_edge(2, 3, 7.0, 1); // ratio-7 cycle (critical)
        g.add_edge(3, 2, 0.0, 0);
        let Mcr::Ratio { value, cycle } = max_cycle_ratio_howard(&g) else {
            panic!("expected a ratio");
        };
        assert!((value - 7.0).abs() < 1e-6);
        let mut c = cycle.clone();
        c.sort_unstable();
        assert_eq!(c, vec![2, 3]);
    }

    #[test]
    fn dependence_chain_shape() {
        // Mimics `add rax, [rsi]` loop-carried through rax: latency 6 via
        // the load path, 1 via the direct path; the direct path is the
        // carried one.
        let mut g = RatioGraph::new(3);
        // node 0: rax consumed; node 1: rax produced; node 2: rsi consumed
        g.add_edge(0, 1, 1.0, 0); // alu latency
        g.add_edge(2, 1, 6.0, 0); // load + alu latency
        g.add_edge(1, 0, 0.0, 1); // loop-carried rax dependence
        assert!((ratio(&g) - 1.0).abs() < 1e-6);
    }
}

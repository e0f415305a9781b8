//! Property tests for the maximum-cycle-ratio solvers: Howard's policy
//! iteration must agree with the independent Lawler binary-search solver,
//! and the reported critical cycle must actually attain the reported
//! ratio. Inputs are random counted graphs, dense single-SCC graphs with
//! many interleaved carried cycles, and graphs of several such SCCs
//! chained by forward bridges.

use facile_core::mcr::{max_cycle_ratio_howard, max_cycle_ratio_lawler, Mcr, RatioGraph};
use proptest::prelude::*;

/// Random graph where backward edges always carry (count 1), so every
/// cycle crosses an iteration boundary — the shape dependence graphs
/// have, which also rules out `Unbounded`.
fn counted_graph() -> impl Strategy<Value = RatioGraph> {
    (2usize..14).prop_flat_map(|n| {
        proptest::collection::vec(
            (0..n, 0..n, 0u32..20, prop_oneof![Just(0u32), Just(1u32)]),
            1..40,
        )
        .prop_map(move |edges| {
            let mut g = RatioGraph::new(n);
            for (a, b, w, c) in edges {
                // Forward intra-iteration edges, backward/loop edges carry.
                let count = if a < b { c } else { 1 };
                g.add_edge(a, b, f64::from(w), count);
            }
            g
        })
    })
}

/// A dense SCC: a carried ring through all `m` nodes (guaranteeing
/// strong connectivity) plus many chords, several of them carried, so
/// policy iteration has multiple interleaved cycles to choose among.
fn dense_scc_edges(
    base: usize,
    m: usize,
    chords: Vec<(usize, usize, u32, u32)>,
) -> Vec<(usize, usize, f64, u32)> {
    let mut edges: Vec<(usize, usize, f64, u32)> = (0..m)
        .map(|i| (base + i, base + (i + 1) % m, 1.0, 1))
        .collect();
    for (a, b, w, c) in chords {
        edges.push((base + a % m, base + b % m, f64::from(w), c.min(1)));
    }
    edges
}

fn dense_cycle_graph() -> impl Strategy<Value = RatioGraph> {
    (3usize..10).prop_flat_map(|m| {
        proptest::collection::vec((0..m, 0..m, 0u32..16, 0u32..2), m..4 * m).prop_map(
            move |chords| {
                let mut g = RatioGraph::new(m);
                for (a, b, w, c) in dense_scc_edges(0, m, chords) {
                    g.add_edge(a, b, w, c);
                }
                g
            },
        )
    })
}

/// Several disjoint dense SCCs chained by forward (non-carried) edges:
/// the answer is the best component's, and no cycle crosses a bridge.
fn multi_scc_graph() -> impl Strategy<Value = RatioGraph> {
    (2usize..5, 2usize..6).prop_flat_map(|(k, m)| {
        proptest::collection::vec(
            proptest::collection::vec((0..m, 0..m, 0u32..16, 0u32..2), 0..3 * m),
            k..k + 1,
        )
        .prop_map(move |clusters| {
            let n = k * m;
            let mut g = RatioGraph::new(n);
            for (ci, chords) in clusters.into_iter().enumerate() {
                for (a, b, w, c) in dense_scc_edges(ci * m, m, chords) {
                    g.add_edge(a, b, w, c);
                }
                if ci + 1 < k {
                    // Forward bridge: keeps the clusters separate SCCs.
                    g.add_edge(ci * m, (ci + 1) * m, 2.0, 0);
                }
            }
            g
        })
    })
}

/// Every generator above: the inputs of the Howard checks.
fn any_graph() -> impl Strategy<Value = RatioGraph> {
    prop_oneof![counted_graph(), dense_cycle_graph(), multi_scc_graph()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn howard_agrees_with_lawler(g in any_graph()) {
        let h = max_cycle_ratio_howard(&g);
        let l = max_cycle_ratio_lawler(&g);
        match (&h, &l) {
            (Mcr::Acyclic, Mcr::Acyclic) | (Mcr::Unbounded, Mcr::Unbounded) => {}
            _ => {
                let (hv, lv) = (h.value(), l.value());
                prop_assert!(
                    (hv - lv).abs() < 1e-5 * lv.abs().max(1.0),
                    "howard {hv} vs lawler {lv}"
                );
            }
        }
    }

    #[test]
    fn critical_cycle_attains_the_ratio(g in any_graph()) {
        if let Mcr::Ratio { value, cycle } = max_cycle_ratio_howard(&g) {
            prop_assert!(!cycle.is_empty());
            // Walk the cycle and accumulate the best edge between each
            // consecutive pair; the reported ratio must be attainable.
            let mut w_sum = 0.0;
            let mut t_sum = 0u32;
            let mut ok = true;
            for (i, &u) in cycle.iter().enumerate() {
                let v = cycle[(i + 1) % cycle.len()];
                // The policy picked a specific edge; any edge u->v gives a
                // lower bound on what the cycle can achieve. Pick the one
                // maximizing w - value*t to verify feasibility.
                let best = g
                    .edges()
                    .iter()
                    .filter(|e| e.from == u && e.to == v)
                    .map(|e| (e.weight, e.count))
                    .max_by(|a, b| {
                        let ka = a.0 - value * f64::from(a.1);
                        let kb = b.0 - value * f64::from(b.1);
                        ka.partial_cmp(&kb).expect("no NaN")
                    });
                match best {
                    Some((w, t)) => {
                        w_sum += w;
                        t_sum += t;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            prop_assert!(ok, "cycle edges must exist in the graph");
            if t_sum > 0 {
                let attained = w_sum / f64::from(t_sum);
                prop_assert!(
                    attained >= value - 1e-6,
                    "cycle attains {attained}, reported {value}"
                );
            }
        }
    }

    #[test]
    fn ratio_is_bounded_by_extremes(g in counted_graph()) {
        // The max cycle ratio cannot exceed the total weight of all edges
        // and cannot be negative.
        if let Mcr::Ratio { value, .. } = max_cycle_ratio_howard(&g) {
            let total: f64 = g.edges().iter().map(|e| e.weight).sum();
            prop_assert!(value >= 0.0);
            prop_assert!(value <= total + 1e-9);
        }
    }

    #[test]
    fn adding_an_edge_never_decreases_the_ratio(g in counted_graph(), w in 0u32..20) {
        let before = max_cycle_ratio_howard(&g).value();
        let mut g2 = g.clone();
        let n = g2.num_nodes();
        g2.add_edge(n - 1, 0, f64::from(w), 1);
        let after = max_cycle_ratio_howard(&g2).value();
        prop_assert!(after >= before - 1e-6, "{after} < {before}");
    }
}

//! Equivalence proptests for the structure-aware MCR solver.
//!
//! [`solve_value`] (Tarjan SCC condensation + per-SCC fast paths +
//! Howard-inside-SCC) must be **bit-identical** in ratio to full-graph
//! Howard ([`max_cycle_ratio_howard`]) — on the dependence graphs of
//! random generated blocks across all nine microarchitectures, and on
//! adversarial synthetic graphs built to force every per-SCC strategy,
//! including dense multi-cycle SCCs and graphs with many separate SCCs.
//! All generated weights are small integers, so cycle/path sums are
//! exact in `f64` and bit-equality is the right notion (not epsilon
//! closeness).

use facile_core::mcr::{max_cycle_ratio_howard, solve_path_counts, solve_value, Mcr, RatioGraph};
use facile_core::precedence;
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use proptest::prelude::*;

fn assert_equivalent(g: &RatioGraph) {
    let reference = max_cycle_ratio_howard(g);
    let got = solve_value(g);
    match (&got, &reference) {
        (Mcr::Acyclic, Mcr::Acyclic) | (Mcr::Unbounded, Mcr::Unbounded) => {}
        (Mcr::Ratio { value, .. }, Mcr::Ratio { value: want, .. }) => {
            prop_assert_eq!(
                value.to_bits(),
                want.to_bits(),
                "solve_value {} vs Howard {}",
                value,
                want
            );
        }
        _ => prop_assert!(false, "variant mismatch: {got:?} vs {reference:?}"),
    }
}

/// Random graph where backward edges always carry (count 1), so every
/// cycle crosses an iteration boundary — the shape dependence graphs
/// have, which also rules out `Unbounded`.
fn counted_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = RatioGraph> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, 0u32..20, prop_oneof![Just(0u32), Just(1u32)]),
            1..max_edges,
        )
        .prop_map(move |edges| {
            let mut g = RatioGraph::new(n);
            for (a, b, w, c) in edges {
                let count = if a < b { c } else { 1 };
                g.add_edge(a, b, f64::from(w), count);
            }
            g
        })
    })
}

/// A dense SCC: a carried ring through all `m` nodes (guaranteeing
/// strong connectivity) plus many chords, several of them carried —
/// multiple interleaved cycles, so neither the simple-cycle nor the
/// single-carried-edge fast path applies and Howard runs inside the SCC.
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
/// forces the condensation to separate components and solve each.
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

/// A random block from the BHive-like generator.
fn any_block() -> impl Strategy<Value = facile_bhive::Bench> {
    (0u64..400, 0usize..8).prop_map(|(seed, idx)| {
        facile_bhive::generate_suite(idx + 1, 5000 + seed)
            .pop()
            .expect("suite is non-empty")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The SCC solver agrees bit-for-bit with full-graph Howard on
    /// random counted graphs.
    #[test]
    fn solve_matches_reference_on_random_graphs(g in counted_graph(14, 40)) {
        assert_equivalent(&g);
    }

    /// ... and on dense single-SCC graphs with many interleaved carried
    /// cycles (the Howard-inside-SCC path).
    #[test]
    fn solve_matches_reference_on_dense_cycles(g in dense_cycle_graph()) {
        assert_equivalent(&g);
    }

    /// ... and on graphs with several nontrivial SCCs, where the answer
    /// is the max over components.
    #[test]
    fn solve_matches_reference_on_multi_scc_graphs(g in multi_scc_graph()) {
        assert_equivalent(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On real dependence graphs — random generated blocks × all nine
    /// microarchitectures, both notions' block shapes — the bound-only
    /// fast path (`solve_value` behind `precedence_bound`) is
    /// bit-identical to the chain path (full-graph Howard behind
    /// `precedence`), and the chain-ratio invariant holds.
    #[test]
    fn precedence_bound_matches_reference_across_uarchs(bench in any_block()) {
        for block in [&bench.unrolled, &bench.looped] {
            if block.is_empty() {
                continue;
            }
            for u in Uarch::ALL {
                let ab = AnnotatedBlock::new(block.clone(), u);
                let full = precedence::precedence(&ab);
                let bound = precedence::precedence_bound(&ab);
                prop_assert_eq!(
                    bound.to_bits(),
                    full.bound.to_bits(),
                    "{}: fast {} vs reference {}",
                    u,
                    bound,
                    full.bound
                );
                // Chain-ratio invariant: Σlatency / #carried == bound.
                let carried = full.critical_chain.iter().filter(|s| s.loop_carried).count();
                if carried > 0 {
                    let lat: f64 = full.critical_chain.iter().map(|s| s.latency).sum();
                    let ratio = lat / carried as f64;
                    prop_assert_eq!(
                        ratio.to_bits(),
                        full.bound.to_bits(),
                        "{}: chain ratio {} vs bound {}",
                        u,
                        ratio,
                        full.bound
                    );
                }
            }
        }
    }
}

/// The dense-cycle generator really does force Howard policy iteration
/// inside an SCC (the counters are process-wide and monotone, so a
/// strict increase is assertable even with concurrent tests).
#[test]
fn dense_graph_takes_the_howard_path() {
    let mut g = RatioGraph::new(4);
    for (a, b, w, c) in dense_scc_edges(0, 4, vec![(0, 2, 7, 1), (2, 0, 3, 1), (1, 3, 5, 1)]) {
        g.add_edge(a, b, w, c);
    }
    let before = solve_path_counts().howard;
    let got = solve_value(&g);
    let after = solve_path_counts().howard;
    assert!(after > before, "expected the Howard-inside-SCC path");
    assert_eq!(
        got.value().to_bits(),
        max_cycle_ratio_howard(&g).value().to_bits()
    );
}

/// Multi-SCC shape: each component contributes, the max wins, and the
/// simple-cycle fast path result is exact.
#[test]
fn multi_scc_max_wins() {
    // SCC A: 2-node cycle with ratio 6/1; SCC B: self-loop ratio 4;
    // bridge keeps them separate components.
    let mut g = RatioGraph::new(3);
    g.add_edge(0, 1, 5.0, 0);
    g.add_edge(1, 0, 1.0, 1);
    g.add_edge(1, 2, 9.0, 0); // bridge (no cycle through it)
    g.add_edge(2, 2, 4.0, 1);
    let got = solve_value(&g);
    assert_eq!(got.value().to_bits(), 6.0f64.to_bits());
    assert_eq!(
        got.value().to_bits(),
        max_cycle_ratio_howard(&g).value().to_bits()
    );
}

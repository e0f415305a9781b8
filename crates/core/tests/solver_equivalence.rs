//! The bound-only precedence path agrees with the chain path.
//!
//! Both run one Howard solve of the same dependence graph; the bound
//! path only skips naming the critical cycle. On the dependence graphs
//! of random generated blocks across all nine microarchitectures the
//! two bounds must be **bit-identical**, and the chain's latencies over
//! its loop-carried hops must reproduce the bound. All weights are
//! small integers, so cycle sums are exact in `f64` and bit-equality is
//! the right notion (not epsilon closeness). The solver itself is
//! cross-checked against Lawler's in `mcr_proptests.rs`.

use facile_core::mcr::{max_cycle_ratio_howard, Mcr, RatioGraph};
use facile_core::precedence;
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use proptest::prelude::*;

/// A random block from the BHive-like generator.
fn any_block() -> impl Strategy<Value = facile_bhive::Bench> {
    (0u64..400, 0usize..8).prop_map(|(seed, idx)| {
        facile_bhive::generate_suite(idx + 1, 5000 + seed)
            .pop()
            .expect("suite is non-empty")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On real dependence graphs — random generated blocks × all nine
    /// microarchitectures, both notions' block shapes — the bound-only
    /// path (`precedence_bound`) is bit-identical to the chain path
    /// (`precedence`), and the chain-ratio invariant holds.
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
                    "{}: bound-only {} vs chain path {}",
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

/// Multi-SCC shape: each component has a cycle, the max wins, and the
/// critical cycle is the winning component's.
#[test]
fn multi_scc_max_wins() {
    // SCC A: 2-node cycle with ratio 6/1; SCC B: self-loop ratio 4;
    // bridge keeps them separate components.
    let mut g = RatioGraph::new(3);
    g.add_edge(0, 1, 5.0, 0);
    g.add_edge(1, 0, 1.0, 1);
    g.add_edge(1, 2, 9.0, 0); // bridge (no cycle through it)
    g.add_edge(2, 2, 4.0, 1);
    let Mcr::Ratio { value, mut cycle } = max_cycle_ratio_howard(&g) else {
        panic!("expected a ratio");
    };
    assert_eq!(value.to_bits(), 6.0f64.to_bits());
    cycle.sort_unstable();
    assert_eq!(cycle, vec![0, 1]);
}

//! End-to-end annotation equivalence over generated corpora: the
//! table-served path (`AnnotatedBlock::new`: the build-time descriptor
//! tables, with the runtime classifier for forms they miss) and the pure
//! runtime-classifier path (`new_uninterned`, which skips the tables)
//! must agree instruction by instruction — descriptors, effects, and the
//! precomputed kernel columns — on every microarchitecture, for table
//! hits and fallbacks alike. In the names below, "interned" means the
//! table-served path.

use facile_bhive::{generate_suite, BlockStream};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use proptest::prelude::*;

/// Assert the two annotation paths agree on one block.
fn assert_paths_agree(block: &facile_x86::Block, u: Uarch) {
    let interned = AnnotatedBlock::new(block.clone(), u);
    let reference = AnnotatedBlock::new_uninterned(block.clone(), u);
    assert_eq!(
        interned.insts(),
        reference.insts(),
        "annotation paths diverge on {u} for {}",
        block.to_hex()
    );
    assert_eq!(
        interned.columns(),
        reference.columns(),
        "kernel columns diverge on {u} for {}",
        block.to_hex()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stream-generated random blocks: table path == reference path.
    #[test]
    fn interned_matches_uninterned_on_random_blocks(
        seed in 0u64..5000,
        idx in 0usize..6,
        uarch_idx in 0usize..Uarch::ALL.len(),
    ) {
        let gb = BlockStream::new(seed).nth(idx).expect("infinite stream");
        assert_paths_agree(&gb.block, Uarch::ALL[uarch_idx]);
    }
}

/// The benchmark suite corpus drives both the table hit path and the
/// runtime fallback (the generators emit addressing shapes the probe
/// corpus does not key, e.g. absolute displacements), so this one run
/// pins equivalence on both paths and proves both counters actually
/// move.
#[test]
fn suite_corpus_exercises_hits_and_fallbacks_bit_identically() {
    let before = facile_isa::static_table_stats();
    for bench in generate_suite(200, 2023) {
        assert_paths_agree(&bench.unrolled, Uarch::Skl);
        assert_paths_agree(&bench.looped, Uarch::Rkl);
    }
    let after = facile_isa::static_table_stats();
    // The counters are process-wide and monotonic, so concurrent tests
    // only ever add to them: the deltas are lower bounds.
    assert!(
        after.hits > before.hits,
        "suite corpus never hit the static tables"
    );
    assert!(
        after.fallbacks > before.fallbacks,
        "suite corpus never took the runtime fallback — the fallback \
         path is untested"
    );
}

/// Table-missed loads in each [`fallback_heavy`] block.
const MISSED_PER_BLOCK: u64 = 3;

/// Blocks dominated by forms the static tables miss: absolute-
/// displacement loads, each with its own displacement, between
/// table-served ALU forms, ending in a macro-fused pair (a loading
/// `cmp eax, [disp32]; jne` head in odd blocks, `dec r11; jne` in even
/// ones).
fn fallback_heavy(blocks: u32) -> Vec<facile_x86::Block> {
    let abs = |op: &[u8], disp: u32| [op, &[0x04, 0x25], &disp.to_le_bytes()].concat();
    (0..blocks)
        .map(|b| {
            let d = |k: u32| 0x1000 * b + 8 * k;
            let mut bytes = [
                abs(&[0x8b], d(0)),           // mov eax, [disp32]
                vec![0x48, 0x01, 0xc8],       // add rax, rcx
                abs(&[0x48, 0x03], d(1)),     // add rax, [disp32]
                vec![0x48, 0x0f, 0xaf, 0xd0], // imul rdx, rax
                abs(&[0x48, 0x8b], d(2)),     // mov rax, [disp32]
            ]
            .concat();
            bytes.extend(if b % 2 == 1 {
                abs(&[0x3b], d(3)) // cmp eax, [disp32]
            } else {
                vec![0x49, 0xff, 0xcb] // dec r11
            });
            let back = 0xfe - bytes.len() as u8;
            bytes.extend([0x75, back]); // jne to the block start
            facile_x86::Block::decode(bytes).expect("fallback block decodes")
        })
        .collect()
}

/// The runtime classifier, which annotation runs in place for every
/// table-missed form, equals the reference path on all nine
/// microarchitectures, mixed with table-served forms and macro-fused
/// pairs, and is what serves those loads: the fallback counter moves by
/// at least one per load and annotation.
#[test]
fn fallback_heavy_blocks_match_the_reference_on_every_uarch() {
    let blocks = fallback_heavy(64);
    let head = AnnotatedBlock::new(blocks[1].clone(), Uarch::Skl);
    let tail = head.insts().get(6).expect("seven instructions");
    assert!(tail.fused_with_prev, "cmp eax, [disp32]; jne does not fuse");
    for block in &blocks {
        let loads = block.insts()[..5].iter().filter(|i| i.effects().loads);
        assert_eq!(loads.clone().count() as u64, MISSED_PER_BLOCK);
        for inst in loads {
            let key = facile_isa::form::shape_key(inst, &inst.effects());
            let hit = |&u| facile_isa::tables::lookup_uncounted(inst.mnemonic, key, u).is_some();
            assert!(!Uarch::ALL.iter().any(hit), "{inst} is table-served");
        }
    }
    let before = facile_isa::static_table_stats();
    for block in &blocks {
        for u in Uarch::ALL {
            assert_paths_agree(block, u);
        }
    }
    let after = facile_isa::static_table_stats();
    // The counters are process-wide and monotonic: lower bounds again.
    let expected = MISSED_PER_BLOCK * blocks.len() as u64 * Uarch::ALL.len() as u64;
    let fallbacks = after.fallbacks - before.fallbacks;
    assert!(
        fallbacks >= expected,
        "{fallbacks} fallbacks for {expected} table-missed loads"
    );
    assert!(after.hits > before.hits, "no table-served form");
}

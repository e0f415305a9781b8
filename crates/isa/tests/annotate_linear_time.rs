//! Annotation takes time linear in the block: annotating 32,768
//! distinct stores takes at most 24× as long as 4,096 of them (linear
//! code gives 8×). Every store writes a new memory value, so this pins
//! value interning in the column builder. Finding each value's id by
//! scanning all values so far gives about 53× here. The second shape
//! spaces the stores 2^16 bytes apart, so the displacements differ only
//! in their high bits: an unseeded multiplicative hash such as FxHash,
//! whose low bits depend only on the key's low bits, puts them all in
//! one bucket and gives about 100×.

use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::reg::names::*;
use facile_x86::{Block, Mem, Mnemonic, Operand, Width};
use std::sync::Arc;
use std::time::Instant;

/// `n` stores `mov [rax+disp(i)], rbx`.
fn stores(n: usize, disp: impl Fn(usize) -> i32) -> Arc<Block> {
    let prog: Vec<(Mnemonic, Vec<Operand>)> = (0..n)
        .map(|i| {
            let m = Mem::base_disp(RAX, disp(i), Width::W64);
            (Mnemonic::Mov, vec![Operand::Mem(m), RBX.into()])
        })
        .collect();
    Arc::new(Block::assemble(&prog).expect("stores assemble"))
}

/// Minimum over several samples of `reps` back-to-back annotations.
fn min_secs(block: &Arc<Block>, reps: u32) -> f64 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                let ab = AnnotatedBlock::new_shared(Arc::clone(block), Uarch::Skl);
                assert_eq!(ab.insts().len(), block.num_insts());
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Assert that 32,768 stores annotate in at most 24× the time of 4,096.
fn assert_linear(disp: impl Fn(usize) -> i32 + Copy, shape: &str) {
    let (small, large) = (stores(4096, disp), stores(32_768, disp));
    let _ = AnnotatedBlock::new_shared(Arc::clone(&small), Uarch::Skl); // warm the tables
    let values = AnnotatedBlock::new_shared(Arc::clone(&large), Uarch::Skl)
        .columns()
        .values
        .len();
    assert!(
        values > 32_768,
        "{shape}: every store is a new value: {values}"
    );
    // The small block is timed eight times over, so both samples last
    // about as long and a preempted run is as likely in either.
    let t_small = min_secs(&small, 8) / 8.0;
    let t_large = min_secs(&large, 1);
    let ratio = t_large / t_small;
    assert!(
        ratio <= 24.0,
        "{shape}: 32768 stores took {t_large:.6} s, 4096 took {t_small:.6} s: ratio {ratio:.1} > 24"
    );
}

#[test]
fn distinct_stores_annotate_in_linear_time() {
    assert_linear(|i| 8 * i as i32, "mov [rax+8i], rbx");
}

#[test]
fn stores_with_colliding_low_bits_annotate_in_linear_time() {
    assert_linear(|i| (i << 16) as i32, "mov [rax+(i<<16)], rbx");
}

//! Annotation takes time linear in the block: annotating 32,768
//! distinct stores takes at most 24× as long as 4,096 of them (linear
//! code gives 8×). Every store writes a new memory value, so this pins
//! value interning in the column builder. Finding each value's id by
//! scanning all values so far gives about 53× here. The second shape
//! spaces the stores 2^16 bytes apart, so the displacements differ only
//! in their high bits: an unseeded multiplicative hash such as FxHash,
//! whose low bits depend only on the key's low bits, puts them all in
//! one bucket and gives about 100×. The third shape is the runtime
//! classifier's: 4,096 absolute-displacement loads, a form the static
//! tables miss, take at most 24× as long as 512 of them.

use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_util::timing::{assert_ratio, Clock};
use facile_x86::reg::names::*;
use facile_x86::{Block, Mem, Mnemonic, Operand, Width};
use std::sync::Arc;

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

fn annotate(block: &Arc<Block>) {
    let ab = AnnotatedBlock::new_shared(Arc::clone(block), Uarch::Skl);
    assert_eq!(ab.insts().len(), block.num_insts());
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
    // The small block is timed eight times over.
    assert_ratio(
        Clock::Thread,
        &format!("{shape}: 32768 stores vs 4096"),
        24.0,
        (8, |_| annotate(&small)),
        (1, |_| annotate(&large)),
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

/// `n` loads `mov eax, [disp32]`, each from its own address.
fn absolute_loads(n: u32) -> Arc<Block> {
    let bytes: Vec<u8> = (0..n)
        .flat_map(|i| {
            let [a, b, c, d] = (8 * i).to_le_bytes();
            [0x8b, 0x04, 0x25, a, b, c, d]
        })
        .collect();
    Arc::new(Block::decode(bytes).expect("loads decode"))
}

#[test]
fn table_missed_loads_annotate_in_linear_time() {
    let (small, large) = (absolute_loads(512), absolute_loads(4096));
    let before = facile_isa::static_table_stats().fallbacks;
    annotate(&small);
    assert!(
        facile_isa::static_table_stats().fallbacks - before >= 512,
        "the loads are table-served"
    );
    // The small block is timed eight times over.
    assert_ratio(
        Clock::Thread,
        "mov eax, [disp32]: 4096 loads vs 512",
        24.0,
        (8, |_| annotate(&small)),
        (1, |_| annotate(&large)),
    );
}

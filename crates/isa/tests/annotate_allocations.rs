//! A cold annotation allocates a fixed number of times per block,
//! however many instructions it has: the annotated instructions borrow
//! the decoded block instead of cloning each `Inst` (whose operands are
//! a heap vector), and the kernel columns are assembled in per-thread
//! scratch and copied out once each. Annotating a built dataflow for
//! one more uarch allocates only the per-uarch columns, plus one boxed
//! descriptor per instruction outside the static tables.

use facile_isa::form::shape_key;
use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_x86::reg::names::*;
use facile_x86::{Block, Mem, Mnemonic, Operand, Width};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the allocations of threads that
/// asked it to (the test harness runs other tests on other threads).
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made on this thread by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

/// `n` instructions cycling through a few table-served forms that never
/// macro-fuse (there is no branch), over a fixed set of values.
fn block(n: usize) -> Arc<Block> {
    let forms: [(Mnemonic, Vec<Operand>); 4] = [
        (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
        (Mnemonic::Imul, vec![RDX.into(), RSI.into()]),
        (
            Mnemonic::Mov,
            vec![RBX.into(), Operand::Mem(Mem::base_disp(RDI, 8, Width::W64))],
        ),
        (
            Mnemonic::Mov,
            vec![
                Operand::Mem(Mem::base_disp(RDI, 16, Width::W64)),
                RAX.into(),
            ],
        ),
    ];
    let prog: Vec<_> = forms.iter().cloned().cycle().take(n).collect();
    let block = Block::assemble(&prog).expect("block assembles");
    for inst in block.insts() {
        let key = shape_key(inst, &inst.effects());
        assert!(
            facile_isa::tables::lookup_uncounted(inst.mnemonic, key, Uarch::Skl).is_some(),
            "{inst} is not table-served"
        );
    }
    Arc::new(block)
}

#[test]
fn annotation_allocates_per_block_not_per_instruction() {
    let (small, large) = (block(8), block(64));
    let annotate = |b: &Arc<Block>| {
        let ab = AnnotatedBlock::new_shared(Arc::clone(b), Uarch::Skl);
        assert_eq!(ab.fused_insts().count(), b.num_insts());
        drop(ab);
    };
    // Warm-up: the process-wide tables and this thread's scratch.
    annotate(&large);
    let n_small = allocations(|| annotate(&small));
    let n_large = allocations(|| annotate(&large));
    assert_eq!(
        n_small, n_large,
        "8 instructions allocate {n_small} times, 64 allocate {n_large} times"
    );
}

/// The per-uarch half: annotating an existing dataflow allocates only the
/// descriptor entries and the two per-uarch columns, fewer times than a
/// whole annotation did before the dataflow was shared (6), and the same
/// number of times for 8 and 64 instructions.
#[test]
fn annotating_a_shared_dataflow_allocates_only_per_uarch_columns() {
    let (small, large) = (
        Arc::new(Dataflow::new(block(8))),
        Arc::new(Dataflow::new(block(64))),
    );
    let annotate = |df: &Arc<Dataflow>| {
        let ab = AnnotatedBlock::from_dataflow(Arc::clone(df), Uarch::Skl);
        assert_eq!(ab.fused_insts().count(), df.block().num_insts());
        drop(ab);
    };
    annotate(&large);
    let n_small = allocations(|| annotate(&small));
    let n_large = allocations(|| annotate(&large));
    assert_eq!(
        n_small, n_large,
        "8 instructions allocate {n_small} times, 64 allocate {n_large} times"
    );
    assert!(
        n_small < 6,
        "a per-uarch annotation allocates {n_small} times"
    );
}

/// Allocations one table-missed instruction adds to a per-uarch
/// annotation: its boxed descriptor, and nothing the classifier
/// allocates (the effects and the descriptor's µops stay inline).
const PER_TABLE_MISS: u64 = 1;

/// A table-missed instruction is classified where it is annotated, at a
/// fixed cost: annotating a dataflow with `k` absolute-displacement
/// loads `mov eax, [disp32]` (a form the static tables do not key)
/// appended to the table-served block allocates `k` × the per-miss
/// count more than the block without them.
#[test]
fn a_table_missed_instruction_allocates_a_fixed_number_of_times() {
    let with_misses = |k: u32| {
        let mut bytes = block(8).bytes().to_vec();
        for i in 0..k {
            bytes.extend([0x8b, 0x04, 0x25]);
            bytes.extend((0x1000 + 8 * i).to_le_bytes());
        }
        let block = Block::decode(bytes).expect("loads decode");
        for inst in &block.insts()[8..] {
            let key = shape_key(inst, &inst.effects());
            assert!(
                facile_isa::tables::lookup_uncounted(inst.mnemonic, key, Uarch::Skl).is_none(),
                "{inst} is table-served"
            );
        }
        Arc::new(Dataflow::new(Arc::new(block)))
    };
    let annotate = |df: &Arc<Dataflow>| {
        let ab = AnnotatedBlock::from_dataflow(Arc::clone(df), Uarch::Skl);
        assert_eq!(ab.fused_insts().count(), df.block().num_insts());
        drop(ab);
    };
    let dataflows: Vec<_> = (0..4).map(with_misses).collect();
    annotate(&dataflows[3]);
    let base = allocations(|| annotate(&dataflows[0]));
    for (k, df) in dataflows.iter().enumerate().skip(1) {
        let n = allocations(|| annotate(df));
        assert_eq!(
            n - base,
            k as u64 * PER_TABLE_MISS,
            "{k} table misses: {n} allocations against {base} without them"
        );
    }
}

//! Decoding a block allocates three times plus once per instruction:
//! the instructions, their offsets and the block's bytes (which
//! `Block::from_hex` hands over instead of copying), and each
//! instruction's operand list. Picking an opcode-table entry allocates
//! nothing, and neither vector grows while the block is decoded.

use facile_x86::reg::names::*;
use facile_x86::{Block, Cond, Mem, Mnemonic, Operand, Reg, Width};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// `n` instructions cycling through forms that exercise the table
/// lookup: REX.W-selected entries (`cqo`, `movq`), a 66-prefixed
/// operand size, a VEX form, memory operands, an operand-less `nop` and
/// a branch.
fn block(n: usize) -> Block {
    let forms: [(Mnemonic, Vec<Operand>); 9] = [
        (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
        (Mnemonic::Cqo, vec![]),
        (Mnemonic::Cdq, vec![]),
        (Mnemonic::Movq, vec![Reg::Xmm(1).into(), RAX.into()]),
        (Mnemonic::Add, vec![AX.into(), CX.into()]),
        (
            Mnemonic::Vaddps,
            vec![Reg::Xmm(0).into(), Reg::Xmm(1).into(), Reg::Xmm(2).into()],
        ),
        (
            Mnemonic::Mov,
            vec![RBX.into(), Operand::Mem(Mem::base_disp(RDI, 8, Width::W64))],
        ),
        (Mnemonic::Nop, vec![]),
        (Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-2)]),
    ];
    let prog: Vec<_> = forms.iter().cloned().cycle().take(n).collect();
    let block = Block::assemble(&prog).expect("block assembles");
    assert_eq!(block.num_insts(), n);
    block
}

#[test]
fn decode_allocates_three_times_plus_one_per_instruction() {
    for n in [9, 72] {
        let b = block(n);
        let (bytes, hex) = (b.bytes().to_vec(), b.to_hex());
        // Warm-up: the opcode tables and this thread's scratch.
        assert_eq!(Block::decode(&bytes).expect("decodes"), b);
        let budget = 3 + n as u64;
        let from_bytes = allocations(|| drop(Block::decode(&bytes).expect("decodes")));
        let from_hex = allocations(|| drop(Block::from_hex(&hex).expect("decodes")));
        assert!(
            from_bytes <= budget && from_hex <= budget,
            "{n} instructions: {from_bytes} allocations from bytes, {from_hex} from hex \
             (budget {budget})"
        );
    }
}

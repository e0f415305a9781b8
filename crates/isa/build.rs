//! Build-time generation of the static descriptor tables.
//!
//! The script enumerates every decoder-reachable instruction form (via
//! `facile_x86::forms`), instantiates each structural template with
//! concrete registers, addressing shapes, and register-coincidence
//! variants, and runs the *runtime* classifier — `include!`d from
//! `src/` so generator and fallback can never drift — over every
//! variant on all nine microarchitectures. The result is a set of
//! `static` tables keyed by `(mnemonic, shape key)`: the annotator's
//! fast path indexes them directly instead of re-running the classifier
//! and allocating the descriptor.
//!
//! The probe enumeration itself lives in `src/probes.rs`, shared with
//! the oracle tests that replay every probe against the classifier.
//!
//! The generator also *proves* the key contract as it runs: if two
//! concrete instantiations ever map to the same key but classify
//! differently, the build fails.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use facile_x86::Mnemonic;

// The runtime model, compiled into the build script itself.
#[path = "src/classify.rs"]
#[allow(dead_code)]
mod classify;
#[path = "src/desc.rs"]
#[allow(dead_code)]
mod desc;
#[path = "src/form.rs"]
#[allow(dead_code)]
mod form;
#[path = "src/probes.rs"]
#[allow(dead_code)]
mod probes;

use desc::{InstrDesc, MAX_UOPS};
use facile_uarch::Uarch;

/// The table group of a mnemonic: condition codes never change the
/// descriptor, so all conditions of a family share one table.
fn group_name(m: Mnemonic) -> String {
    match m {
        Mnemonic::Jcc(_) => "Jcc".to_owned(),
        Mnemonic::Setcc(_) => "Setcc".to_owned(),
        Mnemonic::Cmovcc(_) => "Cmovcc".to_owned(),
        other => format!("{other:?}"),
    }
}

/// The `match` pattern that selects a group at runtime.
fn group_pattern(name: &str) -> String {
    match name {
        "Jcc" | "Setcc" | "Cmovcc" => format!("Mnemonic::{name}(_)"),
        other => format!("Mnemonic::{other}"),
    }
}

fn uop_lit(u: &desc::Uop) -> String {
    format!("u({}, K::{:?}, {})", u.ports.0, u.kind, u.occupancy)
}

fn desc_lit(d: &InstrDesc) -> String {
    let mut uops: Vec<String> = d.uops.iter().map(uop_lit).collect();
    let n = uops.len();
    assert!(n <= MAX_UOPS, "descriptor exceeds MAX_UOPS");
    while uops.len() < MAX_UOPS {
        uops.push("Z".to_owned());
    }
    format!(
        "d({}, {}, [{}], {}, {}, {}, {}, {}, {})",
        d.fused_uops,
        d.issue_uops,
        uops.join(", "),
        n,
        d.complex_decoder,
        d.simple_decoders_after,
        d.eliminated,
        d.latency,
        d.load_latency_extra,
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn generate() -> String {
    let mut descs: Vec<String> = Vec::new();
    let mut desc_idx: HashMap<String, u16> = HashMap::new();
    // group name → shape key → per-uarch descriptor indices
    let mut groups: BTreeMap<String, BTreeMap<u32, [u16; 9]>> = BTreeMap::new();

    let mut intern_desc = |d: &InstrDesc| -> u16 {
        let lit = desc_lit(d);
        *desc_idx.entry(lit.clone()).or_insert_with(|| {
            descs.push(lit);
            u16::try_from(descs.len() - 1).expect("more than 65536 distinct descriptors")
        })
    };

    for inst in probes::enumerate_probes() {
        let effects = inst.effects();
        let key = form::shape_key(&inst, &effects);
        assert_ne!(key, form::UNKEYED, "template produced an unkeyable form");
        let row: [u16; 9] = {
            let mut row = [0u16; 9];
            for (k, u) in Uarch::ALL.iter().enumerate() {
                let d = classify::describe_with_effects(&inst, &effects, u.config());
                row[k] = intern_desc(&d);
            }
            row
        };
        let group = groups.entry(group_name(inst.mnemonic)).or_default();
        if let Some(prev) = group.get(&key) {
            // The key contract: (mnemonic group, shape key) fully
            // determines the descriptor on every uarch.
            assert_eq!(
                *prev, row,
                "shape key {key:#x} of {:?} is ambiguous: {inst:?}",
                inst.mnemonic
            );
        } else {
            group.insert(key, row);
        }
    }

    let n_keys: usize = groups.values().map(BTreeMap::len).sum();

    let mut out = String::with_capacity(1 << 18);
    out.push_str("// @generated by build.rs — static descriptor tables. Do not edit.\n");
    writeln!(out, "pub static DESCS: [InstrDesc; {}] = [", descs.len()).unwrap();
    for d in &descs {
        writeln!(out, "    {d},").unwrap();
    }
    out.push_str("];\n");

    for (name, keys) in &groups {
        writeln!(
            out,
            "static F_{}: [(u32, [u16; 9]); {}] = [",
            name.to_uppercase(),
            keys.len()
        )
        .unwrap();
        for (key, row) in keys {
            writeln!(out, "    ({key:#x}, {row:?}),").unwrap();
        }
        out.push_str("];\n");
    }

    out.push_str(
        "/// The per-shape-key descriptor rows of a mnemonic's table group.\n\
         #[allow(unreachable_patterns)] // every mnemonic may end up covered\n\
         pub fn forms_of(m: Mnemonic) -> Option<&'static [(u32, [u16; 9])]> {\n    match m {\n",
    );
    for name in groups.keys() {
        writeln!(
            out,
            "        {} => Some(&F_{}),",
            group_pattern(name),
            name.to_uppercase()
        )
        .unwrap();
    }
    out.push_str("        _ => None,\n    }\n}\n");

    writeln!(out, "pub const N_FORM_KEYS: usize = {n_keys};").unwrap();
    let hash = fnv1a(out.as_bytes());
    writeln!(out, "pub const TABLE_HASH: u64 = {hash:#x};").unwrap();
    out
}

fn main() {
    println!("cargo::rerun-if-changed=src/desc.rs");
    println!("cargo::rerun-if-changed=src/classify.rs");
    println!("cargo::rerun-if-changed=src/form.rs");
    println!("cargo::rerun-if-changed=src/probes.rs");
    let out_dir = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");
    let path = std::path::Path::new(&out_dir).join("facile_tables.rs");
    std::fs::write(path, generate()).expect("write generated tables");
}

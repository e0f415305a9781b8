//! Human-readable interpretability reports.
//!
//! Facile's compositional structure makes its predictions directly
//! explainable. The structured form of an explanation is the typed
//! [`Explanation`] from `facile-explain` (per-component bounds with
//! evidence, critical chain, port loads, attributions); this module is a
//! *thin renderer* over that data model which additionally disassembles
//! the instructions on the critical chain. Its output is byte-identical
//! to the legacy stringly-typed report (pinned by the golden test in
//! `tests/golden_report.rs`).

use facile_explain::Explanation;
use facile_isa::AnnotatedBlock;
use std::fmt;

/// A formatted explanation of one prediction.
///
/// Build it from [`Facile::explain`]'s output; the annotated block is
/// needed to render the instructions on the critical dependence chain.
///
/// [`Facile::explain`]: crate::Facile::explain
#[derive(Debug, Clone)]
pub struct Report<'a> {
    ab: &'a AnnotatedBlock,
    explanation: &'a Explanation,
}

impl<'a> Report<'a> {
    /// Build a report over a full explanation of `ab`.
    #[must_use]
    pub fn new(ab: &'a AnnotatedBlock, explanation: &'a Explanation) -> Report<'a> {
        Report { ab, explanation }
    }
}

impl fmt::Display for Report<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.explanation;
        writeln!(
            f,
            "{} on {}: {:.2} cycles/iteration",
            e.mode,
            self.ab.uarch().config().arch.full_name(),
            e.throughput
        )?;
        writeln!(f, "component bounds:")?;
        for a in &e.components {
            let marker = if e.bottlenecks.contains(&a.component) {
                " <- bottleneck"
            } else {
                ""
            };
            writeln!(f, "  {:<11} {:>7.2}{marker}", a.component.name(), a.bound)?;
        }
        if let Some(p) = e.ports() {
            if !p.critical_ports.is_empty() {
                writeln!(
                    f,
                    "port contention: {:.2} uops on {}",
                    p.load_on_critical, p.critical_ports
                )?;
            }
        }
        let chain = e.critical_chain();
        if !chain.is_empty() {
            write!(f, "critical dependence chain:")?;
            for step in chain {
                let inst = &self.ab.block().insts()[step.inst as usize];
                write!(f, " -> [{}] {}", step.value, inst)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{Facile, Mode};
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Mnemonic, Operand};

    #[test]
    fn report_contains_bounds_and_bottleneck() {
        let prog = vec![(Mnemonic::Add, vec![Operand::Reg(RAX), Operand::Reg(RCX)])];
        let ab = AnnotatedBlock::new(Block::assemble(&prog).unwrap(), Uarch::Skl);
        let e = Facile::new().explain(&ab, Mode::Unrolled);
        let text = Report::new(&ab, &e).to_string();
        assert!(text.contains("cycles/iteration"));
        assert!(text.contains("bottleneck"));
        assert!(text.contains("Precedence"));
    }

    #[test]
    fn report_shows_dependence_chain() {
        let prog = vec![(
            Mnemonic::Mulsd,
            vec![
                Operand::Reg(facile_x86::Reg::Xmm(0)),
                Operand::Reg(facile_x86::Reg::Xmm(1)),
            ],
        )];
        let ab = AnnotatedBlock::new(Block::assemble(&prog).unwrap(), Uarch::Skl);
        let e = Facile::new().explain(&ab, Mode::Unrolled);
        let text = Report::new(&ab, &e).to_string();
        assert!(text.contains("critical dependence chain"), "{text}");
        assert!(text.contains("mulsd"), "{text}");
    }
}

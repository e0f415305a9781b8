//! The top-level Facile predictor: combines the component bounds into TPU
//! and TPL predictions (§4.1, §4.2), identifies bottlenecks, and — through
//! [`Facile::explain`] — produces the typed [`Explanation`] that carries
//! the evidence behind every bound.

use crate::dec::{dec, dec_analysis, simple_dec};
use crate::dsb::{dsb, dsb_analysis};
use crate::issue::{issue, issue_analysis};
use crate::lsd::{lsd, lsd_analysis, lsd_applicable};
use crate::ports::{ports, ports_analysis};
use crate::precedence::{precedence_analysis, precedence_bound};
use crate::predec::{predec, predec_analysis, simple_predec};
use facile_explain::{ComponentAnalysis, Evidence, Explanation, InstAttribution};
use facile_isa::AnnotatedBlock;

pub use facile_explain::{Component, Detail, FrontEndPath, Mode};

/// Configuration of the Facile model: which components are active and
/// whether the simplified predecoder/decoder variants are used. The default
/// is the full model; the ablation studies of Table 3 toggle these flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FacileConfig {
    /// Use the predecoder bound.
    pub use_predec: bool,
    /// Use the decoder bound.
    pub use_dec: bool,
    /// Use the DSB bound (loops).
    pub use_dsb: bool,
    /// Use the LSD bound (loops).
    pub use_lsd: bool,
    /// Use the issue bound.
    pub use_issue: bool,
    /// Use the port-contention bound.
    pub use_ports: bool,
    /// Use the precedence bound.
    pub use_precedence: bool,
    /// Replace `Predec` with `SimplePredec` (`l/16`).
    pub simple_predec: bool,
    /// Replace `Dec` (Algorithm 1) with `SimpleDec`.
    pub simple_dec: bool,
}

impl Default for FacileConfig {
    fn default() -> FacileConfig {
        FacileConfig {
            use_predec: true,
            use_dec: true,
            use_dsb: true,
            use_lsd: true,
            use_issue: true,
            use_ports: true,
            use_precedence: true,
            simple_predec: false,
            simple_dec: false,
        }
    }
}

impl FacileConfig {
    /// A configuration with only `component` enabled.
    #[must_use]
    pub fn only(component: Component) -> FacileConfig {
        let mut c = FacileConfig {
            use_predec: false,
            use_dec: false,
            use_dsb: false,
            use_lsd: false,
            use_issue: false,
            use_ports: false,
            use_precedence: false,
            simple_predec: false,
            simple_dec: false,
        };
        c.set(component, true);
        c
    }

    /// The full model with `component` disabled.
    #[must_use]
    pub fn without(component: Component) -> FacileConfig {
        let mut c = FacileConfig::default();
        c.set(component, false);
        c
    }

    /// Enable or disable one component.
    pub fn set(&mut self, component: Component, enabled: bool) {
        match component {
            Component::Predec => self.use_predec = enabled,
            Component::Dec => self.use_dec = enabled,
            Component::Dsb => self.use_dsb = enabled,
            Component::Lsd => self.use_lsd = enabled,
            Component::Issue => self.use_issue = enabled,
            Component::Ports => self.use_ports = enabled,
            Component::Precedence => self.use_precedence = enabled,
        }
    }

    /// Whether a component is enabled.
    #[must_use]
    pub fn enabled(&self, component: Component) -> bool {
        match component {
            Component::Predec => self.use_predec,
            Component::Dec => self.use_dec,
            Component::Dsb => self.use_dsb,
            Component::Lsd => self.use_lsd,
            Component::Issue => self.use_issue,
            Component::Ports => self.use_ports,
            Component::Precedence => self.use_precedence,
        }
    }
}

/// A throughput prediction with its per-component bounds: the compact
/// summary form of an [`Explanation`] (use [`Facile::explain`] when the
/// evidence — port-load map, critical chain, attributions — is needed).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted throughput in cycles per iteration.
    pub throughput: f64,
    /// The bounds of the components that participated in the maximum, in
    /// [`Component::ALL`] order.
    pub bounds: Vec<(Component, f64)>,
    /// Components whose bound equals the predicted throughput.
    pub bottlenecks: Vec<Component>,
    /// Which front-end path the prediction assumed.
    pub front_end: FrontEndPath,
}

impl Prediction {
    /// The bound of a specific component, if it was computed.
    #[must_use]
    pub fn bound(&self, c: Component) -> Option<f64> {
        self.bounds.iter().find(|(b, _)| *b == c).map(|(_, v)| *v)
    }

    /// The primary bottleneck under the paper's front-end-first tie break.
    #[must_use]
    pub fn primary_bottleneck(&self) -> Option<Component> {
        self.bottlenecks.first().copied()
    }
}

impl From<Explanation> for Prediction {
    fn from(e: Explanation) -> Prediction {
        Prediction {
            throughput: e.throughput,
            bounds: e
                .components
                .iter()
                .map(|a| (a.component, a.bound))
                .collect(),
            bottlenecks: e.bottlenecks,
            front_end: e.front_end,
        }
    }
}

/// The Facile analytical throughput model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facile {
    config: FacileConfig,
}

impl Facile {
    /// The full model.
    #[must_use]
    pub fn new() -> Facile {
        Facile::default()
    }

    /// A model with a custom component configuration (for ablations).
    #[must_use]
    pub fn with_config(config: FacileConfig) -> Facile {
        Facile { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FacileConfig {
        &self.config
    }

    /// Predict the throughput of `ab` under the given notion.
    #[must_use]
    pub fn predict(&self, ab: &AnnotatedBlock, mode: Mode) -> Prediction {
        Prediction::from(self.analyze(ab, mode, Detail::Brief))
    }

    /// Alias of [`Facile::predict`], kept for the batch engine's hot path:
    /// historically the brief variant skipped the interpretability
    /// payloads, which now live exclusively in [`Facile::explain`].
    #[must_use]
    pub fn predict_brief(&self, ab: &AnnotatedBlock, mode: Mode) -> Prediction {
        self.predict(ab, mode)
    }

    /// Fully explain the prediction: per-component bounds with typed
    /// evidence (frontend breakdown, contended-port load map, critical
    /// dependence chain) plus per-instruction attributions. Throughput,
    /// bounds, bottleneck set, and front-end path are bit-identical to
    /// [`Facile::predict`].
    #[must_use]
    pub fn explain(&self, ab: &AnnotatedBlock, mode: Mode) -> Explanation {
        self.analyze(ab, mode, Detail::Full)
    }

    /// The single implementation behind [`Facile::predict`] and
    /// [`Facile::explain`]: run every enabled component kernel at the
    /// requested [`Detail`] and compose the analyses. [`Detail::Brief`]
    /// and [`Detail::Bounds`] skip all evidence collection (this is the
    /// batch engine's allocation-lean warm path); [`Detail::Full`]
    /// additionally collects typed evidence and attributions.
    #[must_use]
    pub fn analyze(&self, ab: &AnnotatedBlock, mode: Mode, detail: Detail) -> Explanation {
        let c = &self.config;
        let full = detail.wants_evidence();
        let mut components: Vec<ComponentAnalysis> = Vec::with_capacity(7);
        // Opt-in per-kernel accounting (`--stats`, bench_engine): one
        // relaxed load when off; timers only run when on.
        let start = facile_util::timing::start;
        let time = |a: ComponentAnalysis, t0: Option<std::time::Instant>| -> ComponentAnalysis {
            crate::timing::KERNELS[a.component as usize].record_since(t0);
            a
        };

        // Front-end path selection (Eq. 3) and contribution.
        let front_end = match mode {
            Mode::Unrolled => FrontEndPath::Mite,
            Mode::Loop => {
                if ab.jcc_erratum_applies() {
                    FrontEndPath::Mite
                } else if c.use_lsd && lsd_applicable(ab) {
                    FrontEndPath::Lsd
                } else {
                    FrontEndPath::Dsb
                }
            }
        };
        match front_end {
            FrontEndPath::Mite => {
                if c.use_predec {
                    let t0 = start();
                    components.push(time(
                        if c.simple_predec {
                            ComponentAnalysis::bare(Component::Predec, simple_predec(ab))
                        } else if full {
                            predec_analysis(ab, mode)
                        } else {
                            ComponentAnalysis::bare(Component::Predec, predec(ab, mode))
                        },
                        t0,
                    ));
                }
                if c.use_dec {
                    let t0 = start();
                    components.push(time(
                        if c.simple_dec {
                            ComponentAnalysis::bare(Component::Dec, simple_dec(ab))
                        } else if full {
                            dec_analysis(ab)
                        } else {
                            ComponentAnalysis::bare(Component::Dec, dec(ab))
                        },
                        t0,
                    ));
                }
            }
            FrontEndPath::Lsd => {
                let t0 = start();
                components.push(time(
                    if full {
                        lsd_analysis(ab)
                    } else {
                        ComponentAnalysis::bare(Component::Lsd, lsd(ab))
                    },
                    t0,
                ));
            }
            FrontEndPath::Dsb => {
                if c.use_dsb {
                    let t0 = start();
                    components.push(time(
                        if full {
                            dsb_analysis(ab)
                        } else {
                            ComponentAnalysis::bare(Component::Dsb, dsb(ab))
                        },
                        t0,
                    ));
                }
            }
        }

        if c.use_issue {
            let t0 = start();
            components.push(time(
                if full {
                    issue_analysis(ab)
                } else {
                    ComponentAnalysis::bare(Component::Issue, issue(ab))
                },
                t0,
            ));
        }
        if c.use_ports {
            let t0 = start();
            components.push(time(
                if full {
                    ports_analysis(ab)
                } else {
                    ComponentAnalysis::bare(Component::Ports, ports(ab).bound)
                },
                t0,
            ));
        }
        if c.use_precedence {
            let t0 = start();
            components.push(time(
                if full {
                    precedence_analysis(ab)
                } else {
                    ComponentAnalysis::bare(Component::Precedence, precedence_bound(ab))
                },
                t0,
            ));
        }

        let attributions = if full {
            attribute(ab, &components)
        } else {
            Vec::new()
        };
        Explanation::compose(mode, front_end, components, attributions)
    }

    /// Counterfactual speedup if `component` were made infinitely fast
    /// (Table 4): the ratio of the predicted throughput with and without
    /// the component's bound.
    #[must_use]
    pub fn speedup_if_idealized(
        &self,
        ab: &AnnotatedBlock,
        mode: Mode,
        component: Component,
    ) -> f64 {
        let full = self.predict(ab, mode).throughput;
        let mut cfg = self.config;
        cfg.set(component, false);
        let ideal = Facile::with_config(cfg).predict(ab, mode).throughput;
        if ideal <= 0.0 || full <= 0.0 {
            1.0
        } else {
            full / ideal
        }
    }
}

/// Per-instruction attribution against the collected evidence: how many
/// occupancy-weighted µops each instruction places on the critical port
/// set, and how much latency it contributes along the critical dependence
/// chain.
fn attribute(ab: &AnnotatedBlock, components: &[ComponentAnalysis]) -> Vec<InstAttribution> {
    let critical = components.iter().find_map(|a| match &a.evidence {
        Evidence::Ports(p) if !p.critical_ports.is_empty() => Some(p.critical_ports),
        _ => None,
    });
    let chain = components
        .iter()
        .find_map(|a| match &a.evidence {
            Evidence::Precedence(p) => Some(p.critical_chain.as_slice()),
            _ => None,
        })
        .unwrap_or(&[]);
    // One pass over the chain, adding each instruction's steps in chain
    // order.
    let mut chain_latency = vec![0.0f64; ab.insts().len()];
    for s in chain {
        chain_latency[s.inst as usize] += s.latency;
    }
    ab.insts()
        .iter()
        .zip(chain_latency)
        .enumerate()
        .map(|(i, (a, lat))| {
            let mut uops = 0.0;
            if let Some(cp) = critical {
                if !a.desc().eliminated {
                    for u in &a.desc().uops {
                        if !u.ports.is_empty() && u.ports.is_subset_of(cp) {
                            uops += f64::from(u.occupancy);
                        }
                    }
                }
            }
            InstAttribution {
                inst: i as u32,
                critical_port_uops: uops,
                chain_latency: lat,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_uarch::Uarch;
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Cond, Mnemonic, Operand};

    fn annotate(prog: &[(Mnemonic, Vec<Operand>)], u: Uarch) -> AnnotatedBlock {
        AnnotatedBlock::new(Block::assemble(prog).unwrap(), u)
    }

    fn adds_loop(n: usize) -> Vec<(Mnemonic, Vec<Operand>)> {
        let mut prog: Vec<_> = (0..n)
            .map(|i| {
                let r = facile_x86::Reg::gpr((i % 3) as u8, facile_x86::reg::Width::W64);
                (Mnemonic::Add, vec![Operand::Reg(r), Operand::Reg(RSI)])
            })
            .collect();
        prog.push((Mnemonic::Dec, vec![Operand::Reg(RDI)]));
        prog.push((Mnemonic::Jcc(Cond::Ne), vec![Operand::Rel(-128)]));
        prog
    }

    #[test]
    fn tpu_is_max_of_components() {
        let ab = annotate(&adds_loop(6), Uarch::Skl);
        let p = Facile::new().predict(&ab, Mode::Unrolled);
        let max = p.bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert!((p.throughput - max).abs() < 1e-12);
        assert!(!p.bottlenecks.is_empty());
    }

    #[test]
    fn loop_uses_lsd_on_haswell() {
        let ab = annotate(&adds_loop(3), Uarch::Hsw);
        let p = Facile::new().predict(&ab, Mode::Loop);
        assert_eq!(p.front_end, FrontEndPath::Lsd);
        assert!(p.bound(Component::Lsd).is_some());
        assert!(p.bound(Component::Predec).is_none());
    }

    #[test]
    fn loop_uses_dsb_on_skylake() {
        // SKL: LSD disabled -> DSB (no erratum for this short loop).
        let ab = annotate(&adds_loop(3), Uarch::Skl);
        assert!(!ab.jcc_erratum_applies());
        let p = Facile::new().predict(&ab, Mode::Loop);
        assert_eq!(p.front_end, FrontEndPath::Dsb);
    }

    #[test]
    fn jcc_erratum_forces_mite() {
        // Pad so the loop branch crosses a 32-byte boundary on SKL.
        let mut prog: Vec<(Mnemonic, Vec<Operand>)> =
            (0..31).map(|_| (Mnemonic::Nop, vec![])).collect();
        prog.push((Mnemonic::Jmp, vec![Operand::Rel(-33)]));
        let ab = annotate(&prog, Uarch::Skl);
        assert!(ab.jcc_erratum_applies());
        let p = Facile::new().predict(&ab, Mode::Loop);
        assert_eq!(p.front_end, FrontEndPath::Mite);
        assert!(p.bound(Component::Predec).is_some());
    }

    #[test]
    fn ablation_only_and_without() {
        let ab = annotate(&adds_loop(6), Uarch::Skl);
        let only_ports = Facile::with_config(FacileConfig::only(Component::Ports));
        let p = only_ports.predict(&ab, Mode::Unrolled);
        assert_eq!(p.bounds.len(), 1);
        assert_eq!(p.bounds[0].0, Component::Ports);

        let wo = Facile::with_config(FacileConfig::without(Component::Ports));
        let p = wo.predict(&ab, Mode::Unrolled);
        assert!(p.bound(Component::Ports).is_none());
    }

    #[test]
    fn without_never_exceeds_full() {
        let ab = annotate(&adds_loop(6), Uarch::Rkl);
        let full = Facile::new().predict(&ab, Mode::Unrolled).throughput;
        for c in Component::ALL {
            let wo = Facile::with_config(FacileConfig::without(c))
                .predict(&ab, Mode::Unrolled)
                .throughput;
            assert!(wo <= full + 1e-12, "{c}: {wo} > {full}");
        }
    }

    #[test]
    fn speedup_at_least_one() {
        let ab = annotate(&adds_loop(4), Uarch::Snb);
        let f = Facile::new();
        for c in Component::ALL {
            let s = f.speedup_if_idealized(&ab, Mode::Unrolled, c);
            assert!(s >= 1.0 - 1e-12, "{c}: {s}");
        }
    }

    #[test]
    fn bottleneck_priority_order() {
        // A dependence-bound block: mulsd chain.
        let prog = vec![(
            Mnemonic::Mulsd,
            vec![
                Operand::Reg(facile_x86::Reg::Xmm(0)),
                Operand::Reg(facile_x86::Reg::Xmm(1)),
            ],
        )];
        let ab = annotate(&prog, Uarch::Skl);
        let p = Facile::new().predict(&ab, Mode::Unrolled);
        assert_eq!(p.primary_bottleneck(), Some(Component::Precedence));
    }

    #[test]
    fn explain_matches_predict_bit_for_bit() {
        for (prog, mode) in [
            (adds_loop(6), Mode::Unrolled),
            (adds_loop(2), Mode::Loop),
            (adds_loop(9), Mode::Loop),
        ] {
            for u in Uarch::ALL {
                let ab = annotate(&prog, u);
                let p = Facile::new().predict(&ab, mode);
                let e = Facile::new().explain(&ab, mode);
                assert_eq!(p.throughput.to_bits(), e.throughput.to_bits(), "{u}");
                assert_eq!(p.bottlenecks, e.bottlenecks, "{u}");
                assert_eq!(p.front_end, e.front_end, "{u}");
                let eb: Vec<(Component, f64)> = e
                    .components
                    .iter()
                    .map(|a| (a.component, a.bound))
                    .collect();
                assert_eq!(p.bounds, eb, "{u}");
            }
        }
    }

    #[test]
    fn explain_carries_typed_evidence() {
        let ab = annotate(&adds_loop(6), Uarch::Skl);
        let e = Facile::new().explain(&ab, Mode::Unrolled);
        assert!(matches!(
            e.evidence(Component::Predec),
            Some(Evidence::Predec(_))
        ));
        assert!(matches!(e.evidence(Component::Dec), Some(Evidence::Dec(_))));
        assert!(matches!(
            e.evidence(Component::Ports),
            Some(Evidence::Ports(_))
        ));
        assert!(matches!(
            e.evidence(Component::Precedence),
            Some(Evidence::Precedence(_))
        ));
        // Attributions cover every instruction of the block.
        assert_eq!(e.attributions.len(), ab.insts().len());
        // The dependent adds contribute latency along the chain.
        assert!(e.attributions.iter().any(|a| a.chain_latency > 0.0));
    }

    #[test]
    fn brief_detail_collects_no_evidence() {
        let ab = annotate(&adds_loop(4), Uarch::Skl);
        for detail in [Detail::Brief, Detail::Bounds] {
            let e = Facile::new().analyze(&ab, Mode::Unrolled, detail);
            assert!(e
                .components
                .iter()
                .all(|a| matches!(a.evidence, Evidence::None)));
            assert!(e.attributions.is_empty());
        }
    }
}

//! Per-phase timing shares (EXPERIMENTS.md E10): where does synthesis
//! time go as the network grows? Runs the full pipeline for N = 4, 8 and
//! 16 nodes under the `xring-obs` tracer and prints, for each N, the
//! inclusive time and share of every pipeline phase.
//!
//! The same numbers can be reproduced for any single run via the CLI:
//! `xring synth --grid 4x4 --wl 16 --trace out.jsonl`.
//!
//! Run with: `cargo run --release -p xring-bench --bin phases`

use xring_core::{NetworkSpec, SynthesisOptions, Synthesizer};
use xring_obs as obs;
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

/// The phases reported, in pipeline order. `ring-milp` includes the MILP
/// solve and the 2-SAT route assignment; `evaluation` is the loss/crosstalk/power
/// report (the audit's internal evaluation is nested under `audit` and
/// therefore not double-counted here — only top-level shares are shown).
const PHASES: &[&str] = &[
    "ring-milp",
    "shortcut",
    "mapping",
    "opening",
    "pdn",
    "realize",
    "audit",
    "evaluation",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("n,wl,phase,inclusive_us,share_pct");
    for (n, net) in [
        (4usize, NetworkSpec::regular_grid(2, 2, 2_000)?),
        (8, NetworkSpec::proton_8()),
        (16, NetworkSpec::psion_16()),
    ] {
        let wl = n;
        obs::start();
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(wl)).synthesize(&net)?;
        let _report = design.report(
            "phases",
            &LossParams::default(),
            Some(&CrosstalkParams::default()),
            &PowerParams::default(),
        );
        let trace = obs::finish();

        // Share denominators: the whole traced run is the synth span plus
        // the standalone evaluation that follows it.
        let synth = trace.find("synth").ok_or("no synth span recorded")?;
        let eval_outside: u64 = trace
            .spans
            .iter()
            .filter(|s| s.name == "evaluation" && s.parent == 0)
            .map(|s| s.dur_ns)
            .sum();
        let total_ns = synth.dur_ns + eval_outside;
        for phase in PHASES {
            let ns = if *phase == "evaluation" {
                eval_outside
            } else {
                trace.inclusive_ns(phase)
            };
            println!(
                "{n},{wl},{phase},{},{:.1}",
                ns / 1_000,
                100.0 * ns as f64 / total_ns as f64
            );
        }
        println!("{n},{wl},total,{},100.0", total_ns / 1_000);
    }
    Ok(())
}

//! Runs the design-choice ablations (DESIGN.md E5–E7), and after E7 the
//! ring-MILP survey of EXPERIMENTS.md E12.
//!
//! Run with: `cargo run --release -p xring-bench --bin ablation -- [shortcuts|pdn|ring|all]`

use xring_bench::tables::{
    ablation_pdn, ablation_ring, ablation_shortcuts, print_ring_survey, print_sections,
};
use xring_engine::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // One engine for all ablations: shared configurations (e.g. the
    // default 16-node pipeline) are synthesized once.
    let engine = Engine::new();
    if which == "shortcuts" || which == "all" {
        println!("ABLATION E5 — Step 2 (shortcut construction)\n");
        print_sections(&ablation_shortcuts(&engine)?);
    }
    if which == "pdn" || which == "all" {
        println!("ABLATION E6 — Step 3/4 (openings + crossing-free PDN)\n");
        print_sections(&ablation_pdn(&engine)?);
    }
    if which == "ring" || which == "all" {
        println!("ABLATION E7 — Step 1 (ring-construction algorithm)\n");
        print_sections(&ablation_ring(&engine)?);
        print_ring_survey()?;
    }
    Ok(())
}

//! Scaling series (DESIGN.md E8 companion): XRing vs ORNoC metrics as the
//! network grows, printed as CSV for plotting. This is the "figure" the
//! paper's table-only evaluation implies: power, SNR and worst-case IL vs
//! node count.
//!
//! Run with: `cargo run --release -p xring-bench --bin scaling`

use xring_bench::tables::{ornoc_report, xring_sweep, RingContext};
use xring_core::NetworkSpec;
use xring_engine::Engine;
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let loss = LossParams::oring();
    let xtalk = CrosstalkParams::nikdast();
    let power = PowerParams::default();
    let engine = Engine::new();

    println!("n,router,wl,il_db,len_mm,crossings,power_w,noisy,snr_db,time_s");
    for n in [4usize, 8, 12, 16, 20, 24, 28, 32] {
        let cols = (n / 4).max(1);
        let rows = n / cols;
        let net = NetworkSpec::regular_grid(rows, cols, 2_000)?;
        let wl = (n).max(4);
        let ctx = RingContext::milp(&engine, net)?;
        let mut xring = xring_sweep(&engine, &ctx, &[wl], true, &loss, Some(&xtalk), &power)?;
        let rows_out = [
            xring.remove(0),
            ornoc_report(&ctx, wl, true, &loss, Some(&xtalk), &power),
        ];
        for r in rows_out {
            let router = if r.label.starts_with("XRing") {
                "xring"
            } else {
                "ornoc"
            };
            println!(
                "{n},{router},{},{:.3},{:.2},{},{:.6},{},{},{:.3}",
                r.num_wavelengths,
                r.worst_il_db,
                r.worst_path_len_mm,
                r.worst_path_crossings,
                r.total_power_w.unwrap_or(f64::NAN),
                r.noisy_signal_count.unwrap_or(0),
                r.worst_snr_db
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "inf".into()),
                r.synthesis_time.as_secs_f64(),
            );
        }
    }
    Ok(())
}

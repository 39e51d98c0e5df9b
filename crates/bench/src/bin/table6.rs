//! **Table VI** — computational complexity: FLOPs of the 4-layer vanilla
//! self-attention mechanism (SA) vs IAAB, per dataset, plus measured
//! wall-clock latency of the two attention flavours on this machine, and of
//! vanilla vs time-aware position encoding (TAPE, the paper's O(n) claim).
//!
//! ```text
//! cargo run -p stisan-bench --bin table6 --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_bench::{timed_reps, Flags};
use stisan_core::flops::{iaab_flops, iaab_overhead, sa_flops};
use stisan_data::DatasetPreset;
use stisan_nn::{
    attention, causal_mask, sinusoidal_encoding, tape_positions, vanilla_positions, ParamStore,
    Session,
};
use stisan_tensor::Array;

fn main() {
    let flags = Flags::parse();
    let layers = 4; // the paper's N
    let n = flags.max_len;
    let d = flags.dim;
    println!("Table VI — computational complexity (N = {layers} layers, n = {n}, d = {d})\n");
    println!("| {:<12} | {:>12} | {:>12} | {:>10} |", "Dataset", "SA FLOPs", "IAAB FLOPs", "overhead");
    println!("|{}|", "-".repeat(58));
    for preset in DatasetPreset::all() {
        if !flags.wants_dataset(preset.name()) {
            continue;
        }
        let sa = sa_flops(n, d, layers);
        let ia = iaab_flops(n, d, layers);
        println!(
            "| {:<12} | {:>10.2}M | {:>10.2}M | {:>9.4}% |",
            preset.name(),
            sa as f64 / 1e6,
            ia as f64 / 1e6,
            iaab_overhead(n, d, layers) * 100.0
        );
    }

    // Measured latency of one attention application with/without the bias add.
    let mut rng = StdRng::seed_from_u64(flags.seed);
    let store = ParamStore::new();
    let x = Array::randn(vec![1, n, d], 1.0, &mut rng);
    let mask = causal_mask(1, n);
    let relation = Array::uniform(vec![1, n, n], 0.0, 1.0, &mut rng);
    let reps = 50;

    let time_attention = |name: &'static str, with_relation: bool| -> f64 {
        timed_reps(name, reps, || {
            let mut sess = Session::new(&store, false, 0);
            let xv = sess.constant(x.clone());
            let bias = if with_relation { mask.add(&relation) } else { mask.clone() };
            let b = sess.constant(bias);
            for _ in 0..layers {
                let _ = attention(&mut sess, xv, xv, xv, Some(b));
            }
        }) * 1e3
    };

    let t_sa = time_attention("attention_sa", false);
    let t_iaab = time_attention("attention_iaab", true);
    println!("\nmeasured on this machine ({reps} reps, {layers} layers):");
    println!("  SA   attention: {t_sa:.3} ms/sequence");
    println!("  IAAB attention: {t_iaab:.3} ms/sequence  ({:+.2}%)", (t_iaab - t_sa) / t_sa * 100.0);
    println!("\npaper's claim: the point-wise relation addition is negligible (<= 0.01M FLOPs).");

    // TAPE vs vanilla PE: both encode n positions in O(n·d); TAPE only adds
    // an O(n) pass over the time intervals.
    let pe_dim = 64;
    println!("\nposition encoding, d = {pe_dim} ({reps} reps):");
    for pe_len in [100usize, 1000] {
        let times: Vec<f64> =
            (0..pe_len).map(|i| i as f64 * 3600.0 * (1.0 + (i % 7) as f64)).collect();
        let t_pe = timed_reps("pe_vanilla", reps, || {
            std::hint::black_box(sinusoidal_encoding(&vanilla_positions(pe_len), pe_dim));
        }) * 1e3;
        let t_tape = timed_reps("pe_tape", reps, || {
            std::hint::black_box(sinusoidal_encoding(&tape_positions(&times, 0), pe_dim));
        }) * 1e3;
        println!(
            "  n = {pe_len:>4}: vanilla PE {t_pe:.4} ms, TAPE {t_tape:.4} ms  ({:+.2}%)",
            (t_tape - t_pe) / t_pe * 100.0
        );
    }
}

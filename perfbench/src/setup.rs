//! Set-up: synthetic Gowalla catalogue, preprocessing, and real STiSAN
//! training with the experiment defaults of `stisan_bench::Flags`.

use std::time::Instant;

use stisan_bench::{prep_config, relation_for, temperature_for, Flags};
use stisan_core::{StiSan, StisanConfig};
use stisan_data::{generate, preprocess, DatasetPreset, Processed};
use stisan_models::TrainConfig;

/// Dataset scale: a 1.4k-POI Gowalla-shaped catalogue keeps one training
/// epoch to a few seconds on two cores while a full-catalogue scan still
/// dominates `exact_long`.
pub const SCALE: f64 = 0.02;
/// Training epochs. The experiment default (20) would spend the whole run
/// budget in set-up; serving cost does not depend on how long weights
/// were trained, only the quality metrics do.
pub const EPOCHS: usize = 1;
/// Seed of the dataset and model. Fixed, so `--seed` changes only the
/// request schedule, never the catalogue or the weights.
pub const WORLD_SEED: u64 = 42;

/// Wall-clock cost of the set-up stages, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub preprocess_s: f64,
    pub train_epoch_s: f64,
}

/// The experiment flags with the benchmark's window and epoch overrides.
pub fn flags(max_len: usize) -> Flags {
    Flags {
        scale: Some(SCALE),
        epochs: EPOCHS,
        max_len,
        seed: WORLD_SEED,
        ..Flags::default()
    }
}

/// STiSAN's configuration for the Gowalla preset, as `stisan_bench`
/// builds it for Table III. `seed` picks the initial weights.
pub fn model_config(f: &Flags, seed: u64) -> StisanConfig {
    let preset = DatasetPreset::Gowalla;
    StisanConfig {
        train: TrainConfig {
            negatives: 15,
            temperature: temperature_for(preset),
            seed,
            ..f.train_config()
        },
        relation: relation_for(preset),
        ..Default::default()
    }
}

/// Generates and preprocesses the catalogue.
pub fn dataset(f: &Flags, times: &mut SetupTimes) -> Processed {
    let t = Instant::now();
    let raw = generate(&DatasetPreset::Gowalla.config(SCALE), f.seed);
    times.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let p = preprocess(&raw, &prep_config(f.max_len, SCALE));
    times.preprocess_s = t.elapsed().as_secs_f64();
    assert!(!p.eval.is_empty(), "no eval instances at scale {SCALE}");
    p
}

/// Trains one weight set from initial-weight seed `seed`; returns it with
/// the time per epoch.
pub fn train(data: &Processed, f: &Flags, seed: u64) -> (StiSan, f64) {
    let t = Instant::now();
    let mut m = StiSan::new(data, model_config(f, seed));
    m.fit(data);
    (m, t.elapsed().as_secs_f64() / f.epochs.max(1) as f64)
}

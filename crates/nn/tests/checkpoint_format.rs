//! Pins the on-disk checkpoint bytes. Checkpoints written by earlier builds
//! must keep loading and new ones must stay readable by them, so any change
//! to the encoder has to reproduce the v1 and v2 layouts byte for byte: a
//! small fixed store is encoded both ways and the exact length and CRC-32 of
//! each encoding are checked.

use stisan_nn::{crc32, AdamState, ParamStore, TrainState};
use stisan_tensor::Array;

/// Three parameters covering a matrix, a vector and a scalar, with values
/// that exercise signs, zeros and non-representable decimals.
fn fixed_store() -> ParamStore {
    let mut store = ParamStore::new();
    let w: Vec<f32> = (0..12).map(|i| (i as f32 - 5.5) * 0.125).collect();
    store.register("embed.weight", Array::from_vec(vec![3, 4], w));
    store.register("ln.beta", Array::from_vec(vec![5], vec![0.1, -0.2, 0.0, 3.5, -7.25]));
    store.register("scale", Array::scalar(1.5));
    store
}

/// Adam state with one never-updated slot, as lazily initialized optimizers
/// produce.
fn fixed_trainer(store: &ParamStore) -> TrainState {
    let (mut m, mut v) = (Vec::new(), Vec::new());
    for (i, id) in store.ids().enumerate() {
        let value = store.value(id);
        if i == 1 {
            m.push(None);
            v.push(None);
        } else {
            let n = value.len();
            let shape = value.shape().to_vec();
            m.push(Some(Array::from_vec(shape.clone(), (0..n).map(|j| j as f32 * 0.01).collect())));
            v.push(Some(Array::from_vec(shape, (0..n).map(|j| 1.0 / (j as f32 + 1.0)).collect())));
        }
    }
    TrainState { adam: AdamState { t: 17, m, v }, epochs_done: 5, rng_seed: 42 }
}

/// `(length, CRC-32)` of an encoding. For v2 the CRC is taken over the body
/// (everything before the footer) and the footer must hold exactly that CRC;
/// the CRC of a whole v2 file is the same residue for every payload.
fn fingerprint(bytes: &[u8], has_footer: bool) -> (usize, u32) {
    if !has_footer {
        return (bytes.len(), crc32(bytes));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let crc = crc32(body);
    assert_eq!(footer, crc.to_le_bytes(), "v2 footer is not the CRC of the body");
    (bytes.len(), crc)
}

#[test]
fn v1_bytes_are_pinned() {
    let bytes = fixed_store().to_bytes_v1();
    assert_eq!(fingerprint(&bytes, false), (156, 0xD836_800F));
}

#[test]
fn v2_weights_only_bytes_are_pinned() {
    let bytes = fixed_store().to_bytes();
    assert_eq!(fingerprint(&bytes, true), (161, 0x5C0F_2C8C));
}

#[test]
fn v2_bytes_with_trainer_state_are_pinned() {
    let store = fixed_store();
    let bytes = store.to_bytes_with(Some(&fixed_trainer(&store)));
    assert_eq!(fingerprint(&bytes, true), (312, 0x5A70_3313));
}

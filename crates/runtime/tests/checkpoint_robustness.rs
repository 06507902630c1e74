//! Checkpoint codec robustness: property-based round-trips of the `TRNC`
//! section, typed errors on corrupt fields, and checksum coverage of
//! arbitrary single-bit corruption.

use proptest::prelude::*;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_runtime::artifact::{crc32, ArtifactError, MAGIC};
use vortex_runtime::{RuntimeError, TrainingCheckpoint};

/// Byte offset of the TRNC payload in a checkpoint file: magic (8) +
/// version (4) + section count (4) + tag (4) + section length (8).
const PAYLOAD_AT: usize = 28;

fn checkpoint(seed: u64, rows: usize, cols: usize, epoch: u64) -> TrainingCheckpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let weights = Matrix::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0));
    TrainingCheckpoint {
        weights,
        epoch,
        samples_seen: epoch.wrapping_mul(96),
        seed,
        step_scale: 1e-4 + rng.next_f64(),
        last_mse: rng.next_f64(),
        rng_state: rng.state(),
    }
}

fn checkpoint_err(r: vortex_runtime::Result<TrainingCheckpoint>) -> ArtifactError {
    match r {
        Err(RuntimeError::Artifact(e)) => e,
        other => panic!("expected an artifact error, got {other:?}"),
    }
}

fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

#[test]
fn corrupt_section_length_is_typed() {
    // Announce a section payload longer than the file: the cursor must
    // fail typed, never read out of bounds.
    let mut bytes = checkpoint(3, 4, 3, 9).to_bytes();
    bytes[MAGIC.len() + 12..MAGIC.len() + 20].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(
        checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
        ArtifactError::Truncated { .. } | ArtifactError::Malformed { .. }
    ));
}

#[test]
fn corrupt_step_scale_is_malformed() {
    // A non-positive optimizer scale cannot resume a normalized-LMS job;
    // the decoder rejects it before any training code sees it.
    let mut bytes = checkpoint(4, 4, 3, 2).to_bytes();
    let scale_at = PAYLOAD_AT + 24;
    bytes[scale_at..scale_at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(
        checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
        ArtifactError::Malformed {
            context: "TRNC step scale"
        }
    ));
}

#[test]
fn oversized_weight_dimensions_are_malformed_not_an_abort() {
    // The weight matrix follows five scalars and the 32-byte RNG state;
    // announcing 2^20 × 2^20 entries must fail typed before allocation.
    let mut bytes = checkpoint(5, 4, 3, 1).to_bytes();
    let dims_at = PAYLOAD_AT + 72;
    for k in 0..2 {
        let at = dims_at + 8 * k;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
    }
    reseal(&mut bytes);
    assert!(matches!(
        checkpoint_err(TrainingCheckpoint::from_bytes(&bytes)),
        ArtifactError::Malformed { .. }
    ));
}

#[test]
fn epoch_field_survives_extreme_values() {
    // The epoch is an opaque counter: the codec must round-trip the full
    // u64 domain, not just small values.
    for epoch in [0, 1, u64::MAX / 2, u64::MAX] {
        let ck = checkpoint(5, 2, 2, epoch);
        let revived = TrainingCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(revived.epoch, epoch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trnc_round_trip_is_bit_exact(rows in 1usize..12,
                                    cols in 1usize..6,
                                    epoch in proptest::num::u64::ANY,
                                    seed in proptest::num::u64::ANY) {
        let ck = checkpoint(seed, rows, cols, epoch);
        let bytes = ck.to_bytes();
        let revived = TrainingCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&revived, &ck);
        // Re-encoding the revived checkpoint reproduces the byte stream
        // exactly: the codec is a bijection on its image.
        prop_assert_eq!(revived.to_bytes(), bytes);
    }

    #[test]
    fn any_single_bit_flip_fails_loudly(seed in proptest::num::u64::ANY,
                                        position in proptest::num::u64::ANY) {
        let bytes = checkpoint(seed, 3, 2, 5).to_bytes();
        let bit = (position % (bytes.len() as u64 * 8)) as usize;
        let mut corrupt = bytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        // CRC-32 detects every single-bit error; flips in the magic,
        // version or trailer fail through their own typed paths.
        let err = checkpoint_err(TrainingCheckpoint::from_bytes(&corrupt));
        prop_assert!(matches!(
            err,
            ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::BadMagic
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
        ), "bit {} gave {:?}", bit, err);
    }
}

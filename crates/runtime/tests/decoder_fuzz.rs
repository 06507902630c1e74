//! Seeded, structure-aware fuzzing of the artifact and checkpoint
//! decoders on CRC-valid hostile input.
//!
//! The corruption suites elsewhere stop at the checksum. Here every
//! mutation is resealed with a fresh CRC-32, so the decoders proper run
//! on it:
//!
//! - every length or count field of every section (and the container's
//!   section count) is set to 0, 1, its true value ± 1, the payload
//!   length ± 1, 2³², 2⁴⁰ and `u64::MAX`;
//! - 10,000 seeded random byte mutations hit whole files.
//!
//! Each decode must return a typed error or a clean model, never panic.
//! The binary runs under a global allocator that refuses any single
//! request above [`ALLOCATION_LIMIT`]: an allocation sized from an
//! unchecked header field then aborts this test, naming the case, instead
//! of exhausting the machine's memory. A failure prints the seed or the
//! field that reproduces it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use vortex_device::DeviceParams;
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_linalg::Matrix;
use vortex_runtime::artifact::{crc32, MAGIC};
use vortex_runtime::{CompiledModel, Fidelity, ReadOptions, RuntimeError, TrainingCheckpoint};
use vortex_xbar::crossbar::CrossbarConfig;
use vortex_xbar::pair::{DifferentialPair, WeightMapping};
use vortex_xbar::sensing::{Adc, Dac};

/// The largest single allocation the decoders may request. The inputs
/// are a few kilobytes; anything near this size was sized from a field.
const ALLOCATION_LIMIT: usize = 64 << 20;

/// The case being decoded, for the allocator's refusal message.
static CASE: AtomicU64 = AtomicU64::new(0);

/// [`System`], refusing oversized requests.
struct Bounded;

impl Bounded {
    fn refuse(size: usize) -> bool {
        if size <= ALLOCATION_LIMIT {
            return false;
        }
        // Straight to the stderr handle, past the test harness's output
        // capture, which the abort that follows would discard. Formatting
        // integers does not allocate.
        let _ = writeln!(
            std::io::stderr(),
            "decoder fuzz: refused a {size}-byte allocation in case {:#018x}",
            CASE.load(Ordering::Relaxed)
        );
        true
    }
}

// SAFETY: every request either goes to `System` unchanged or fails with
// a null pointer, which `GlobalAlloc` permits for `alloc`,
// `alloc_zeroed` and `realloc`.
unsafe impl GlobalAlloc for Bounded {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::refuse(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::refuse(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::refuse(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Bounded = Bounded;

// ---------------------------------------------------------------------------
// Seed inputs.
// ---------------------------------------------------------------------------

fn compiled(rows: usize, cols: usize, fidelity: Fidelity, canary: bool) -> CompiledModel {
    let device = DeviceParams::default();
    let config = CrossbarConfig {
        r_wire: 3.0,
        ..CrossbarConfig::ideal(rows + 2, cols, device)
    };
    let mapping = WeightMapping::new(&device, 1.0).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(rows as u64);
    let mut pair = DifferentialPair::fabricate(config, mapping, &mut rng).unwrap();
    let w = Matrix::from_fn(rows + 2, cols, |i, j| {
        ((i * cols + j) as f64 * 0.37).sin() * 0.7
    });
    pair.program_open_loop(&w, None, &mut rng).unwrap();
    // Two spare physical rows, mapped around.
    let assignment: Vec<usize> = (0..rows).map(|i| (i * 3 + 1) % (rows + 2)).collect();
    let mut options = ReadOptions::new(fidelity);
    if fidelity == Fidelity::Exact {
        options.adc = Some(Adc::new(8, 1e-3).unwrap());
        options.dac = Some(Dac::new(6, 1.0).unwrap());
    }
    let reference = vec![0.4; rows];
    let model =
        CompiledModel::compile(&pair.freeze(), &assignment, &options, Some(&reference)).unwrap();
    if !canary {
        return model;
    }
    let probes = (0..3)
        .map(|k| (0..rows).map(|i| ((i + k) % 4) as f64 / 3.0).collect())
        .collect();
    model.with_canary_inputs(probes).unwrap()
}

/// One section of a container: where its tag sits and how long its
/// payload is.
#[derive(Clone, Copy)]
struct Section {
    tag: [u8; 4],
    at: usize,
    len: usize,
}

impl Section {
    fn payload(&self) -> usize {
        self.at + 12
    }
}

/// Walks a well-formed container's sections.
fn sections(bytes: &[u8]) -> Vec<Section> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut at = 16;
    (0..count)
        .map(|_| {
            let tag: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let section = Section { tag, at, len };
            at += 12 + len;
            section
        })
        .collect()
}

/// The same artifact as a version-2 writer produced it: no `ENCT`
/// section, so the decoder derives the encoding table itself.
fn without_enct(bytes: &[u8]) -> Vec<u8> {
    let enct = sections(bytes)
        .into_iter()
        .find(|s| &s.tag == b"ENCT")
        .unwrap();
    let mut out = bytes.to_vec();
    out.drain(enct.at..enct.payload() + enct.len);
    out[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
    let count = u32::from_le_bytes(out[12..16].try_into().unwrap());
    out[12..16].copy_from_slice(&(count - 1).to_le_bytes());
    reseal(&mut out);
    out
}

fn checkpoint() -> TrainingCheckpoint {
    TrainingCheckpoint {
        weights: Matrix::from_fn(7, 3, |i, j| ((i * 3 + j) as f64 * 0.29).cos()),
        epoch: 11,
        samples_seen: 11 * 64,
        seed: 5,
        step_scale: 0.01,
        last_mse: 0.2,
        rng_state: Xoshiro256PlusPlus::seed_from_u64(5).state(),
    }
}

/// What a set of bytes claims to be.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Model,
    Checkpoint,
}

fn seeds() -> Vec<(&'static str, Kind, Vec<u8>)> {
    let calibrated = compiled(9, 4, Fidelity::Calibrated, true).to_bytes();
    let ideal = compiled(6, 3, Fidelity::Ideal, false).to_bytes();
    vec![
        ("calibrated + canary", Kind::Model, calibrated.clone()),
        ("ideal", Kind::Model, ideal),
        (
            "exact + converters",
            Kind::Model,
            compiled(5, 3, Fidelity::Exact, true).to_bytes(),
        ),
        ("v2, no ENCT", Kind::Model, without_enct(&calibrated)),
        ("checkpoint", Kind::Checkpoint, checkpoint().to_bytes()),
    ]
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

fn reseal(bytes: &mut [u8]) {
    if bytes.len() < 4 {
        return;
    }
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

/// Decodes `bytes` as `kind`, failing the test, with `what` to reproduce
/// it, on a panic or an untyped outcome.
fn decode(case: u64, kind: Kind, bytes: &[u8], what: &dyn Fn() -> String) {
    CASE.store(case, Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Model => CompiledModel::from_bytes(bytes).map(drop),
        Kind::Checkpoint => TrainingCheckpoint::from_bytes(bytes).map(drop),
    }));
    match outcome {
        Ok(Ok(())) | Ok(Err(RuntimeError::Artifact(_))) => {}
        // A structurally sound file with inconsistent model state: the
        // typed error `CompiledModel::from_bytes` documents for it.
        Ok(Err(RuntimeError::InvalidParameter { .. } | RuntimeError::Xbar(_)))
            if matches!(kind, Kind::Model) => {}
        Ok(Err(other)) => panic!("{}: untyped decode error {other:?}", what()),
        Err(_) => panic!("{}: the decoder panicked", what()),
    }
}

/// Offsets of every length or count field in `bytes`, each with its
/// width in bytes and a name.
fn count_fields(bytes: &[u8]) -> Vec<(usize, usize, String)> {
    let mut fields = vec![(12, 4, "section count".to_string())];
    for s in sections(bytes) {
        let tag = String::from_utf8_lossy(&s.tag).into_owned();
        fields.push((s.at + 4, 8, format!("{tag} payload length")));
        let p = s.payload();
        let named: &[(usize, &str)] = match &s.tag {
            b"ROUT" => &[(0, "physical rows"), (8, "logical rows")],
            b"GPOS" | b"GNEG" | b"APOS" | b"ANEG" => &[(0, "rows"), (8, "cols")],
            b"CNRY" => &[(0, "probe count"), (8, "input length")],
            b"ENCT" => &[(1, "row count")],
            // 5 scalars and 4 RNG words precede the weight matrix.
            b"TRNC" => &[(72, "weight rows"), (80, "weight cols")],
            _ => &[],
        };
        for &(offset, name) in named {
            fields.push((p + offset, 8, format!("{tag} {name}")));
        }
    }
    fields
}

fn read_field(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(raw)
}

#[test]
fn boundary_values_in_every_count_field_decode_typed() {
    let mut case = 0_u64;
    for (name, kind, base) in seeds() {
        for (at, width, field) in count_fields(&base) {
            let current = read_field(&base, at, width);
            let payload = base.len() as u64;
            let values = [
                0,
                1,
                current.wrapping_sub(1),
                current.wrapping_add(1),
                payload - 1,
                payload + 1,
                1 << 32,
                1 << 40,
                u64::MAX,
            ];
            for value in values {
                case += 1;
                let mut bytes = base.clone();
                let value = if width == 4 {
                    value.min(u64::from(u32::MAX))
                } else {
                    value
                };
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                reseal(&mut bytes);
                decode(case, kind, &bytes, &|| {
                    format!("{name}: {field} set to {value:#x} (case {case:#x})")
                });
            }
        }
    }
}

/// Random mutations per fuzz run.
const MUTATIONS: u64 = 10_000;

#[test]
fn seeded_byte_mutations_decode_typed() {
    let seeds = seeds();
    for seed in 0..MUTATIONS {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let (name, kind, base) = &seeds[rng.next_below(seeds.len())];
        let mut bytes = base.clone();
        let body = bytes.len() - 4;
        for _ in 0..1 + rng.next_below(4) {
            // Past the magic and version most of the time, so the
            // decoder proper sees the damage.
            let at = if rng.next_below(8) == 0 {
                rng.next_below(body)
            } else {
                12 + rng.next_below(body - 12)
            };
            bytes[at] = match rng.next_below(4) {
                0 => bytes[at] ^ (1 << rng.next_below(8)),
                1 => 0x00,
                2 => 0xFF,
                _ => rng.next_u64() as u8,
            };
        }
        reseal(&mut bytes);
        decode(seed, *kind, &bytes, &|| {
            format!("{name}: mutation seed {seed} (rerun with that seed)")
        });
    }
}

#[test]
fn the_seed_inputs_decode_cleanly() {
    for (name, kind, bytes) in seeds() {
        let ok = match kind {
            Kind::Model => CompiledModel::from_bytes(&bytes).is_ok(),
            Kind::Checkpoint => TrainingCheckpoint::from_bytes(&bytes).is_ok(),
        };
        assert!(ok, "{name} must decode before it is mutated");
    }
}

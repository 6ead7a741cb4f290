//! Crash-safety and totality properties of the two spill codecs over the
//! shared [`FrameFile`]: a reopen after a cut at *any* byte offset keeps
//! exactly the frames that were complete, and no payload — truncated,
//! bit-flipped or random — makes a decoder panic.

use crate::exemplar::{self, decode_exemplar, encode_exemplar, Exemplar, Verdict};
use crate::history::{self, decode_entry, encode_entry, HistoryEntry};
use crate::live::{SeriesAgg, WindowSnapshot};
use crate::render::CompletedCall;
use causeway_collector::segment::FrameFile;
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};
use causeway_core::record::FunctionKey;
use causeway_core::uuid::Uuid;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::{Path, PathBuf};

/// Splitmix64: a well-mixed value per seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn history_entry(seed: u64) -> HistoryEntry {
    let mut series = BTreeMap::new();
    for i in 0..seed % 3 {
        let mut agg = SeriesAgg::default();
        for j in 0..1 + (seed >> 8) % 4 {
            agg.record(mix(seed ^ (i << 16) ^ (j << 32)) >> (24 + seed % 32));
        }
        series.insert((InterfaceId(i as u32), MethodIndex((seed >> 16) as u16)), agg);
    }
    let folded = (0..(seed >> 4) % 3)
        .map(|i| (format!("root;s{i};\u{e9}{seed:x}"), mix(seed.wrapping_add(i))))
        .collect();
    let window = WindowSnapshot {
        index: seed,
        span_ns: mix(seed),
        series,
        completed_calls: seed >> 3,
        abnormalities: seed % 7,
    };
    HistoryEntry { window, folded }
}

fn exemplar_value(seed: u64) -> Exemplar {
    const KINDS: [CallKind; 4] =
        [CallKind::Sync, CallKind::Oneway, CallKind::Collocated, CallKind::CustomMarshal];
    let completions = (0..seed % 4)
        .map(|i| CompletedCall {
            func: FunctionKey {
                interface: InterfaceId((seed >> 8) as u32 % 9),
                method: MethodIndex(i as u16),
                object: ObjectId(mix(seed.wrapping_add(i))),
            },
            kind: KINDS[((seed >> i) % 4) as usize],
            depth: i as usize,
            latency_ns: mix(seed ^ i) >> 20,
        })
        .collect();
    Exemplar {
        id: seed >> 1,
        chain: Uuid((u128::from(mix(seed)) << 64) | u128::from(seed)),
        series: (InterfaceId(seed as u32 % 5), MethodIndex((seed >> 40) as u16)),
        latency_ns: mix(seed ^ 1),
        window_index: seed >> 20,
        verdict: [Verdict::Slow, Verdict::Abnormal, Verdict::Sampled][(seed % 3) as usize],
        completions,
    }
}

/// A unique temp path that cleans itself up when the test ends.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!(
            "causeway_spill_property_{tag}_{}.bin",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Reopens `path` through the codec, collecting every accepted value.
fn reopen<T>(
    path: &Path,
    magic: &[u8],
    decode: fn(&[u8]) -> Option<T>,
) -> (FrameFile, Vec<T>) {
    let mut kept = Vec::new();
    let file = FrameFile::open(path, magic, |_, payload| {
        let Some(value) = decode(payload) else {
            return false;
        };
        kept.push(value);
        true
    })
    .expect("a cut frame file reopens");
    (file, kept)
}

/// Writes `values` one frame per append, then cuts the file at every byte
/// offset and checks the resume path: exactly the frames ending at or
/// before the cut survive, the file is truncated to the last of them, and
/// one more append reads back (by span and by a second reopen) after them.
fn assert_resume_at_every_cut<T: PartialEq + Debug>(
    tag: &str,
    magic: &[u8],
    values: &[T],
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<T>,
    extra: &T,
) {
    let tmp = TempPath::new(tag);
    let mut ends = vec![magic.len() as u64];
    {
        let mut file = FrameFile::create(&tmp.0, magic).unwrap();
        for value in values {
            let (offset, len) = file.append([encode(value)]).unwrap()[0];
            assert_eq!(offset, *ends.last().unwrap());
            ends.push(offset + u64::from(len));
        }
    }
    let bytes = std::fs::read(&tmp.0).unwrap();
    assert_eq!(bytes.len() as u64, *ends.last().unwrap());
    let extra_payload = encode(extra);
    for cut in 0..=bytes.len() {
        std::fs::write(&tmp.0, &bytes[..cut]).unwrap();
        let complete = ends[1..].iter().filter(|&&end| end <= cut as u64).count();
        let (mut file, kept) = reopen(&tmp.0, magic, decode);
        assert_eq!(kept.len(), complete, "cut at {cut}");
        assert!(kept.iter().zip(values).all(|(k, v)| k == v), "cut at {cut}");
        assert_eq!(file.end(), ends[complete], "cut at {cut}");
        assert_eq!(std::fs::metadata(&tmp.0).unwrap().len(), ends[complete], "cut at {cut}");

        let (offset, len) = file.append([&extra_payload]).unwrap()[0];
        assert_eq!(offset, ends[complete], "cut at {cut}");
        assert_eq!(file.read_at(offset, len).as_deref(), Some(&extra_payload[..]));
        drop(file);
        let (_, again) = reopen(&tmp.0, magic, decode);
        assert_eq!(again.len(), complete + 1, "cut at {cut}");
        assert!(again[..complete].iter().zip(values).all(|(k, v)| k == v), "cut at {cut}");
        assert_eq!(&again[complete], extra, "cut at {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn history_spill_resumes_after_a_cut_at_every_byte_offset(
        seeds in prop::collection::vec(any::<u64>(), 1..4),
        extra in any::<u64>(),
    ) {
        let values: Vec<HistoryEntry> = seeds.iter().map(|&s| history_entry(s)).collect();
        assert_resume_at_every_cut(
            "history",
            history::SPILL_MAGIC,
            &values,
            encode_entry,
            decode_entry,
            &history_entry(extra),
        );
    }

    #[test]
    fn exemplar_spill_resumes_after_a_cut_at_every_byte_offset(
        seeds in prop::collection::vec(any::<u64>(), 1..4),
        extra in any::<u64>(),
    ) {
        let values: Vec<Exemplar> = seeds.iter().map(|&s| exemplar_value(s)).collect();
        assert_resume_at_every_cut(
            "exemplar",
            exemplar::SPILL_MAGIC,
            &values,
            encode_exemplar,
            decode_exemplar,
            &exemplar_value(extra),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spill_decoders_are_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_entry(&bytes);
        let _ = decode_exemplar(&bytes);
    }

    #[test]
    fn spill_decoders_survive_bit_flips(seed in any::<u64>(), at in any::<usize>(), bit in 0u8..8) {
        let mut payload = encode_entry(&history_entry(seed));
        let i = at % payload.len();
        payload[i] ^= 1 << bit;
        let _ = decode_entry(&payload);
        let mut payload = encode_exemplar(&exemplar_value(seed));
        let i = at % payload.len();
        payload[i] ^= 1 << bit;
        let _ = decode_exemplar(&payload);
    }

    #[test]
    fn spill_codecs_round_trip_and_reject_every_strict_prefix(seed in any::<u64>()) {
        let entry = history_entry(seed);
        let payload = encode_entry(&entry);
        prop_assert_eq!(decode_entry(&payload), Some(entry));
        for cut in 0..payload.len() {
            prop_assert_eq!(decode_entry(&payload[..cut]), None, "entry prefix of {} bytes", cut);
        }
        let e = exemplar_value(seed);
        let payload = encode_exemplar(&e);
        prop_assert_eq!(decode_exemplar(&payload), Some(e));
        for cut in 0..payload.len() {
            prop_assert_eq!(decode_exemplar(&payload[..cut]), None, "exemplar prefix of {} bytes", cut);
        }
    }
}

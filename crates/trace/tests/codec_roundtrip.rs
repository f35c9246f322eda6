//! Property tests of the binary trace IR: encode→decode is lossless for
//! arbitrary access streams, corrupt input fails with an error, never a
//! panic, and the decoder's buffered fast path and its careful path agree
//! on every stream, valid or not.

use std::cell::Cell;
use std::io::Read;

use proptest::prelude::*;

use compmem_trace::codec::{
    CodecError, EncodedTrace, SegmentEntry, TraceReader, TraceRecord, TraceSummary, TraceWriter,
};
use compmem_trace::{Access, AccessKind, Addr, RegionId, TaskId};

/// Strategy ingredients for one arbitrary access: address, kind selector,
/// size selector, task id, region id, cycle gap.
type RawAccess = (u64, u8, u8, u32, u32, u64);

fn access_strategy() -> impl Strategy<Value = Vec<RawAccess>> {
    prop::collection::vec(
        // Addresses across the whole 48-bit range force large positive and
        // negative deltas; tasks/regions from a small pool exercise the
        // dictionary and the context-repeat flag; gaps up to 2^20 exercise
        // multi-byte varints.
        (
            0u64..(1 << 48),
            0u8..3,
            0u8..4,
            0u32..6,
            0u32..9,
            0u64..(1 << 20),
        ),
        1..200,
    )
}

/// A region table covering the generator's region-id pool (0..9): the
/// codec validates that every region an access names exists in the
/// embedded table, so the arbitrary streams must draw from real regions.
fn region_table() -> compmem_trace::RegionTable {
    let mut table = compmem_trace::RegionTable::new();
    for r in 0..9u32 {
        table
            .insert(
                format!("r{r}"),
                compmem_trace::RegionKind::TaskData {
                    task: TaskId::new(r),
                },
                1 << 20,
            )
            .unwrap();
    }
    table
}

fn materialise(raw: &[RawAccess], processors: u32) -> Vec<(u32, u64, Access)> {
    let mut cycle = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(addr, kind, size, task, region, gap))| {
            let kind = match kind {
                0 => AccessKind::InstrFetch,
                1 => AccessKind::Load,
                _ => AccessKind::Store,
            };
            let size = [1u16, 2, 4, 64][size as usize];
            let access = Access {
                addr: Addr::new(addr),
                kind,
                size,
                task: TaskId::new(task),
                region: RegionId::new(region),
            };
            let processor = (i as u32) % processors;
            cycle += gap;
            (processor, cycle, access)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoding and decoding an arbitrary access stream preserves every
    /// field: addresses, kinds, sizes, tasks, regions, processors and
    /// cycles (i.e. all cycle gaps).
    #[test]
    fn roundtrip_is_lossless(
        raw in access_strategy(),
        processors in 1u32..5,
    ) {
        let records = materialise(&raw, processors);
        let table = region_table();
        let mut writer = TraceWriter::new(Vec::new(), &table, processors).unwrap();
        for (processor, cycle, access) in &records {
            writer.record(*processor, *cycle, access);
        }
        let (bytes, summary) = writer.finish().unwrap();
        prop_assert_eq!(summary.accesses, records.len() as u64);

        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        prop_assert_eq!(reader.processors(), processors);
        let mut decoded = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            decoded.push(record);
        }
        prop_assert_eq!(decoded.len(), records.len());
        for (record, (processor, cycle, access)) in decoded.iter().zip(&records) {
            prop_assert_eq!(record.processor, *processor);
            prop_assert_eq!(record.cycle, *cycle);
            prop_assert_eq!(record.access, *access);
        }

        // The validated in-memory form agrees and its run decomposition
        // covers every access exactly once, in order.
        let trace = EncodedTrace::from_bytes(bytes).unwrap();
        prop_assert_eq!(trace.accesses(), records.len() as u64);
        let replayed: Vec<Access> = trace
            .runs()
            .iter()
            .flat_map(|run| run.accesses.iter().copied())
            .collect();
        let originals: Vec<Access> = records.iter().map(|(_, _, a)| *a).collect();
        prop_assert_eq!(replayed, originals);
    }

    /// Flipping any single byte of a valid stream (or truncating it) must
    /// produce `Err` or a different-but-valid decode — never a panic.
    #[test]
    fn corrupt_input_errors_instead_of_panicking(
        raw in access_strategy(),
        flip_pos_seed in 0usize..10_000,
        flip_bits in 1u8..=255,
    ) {
        let records = materialise(&raw, 2);
        let table = region_table();
        let mut writer = TraceWriter::new(Vec::new(), &table, 2).unwrap();
        for (processor, cycle, access) in &records {
            writer.record(*processor, *cycle, access);
        }
        let (bytes, _) = writer.finish().unwrap();

        // Single-byte corruption anywhere in the stream.
        let mut corrupt = bytes.clone();
        let pos = flip_pos_seed % corrupt.len();
        corrupt[pos] ^= flip_bits;
        match EncodedTrace::from_bytes(corrupt) {
            // Errors are expected; a successful parse (the flip happened to
            // produce another valid stream, e.g. inside an address delta)
            // must still be internally consistent.
            Err(CodecError::Io(_)) => prop_assert!(false, "no I/O happens in memory"),
            Err(_) => {}
            Ok(trace) => {
                let decoded: u64 = trace.runs().iter().map(|r| r.accesses.len() as u64).sum();
                prop_assert_eq!(decoded, trace.accesses());
            }
        }

        // Truncation at the corruption point must error (END is mandatory).
        let truncated = bytes[..pos].to_vec();
        prop_assert!(EncodedTrace::from_bytes(truncated).is_err());
    }
}

// ----- differential: the fast (buffered-window) path ≡ the careful path -----

/// A reader that yields one byte per `read` call. The decoder's buffer then
/// never holds a whole record, so every record takes the careful,
/// end-checked path. `pos` exposes how far the decoder read.
struct OneByteReader<'a> {
    bytes: &'a [u8],
    pos: &'a Cell<usize>,
}

impl Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let pos = self.pos.get();
        if pos >= self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[pos];
        self.pos.set(pos + 1);
        Ok(1)
    }
}

/// Everything a validating decode yields.
#[derive(Debug, PartialEq)]
struct Decoded {
    summary: TraceSummary,
    directory: Vec<SegmentEntry>,
    records: Vec<TraceRecord>,
}

/// Decodes through `EncodedTrace::from_bytes` (and its slice reader), where
/// every record with a maximal record's width buffered takes the fast path.
fn decode_buffered(bytes: &[u8]) -> Result<Decoded, String> {
    let trace = EncodedTrace::from_bytes(bytes.to_vec()).map_err(|e| e.to_string())?;
    let records = trace
        .reader()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Decoded {
        summary: trace.summary(),
        directory: trace.segment_directory().to_vec(),
        records,
    })
}

/// The same validation with every byte through the careful path: the
/// record walk, the trailing-byte check and the summary `from_bytes`
/// derives.
fn decode_careful(bytes: &[u8]) -> Result<Decoded, String> {
    let pos = Cell::new(0);
    let mut reader =
        TraceReader::new(OneByteReader { bytes, pos: &pos }).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        records.push(record);
    }
    if pos.get() < bytes.len() {
        return Err(CodecError::Corrupt {
            reason: "trailing bytes after END record",
        }
        .to_string());
    }
    let directory = reader.directory().unwrap_or_default().to_vec();
    let runs = records
        .iter()
        .enumerate()
        .filter(|(i, r)| *i == 0 || records[i - 1].processor != r.processor)
        .count() as u64;
    Ok(Decoded {
        summary: TraceSummary {
            accesses: records.len() as u64,
            runs,
            processors: reader.processors(),
            encoded_bytes: bytes.len() as u64,
            segments: directory.len() as u64,
        },
        directory,
        records,
    })
}

/// Both decoders accept the same streams with the same results, and
/// reject the same streams with the same error.
fn assert_paths_agree(bytes: &[u8], what: &str) {
    assert_eq!(decode_buffered(bytes), decode_careful(bytes), "{what}");
}

/// Encodes `raw` on `processors` processors with segments of
/// `segment_accesses` accesses (small segments put many seams and a long
/// directory into short streams).
fn encode(raw: &[RawAccess], processors: u32, segment_accesses: u64) -> Vec<u8> {
    let table = region_table();
    let mut writer =
        TraceWriter::with_segment_accesses(Vec::new(), &table, processors, segment_accesses)
            .unwrap();
    for (processor, cycle, access) in materialise(raw, processors) {
        writer.record(processor, cycle, &access);
    }
    writer.finish().unwrap().0
}

/// Encoded length of a LEB128 varint.
fn varint_len(value: u64) -> usize {
    (64 - value.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Byte offset of the directory trailer: everything after the END tag.
fn trailer_start(bytes: &[u8]) -> usize {
    let trace = EncodedTrace::from_bytes(bytes.to_vec()).unwrap();
    let directory = trace.segment_directory();
    let trailer: usize = varint_len(directory.len() as u64)
        + directory
            .iter()
            .map(|s| {
                varint_len(s.byte_offset)
                    + varint_len(s.first_cycle)
                    + varint_len(s.accesses)
                    + varint_len(s.regions.len() as u64)
                    + s.regions
                        .iter()
                        .map(|r| varint_len(r.index() as u64))
                        .sum::<usize>()
            })
            .sum::<usize>();
    let start = bytes.len() - trailer;
    assert_eq!(bytes[start - 1], 0x00, "the END tag precedes the trailer");
    start
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Valid streams: identical summary, directory and records.
    #[test]
    fn fast_and_careful_paths_decode_valid_streams_identically(
        raw in access_strategy(),
        processors in 1u32..5,
        segment_accesses in 1u64..64,
    ) {
        let bytes = encode(&raw, processors, segment_accesses);
        let buffered = decode_buffered(&bytes).unwrap();
        prop_assert_eq!(buffered.records.len(), raw.len());
        prop_assert_eq!(&Ok(buffered), &decode_careful(&bytes));
    }

    /// Corrupt streams: a single-byte flip, a multi-byte splice of random
    /// bytes and a splice of a span copied from elsewhere in the stream
    /// (well-formed records in the wrong place) are accepted or rejected
    /// alike — and rejected with the same error.
    #[test]
    fn fast_and_careful_paths_reject_corruption_alike(
        raw in access_strategy(),
        segment_accesses in 1u64..64,
        flip in (0usize..100_000, 1u8..=255),
        splice in (
            0usize..100_000,
            0usize..24,
            prop::collection::vec(0u8..=255, 1..24),
        ),
        copy in (0usize..100_000, 2usize..40),
    ) {
        let (flip_seed, flip_bits) = flip;
        let (splice_seed, removed, inserted) = splice;
        let (copy_from_seed, copy_len) = copy;
        let bytes = encode(&raw, 2, segment_accesses);

        let mut flipped = bytes.clone();
        let pos = flip_seed % flipped.len();
        flipped[pos] ^= flip_bits;
        assert_paths_agree(&flipped, "single-byte flip");

        let at = splice_seed % bytes.len();
        let end = (at + removed).min(bytes.len());
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&inserted);
        spliced.extend_from_slice(&bytes[end..]);
        assert_paths_agree(&spliced, "random multi-byte splice");

        let from = copy_from_seed % bytes.len();
        let span = &bytes[from..(from + copy_len).min(bytes.len())];
        let mut copied = bytes[..at].to_vec();
        copied.extend_from_slice(span);
        copied.extend_from_slice(&bytes[at..]);
        assert_paths_agree(&copied, "self-copy splice");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every prefix truncation, and every single-bit flip of the directory
    /// trailer, is rejected by both paths with the same error. Short
    /// streams keep the quadratic sweep cheap.
    #[test]
    fn fast_and_careful_paths_agree_on_every_truncation_and_trailer_tamper(
        raw in prop::collection::vec(
            (0u64..(1 << 48), 0u8..3, 0u8..4, 0u32..6, 0u32..9, 0u64..(1 << 20)),
            1..24,
        ),
        segment_accesses in 1u64..8,
    ) {
        let bytes = encode(&raw, 3, segment_accesses);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            prop_assert!(decode_careful(truncated).is_err());
            assert_paths_agree(truncated, "prefix truncation");
        }
        for pos in trailer_start(&bytes)..bytes.len() {
            for bit in [0x01u8, 0x40, 0x80] {
                let mut tampered = bytes.clone();
                tampered[pos] ^= bit;
                prop_assert!(decode_careful(&tampered).is_err());
                assert_paths_agree(&tampered, "directory tamper");
            }
        }
    }
}

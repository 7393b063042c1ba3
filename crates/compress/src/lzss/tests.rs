//! What the LZSS kernels owe: round trips, typed errors on corrupt input,
//! a bounded decode — and, against `reference.rs`, the same stream bit for
//! bit out of the encoder and the same verdict on every stream, valid or
//! not, out of the decoder.

use super::reference::Reference;
use super::*;
use proptest::prelude::*;
use rand::prelude::*;

fn roundtrip_with(c: &Lzss, data: &[u8]) -> Vec<u8> {
    let enc = c.encode_vec(data);
    c.decode_vec(&enc).expect("decode ok")
}

fn roundtrip(data: &[u8]) -> Vec<u8> {
    roundtrip_with(&Lzss::default(), data)
}

#[test]
fn empty_and_tiny() {
    assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    assert_eq!(roundtrip(b"a"), b"a");
    assert_eq!(roundtrip(b"abc"), b"abc");
}

#[test]
fn repeated_text_compresses() {
    let data = b"damaris damaris damaris damaris damaris ".repeat(50);
    let enc = Lzss::default().encode_vec(&data);
    assert!(
        enc.len() < data.len() / 10,
        "{} vs {}",
        enc.len(),
        data.len()
    );
    assert_eq!(Lzss::default().decode_vec(&enc).unwrap(), data);
}

#[test]
fn overlapping_match_rle_trick() {
    // A long constant run must decode through the overlapping-copy path.
    let data = vec![42u8; 10_000];
    let enc = Lzss::default().encode_vec(&data);
    assert!(enc.len() < 32);
    assert_eq!(Lzss::default().decode_vec(&enc).unwrap(), data);
}

#[test]
fn smooth_field_data_compresses_well() {
    // Simulated "atmospheric" field: a uniform base state with a warm
    // bubble perturbation — the structure the paper compresses at 187%.
    // Large constant regions dominate, as in real CM1 output.
    let mut bytes = Vec::new();
    for i in 0..65_536i64 {
        let d = (i - 32_768).abs() as f32;
        let v = if d < 4000.0 {
            300.0 + 4.0 * (1.0 - d / 4000.0)
        } else {
            300.0
        };
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let enc = Lzss::default().encode_vec(&bytes);
    let ratio = crate::paper_ratio_percent(bytes.len(), enc.len());
    assert!(
        ratio > 187.0,
        "expected gzip-like compression, got {ratio:.0}%"
    );
    assert_eq!(Lzss::default().decode_vec(&enc).unwrap(), bytes);
}

#[test]
fn random_data_overhead_is_bounded() {
    let data = random_bytes(7, 100_000);
    let enc = Lzss::default().encode_vec(&data);
    assert!(enc.len() <= data.len() + data.len() / 64 + 16);
    assert_eq!(Lzss::default().decode_vec(&enc).unwrap(), data);
}

#[test]
fn fast_and_best_agree_on_content() {
    let data = b"the quick brown fox jumps over the lazy dog ".repeat(100);
    for c in configs() {
        assert_eq!(roundtrip_with(&c, &data), data, "config {c:?}");
    }
}

#[test]
fn corrupt_streams_error_not_panic() {
    let c = Lzss::default();
    // Match referring before start of output.
    let mut bogus = Vec::new();
    varint::write_u64((5 << 1) | 1, &mut bogus);
    varint::write_u64(3, &mut bogus); // dist 3 but nothing produced
    assert!(c.decode_vec(&bogus).is_err());
    // Zero distance.
    let mut bogus = Vec::new();
    varint::write_u64(1 << 1, &mut bogus);
    bogus.push(b'x');
    varint::write_u64((4 << 1) | 1, &mut bogus);
    varint::write_u64(0, &mut bogus);
    assert!(c.decode_vec(&bogus).is_err());
    // Truncated literal.
    let mut bogus = Vec::new();
    varint::write_u64(9 << 1, &mut bogus);
    bogus.push(b'x');
    assert!(c.decode_vec(&bogus).is_err());
}

#[test]
fn long_range_matches_within_window() {
    // Two identical 8 KiB blocks 16 KiB apart: within the 32 KiB window.
    let block = random_bytes(11, 8192);
    let filler = random_bytes(12, 16_384);
    let mut data = block.clone();
    data.extend_from_slice(&filler);
    data.extend_from_slice(&block);
    let enc = Lzss::default().encode_vec(&data);
    // The second block should mostly collapse into matches.
    assert!(enc.len() < block.len() + filler.len() + block.len() / 4);
    assert_eq!(Lzss::default().decode_vec(&enc).unwrap(), data);
}

// --- the bounded decode -------------------------------------------------

#[test]
fn decode_stops_at_the_limit_without_allocating_past_it() {
    let c = Lzss::default();
    for data in corpus() {
        let enc = c.encode_vec(&data);
        let mut out = Vec::new();
        assert_eq!(c.decode_into(&enc, &mut out, data.len()), Ok(data.len()));
        assert_eq!(out, data);
        assert!(out.capacity() <= data.len().max(1), "sized once, exactly");
        if !data.is_empty() {
            let mut out = Vec::new();
            assert!(c.decode_into(&enc, &mut out, data.len() - 1).is_err());
            assert!(out.is_empty() && out.capacity() < data.len());
        }
    }
}

#[test]
fn a_forged_match_storm_is_refused_at_the_limit() {
    // One literal byte, then 3-byte tokens worth 64 KiB each: 30 KB of
    // stream asking for 640 MB.
    let mut forged = vec![1 << 1, b'x'];
    for _ in 0..10_000 {
        varint::write_u64(((MAX_MATCH as u64) << 1) | 1, &mut forged);
        varint::write_u64(1, &mut forged);
    }
    let mut out = b"kept".to_vec();
    let err = Lzss::default()
        .decode_into(&forged, &mut out, 1 << 20)
        .unwrap_err();
    assert!(err.message.contains("limit"), "{err}");
    assert_eq!(out, b"kept", "what was there before stays, nothing more");
    assert!(out.capacity() <= 4 + (1 << 20));
}

#[test]
fn decode_appends_after_what_the_buffer_holds() {
    let data = text(3000);
    let enc = Lzss::default().encode_vec(&data);
    let mut out = b"prefix".to_vec();
    let n = Lzss::default()
        .decode_into(&enc, &mut out, data.len())
        .unwrap();
    assert_eq!(n, data.len());
    assert_eq!(&out[..6], b"prefix");
    assert_eq!(&out[6..], &data[..]);
}

// --- inputs ---------------------------------------------------------------

fn configs() -> [Lzss; 3] {
    [Lzss::fast(), Lzss::default(), Lzss::best()]
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rand::Rng::gen(&mut rng)).collect()
}

fn text(len: usize) -> Vec<u8> {
    let words: [&[u8]; 6] = [
        b"wind ",
        b"temp ",
        b"pressure ",
        b"0000",
        b"damaris ",
        b"qv ",
    ];
    let mut rng = StdRng::seed_from_u64(len as u64);
    let mut out = Vec::new();
    while out.len() < len {
        out.extend_from_slice(words[rng.gen_range(0..words.len())]);
    }
    out.truncate(len);
    out
}

/// The benchmark's `insitu` payload (`Field::Smooth` in its `gen.rs`): f32
/// samples of three sinusoids plus noise, quantised to 1/1024 around 300 —
/// the field the kernels were shaped on.
fn smooth_field(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (len / 4) as f32;
    let waves: Vec<(f32, f32, f32)> = [1.0f32, 0.5, 0.25]
        .into_iter()
        .map(|amp| {
            let cycles = 2.0 + 14.0 * rng.gen::<f32>();
            let phase = std::f32::consts::TAU * rng.gen::<f32>();
            (amp, std::f32::consts::TAU * cycles / n, phase)
        })
        .collect();
    let mut out = Vec::with_capacity(len);
    for i in 0..len / 4 {
        let x = i as f32;
        let smooth: f32 = waves.iter().map(|(a, k, p)| a * (k * x + p).sin()).sum();
        let noisy = smooth + 0.5 * (rng.gen::<f32>() - 0.5);
        let value = 300.0 + (noisy * 1024.0).round() / 1024.0;
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Longer than either window, with repeats at every distance: chain slots
/// are overwritten and candidates fall out of the window mid-chain.
fn beyond_the_window() -> Vec<u8> {
    let mut out = smooth_field(5, 48 << 10);
    out.extend_from_slice(&text(40 << 10));
    out.extend_from_within(1000..60_000);
    out.extend_from_slice(&random_bytes(9, 10_000));
    out.extend_from_within(70_000..110_000);
    out
}

fn corpus() -> Vec<Vec<u8>> {
    let mut inputs = vec![
        Vec::new(),
        b"a".to_vec(),
        b"abc".to_vec(),
        b"abcd".to_vec(),
        b"abcdabcd".to_vec(),
        vec![0u8; 1],
        vec![7u8; 100_000],
        [vec![1u8; 5000], vec![2u8; 3], vec![1u8; 70_000]].concat(),
        random_bytes(1, 20_000),
        text(30_000),
        beyond_the_window(),
    ];
    for (seed, kib) in [(1, 4), (2, 16), (3, 16), (4, 64)] {
        inputs.push(smooth_field(seed, kib << 10));
    }
    inputs
}

// --- same stream: the encoder ----------------------------------------------

fn assert_same_stream(c: &Lzss, data: &[u8]) {
    let mut expected = Vec::new();
    Reference::of(c).encode(data, &mut expected);
    let got = c.encode_vec(data);
    assert!(
        got == expected,
        "{c:?} on {} bytes: {} encoded, the reference {}; first difference at {:?}",
        data.len(),
        got.len(),
        expected.len(),
        got.iter().zip(&expected).position(|(a, b)| a != b),
    );
}

#[test]
fn encoder_writes_the_reference_stream() {
    for data in corpus() {
        for c in configs() {
            assert_same_stream(&c, &data);
        }
    }
}

#[test]
fn encoder_appends_like_the_reference() {
    let data = text(5000);
    let mut got = b"head".to_vec();
    let mut expected = b"head".to_vec();
    let n = Lzss::default().encode(&data, &mut got);
    assert_eq!(
        n,
        Reference::of(&Lzss::default()).encode(&data, &mut expected)
    );
    assert_eq!(got, expected);
}

#[test]
fn a_thousand_calls_on_one_thread_leak_nothing_between_them() {
    // Every call finds the tables as the last one left them, other
    // windows' entries included.
    let mut rng = StdRng::seed_from_u64(23);
    for call in 0..1000u64 {
        let len = rng.gen_range(0..6000);
        let data = match call % 4 {
            0 => smooth_field(call, len),
            1 => text(len),
            2 => random_bytes(call, len),
            _ => vec![(call % 251) as u8; len],
        };
        assert_same_stream(&configs()[(call % 3) as usize], &data);
    }
}

#[test]
fn stamps_passing_u32_max_are_renewed_mid_input() {
    let data = beyond_the_window();
    for c in configs() {
        // Warm tables, then a call that starts just below the limit and
        // has to restamp with a window's worth of live entries…
        assert_same_stream(&c, &data);
        let margin = (data.len() / 2) as u32;
        SCRATCH.with_borrow_mut(|s| s.next = STAMP_LIMIT as u32 - margin);
        assert_same_stream(&c, &data);
        let after = SCRATCH.with_borrow(|s| s.next);
        assert!(after < 1 << 20, "stamps start low again, got {after}");
        // …and one that starts past it, with stale entries everywhere.
        SCRATCH.with_borrow_mut(|s| s.next = u32::MAX - 7);
        assert_same_stream(&c, &data);
        assert_same_stream(&c, &smooth_field(8, 16 << 10));
    }
}

// --- same verdict: the decoder ----------------------------------------------

/// Both decoders on one stream: the same bytes, or both an error.
fn assert_same_verdict(stream: &[u8]) {
    let c = Lzss::default();
    let mut expected = Vec::new();
    let reference = Reference::of(&c).decode(stream, &mut expected);
    match (c.decode_vec(stream), reference) {
        (Ok(got), Ok(_)) => assert!(got == expected, "different bytes from {stream:02x?}"),
        (Err(_), Err(_)) => {}
        (got, reference) => panic!(
            "verdicts differ on {stream:02x?}: {:?} vs reference {:?}",
            got.map(|v| v.len()),
            reference
        ),
    }
}

#[test]
fn decoder_agrees_with_the_reference_on_valid_streams() {
    for data in corpus() {
        for c in configs() {
            let stream = c.encode_vec(&data);
            assert_same_verdict(&stream);
            assert_eq!(c.decode_vec(&stream).unwrap(), data);
        }
    }
}

#[test]
fn decoder_agrees_with_the_reference_on_every_mutation_and_truncation() {
    let mut inputs = vec![
        smooth_field(6, 1024),
        text(600),
        [vec![9u8; 300], b"tail".to_vec(), vec![9u8; 90]].concat(),
        // Multi-byte varints: a literal block and a match of 200 and more.
        [random_bytes(2, 200), random_bytes(2, 200), vec![0u8; 9000]].concat(),
    ];
    inputs.push(inputs[0][..90].repeat(3));
    for data in inputs {
        let stream = Lzss::default().encode_vec(&data);
        assert!(
            stream.len() < 1200,
            "keep the sweep small: {}",
            stream.len()
        );
        for cut in 0..stream.len() {
            assert_same_verdict(&stream[..cut]);
        }
        let mut mutated = stream.clone();
        for at in 0..stream.len() {
            for value in 0..=255u8 {
                mutated[at] = value;
                assert_same_verdict(&mutated);
            }
            mutated[at] = stream[at];
        }
    }
}

// --- word copies at the edges ------------------------------------------------

fn push_literal(stream: &mut Vec<u8>, expected: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64((bytes.len() as u64) << 1, stream);
    stream.extend_from_slice(bytes);
    expected.extend_from_slice(bytes);
}

/// A match by its definition: one byte at a time, each from `dist` back.
fn push_match(stream: &mut Vec<u8>, expected: &mut Vec<u8>, dist: usize, len: usize) {
    varint::write_u64(((len as u64) << 1) | 1, stream);
    varint::write_u64(dist as u64, stream);
    for _ in 0..len {
        expected.push(expected[expected.len() - dist]);
    }
}

/// Decodes with room to spare and with none (the expected length as the
/// limit, so a word copy at the end has no slack to use).
fn assert_decodes_to(stream: &[u8], expected: &[u8]) {
    let c = Lzss::default();
    assert_eq!(c.decode_vec(stream).unwrap(), expected);
    let mut exact = Vec::new();
    c.decode_into(stream, &mut exact, expected.len()).unwrap();
    assert_eq!(exact, expected);
    assert_same_verdict(stream);
}

#[test]
fn every_overlap_of_distance_and_length_copies_by_definition() {
    let seed: Vec<u8> = (1..=16).collect();
    for dist in 1..=16 {
        for len in 1..=40 {
            for trailer in [&b""[..], b"z", b"0123456789"] {
                let (mut stream, mut expected) = (Vec::new(), Vec::new());
                push_literal(&mut stream, &mut expected, &seed);
                push_match(&mut stream, &mut expected, dist, len);
                if !trailer.is_empty() {
                    push_literal(&mut stream, &mut expected, trailer);
                }
                assert_decodes_to(&stream, &expected);
            }
        }
    }
}

#[test]
fn a_match_whose_source_ends_at_the_cursor() {
    for len in [1, 4, 7, 8, 9, 16, 300] {
        let (mut stream, mut expected) = (Vec::new(), Vec::new());
        push_literal(&mut stream, &mut expected, &random_bytes(len as u64, 300));
        push_match(&mut stream, &mut expected, len, len);
        push_match(&mut stream, &mut expected, len, len);
        assert_decodes_to(&stream, &expected);
    }
}

#[test]
fn short_literals_at_the_end_of_input_are_not_read_past() {
    for len in 0..=17 {
        let (mut stream, mut expected) = (Vec::new(), Vec::new());
        push_literal(&mut stream, &mut expected, b"0123456789abcdef");
        push_match(&mut stream, &mut expected, 12, 5);
        push_literal(&mut stream, &mut expected, &random_bytes(1, len));
        assert_decodes_to(&stream, &expected);
        // And as the only token there is.
        let (mut stream, mut expected) = (Vec::new(), Vec::new());
        push_literal(&mut stream, &mut expected, &random_bytes(2, len));
        assert_decodes_to(&stream, &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_structured(
        words in proptest::collection::vec(proptest::sample::select(
            vec![&b"wind"[..], b"temp", b"pressure", b"0000", b"damaris"]), 0..256),
    ) {
        let data: Vec<u8> = words.concat();
        prop_assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrip_fast_config(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(roundtrip_with(&Lzss::fast(), &data), data);
    }

    #[test]
    fn same_stream_on_arbitrary_input(
        // Few distinct bytes and pasted-in words: matches, overlaps and
        // lazy steps at every alignment.
        parts in proptest::collection::vec(prop_oneof![
            proptest::collection::vec(0u8..4, 0..40),
            proptest::collection::vec(any::<u8>(), 0..12),
            Just(b"pressure".to_vec()),
            (any::<u8>(), 0usize..300).prop_map(|(b, n)| vec![b; n]),
        ], 0..64),
        config in 0usize..3,
    ) {
        let data = parts.concat();
        let c = &configs()[config];
        let mut expected = Vec::new();
        Reference::of(c).encode(&data, &mut expected);
        prop_assert_eq!(c.encode_vec(&data), expected);
    }

    #[test]
    fn same_verdict_on_arbitrary_bytes(stream in proptest::collection::vec(any::<u8>(), 0..64)) {
        assert_same_verdict(&stream);
    }
}

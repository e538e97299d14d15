//! Protocol property suite: seeded PCG sweeps over every frame type.
//!
//! Three properties the wire layer must hold unconditionally:
//!
//! 1. **Round-trip** — `decode(encode(f)) == f` for every well-formed
//!    frame, including max-length keys and values, and regardless of
//!    how the byte stream is sliced on the way in;
//! 2. **Typed failure** — truncated, corrupt, or oversized input
//!    produces a typed [`DecodeError`], never a panic and never a
//!    silently wrong frame;
//! 3. **Poison** — after an error the reader reports the same error
//!    again rather than resynchronizing into garbage.

use rlb_hash::{Pcg64, Rng};
use rlb_serve::proto::{
    DecodeError, Frame, FrameReader, MAX_FRAME_LEN, MAX_KEY_LEN, MAX_VALUE_LEN, REJECT_CAUSES,
};

/// Draws one well-formed frame, with the boundary lengths (empty, max)
/// over-weighted.
fn arbitrary_frame(rng: &mut Pcg64) -> Frame {
    fn arbitrary_len(rng: &mut Pcg64, max: usize) -> usize {
        match rng.gen_index(4) {
            0 => 0,
            1 => max,
            _ => rng.gen_index(max + 1),
        }
    }
    fn bytes(rng: &mut Pcg64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }
    match rng.gen_index(5) {
        0 => Frame::Get {
            req_id: rng.next_u64() as u32,
            tenant: rng.next_u64() as u16,
            key: {
                let len = arbitrary_len(rng, MAX_KEY_LEN);
                bytes(rng, len)
            },
        },
        1 => Frame::Put {
            req_id: rng.next_u64() as u32,
            tenant: rng.next_u64() as u16,
            key: {
                let len = arbitrary_len(rng, MAX_KEY_LEN);
                bytes(rng, len)
            },
            value: {
                let len = arbitrary_len(rng, MAX_VALUE_LEN);
                bytes(rng, len)
            },
        },
        2 => Frame::Reply {
            req_id: rng.next_u64() as u32,
            latency: rng.next_u64() as u32,
            value: {
                let len = arbitrary_len(rng, MAX_VALUE_LEN);
                bytes(rng, len)
            },
        },
        3 => Frame::Reject {
            req_id: rng.next_u64() as u32,
            cause: REJECT_CAUSES[rng.gen_index(REJECT_CAUSES.len())],
        },
        _ => Frame::Ping {
            nonce: rng.next_u64(),
        },
    }
}

#[test]
fn every_frame_type_round_trips() {
    let mut rng = Pcg64::new(0x0f0f, 1);
    for case in 0..2000u32 {
        let frame = arbitrary_frame(&mut rng);
        let bytes = frame.to_bytes();
        assert!(bytes.len() <= 4 + MAX_FRAME_LEN, "case {case}");
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        let (frames, err) = reader.drain();
        assert_eq!(err, None, "case {case}: {frame:?}");
        assert_eq!(frames, vec![frame], "case {case}");
        assert_eq!(reader.pending(), 0, "case {case}: leftover bytes");
    }
}

#[test]
fn concatenated_streams_round_trip_under_arbitrary_slicing() {
    // Many frames in one stream, delivered in random-size slices (as a
    // TCP receive path would): the reassembled sequence is exact.
    let mut rng = Pcg64::new(0x51_1ce5, 2);
    for case in 0..200u32 {
        let frames: Vec<Frame> = (0..rng.gen_range(20) + 1)
            .map(|_| arbitrary_frame(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < stream.len() {
            let take = (rng.gen_index(97) + 1).min(stream.len() - off);
            reader.push(&stream[off..off + take]);
            off += take;
            // Whole frames are decoded on arrival: what stays buffered
            // is at most one frame short of its last byte.
            assert!(reader.pending() <= 3 + MAX_FRAME_LEN, "case {case}");
            let (mut frames, err) = reader.drain();
            assert_eq!(err, None, "case {case}");
            got.append(&mut frames);
        }
        assert_eq!(got, frames, "case {case}");
        assert_eq!(reader.pending(), 0, "case {case}");
    }
}

#[test]
fn the_error_does_not_depend_on_slicing() {
    // Corrupt one frame of a multi-frame stream. Pushed whole or in
    // random slices, the reader yields the same frames before the
    // error and the same error, and repeats the error once poisoned.
    let mut rng = Pcg64::new(0x0e44_0ce5, 6);
    for case in 0..300u32 {
        let frames: Vec<Frame> = (0..rng.gen_range(12) + 1)
            .map(|_| arbitrary_frame(&mut rng))
            .collect();
        let victim = rng.gen_index(frames.len());
        let mut stream = Vec::new();
        let mut at = 0;
        for (i, f) in frames.iter().enumerate() {
            if i == victim {
                at = stream.len();
            }
            f.encode(&mut stream);
        }
        let len = stream.len();
        let kind = rng.gen_index(4);
        match kind {
            0 => stream[at..at + 4].fill(0),
            1 => {
                let hostile = MAX_FRAME_LEN as u32 + 1 + rng.gen_range(1 << 20) as u32;
                stream[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
            }
            2 => stream[at + 4] = 6 + rng.gen_index(250) as u8, // no such tag
            _ => {
                // Any byte of the body: the frame may still decode.
                let body_len = frames[victim].to_bytes().len() - 4;
                stream[at + 4 + rng.gen_index(body_len)] ^= (rng.next_u64() as u8) | 1;
            }
        }

        let mut whole = FrameReader::new();
        whole.push(&stream);
        let (want, want_err) = whole.drain();
        if kind < 3 {
            assert!(want_err.is_some(), "case {case}: kind {kind} must fail");
            assert_eq!(want, frames[..victim], "case {case}");
        }
        if want_err.is_some() {
            assert_eq!(whole.drain(), (vec![], want_err.clone()), "case {case}");
        }

        let mut sliced = FrameReader::new();
        let mut got = Vec::new();
        let mut got_err = None;
        let mut off = 0;
        while off < len {
            let take = (rng.gen_index(700) + 1).min(len - off);
            sliced.push(&stream[off..off + take]);
            off += take;
            let (mut more, err) = sliced.drain();
            if got_err.is_some() {
                assert!(more.is_empty(), "case {case}: frames after the error");
                assert_eq!(err, got_err, "case {case}: the error changed");
                assert_eq!(sliced.pending(), 0, "case {case}");
            }
            got.append(&mut more);
            got_err = err;
        }
        assert_eq!(got, want, "case {case}");
        assert_eq!(got_err, want_err, "case {case}");
    }
}

#[test]
fn a_split_hostile_prefix_is_caught_on_its_fourth_byte() {
    for (declared, want) in [
        (
            u32::MAX,
            DecodeError::FrameTooLong {
                declared: u32::MAX as usize,
            },
        ),
        (0, DecodeError::EmptyFrame),
    ] {
        let prefix = declared.to_le_bytes();
        for split in 1..4 {
            let mut reader = FrameReader::new();
            reader.push(&prefix[..split]);
            assert_eq!(reader.drain(), (vec![], None), "{declared} at {split}");
            assert_eq!(reader.pending(), split, "{declared} at {split}");
            reader.push(&prefix[split..]);
            assert_eq!(reader.drain(), (vec![], Some(want.clone())));
            assert_eq!(reader.pending(), 0, "{declared} at {split}");
        }
    }
}

#[test]
fn a_poisoned_reader_keeps_nothing() {
    let mut reader = FrameReader::new();
    let mut bytes = Frame::Ping { nonce: 3 }.to_bytes();
    bytes.extend_from_slice(&0u32.to_le_bytes());
    reader.push(&bytes);
    let (frames, err) = reader.drain();
    assert_eq!(frames, vec![Frame::Ping { nonce: 3 }]);
    assert_eq!(err, Some(DecodeError::EmptyFrame));
    let flat = reader.pending();
    // 1 MiB more, in 4 KiB replies one byte short each: a live reader
    // would keep their bytes.
    let chunk = Frame::Reply {
        req_id: 1,
        latency: 1,
        value: vec![7; MAX_VALUE_LEN],
    }
    .to_bytes();
    let mut fed = 0;
    while fed < 1 << 20 {
        reader.push(&chunk[..chunk.len() - 1]);
        fed += chunk.len() - 1;
        assert_eq!(reader.pending(), flat);
        assert_eq!(reader.drain(), (vec![], Some(DecodeError::EmptyFrame)));
    }
}

#[test]
fn truncation_at_every_boundary_is_typed_never_panicking() {
    // Chop a valid frame's *body* at every possible length and decode:
    // each prefix either errors with a typed DecodeError or (for the
    // full length) succeeds. Nothing panics.
    let mut rng = Pcg64::new(0x7c09, 3);
    for _ in 0..150u32 {
        let frame = arbitrary_frame(&mut rng);
        let bytes = frame.to_bytes();
        let body = &bytes[4..];
        for cut in 0..body.len() {
            match Frame::decode_body(&body[..cut]) {
                Err(
                    DecodeError::EmptyFrame
                    | DecodeError::Truncated { .. }
                    | DecodeError::TrailingBytes { .. }
                    | DecodeError::KeyTooLong(_)
                    | DecodeError::ValueTooLong(_),
                ) => {}
                Ok(shorter) => {
                    // A strict prefix that still decodes must be a
                    // *different* well-formed frame (e.g. a key whose
                    // final bytes were cut alongside its length field
                    // cannot happen — lengths are explicit). Encoding
                    // it back must reproduce the prefix exactly.
                    assert_eq!(shorter.to_bytes()[4..].to_vec(), body[..cut].to_vec());
                }
                Err(other) => panic!("unexpected error class for a truncated body: {other:?}"),
            }
        }
        // The full body decodes back to the original.
        assert_eq!(Frame::decode_body(body), Ok(frame));
    }
}

#[test]
fn corrupt_single_bytes_never_panic_and_never_lie() {
    // Flip one byte anywhere in a valid encoded frame. The reader may
    // error (typed), may produce a different frame (the flip landed in
    // a payload byte) — but a successfully decoded frame must re-encode
    // to exactly the corrupted bytes (no silent normalization).
    let mut rng = Pcg64::new(0xbadb_17e5, 4);
    for _ in 0..120u32 {
        let frame = arbitrary_frame(&mut rng);
        let clean = frame.to_bytes();
        for _ in 0..16 {
            let mut bytes = clean.clone();
            let pos = rng.gen_index(bytes.len());
            let flip = (rng.next_u64() as u8) | 1; // nonzero => byte changes
            bytes[pos] ^= flip;
            let mut reader = FrameReader::new();
            reader.push(&bytes);
            let (frames, err) = reader.drain();
            if err.is_none() && reader.pending() == 0 {
                // Re-encode all decoded frames and compare.
                let mut re = Vec::new();
                for f in &frames {
                    f.encode(&mut re);
                }
                assert_eq!(re, bytes, "decode accepted bytes it cannot reproduce");
            }
        }
    }
}

#[test]
fn hostile_length_prefixes_are_rejected_up_front() {
    // An adversarial length prefix (huge, or zero) must fail fast with
    // a typed error — before the reader buffers unbounded data.
    let mut reader = FrameReader::new();
    let declared = (MAX_FRAME_LEN + 1) as u32;
    reader.push(&declared.to_le_bytes());
    let (frames, err) = reader.drain();
    assert!(frames.is_empty());
    assert_eq!(
        err,
        Some(DecodeError::FrameTooLong {
            declared: MAX_FRAME_LEN + 1
        })
    );

    let mut reader = FrameReader::new();
    reader.push(&0u32.to_le_bytes());
    let (_, err) = reader.drain();
    assert_eq!(err, Some(DecodeError::EmptyFrame));

    let mut reader = FrameReader::new();
    reader.push(&u32::MAX.to_le_bytes());
    let (_, err) = reader.drain();
    assert!(matches!(err, Some(DecodeError::FrameTooLong { .. })));
}

#[test]
fn bad_tags_and_causes_are_typed() {
    for tag in [0u8, 6, 7, 100, 255] {
        let mut reader = FrameReader::new();
        reader.push(&1u32.to_le_bytes());
        reader.push(&[tag]);
        let (_, err) = reader.drain();
        assert_eq!(err, Some(DecodeError::BadTag(tag)), "tag {tag}");
    }
    for cause in [REJECT_CAUSES.len() as u8, 9, 255] {
        // Reject body: tag 4, req_id u32, cause u8.
        let mut body = vec![4u8];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.push(cause);
        let mut reader = FrameReader::new();
        reader.push(&(body.len() as u32).to_le_bytes());
        reader.push(&body);
        let (_, err) = reader.drain();
        assert_eq!(err, Some(DecodeError::BadCause(cause)), "cause {cause}");
    }
}

#[test]
fn oversized_declared_fields_are_rejected() {
    // A get whose key_len field exceeds MAX_KEY_LEN, inside a frame
    // whose outer length is still legal.
    let mut body = vec![1u8];
    body.extend_from_slice(&1u32.to_le_bytes()); // req_id
    body.extend_from_slice(&0u16.to_le_bytes()); // tenant
    body.extend_from_slice(&((MAX_KEY_LEN + 1) as u16).to_le_bytes());
    body.extend(std::iter::repeat_n(0u8, MAX_KEY_LEN + 1));
    let mut reader = FrameReader::new();
    reader.push(&(body.len() as u32).to_le_bytes());
    reader.push(&body);
    let (_, err) = reader.drain();
    assert_eq!(err, Some(DecodeError::KeyTooLong(MAX_KEY_LEN + 1)));
}

#[test]
fn random_garbage_never_panics() {
    // Pure fuzz: feed random byte soup through the reader in random
    // slices. Whatever happens, it is a typed result.
    let mut rng = Pcg64::new(0x5009_ea3b, 5);
    for _ in 0..300u32 {
        let len = rng.gen_index(600);
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut reader = FrameReader::new();
        let mut off = 0;
        while off < soup.len() {
            let take = (rng.gen_index(31) + 1).min(soup.len() - off);
            reader.push(&soup[off..off + take]);
            off += take;
            let (_frames, err) = reader.drain();
            if let Some(e) = err {
                // Poisoned: the same typed error repeats; the reader
                // never resynchronizes into garbage.
                let (more, again) = reader.drain();
                assert!(more.is_empty());
                assert_eq!(again, Some(e));
                break;
            }
        }
    }
}

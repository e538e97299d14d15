//! The server pass over sessions whose transport misbehaves.
//!
//! [`OneByte`] wraps a pipe end so that every read and every write moves
//! at most one byte and every other call in each direction is
//! `WouldBlock`: each frame reaches the core across many reads, and
//! each response leaves in many partial writes over many passes. A
//! script of client bytes runs through [`pass`] over plain pipe ends and
//! over wrapped ones. Every step runs the same number of passes, and
//! the core drains faster than the script loads it, so every reply
//! leaves one tick after its request is admitted, whichever pass that
//! is; the bytes each session reads and the core's summary must then
//! not tell the two transports apart.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};

use rlb_core::policies::Greedy;
use rlb_core::SimConfig;
use rlb_serve::proto::{Frame, FrameReader, RejectCause, MAX_VALUE_LEN};
use rlb_serve::{pass, pipe, PipeEnd, ServeConfig, ServerCore, Session};

/// A pipe end that moves one byte a call and refuses every other call,
/// in each direction, with `WouldBlock`.
struct OneByte {
    end: PipeEnd,
    reads: u64,
    writes: u64,
    /// The client has shut its write half once its bytes are read: an
    /// empty lane reads as end of stream, and replies are still read.
    half_closed: bool,
}

/// Counts a call; every second one is refused.
fn turn(calls: &mut u64) -> std::io::Result<()> {
    *calls += 1;
    if calls.is_multiple_of(2) {
        return Err(ErrorKind::WouldBlock.into());
    }
    Ok(())
}

impl Read for OneByte {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        turn(&mut self.reads)?;
        let n = buf.len().min(1);
        match self.end.read(&mut buf[..n]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock && self.half_closed => Ok(0),
            read => read,
        }
    }
}

impl Write for OneByte {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        turn(&mut self.writes)?;
        self.end.write(&buf[..buf.len().min(1)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn one_byte(end: PipeEnd) -> OneByte {
    OneByte {
        end,
        reads: 0,
        writes: 0,
        half_closed: false,
    }
}

fn half_closed(end: PipeEnd) -> OneByte {
    OneByte {
        half_closed: true,
        ..one_byte(end)
    }
}

fn plain(end: PipeEnd) -> PipeEnd {
    end
}

/// Requests the gate admits at once.
const GATE: u64 = 8;

/// Passes a script step runs: enough for its slowest session to be
/// read, answered and written back a byte at a time.
const PASSES_PER_STEP: usize = 1000;

/// What one client does in a step: send these bytes, then maybe hang up
/// (drop its end of the pipe).
struct Act {
    sid: u32,
    bytes: Vec<u8>,
    hang_up: bool,
}

fn send(sid: u32, frames: &[Frame]) -> Act {
    let mut bytes = Vec::new();
    for frame in frames {
        frame.encode(&mut bytes);
    }
    Act {
        sid,
        bytes,
        hang_up: false,
    }
}

fn get(req_id: u32, tenant: u16, key: &str) -> Frame {
    Frame::Get {
        req_id,
        tenant,
        key: key.as_bytes().to_vec(),
    }
}

fn put(req_id: u32, tenant: u16, key: &str, value: &str) -> Frame {
    Frame::Put {
        req_id,
        tenant,
        key: key.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
    }
}

/// What a script left behind.
#[derive(Debug, PartialEq)]
struct Run {
    /// The bytes each client read, by session.
    received: BTreeMap<u32, Vec<u8>>,
    /// The core's summary.
    summary: String,
    /// Each session retired, with the pass it left in.
    retired: Vec<(usize, u32)>,
}

/// Runs `script` through [`pass`], one step at a time, with every
/// server end wrapped by `wrap`. A session opens the first time a
/// client sends.
fn run<S: Read + Write>(wrap: fn(PipeEnd) -> S, script: &[Vec<Act>]) -> Run {
    // 16 servers draining 64 a tick: no queue outlives its step, so a
    // reply leaves the tick after its request was admitted.
    let engine = SimConfig {
        process_rate: 64,
        queue_capacity: 64,
        ..SimConfig::baseline(16)
    }
    .with_seed(5);
    let config = ServeConfig {
        engine,
        gate_limit: GATE,
    };
    let mut core = ServerCore::new(config, Greedy::new());
    let mut sessions = BTreeMap::new();
    let mut clients: BTreeMap<u32, PipeEnd> = BTreeMap::new();
    let mut received: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    let mut retired = Vec::new();
    let mut passes = 0;
    for step in script {
        for act in step {
            clients
                .entry(act.sid)
                .or_insert_with(|| {
                    let (near, far) = pipe();
                    sessions.insert(act.sid, Session::over(wrap(far)));
                    near
                })
                .send_bytes(&act.bytes);
            if act.hang_up {
                clients.remove(&act.sid);
            }
        }
        for _ in 0..PASSES_PER_STEP {
            let before: Vec<u32> = sessions.keys().copied().collect();
            pass(&mut sessions, &mut core, || true, false, true);
            passes += 1;
            let gone = before.into_iter().filter(|sid| !sessions.contains_key(sid));
            retired.extend(gone.map(|sid| (passes, sid)));
            for (&sid, client) in &clients {
                received.entry(sid).or_default().extend(client.take_bytes());
            }
        }
    }
    assert!(core.drained(), "every admitted request was answered");
    Run {
        received,
        summary: core.render_summary(),
        retired,
    }
}

/// Decodes what one client read: whole, valid frames only.
fn frames(bytes: &[u8]) -> Vec<Frame> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let (frames, err) = reader.drain();
    assert_eq!((err, reader.pending()), (None, 0));
    frames
}

#[test]
fn one_byte_reads_and_writes_change_no_response_and_no_count() {
    let keys = ["alpha", "beta", "gamma", "delta"];
    let script = vec![
        // Tenant 0 stores four keys; tenant 1 reads the same names,
        // which it has not stored.
        vec![
            send(0, &[0, 1, 2, 3].map(|i| put(i, 0, keys[i as usize], "v0"))),
            send(1, &[0, 1, 2, 3].map(|i| get(i, 1, keys[i as usize]))),
        ],
        // Tenant 0 reads its keys back; tenant 1 stores one and reads
        // it in the same batch; pings are echoed.
        vec![
            send(0, &[4, 5, 6, 7].map(|i| get(i, 0, keys[i as usize - 4]))),
            send(1, &[put(4, 1, "alpha", "v1"), get(5, 1, "alpha")]),
            send(2, &[1, 2, 3].map(|nonce| Frame::Ping { nonce })),
        ],
        // A burst: twelve new sessions ask at once, four more than the
        // gate admits.
        (3..15)
            .map(|sid| send(sid, &[get(sid, 2, "beta")]))
            .collect(),
    ];
    let whole = run(plain, &script);
    let chopped = run(one_byte, &script);
    assert_eq!(chopped, whole);

    // The script exercises what it says it does.
    let responses: Vec<Frame> = whole.received.values().flat_map(|b| frames(b)).collect();
    let count = |want: fn(&Frame) -> bool| responses.iter().filter(|f| want(f)).count();
    assert_eq!(
        responses.len(),
        4 + 4 + 4 + 2 + 3 + 12,
        "one answer a frame"
    );
    assert_eq!(count(|f| matches!(f, Frame::Ping { .. })), 3);
    let read_back = |f: &Frame| matches!(f, Frame::Reply { value, .. } if !value.is_empty());
    assert_eq!(
        count(read_back),
        5,
        "tenant 0's four reads and tenant 1's one"
    );
    let turned_away = |f: &Frame| {
        matches!(
            f,
            Frame::Reject {
                cause: RejectCause::Admission,
                ..
            }
        )
    };
    assert_eq!(count(turned_away), 12 - GATE as usize);
    assert!(whole.retired.is_empty());
}

#[test]
fn values_at_the_wire_limit_read_back_as_a_map_holds_them() {
    // Two sessions, a tenant each, send a step's four requests at once:
    // a key is read, overwritten and read again in one tick, so the
    // second read is built in the buffer the put replaced, and the
    // other key is read after it.
    let keys = ["alpha", "beta"];
    let mut script = Vec::new();
    for step in 0..16u32 {
        let (key, other) = (keys[step as usize % 2], keys[1 - step as usize % 2]);
        let acts = (0..2u32).map(|sid| {
            let tenant = sid as u16;
            let fill = (step * 2 + sid) as u8;
            let put = Frame::Put {
                req_id: step * 4 + 1,
                tenant,
                key: key.as_bytes().to_vec(),
                value: (0..MAX_VALUE_LEN).map(|b| fill ^ b as u8).collect(),
            };
            let first = step * 4;
            send(
                sid,
                &[
                    get(first, tenant, key),
                    put,
                    get(first + 2, tenant, key),
                    get(first + 3, tenant, other),
                ],
            )
        });
        script.push(acts.collect());
    }
    let r = run(plain, &script);

    // Each session's replies, in the order it read them, against a map
    // of its own tenant's keys; the script is decoded back from the
    // bytes each session sent.
    let mut read_back = 0;
    for (sid, bytes) in r.received {
        let sent = script.iter().flatten().filter(|act| act.sid == sid);
        let asked = frames(&sent.flat_map(|act| act.bytes.clone()).collect::<Vec<u8>>());
        let replies = frames(&bytes);
        assert_eq!(replies.len(), asked.len(), "session {sid}");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (asked, reply) in asked.into_iter().zip(replies) {
            let Frame::Reply { req_id, value, .. } = reply else {
                panic!("session {sid}: {reply:?}");
            };
            match asked {
                Frame::Put {
                    req_id: id,
                    key,
                    value: v,
                    ..
                } => {
                    assert_eq!((id, value.len()), (req_id, 0));
                    model.insert(key, v);
                }
                Frame::Get {
                    req_id: id, key, ..
                } => {
                    assert_eq!(id, req_id, "session {sid}: replies in request order");
                    let want = model.get(&key).cloned().unwrap_or_default();
                    assert!(value == want, "session {sid} req {req_id}: wrong bytes");
                    read_back += usize::from(value.len() == MAX_VALUE_LEN);
                }
                other => panic!("{other:?} was never asked"),
            }
        }
    }
    // Per session: one read in step 0, two in step 1, three a step on.
    assert_eq!(read_back, 2 * (1 + 2 + 3 * 14));
}

/// Session 1 sends two gets and, when `hang_up`, half of a third before
/// hanging up; the other sessions run the same script either way.
fn hang_up_script(hang_up: bool) -> Vec<Vec<Act>> {
    let mut bytes = send(1, &[get(1, 9, "alpha"), get(2, 9, "beta")]).bytes;
    if hang_up {
        let mut third = Vec::new();
        get(3, 9, "gamma").encode(&mut third);
        bytes.extend_from_slice(&third[..third.len() / 2]);
    }
    vec![
        vec![
            send(0, &[put(1, 0, "alpha", "v0"), put(2, 0, "beta", "v0")]),
            Act {
                sid: 1,
                bytes,
                hang_up,
            },
            send(2, &[get(1, 2, "alpha"), Frame::Ping { nonce: 7 }]),
        ],
        vec![
            send(0, &[get(3, 0, "alpha"), get(4, 0, "beta")]),
            send(2, &[get(2, 2, "beta")]),
        ],
    ]
}

/// `admitted` is how many of session 1's whole gets the core saw
/// before the session was retired.
fn hang_up_mid_frame<S: Read + Write>(wrap: fn(PipeEnd) -> S, admitted: usize) {
    let cut = run(wrap, &hang_up_script(true));
    let kept = run(wrap, &hang_up_script(false));
    let sids = |r: &Run| r.retired.iter().map(|&(_, sid)| sid).collect::<Vec<_>>();
    assert_eq!(sids(&cut), [1], "retired once, and no one else");
    assert!(kept.retired.is_empty());
    // The half frame got no answer, not even a `Malformed` one: the run
    // rejected nothing.
    let tenant_9 = format!("tenant 9: replies={admitted} rejects=0\n");
    assert!(cut.summary.contains(&tenant_9), "{}", cut.summary);
    assert!(cut.summary.contains(" rejects=0 "), "{}", cut.summary);
    let others = |r: &Run| {
        let mut received = r.received.clone();
        received.remove(&1);
        received
    };
    assert_eq!(others(&cut), others(&kept));
}

#[test]
fn a_client_that_hangs_up_mid_frame_is_retired_once_and_its_half_frame_goes_unanswered() {
    // A plain pipe hands the pass all of session 1's bytes and its end
    // in one read.
    hang_up_mid_frame(plain, 2);
    // A byte at a time, the first get's reply is written before the
    // second get is read; that write finds the client gone, and the
    // session is retired with its unread input.
    hang_up_mid_frame(one_byte, 1);
}

fn retired_sids(run: &Run) -> Vec<u32> {
    run.retired.iter().map(|&(_, sid)| sid).collect()
}

#[test]
fn a_client_that_shuts_its_write_half_reads_every_answer_before_it_is_retired() {
    let script = vec![vec![
        send(0, &[1, 2, 3, 4].map(|i| get(i, 0, "alpha"))),
        send(1, &[1, 2].map(|nonce| Frame::Ping { nonce })),
    ]];
    let open = run(one_byte, &script);
    let shut = run(half_closed, &script);
    // Their input ends with answers still queued, and every answer is
    // written, a byte a pass, before the session goes.
    assert_eq!(shut.received, open.received);
    assert_eq!(shut.summary, open.summary);
    assert_eq!(retired_sids(&shut), [1, 0]);
    assert!(open.retired.is_empty());
}

#[test]
fn a_session_whose_bytes_stop_decoding_is_answered_malformed_and_retired() {
    // A ping, then a whole frame with a tag no frame has.
    let mut bytes = send(0, &[Frame::Ping { nonce: 1 }]).bytes;
    bytes.extend_from_slice(&[1, 0, 0, 0, 0xff]);
    let script = vec![vec![
        Act {
            sid: 0,
            bytes,
            hang_up: false,
        },
        send(1, &[get(1, 1, "alpha")]),
    ]];
    let r = run(plain, &script);
    let malformed = Frame::Reject {
        req_id: 0,
        cause: RejectCause::Malformed,
    };
    assert_eq!(
        frames(&r.received[&0]),
        [Frame::Ping { nonce: 1 }, malformed]
    );
    assert_eq!(retired_sids(&r), [0]);
    assert!(r
        .summary
        .contains("tenant 0: replies=0 rejects=1 malformed=1\n"));
    assert!(r.summary.contains("tenant 1: replies=1 rejects=0\n"));
}

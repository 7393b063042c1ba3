//! Unix-domain-socket control plane — the cross-process transport.
//!
//! The in-process [`crate::World`] carries everything over crossbeam
//! channels between threads; the cross-process node needs a wire. This
//! module is that wire for the **control plane only**: registrations,
//! commit notifications, iteration boundaries, epoch announcements, and
//! barriers travel over `std::os::unix::net::UnixStream`s in a star
//! topology centred on the EPE, while the **data plane stays zero-copy**
//! in the shared mapping (a `Commit` carries offsets into the mapping,
//! never bytes — the paper's "single memcpy" claim survives the process
//! split).
//!
//! ## Framing
//!
//! Length-prefixed frames, hand-rolled (no serde): `[u32 len][u8 kind]
//! [payload…]`, little-endian integers, `len` counting kind + payload.
//! Strings are `[u16 len][utf8]`. A corrupt or oversized frame surfaces
//! as `InvalidData` — the receiver treats the peer as failed rather than
//! resynchronizing.
//!
//! ## Fault injection
//!
//! The same [`FaultPlan`] message semantics the channel transport honors
//! are reimplemented at the socket layer by [`UdsConn::send`]: per
//! `(src, dst)` ordinal counting with `Drop` (frame never written),
//! `Delay` (sender sleeps first — a congested eager channel), and
//! `Duplicate` (frame written twice; receivers must deduplicate by
//! content, which the EPE does against its journal's history).

use crate::fault::{FaultPlan, MsgFault};
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Upper bound on one frame (control messages are tiny; anything bigger
/// is corruption, not load).
const MAX_FRAME: u32 = 64 * 1024;

/// A control-plane message. Field meanings follow the Damaris event
/// model: `Commit` is the cross-process twin of the event-queue write
/// notification (shm coordinates + CRC, no data), `EndIteration` the
/// iteration fence, `Event` a named user signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Client → EPE on connect: who am I.
    Register { rank: u32, pid: u32 },
    /// EPE → client in answer to `Register`: the current server epoch.
    Welcome { epoch: u32 },
    /// EPE → clients after a respawn: a new incarnation took over.
    EpochAnnounce { epoch: u32 },
    /// Client → EPE: a write landed in shared memory at `[offset,
    /// offset+len)` of the mapping's data window, CRC-stamped.
    Commit {
        rank: u32,
        iteration: u32,
        variable: u32,
        offset: u64,
        len: u64,
        crc: u32,
    },
    /// Client → EPE: the rank finished iteration `iteration`.
    EndIteration { rank: u32, iteration: u32 },
    /// Client → EPE: a named user event (plugin trigger).
    Event { rank: u32, iteration: u32, name: String },
    /// Client → EPE: barrier arrival.
    Barrier { rank: u32 },
    /// EPE → clients: barrier release.
    BarrierRelease,
    /// EPE → client: generic acknowledgement (e.g. iteration persisted).
    Ack { iteration: u32 },
    /// EPE → clients: coordinated shutdown.
    Shutdown,
}

impl CtrlMsg {
    fn kind(&self) -> u8 {
        match self {
            CtrlMsg::Register { .. } => 1,
            CtrlMsg::Welcome { .. } => 2,
            CtrlMsg::EpochAnnounce { .. } => 3,
            CtrlMsg::Commit { .. } => 4,
            CtrlMsg::EndIteration { .. } => 5,
            CtrlMsg::Event { .. } => 6,
            CtrlMsg::Barrier { .. } => 7,
            CtrlMsg::BarrierRelease => 8,
            CtrlMsg::Ack { .. } => 9,
            CtrlMsg::Shutdown => 10,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::Register { rank, pid } => {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&pid.to_le_bytes());
            }
            CtrlMsg::Welcome { epoch } | CtrlMsg::EpochAnnounce { epoch } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            CtrlMsg::Commit { rank, iteration, variable, offset, len, crc } => {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&iteration.to_le_bytes());
                out.extend_from_slice(&variable.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
            }
            CtrlMsg::EndIteration { rank, iteration } => {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&iteration.to_le_bytes());
            }
            CtrlMsg::Event { rank, iteration, name } => {
                out.extend_from_slice(&rank.to_le_bytes());
                out.extend_from_slice(&iteration.to_le_bytes());
                let bytes = name.as_bytes();
                out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            CtrlMsg::Barrier { rank } => out.extend_from_slice(&rank.to_le_bytes()),
            CtrlMsg::Ack { iteration } => out.extend_from_slice(&iteration.to_le_bytes()),
            CtrlMsg::BarrierRelease | CtrlMsg::Shutdown => {}
        }
    }

    /// Serializes to one frame (`[u32 len][u8 kind][payload]`).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(40);
        self.encode_payload(&mut payload);
        let len = (payload.len() + 1) as u32;
        let mut frame = Vec::with_capacity(payload.len() + 5);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.push(self.kind());
        frame.extend_from_slice(&payload);
        frame
    }

    fn decode(kind: u8, payload: &[u8]) -> io::Result<CtrlMsg> {
        let mut r = FieldReader { buf: payload, at: 0 };
        let msg = match kind {
            1 => CtrlMsg::Register { rank: r.u32()?, pid: r.u32()? },
            2 => CtrlMsg::Welcome { epoch: r.u32()? },
            3 => CtrlMsg::EpochAnnounce { epoch: r.u32()? },
            4 => CtrlMsg::Commit {
                rank: r.u32()?,
                iteration: r.u32()?,
                variable: r.u32()?,
                offset: r.u64()?,
                len: r.u64()?,
                crc: r.u32()?,
            },
            5 => CtrlMsg::EndIteration { rank: r.u32()?, iteration: r.u32()? },
            6 => {
                let (rank, iteration) = (r.u32()?, r.u32()?);
                let n = r.u16()? as usize;
                let bytes = r.bytes(n)?;
                let name = String::from_utf8(bytes.to_vec())
                    .map_err(|_| bad_frame("event name is not utf-8"))?;
                CtrlMsg::Event { rank, iteration, name }
            }
            7 => CtrlMsg::Barrier { rank: r.u32()? },
            8 => CtrlMsg::BarrierRelease,
            9 => CtrlMsg::Ack { iteration: r.u32()? },
            10 => CtrlMsg::Shutdown,
            k => return Err(bad_frame(&format!("unknown frame kind {k}"))),
        };
        if r.at != payload.len() {
            return Err(bad_frame("trailing bytes in frame"));
        }
        Ok(msg)
    }
}

struct FieldReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl FieldReader<'_> {
    fn bytes(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_frame("truncated frame"))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u16(&mut self) -> io::Result<u16> {
        // invariant: `bytes(2)` returned exactly 2 bytes on success.
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        // invariant: `bytes(4)` returned exactly 4 bytes on success.
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        // invariant: `bytes(8)` returned exactly 8 bytes on success.
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
}

fn bad_frame(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one frame off a stream. Blocks per the stream's read timeout;
/// a timeout surfaces as `WouldBlock`/`TimedOut`, a closed peer as
/// `UnexpectedEof`.
pub fn read_frame(stream: &mut UnixStream) -> io::Result<CtrlMsg> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(bad_frame(&format!("frame length {len} out of range")));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    CtrlMsg::decode(body[0], &body[1..])
}

/// Writes one frame to a stream.
pub fn write_frame(stream: &mut UnixStream, msg: &CtrlMsg) -> io::Result<()> {
    stream.write_all(&msg.to_frame())
}

/// One end of a control-plane connection, with the fault plan applied on
/// the send side. `src`/`dst` are the world ranks the [`FaultPlan`]
/// ordinals are keyed by (the EPE uses rank `n_clients` by convention).
pub struct UdsConn {
    stream: UnixStream,
    src: usize,
    dst: usize,
    plan: FaultPlan,
    ordinal: u64,
}

impl UdsConn {
    /// Wraps a connected stream. An empty plan sends every frame as-is.
    pub fn new(stream: UnixStream, src: usize, dst: usize, plan: FaultPlan) -> UdsConn {
        UdsConn { stream, src, dst, plan, ordinal: 0 }
    }

    /// The peer's world rank.
    pub fn peer(&self) -> usize {
        self.dst
    }

    /// Sets the read timeout for subsequent [`UdsConn::recv`] calls.
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Makes [`UdsConn::recv`] return `WouldBlock` at once when no frame
    /// is waiting (or wait again, per the read timeout). A frame is one
    /// small write, which a Unix stream socket queues whole or not at all,
    /// so a reader that does not wait never finds part of one.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Sends a control message, applying any planned fault for this
    /// ordinal on the `(src, dst)` pair — the socket-layer reimplementation
    /// of the channel transport's drop/delay/duplicate semantics.
    pub fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        let fault = self.plan.message_fault(self.src, self.dst, self.ordinal);
        self.ordinal += 1;
        match fault {
            // The frame is never written; the wire stays consistent
            // because framing is per-message.
            Some(MsgFault::Drop) => Ok(()),
            Some(MsgFault::Delay(d)) => {
                std::thread::sleep(d);
                write_frame(&mut self.stream, msg)
            }
            Some(MsgFault::Duplicate) => {
                write_frame(&mut self.stream, msg)?;
                write_frame(&mut self.stream, msg)
            }
            None => write_frame(&mut self.stream, msg),
        }
    }

    /// Receives the next control message (honoring the configured read
    /// timeout).
    pub fn recv(&mut self) -> io::Result<CtrlMsg> {
        read_frame(&mut self.stream)
    }

    /// Clones the underlying stream (e.g. to split send/recv across
    /// threads). Fault ordinals stay with `self`.
    pub fn try_clone_stream(&self) -> io::Result<UnixStream> {
        self.stream.try_clone()
    }
}

impl std::fmt::Debug for UdsConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UdsConn({} -> {}, ordinal {})", self.src, self.dst, self.ordinal)
    }
}

/// The EPE's listening side: binds the socket, accepts and registers
/// clients as they come.
pub struct UdsHub {
    listener: UnixListener,
}

impl UdsHub {
    /// Binds `path`, replacing any stale socket file from a previous
    /// crashed run (the socket, unlike the shm mapping, carries no state
    /// worth keeping). The listener never blocks: see
    /// [`poll_accept`](Self::poll_accept).
    pub fn bind(path: &Path) -> io::Result<UdsHub> {
        if let Err(e) = std::fs::remove_file(path) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(UdsHub { listener })
    }

    /// Accepts every registration waiting in the listener's backlog,
    /// answers each with `Welcome { epoch }`, and returns the new
    /// connections ([`UdsConn::peer`] says whose) — without ever waiting
    /// for one, so the EPE calls it from its serve loop on every pass and
    /// a rank can join, or come back after a respawn, whenever it gets
    /// there. `epe_rank` keys the EPE's side of the fault-plan ordinal
    /// space. A stream that does not open with a `Register` for a rank in
    /// `0..n_clients`, or whose peer is gone before the `Welcome`, is
    /// dropped: the client retries or dies, both of which the lease layer
    /// handles. Whether a rank that is already connected may register
    /// again is the caller's decision.
    pub fn poll_accept(
        &self,
        n_clients: usize,
        epoch: u32,
        epe_rank: usize,
        plan: &FaultPlan,
    ) -> io::Result<Vec<UdsConn>> {
        let mut joined = Vec::new();
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(joined),
                Err(e) => return Err(e),
            };
            // The handshake blocks: a client writes its `Register` right
            // behind the connect.
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            if let Ok(CtrlMsg::Register { rank, .. }) = read_frame(&mut stream) {
                if (rank as usize) < n_clients {
                    let mut conn = UdsConn::new(stream, epe_rank, rank as usize, plan.clone());
                    if conn.send(&CtrlMsg::Welcome { epoch }).is_ok() {
                        joined.push(conn);
                    }
                }
            }
        }
    }
}

/// Client-side connect with retry: the EPE may not have bound the socket
/// yet (or may be mid-respawn). Sends `Register` and waits for the
/// `Welcome`, returning the connection and the server epoch it joined.
pub fn connect_client(
    path: &Path,
    rank: usize,
    pid: u32,
    epe_rank: usize,
    plan: &FaultPlan,
    deadline: Duration,
) -> io::Result<(UdsConn, u32)> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(mut stream) => {
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                // Registration bypasses the fault plan: it models the MPI
                // runtime's bootstrap, not an application message. A
                // `Register` that cannot be written (`EPIPE`/`ECONNRESET`:
                // the stream landed in the backlog of a listener that was
                // closing) or that is answered by anything but a `Welcome`
                // means the hub died mid-handshake or rejected us: retry
                // on a fresh stream.
                let register = CtrlMsg::Register { rank: rank as u32, pid };
                if write_frame(&mut stream, &register).is_ok() {
                    if let Ok(CtrlMsg::Welcome { epoch }) = read_frame(&mut stream) {
                        return Ok((UdsConn::new(stream, rank, epe_rank, plan.clone()), epoch));
                    }
                }
            }
            Err(_) if start.elapsed() < deadline => {}
            Err(e) => return Err(e),
        }
        if start.elapsed() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("rank {rank} could not join the control plane"),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// EPE-side star barrier: waits for a `Barrier` frame from every
/// connection, then releases them all. Returns the ranks that failed
/// (closed/errored streams) instead of hanging on them.
pub fn hub_barrier(conns: &mut [UdsConn], timeout: Duration) -> Vec<usize> {
    let mut failed = Vec::new();
    for conn in conns.iter_mut() {
        let _ = conn.set_recv_timeout(Some(timeout));
        loop {
            match conn.recv() {
                Ok(CtrlMsg::Barrier { .. }) => break,
                // Skip unrelated frames still in flight (e.g. a late Ack
                // consumer pattern); anything undecodable or a dead peer
                // marks the rank failed.
                Ok(_) => continue,
                Err(_) => {
                    failed.push(conn.peer());
                    break;
                }
            }
        }
    }
    for conn in conns.iter_mut() {
        if !failed.contains(&conn.peer()) && conn.send(&CtrlMsg::BarrierRelease).is_err() {
            failed.push(conn.peer());
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("damaris-uds-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.sock", std::process::id()))
    }

    /// Polls `hub` until `want` ranks have joined or `within` has passed;
    /// what joined comes back indexed by rank.
    fn poll_until(hub: &UdsHub, n: usize, want: usize, epoch: u32, within: Duration) -> Vec<Option<UdsConn>> {
        let start = Instant::now();
        let mut conns: Vec<Option<UdsConn>> = (0..n).map(|_| None).collect();
        while conns.iter().flatten().count() < want && start.elapsed() < within {
            for conn in hub.poll_accept(n, epoch, n, &FaultPlan::new()).unwrap() {
                let rank = conn.peer();
                conns[rank] = Some(conn);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        conns
    }

    /// [`poll_until`] for tests in which every rank joins.
    fn accept_all(hub: &UdsHub, n: usize, epoch: u32) -> Vec<UdsConn> {
        let conns = poll_until(hub, n, n, epoch, Duration::from_secs(5));
        conns.into_iter().map(|c| c.expect("every rank joined")).collect()
    }

    fn roundtrip(msg: CtrlMsg) {
        let frame = msg.to_frame();
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let decoded = CtrlMsg::decode(frame[4], &frame[5..]).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn frames_round_trip() {
        roundtrip(CtrlMsg::Register { rank: 3, pid: 4242 });
        roundtrip(CtrlMsg::Welcome { epoch: 7 });
        roundtrip(CtrlMsg::EpochAnnounce { epoch: 9 });
        roundtrip(CtrlMsg::Commit {
            rank: 1,
            iteration: 12,
            variable: 2,
            offset: 1 << 40,
            len: 65536,
            crc: 0xDEAD_BEEF,
        });
        roundtrip(CtrlMsg::EndIteration { rank: 0, iteration: 99 });
        roundtrip(CtrlMsg::Event { rank: 2, iteration: 5, name: "clean".into() });
        roundtrip(CtrlMsg::Barrier { rank: 1 });
        roundtrip(CtrlMsg::BarrierRelease);
        roundtrip(CtrlMsg::Ack { iteration: 4 });
        roundtrip(CtrlMsg::Shutdown);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(CtrlMsg::decode(1, &[0, 0]).is_err()); // truncated
        assert!(CtrlMsg::decode(200, &[]).is_err()); // unknown kind
        let mut frame = CtrlMsg::Barrier { rank: 1 }.to_frame();
        frame.push(0xFF); // trailing garbage past the payload
        assert!(CtrlMsg::decode(frame[4], &frame[5..]).is_err());
        // Event with a non-utf8 name.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(CtrlMsg::decode(6, &payload).is_err());
    }

    #[test]
    fn hub_registers_clients_and_serves_a_barrier() {
        let path = sock("hub");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        let n = 3;
        let mut joiners = Vec::new();
        for rank in 0..n {
            let path = path.clone();
            joiners.push(std::thread::spawn(move || {
                let (mut conn, epoch) = connect_client(
                    &path,
                    rank,
                    std::process::id(),
                    n,
                    &FaultPlan::new(),
                    Duration::from_secs(5),
                )
                .unwrap();
                assert_eq!(epoch, 42);
                conn.send(&CtrlMsg::Barrier { rank: rank as u32 }).unwrap();
                let _ = conn.set_recv_timeout(Some(Duration::from_secs(5)));
                assert_eq!(conn.recv().unwrap(), CtrlMsg::BarrierRelease);
            }));
        }
        let mut conns = accept_all(&hub, n, 42);
        assert_eq!(conns.len(), n);
        let failed = hub_barrier(&mut conns, Duration::from_secs(5));
        assert!(failed.is_empty());
        for j in joiners {
            j.join().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn poll_accept_tolerates_missing_ranks() {
        let path = sock("partial");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        // Rank 0 reconnects; rank 1 died with the previous incarnation
        // and never will. The hub must return with what it has.
        let t = {
            let path = path.clone();
            std::thread::spawn(move || {
                let (conn, epoch) = connect_client(
                    &path,
                    0,
                    std::process::id(),
                    2,
                    &FaultPlan::new(),
                    Duration::from_secs(5),
                )
                .unwrap();
                assert_eq!(epoch, 2);
                // Hold the stream open until the hub returns.
                std::thread::sleep(Duration::from_millis(100));
                drop(conn);
            })
        };
        let conns = poll_until(&hub, 2, 2, 2, Duration::from_millis(600));
        assert!(conns[0].is_some());
        assert!(conns[1].is_none());
        t.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_rank_that_registers_long_after_polling_began_is_accepted() {
        let path = sock("late");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        let t = {
            let path = path.clone();
            std::thread::spawn(move || {
                // Longer than any one-shot accept window this hub ever had.
                std::thread::sleep(Duration::from_millis(1500));
                let plan = FaultPlan::new();
                let (_, epoch) =
                    connect_client(&path, 1, 7, 2, &plan, Duration::from_secs(5)).unwrap();
                assert_eq!(epoch, 3);
            })
        };
        let started = Instant::now();
        let conns = poll_until(&hub, 2, 1, 3, Duration::from_secs(10));
        assert!(started.elapsed() >= Duration::from_millis(1500));
        assert!(conns[0].is_none());
        assert_eq!(conns[1].as_ref().map(UdsConn::peer), Some(1));
        t.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_peer_that_closes_the_first_stream_before_reading_register_is_retried() {
        // Which of the client's two calls meets the closed stream is a
        // race — the write (`EPIPE`) or the read behind it (`ECONNRESET`,
        // end of stream) — so the scene is played often enough to see both.
        for round in 0..40 {
            let path = sock(&format!("closing-{round}"));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path).unwrap();
            let t = std::thread::spawn(move || {
                // A listener on its way out: the stream is closed unread.
                drop(listener.accept().unwrap());
                // Its successor answers.
                let (mut stream, _) = listener.accept().unwrap();
                assert_eq!(
                    read_frame(&mut stream).unwrap(),
                    CtrlMsg::Register { rank: 0, pid: 9 }
                );
                write_frame(&mut stream, &CtrlMsg::Welcome { epoch: 5 }).unwrap();
            });
            let joined = connect_client(&path, 0, 9, 1, &FaultPlan::new(), Duration::from_secs(5));
            let (_, epoch) = joined.unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(epoch, 5);
            t.join().unwrap();
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn fault_plan_applies_at_the_socket_layer() {
        let path = sock("faults");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        // Client 0's messages to the EPE (rank 1): ordinal 0 dropped,
        // ordinal 1 duplicated, ordinal 2 delivered.
        let plan = FaultPlan::new().drop_nth(0, 1, 0).duplicate_nth(0, 1, 1);
        let t = {
            let (path, plan) = (path.clone(), plan.clone());
            std::thread::spawn(move || {
                let (mut conn, _) = connect_client(
                    &path,
                    0,
                    std::process::id(),
                    1,
                    &plan,
                    Duration::from_secs(5),
                )
                .unwrap();
                conn.send(&CtrlMsg::Ack { iteration: 0 }).unwrap(); // dropped
                conn.send(&CtrlMsg::Ack { iteration: 1 }).unwrap(); // duplicated
                conn.send(&CtrlMsg::Ack { iteration: 2 }).unwrap(); // delivered
            })
        };
        let mut conns = accept_all(&hub, 1, 0);
        let conn = &mut conns[0];
        let _ = conn.set_recv_timeout(Some(Duration::from_secs(5)));
        let got: Vec<CtrlMsg> = (0..3).map(|_| conn.recv().unwrap()).collect();
        assert_eq!(
            got,
            vec![
                CtrlMsg::Ack { iteration: 1 },
                CtrlMsg::Ack { iteration: 1 },
                CtrlMsg::Ack { iteration: 2 },
            ]
        );
        t.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delay_fault_stalls_the_sender() {
        let path = sock("delay");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        let plan = FaultPlan::new().delay_nth(0, 1, 0, Duration::from_millis(80));
        let t = {
            let (path, plan) = (path.clone(), plan.clone());
            std::thread::spawn(move || {
                let (mut conn, _) =
                    connect_client(&path, 0, 1, 1, &plan, Duration::from_secs(5)).unwrap();
                let start = Instant::now();
                conn.send(&CtrlMsg::Ack { iteration: 0 }).unwrap();
                start.elapsed()
            })
        };
        let mut conns = accept_all(&hub, 1, 0);
        let _ = conns[0].set_recv_timeout(Some(Duration::from_secs(5)));
        assert_eq!(conns[0].recv().unwrap(), CtrlMsg::Ack { iteration: 0 });
        let sender_elapsed = t.join().unwrap();
        assert!(sender_elapsed >= Duration::from_millis(80));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dead_peer_fails_the_barrier_without_hanging() {
        let path = sock("deadpeer");
        let _ = std::fs::remove_file(&path);
        let hub = UdsHub::bind(&path).unwrap();
        let t0 = {
            let path = path.clone();
            std::thread::spawn(move || {
                let (mut conn, _) = connect_client(
                    &path,
                    0,
                    std::process::id(),
                    2,
                    &FaultPlan::new(),
                    Duration::from_secs(5),
                )
                .unwrap();
                conn.send(&CtrlMsg::Barrier { rank: 0 }).unwrap();
                let _ = conn.set_recv_timeout(Some(Duration::from_secs(5)));
                assert_eq!(conn.recv().unwrap(), CtrlMsg::BarrierRelease);
            })
        };
        let t1 = {
            let path = path.clone();
            std::thread::spawn(move || {
                // Rank 1 registers then "dies" (drops its stream) without
                // reaching the barrier.
                let (conn, _) = connect_client(
                    &path,
                    1,
                    std::process::id(),
                    2,
                    &FaultPlan::new(),
                    Duration::from_secs(5),
                )
                .unwrap();
                drop(conn);
            })
        };
        let mut conns = accept_all(&hub, 2, 0);
        t1.join().unwrap();
        let failed = hub_barrier(&mut conns, Duration::from_millis(500));
        assert_eq!(failed, vec![1]);
        t0.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}

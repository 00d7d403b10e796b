//! Readiness-driven I/O reactor primitives shared by the cluster node
//! runtime and the chaos fabric.
//!
//! The centerpiece is [`Poller`], a thin level-triggered `epoll` wrapper
//! (raw syscalls, no external crates) that multiplexes thousands of
//! nonblocking sockets onto one thread. Callers register file
//! descriptors under opaque `u64` tokens, block in [`Poller::wait`], and
//! get back the tokens that are readable or writable. An `eventfd`
//! registered under [`WAKE_TOKEN`] lets other threads interrupt a
//! blocked `wait` ([`Poller::wake`]). [`Mailbox`] builds on it: other
//! threads reach the state a reactor thread owns by mailing it closures
//! and waking it. [`connect_nonblocking`] starts an outbound TCP connect
//! without waiting for the handshake, so a reactor can dial peers and
//! learn the outcome from a writable event.
//!
//! [`WriteQueue`] is the other half of nonblocking I/O: a segmented
//! byte queue that absorbs partial writes. Callers push whole frames;
//! `flush` hands the queued segments to the sink in one
//! `write_vectored` (writev(2)) call and keeps whatever the socket did
//! not accept, so a `WouldBlock` at any byte offset never tears a
//! frame. It is a plain in-memory structure (no fd inside), which is
//! what lets the framing proptests drive it through forced short
//! writes without sockets.
//!
//! Everything here is Linux-specific by design: the repo targets Linux
//! and the node runtime needs `epoll` semantics (level-triggered
//! readiness, `eventfd` wakeups) rather than a portability layer.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::{mpsc, Arc};
use std::time::Duration;

// Values from <sys/epoll.h> / <sys/eventfd.h> on Linux.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;

// Values from <sys/socket.h> / <errno.h> on Linux.
const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x80000;
const EINPROGRESS: i32 = 115;

/// The kernel's `struct sockaddr_in`; port and address in network order.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// The kernel's `struct sockaddr_in6`; port and address in network order.
#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (no padding between the 32-bit mask and the 64-bit payload); other
/// architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(sockfd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Widens (or narrows) the accept backlog of an already-listening
/// socket by calling `listen(2)` on it again — Linux re-reads the
/// backlog argument on a live listener. The kernel clamps the value to
/// `net.core.somaxconn`, silently, so passing a large number is safe.
///
/// The standard library hardcodes a backlog of 128 in
/// `TcpListener::bind`; a reactor holding thousands of connections
/// needs more headroom than that, because a momentary scheduling stall
/// of the accepting thread under a connect burst overflows the queue,
/// the kernel drops the overflowing SYN, and the dialer stalls a full
/// retransmit timeout (~1s) — longer than most connect deadlines.
///
/// # Errors
///
/// The raw `listen` error; `ENOTSOCK`/`EOPNOTSUPP` if `fd` is not a
/// listening TCP socket.
pub fn set_listen_backlog(fd: RawFd, backlog: u32) -> io::Result<()> {
    let backlog = c_int::try_from(backlog).unwrap_or(c_int::MAX);
    cvt(unsafe { listen(fd, backlog) }).map(|_| ())
}

/// Starts a TCP connect to `addr` without waiting for the handshake and
/// returns the nonblocking socket. Register it for write interest: the
/// first writable (or hangup) event means the connect finished, and
/// [`TcpStream::take_error`] then tells success (`None`) from failure.
///
/// # Errors
///
/// `socket(2)` failures (fd exhaustion) and connect errors the kernel
/// reports immediately (unreachable network, refused loopback dial).
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: plain syscall; no pointers involved.
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a fresh socket nobody else owns; the stream closes
    // it on every return path below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let ret = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be_bytes(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            // SAFETY: `sa` is a live sockaddr_in and the length is its size.
            unsafe { connect(fd, (&raw const sa).cast(), size_of::<SockAddrIn>() as u32) }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be_bytes(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: `sa` is a live sockaddr_in6 and the length is its size.
            unsafe { connect(fd, (&raw const sa).cast(), size_of::<SockAddrIn6>() as u32) }
        }
    };
    if ret < 0 {
        let err = io::Error::last_os_error();
        // Both mean "the handshake continues in the background".
        let pending =
            err.raw_os_error() == Some(EINPROGRESS) || err.kind() == io::ErrorKind::Interrupted;
        if !pending {
            return Err(err);
        }
    }
    Ok(stream)
}

/// The token [`Poller::wait`] reports when another thread called
/// [`Poller::wake`]. Reserved — never register an fd under it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Which readiness events a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Readable and writable — while a write queue has pending bytes.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };

    fn mask(self) -> u32 {
        let mut mask = 0;
        if self.read {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.write {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under (or [`WAKE_TOKEN`]).
    pub token: u64,
    /// Data (or EOF) is available to read.
    pub readable: bool,
    /// The fd will accept more bytes.
    pub writable: bool,
    /// The fd is in an error state or the peer closed — the connection
    /// is over regardless of buffered data.
    pub hangup: bool,
}

/// Reusable buffer of readiness events, sized once by the caller.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that returns at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The events delivered by the most recent [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            let events = raw.events;
            Event {
                token: raw.data,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }

    /// Number of events delivered by the most recent wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent wait delivered no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A level-triggered `epoll` instance plus an `eventfd` wake channel.
///
/// All methods take `&self`: the kernel serializes `epoll_ctl` against
/// `epoll_wait`, so registration from the reactor thread and wakeups
/// from worker threads need no user-space lock.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    wakefd: RawFd,
}

impl Poller {
    /// Creates the epoll instance and its wake `eventfd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1`/`eventfd` failures (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscalls; no pointers involved.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let wakefd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
            Ok(fd) => fd,
            Err(e) => {
                // SAFETY: epfd came from epoll_create1 above.
                unsafe { close(epfd) };
                return Err(e);
            }
        };
        let poller = Poller { epfd, wakefd };
        poller.ctl(EPOLL_CTL_ADD, wakefd, EPOLLIN, WAKE_TOKEN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (bad fd, duplicate registration).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes the interest set (or token) of an already registered fd.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (fd was never registered).
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Stops watching `fd`. Closing an fd deregisters it implicitly;
    /// call this only when the fd stays open.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (fd was never registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready, a wakeup
    /// arrives, or `timeout` elapses (`None` = block indefinitely).
    /// Returns the number of events captured into `events`; a pending
    /// wakeup is drained and reported as a [`WAKE_TOKEN`] event.
    ///
    /// Signal interruptions are swallowed and reported as zero events.
    ///
    /// # Errors
    ///
    /// Propagates unexpected `epoll_wait` failures.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let millis: c_int = match timeout {
            None => -1,
            // Round up so a 100µs timeout still sleeps instead of spinning.
            Some(t) => c_int::try_from(t.as_millis().max(if t.is_zero() { 0 } else { 1 }))
                .unwrap_or(c_int::MAX),
        };
        let cap = c_int::try_from(events.buf.len()).unwrap_or(c_int::MAX);
        // SAFETY: the buffer outlives the call and `cap` matches its length.
        let n = unsafe { epoll_wait(self.epfd, events.buf.as_mut_ptr(), cap, millis) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                events.len = 0;
                return Ok(0);
            }
            return Err(err);
        }
        events.len = n as usize;
        for raw in &events.buf[..events.len] {
            if raw.data == WAKE_TOKEN {
                self.drain_wake();
            }
        }
        Ok(events.len)
    }

    /// Interrupts a concurrent (or the next) [`Poller::wait`]. Safe to
    /// call from any thread, any number of times; wakeups coalesce.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack variable to an
        // eventfd; EAGAIN (counter saturated) still leaves it readable.
        unsafe { write(self.wakefd, (&raw const one).cast::<c_void>(), 8) };
    }

    fn drain_wake(&self) {
        let mut counter: u64 = 0;
        // SAFETY: reading 8 bytes into a live stack variable; the fd is
        // nonblocking so a lost race just returns EAGAIN.
        unsafe { read(self.wakefd, (&raw mut counter).cast::<c_void>(), 8) };
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this Poller and closed once.
        unsafe {
            close(self.wakefd);
            close(self.epfd);
        }
    }
}

// SAFETY: the Poller only holds raw fds; every operation is a syscall
// the kernel serializes internally.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

/// A closure mailed to the thread that owns a `T`; that thread runs it
/// between two event batches.
pub type Command<T> = Box<dyn FnOnce(&mut T) + Send>;

/// The sending half of a reactor thread's mailbox: how other threads
/// reach state the reactor owns outright. Every send wakes the
/// reactor's poller; the reactor drains the receiving half after each
/// [`Poller::wait`] and runs the commands in the order they were sent.
pub struct Mailbox<T> {
    commands: mpsc::Sender<Command<T>>,
    poller: Arc<Poller>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            commands: self.commands.clone(),
            poller: Arc::clone(&self.poller),
        }
    }
}

impl<T> Mailbox<T> {
    /// A mailbox that wakes `poller`, and the receiving half its
    /// reactor drains.
    pub fn new(poller: Arc<Poller>) -> (Mailbox<T>, mpsc::Receiver<Command<T>>) {
        let (commands, inbox) = mpsc::channel();
        (Mailbox { commands, poller }, inbox)
    }

    /// Mails `command` without waiting for it to run. `false` once the
    /// reactor has exited.
    pub fn tell(&self, command: impl FnOnce(&mut T) + Send + 'static) -> bool {
        let sent = self.commands.send(Box::new(command)).is_ok();
        if sent {
            self.poller.wake();
        }
        sent
    }

    /// Runs `query` on the reactor and waits for its answer: `None` once
    /// the reactor has exited, because the dropped closure takes its
    /// reply channel with it.
    pub fn ask<R: Send + 'static>(
        &self,
        query: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> Option<R> {
        let (reply, answer) = mpsc::channel();
        let sent = self.tell(move |owner: &mut T| {
            let _ = reply.send(query(owner));
        });
        if !sent {
            return None;
        }
        answer.recv().ok()
    }
}

/// Upper bound on the iovec array handed to one `write_vectored` call.
/// Linux caps a writev at `UIO_MAXIOV` (1024) anyway; a small stack
/// array keeps the flush path allocation-free while still batching a
/// deep backlog in a handful of syscalls.
const MAX_WRITE_SLICES: usize = 64;

/// Small frames are appended to the newest segment while it stays under
/// this size, so a burst of tiny responses does not degenerate into one
/// iovec entry per frame.
const COALESCE_SEGMENT_BYTES: usize = 4096;

/// Drained segment buffers kept warm for reuse.
const SPARE_SEGMENTS: usize = 8;

/// Largest per-segment capacity worth recycling; bigger buffers came
/// from a burst and are returned to the allocator rather than pinning
/// the high-water mark forever.
const RECYCLE_CAP_BYTES: usize = 64 * 1024;

/// A segmented byte queue that makes partial writes invisible to the
/// caller.
///
/// Push whole encoded frames with [`WriteQueue::push`] (or try the
/// direct fast path with [`WriteQueue::send`]), then [`flush`] whenever
/// the socket reports writable. Queued segments are handed to the sink
/// as one `write_vectored` (writev(2)) call — a backlog of frames
/// drains in one syscall instead of one per frame — and a short write
/// or `WouldBlock` at any byte offset keeps the remainder queued, so
/// frames are never torn. Drained segments are recycled through a small
/// spare pool, so steady-state pushes allocate nothing.
///
/// [`flush`]: WriteQueue::flush
#[derive(Debug, Default)]
pub struct WriteQueue {
    /// Queued frame bytes, oldest first. Invariant: the front segment
    /// always has unwritten bytes past `head` — fully drained segments
    /// are popped (and recycled) immediately.
    segments: VecDeque<Vec<u8>>,
    /// Bytes of the front segment already accepted by the sink.
    head: usize,
    /// Total bytes across all segments, the already-written head
    /// included (cached so `pending` is O(1)).
    queued: usize,
    /// Drained segment buffers kept warm for the next push.
    spare: Vec<Vec<u8>>,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Bytes queued and not yet accepted by the sink.
    pub fn pending(&self) -> usize {
        self.queued - self.head
    }

    /// Whether every pushed byte has been written.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Queues `bytes` behind whatever is already pending.
    pub fn push(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.queued += bytes.len();
        if let Some(back) = self.segments.back_mut() {
            if back.len() + bytes.len() <= COALESCE_SEGMENT_BYTES {
                back.extend_from_slice(bytes);
                return;
            }
        }
        let mut seg = self.spare.pop().unwrap_or_default();
        seg.extend_from_slice(bytes);
        self.segments.push_back(seg);
    }

    /// Fast path: if nothing is pending, writes `bytes` straight to
    /// `out` and queues only the unwritten tail; otherwise queues and
    /// flushes. Returns `Ok(true)` when nothing remains pending.
    ///
    /// # Errors
    ///
    /// Propagates fatal I/O errors; `WouldBlock` is absorbed into the
    /// queue and reported as `Ok(false)`.
    pub fn send(&mut self, out: &mut impl Write, bytes: &[u8]) -> io::Result<bool> {
        if self.is_empty() {
            let mut written = 0;
            while written < bytes.len() {
                match out.write(&bytes[written..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.push(&bytes[written..]);
                        return Ok(false);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(true)
        } else {
            self.push(bytes);
            self.flush(out)
        }
    }

    /// Writes as much pending data as `out` accepts, gathering up to
    /// [`MAX_WRITE_SLICES`] segments per `write_vectored` call. Returns
    /// `Ok(true)` when the queue drained, `Ok(false)` when `WouldBlock`
    /// left bytes pending.
    ///
    /// # Errors
    ///
    /// Propagates fatal I/O errors (connection reset, `WriteZero`).
    pub fn flush(&mut self, out: &mut impl Write) -> io::Result<bool> {
        while !self.segments.is_empty() {
            let result = {
                let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
                let mut count = 0;
                for (i, seg) in self.segments.iter().enumerate() {
                    if count == MAX_WRITE_SLICES {
                        break;
                    }
                    slices[count] = IoSlice::new(if i == 0 { &seg[self.head..] } else { seg });
                    count += 1;
                }
                out.write_vectored(&slices[..count])
            };
            match result {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Advances past `n` accepted bytes, popping (and recycling) every
    /// fully written segment.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let front = self
                .segments
                .front()
                .expect("sink accepted more bytes than were pending");
            let front_left = front.len() - self.head;
            if n < front_left {
                self.head += n;
                return;
            }
            n -= front_left;
            let seg = self.segments.pop_front().expect("front just observed");
            self.queued -= seg.len();
            self.head = 0;
            self.recycle(seg);
        }
    }

    fn recycle(&mut self, mut seg: Vec<u8>) {
        if self.spare.len() < SPARE_SEGMENTS && seg.capacity() <= RECYCLE_CAP_BYTES {
            seg.clear();
            self.spare.push(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readiness_fires_for_incoming_bytes() {
        use std::os::fd::AsRawFd;
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "no data yet, the wait times out empty");

        a.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, None).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);
    }

    #[test]
    fn widened_backlog_absorbs_a_connect_burst_without_accepts() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        set_listen_backlog(listener.as_raw_fd(), 512).unwrap();

        // 200 dials with nobody accepting: past the stock backlog of
        // 128, so each one completes only because the re-listen took.
        // (With the stock queue the 129th SYN is dropped and its dialer
        // would sit in retransmit far beyond this timeout.)
        let _held: Vec<TcpStream> = (0..200)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("burst dial {i} rejected: {e}"))
            })
            .collect();
    }

    #[test]
    fn wake_interrupts_a_blocking_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(4), "woke early");
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, WAKE_TOKEN);
        handle.join().unwrap();
        // Coalesced wakes deliver at least once more, then go quiet.
        poller.wake();
        poller.wake();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            1
        );
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0,
            "drained wakes do not re-fire"
        );
    }

    #[test]
    fn interest_changes_gate_writable_events() {
        use std::os::fd::AsRawFd;
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Events::with_capacity(4);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0,
            "read-only interest stays quiet on an idle writable socket"
        );
        poller
            .reregister(a.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
        poller.deregister(a.as_raw_fd()).unwrap();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn nonblocking_connect_reports_its_outcome_through_the_poller() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);

        let mut ok = connect_nonblocking(addr).unwrap();
        poller
            .register(ok.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert!(events.iter().next().unwrap().writable);
        assert!(ok.take_error().unwrap().is_none(), "the dial succeeded");
        let (mut accepted, _) = listener.accept().unwrap();
        ok.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");

        // Nobody listens on the freed port: the failure arrives either
        // immediately or as a hangup event carrying the socket error.
        poller.deregister(ok.as_raw_fd()).unwrap();
        drop((listener, accepted));
        if let Ok(refused) = connect_nonblocking(addr) {
            poller
                .register(refused.as_raw_fd(), 2, Interest::READ_WRITE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
            assert!(events.iter().any(|ev| ev.token == 2 && ev.hangup));
            assert!(refused.take_error().unwrap().is_some());
        }
    }

    #[test]
    fn hangup_is_reported_as_readable() {
        use std::os::fd::AsRawFd;
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(a);
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.readable, "EOF surfaces as readable (read returns 0)");
        let mut nb = b;
        let mut buf = [0u8; 8];
        assert_eq!(nb.read(&mut buf).unwrap(), 0);
    }

    /// A writer that accepts one byte, then refuses one write, forever —
    /// the worst-case short-write schedule.
    struct Throttled {
        out: Vec<u8>,
        starve: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.starve {
                self.starve = false;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.starve = true;
            self.out.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_would_block_at_every_offset() {
        let mut queue = WriteQueue::new();
        let mut sink = Throttled {
            out: Vec::new(),
            starve: false,
        };
        let frames: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3 + i as usize]).collect();
        let mut expected = Vec::new();
        for frame in &frames {
            expected.extend_from_slice(frame);
            let _ = queue.send(&mut sink, frame).unwrap();
        }
        while !queue.flush(&mut sink).unwrap() {}
        assert!(queue.is_empty());
        assert_eq!(sink.out, expected, "byte-exact despite constant starvation");
    }

    /// A sink driven by a cycling script of per-call byte budgets
    /// (0 = `WouldBlock`), with a real `write_vectored` that gathers
    /// across slices — the vectored analogue of [`Throttled`].
    struct Scripted {
        out: Vec<u8>,
        script: Vec<usize>,
        at: usize,
        max_slices_seen: usize,
    }

    impl Scripted {
        fn new(script: Vec<usize>) -> Scripted {
            Scripted {
                out: Vec::new(),
                script,
                at: 0,
                max_slices_seen: 0,
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.max_slices_seen = self.max_slices_seen.max(bufs.len());
            let budget = self.script[self.at % self.script.len()];
            self.at += 1;
            if budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(budget - taken);
                self.out.extend_from_slice(&buf[..n]);
                taken += n;
                if taken == budget {
                    break;
                }
            }
            Ok(taken)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_gathers_queued_frames_into_one_vectored_write() {
        let mut queue = WriteQueue::new();
        // Each frame overflows the coalesce limit, so every push is its
        // own segment — the flush must still drain all three in a
        // single gathering call.
        let frames: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i; COALESCE_SEGMENT_BYTES]).collect();
        for frame in &frames {
            queue.push(frame);
        }
        let mut sink = Scripted::new(vec![usize::MAX]);
        assert!(queue.flush(&mut sink).unwrap());
        assert_eq!(sink.at, 1, "one writev drained the whole backlog");
        assert_eq!(sink.max_slices_seen, 3, "one iovec entry per segment");
        assert_eq!(sink.out.len(), 3 * COALESCE_SEGMENT_BYTES);
        assert!(queue.is_empty());
        assert_eq!(queue.pending(), 0);
    }

    proptest::proptest! {
        /// Whatever mix of frame sizes and partial-write budgets the
        /// sink imposes, the drained stream is byte-exact and in order:
        /// vectored flushing never tears, drops, or reorders a frame.
        #[test]
        fn prop_partial_vectored_writes_are_byte_exact(
            frames in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
                0..12,
            ),
            script in proptest::collection::vec(0usize..9, 1..24),
        ) {
            let mut queue = WriteQueue::new();
            let mut sink = Scripted::new(script);
            let mut expected = Vec::new();
            for frame in &frames {
                expected.extend_from_slice(frame);
                queue.send(&mut sink, frame).unwrap();
                proptest::prop_assert_eq!(
                    queue.pending(),
                    expected.len() - sink.out.len(),
                    "pending always accounts for exactly the unwritten bytes"
                );
            }
            // Lift the starvation and drain what remains.
            sink.script = vec![usize::MAX];
            proptest::prop_assert!(queue.flush(&mut sink).unwrap());
            proptest::prop_assert!(queue.is_empty());
            proptest::prop_assert_eq!(queue.pending(), 0);
            proptest::prop_assert_eq!(sink.out, expected);
        }
    }
}

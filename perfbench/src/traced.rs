//! The traced serving loop: the public `ServeSession` chain API driven
//! the way `serve_fleet` drives it, with a span around every call into a
//! layer. Its wire accounting, report, log and care output must equal
//! `serve_fleet`'s; the benchmark checks that on every traced run.

use std::time::Instant;

use coreda_core::escalation::{CareEvent, CareOutput};
use coreda_core::metro::{collect_served, ServeCtx, TraceOutput};
use coreda_core::wal::WalRecord;
use coreda_des::time::SimTime;
use coreda_des::Clock;
use coreda_serve::{
    classify_report, encode_frame, try_decode, Client, Frame, MoteClient, ReportClass, WireStats,
};

use crate::stats::{self_ns, Span};

/// The layers the traced loop puts spans around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Session open and handshakes, up to the first wake window.
    Setup,
    /// `ServeSession::next_epoch` / `next_wake`.
    Schedule,
    /// `Clock::wait_until`.
    Clock,
    /// `encode_frame`, server side.
    Encode,
    /// `MoteClient::on_bytes`.
    Client,
    /// `try_decode` of client bytes, with report classification.
    Decode,
    /// `ServeSession::serve_wake`.
    ServeWake,
}

const LAYERS: usize = 7;

/// Per-layer totals of one traced serve.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Span nanoseconds per [`Layer`].
    ns: [u64; LAYERS],
    /// Operations per [`Layer`]: wakes, frames, flushes.
    ops: [u64; LAYERS],
    /// Traced wall time not covered by any layer span.
    pub self_ns: u64,
    /// The traced serve's wall time.
    pub wall_ns: u64,
}

impl Ledger {
    /// Nanoseconds spent in `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Operations counted for `layer`.
    pub fn ops(&self, layer: Layer) -> u64 {
        self.ops[layer as usize]
    }
}

/// Span recorder. Spans of one epoch window are kept until the window
/// ends, then folded into the ledger: the window is their parent, and
/// its self time is the server's own. Spans are stamped in clock ticks
/// (the time-stamp counter on x86-64, which reads in a fraction of the
/// time `Instant::now` takes) and scaled to nanoseconds at the end
/// against `Instant` over the whole serve.
struct Tracer {
    origin: Instant,
    origin_ticks: u64,
    open: Vec<(Layer, Span)>,
    children: Vec<Span>,
    ledger: Ledger,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            origin_ticks: ticks(),
            open: Vec::new(),
            children: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    fn now(&self) -> u64 {
        ticks().wrapping_sub(self.origin_ticks)
    }

    /// Records a span of `layer` from `start` to now, covering `ops`
    /// operations, and returns now so back-to-back calls share one read.
    fn record(&mut self, layer: Layer, start: u64, ops: u64) -> u64 {
        let end = self.now();
        self.open.push((layer, Span { start, end }));
        self.ledger.ops[layer as usize] += ops;
        end
    }

    /// Folds the spans recorded since the last fold under `parent`.
    fn fold(&mut self, parent: Span) {
        self.children.clear();
        self.children.extend(self.open.iter().map(|&(_, s)| s));
        self.ledger.self_ns += self_ns(parent, &mut self.children);
        for (layer, span) in self.open.drain(..) {
            self.ledger.ns[layer as usize] += span.len();
        }
    }

    /// The ledger in nanoseconds, for a serve that began at tick
    /// `start`, and the nanoseconds per tick it was scaled by.
    fn finish(mut self, start: u64) -> (Ledger, f64) {
        let wall_ticks = self.now() - start;
        let wall_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        #[allow(clippy::cast_precision_loss)]
        let ns_per_tick = wall_ns as f64 / wall_ticks.max(1) as f64;
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let scale = |t: u64| (t as f64 * ns_per_tick) as u64;
        let l = &mut self.ledger;
        l.wall_ns = wall_ns;
        l.ns = l.ns.map(scale);
        l.self_ns = scale(l.self_ns);
        // Whatever no window or layer span covered (loop glue between
        // windows, the horizon tail) is the server's own time too.
        let covered: u64 = l.ns.iter().sum::<u64>() + l.self_ns;
        l.self_ns += l.wall_ns.saturating_sub(covered);
        (self.ledger, ns_per_tick)
    }
}

/// A monotonic tick count: the time-stamp counter on x86-64.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86-64; it only reads the
    // time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A monotonic tick count: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    u64::try_from(ORIGIN.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One home's connection, as `serve_fleet` keeps it.
struct Conn {
    client: MoteClient,
    inbound: Vec<u8>,
    outbox: Vec<u8>,
    watermark: Option<SimTime>,
    last_seq: Option<u32>,
    disconnected: bool,
}

impl Conn {
    fn push(&mut self, frame: &Frame, stats: &mut WireStats) {
        let before = self.outbox.len();
        encode_frame(frame, &mut self.outbox);
        stats.frames_out += 1;
        stats.bytes_out += (self.outbox.len() - before) as u64;
    }

    fn flush(&mut self) {
        let outbox = std::mem::take(&mut self.outbox);
        self.client.on_bytes(&outbox, &mut self.inbound);
        self.outbox = outbox;
        self.outbox.clear();
    }

    /// Decodes the client's bytes; returns the frames decoded.
    fn drain(&mut self, stats: &mut WireStats) -> u64 {
        let mut offset = 0;
        let mut frames = 0;
        loop {
            match try_decode(&self.inbound[offset..]) {
                Ok(Some((frame, used))) => {
                    offset += used;
                    frames += 1;
                    stats.frames_in += 1;
                    stats.bytes_in += used as u64;
                    match frame {
                        Frame::Report { at, seq, .. } => {
                            stats.reports += 1;
                            match classify_report(self.last_seq, seq) {
                                ReportClass::Dup => stats.dup_frames += 1,
                                ReportClass::Stale => stats.stale_reports += 1,
                                ReportClass::Fresh => {
                                    self.last_seq = Some(seq);
                                    if self.watermark.is_none_or(|w| at > w) {
                                        self.watermark = Some(at);
                                    }
                                }
                            }
                        }
                        Frame::Bye { .. } => {
                            if !self.disconnected {
                                self.disconnected = true;
                                stats.disconnects += 1;
                            }
                        }
                        Frame::Hello { .. } => stats.hellos += 1,
                        Frame::Welcome { .. }
                        | Frame::Poll { .. }
                        | Frame::Deliver(_)
                        | Frame::Escalate(_) => {}
                    }
                }
                Ok(None) => {
                    self.inbound.drain(..offset);
                    return frames;
                }
                Err(_) => {
                    stats.decode_errors += 1;
                    self.inbound.clear();
                    return frames;
                }
            }
        }
    }
}

/// What a traced serve produced.
#[derive(Debug)]
pub struct Traced {
    /// Report and telemetry, as `collect_served` merges them.
    pub output: TraceOutput,
    /// The delivery log.
    pub log: Vec<WalRecord>,
    /// Care output, when the context runs the overlay.
    pub care: Option<CareOutput>,
    /// Wire accounting (all zero without a wire).
    pub wire: WireStats,
    /// Span totals.
    pub ledger: Ledger,
    /// Wakes served.
    pub wakes: u64,
    /// Wakes that produced at least one delivery record.
    pub record_wakes: u64,
    /// Seconds from the session open to the first wake served.
    pub first_wake_s: f64,
}

/// Serves `ctx`'s whole fleet as one session under `clock`, with spans.
/// With `wire`, every home is fronted by a [`MoteClient`] exactly as
/// `serve_fleet` does it; without, wakes are served bare, as the batch
/// sweep serves them.
pub fn traced_serve<K: Clock>(ctx: &ServeCtx, clock: &mut K, wire: bool) -> Traced {
    let mut tr = Tracer::new();
    let homes = ctx.config().homes;
    let horizon_end = SimTime::ZERO + ctx.config().horizon;
    let mut stats = WireStats::default();
    let start = tr.now();
    let mut session = ctx.session(0, homes, false, false);
    let mut conns: Vec<Conn> = Vec::new();
    if wire {
        conns.reserve(homes);
        for home in 0..homes {
            let home = u32::try_from(home).expect("ServeCtx::new validated fleet size");
            let mut conn = Conn {
                client: MoteClient::new(home, ctx.digest()),
                inbound: Vec::new(),
                outbox: Vec::new(),
                watermark: None,
                last_seq: None,
                disconnected: false,
            };
            conn.flush();
            let probe = std::mem::take(&mut conn.inbound);
            let accepted = match try_decode(&probe) {
                Ok(Some((Frame::Hello { home: h, digest }, used))) => {
                    stats.frames_in += 1;
                    stats.bytes_in += used as u64;
                    stats.hellos += 1;
                    used == probe.len() && h == home && digest == ctx.digest()
                }
                _ => false,
            };
            if accepted {
                stats.welcomes += 1;
                conn.push(
                    &Frame::Welcome {
                        home,
                        at: SimTime::ZERO,
                    },
                    &mut stats,
                );
            } else {
                stats.handshake_rejects += 1;
                conn.disconnected = true;
                conn.push(
                    &Frame::Bye {
                        home,
                        at: SimTime::ZERO,
                    },
                    &mut stats,
                );
                stats.byes_out += 1;
                conn.flush();
                conn.inbound.clear();
            }
            conns.push(conn);
        }
    }
    let t = tr.record(Layer::Setup, start, 1);
    tr.fold(Span { start, end: t });

    let mut first_wake: Option<u64> = None;
    let (mut wakes, mut record_wakes) = (0u64, 0u64);
    let mut due = Vec::new();
    let mut fresh = Vec::new();
    let mut escalations: Vec<CareEvent> = Vec::new();
    loop {
        let window_start = tr.now();
        let more = session.next_epoch(&mut due).is_some();
        let t = tr.record(Layer::Schedule, window_start, 0);
        if !more {
            tr.fold(Span {
                start: window_start,
                end: t,
            });
            break;
        }
        for &home in &due {
            loop {
                let t = tr.now();
                let next = session.next_wake(home);
                let t = tr.record(Layer::Schedule, t, u64::from(next.is_some()));
                let Some(now) = next else { break };
                clock.wait_until(now);
                let t_woke = tr.record(Layer::Clock, t, 1);
                wakes += 1;
                first_wake.get_or_insert(t_woke);
                let skip = wire && conns[home as usize].disconnected;
                if !wire || skip {
                    let t = tr.now();
                    session.serve_wake(home, now, skip, &mut fresh);
                    tr.record(Layer::ServeWake, t, 1);
                    stats.skipped_wakes += u64::from(skip);
                    record_wakes += u64::from(!fresh.is_empty());
                    fresh.clear();
                    continue;
                }
                let conn = &mut conns[home as usize];
                stats.polls += 1;
                let t = tr.now();
                conn.push(&Frame::Poll { home, at: now }, &mut stats);
                let t = tr.record(Layer::Encode, t, 1);
                conn.flush();
                let t = tr.record(Layer::Client, t, 1);
                let frames = conn.drain(&mut stats);
                tr.record(Layer::Decode, t, frames);
                if conn.disconnected {
                    let t = tr.now();
                    session.serve_wake(home, now, true, &mut fresh);
                    tr.record(Layer::ServeWake, t, 1);
                    stats.skipped_wakes += 1;
                    continue;
                }
                if conn.watermark.is_none_or(|w| w < now) {
                    stats.late_reports += 1;
                }
                let t = tr.now();
                session.serve_wake(home, now, false, &mut fresh);
                tr.record(Layer::ServeWake, t, 1);
                record_wakes += u64::from(!fresh.is_empty());
                session.drain_care(home, &mut escalations);
                if fresh.is_empty() && escalations.is_empty() {
                    continue;
                }
                let t = tr.now();
                let frames = (fresh.len() + escalations.len()) as u64;
                for rec in fresh.drain(..) {
                    stats.delivers += 1;
                    conn.push(&Frame::Deliver(rec), &mut stats);
                }
                for ev in escalations.drain(..) {
                    stats.escalations += 1;
                    conn.push(&Frame::Escalate(ev), &mut stats);
                }
                tr.record(Layer::Encode, t, frames);
            }
        }
        fresh.clear();
        let window_end = tr.now();
        tr.fold(Span {
            start: window_start,
            end: window_end,
        });
    }

    // Horizon: trailing care events, goodbyes, and the merge — server
    // time with no layer span of its own.
    session.finish_care(&mut escalations);
    if wire {
        for ev in escalations.drain(..) {
            let conn = &mut conns[ev.home as usize];
            if conn.disconnected {
                continue;
            }
            stats.escalations += 1;
            conn.push(&Frame::Escalate(ev), &mut stats);
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.disconnected {
                continue;
            }
            let home = u32::try_from(i).expect("ServeCtx::new validated fleet size");
            conn.push(
                &Frame::Bye {
                    home,
                    at: horizon_end,
                },
                &mut stats,
            );
            stats.byes_out += 1;
            conn.flush();
            conn.drain(&mut stats);
        }
    }
    let (output, log, care) = collect_served(ctx.config(), vec![session.finish()]);
    let (ledger, ns_per_tick) = tr.finish(start);
    #[allow(clippy::cast_precision_loss)]
    let first_wake_s = first_wake.map_or(0.0, |t| (t - start) as f64 * ns_per_tick / 1e9);
    Traced {
        output,
        log,
        care,
        wire: stats,
        ledger,
        wakes,
        record_wakes,
        first_wake_s,
    }
}

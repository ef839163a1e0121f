//! Observation from outside the server: a [`Client`] wrapper that times
//! what reaches each home, and [`Clock`] wrappers that pace an open loop
//! and measure how far out of due order wakes arrive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use coreda_des::time::SimTime;
use coreda_des::{Clock, WallClock};
use coreda_serve::{frame_bytes, try_decode, Client, Frame, MoteClient};

/// What the probe clients saw, merged over every home.
#[derive(Debug, Default)]
pub struct Seen {
    /// Server→client bytes.
    pub bytes_down: u64,
    /// Client→server bytes.
    pub bytes_up: u64,
    /// `Poll` frames received (one per served wake).
    pub polls: u64,
    /// `Deliver` and `Escalate` frames received.
    pub prompts: u64,
    /// Flushes that failed to decode, or carried a prompt without a
    /// `Poll` or `Bye`.
    pub errors: u64,
    /// Per prompt a `Poll` carried: sim ms from the record's instant to
    /// that `Poll`.
    pub prompt_delay_ms: Vec<f64>,
    /// Prompts still queued at the horizon, which only the closing
    /// `Bye` carried: they have no delivery delay.
    pub undelivered: u64,
    /// Per paced wake: (due sim ms, wall ms its `Poll` arrived after
    /// its due wall instant).
    pub lateness: Vec<(u32, f32)>,
}

impl Seen {
    fn absorb(&mut self, other: Seen) {
        self.bytes_down += other.bytes_down;
        self.bytes_up += other.bytes_up;
        self.polls += other.polls;
        self.prompts += other.prompts;
        self.errors += other.errors;
        self.prompt_delay_ms.extend(other.prompt_delay_ms);
        self.undelivered += other.undelivered;
        self.lateness.extend(other.lateness);
    }
}

/// State the probe clients of one served run share.
#[derive(Debug, Default)]
pub struct ProbeSink {
    seen: Mutex<Seen>,
}

impl ProbeSink {
    /// Everything the run's clients saw (call after the serve returned,
    /// which drops every client).
    pub fn take(&self) -> Seen {
        std::mem::take(&mut *self.seen.lock().expect("no client panicked while merging"))
    }
}

/// A [`MoteClient`] that decodes each flush a second time, with the
/// public [`try_decode`], to date prompts and time paced wakes. It
/// changes nothing the server sees: every byte goes through the inner
/// client unchanged.
#[derive(Debug)]
pub struct ProbeClient {
    inner: MoteClient,
    sink: Arc<ProbeSink>,
    pace: Option<Pace>,
    seen: Seen,
    /// Instants of the prompts in the flush being decoded.
    prompts: Vec<SimTime>,
}

impl ProbeClient {
    /// Wraps `inner`; with `pace`, every `Poll` is timed against its due
    /// wall instant.
    pub fn new(inner: MoteClient, sink: Arc<ProbeSink>, pace: Option<Pace>) -> ProbeClient {
        ProbeClient {
            inner,
            sink,
            pace,
            seen: Seen::default(),
            prompts: Vec::new(),
        }
    }
}

/// Wire length and kind byte of a `Poll` frame.
fn poll_shape() -> (usize, u8) {
    static SHAPE: OnceLock<(usize, u8)> = OnceLock::new();
    *SHAPE.get_or_init(|| {
        let poll = Frame::Poll {
            home: 0,
            at: SimTime::ZERO,
        };
        (frame_bytes(&poll).len(), poll.kind())
    })
}

impl ProbeClient {
    /// Decodes one flush: counts its Polls, times them against the pace,
    /// and dates its prompts by the Poll that carries them. Prompts that
    /// only the horizon's Bye carries count as undelivered.
    fn observe(&mut self, inbound: &[u8], arrived_ms: Option<f64>) {
        let seen = &mut self.seen;
        let (mut poll_at, mut bye) = (None, false);
        self.prompts.clear();
        let mut offset = 0;
        loop {
            match try_decode(&inbound[offset..]) {
                Ok(Some((frame, used))) => {
                    offset += used;
                    match frame {
                        Frame::Poll { at, .. } => {
                            seen.polls += 1;
                            poll_at = Some(at);
                            let due_ms = self.pace.as_ref().and_then(|p| p.due_ms(at));
                            if let (Some(arrived), Some(due)) = (arrived_ms, due_ms) {
                                let due_sim = u32::try_from(at.as_millis()).unwrap_or(u32::MAX);
                                #[allow(clippy::cast_possible_truncation)]
                                seen.lateness.push((due_sim, (arrived - due) as f32));
                            }
                        }
                        Frame::Bye { .. } => bye = true,
                        Frame::Deliver(rec) => self.prompts.push(rec.at),
                        Frame::Escalate(ev) => self.prompts.push(ev.at),
                        Frame::Hello { .. } | Frame::Welcome { .. } | Frame::Report { .. } => {}
                    }
                }
                Ok(None) if offset == inbound.len() => break,
                Ok(None) | Err(_) => {
                    seen.errors += 1;
                    break;
                }
            }
        }
        seen.prompts += self.prompts.len() as u64;
        match poll_at {
            Some(at) => {
                for p in &self.prompts {
                    #[allow(clippy::cast_precision_loss)]
                    seen.prompt_delay_ms
                        .push(at.as_millis().saturating_sub(p.as_millis()) as f64);
                }
            }
            None if bye => seen.undelivered += self.prompts.len() as u64,
            None if !self.prompts.is_empty() => seen.errors += 1,
            None => {}
        }
    }
}

impl Client for ProbeClient {
    fn on_bytes(&mut self, inbound: &[u8], out: &mut Vec<u8>) {
        let arrived_ms = self.pace.as_ref().map(Pace::elapsed_ms);
        let (poll_len, poll_kind) = poll_shape();
        if arrived_ms.is_none() && inbound.len() == poll_len && inbound[5] == poll_kind {
            // A flush that is one bare `Poll` carries nothing to date, and
            // it is most of the closed loop's traffic: count it without a
            // second decode (the inner client still decodes and checks it).
            self.seen.polls += 1;
        } else {
            self.observe(inbound, arrived_ms);
        }
        self.seen.bytes_down += inbound.len() as u64;
        let before = out.len();
        self.inner.on_bytes(inbound, out);
        self.seen.bytes_up += (out.len() - before) as u64;
    }
}

impl Drop for ProbeClient {
    fn drop(&mut self) {
        // A poisoned sink only loses this client's figures; the run's
        // poll count then disagrees with the server's and fails it.
        if let Ok(mut all) = self.sink.seen.lock() {
            all.absorb(std::mem::take(&mut self.seen));
        }
    }
}

/// The open loop's schedule: the production [`WallClock`] at a fixed
/// speed-up, started when the first wake falls due so the run does not
/// idle through the quiet start of the horizon.
#[derive(Debug, Clone)]
pub struct Pace {
    speedup: f64,
    anchor: Arc<OnceLock<(WallClock, u64)>>,
}

impl Pace {
    /// A schedule running `speedup` sim ms per wall ms.
    pub fn new(speedup: f64) -> Pace {
        Pace {
            speedup,
            anchor: Arc::new(OnceLock::new()),
        }
    }

    /// Wall ms since the schedule started (0 before).
    fn elapsed_ms(&self) -> f64 {
        self.anchor
            .get()
            .map_or(0.0, |(wall, _)| wall.elapsed().as_secs_f64() * 1e3)
    }

    /// The wall ms (since the start) at which sim instant `at` is due.
    fn due_ms(&self, at: SimTime) -> Option<f64> {
        let &(_, first) = self.anchor.get()?;
        #[allow(clippy::cast_precision_loss)]
        let sim_ms = at.as_millis().saturating_sub(first) as f64;
        Some(sim_ms / self.speedup)
    }

    /// One pipeline tick (100 sim ms) in wall ms.
    pub fn tick_wall_ms(&self) -> f64 {
        100.0 / self.speedup
    }
}

/// A [`Clock`] pacing wakes on a [`Pace`] and adding up the wall time it
/// spent asleep.
#[derive(Debug, Clone)]
pub struct PacedClock {
    pace: Pace,
    asleep_ns: Arc<AtomicU64>,
}

impl PacedClock {
    /// A clock on `pace`'s schedule.
    pub fn new(pace: Pace) -> PacedClock {
        PacedClock {
            pace,
            asleep_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Wall seconds spent asleep so far, over every clone.
    pub fn asleep_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.asleep_ns.load(Ordering::Relaxed) as f64;
        ns / 1e9
    }
}

impl Clock for PacedClock {
    fn wait_until(&mut self, due: SimTime) {
        let speedup = self.pace.speedup;
        let &(mut wall, first) = self
            .pace
            .anchor
            .get_or_init(|| (WallClock::with_speedup(speedup), due.as_millis()));
        let start = Instant::now();
        wall.wait_until(SimTime::from_millis(due.as_millis().saturating_sub(first)));
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.asleep_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A [`Clock`] wrapper recording, for every wake, how many sim ms it
/// arrives behind the latest instant the clock has already waited for.
#[derive(Debug)]
pub struct SkewClock<K> {
    inner: K,
    latest: SimTime,
    /// One sample per `wait_until`, in sim ms.
    pub skew_ms: Vec<f64>,
}

impl<K: Clock> SkewClock<K> {
    /// Wraps `inner`.
    pub fn new(inner: K) -> SkewClock<K> {
        SkewClock {
            inner,
            latest: SimTime::ZERO,
            skew_ms: Vec::new(),
        }
    }
}

impl<K: Clock> Clock for SkewClock<K> {
    fn wait_until(&mut self, due: SimTime) {
        #[allow(clippy::cast_precision_loss)]
        let behind = self.latest.as_millis().saturating_sub(due.as_millis()) as f64;
        self.skew_ms.push(behind);
        self.latest = self.latest.max(due);
        self.inner.wait_until(due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_core::wal::{WalRecord, NO_ACT};
    use coreda_serve::encode_frame;

    fn record(at_ms: u64) -> WalRecord {
        WalRecord {
            at: SimTime::from_millis(at_ms),
            home: 3,
            act: NO_ACT,
            flags: 0,
            reminders: 1,
            praises: 0,
            sessions_started: 0,
            sessions_completed: 0,
            sessions_abandoned: 0,
            cross_activity: 0,
        }
    }

    #[test]
    fn prompts_are_dated_by_the_flush_that_carries_them() {
        let sink = Arc::new(ProbeSink::default());
        let mut client = ProbeClient::new(MoteClient::new(3, 9), Arc::clone(&sink), None);
        let mut out = Vec::new();
        client.on_bytes(&[], &mut out);
        let mut flush = Vec::new();
        encode_frame(
            &Frame::Welcome {
                home: 3,
                at: SimTime::ZERO,
            },
            &mut flush,
        );
        encode_frame(&Frame::Deliver(record(1_000)), &mut flush);
        encode_frame(&Frame::Deliver(record(1_900)), &mut flush);
        encode_frame(
            &Frame::Poll {
                home: 3,
                at: SimTime::from_millis(2_000),
            },
            &mut flush,
        );
        client.on_bytes(&flush, &mut out);
        drop(client);
        let seen = sink.take();
        assert_eq!(seen.polls, 1);
        assert_eq!(seen.prompts, 2);
        assert_eq!(seen.errors, 0);
        assert_eq!(seen.prompt_delay_ms, vec![1_000.0, 100.0]);
        assert_eq!(seen.bytes_down, flush.len() as u64);
        assert!(seen.bytes_up > 0, "hello and report went up");
    }

    #[test]
    fn prompts_only_the_bye_carries_are_undelivered() {
        let sink = Arc::new(ProbeSink::default());
        let mut client = ProbeClient::new(MoteClient::new(3, 9), Arc::clone(&sink), None);
        let mut flush = Vec::new();
        encode_frame(&Frame::Deliver(record(1_000)), &mut flush);
        encode_frame(
            &Frame::Bye {
                home: 3,
                at: SimTime::from_millis(150_000),
            },
            &mut flush,
        );
        client.on_bytes(&flush, &mut Vec::new());
        drop(client);
        let seen = sink.take();
        assert_eq!((seen.prompts, seen.undelivered, seen.errors), (1, 1, 0));
        assert!(seen.prompt_delay_ms.is_empty());
    }

    #[test]
    fn a_prompt_without_a_dated_flush_is_an_error() {
        let sink = Arc::new(ProbeSink::default());
        let mut client = ProbeClient::new(MoteClient::new(3, 9), Arc::clone(&sink), None);
        let mut flush = Vec::new();
        encode_frame(&Frame::Deliver(record(1_000)), &mut flush);
        client.on_bytes(&flush, &mut Vec::new());
        drop(client);
        let seen = sink.take();
        assert_eq!(seen.errors, 1);
        assert!(seen.prompt_delay_ms.is_empty());
    }

    #[test]
    fn skew_is_measured_against_the_latest_instant_waited_for() {
        let mut clock = SkewClock::new(coreda_des::SimClock);
        for ms in [100, 300, 200, 300, 250, 400] {
            clock.wait_until(SimTime::from_millis(ms));
        }
        assert_eq!(clock.skew_ms, vec![0.0, 0.0, 100.0, 0.0, 50.0, 0.0]);
    }
}

//! The four workloads. Each runs the production code through its public
//! API for at least the requested seconds, in whole passes, checks every
//! pass's output, and reports medians over passes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coreda_core::checkpoint::{
    compact, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint, save_delta,
};
use coreda_core::escalation::{CareMonitor, CareOutput, CarePolicy, FleetAnalytics};
use coreda_core::metro::{
    resume_scale_durable, run_scale, run_scale_care_walled, run_scale_durable, DurableRun,
    MetroConfig, ScaleReport, ServeCtx,
};
use coreda_core::wal::{decode_wal, encode_wal, WalRecord};
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::SimClock;
use coreda_sensornet::packet::crc16;
use coreda_serve::{frame_bytes, serve_fleet, Frame, MoteClient, ServeOptions, ServeOutcome};

use crate::alloc::peak_during;
use crate::probe::{Pace, PacedClock, ProbeClient, ProbeSink, SkewClock};
use crate::report::Report;
use crate::stats::{median, on_time_pct, p999, quantiles};
use crate::traced::{traced_serve, Layer, Traced};

/// Homes in the served, paced and durable fleets.
const HOMES_10K: usize = 10_000;
/// Homes in the batch fleet: ~560 MB of arenas, far past the L3.
const HOMES_100K: usize = 100_000;
/// Sim horizon of the 10k-home workloads. Episodes start 60–240 s in,
/// so 150 s holds 90 s of activity, ~1.5M wakes and ~19k prompts —
/// enough for a p99.9 prompt delay with ten samples beyond it.
const HORIZON_10K_S: u64 = 150;
/// Sim horizon of the batch fleet: 40 s of activity, ~4M wakes.
const HORIZON_100K_S: u64 = 100;
/// Wall speed-up of the paced open loop. At 10× the fleet offers ~160k
/// wakes per wall second (16k per sim second), and one core serves them
/// about half busy.
const PACED_SPEEDUP: f64 = 10.0;
/// Set-ups timed per run for `setup_s`. A set-up is mostly first-touch
/// page faults, whose cost swings from one to the next on a shared host,
/// so the median is taken over many (fewer at 100k homes, where one
/// set-up takes a third of a second).
const SETUPS: usize = 15;
const SETUPS_100K: usize = 5;
const MB: f64 = 1024.0 * 1024.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10k homes through `serve_fleet`, sim clock, closed loop.
    Served,
    /// The same fleet paced by the wall clock, open loop.
    Paced,
    /// `run_scale` at 100k homes: no wire, care, WAL or checkpoints.
    Batch,
    /// Durable run, checkpoint codecs, and recovery at 10k homes.
    Durable,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Served,
        Workload::Paced,
        Workload::Batch,
        Workload::Durable,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Served => "served_10k",
            Workload::Paced => "paced_10k",
            Workload::Batch => "batch_100k",
            Workload::Durable => "durable_10k",
        }
    }

    /// The workload's fleet for `seed`.
    fn config(self, seed: u64) -> MetroConfig {
        let (homes, horizon) = match self {
            Workload::Batch => (HOMES_100K, HORIZON_100K_S),
            _ => (HOMES_10K, HORIZON_10K_S),
        };
        MetroConfig {
            homes,
            horizon: SimDuration::from_secs(horizon),
            seed,
            jobs: 1,
            ..MetroConfig::default()
        }
    }

    /// Runs the workload, untraced or traced, for at least `seconds`.
    pub fn run(self, seed: u64, seconds: f64, trace: bool) -> Report {
        let cfg = self.config(seed);
        let mut report = Report::new(self.name());
        report.note(format!(
            "homes={} horizon={}s seed={} jobs={} trace={}",
            cfg.homes,
            cfg.horizon.as_millis() / 1000,
            cfg.seed,
            cfg.jobs,
            u8::from(trace)
        ));
        let care = matches!(self, Workload::Served | Workload::Paced);
        let setups = if self == Workload::Batch {
            SETUPS_100K
        } else {
            SETUPS
        };
        let setup: Vec<f64> = (0..setups).map(|_| setup_once(&cfg, care)).collect();
        if !trace {
            report.put_known("setup_s", median(&setup), setup.len());
        }
        let budget = Duration::from_secs_f64(seconds);
        match (self, trace) {
            (Workload::Served, false) => served(&cfg, None, budget, &mut report),
            (Workload::Paced, false) => served(&cfg, Some(PACED_SPEEDUP), budget, &mut report),
            (Workload::Served, true) => served_traced(&cfg, None, budget, &mut report),
            (Workload::Paced, true) => {
                served_traced(&cfg, Some(PACED_SPEEDUP), budget, &mut report)
            }
            (Workload::Batch, false) => batch(&cfg, budget, &mut report),
            (Workload::Batch, true) => batch_traced(&cfg, budget, &mut report),
            (Workload::Durable, trace) => durable(&cfg, budget, trace, &mut report),
        }
        report
    }
}

/// The fleet's set-up, as every entry point pays it: build the shared
/// context, open one session over the whole fleet, and schedule up to
/// the first wake window. Returns seconds; teardown is not timed.
fn setup_once(cfg: &MetroConfig, care: bool) -> f64 {
    let start = Instant::now();
    let mut ctx = ServeCtx::new(cfg.clone()).expect("benchmark fleets fit the wire protocol");
    if care {
        ctx = ctx.with_care(CarePolicy::default());
    }
    let mut session = ctx.session(0, cfg.homes, false, false);
    black_box(session.next_epoch(&mut Vec::new()));
    start.elapsed().as_secs_f64()
}

/// Runs `pass` at least once and until `budget` has elapsed.
fn passes(budget: Duration, min: usize, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        pass();
        n += 1;
    }
    n
}

/// Reports the median per-pass event rate (listing every pass's rate)
/// and the largest per-pass peak heap.
fn put_rate_and_peak(report: &mut Report, rates: &[f64], peaks: &[f64]) {
    report.put_known("events_per_s", median(rates), rates.len());
    let peak = peaks.iter().copied().fold(f64::NAN, f64::max);
    report.put_known("peak_mem_mb", peak, peaks.len());
    report.note(format!("events_per_s by pass: {rates:.0?}"));
}

fn ratio(num: u64, den: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let r = num as f64 / den.max(1) as f64;
    r
}

/// What one untraced served pass measured.
struct ServedPass {
    outcome: ServeOutcome,
    seen: crate::probe::Seen,
    /// Wall seconds of the serve, and of those, asleep in the clock.
    wall: f64,
    asleep: f64,
    peak_mb: f64,
}

impl ServedPass {
    /// DES events per wall second not spent asleep: the closed loop's
    /// capacity, and under pacing the rate while actually serving.
    fn events_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.outcome.output.report.des_events as f64;
        events / (self.wall - self.asleep)
    }
}

fn served_pass(ctx: &ServeCtx, opts: &ServeOptions, pace: Option<&Pace>) -> ServedPass {
    let sink = Arc::new(ProbeSink::default());
    let make = |home, digest| {
        ProbeClient::new(
            MoteClient::new(home, digest),
            Arc::clone(&sink),
            pace.cloned(),
        )
    };
    let start = Instant::now();
    let ((outcome, asleep), peak) = peak_during(|| match pace {
        None => (serve_fleet(ctx, opts, &make, &SimClock), 0.0),
        Some(pace) => {
            let clock = PacedClock::new(pace.clone());
            let outcome = serve_fleet(ctx, opts, &make, &clock);
            (outcome, clock.asleep_s())
        }
    });
    let wall = start.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let peak_mb = peak as f64 / MB;
    ServedPass {
        outcome,
        seen: sink.take(),
        wall,
        asleep,
        peak_mb,
    }
}

/// Checks a served outcome's wire accounting against what the probe
/// clients saw, and counts its failed operations.
fn check_wire(pass: &ServedPass, report: &mut Report) {
    let w = &pass.outcome.wire;
    let seen = &pass.seen;
    report.ops(
        w.hellos + w.polls + w.skipped_wakes,
        w.handshake_rejects + w.decode_errors + w.skipped_wakes + seen.errors,
    );
    report.check(
        w.polls == seen.polls
            && w.delivers + w.escalations == seen.prompts
            && w.bytes_out == seen.bytes_down
            && w.bytes_in == seen.bytes_up,
        "probe clients saw exactly the frames and bytes the server accounted",
    );
    report.check(
        w.polls == w.reports && w.late_reports == 0,
        "every poll answered by its report",
    );
    let care_events = pass.outcome.care.as_ref().map_or(0, |c| c.events.len());
    report.check(
        seen.prompts == (pass.outcome.log.len() + care_events) as u64,
        "every logged record and care event reached its home's client",
    );
}

/// Open-loop figures of one paced pass.
struct Paced {
    on_time_pct: f64,
    late_p50_ms: f64,
    late_tail: (f64, f64),
    lag_end_ms: f64,
    lag_grows: bool,
    busy_pct: f64,
}

/// Times every paced wake from its due wall instant. A wake the server
/// skipped or refused never produced a `Poll` and counts as missed.
fn paced_figures(pass: &mut ServedPass, pace: &Pace) -> Paced {
    let w = &pass.outcome.wire;
    let late = &mut pass.seen.lateness;
    let tick = pace.tick_wall_ms();
    let on_time_pct = on_time_pct(
        late.iter().map(|&(_, l)| f64::from(l)),
        w.skipped_wakes + w.handshake_rejects,
        tick,
    );
    // How the generator's lag moved over the run: wakes in due order,
    // the last decile against the first, and the very last wake.
    late.sort_by_key(|&(due, _)| due);
    let decile = (late.len() / 10).max(1);
    let ms = |slice: &[(u32, f32)]| {
        slice
            .iter()
            .map(|&(_, l)| f64::from(l))
            .collect::<Vec<f64>>()
    };
    let lag_grows = median(&ms(&late[late.len().saturating_sub(decile)..]))
        - median(&ms(&late[..decile.min(late.len())]))
        > tick;
    let lag_end_ms = late.last().map_or(f64::NAN, |&(_, l)| f64::from(l));
    let q = quantiles(&mut ms(late));
    Paced {
        on_time_pct,
        late_p50_ms: q.map_or(f64::NAN, |q| q.p50),
        late_tail: q.and_then(|q| q.tail).unwrap_or((0.0, f64::NAN)),
        lag_end_ms,
        lag_grows,
        busy_pct: 100.0 * (1.0 - pass.asleep / pass.wall),
    }
}

/// Prompt-delay and wire-size figures of a closed-loop pass.
fn prompt_figures(seen: &mut crate::probe::Seen, n: usize, report: &mut Report) {
    report.put(
        "wire_bytes_per_wake",
        "B",
        "lower",
        ratio(seen.bytes_down + seen.bytes_up, seen.polls),
        n,
    );
    let mut delays = std::mem::take(&mut seen.prompt_delay_ms);
    let Some(q) = quantiles(&mut delays) else {
        return;
    };
    report.put("prompt_delay_p50_ms", "ms", "lower", q.p50, q.n);
    let tail = p999(&mut delays);
    report.check(tail.is_finite(), "ten prompt delays lie beyond the p99.9");
    report.put("prompt_delay_p999_ms", "ms", "lower", tail, q.n);
    #[allow(clippy::cast_precision_loss)]
    let undelivered = seen.undelivered as f64;
    report.put(
        "prompts_undelivered_at_horizon",
        "count",
        "lower",
        undelivered,
        n,
    );
    let slow = delays.iter().filter(|&&d| d > 1_000.0).count();
    report.note(format!(
        "finding: {} of {} prompts ({:.2}%) still waited for the home's next Poll at the \
         horizon; of those delivered, {slow} waited over 1 s sim",
        seen.undelivered,
        seen.prompts,
        ratio(seen.undelivered * 100, seen.prompts)
    ));
}

fn served(cfg: &MetroConfig, speedup: Option<f64>, budget: Duration, report: &mut Report) {
    let policy = CarePolicy::default();
    let ctx = ServeCtx::new(cfg.clone())
        .expect("benchmark fleets fit the wire protocol")
        .with_care(policy.clone());
    let opts = ServeOptions {
        care: Some(policy.clone()),
        ..ServeOptions::default()
    };
    let mut first: Option<ServedPass> = None;
    let (mut rates, mut peaks, mut paced) = (Vec::new(), Vec::new(), Vec::new());
    let n = passes(budget, 1, || {
        let pace = speedup.map(Pace::new);
        let mut pass = served_pass(&ctx, &opts, pace.as_ref());
        check_wire(&pass, report);
        rates.push(pass.events_per_s());
        peaks.push(pass.peak_mb);
        if let Some(pace) = &pace {
            paced.push(paced_figures(&mut pass, pace));
        }
        match &first {
            None => first = Some(pass),
            Some(f) => report.check(
                pass.outcome.output.report == f.outcome.output.report
                    && pass.outcome.log == f.outcome.log
                    && pass.outcome.care == f.outcome.care
                    && pass.outcome.wire == f.outcome.wire
                    && pass.seen.prompt_delay_ms == f.seen.prompt_delay_ms,
                "passes of one seed serve identical output",
            ),
        }
    });
    let mut first = first.expect("at least one pass ran");
    // The reference, outside the timed passes: the batch sweep with the
    // same care overlay must match what went over the wire.
    let (batch, wal, care) = run_scale_care_walled(cfg, &policy);
    report.check(
        first.outcome.output.report == batch,
        "served report equals run_scale_care_walled",
    );
    report.check(
        first.outcome.log == wal,
        "served delivery log equals the batch log",
    );
    report.check(
        first.outcome.care.as_ref() == Some(&care),
        "served care log equals the batch care log",
    );

    put_rate_and_peak(report, &rates, &peaks);
    let w = &first.outcome.wire;
    report.note(format!(
        "passes={n} des_events={} wakes={} prompts={} escalations={} deliveries={}",
        first.outcome.output.report.des_events,
        w.polls,
        first.seen.prompts,
        w.escalations,
        w.delivers
    ));
    let Some(speedup) = speedup else {
        prompt_figures(&mut first.seen, n, report);
        return;
    };
    let wakes = usize::try_from(w.polls).unwrap_or(usize::MAX);
    let pick = |f: fn(&Paced) -> f64| median(&paced.iter().map(f).collect::<Vec<_>>());
    let tail_pct = paced[0].late_tail.0;
    report.put("on_time_pct", "%", "higher", pick(|p| p.on_time_pct), wakes);
    report.put(
        "lateness_p50_ms",
        "ms",
        "lower",
        pick(|p| p.late_p50_ms),
        wakes,
    );
    report.put(
        &format!("lateness_p{tail_pct}_ms"),
        "ms",
        "lower",
        pick(|p| p.late_tail.1),
        wakes,
    );
    report.put("lag_end_ms", "ms", "lower", pick(|p| p.lag_end_ms), n);
    report.put("busy_pct", "%", "lower", pick(|p| p.busy_pct), n);
    let grows = paced.iter().filter(|p| p.lag_grows).count();
    report.note(format!(
        "speedup={speedup} on-time limit={} ms wall (one 100 ms sim tick); lag {}",
        100.0 / speedup,
        if grows > 0 {
            format!("GROWS over the run in {grows} of {n} passes (backlog)")
        } else {
            "steady".into()
        }
    ));
}

/// Replays a delivery log through fresh care monitors, as the served
/// overlay folds it; returns the rebuilt care output and the seconds the
/// fold took.
fn replay_care(cfg: &MetroConfig, log: &[WalRecord]) -> (CareOutput, f64) {
    let policy = CarePolicy::default();
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut monitors: Vec<CareMonitor> = (0..cfg.homes)
        .map(|h| CareMonitor::new(u32::try_from(h).expect("fleet fits u32")))
        .collect();
    let mut analytics = FleetAnalytics::new();
    let start = Instant::now();
    for rec in log {
        monitors[rec.home as usize].observe(&policy, rec, &mut analytics);
    }
    for monitor in &mut monitors {
        monitor.finish(&policy, horizon, &mut analytics);
    }
    let secs = start.elapsed().as_secs_f64();
    let mut events: Vec<_> = monitors
        .iter()
        .flat_map(|m| m.events().iter().copied())
        .collect();
    events.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
    (CareOutput { events, analytics }, secs)
}

/// Times `crc16` over the frames a log puts on the wire (each record's
/// Poll, Report and Deliver), checking every trailer. Returns ns per
/// byte and whether every trailer matched.
fn crc_probe(log: &[WalRecord]) -> (f64, bool) {
    let frames: Vec<Vec<u8>> = log
        .iter()
        .flat_map(|rec| {
            [
                Frame::Poll {
                    home: rec.home,
                    at: rec.at,
                },
                Frame::Report {
                    home: rec.home,
                    at: rec.at,
                    seq: 0,
                },
                Frame::Deliver(*rec),
            ]
        })
        .map(|f| frame_bytes(&f))
        .collect();
    let bytes: usize = frames.iter().map(|f| f.len() - 2).sum();
    let start = Instant::now();
    let mut ok = true;
    for f in &frames {
        let (body, trailer) = f.split_at(f.len() - 2);
        ok &= black_box(crc16(black_box(body))).to_be_bytes() == trailer;
    }
    #[allow(clippy::cast_precision_loss)]
    let ns = start.elapsed().as_nanos() as f64 / bytes.max(1) as f64;
    (ns, ok)
}

/// Per-layer figures of one traced serve.
fn layer_figures(t: &Traced, ctx_s: f64) -> Vec<(&'static str, f64)> {
    let l = &t.ledger;
    let per_wake = |ns: u64| ratio(ns, t.wakes);
    let per_op = |layer: Layer| ratio(l.ns(layer), l.ops(layer));
    vec![
        (
            "metro.schedule_ns_per_wake",
            per_wake(l.ns(Layer::Schedule)),
        ),
        (
            "metro.serve_wake_ns_per_wake",
            per_wake(l.ns(Layer::ServeWake)),
        ),
        (
            "metro.record_wakes_pct",
            100.0 * ratio(t.record_wakes, t.wakes),
        ),
        (
            "des.events_per_wake",
            ratio(t.output.report.des_events, t.wakes),
        ),
        #[allow(clippy::cast_precision_loss)]
        ("des.peak_pending", t.output.peak_pending as f64),
        ("wire.encode_ns_per_frame", per_op(Layer::Encode)),
        ("wire.decode_ns_per_frame", per_op(Layer::Decode)),
        (
            "wire.frames_per_wake",
            ratio(t.wire.frames_in + t.wire.frames_out, t.wire.polls),
        ),
        ("wire.polls_per_wake", ratio(t.wire.polls, t.wakes)),
        ("client.on_bytes_ns_per_flush", per_op(Layer::Client)),
        ("server.self_ns_per_wake", per_wake(l.self_ns)),
        (
            "server.busy_pct",
            100.0 * (1.0 - ratio(l.ns(Layer::Clock), l.wall_ns)),
        ),
        ("setup.ctx_s", ctx_s),
        ("setup.first_wake_s", t.first_wake_s),
    ]
}

/// Medians, over passes, of per-pass `(name, value)` figures.
fn put_medians(report: &mut Report, per_pass: &[Vec<(&'static str, f64)>]) {
    let Some(first) = per_pass.first() else {
        return;
    };
    for (i, &(name, _)) in first.iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|p| p[i].1).collect();
        report.put_known(name, median(&values), values.len());
    }
}

/// The traced serve's ledger: per-wake ns by layer, and their sum
/// against the traced wall time.
fn ledger_line(t: &Traced) -> String {
    let l = &t.ledger;
    let layers = [
        ("setup", Layer::Setup),
        ("schedule", Layer::Schedule),
        ("clock", Layer::Clock),
        ("encode", Layer::Encode),
        ("client", Layer::Client),
        ("decode", Layer::Decode),
        ("serve_wake", Layer::ServeWake),
    ];
    let mut line = String::from("ledger ns/wake:");
    let mut sum = l.self_ns;
    for (name, layer) in layers {
        sum += l.ns(layer);
        line.push_str(&format!(" {name}={:.1}", ratio(l.ns(layer), t.wakes)));
    }
    line.push_str(&format!(
        " server_self={:.1} | sum={:.1} traced_wall={:.1} ({:.3}% unaccounted)",
        ratio(l.self_ns, t.wakes),
        ratio(sum, t.wakes),
        ratio(l.wall_ns, t.wakes),
        100.0 * (1.0 - ratio(sum, l.wall_ns))
    ));
    line
}

/// Reports the tracing overhead: median traced wall against median
/// untraced wall over the run's passes.
fn put_overhead(report: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    report.put_known("trace.overhead_pct", 100.0 * (t - u) / u, traced.len());
    report.note(format!(
        "passes={} untraced_wall_s={u:.4} traced_wall_s={t:.4} tracing_overhead_s={:.4}",
        traced.len(),
        t - u
    ));
}

fn served_traced(cfg: &MetroConfig, speedup: Option<f64>, budget: Duration, report: &mut Report) {
    let policy = CarePolicy::default();
    let opts = ServeOptions {
        care: Some(policy.clone()),
        ..ServeOptions::default()
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut figures = Vec::new();
    let mut ledger = String::new();
    passes(budget, 1, || {
        let ctx = ServeCtx::new(cfg.clone())
            .expect("fleet fits")
            .with_care(policy.clone());
        let start = Instant::now();
        let plain = match speedup {
            None => serve_fleet(&ctx, &opts, &MoteClient::new, &SimClock),
            Some(s) => serve_fleet(
                &ctx,
                &opts,
                &MoteClient::new,
                &PacedClock::new(Pace::new(s)),
            ),
        };
        untraced.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let ctx = ServeCtx::new(cfg.clone())
            .expect("fleet fits")
            .with_care(policy.clone());
        let ctx_s = start.elapsed().as_secs_f64();
        let (t, mut skews) = match speedup {
            None => {
                let mut clock = SkewClock::new(SimClock);
                let t = traced_serve(&ctx, &mut clock, true);
                (t, clock.skew_ms)
            }
            Some(s) => {
                let mut clock = SkewClock::new(PacedClock::new(Pace::new(s)));
                let t = traced_serve(&ctx, &mut clock, true);
                (t, clock.skew_ms)
            }
        };
        #[allow(clippy::cast_precision_loss)]
        traced.push(t.ledger.wall_ns as f64 / 1e9);
        report.check(
            t.wire == plain.wire
                && t.output.report == plain.output.report
                && t.log == plain.log
                && t.care == plain.care,
            "traced loop's wire stats, report, log and care equal serve_fleet's",
        );
        report.ops(
            t.wire.hellos + t.wire.polls + t.wire.skipped_wakes,
            t.wire.handshake_rejects + t.wire.decode_errors + t.wire.skipped_wakes,
        );
        let mut f = layer_figures(&t, ctx_s);
        f.push(("metro.reorder_skew_p999_ms", p999(&mut skews)));
        let (care, fold_s) = replay_care(cfg, &t.log);
        report.check(
            t.care.as_ref() == Some(&care),
            "care log rebuilt from the delivery log by fresh CareMonitors",
        );
        let records = t.log.len().max(1);
        #[allow(clippy::cast_precision_loss)]
        f.push((
            "escalation.observe_ns_per_record",
            fold_s * 1e9 / records as f64,
        ));
        let (crc_ns, crc_ok) = crc_probe(&t.log);
        report.check(crc_ok, "every probed frame's CRC trailer matches crc16");
        f.push(("wire.crc16_ns_per_byte", crc_ns));
        figures.push(f);
        ledger = ledger_line(&t);
    });
    put_medians(report, &figures);
    put_overhead(report, &untraced, &traced);
    zero_unmeasured(report);
    report.note(ledger);
}

/// Reports 0 for every per-layer metric this workload does not run.
fn zero_unmeasured(report: &mut Report) {
    for (name, ..) in crate::report::PER_LAYER {
        if report.value(name).is_none() {
            report.put_known(name, 0.0, 0);
        }
    }
}

fn batch(cfg: &MetroConfig, budget: Duration, report: &mut Report) {
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    let mut first = None;
    // Two passes at least: the check is that a pass repeats exactly.
    let n = passes(budget, 2, || {
        let start = Instant::now();
        let (out, peak) = peak_during(|| run_scale(cfg));
        let wall = start.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        rates.push(out.des_events as f64 / wall);
        #[allow(clippy::cast_precision_loss)]
        peaks.push(peak as f64 / MB);
        report.ops(1, 0);
        match &first {
            None => first = Some(out),
            Some(f) => report.check(
                out == *f,
                "batch report (totals, des_events, per-home stats) repeats exactly",
            ),
        }
    });
    let first = first.expect("at least one pass ran");
    report.note(format!(
        "passes={n} des_events={} pipeline_ticks={}",
        first.des_events,
        first.pipeline_ticks()
    ));
    put_rate_and_peak(report, &rates, &peaks);
}

fn batch_traced(cfg: &MetroConfig, budget: Duration, report: &mut Report) {
    let (mut untraced, mut traced, mut figures) = (Vec::new(), Vec::new(), Vec::new());
    passes(budget, 1, || {
        let start = Instant::now();
        let plain = run_scale(cfg);
        untraced.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let ctx = ServeCtx::new(cfg.clone()).expect("fleet fits");
        let ctx_s = start.elapsed().as_secs_f64();
        let mut clock = SkewClock::new(SimClock);
        let t = traced_serve(&ctx, &mut clock, false);
        #[allow(clippy::cast_precision_loss)]
        traced.push(t.ledger.wall_ns as f64 / 1e9);
        report.check(
            t.output.report == plain,
            "traced session loop's report equals run_scale's",
        );
        // `run_scale` schedules with its own sweep, not the session
        // chain API the traced loop drives, so the traced loop's
        // scheduling time and overhead are not `run_scale`'s: both are
        // left at 0 here, and the walls only noted.
        let mut f = layer_figures(&t, ctx_s);
        f.retain(|(name, _)| {
            !name.starts_with("wire.")
                && !name.starts_with("client.")
                && *name != "metro.schedule_ns_per_wake"
        });
        f.push(("metro.reorder_skew_p999_ms", p999(&mut clock.skew_ms)));
        figures.push(f);
    });
    put_medians(report, &figures);
    report.note(format!(
        "passes={} run_scale_wall_s={:.4} traced_session_wall_s={:.4} (different schedulers)",
        traced.len(),
        median(&untraced),
        median(&traced)
    ));
    zero_unmeasured(report);
}

/// Base snapshot at a third of the horizon, deltas at two thirds and
/// five sixths; the log tail past the last delta is what recovery
/// replays and verifies.
fn durable_stops(cfg: &MetroConfig) -> [SimTime; 3] {
    let h = cfg.horizon.as_millis();
    [
        SimTime::from_millis(h / 3),
        SimTime::from_millis(2 * h / 3),
        SimTime::from_millis(5 * h / 6),
    ]
}

/// What one durable pass measured.
struct DurablePass {
    report: ScaleReport,
    serve_s: f64,
    checkpoint_s: f64,
    recovery_s: f64,
    /// Base, delta and log bytes, and log records.
    sizes: (usize, usize, usize, usize),
    /// Per-layer figures (traced runs only).
    layers: Vec<(&'static str, f64)>,
}

/// Serve durably, encode every artifact, decode them and resume; checks
/// the round trip and the resumed report. With `trace`, also re-derives
/// each delta from the full snapshots it joins and folds the chain,
/// checked against the run's own deltas.
fn durable_pass(
    cfg: &MetroConfig,
    stops: &[SimTime],
    trace: bool,
    report: &mut Report,
) -> DurablePass {
    let start = Instant::now();
    let (plain, run) = run_scale_durable(cfg, stops);
    let serve_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let base = save_checkpoint(&run.base, 1);
    let deltas: Vec<_> = run.deltas.iter().map(|d| save_delta(d, 1)).collect();
    let ckpt_encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let wal = encode_wal(run.base.digest, &run.wal);
    let wal_encode_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let loaded_base = load_checkpoint(&base, 1);
    let loaded_deltas: Result<Vec<_>, _> = deltas.iter().map(|d| load_delta(d, 1)).collect();
    let ckpt_decode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let loaded_wal = decode_wal(&wal);
    let wal_decode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let resumed = match (loaded_base, loaded_deltas, loaded_wal) {
        (Ok(base), Ok(deltas), Ok((digest, wal))) => {
            report.check(
                digest == run.base.digest,
                "decoded log carries the run's digest",
            );
            let chain = DurableRun { base, deltas, wal };
            report.check(
                chain == run,
                "base, deltas and log round-trip their codecs exactly",
            );
            resume_scale_durable(cfg, &chain).ok()
        }
        _ => None,
    };
    let replay_s = start.elapsed().as_secs_f64();
    report.ops(1, u64::from(resumed.is_none()));
    report.check(
        resumed.as_ref() == Some(&plain),
        "resumed report equals the uninterrupted run's",
    );

    let delta_bytes: usize = deltas.iter().map(|d| d.len()).sum();
    let mut layers = Vec::new();
    if trace {
        let mut diff_s = 0.0;
        let mut prev = run.base.clone();
        for (k, stored) in run.deltas.iter().enumerate() {
            let cur = compact(&run.base, &run.deltas[..=k]).expect("the run's own chain folds");
            let start = Instant::now();
            let delta = delta_checkpoint(&prev, &cur);
            diff_s += start.elapsed().as_secs_f64();
            report.check(delta == *stored, "re-derived delta equals the run's");
            prev = cur;
        }
        let start = Instant::now();
        let folded = run.compacted();
        let compact_s = start.elapsed().as_secs_f64();
        report.check(folded.is_ok(), "the delta chain folds into its base");
        #[allow(clippy::cast_precision_loss)]
        let (ckpt_mb, wal_mb) = (
            (base.len() + delta_bytes) as f64 / MB,
            wal.len() as f64 / MB,
        );
        let full_bytes = (deltas.len().max(1) * base.len()) as u64;
        layers = vec![
            ("checkpoint.encode_mb_per_s", ckpt_mb / ckpt_encode_s),
            ("checkpoint.decode_mb_per_s", ckpt_mb / ckpt_decode_s),
            ("checkpoint.delta_diff_s", diff_s),
            ("checkpoint.compact_s", compact_s),
            (
                "checkpoint.delta_pct_of_full",
                100.0 * ratio(delta_bytes as u64, full_bytes),
            ),
            ("wal.encode_mb_per_s", wal_mb / wal_encode_s),
            ("wal.decode_mb_per_s", wal_mb / wal_decode_s),
            (
                "wal.bytes_per_record",
                ratio(wal.len() as u64, run.wal.len() as u64),
            ),
            ("recovery.replay_s", replay_s),
        ];
    }
    DurablePass {
        report: plain,
        serve_s,
        checkpoint_s: ckpt_encode_s + wal_encode_s,
        recovery_s: ckpt_decode_s + wal_decode_s + replay_s,
        sizes: (base.len(), delta_bytes, wal.len(), run.wal.len()),
        layers,
    }
}

fn durable(cfg: &MetroConfig, budget: Duration, trace: bool, report: &mut Report) {
    let stops = durable_stops(cfg);
    let mut first: Option<ScaleReport> = None;
    let (mut rates, mut peaks, mut ckpt_s, mut recover_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced, mut figures) = (Vec::new(), Vec::new(), Vec::new());
    let mut sizes = (0, 0, 0, 0);
    let n = passes(budget, 1, || {
        let start = Instant::now();
        let (pass, peak) = peak_during(|| durable_pass(cfg, &stops, trace, report));
        // The untraced steps are timed only at their own boundaries, so
        // what the traced run adds is the re-derivation alone.
        traced.push(start.elapsed().as_secs_f64());
        untraced.push(pass.serve_s + pass.checkpoint_s + pass.recovery_s);
        #[allow(clippy::cast_precision_loss)]
        rates.push(pass.report.des_events as f64 / pass.serve_s);
        #[allow(clippy::cast_precision_loss)]
        peaks.push(peak as f64 / MB);
        ckpt_s.push(pass.checkpoint_s);
        recover_s.push(pass.recovery_s);
        sizes = pass.sizes;
        figures.push(pass.layers);
        match &first {
            None => first = Some(pass.report),
            Some(f) => report.check(pass.report == *f, "durable runs of one seed repeat exactly"),
        }
    });
    let (base, deltas, wal, records) = sizes;
    #[allow(clippy::cast_precision_loss)]
    report.note(format!(
        "passes={n} base={:.1}MB deltas={:.2}MB wal={:.2}MB ({records} records) stops_ms={:?}",
        base as f64 / MB,
        deltas as f64 / MB,
        wal as f64 / MB,
        stops.map(SimTime::as_millis)
    ));
    if trace {
        put_medians(report, &figures);
        put_overhead(report, &untraced, &traced);
        zero_unmeasured(report);
    } else {
        put_rate_and_peak(report, &rates, &peaks);
        report.put("checkpoint_s", "s", "lower", median(&ckpt_s), n);
        report.put("recovery_s", "s", "lower", median(&recover_s), n);
    }
}

//! Driving the service tier: set-up with warm-up, closed- and open-loop
//! phases from one submitter and one drainer thread, table swaps, and the
//! per-stream bookkeeping the correctness gate needs.

use crate::gen::Frame;
use crate::stats::{median, Accounting, WINDOWS};
use crate::trace::{SpanLog, NONE};
use crate::workload::{Serve, Workload};
use dvbs2::channel::StreamKey;
use dvbs2::{Modcod, ModcodTable};
use dvbs2_pipeline::{AdmissionPolicy, PipelineConfig};
use dvbs2_service::{
    ServiceConfig, ServiceFrame, ServiceOutput, ServiceStats, ServiceTier, TenantPolicy,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Marks a warm-up frame in the per-stream book.
const WARM: usize = usize::MAX;

/// Per-tenant admission budget: far above what either phase keeps in
/// flight, so budgets never refuse a frame at the workloads' rates.
const TENANT_BUDGET: usize = 96;

/// How long the end of a phase waits for admitted frames before counting
/// the rest as dropped: several times the longest legitimate drain (a full
/// closed-loop window at the waterfall takes ~3 s), short enough that a run
/// with drops still ends within its time limit.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Pause between two polls of the tier's output queue while a frame is out.
const POLL: Duration = Duration::from_micros(100);

/// What a decode produced, as far as the reference check cares: a hash of
/// all `N` hard decisions, iterations and convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sig {
    /// Hash of the full hard-decision word.
    pub bits: u64,
    /// Iterations spent.
    pub iterations: usize,
    /// Whether the decoder converged.
    pub converged: bool,
}

impl Sig {
    /// The signature of one decode.
    pub fn of(bits: &dvbs2::ldpc::BitVec, iterations: usize, converged: bool) -> Sig {
        let mut h = DefaultHasher::new();
        bits.hash(&mut h);
        Sig { bits: h.finish(), iterations, converged }
    }
}

/// Signatures of delivered frames by `(slot, pool index)`, with the number
/// of deliveries each stands for.
pub type Delivered = HashMap<(usize, usize), (Sig, u64)>;

/// Builds the workload's MODCOD table.
pub fn build_table(w: &Workload) -> ModcodTable {
    let modcods: Vec<Modcod> = w.slots.iter().map(|s| s.modcod).collect();
    ModcodTable::build(&modcods).expect("workload MODCODs are defined")
}

struct Sent {
    seq: u64,
    slot: usize,
    idx: usize,
    frame_id: u64,
    due: Instant,
    /// Phase index within the current run.
    phase: usize,
    /// Closed loop: deliveries after this instant fall outside the phase.
    deadline: Instant,
    parent: u64,
}

#[derive(Default)]
struct StreamBook {
    sent: VecDeque<Sent>,
    next_seq: u64,
}

/// Counts admitted frames not yet drained; lets the submitter wait for
/// room and the drainer wait for work.
#[derive(Default)]
struct Gate {
    count: Mutex<usize>,
    changed: Condvar,
}

impl Gate {
    fn add(&self) {
        *self.count.lock().expect("gate lock") += 1;
        self.changed.notify_all();
    }

    fn remove(&self) {
        *self.count.lock().expect("gate lock") -= 1;
        self.changed.notify_all();
    }

    /// Returns the count and resets it to zero.
    fn take(&self) -> usize {
        std::mem::take(&mut *self.count.lock().expect("gate lock"))
    }

    /// Waits until fewer than `limit` frames are out or `until` passes.
    fn wait_below(&self, limit: usize, until: Instant) -> bool {
        let mut count = self.count.lock().expect("gate lock");
        while *count >= limit {
            let now = Instant::now();
            if now >= until {
                return false;
            }
            count = self.changed.wait_timeout(count, until - now).expect("gate lock").0;
        }
        true
    }

    /// Waits until a frame is out (`true`) or `done` is set with none out.
    fn wait_nonzero(&self, done: &AtomicBool) -> bool {
        let mut count = self.count.lock().expect("gate lock");
        while *count == 0 {
            if done.load(Ordering::SeqCst) {
                return false;
            }
            count =
                self.changed.wait_timeout(count, Duration::from_millis(5)).expect("gate lock").0;
        }
        true
    }
}

/// Pulls outputs from `try_next` while admitted frames are undelivered,
/// handing each to `handle` with the instant it arrived and the instant the
/// wait for it began. Returns the time spent waiting once `done` is set and
/// nothing is ready. It never blocks in the source, so an admitted frame
/// the service never delivers cannot hang the run: it stays in the gate's
/// count, to be counted as dropped.
fn pull<T>(
    gate: &Gate,
    done: &AtomicBool,
    mut try_next: impl FnMut() -> Option<T>,
    mut handle: impl FnMut(T, Instant, Instant),
) -> Duration {
    let mut waited = Duration::ZERO;
    let mut since = Instant::now();
    loop {
        let t = Instant::now();
        if !gate.wait_nonzero(done) {
            return waited;
        }
        let Some(out) = try_next() else {
            if done.load(Ordering::SeqCst) {
                return waited;
            }
            std::thread::sleep(POLL);
            waited += t.elapsed();
            continue;
        };
        let now = Instant::now();
        waited += now - t;
        gate.remove();
        handle(out, now, since);
        since = Instant::now();
    }
}

/// Waits up to `timeout` for every admitted frame to be drained, then tells
/// the drainer to stop.
fn settle(gate: &Gate, done: &AtomicBool, timeout: Duration) {
    gate.wait_below(1, Instant::now() + timeout);
    done.store(true, Ordering::SeqCst);
}

/// The open-loop schedule: frames fall due in bursts of `burst` at an
/// average of `rate` frames/s from the start, whatever happened to earlier
/// frames, so a stall charges its wait to every frame due during it
/// instead of shifting the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    period: Duration,
    burst: u64,
    end: Instant,
}

impl Pacer {
    /// A schedule at `rate_hz` in bursts of `burst` from `start` for `secs`.
    pub fn new(start: Instant, rate_hz: f64, burst: u64, secs: f64) -> Self {
        Pacer {
            start,
            period: Duration::from_secs_f64(1.0 / rate_hz),
            burst: burst.max(1),
            end: start + Duration::from_secs_f64(secs),
        }
    }

    /// When frame `i` is due, or `None` past the end.
    pub fn due(&self, i: u64) -> Option<Instant> {
        let due = self.start + self.period.mul_f64((i - i % self.burst) as f64);
        (due < self.end).then_some(due)
    }

    /// Sleeps until `due`; returns how late the caller is then, in ms.
    pub fn wait(&self, due: Instant) -> f64 {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
    }
}

/// A started tier with its tables, frames and books.
pub struct Rig<'a> {
    /// The tier under test.
    pub tier: ServiceTier,
    tables: Vec<ModcodTable>,
    pool: &'a [Vec<Frame>],
    serve: Serve,
    keys: Vec<StreamKey>,
    book: Mutex<Vec<StreamBook>>,
    gate: Gate,
    swaps: Mutex<Vec<Instant>>,
    next_frame_id: AtomicU64,
}

/// One phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Closed loop (a fixed window of outstanding frames) or open loop (a
    /// fixed offered rate).
    pub open: bool,
    /// Length.
    pub secs: f64,
    /// Swap tables once when the phase starts.
    pub swap_at_start: bool,
}

/// What one phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    /// Frames offered.
    pub attempted: u64,
    /// Open-loop refusals (closed-loop refusals are retried).
    pub refused: u64,
    /// Information bits delivered before the phase's deadline, by the
    /// [`WINDOWS`] equal time windows of the phase they were delivered in.
    pub bits_by_window: [u64; WINDOWS],
    /// Phase length, s.
    pub secs: f64,
    /// Open loop: due time to in-order delivery, ms, in due order.
    pub latency_ms: Vec<f64>,
    /// Open loop: how late the generator submitted, ms.
    pub late_ms: Vec<f64>,
    /// Duration of each `submit` call, us.
    pub submit_us: Vec<f64>,
    /// Deliveries within the latency limit.
    pub in_slo: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Delivered frames whose information bits equal the transmitted ones.
    pub info_ok: u64,
}

impl PhaseResult {
    /// Delivered information Mbit/s up to the deadline: the median over
    /// the phase's time windows.
    pub fn info_mbps(&self) -> f64 {
        let window_s = self.secs / WINDOWS as f64;
        let rates: Vec<f64> =
            self.bits_by_window.iter().map(|&bits| bits as f64 / window_s / 1e6).collect();
        median(&rates)
    }
}

/// What a run measured beyond its phases.
#[derive(Debug)]
pub struct RunResult {
    /// Per phase, in order.
    pub phases: Vec<PhaseResult>,
    /// Correctness accounting.
    pub acc: Accounting,
    /// `reconfigure()` durations, ms.
    pub reconfigure_ms: Vec<f64>,
    /// Swap to first output of the new epoch, ms.
    pub swap_gap_ms: Vec<f64>,
    /// Share of the drainer's time spent waiting for an output.
    pub drain_wait_frac: f64,
    /// `bbframe()` demux durations, us.
    pub bbframe_us: Vec<f64>,
    /// Signatures of every delivered frame.
    pub delivered: Delivered,
}

/// What the drainer saw.
struct Drained {
    phases: Vec<PhaseResult>,
    acc: Accounting,
    swap_gap_ms: Vec<f64>,
    wait_frac: f64,
    bbframe_us: Vec<f64>,
    delivered: Delivered,
}

/// Starts a tier for `w` and warms it: one strong all-zero frame per slot
/// on every stream, so every shard builds its decoders before the clock.
/// Returns the rig and its set-up time in seconds.
pub fn setup<'a>(
    w: &Workload,
    serve: Serve,
    pool: &'a [Vec<Frame>],
    with_swap_table: bool,
    log: &mut SpanLog,
) -> (Rig<'a>, f64) {
    let started = Instant::now();
    let root = log.open("bench.setup", NONE);
    let mut tables = vec![log.time("dvbs2.table_build", root, NONE, || build_table(w))];
    if with_swap_table {
        tables.push(log.time("dvbs2.table_build", root, NONE, || build_table(w)));
    }
    let keys: Vec<StreamKey> = (0..serve.tenants)
        .flat_map(|t| (0..serve.streams_per_tenant).map(move |s| StreamKey::new(t, s)))
        .collect();
    let config = ServiceConfig {
        shards: serve.shards,
        pipeline: PipelineConfig {
            workers: serve.workers,
            admission: AdmissionPolicy::Off,
            ..PipelineConfig::default()
        },
        tenants: (0..serve.tenants)
            .map(|t| {
                if t == 0 && serve.latency_bound_tenant {
                    TenantPolicy::latency_bound(t, TENANT_BUDGET)
                } else {
                    TenantPolicy::throughput_bound(t, TENANT_BUDGET)
                }
            })
            .collect(),
        ..ServiceConfig::default()
    };
    let tier =
        log.time("service.start", root, NONE, || ServiceTier::start(tables[0].clone(), config));
    let rig = Rig {
        tier,
        book: Mutex::new((0..keys.len()).map(|_| StreamBook::default()).collect()),
        tables,
        pool,
        serve,
        keys,
        gate: Gate::default(),
        swaps: Mutex::new(Vec::new()),
        next_frame_id: AtomicU64::new(0),
    };
    let slots = w.slots.len();
    let mut warm = 0u64;
    for (si, &key) in rig.keys.iter().enumerate() {
        for slot in 0..slots {
            let n = rig.tables[0].entry(slot).frame_len();
            let now = Instant::now();
            let sent = Sent {
                seq: 0,
                slot,
                idx: WARM,
                frame_id: NONE,
                due: now,
                phase: 0,
                deadline: now,
                parent: root,
            };
            rig.push_sent(si, sent);
            let mut frame = ServiceFrame { key, modcod: slot, llrs: vec![6.0; n] };
            loop {
                match log.time("service.submit", root, NONE, || rig.tier.submit(frame)) {
                    Ok(_) => break,
                    Err(err) => {
                        frame = err.into_frame();
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
            warm += 1;
        }
    }
    let mut warm_failures = 0;
    let until = Instant::now() + DRAIN_TIMEOUT;
    for _ in 0..warm {
        let out = log
            .time("service.try_next_output", root, NONE, || rig.next_until(until))
            .expect("the tier delivers its warm-up frames");
        let si = rig.stream_index(out.key);
        let sent = rig.book.lock().expect("book lock")[si].sent.pop_front();
        if sent.map(|s| s.seq) != Some(out.stream_seq) {
            warm_failures += 1;
        }
    }
    assert_eq!(warm_failures, 0, "warm-up frames were delivered out of stream order");
    log.close(root);
    (rig, started.elapsed().as_secs_f64())
}

impl Rig<'_> {
    /// Polls for the next output until `until`.
    fn next_until(&self, until: Instant) -> Option<ServiceOutput> {
        loop {
            if let Some(out) = self.tier.try_next_output() {
                return Some(out);
            }
            if Instant::now() >= until {
                return None;
            }
            std::thread::sleep(POLL);
        }
    }

    fn stream_index(&self, key: StreamKey) -> usize {
        (key.tenant * self.serve.streams_per_tenant + key.stream) as usize
    }

    fn push_sent(&self, si: usize, sent: Sent) {
        let mut book = self.book.lock().expect("book lock");
        let stream = &mut book[si];
        stream.sent.push_back(Sent { seq: stream.next_seq, ..sent });
        stream.next_seq += 1;
    }

    fn pop_unsent(&self, si: usize) {
        let mut book = self.book.lock().expect("book lock");
        book[si].sent.pop_back();
        book[si].next_seq -= 1;
    }

    /// Frame `i` of the sequence: slots and streams round robin, pool
    /// entries in order.
    fn frame_at(&self, i: u64) -> (usize, usize, usize) {
        let slots = self.pool.len() as u64;
        let slot = (i % slots) as usize;
        let idx = ((i / slots) % self.pool[slot].len() as u64) as usize;
        let stream = (i % self.keys.len() as u64) as usize;
        (slot, idx, stream)
    }

    fn swap(&self, log: &mut SpanLog, parent: u64, reconfigure_ms: &mut Vec<f64>) {
        let epoch = self.tier.epoch() as usize + 1;
        let table = self.tables[epoch % self.tables.len()].clone();
        let started = Instant::now();
        self.swaps.lock().expect("swap lock").push(started);
        log.time("service.reconfigure", parent, NONE, || self.tier.reconfigure(table));
        reconfigure_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    /// Runs `phases` back to back with one submitter and one drainer
    /// thread, then waits for every admitted frame.
    pub fn run(&self, phases: &[Phase], logs: (&mut SpanLog, &mut SpanLog)) -> RunResult {
        let done = AtomicBool::new(false);
        let (sub_log, drain_log) = logs;
        let ((mut phase_results, reconfigure_ms), drained) = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| self.drain(phases, &done, drain_log));
            let submitted = self.submit_phases(phases, sub_log);
            settle(&self.gate, &done, DRAIN_TIMEOUT);
            (submitted, drainer.join().expect("drainer panicked"))
        });
        let mut acc = drained.acc;
        acc.dropped += self.gate.take() as u64;
        for (p, d) in phase_results.iter_mut().zip(drained.phases) {
            p.bits_by_window = d.bits_by_window;
            p.latency_ms = d.latency_ms;
            p.in_slo = d.in_slo;
            p.delivered = d.delivered;
            p.info_ok = d.info_ok;
            acc.attempted += p.attempted;
            acc.refused += p.refused;
        }
        RunResult {
            phases: phase_results,
            acc,
            reconfigure_ms,
            swap_gap_ms: drained.swap_gap_ms,
            drain_wait_frac: drained.wait_frac,
            bbframe_us: drained.bbframe_us,
            delivered: drained.delivered,
        }
    }

    fn submit_phases(&self, phases: &[Phase], log: &mut SpanLog) -> (Vec<PhaseResult>, Vec<f64>) {
        let mut results = Vec::new();
        let mut reconfigure_ms = Vec::new();
        let mut admitted_total = 0u64;
        for (p, phase) in phases.iter().enumerate() {
            let root =
                log.open(if phase.open { "bench.open_loop" } else { "bench.closed_loop" }, NONE);
            if phase.swap_at_start {
                self.swap(log, root, &mut reconfigure_ms);
            }
            let mut r = PhaseResult { secs: phase.secs, ..PhaseResult::default() };
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(phase.secs);
            let pacer = Pacer::new(start, self.serve.open_rate_hz, self.serve.burst, phase.secs);
            let mut i = 0u64;
            loop {
                let due = if phase.open {
                    let Some(due) = pacer.due(i) else { break };
                    r.late_ms.push(pacer.wait(due));
                    due
                } else {
                    if !self.gate.wait_below(self.serve.window, end) {
                        break;
                    }
                    Instant::now()
                };
                let (slot, idx, si) = self.frame_at(i);
                i += 1;
                r.attempted += 1;
                let frame_id = self.next_frame_id.fetch_add(1, Ordering::Relaxed);
                let key = self.keys[si];
                let mut frame =
                    ServiceFrame { key, modcod: slot, llrs: self.pool[slot][idx].llrs.clone() };
                loop {
                    let sent = Sent {
                        seq: 0,
                        slot,
                        idx,
                        frame_id,
                        due,
                        phase: p,
                        deadline: end,
                        parent: root,
                    };
                    self.push_sent(si, sent);
                    let t = Instant::now();
                    let outcome =
                        log.time("service.submit", root, frame_id, || self.tier.submit(frame));
                    r.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    match outcome {
                        Ok(_) => {
                            self.gate.add();
                            admitted_total += 1;
                            break;
                        }
                        Err(err) => {
                            self.pop_unsent(si);
                            if phase.open {
                                r.refused += 1;
                                break;
                            }
                            frame = err.into_frame();
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                }
                if let Some(every) = self.serve.swap_every {
                    if admitted_total.is_multiple_of(every) {
                        self.swap(log, root, &mut reconfigure_ms);
                    }
                }
            }
            // Every phase starts from an empty service.
            self.gate.wait_below(1, Instant::now() + DRAIN_TIMEOUT);
            log.close(root);
            results.push(r);
        }
        (results, reconfigure_ms)
    }

    fn drain(&self, phases: &[Phase], done: &AtomicBool, log: &mut SpanLog) -> Drained {
        let mut results: Vec<PhaseResult> = vec![PhaseResult::default(); phases.len()];
        let mut acc = Accounting::default();
        let mut swap_gap_ms = Vec::new();
        let mut bbframe_us = Vec::new();
        let mut delivered = Delivered::new();
        let mut last_epoch = self.tier.epoch();
        let started = Instant::now();
        let limit_ms = self.serve.latency_limit_ms;
        let mut latencies: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); phases.len()];
        let handle = |out: ServiceOutput, now: Instant, since: Instant| {
            let si = self.stream_index(out.key);
            let sent = self.book.lock().expect("book lock")[si].sent.pop_front();
            let Some(sent) = sent.filter(|s| s.seq == out.stream_seq) else {
                acc.out_of_order += 1;
                return;
            };
            log.record("service.try_next_output", sent.parent, sent.frame_id, since);
            if out.epoch > last_epoch {
                last_epoch = out.epoch;
                if let Some(&at) = self.swaps.lock().expect("swap lock").get(out.epoch as usize - 1)
                {
                    swap_gap_ms.push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
                }
            }
            if sent.idx == WARM {
                return;
            }
            let truth = &self.pool[sent.slot][sent.idx];
            let decoded = &out.decoded;
            let sig = Sig::of(&decoded.bits, decoded.iterations, decoded.converged);
            let entry = delivered.entry((sent.slot, sent.idx)).or_insert((sig, 0));
            entry.1 += 1;
            if entry.0 != sig {
                acc.mismatched += 1;
            }
            let info_ok = truth.info_ok(&decoded.bits, decoded.info_len);
            let t = Instant::now();
            let demux = log.time("dvbs2.bbframe", sent.parent, sent.frame_id, || out.bbframe());
            bbframe_us.push(t.elapsed().as_secs_f64() * 1e6);
            if info_ok && !matches!(&demux, Ok((_, payload)) if *payload == truth.payload) {
                acc.mismatched += 1;
            }
            let r = &mut results[sent.phase];
            r.delivered += 1;
            r.info_ok += u64::from(info_ok);
            let phase = &phases[sent.phase];
            if phase.open {
                let ms = now.saturating_duration_since(sent.due).as_secs_f64() * 1e3;
                latencies[sent.phase].push((sent.due, ms));
                r.in_slo += u64::from(ms <= limit_ms);
            } else if now <= sent.deadline {
                let elapsed = 1.0 - (sent.deadline - now).as_secs_f64() / phase.secs;
                let w = ((elapsed * WINDOWS as f64) as usize).min(WINDOWS - 1);
                r.bits_by_window[w] += decoded.info_len as u64;
            }
        };
        let waited = pull(&self.gate, done, || self.tier.try_next_output(), handle);
        for (r, mut by_due) in results.iter_mut().zip(latencies) {
            by_due.sort_by_key(|&(due, _)| due);
            r.latency_ms = by_due.into_iter().map(|(_, ms)| ms).collect();
        }
        let total = started.elapsed().as_secs_f64();
        let wait_frac = if total > 0.0 { waited.as_secs_f64() / total } else { 0.0 };
        Drained { phases: results, acc, swap_gap_ms, wait_frac, bbframe_us, delivered }
    }

    /// Stops the tier and returns its final counters.
    pub fn finish(self) -> ServiceStats {
        self.tier.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_latency_charges_a_generator_stall_to_every_frame_due_during_it() {
        // 100 frames/s; the generator stalls for 50 ms before frame 0 and
        // the "service" answers instantly.
        let pacer = Pacer::new(Instant::now(), 100.0, 1, 0.2);
        std::thread::sleep(Duration::from_millis(50));
        let mut latency_ms = Vec::new();
        let mut late_ms = Vec::new();
        let mut i = 0;
        while let Some(due) = pacer.due(i) {
            late_ms.push(pacer.wait(due));
            latency_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            i += 1;
        }
        assert_eq!(latency_ms.len(), 20, "the schedule is not shifted by the stall");
        // Frames 0..4 were due during the stall: each waited out its rest.
        for (k, &ms) in latency_ms.iter().enumerate().take(5) {
            assert!(ms >= 50.0 - 10.0 * k as f64 - 0.5, "frame {k}: {ms} ms");
            assert!(late_ms[k] >= 50.0 - 10.0 * k as f64 - 0.5, "frame {k} late {}", late_ms[k]);
        }
        // Measured from submission instead, the stall would vanish.
        assert!(latency_ms[0] > 45.0);
        // Frames due after the stall are on time again.
        assert!(latency_ms[10..].iter().all(|&ms| ms < 9.0), "{latency_ms:?}");
    }

    #[test]
    fn an_admitted_frame_that_never_arrives_ends_the_run_as_dropped() {
        let gate = Gate::default();
        gate.add();
        gate.add();
        let done = AtomicBool::new(false);
        // Two frames admitted; the source only ever delivers one.
        let mut ready = vec![7u32];
        let started = Instant::now();
        let got = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut got = Vec::new();
                pull(&gate, &done, || ready.pop(), |out, _, _| got.push(out));
                got
            });
            settle(&gate, &done, Duration::from_millis(100));
            drainer.join().expect("drainer")
        });
        assert_eq!(got, [7]);
        assert_eq!(gate.take(), 1, "the undelivered frame is left to count as dropped");
        assert_eq!(gate.take(), 0);
        assert!(started.elapsed() < Duration::from_secs(5), "the drainer stopped");
    }

    #[test]
    fn the_drainer_takes_every_frame_and_stops_once_done() {
        let gate = Gate::default();
        let done = AtomicBool::new(false);
        let queue = Mutex::new(VecDeque::new());
        let got = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut got = Vec::new();
                pull(
                    &gate,
                    &done,
                    || queue.lock().expect("queue").pop_front(),
                    |out, _, _| got.push(out),
                );
                got
            });
            for i in 0..50u32 {
                gate.add();
                queue.lock().expect("queue").push_back(i);
                if i % 10 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            settle(&gate, &done, Duration::from_secs(10));
            drainer.join().expect("drainer")
        });
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(gate.take(), 0);
    }

    #[test]
    fn the_schedule_keeps_its_rate_and_ends_at_its_length() {
        let start = Instant::now();
        let pacer = Pacer::new(start, 4.0, 1, 1.0);
        assert_eq!(pacer.due(0), Some(start));
        assert_eq!(pacer.due(3), Some(start + Duration::from_millis(750)));
        assert_eq!(pacer.due(4), None);
        // Bursts of 4 at 8 frames/s: four frames every 500 ms.
        let bursts = Pacer::new(start, 8.0, 4, 1.0);
        assert_eq!(bursts.due(3), Some(start));
        assert_eq!(bursts.due(4), Some(start + Duration::from_millis(500)));
        assert_eq!(bursts.due(7), Some(start + Duration::from_millis(500)));
        assert_eq!(bursts.due(8), None);
    }
}

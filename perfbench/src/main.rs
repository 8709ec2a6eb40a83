//! The repository benchmark: one seeded frame set served end to end, and,
//! in a traced run, decoded through every layer on its own.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! An untraced run measures the end-to-end metrics of one workload; a
//! traced run records spans around every call into a layer and reports the
//! per-layer metrics (see README.md for which end-to-end metric each should
//! move). Either way the last line on stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a full report with the
//! run-time `cpu` block goes to `DIR` (default `.bench_out` under the
//! current directory), and the process exits non-zero when a correctness
//! check failed.

mod gen;
mod hw;
mod ladder;
mod serve;
mod stats;
mod trace;
mod workload;

use stats::{median, nearest_rank, proc_status_mb, quote, Accounting, Metrics};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Span, SpanLog};
use workload::{Workload, CLOSED_SHARE};

/// The end-to-end metrics, in BENCHMARK.json order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "info_mbps",
    "latency_p50_ms",
    "latency_p95_ms",
    "in_slo_frac",
    "info_ok_frac",
    "peak_rss_mb",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// How late the open-loop generator may run (p95, ms) before a run's
/// latencies are not valid. Latency runs from the due time, so lateness is
/// charged to the frames, but a generator that falls behind offers a
/// different load than the schedule.
const LATE_LIMIT_MS: f64 = 20.0;

/// Samples that put ten beyond a nearest-rank p95: the least a latency
/// window holds.
const P95_SAMPLES: usize = 200;

/// Layers whose self time a traced run reports.
const LAYERS: [&str; 7] = ["bench", "ldpc", "dvbs2", "decoder", "pipeline", "service", "hardware"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perfbench: {problem}\n\
         usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out,
    }
}

/// What a run hands to the reporter.
struct Outcome {
    acc: Accounting,
    /// Why the run's latencies are not valid, if they are not.
    invalid: Vec<String>,
    /// Every metric measured, reported ones and extras.
    metrics: Metrics,
    spans: Vec<Span>,
}

fn main() {
    let args = parse_args();
    let origin = Instant::now();
    let outcome = if args.trace { traced_run(&args, origin) } else { serve_run(&args, origin) };
    let names: Vec<String> = if args.trace {
        per_layer_names(args.workload.slots.len())
    } else {
        END_TO_END.iter().map(|s| (*s).to_owned()).collect()
    };
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let reported = outcome.metrics.select(&names).unwrap_or_else(|e| panic!("{e}"));
    if let Err(e) = write_report(&args, &outcome) {
        eprintln!("perfbench: could not write the report under {}: {e}", args.out.display());
    }
    println!("{}", stats::result_line(&outcome.acc, &reported));
    if !outcome.acc.correct() {
        eprintln!("perfbench: correctness violations: {:?}", outcome.acc);
    }
    for reason in &outcome.invalid {
        eprintln!("perfbench: invalid run: {reason}");
    }
    if !outcome.acc.correct() || !outcome.invalid.is_empty() {
        std::process::exit(1);
    }
}

/// The per-layer metric names a traced run reports.
fn per_layer_names(slots: usize) -> Vec<String> {
    let mut names: Vec<String> = [
        "ldpc.build_ms",
        "dvbs2.table_build_ms",
        "dvbs2.bbframe_us",
        "decoder.info_mbps",
        "decoder.batchable_slots",
        "pipeline.info_mbps",
        "pipeline.vs_decoder",
        "pipeline.decode_busy_frac",
        "pipeline.ingress_watermark",
        "pipeline.reorder_watermark",
        "service.info_mbps",
        "service.vs_pipeline",
        "service.submit_us_p50",
        "service.submit_us_p99",
        "service.drain_wait_frac",
        "service.refused",
        "service.migrations",
        "service.reconfigure_ms",
        "service.swap_gap_ms",
        "service.fer",
        "hardware.rom_build_ms",
        "hardware.core_ms_per_frame",
        "hardware.golden_ms_per_frame",
        "hardware.fabric_ms_per_frame",
        "hardware.cycles_per_frame",
        "hardware.io_cycles",
        "hardware.info_phase_cycles",
        "hardware.check_phase_cycles",
        "hardware.max_buffer",
        "hardware.fabric_bus_util",
        "hardware.fabric_stall_cycles",
        "hardware.sim_mcycles_per_s",
        "hardware.sim_info_mbps",
        "hardware.eq8_info_mbps",
        "bench.loadgen_late_p95_ms",
        "bench.trace_overhead_frac",
        "bench.latency_samples",
        "bench.failed_frac",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for s in 0..slots {
        for metric in [
            "dvbs2.make_decoder_ms",
            "decoder.ms_per_frame",
            "decoder.iterations",
            "decoder.us_per_iteration",
            "decoder.fer",
        ] {
            names.push(format!("{metric}.slot{s}"));
        }
    }
    names.extend(LAYERS.iter().map(|l| format!("self_ms.{l}")));
    names
}

fn pool_for(w: &Workload, seed: u64) -> (dvbs2::ModcodTable, Vec<Vec<gen::Frame>>) {
    let table = serve::build_table(w);
    let ebn0: Vec<f64> = w.slots.iter().map(|s| s.ebn0_db).collect();
    let pool = gen::pool(&table, &ebn0, seed, w.pool);
    (table, pool)
}

fn phases(secs: f64, swap_at_open: bool) -> [serve::Phase; 2] {
    let closed = secs * CLOSED_SHARE;
    [
        serve::Phase { open: false, secs: closed, swap_at_start: false },
        serve::Phase { open: true, secs: secs - closed, swap_at_start: swap_at_open },
    ]
}

/// Latency percentiles (medians over windows, see [`stats::windowed_rank`]),
/// SLO share and sample count of an open-loop phase.
/// Returns why the latencies are not valid: too few samples for ten to lie
/// beyond p95, or a generator that ran late.
fn latency_metrics(p: &serve::PhaseResult, m: &mut Metrics) -> Vec<String> {
    let late_p95 = nearest_rank(&p.late_ms, 0.95).unwrap_or(0.0);
    let ms = &p.latency_ms;
    m.set("latency_p50_ms", stats::windowed_rank(ms, 0.5, P95_SAMPLES).unwrap_or(0.0), "ms");
    m.set("latency_p95_ms", stats::windowed_rank(ms, 0.95, P95_SAMPLES).unwrap_or(0.0), "ms");
    m.set("in_slo_frac", p.in_slo as f64 / p.attempted.max(1) as f64, "frac");
    m.set("bench.latency_samples", p.latency_ms.len() as f64, "count");
    m.set("bench.loadgen_late_p95_ms", late_p95, "ms");
    let mut invalid = Vec::new();
    if !stats::supports(p.latency_ms.len(), 0.95) {
        invalid.push(format!(
            "{} latency samples leave fewer than ten beyond p95",
            p.latency_ms.len()
        ));
    }
    if late_p95 > LATE_LIMIT_MS {
        invalid.push(format!(
            "the load generator ran {late_p95:.1} ms late at p95 (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    invalid
}

fn serve_run(args: &Args, origin: Instant) -> Outcome {
    let w = &args.workload;
    let serve = w.serve;
    let (table, pool) = pool_for(w, args.seed);
    // The frame pool is the benchmark's, not the service's: memory is
    // counted from here on.
    let rss_before_mb = proc_status_mb("VmRSS");
    let mut off = SpanLog::new(false, origin, 0);
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = rig.take() {
            serve::Rig::finish(previous);
        }
        let (r, s) = serve::setup(w, serve, &pool, serve.swap_every.is_some(), &mut off);
        setup_s.push(s);
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");
    let (mut a, mut b) = (SpanLog::new(false, origin, 1), SpanLog::new(false, origin, 2));
    let run = rig.run(&phases(args.seconds, false), (&mut a, &mut b));
    rig.finish();
    let mut acc = run.acc;
    acc.mismatched += ladder::verify_reference(&table, &pool, &run.delivered, &HashMap::new());
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    m.set("info_mbps", run.phases[0].info_mbps(), "Mbit/s");
    let invalid = latency_metrics(&run.phases[1], &mut m);
    let (ok, delivered): (u64, u64) =
        run.phases.iter().fold((0, 0), |(o, d), p| (o + p.info_ok, d + p.delivered));
    m.set("info_ok_frac", ok as f64 / acc.attempted.max(1) as f64, "frac");
    m.set("fer", 1.0 - ok as f64 / delivered.max(1) as f64, "frac");
    m.set("failed_frac", acc.failed_frac(), "frac");
    m.set("peak_rss_mb", proc_status_mb("VmHWM") - rss_before_mb, "MB");
    Outcome { acc, invalid, metrics: m, spans: Vec::new() }
}

fn traced_run(args: &Args, origin: Instant) -> Outcome {
    let w = &args.workload;
    let mut m = Metrics::default();
    let mut acc = Accounting::default();
    let mut main_log = SpanLog::new(true, origin, 0);
    let (mut a, mut b) = (SpanLog::new(true, origin, 1), SpanLog::new(true, origin, 2));

    let table = ladder::build_rung(w, &mut main_log, &mut m);
    let (_, pool) = pool_for(w, args.seed);
    let frames = ladder::rung_frames(&pool, w.rung_frames);
    let reference = ladder::decoder_rung(&table, &pool, &frames, &mut main_log, &mut m);
    acc.attempted += 2 * frames.len() as u64;
    acc.mismatched +=
        ladder::pipeline_rung(&table, &pool, &frames, &reference, (&mut a, &mut b), &mut m);

    // The service rung: the workload's own phases, after an untraced closed
    // loop of the same length whose throughput gives the tracing overhead.
    // A workload that does not swap tables swaps once, when its open loop
    // starts, so the swap cost is measured on every table.
    let serve = w.serve;
    let (rig, _) = serve::setup(w, serve, &pool, true, &mut main_log);
    let after_setup = rig.tier.stats();
    let [closed, open] = phases(args.seconds, serve.swap_every.is_none());
    let (mut off_a, mut off_b) = (SpanLog::new(false, origin, 3), SpanLog::new(false, origin, 4));
    let untraced = rig.run(&[closed], (&mut off_a, &mut off_b));
    let traced = rig.run(&[closed, open], (&mut a, &mut b));
    let stats = rig.finish();
    let mut delivered = untraced.delivered.clone();
    for (key, (sig, n)) in &traced.delivered {
        let e = delivered.entry(*key).or_insert((*sig, 0));
        e.1 += n;
        if e.0 != *sig {
            acc.mismatched += n;
        }
    }
    for run in [&untraced, &traced] {
        acc.attempted += run.acc.attempted;
        acc.refused += run.acc.refused;
        acc.dropped += run.acc.dropped;
        acc.out_of_order += run.acc.out_of_order;
        acc.mismatched += run.acc.mismatched;
    }
    acc.mismatched += ladder::verify_reference(&table, &pool, &delivered, &reference);

    let service_mbps = untraced.phases[0].info_mbps();
    m.set("service.info_mbps", service_mbps, "Mbit/s");
    let pipeline_mbps = m.get("pipeline.info_mbps").expect("the pipeline rung ran");
    m.set("service.vs_pipeline", service_mbps / pipeline_mbps, "ratio");
    let submit_us: Vec<f64> =
        traced.phases.iter().flat_map(|p| p.submit_us.iter().copied()).collect();
    m.set("service.submit_us_p50", median(&submit_us), "us");
    m.set("service.submit_us_p99", nearest_rank(&submit_us, 0.99).unwrap_or(0.0), "us");
    m.set("service.drain_wait_frac", traced.drain_wait_frac, "frac");
    // Refusals during the warm-up (which retries them) are set-up, not
    // service behaviour under the workload.
    let refusals = |s: &dvbs2_service::ServiceStats| {
        s.rejected_backpressure + s.rejected_budget + s.shed_latency
    };
    m.set("service.refused", (refusals(&stats) - refusals(&after_setup)) as f64, "count");
    m.set("service.migrations", (stats.migrations - after_setup.migrations) as f64, "count");
    m.set("service.reconfigure_ms", median(&traced.reconfigure_ms), "ms");
    m.set("service.swap_gap_ms", median(&traced.swap_gap_ms), "ms");
    let (ok, got) = [&untraced, &traced]
        .iter()
        .flat_map(|r| r.phases.iter())
        .fold((0u64, 0u64), |(o, d), p| (o + p.info_ok, d + p.delivered));
    m.set("service.fer", 1.0 - ok as f64 / got.max(1) as f64, "frac");
    m.set("dvbs2.bbframe_us", median(&traced.bbframe_us), "us");
    let invalid = latency_metrics(&traced.phases[1], &mut m);
    m.set("bench.trace_overhead_frac", service_mbps / traced.phases[0].info_mbps() - 1.0, "frac");

    // The hardware rung: the paper's Normal R1/2 point on the core and the
    // golden model, and one batch of slot 0 on the fabric.
    let mut hw = hw::setup(w, args.seed, &mut main_log, &mut m);
    let r = hw.run(&pool, &mut main_log);
    acc.attempted += r.acc.attempted;
    acc.mismatched += r.acc.mismatched + hw.verify_fabric(&pool, &r);
    hw.layer_metrics(&r, &mut m);
    m.set("bench.failed_frac", acc.failed_frac(), "frac");

    let mut spans = main_log.into_spans();
    spans.extend(a.into_spans());
    spans.extend(b.into_spans());
    let own = trace::self_ms_by_layer(&spans);
    for layer in LAYERS {
        m.set(format!("self_ms.{layer}"), own.get(layer).copied().unwrap_or(0.0), "ms");
    }
    Outcome { acc, invalid, metrics: m, spans }
}

/// Writes the full report (and, for a traced run, the spans) under the
/// output directory, which is resolved against the current directory at
/// run time.
fn write_report(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!("{}-seed{}-trace{}", args.workload.name, args.seed, u8::from(args.trace));
    let acc = &outcome.acc;
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"accounting\": {{\"refused\": {}, \
         \"dropped\": {}, \"out_of_order\": {}, \"mismatched\": {}}}, \"metrics\": {}}}\n",
        quote(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::cpu_block(),
        acc.correct(),
        acc.attempted,
        acc.failed(),
        acc.refused,
        acc.dropped,
        acc.out_of_order,
        acc.mismatched,
        outcome.metrics.to_json()
    );
    std::fs::write(args.out.join(format!("{stem}.json")), report)?;
    if args.trace {
        std::fs::write(args.out.join(format!("{stem}-spans.tsv")), trace::to_tsv(&outcome.spans))?;
    }
    Ok(())
}

//! The single-layer rungs a traced run adds, all on the workload's own
//! frames: code and table construction, the single-threaded decoder (which
//! is also the reference the gate compares deliveries with) and the bare
//! pipeline.

use crate::gen::Frame;
use crate::serve::{build_table, Delivered, Sig};
use crate::stats::{median, Metrics};
use crate::trace::{SpanLog, NONE};
use crate::workload::{Workload, CORES};
use dvbs2::decoder::DecodeResult;
use dvbs2::ldpc::DvbS2Code;
use dvbs2::ModcodTable;
use dvbs2_pipeline::{AdmissionPolicy, DecodePipeline, PipelineConfig, SoftFrame};
use std::collections::HashMap;
use std::time::Instant;

/// Repetitions of each construction measurement (the median is reported).
const BUILD_REPS: usize = 5;

/// Times code construction (`ldpc`), table construction (`dvbs2`) and a
/// decoder build per slot.
pub fn build_rung(w: &Workload, log: &mut SpanLog, m: &mut Metrics) -> ModcodTable {
    let root = log.open("bench.build_rung", NONE);
    let mut ldpc = Vec::new();
    let mut table_ms = Vec::new();
    let mut table = None;
    for _ in 0..BUILD_REPS {
        let t = Instant::now();
        for s in &w.slots {
            log.time("ldpc.build", root, NONE, || {
                let code = DvbS2Code::new(s.modcod.rate, s.modcod.frame).expect("defined code");
                (code.tanner_graph(), code.encoder().expect("encodable code"))
            });
        }
        ldpc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        table = Some(log.time("dvbs2.table_build", root, NONE, || build_table(w)));
        table_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let table = table.expect("at least one repetition");
    m.set("ldpc.build_ms", median(&ldpc), "ms");
    m.set("dvbs2.table_build_ms", median(&table_ms), "ms");
    for (slot, entry) in table.iter().enumerate() {
        let times: Vec<f64> = (0..BUILD_REPS)
            .map(|_| {
                let t = Instant::now();
                let decoder = log.time("dvbs2.make_decoder", root, NONE, || entry.make_decoder());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(decoder);
                ms
            })
            .collect();
        m.set(format!("dvbs2.make_decoder_ms.slot{slot}"), median(&times), "ms");
    }
    let batchable = table.iter().filter(|e| e.make_batch_decoder(8).is_some()).count();
    m.set("decoder.batchable_slots", batchable as f64, "count");
    log.close(root);
    table
}

/// The frames the decoder and pipeline rungs use: the first `per_slot` of
/// each slot's pool, round robin over slots.
pub fn rung_frames(pool: &[Vec<Frame>], per_slot: usize) -> Vec<(usize, usize)> {
    (0..per_slot).flat_map(|i| (0..pool.len()).map(move |s| (s, i))).collect()
}

/// Decodes `frames` one by one on this thread with each slot's served
/// decoder. Returns the signatures (the reference for the gate).
pub fn decoder_rung(
    table: &ModcodTable,
    pool: &[Vec<Frame>],
    frames: &[(usize, usize)],
    log: &mut SpanLog,
    m: &mut Metrics,
) -> HashMap<(usize, usize), Sig> {
    let root = log.open("bench.decoder_rung", NONE);
    let mut decoders: Vec<_> = table.iter().map(|e| e.make_decoder()).collect();
    let slots = table.len();
    let (mut ns, mut iters, mut errs, mut count) =
        (vec![0u64; slots], vec![0usize; slots], vec![0usize; slots], vec![0usize; slots]);
    let mut bits = 0u64;
    let mut sigs = HashMap::new();
    let mut out = DecodeResult::default();
    for (n, &(s, i)) in frames.iter().enumerate() {
        let frame = &pool[s][i];
        let t = Instant::now();
        log.time("decoder.decode_into", root, n as u64, || {
            decoders[s].decode_into(&frame.llrs, &mut out)
        });
        ns[s] += t.elapsed().as_nanos() as u64;
        iters[s] += out.iterations;
        count[s] += 1;
        let k = table.entry(s).info_len();
        errs[s] += usize::from(out.info_bit_errors(&frame.codeword, k) > 0);
        bits += k as u64;
        sigs.insert((s, i), Sig::of(&out.bits, out.iterations, out.converged));
    }
    for s in 0..slots {
        let n = count[s].max(1) as f64;
        m.set(format!("decoder.ms_per_frame.slot{s}"), ns[s] as f64 / 1e6 / n, "ms");
        m.set(format!("decoder.iterations.slot{s}"), iters[s] as f64 / n, "count");
        m.set(
            format!("decoder.us_per_iteration.slot{s}"),
            ns[s] as f64 / 1e3 / iters[s].max(1) as f64,
            "us",
        );
        m.set(format!("decoder.fer.slot{s}"), errs[s] as f64 / n, "frac");
    }
    let total_s = ns.iter().sum::<u64>() as f64 / 1e9;
    m.set("decoder.info_mbps", bits as f64 / total_s / 1e6, "Mbit/s");
    log.close(root);
    sigs
}

/// Runs `frames` (twice over) through a bare [`DecodePipeline`] with one
/// worker per core, from one submitter and one drainer thread. Returns the
/// number of outputs that differ from `reference`.
pub fn pipeline_rung(
    table: &ModcodTable,
    pool: &[Vec<Frame>],
    frames: &[(usize, usize)],
    reference: &HashMap<(usize, usize), Sig>,
    logs: (&mut SpanLog, &mut SpanLog),
    m: &mut Metrics,
) -> u64 {
    let (sub_log, drain_log) = logs;
    let root = sub_log.open("bench.pipeline_rung", NONE);
    let config = PipelineConfig {
        workers: CORES,
        admission: AdmissionPolicy::Off,
        ..PipelineConfig::default()
    };
    let pipeline =
        sub_log.time("pipeline.start", root, NONE, || DecodePipeline::start(table.clone(), config));
    let order: Vec<(usize, usize)> = frames.iter().chain(frames).copied().collect();
    let started = Instant::now();
    let (bits, mismatched, wall) = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let (mut bits, mut mismatched) = (0u64, 0u64);
            for (n, key) in order.iter().enumerate() {
                let t = Instant::now();
                let Some(out) = pipeline.next_decoded() else { break };
                drain_log.record("pipeline.next_decoded", root, out.stream_index, t);
                let sig = Sig::of(&out.bits, out.iterations, out.converged);
                if out.stream_index != n as u64 || reference.get(key) != Some(&sig) {
                    mismatched += 1;
                }
                bits += out.info_len as u64;
            }
            (bits, mismatched, started.elapsed().as_secs_f64())
        });
        for (n, &(s, i)) in order.iter().enumerate() {
            let frame =
                SoftFrame { modcod: s, stream_index: n as u64, llrs: pool[s][i].llrs.clone() };
            sub_log
                .time("pipeline.submit", root, n as u64, || pipeline.submit(frame))
                .expect("the pipeline admits every valid frame");
        }
        drainer.join().expect("pipeline drainer panicked")
    });
    let stats = sub_log.time("pipeline.finish", root, NONE, || pipeline.finish());
    sub_log.close(root);
    let mbps = bits as f64 / wall / 1e6;
    m.set("pipeline.info_mbps", mbps, "Mbit/s");
    let single = m.get("decoder.info_mbps").expect("the decoder rung runs first");
    m.set("pipeline.vs_decoder", mbps / (CORES as f64 * single), "ratio");
    m.set(
        "pipeline.decode_busy_frac",
        stats.decode_ns as f64 / 1e9 / (CORES as f64 * wall),
        "frac",
    );
    m.set("pipeline.ingress_watermark", stats.ingress_watermark as f64, "count");
    m.set("pipeline.reorder_watermark", stats.reorder_watermark as f64, "count");
    mismatched + (order.len() as u64 - stats.emitted.min(order.len() as u64))
}

/// The gate's reference check: decodes every delivered frame on one
/// thread per slot decoder (two threads in all) and counts deliveries whose
/// signature differs. Frames already decoded by the decoder rung reuse its
/// result.
pub fn verify_reference(
    table: &ModcodTable,
    pool: &[Vec<Frame>],
    delivered: &Delivered,
    known: &HashMap<(usize, usize), Sig>,
) -> u64 {
    let mut keys: Vec<(usize, usize)> = delivered.keys().copied().collect();
    keys.sort_unstable();
    let half = keys.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut decoders: Vec<_> = table.iter().map(|e| e.make_decoder()).collect();
                    let mut out = DecodeResult::default();
                    let mut mismatched = 0u64;
                    for key in chunk {
                        let (sig, deliveries) = delivered[key];
                        let reference = known.get(key).copied().unwrap_or_else(|| {
                            decoders[key.0].decode_into(&pool[key.0][key.1].llrs, &mut out);
                            Sig::of(&out.bits, out.iterations, out.converged)
                        });
                        if reference != sig {
                            mismatched += deliveries;
                        }
                    }
                    mismatched
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference decoder panicked")).sum()
    })
}

//! The cycle-accurate hardware path: the paper's own operating point
//! (Normal R1/2 at 1.2 dB) on the bare core against the golden model, and a
//! batch of the workload's first slot on a 4-core fabric, with every
//! simulated cycle count checked against the calibrated Eq. 8.

use crate::gen::{self, Frame};
use crate::stats::{Accounting, Metrics};
use crate::trace::{SpanLog, NONE};
use crate::workload::Workload;
use dvbs2::channel::Modulation;
use dvbs2::decoder::DecodeResult;
use dvbs2::hardware::{
    CnSchedule, ConnectivityRom, CoreConfig, CycleBreakdown, DecoderFabric, FabricConfig,
    FabricModel, GoldenModel, HardwareDecoder, ThroughputModel, ST_0_13_UM,
};
use dvbs2::ldpc::{CodeRate, DvbS2Code, FrameSize};
use dvbs2::{Modcod, ModcodTable};
use std::time::Instant;

/// Cores of the modelled fabric.
const FABRIC_CORES: usize = 4;

/// Frames in the fabric batch: one per core.
const BATCH: usize = FABRIC_CORES;

/// The core's MODCOD: the paper's Normal R1/2 point.
fn core_modcod() -> Modcod {
    Modcod::new(Modulation::Bpsk, CodeRate::R1_2, FrameSize::Normal)
}

/// Operating point of the core's frames, dB.
const CORE_EBN0_DB: f64 = 1.2;

/// Normal frames decoded on the core and the golden model.
const CORE_FRAMES: usize = 2;

/// A code with its Eq. 8 model.
struct HwCode {
    code: DvbS2Code,
    /// Eq. 8 with the flat `T_latency` replaced by the core's measured
    /// per-iteration cost (calibrated once, from a one-iteration decode).
    model: FabricModel,
}

impl HwCode {
    fn build(modcod: Modcod, root: u64, log: &mut SpanLog, rom_ms: &mut f64) -> HwCode {
        let code = log.time("ldpc.build", root, NONE, || {
            DvbS2Code::new(modcod.rate, modcod.frame).expect("defined code")
        });
        let t = Instant::now();
        log.time("hardware.rom_build", root, NONE, || {
            ConnectivityRom::build(code.params(), code.table())
        });
        *rom_ms += t.elapsed().as_secs_f64() * 1e3;
        let mut one = HardwareDecoder::with_natural_schedule(
            &code,
            CoreConfig { max_iterations: 1, ..CoreConfig::default() },
        );
        let cal = log
            .time("hardware.core_decode", root, NONE, || one.decode(&vec![0.0; code.params().n]));
        let model = FabricModel::single(&ST_0_13_UM).calibrated(&cal.cycles);
        HwCode { code, model }
    }

    fn expected_cycles(&self, iterations: usize) -> usize {
        self.model.with_iterations(iterations).frame_cycles(self.code.params())
    }
}

/// The built hardware models and the core's frames.
pub struct HwRig {
    core_code: HwCode,
    core_frames: Vec<Frame>,
    core: HardwareDecoder,
    golden: GoldenModel,
    fabric_code: HwCode,
    fabric: DecoderFabric,
}

/// Builds the models: the Normal R1/2 core and golden model with their
/// frames (made from `seed`), a fabric for the workload's first slot, the
/// connectivity ROMs and the Eq. 8 calibration.
pub fn setup(w: &Workload, seed: u64, log: &mut SpanLog, m: &mut Metrics) -> HwRig {
    let root = log.open("bench.hw_setup", NONE);
    let mut rom_ms = 0.0;
    let core_code = HwCode::build(core_modcod(), root, log, &mut rom_ms);
    let fabric_code = HwCode::build(w.slots[0].modcod, root, log, &mut rom_ms);
    let table = ModcodTable::build(&[core_modcod()]).expect("Normal R1/2 is defined");
    let core_frames =
        (0..CORE_FRAMES).map(|i| gen::frame(&table, 0, CORE_EBN0_DB, seed, i as u64)).collect();
    let core = log.time("hardware.core_build", root, NONE, || {
        HardwareDecoder::with_natural_schedule(&core_code.code, CoreConfig::default())
    });
    let golden = log.time("hardware.golden_build", root, NONE, || {
        let code = &core_code.code;
        let rom = ConnectivityRom::build(code.params(), code.table());
        let config = CoreConfig::default();
        GoldenModel::new(
            code,
            CnSchedule::natural(&rom),
            config.quantizer,
            config.max_iterations,
            config.early_stop,
        )
    });
    let fabric = log.time("hardware.fabric_build", root, NONE, || {
        let config = FabricConfig { cores: FABRIC_CORES, ..FabricConfig::default() };
        DecoderFabric::with_natural_schedule(&fabric_code.code, config)
    });
    log.close(root);
    m.set("hardware.rom_build_ms", rom_ms, "ms");
    HwRig { core_code, core_frames, core, golden, fabric_code, fabric }
}

/// What a hardware run measured.
#[derive(Debug, Default)]
pub struct HwResult {
    /// Host time of each bare-core decode call, ms.
    pub core_ms: Vec<f64>,
    /// Host time of each golden-model decode call, ms.
    pub golden_ms: Vec<f64>,
    /// Host time per frame of the fabric batch, ms.
    pub fabric_ms_per_frame: f64,
    /// Correctness accounting.
    pub acc: Accounting,
    /// Simulated cycles (core frames plus the fabric makespan).
    pub sim_cycles: u64,
    /// Host time inside core and fabric calls, s.
    pub sim_host_s: f64,
    /// The core's cycle breakdown (identical for every frame at a fixed
    /// iteration count).
    pub core_cycles: CycleBreakdown,
    /// Bus utilization of the fabric batch.
    pub fabric_bus_util: f64,
    /// Stall cycles of the fabric batch.
    pub fabric_stall_cycles: u64,
    /// Pool index and output of each fabric frame, for the bare-core check.
    fabric_outputs: Vec<(usize, DecodeResult, CycleBreakdown)>,
}

impl HwRig {
    /// Decodes the Normal frames on the core and the golden model, then
    /// frames `0..4` of the workload's first slot as one fabric batch.
    pub fn run(&mut self, pool: &[Vec<Frame>], log: &mut SpanLog) -> HwResult {
        let root = log.open("bench.hardware", NONE);
        let mut r = HwResult::default();
        for (k, frame) in self.core_frames.iter().enumerate() {
            let frame_id = k as u64;
            let t = Instant::now();
            let out =
                log.time("hardware.core_decode", root, frame_id, || self.core.decode(&frame.llrs));
            let core_s = t.elapsed().as_secs_f64();
            r.core_ms.push(core_s * 1e3);
            let channel = self.core.quantize_channel(&frame.llrs);
            let t = Instant::now();
            let golden = log.time("hardware.golden_decode", root, frame_id, || {
                self.golden.decode_quantized(&channel)
            });
            r.golden_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.acc.attempted += 1;
            if golden != out.result
                || out.cycles.total_cycles != self.core_code.expected_cycles(out.cycles.iterations)
            {
                r.acc.mismatched += 1;
            }
            r.sim_cycles += out.cycles.total_cycles as u64;
            r.sim_host_s += core_s;
            r.core_cycles = out.cycles;
        }

        let llrs: Vec<Vec<f64>> = pool[0][..BATCH].iter().map(|f| f.llrs.clone()).collect();
        let t = Instant::now();
        let out = log
            .time("hardware.fabric_decode_batch", root, NONE, || self.fabric.decode_batch(&llrs));
        let host_s = t.elapsed().as_secs_f64();
        r.fabric_ms_per_frame = host_s * 1e3 / BATCH as f64;
        r.sim_cycles += out.stats.makespan_cycles;
        r.sim_host_s += host_s;
        r.fabric_bus_util = out.stats.bus_utilization();
        r.fabric_stall_cycles = out.stats.stall_cycles;
        for (i, o) in out.outputs.iter().enumerate() {
            r.acc.attempted += 1;
            if o.cycles.total_cycles != self.fabric_code.expected_cycles(o.cycles.iterations) {
                r.acc.mismatched += 1;
            }
            r.fabric_outputs.push((i, o.result.clone(), o.cycles));
        }
        log.close(root);
        r
    }

    /// The gate's fabric check: every fabric frame decoded on a bare core
    /// must give the fabric's result and cycles. Returns the frames that
    /// differ.
    pub fn verify_fabric(&self, pool: &[Vec<Frame>], r: &HwResult) -> u64 {
        let mut core =
            HardwareDecoder::with_natural_schedule(&self.fabric_code.code, CoreConfig::default());
        let mut differs = |(i, result, cycles): &(usize, DecodeResult, CycleBreakdown)| {
            let bare = core.decode(&pool[0][*i].llrs);
            bare.result != *result || bare.cycles != *cycles
        };
        r.fabric_outputs.iter().filter(|o| differs(o)).count() as u64
    }

    /// The hardware layer's per-layer metrics.
    pub fn layer_metrics(&self, r: &HwResult, m: &mut Metrics) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.set("hardware.core_ms_per_frame", mean(&r.core_ms), "ms");
        m.set("hardware.golden_ms_per_frame", mean(&r.golden_ms), "ms");
        m.set("hardware.fabric_ms_per_frame", r.fabric_ms_per_frame, "ms");
        let c = r.core_cycles;
        m.set("hardware.cycles_per_frame", c.total_cycles as f64, "cycles");
        m.set("hardware.io_cycles", c.io_cycles as f64, "cycles");
        m.set("hardware.info_phase_cycles", c.info_phase_cycles as f64, "cycles");
        m.set("hardware.check_phase_cycles", c.check_phase_cycles as f64, "cycles");
        m.set("hardware.max_buffer", c.max_buffer as f64, "count");
        m.set("hardware.fabric_bus_util", r.fabric_bus_util, "frac");
        m.set("hardware.fabric_stall_cycles", r.fabric_stall_cycles as f64, "cycles");
        m.set("hardware.sim_mcycles_per_s", r.sim_cycles as f64 / r.sim_host_s / 1e6, "Mcycle/s");
        let params = self.core_code.code.params();
        m.set(
            "hardware.sim_info_mbps",
            c.throughput_mbps(ST_0_13_UM.max_clock_mhz, params.k),
            "Mbit/s",
        );
        let eq8 = ThroughputModel::paper(&ST_0_13_UM);
        let flat = eq8.cycles_at_iterations(params, c.iterations as f64);
        m.set("hardware.eq8_info_mbps", params.k as f64 / flat * eq8.clock_mhz, "Mbit/s");
    }
}

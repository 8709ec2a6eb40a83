//! The seeded, index-addressed frame generator.
//!
//! Frame `(slot, index)` of a seed is a pure function of those three
//! values: its RNG stream is derived from them alone, so a frame is the
//! same whichever thread makes it, in whatever order, and however large the
//! pool around it. Each frame carries an assembled BBFRAME (so the egress
//! demux has a real header to parse) and keeps its ground truth: the
//! transmitted codeword and the BBFRAME data field.

use dvbs2::channel::mix_seed;
use dvbs2::framing::{assemble_bbframe, BbHeader, BBHEADER_BITS};
use dvbs2::ldpc::BitVec;
use dvbs2::ModcodTable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated frame with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Channel LLRs after modulation, AWGN and demapping.
    pub llrs: Vec<f64>,
    /// The transmitted codeword.
    pub codeword: BitVec,
    /// The BBFRAME data field carried in the codeword's systematic part.
    pub payload: BitVec,
}

impl Frame {
    /// Whether decoded hard decisions carry this frame's first `k`
    /// (information) bits.
    pub fn info_ok(&self, bits: &BitVec, k: usize) -> bool {
        *bits == self.codeword || (0..k).all(|i| bits.get(i) == self.codeword.get(i))
    }
}

/// The header every generated BBFRAME carries (transport stream, 188-byte
/// packets); `dfl` is filled in by assembly.
const HEADER: BbHeader = BbHeader { matype: 0xF000, upl: 1504, dfl: 0, sync: 0x47, syncd: 0 };

/// Frame `index` of slot `slot` for `seed`, transmitted at `ebn0_db`.
pub fn frame(table: &ModcodTable, slot: usize, ebn0_db: f64, seed: u64, index: u64) -> Frame {
    let entry = table.entry(slot);
    let mut rng = SmallRng::seed_from_u64(mix_seed(mix_seed(seed, slot as u64), index));
    let k = entry.info_len();
    let payload: BitVec = (0..k - BBHEADER_BITS).map(|_| rng.random::<bool>()).collect();
    let message = assemble_bbframe(HEADER, &payload, k).expect("the payload fills exactly K");
    let tx = entry.system().transmit_message(&mut rng, ebn0_db, &message);
    Frame { llrs: tx.llrs, codeword: tx.codeword, payload }
}

/// Frames `0..count` of every slot, made on up to two threads. `pool[s][i]`
/// is `frame(table, s, ebn0[s], seed, i)`.
pub fn pool(table: &ModcodTable, ebn0_db: &[f64], seed: u64, count: usize) -> Vec<Vec<Frame>> {
    let jobs: Vec<(usize, usize)> =
        (0..table.len()).flat_map(|s| (0..count).map(move |i| (s, i))).collect();
    let half = jobs.len().div_ceil(2);
    let made: Vec<Vec<Frame>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(s, i)| frame(table, s, ebn0_db[s], seed, i as u64))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("frame generation panicked")).collect()
    });
    let mut out: Vec<Vec<Frame>> = vec![Vec::with_capacity(count); table.len()];
    for (&(s, _), f) in jobs.iter().zip(made.into_iter().flatten()) {
        out[s].push(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2::channel::Modulation;
    use dvbs2::ldpc::{CodeRate, FrameSize};
    use dvbs2::Modcod;

    fn table() -> ModcodTable {
        ModcodTable::build(&[
            Modcod::new(Modulation::Qpsk, CodeRate::R8_9, FrameSize::Short),
            Modcod::new(Modulation::Psk8, CodeRate::R8_9, FrameSize::Short),
        ])
        .unwrap()
    }

    #[test]
    fn frames_are_a_function_of_seed_slot_and_index() {
        let t = table();
        let ebn0 = [7.0, 10.0];
        let a = pool(&t, &ebn0, 11, 3);
        // Same seed, different pool size and generation order: same frames.
        let b = pool(&t, &ebn0, 11, 2);
        assert_eq!(a[0][..2], b[0][..]);
        assert_eq!(a[1][..2], b[1][..]);
        assert_eq!(a[1][2], frame(&t, 1, 10.0, 11, 2));
        // Another seed or index gives another frame.
        assert_ne!(a[0][0], frame(&t, 0, 7.0, 12, 0));
        assert_ne!(a[0][0], a[0][1]);
    }

    #[test]
    fn frames_keep_their_ground_truth() {
        let t = table();
        let f = frame(&t, 0, 7.0, 5, 9);
        let entry = t.entry(0);
        assert_eq!(f.llrs.len(), entry.frame_len());
        assert_eq!(f.codeword.len(), entry.frame_len());
        let info: BitVec = (0..entry.info_len()).map(|i| f.codeword.get(i)).collect();
        let (header, data) = dvbs2::framing::extract_bbframe(&info).unwrap();
        assert_eq!(header.dfl as usize, f.payload.len());
        assert_eq!(data, f.payload);
        // Clear sky: hard decisions on the LLRs already give the codeword.
        let hard: BitVec = f.llrs.iter().map(|&l| l < 0.0).collect();
        assert!(hard.hamming_distance(&f.codeword) < entry.frame_len() / 100);
        // Only the information bits decide whether a decode delivered it.
        let k = entry.info_len();
        assert!(f.info_ok(&f.codeword, k));
        let mut parity_error = f.codeword.clone();
        parity_error.toggle(entry.frame_len() - 1);
        assert!(f.info_ok(&parity_error, k));
        let mut info_error = f.codeword.clone();
        info_error.toggle(k - 1);
        assert!(!f.info_ok(&info_error, k));
    }
}

//! The cycle-scheduled, bit-true 802.11a transmitter.
//!
//! A finite-state machine advances one micro-operation per clock edge —
//! scramble/encode one bit, write/read one interleaver RAM bit, one mapper
//! ROM lookup, one IFFT butterfly, one output sample — reproducing the
//! cost structure of simulating a synthesizable design. Functionally it
//! matches the behavioral Mother Model configured as 802.11a up to
//! fixed-point quantization (verified by experiment E5).

use crate::blocks::{ConvEncoderRtl, InterleaverRamRtl, MapperRomRtl, PunctureRtl, ScramblerRtl};
use crate::cycle::{Clocked, Scheduler};
use crate::fixed::{FxComplex, FxFormat};
use crate::ifft::{FxIfft, IfftStepper};
use crate::trace::Trace;
use ofdm_core::pilots::{ieee80211a_pilots, PilotGenerator};
use ofdm_dsp::Complex64;
use ofdm_standards::ieee80211a::{self, WlanRate};
use std::collections::VecDeque;
use std::hint::black_box;

/// One transmitted RT-level frame.
#[derive(Debug, Clone)]
pub struct RtlFrame {
    /// Final waveform (fixed-point results converted to float at the
    /// "DAC boundary", scaled to match the behavioral model).
    pub samples: Vec<Complex64>,
    /// Clock cycles the frame took to produce.
    pub cycles: u64,
}

/// The RT-level 802.11a transmitter.
#[derive(Debug, Clone)]
pub struct Tx80211aRtl {
    rate: WlanRate,
    format: FxFormat,
}

impl Tx80211aRtl {
    /// A transmitter at `rate` with a 16-bit (Q16.12) datapath.
    pub fn new(rate: WlanRate) -> Self {
        Tx80211aRtl {
            rate,
            format: FxFormat::new(16, 12),
        }
    }

    /// Builder: selects the datapath word format (E5 sweeps this).
    pub fn with_format(mut self, format: FxFormat) -> Self {
        self.format = format;
        self
    }

    /// The configured rate.
    pub fn rate(&self) -> WlanRate {
        self.rate
    }

    /// The datapath format.
    pub fn format(&self) -> FxFormat {
        self.format
    }

    /// Transmits `payload` bits, clocking the design to completion.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn transmit(&self, payload: &[u8]) -> RtlFrame {
        self.transmit_impl(payload, None).0
    }

    /// Like [`Tx80211aRtl::transmit`], additionally recording the control
    /// FSM's phase and output count per cycle into a waveform
    /// [`Trace`] — the RT-level debugging view a behavioral model never
    /// needs.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn transmit_traced(&self, payload: &[u8]) -> (RtlFrame, Trace) {
        let (frame, trace) = self.transmit_impl(payload, Some(Trace::new()));
        (frame, trace.expect("trace requested"))
    }

    fn transmit_impl(&self, payload: &[u8], mut trace: Option<Trace>) -> (RtlFrame, Option<Trace>) {
        assert!(!payload.is_empty(), "payload must be nonempty");
        let mut machine = TxMachine::new(self.rate, self.format, payload);
        let mut scheduler = Scheduler::new();
        // Generous bound: the design finishes long before this.
        let bound = 10_000_000 + payload.len() as u64 * 1_000;
        match trace.as_mut() {
            None => {
                scheduler.run(&mut machine, bound);
            }
            Some(t) => {
                for _ in 0..bound {
                    let cycle = scheduler.cycles();
                    t.record("phase", cycle, machine.phase as i64);
                    t.record("out_samples", cycle, machine.out.len() as i64);
                    t.record("in_pos", cycle, machine.in_pos as i64);
                    if !scheduler.step(&mut machine) {
                        break;
                    }
                }
            }
        }
        assert!(
            machine.done(),
            "FSM failed to finish within the cycle bound"
        );
        let frame = RtlFrame {
            samples: machine.into_output(),
            cycles: scheduler.cycles(),
        };
        (frame, trace)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i64)]
enum Phase {
    Preamble = 0,
    Input = 1,
    Read = 2,
    Map = 3,
    Ifft = 4,
    Output = 5,
    Done = 6,
}

struct TxMachine {
    // Datapath blocks.
    scrambler: ScramblerRtl,
    encoder: ConvEncoderRtl,
    puncture: PunctureRtl,
    ram: InterleaverRamRtl,
    mapper: MapperRomRtl,
    ifft: FxIfft,
    pilots: PilotGenerator,
    data_carriers: Vec<i32>,
    format: FxFormat,
    // Input stream: payload + 6 tail zeros.
    in_bits: Vec<u8>,
    in_pos: usize,
    coded_fifo: VecDeque<u8>,
    page_fill: usize,
    n_cbps: usize,
    n_bpsc: usize,
    // Per-symbol workspace.
    read_bits: Vec<u8>,
    grid: Vec<FxComplex>,
    body: Vec<FxComplex>,
    symbol_index: usize,
    // Phase bookkeeping.
    phase: Phase,
    sub: usize,
    stepper: Option<IfftStepper>,
    // Preamble ROM and output buffer.
    preamble_rom: Vec<Complex64>,
    out: Vec<Complex64>,
    out_scale: f64,
}

impl TxMachine {
    fn new(rate: WlanRate, format: FxFormat, payload: &[u8]) -> Self {
        let n_bpsc = rate.modulation().bits_per_symbol();
        let n_cbps = rate.n_cbps();
        // The interleaver RAM's read-address ROM: the same two-permutation
        // table the behavioral Interleaver uses (output j reads input
        // perm[j]).
        let mut perm = vec![0usize; n_cbps];
        for k in 0..n_cbps {
            let i = (n_cbps / 16) * (k % 16) + k / 16;
            let s = (n_bpsc / 2).max(1);
            let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
            perm[j] = k;
        }

        let mut in_bits: Vec<u8> = payload.iter().map(|&b| b & 1).collect();
        in_bits.extend([0u8; 6]); // trellis termination

        let map = ieee80211a::subcarrier_map();
        let preamble_rom = Self::quantized_preamble(format);

        TxMachine {
            scrambler: ScramblerRtl::new(),
            encoder: ConvEncoderRtl::new(),
            puncture: PunctureRtl::new(rate.conv_spec().puncture.pattern.clone()),
            ram: InterleaverRamRtl::new(perm),
            mapper: MapperRomRtl::new(rate.modulation(), format),
            ifft: FxIfft::new(64, format),
            pilots: PilotGenerator::new(ieee80211a_pilots()),
            data_carriers: map.data_carriers().to_vec(),
            format,
            in_bits,
            in_pos: 0,
            coded_fifo: VecDeque::new(),
            page_fill: 0,
            n_cbps,
            n_bpsc,
            read_bits: Vec::with_capacity(n_cbps),
            grid: vec![FxComplex::zero(format); 64],
            body: Vec::new(),
            symbol_index: 0,
            phase: Phase::Preamble,
            sub: 0,
            stepper: None,
            preamble_rom,
            out: Vec::new(),
            out_scale: 64.0 / 52f64.sqrt(),
        }
    }

    /// The STF+LTF passed through the fixed-point quantizer (a sample ROM
    /// in hardware).
    fn quantized_preamble(format: FxFormat) -> Vec<Complex64> {
        let mut rom = ieee80211a::short_training_field();
        rom.extend(ieee80211a::long_training_field());
        rom.into_iter()
            .map(|z| {
                let q = FxComplex::from_f64(z.re, z.im, format);
                let (re, im) = q.to_f64();
                Complex64::new(re, im)
            })
            .collect()
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn into_output(self) -> Vec<Complex64> {
        self.out
    }

    fn input_exhausted(&self) -> bool {
        self.in_pos >= self.in_bits.len() && self.coded_fifo.is_empty()
    }
}

impl TxMachine {
    /// The HDL-kernel semantics the paper's complaint is about: every
    /// clocked process is evaluated on every edge, whether its enable is
    /// asserted or not. `black_box` keeps the idle evaluations from being
    /// optimized away.
    fn evaluate_all_processes(&mut self) {
        black_box(self.scrambler.eval_idle());
        black_box(self.encoder.eval_idle());
        black_box(self.ram.eval_idle());
        black_box(self.mapper.eval_idle());
        // The IFFT datapath: one butterfly/load per edge while busy.
        if let Some(stepper) = self.stepper.as_mut() {
            stepper.step();
        }
    }
}

impl Clocked for TxMachine {
    fn rising_edge(&mut self) -> bool {
        self.evaluate_all_processes();
        match self.phase {
            Phase::Preamble => {
                self.out.push(self.preamble_rom[self.sub]);
                self.sub += 1;
                if self.sub == self.preamble_rom.len() {
                    self.sub = 0;
                    self.phase = Phase::Input;
                }
                true
            }
            Phase::Input => {
                if let Some(bit) = self.coded_fifo.pop_front() {
                    // One RAM write per cycle.
                    let full = self.ram.write(bit);
                    self.page_fill += 1;
                    if full {
                        self.page_fill = 0;
                        self.phase = Phase::Read;
                        self.sub = 0;
                        self.read_bits.clear();
                    }
                } else if self.in_pos < self.in_bits.len() {
                    // Scramble + encode one bit (pipelined in hardware).
                    // The six trellis-termination tail bits bypass the
                    // scrambler, matching the behavioral chain (scramble
                    // first, then terminate).
                    let tail = self.in_pos >= self.in_bits.len() - 6;
                    let bit = self.in_bits[self.in_pos];
                    let scrambled = if tail { bit } else { self.scrambler.step(bit) };
                    self.in_pos += 1;
                    let (a, b) = self.encoder.step(scrambled);
                    if let Some(kept) = self.puncture.step(a) {
                        self.coded_fifo.push_back(kept);
                    }
                    if let Some(kept) = self.puncture.step(b) {
                        self.coded_fifo.push_back(kept);
                    }
                } else if self.page_fill > 0 {
                    // Zero-pad the final page.
                    self.coded_fifo.push_back(0);
                } else {
                    self.phase = Phase::Done;
                    return false;
                }
                true
            }
            Phase::Read => {
                self.read_bits.push(self.ram.read());
                self.sub += 1;
                if self.sub == self.n_cbps {
                    self.sub = 0;
                    self.phase = Phase::Map;
                    for cell in self.grid.iter_mut() {
                        *cell = FxComplex::zero(self.format);
                    }
                }
                true
            }
            Phase::Map => {
                let n_data = self.data_carriers.len();
                if self.sub < n_data {
                    let k = self.data_carriers[self.sub];
                    let group =
                        &self.read_bits[self.sub * self.n_bpsc..(self.sub + 1) * self.n_bpsc];
                    let bin = if k >= 0 {
                        k as usize
                    } else {
                        (64 + k) as usize
                    };
                    self.grid[bin] = self.mapper.step(group);
                    self.sub += 1;
                } else {
                    // Pilot insertion: one cycle per pilot cell.
                    let pilot_idx = self.sub - n_data;
                    let cells = self.pilots.cells(self.symbol_index);
                    let (k, v) = cells[pilot_idx];
                    let bin = if k >= 0 {
                        k as usize
                    } else {
                        (64 + k) as usize
                    };
                    self.grid[bin] = FxComplex::from_f64(v.re, v.im, self.format);
                    self.sub += 1;
                    if pilot_idx + 1 == cells.len() {
                        self.sub = 0;
                        self.phase = Phase::Ifft;
                        // Hand the grid to the stepping IFFT datapath:
                        // one load/butterfly per subsequent clock edge.
                        self.stepper = Some(IfftStepper::new(self.ifft.clone(), self.grid.clone()));
                    }
                }
                true
            }
            Phase::Ifft => {
                // The stepper advanced in evaluate_all_processes; the FSM
                // just watches for completion.
                if self.stepper.as_ref().is_some_and(IfftStepper::is_done) {
                    self.body = self.stepper.take().expect("checked above").into_result();
                    self.phase = Phase::Output;
                    self.sub = 0;
                }
                true
            }
            Phase::Output => {
                // 16 CP samples (body tail) then the 64-sample body.
                let idx = if self.sub < 16 {
                    48 + self.sub
                } else {
                    self.sub - 16
                };
                let (re, im) = self.body[idx].to_f64();
                self.out.push(Complex64::new(re, im).scale(self.out_scale));
                self.sub += 1;
                if self.sub == 80 {
                    self.sub = 0;
                    self.symbol_index += 1;
                    if self.input_exhausted() && self.page_fill == 0 {
                        self.phase = Phase::Done;
                        return false;
                    }
                    self.phase = Phase::Input;
                }
                true
            }
            Phase::Done => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 13 + 5) % 4 < 2) as u8).collect()
    }

    #[test]
    fn produces_frame_with_preamble_and_symbols() {
        let tx = Tx80211aRtl::new(WlanRate::Mbps12);
        let frame = tx.transmit(&payload(96));
        // Preamble 320 + k×80 data samples.
        assert!(frame.samples.len() > 320);
        assert_eq!((frame.samples.len() - 320) % 80, 0);
        assert!(frame.cycles > frame.samples.len() as u64);
    }

    #[test]
    fn matches_behavioral_model_closely() {
        // Same payload through behavioral 802.11a and the RTL: waveforms
        // agree to fixed-point accuracy.
        let rate = WlanRate::Mbps12;
        let sent = payload(96);
        let mut beh = MotherModel::new(ieee80211a::params(rate)).unwrap();
        let frame_b = beh.transmit(&sent).unwrap();
        let tx = Tx80211aRtl::new(rate).with_format(FxFormat::new(20, 16));
        let frame_r = tx.transmit(&sent);
        assert_eq!(frame_b.signal().len(), frame_r.samples.len());
        let mut max_err = 0.0f64;
        for (b, r) in frame_b.signal().samples().iter().zip(&frame_r.samples) {
            max_err = max_err.max((*b - *r).abs());
        }
        assert!(max_err < 5e-3, "max deviation {max_err}");
    }

    #[test]
    fn cycle_count_scales_with_payload() {
        let tx = Tx80211aRtl::new(WlanRate::Mbps12);
        let short = tx.transmit(&payload(96));
        let long = tx.transmit(&payload(960));
        assert!(
            long.cycles > 5 * short.cycles / 2,
            "{} vs {}",
            long.cycles,
            short.cycles
        );
    }

    #[test]
    fn rtl_is_much_more_expensive_than_sample_count() {
        // The E3 premise: RT-level simulation spends many cycles per
        // output sample.
        let tx = Tx80211aRtl::new(WlanRate::Mbps54);
        let frame = tx.transmit(&payload(1000));
        let cycles_per_sample = frame.cycles as f64 / frame.samples.len() as f64;
        assert!(cycles_per_sample > 3.0, "cycles/sample {cycles_per_sample}");
    }

    #[test]
    fn higher_rates_fit_more_bits_per_symbol() {
        let sent = payload(288);
        let bpsk = Tx80211aRtl::new(WlanRate::Mbps6).transmit(&sent);
        let qam64 = Tx80211aRtl::new(WlanRate::Mbps54).transmit(&sent);
        assert!(bpsk.samples.len() > qam64.samples.len());
    }

    #[test]
    fn accessors() {
        let tx = Tx80211aRtl::new(WlanRate::Mbps24).with_format(FxFormat::new(12, 9));
        assert_eq!(tx.rate(), WlanRate::Mbps24);
        assert_eq!(tx.format().width, 12);
    }

    #[test]
    fn traced_transmit_matches_untraced() {
        let tx = Tx80211aRtl::new(WlanRate::Mbps12);
        let bits = payload(96);
        let plain = tx.transmit(&bits);
        let (traced, trace) = tx.transmit_traced(&bits);
        assert_eq!(plain.samples, traced.samples);
        assert_eq!(plain.cycles, traced.cycles);
        // The trace recorded the FSM walking through its phases in order.
        let phases = trace.changes("phase").expect("phase traced");
        assert_eq!(phases[0], (0, 0)); // Preamble at cycle 0
        let sequence: Vec<i64> = phases.iter().map(|&(_, v)| v).collect();
        assert!(
            sequence.windows(2).all(|w| w[0] != w[1]),
            "only changes stored"
        );
        assert!(sequence.contains(&4), "IFFT phase visited");
        // Output count is monotone.
        let outs = trace.changes("out_samples").expect("outputs traced");
        assert!(outs.windows(2).all(|w| w[1].1 >= w[0].1));
        assert_eq!(outs.last().unwrap().1 as usize, traced.samples.len() - 1);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_payload_panics() {
        let _ = Tx80211aRtl::new(WlanRate::Mbps6).transmit(&[]);
    }
}

//! Payload codecs: the opcode-specific byte layouts inside a frame.
//!
//! Everything is little-endian and hand-rolled (std-only, no serde).
//! The heavy payloads — [`Counts`] and [`Distribution`] — serialize
//! **directly from their structure-of-arrays views**: a distribution
//! frame is its [`keys`](Distribution::keys) /
//! [`keys_hi`](Distribution::keys_hi) / [`probs`](Distribution::probs)
//! arrays streamed back to back (high limbs omitted for registers of at
//! most 64 bits), and decoding hands those arrays straight to
//! [`Distribution::from_raw_parts`], which re-validates every invariant
//! — so a hostile peer can produce a [`WireError`], never a panic or a
//! corrupt in-memory value, and a well-formed round trip is
//! **byte-identical** (probabilities travel as IEEE-754 bit patterns).

use hammer_core::{FilterRule, HammerConfig, NeighborhoodLimit, WeightScheme};
use hammer_dist::{BitString, Counts, Distribution};
use hammer_sim::{Circuit, DeviceModel, Gate};

use crate::protocol::{opcode, WireError};

// ---------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over an untrusted payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `len`-element `u64` array, length-validated before allocation.
    fn u64_array(&mut self, len: usize) -> Result<Vec<u64>, WireError> {
        let raw = self.bytes(len.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    fn f64_array(&mut self, len: usize) -> Result<Vec<f64>, WireError> {
        Ok(self
            .u64_array(len)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Decoding must consume the payload exactly.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Whether a register of this width carries high limbs on the wire.
fn wide(n_bits: usize) -> bool {
    n_bits > 64
}

// ---------------------------------------------------------------------
// Domain payloads
// ---------------------------------------------------------------------

/// Appends a [`Distribution`]: `u16 n_bits, u32 len, keys[len],
/// (keys_hi[len] if n_bits > 64), probs[len]` — the SoA views streamed
/// verbatim.
pub fn put_distribution(out: &mut Vec<u8>, d: &Distribution) {
    put_u16(out, d.n_bits() as u16);
    put_u32(out, d.len() as u32);
    for &k in d.keys() {
        put_u64(out, k);
    }
    if wide(d.n_bits()) {
        for &k in d.keys_hi() {
            put_u64(out, k);
        }
    }
    for &p in d.probs() {
        put_f64(out, p);
    }
}

fn get_distribution(cur: &mut Cur) -> Result<Distribution, WireError> {
    let n_bits = cur.u16()? as usize;
    let len = cur.u32()? as usize;
    let keys = cur.u64_array(len)?;
    let keys_hi = if wide(n_bits) {
        cur.u64_array(len)?
    } else {
        vec![0u64; len]
    };
    let probs = cur.f64_array(len)?;
    Ok(Distribution::from_raw_parts(n_bits, keys, keys_hi, probs)?)
}

/// Decodes a standalone [`put_distribution`] payload, consuming it
/// exactly. The persistent store ([`crate::store`]) frames this same
/// layout inside its CRC'd records, so a disk record decodes through
/// the identical validated path as a wire frame.
pub(crate) fn read_distribution(payload: &[u8]) -> Result<Distribution, WireError> {
    let mut cur = Cur::new(payload);
    let d = get_distribution(&mut cur)?;
    cur.finish()?;
    Ok(d)
}

/// Appends a [`Counts`] histogram: `u16 n_bits, u32 len`, then the
/// sorted `(key lo, key hi?, count)` columns.
pub fn put_counts(out: &mut Vec<u8>, c: &Counts) {
    put_u16(out, c.n_bits() as u16);
    put_u32(out, c.len() as u32);
    let w = wide(c.n_bits());
    for (x, _) in c.iter() {
        put_u64(out, x.limbs()[0]);
    }
    if w {
        for (x, _) in c.iter() {
            put_u64(out, x.limbs()[1]);
        }
    }
    for (_, n) in c.iter() {
        put_u64(out, n);
    }
}

fn get_counts(cur: &mut Cur) -> Result<Counts, WireError> {
    let n_bits = cur.u16()? as usize;
    let len = cur.u32()? as usize;
    let keys = cur.u64_array(len)?;
    let keys_hi = if wide(n_bits) {
        cur.u64_array(len)?
    } else {
        vec![0u64; len]
    };
    let counts = cur.u64_array(len)?;
    Ok(Counts::from_raw_parts(n_bits, keys, keys_hi, counts)?)
}

/// Appends a list of outcomes of width `n_bits`.
fn put_bitstrings(out: &mut Vec<u8>, n_bits: usize, xs: &[BitString]) {
    put_u32(out, xs.len() as u32);
    for x in xs {
        put_u64(out, x.limbs()[0]);
    }
    if wide(n_bits) {
        for x in xs {
            put_u64(out, x.limbs()[1]);
        }
    }
}

fn get_bitstrings(cur: &mut Cur, n_bits: usize) -> Result<Vec<BitString>, WireError> {
    let len = cur.u32()? as usize;
    let lo = cur.u64_array(len)?;
    let hi = if wide(n_bits) {
        cur.u64_array(len)?
    } else {
        vec![0u64; len]
    };
    let mask = if n_bits == 128 {
        u128::MAX
    } else {
        (1u128 << n_bits) - 1
    };
    lo.into_iter()
        .zip(hi)
        .map(|(l, h)| {
            let bits = u128::from(l) | (u128::from(h) << 64);
            if bits & !mask != 0 {
                return Err(WireError::Malformed(format!(
                    "outcome has bits beyond the {n_bits}-bit register"
                )));
            }
            Ok(BitString::from_u128(bits, n_bits))
        })
        .collect()
}

/// Appends the *algorithmic* [`HammerConfig`] knobs (neighborhood,
/// weights, filter). [`hammer_core::KernelTuning`] never crosses the
/// wire: how the server runs its kernel is the server's business. The
/// server always runs the exact kernel, so a served reply depends only
/// on these three knobs.
pub fn put_config(out: &mut Vec<u8>, config: &HammerConfig) {
    match config.neighborhood {
        NeighborhoodLimit::HalfWidth => out.push(0),
        NeighborhoodLimit::Fixed(k) => {
            out.push(1);
            put_u64(out, k as u64);
        }
        NeighborhoodLimit::Unbounded => out.push(2),
    }
    out.push(match config.weights {
        WeightScheme::InverseAverageChs => 0,
        WeightScheme::InverseGlobalChs => 1,
        WeightScheme::Uniform => 2,
        WeightScheme::InverseBinomial => 3,
    });
    out.push(match config.filter {
        FilterRule::LowerProbabilityOnly => 0,
        FilterRule::None => 1,
    });
}

fn get_config(cur: &mut Cur) -> Result<HammerConfig, WireError> {
    let neighborhood = match cur.u8()? {
        0 => NeighborhoodLimit::HalfWidth,
        1 => NeighborhoodLimit::Fixed(cur.u64()? as usize),
        2 => NeighborhoodLimit::Unbounded,
        t => return Err(WireError::Malformed(format!("neighborhood tag {t}"))),
    };
    let weights = match cur.u8()? {
        0 => WeightScheme::InverseAverageChs,
        1 => WeightScheme::InverseGlobalChs,
        2 => WeightScheme::Uniform,
        3 => WeightScheme::InverseBinomial,
        t => return Err(WireError::Malformed(format!("weight-scheme tag {t}"))),
    };
    let filter = match cur.u8()? {
        0 => FilterRule::LowerProbabilityOnly,
        1 => FilterRule::None,
        t => return Err(WireError::Malformed(format!("filter tag {t}"))),
    };
    Ok(HammerConfig {
        neighborhood,
        weights,
        filter,
        ..HammerConfig::default()
    })
}

/// Per-gate wire tags (shared numbering with `Gate`'s fingerprint
/// encoding).
fn gate_parts(g: Gate) -> (u8, usize, Option<usize>, Option<f64>) {
    match g {
        Gate::H(q) => (0, q, None, None),
        Gate::X(q) => (1, q, None, None),
        Gate::Y(q) => (2, q, None, None),
        Gate::Z(q) => (3, q, None, None),
        Gate::S(q) => (4, q, None, None),
        Gate::Sdg(q) => (5, q, None, None),
        Gate::T(q) => (6, q, None, None),
        Gate::Tdg(q) => (7, q, None, None),
        Gate::SqrtX(q) => (8, q, None, None),
        Gate::SqrtXdg(q) => (9, q, None, None),
        Gate::Rx(q, t) => (10, q, None, Some(t)),
        Gate::Ry(q, t) => (11, q, None, Some(t)),
        Gate::Rz(q, t) => (12, q, None, Some(t)),
        Gate::Cx(a, b) => (13, a, Some(b), None),
        Gate::Cz(a, b) => (14, a, Some(b), None),
        Gate::Swap(a, b) => (15, a, Some(b), None),
        Gate::Zz(a, b, t) => (16, a, Some(b), Some(t)),
    }
}

/// Reads one gate: the tag byte, then **exactly** the operands that
/// variant carries. This single match is the decode-side definition of
/// every gate's wire shape — its mirror is the (compiler-checked
/// exhaustive) encode match in [`gate_parts`], and the
/// `sample_job_round_trips_every_gate_kind` test drives every variant
/// through both, so the two cannot drift apart silently.
fn get_gate(cur: &mut Cur, n: usize) -> Result<Gate, WireError> {
    fn one(cur: &mut Cur, n: usize) -> Result<usize, WireError> {
        let q = cur.u16()? as usize;
        if q >= n {
            return Err(WireError::Malformed(format!(
                "gate operand outside the {n}-qubit register"
            )));
        }
        Ok(q)
    }
    fn pair(cur: &mut Cur, n: usize) -> Result<(usize, usize), WireError> {
        let a = one(cur, n)?;
        let b = one(cur, n)?;
        if a == b {
            return Err(WireError::Malformed(
                "two-qubit gate addresses one qubit twice".into(),
            ));
        }
        Ok((a, b))
    }
    fn angle(cur: &mut Cur) -> Result<f64, WireError> {
        let theta = cur.f64()?;
        if !theta.is_finite() {
            return Err(WireError::Malformed("non-finite gate angle".into()));
        }
        Ok(theta)
    }
    Ok(match cur.u8()? {
        0 => Gate::H(one(cur, n)?),
        1 => Gate::X(one(cur, n)?),
        2 => Gate::Y(one(cur, n)?),
        3 => Gate::Z(one(cur, n)?),
        4 => Gate::S(one(cur, n)?),
        5 => Gate::Sdg(one(cur, n)?),
        6 => Gate::T(one(cur, n)?),
        7 => Gate::Tdg(one(cur, n)?),
        8 => Gate::SqrtX(one(cur, n)?),
        9 => Gate::SqrtXdg(one(cur, n)?),
        10 => Gate::Rx(one(cur, n)?, angle(cur)?),
        11 => Gate::Ry(one(cur, n)?, angle(cur)?),
        12 => Gate::Rz(one(cur, n)?, angle(cur)?),
        13 => {
            let (a, b) = pair(cur, n)?;
            Gate::Cx(a, b)
        }
        14 => {
            let (a, b) = pair(cur, n)?;
            Gate::Cz(a, b)
        }
        15 => {
            let (a, b) = pair(cur, n)?;
            Gate::Swap(a, b)
        }
        16 => {
            let (a, b) = pair(cur, n)?;
            Gate::Zz(a, b, angle(cur)?)
        }
        t => return Err(WireError::Malformed(format!("gate tag {t}"))),
    })
}

/// Appends a [`Circuit`]: `u16 num_qubits, u32 gate_count`, then per
/// gate `u8 tag, u16 qubit, (u16 qubit)?, (f64 angle)?`.
pub fn put_circuit(out: &mut Vec<u8>, c: &Circuit) {
    put_u16(out, c.num_qubits() as u16);
    put_u32(out, c.gate_count() as u32);
    for &g in c.gates() {
        let (tag, a, b, theta) = gate_parts(g);
        out.push(tag);
        put_u16(out, a as u16);
        if let Some(b) = b {
            put_u16(out, b as u16);
        }
        if let Some(t) = theta {
            put_f64(out, t);
        }
    }
}

fn get_circuit(cur: &mut Cur) -> Result<Circuit, WireError> {
    let n = cur.u16()? as usize;
    if !(1..=128).contains(&n) {
        return Err(WireError::Malformed(format!(
            "circuit width {n} outside 1..=128"
        )));
    }
    let count = cur.u32()? as usize;
    let mut circuit = Circuit::new(n);
    for _ in 0..count {
        // `get_gate` validates operands and angles, so `Circuit::push`
        // (which panics on bad operands) cannot be reached with them.
        circuit.push(get_gate(cur, n)?);
    }
    Ok(circuit)
}

// ---------------------------------------------------------------------
// Device specification
// ---------------------------------------------------------------------

/// A device named on the wire: one of the workspace presets at a given
/// width. Requests carry a spec (a few bytes) instead of a full noise
/// model; the server instantiates the preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSpec {
    /// All-to-all coupling, zero noise.
    Noiseless(usize),
    /// IBM-Paris-like Falcon preset (widths 1..=27).
    IbmParis(usize),
    /// IBM-Manhattan-like preset (widths 1..=27).
    IbmManhattan(usize),
    /// IBM-Casablanca-like preset (widths 1..=27).
    IbmCasablanca(usize),
    /// Google-Sycamore-like grid preset.
    GoogleSycamore(usize),
}

impl DeviceSpec {
    /// Register width of the specified device.
    #[must_use]
    pub fn num_qubits(self) -> usize {
        match self {
            Self::Noiseless(n)
            | Self::IbmParis(n)
            | Self::IbmManhattan(n)
            | Self::IbmCasablanca(n)
            | Self::GoogleSycamore(n) => n,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Self::Noiseless(_) => 0,
            Self::IbmParis(_) => 1,
            Self::IbmManhattan(_) => 2,
            Self::IbmCasablanca(_) => 3,
            Self::GoogleSycamore(_) => 4,
        }
    }

    /// Instantiates the preset, validating its width bounds (the preset
    /// constructors panic out of range; a request must not be able to
    /// panic the server).
    ///
    /// # Errors
    ///
    /// A human-readable width-bound violation, relayed to the client as
    /// an `Error` reply.
    pub fn to_device(self) -> Result<DeviceModel, String> {
        let n = self.num_qubits();
        if !(1..=128).contains(&n) {
            return Err(format!("device width {n} outside 1..=128"));
        }
        match self {
            Self::Noiseless(n) => Ok(DeviceModel::noiseless(n)),
            Self::IbmParis(n) | Self::IbmManhattan(n) | Self::IbmCasablanca(n) => {
                if n > 27 {
                    return Err(format!("IBM Falcon presets cap at 27 qubits, got {n}"));
                }
                Ok(match self {
                    Self::IbmParis(_) => DeviceModel::ibm_paris(n),
                    Self::IbmManhattan(_) => DeviceModel::ibm_manhattan(n),
                    _ => DeviceModel::ibm_casablanca(n),
                })
            }
            Self::GoogleSycamore(n) => Ok(DeviceModel::google_sycamore(n)),
        }
    }
}

fn put_device(out: &mut Vec<u8>, spec: DeviceSpec) {
    out.push(spec.tag());
    put_u16(out, spec.num_qubits() as u16);
}

fn get_device(cur: &mut Cur) -> Result<DeviceSpec, WireError> {
    let tag = cur.u8()?;
    let n = cur.u16()? as usize;
    Ok(match tag {
        0 => DeviceSpec::Noiseless(n),
        1 => DeviceSpec::IbmParis(n),
        2 => DeviceSpec::IbmManhattan(n),
        3 => DeviceSpec::IbmCasablanca(n),
        4 => DeviceSpec::GoogleSycamore(n),
        t => return Err(WireError::Malformed(format!("device tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A full simulate-then-reconstruct job.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleJob {
    /// The circuit to execute (terminal measurement implied).
    pub circuit: Circuit,
    /// The device preset to execute on.
    pub device: DeviceSpec,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// RNG seed — part of the cache key: the same job with the same
    /// seed is deterministic end to end.
    pub seed: u64,
    /// Reconstruction configuration.
    pub config: HammerConfig,
}

impl SampleJob {
    /// The job's stable cache/coalescing key: circuit structure, device
    /// spec, trial count, seed and algorithmic config.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = hammer_dist::fingerprint::Fnv1a::new();
        h.write_bytes(b"sample-job/v1");
        h.write_u64(self.circuit.fingerprint());
        h.write_u8(self.device.tag());
        h.write_usize(self.device.num_qubits());
        h.write_u64(self.trials);
        h.write_u64(self.seed);
        h.write_u64(self.config.fingerprint());
        h.finish()
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Reconstruct a measured histogram.
    Reconstruct {
        /// Algorithmic configuration.
        config: HammerConfig,
        /// The measured histogram.
        counts: Counts,
    },
    /// Score a distribution against a correct-outcome set.
    Metrics {
        /// The distribution under test.
        dist: Distribution,
        /// The correct outcomes (same width).
        correct: Vec<BitString>,
    },
    /// Run the full simulate-then-reconstruct pipeline.
    SampleAndReconstruct(SampleJob),
    /// Drain the server's captured slow-request traces.
    TraceDump,
    /// Snapshot every registered observability series.
    MetricsSnapshot,
    /// Graceful shutdown.
    Shutdown,
}

impl Request {
    /// The opcode this request travels under.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Self::Ping => opcode::PING,
            Self::Reconstruct { .. } => opcode::RECONSTRUCT,
            Self::Metrics { .. } => opcode::METRICS,
            Self::SampleAndReconstruct(_) => opcode::SAMPLE_AND_RECONSTRUCT,
            Self::TraceDump => opcode::TRACE_DUMP,
            Self::MetricsSnapshot => opcode::METRICS_SNAPSHOT,
            Self::Shutdown => opcode::SHUTDOWN,
        }
    }

    /// Encodes the payload bytes; [`crate::protocol::write_frame`] adds
    /// the header.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Ping | Self::TraceDump | Self::MetricsSnapshot | Self::Shutdown => {}
            Self::Reconstruct { config, counts } => {
                put_config(&mut out, config);
                put_counts(&mut out, counts);
            }
            Self::Metrics { dist, correct } => {
                put_distribution(&mut out, dist);
                put_bitstrings(&mut out, dist.n_bits(), correct);
            }
            Self::SampleAndReconstruct(job) => {
                put_device(&mut out, job.device);
                put_u64(&mut out, job.trials);
                put_u64(&mut out, job.seed);
                put_config(&mut out, &job.config);
                put_circuit(&mut out, &job.circuit);
            }
        }
        out
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant describing the malformation; unknown
    /// opcodes report [`WireError::UnknownOpcode`].
    pub fn decode(op: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cur::new(payload);
        let req = match op {
            opcode::PING => Self::Ping,
            opcode::TRACE_DUMP => Self::TraceDump,
            opcode::METRICS_SNAPSHOT => Self::MetricsSnapshot,
            opcode::SHUTDOWN => Self::Shutdown,
            opcode::RECONSTRUCT => {
                let config = get_config(&mut cur)?;
                let counts = get_counts(&mut cur)?;
                Self::Reconstruct { config, counts }
            }
            opcode::METRICS => {
                let dist = get_distribution(&mut cur)?;
                let correct = get_bitstrings(&mut cur, dist.n_bits())?;
                Self::Metrics { dist, correct }
            }
            opcode::SAMPLE_AND_RECONSTRUCT => {
                let device = get_device(&mut cur)?;
                let trials = cur.u64()?;
                let seed = cur.u64()?;
                let config = get_config(&mut cur)?;
                let circuit = get_circuit(&mut cur)?;
                Self::SampleAndReconstruct(SampleJob {
                    circuit,
                    device,
                    trials,
                    seed,
                    config,
                })
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(req)
    }
}

/// The figures of merit the `Metrics` opcode returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReply {
    /// Probability of a correct outcome.
    pub pst: f64,
    /// Probability of the strongest incorrect outcome.
    pub ist: f64,
    /// Expected Hamming distance to the nearest correct outcome.
    pub ehd: f64,
    /// The uniform-error EHD reference `≈ n/2` for the same width.
    pub uniform_ehd: f64,
}

/// One decoded stage span of a captured request trace.
///
/// The wire-side mirror of [`hammer_obs::Span`]: stage names arrive as
/// owned strings because the receiving process does not share the
/// server's `&'static str` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (`decode`, `queue`, `cache_probe`, …).
    pub stage: String,
    /// Start offset from the request's arrival, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// One captured slow-request trace returned by the `TraceDump` opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDumpEntry {
    /// The request's 64-bit trace ID (client-stamped or
    /// server-assigned).
    pub trace_id: u64,
    /// The request opcode.
    pub opcode: u8,
    /// The reply opcode the request ended with (distribution, busy,
    /// deadline-exceeded, …).
    pub outcome: u8,
    /// Total request wall time in nanoseconds.
    pub total_ns: u64,
    /// Stage spans ordered by start offset.
    pub spans: Vec<TraceSpan>,
}

impl From<hammer_obs::RequestTrace> for TraceDumpEntry {
    fn from(t: hammer_obs::RequestTrace) -> Self {
        Self {
            trace_id: t.trace_id,
            opcode: t.opcode,
            outcome: t.outcome,
            total_ns: t.total_ns,
            spans: t
                .spans
                .into_iter()
                .map(|s| TraceSpan {
                    stage: s.stage.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect(),
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(cur: &mut Cur<'_>) -> Result<String, WireError> {
    let len = cur.u32()? as usize;
    let bytes = cur.bytes(len)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| WireError::Malformed("string not UTF-8".into()))
}

fn put_trace_dump(out: &mut Vec<u8>, traces: &[TraceDumpEntry]) {
    put_u32(out, traces.len() as u32);
    for t in traces {
        put_u64(out, t.trace_id);
        out.push(t.opcode);
        out.push(t.outcome);
        put_u64(out, t.total_ns);
        put_u32(out, t.spans.len() as u32);
        for s in &t.spans {
            put_str(out, &s.stage);
            put_u64(out, s.start_ns);
            put_u64(out, s.dur_ns);
        }
    }
}

fn get_trace_dump(cur: &mut Cur<'_>) -> Result<Vec<TraceDumpEntry>, WireError> {
    let n = cur.u32()? as usize;
    let mut traces = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let trace_id = cur.u64()?;
        let opcode = cur.u8()?;
        let outcome = cur.u8()?;
        let total_ns = cur.u64()?;
        let n_spans = cur.u32()? as usize;
        let mut spans = Vec::with_capacity(n_spans.min(1024));
        for _ in 0..n_spans {
            let stage = get_str(cur)?;
            let start_ns = cur.u64()?;
            let dur_ns = cur.u64()?;
            spans.push(TraceSpan {
                stage,
                start_ns,
                dur_ns,
            });
        }
        traces.push(TraceDumpEntry {
            trace_id,
            opcode,
            outcome,
            total_ns,
            spans,
        });
    }
    Ok(traces)
}

fn put_obs_snapshot(out: &mut Vec<u8>, snap: &hammer_obs::MetricsSnapshot) {
    use hammer_obs::SeriesValue;
    put_u32(out, snap.series.len() as u32);
    for s in &snap.series {
        put_str(out, &s.name);
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push(0);
                put_u64(out, *v);
            }
            SeriesValue::Gauge(v) => {
                out.push(1);
                put_u64(out, *v as u64);
            }
            SeriesValue::Histogram(h) => {
                out.push(2);
                // Sparse bucket encoding: most of the 64 log₂ buckets
                // are empty in practice.
                let nonzero = h.buckets.iter().filter(|&&c| c != 0).count();
                out.push(nonzero as u8);
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c != 0 {
                        out.push(i as u8);
                        put_u64(out, c);
                    }
                }
            }
        }
    }
}

fn get_obs_snapshot(cur: &mut Cur<'_>) -> Result<hammer_obs::MetricsSnapshot, WireError> {
    use hammer_obs::{HistogramSnapshot, SeriesSnapshot, SeriesValue, HIST_BUCKETS};
    let n = cur.u32()? as usize;
    let mut series = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = get_str(cur)?;
        let value = match cur.u8()? {
            0 => SeriesValue::Counter(cur.u64()?),
            1 => SeriesValue::Gauge(cur.u64()? as i64),
            2 => {
                let mut h = HistogramSnapshot::empty();
                let nonzero = cur.u8()? as usize;
                for _ in 0..nonzero {
                    let idx = cur.u8()? as usize;
                    if idx >= HIST_BUCKETS {
                        return Err(WireError::Malformed(format!(
                            "histogram bucket index {idx} out of range"
                        )));
                    }
                    h.buckets[idx] = cur.u64()?;
                }
                SeriesValue::Histogram(h)
            }
            other => return Err(WireError::Malformed(format!("unknown series kind {other}"))),
        };
        series.push(SeriesSnapshot { name, value });
    }
    Ok(hammer_obs::MetricsSnapshot { series })
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Liveness answer.
    Pong,
    /// A reconstructed distribution.
    Distribution(Distribution),
    /// A distribution flagged approximate (opcode
    /// [`DISTRIBUTION_APPROX`](opcode::DISTRIBUTION_APPROX)). The server
    /// never sends it, and [`ServeClient`](crate::ServeClient) treats it
    /// as an unexpected reply.
    ApproxDistribution(Distribution),
    /// Figures of merit.
    Metrics(MetricsReply),
    /// Captured slow-request traces, oldest first.
    TraceDump(Vec<TraceDumpEntry>),
    /// A full observability snapshot.
    MetricsSnapshot(hammer_obs::MetricsSnapshot),
    /// Shutdown acknowledged.
    ShutdownAck,
    /// Backpressure: retry later.
    Busy,
    /// The request's deadline expired before a result was produced.
    DeadlineExceeded,
    /// The server is draining for shutdown and refused the request.
    ShuttingDown,
    /// Request-level failure.
    Error(String),
}

impl Reply {
    /// The opcode this reply travels under.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Self::Pong => opcode::PONG,
            Self::Distribution(_) => opcode::DISTRIBUTION,
            Self::ApproxDistribution(_) => opcode::DISTRIBUTION_APPROX,
            Self::Metrics(_) => opcode::METRICS_REPLY,
            Self::TraceDump(_) => opcode::TRACE_DUMP_REPLY,
            Self::MetricsSnapshot(_) => opcode::METRICS_SNAPSHOT_REPLY,
            Self::ShutdownAck => opcode::SHUTDOWN_ACK,
            Self::Busy => opcode::BUSY,
            Self::DeadlineExceeded => opcode::DEADLINE_EXCEEDED,
            Self::ShuttingDown => opcode::SHUTTING_DOWN,
            Self::Error(_) => opcode::ERROR,
        }
    }

    /// Encodes the payload bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Pong
            | Self::ShutdownAck
            | Self::Busy
            | Self::DeadlineExceeded
            | Self::ShuttingDown => {}
            Self::Distribution(d) | Self::ApproxDistribution(d) => put_distribution(&mut out, d),
            Self::Metrics(m) => {
                put_f64(&mut out, m.pst);
                put_f64(&mut out, m.ist);
                put_f64(&mut out, m.ehd);
                put_f64(&mut out, m.uniform_ehd);
            }
            Self::TraceDump(traces) => put_trace_dump(&mut out, traces),
            Self::MetricsSnapshot(snap) => put_obs_snapshot(&mut out, snap),
            Self::Error(msg) => {
                put_u32(&mut out, msg.len() as u32);
                out.extend_from_slice(msg.as_bytes());
            }
        }
        out
    }

    /// Decodes a reply payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant describing the malformation.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cur::new(payload);
        let reply = match op {
            opcode::PONG => Self::Pong,
            opcode::SHUTDOWN_ACK => Self::ShutdownAck,
            opcode::BUSY => Self::Busy,
            opcode::DEADLINE_EXCEEDED => Self::DeadlineExceeded,
            opcode::SHUTTING_DOWN => Self::ShuttingDown,
            opcode::DISTRIBUTION => Self::Distribution(get_distribution(&mut cur)?),
            opcode::DISTRIBUTION_APPROX => Self::ApproxDistribution(get_distribution(&mut cur)?),
            opcode::METRICS_REPLY => Self::Metrics(MetricsReply {
                pst: cur.f64()?,
                ist: cur.f64()?,
                ehd: cur.f64()?,
                uniform_ehd: cur.f64()?,
            }),
            opcode::TRACE_DUMP_REPLY => Self::TraceDump(get_trace_dump(&mut cur)?),
            opcode::METRICS_SNAPSHOT_REPLY => Self::MetricsSnapshot(get_obs_snapshot(&mut cur)?),
            opcode::ERROR => {
                let len = cur.u32()? as usize;
                let bytes = cur.bytes(len)?;
                let msg = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("error message not UTF-8".into()))?;
                Self::Error(msg.to_string())
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::parse(s).unwrap()
    }

    fn round_trip_request(req: &Request) -> Request {
        Request::decode(req.opcode(), &req.encode()).expect("round trip decodes")
    }

    fn round_trip_reply(reply: &Reply) -> Reply {
        Reply::decode(reply.opcode(), &reply.encode()).expect("round trip decodes")
    }

    #[test]
    fn empty_payload_messages_round_trip() {
        for req in [Request::Ping, Request::Shutdown] {
            assert_eq!(round_trip_request(&req), req);
        }
        for reply in [
            Reply::Pong,
            Reply::ShutdownAck,
            Reply::Busy,
            Reply::DeadlineExceeded,
            Reply::ShuttingDown,
        ] {
            assert_eq!(round_trip_reply(&reply), reply);
        }
    }

    #[test]
    fn reconstruct_round_trips_narrow_and_wide() {
        let mut counts = Counts::new(5).unwrap();
        counts.record_n(bs("10110"), 100);
        counts.record_n(bs("00001"), 7);
        let req = Request::Reconstruct {
            config: HammerConfig::paper(),
            counts,
        };
        assert_eq!(round_trip_request(&req), req);

        // A 100-bit histogram exercises the high-limb columns.
        let mut wide = Counts::new(100).unwrap();
        wide.record_n(BitString::zeros(100).flip_bit(99), 3);
        wide.record_n(BitString::zeros(100).flip_bit(2), 5);
        let req = Request::Reconstruct {
            config: HammerConfig {
                neighborhood: NeighborhoodLimit::Fixed(7),
                weights: WeightScheme::Uniform,
                filter: FilterRule::None,
                ..HammerConfig::default()
            },
            counts: wide,
        };
        assert_eq!(round_trip_request(&req), req);
    }

    #[test]
    fn distribution_reply_round_trips_byte_identically() {
        let d = Distribution::from_probs(
            100,
            [
                (BitString::zeros(100).flip_bit(99).flip_bit(1), 0.25),
                (BitString::zeros(100).flip_bit(64), 0.75),
            ],
        )
        .unwrap();
        let reply = Reply::Distribution(d.clone());
        let encoded = reply.encode();
        match round_trip_reply(&reply) {
            Reply::Distribution(back) => {
                assert_eq!(back, d);
                // Re-encoding the decoded value reproduces the bytes.
                assert_eq!(Reply::Distribution(back).encode(), encoded);
            }
            other => panic!("wrong reply {other:?}"),
        }
    }

    #[test]
    fn metrics_and_error_round_trip() {
        let d = Distribution::from_probs(3, [(bs("111"), 0.8), (bs("011"), 0.2)]).unwrap();
        let req = Request::Metrics {
            dist: d,
            correct: vec![bs("111"), bs("000")],
        };
        assert_eq!(round_trip_request(&req), req);
        let reply = Reply::Metrics(MetricsReply {
            pst: 0.8,
            ist: 0.2,
            ehd: 0.4,
            uniform_ehd: 1.5,
        });
        assert_eq!(round_trip_reply(&reply), reply);
        let err = Reply::Error("device width 300 outside 1..=128".into());
        assert_eq!(round_trip_reply(&err), err);
    }

    #[test]
    fn trace_dump_round_trips() {
        for req in [Request::TraceDump, Request::MetricsSnapshot] {
            assert_eq!(round_trip_request(&req), req);
        }
        let reply = Reply::TraceDump(vec![
            TraceDumpEntry {
                trace_id: 0xABCD,
                opcode: opcode::RECONSTRUCT,
                outcome: opcode::DISTRIBUTION,
                total_ns: 1_234_567,
                spans: vec![
                    TraceSpan {
                        stage: "decode".into(),
                        start_ns: 0,
                        dur_ns: 1_000,
                    },
                    TraceSpan {
                        stage: "compute".into(),
                        start_ns: 5_000,
                        dur_ns: 1_200_000,
                    },
                ],
            },
            TraceDumpEntry {
                trace_id: 7,
                opcode: opcode::SAMPLE_AND_RECONSTRUCT,
                outcome: opcode::DEADLINE_EXCEEDED,
                total_ns: 42,
                spans: Vec::new(),
            },
        ]);
        assert_eq!(round_trip_reply(&reply), reply);
        assert_eq!(round_trip_reply(&Reply::TraceDump(Vec::new())), {
            Reply::TraceDump(Vec::new())
        });
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        use hammer_obs::Registry;
        let reg = Registry::new();
        reg.counter("serve.requests").add(17);
        reg.gauge("serve.cache.bytes").set(-3);
        let h = reg.histogram("serve.stage.compute_ns");
        for ns in [100u64, 150, 1_000_000, u64::MAX] {
            h.record(ns);
        }
        let snap = reg.snapshot();
        let reply = Reply::MetricsSnapshot(snap.clone());
        let decoded = round_trip_reply(&reply);
        match &decoded {
            Reply::MetricsSnapshot(got) => {
                assert_eq!(got, &snap);
                assert_eq!(got.counter("serve.requests"), Some(17));
                assert_eq!(got.gauge("serve.cache.bytes"), Some(-3));
                let hist = got.histogram("serve.stage.compute_ns").unwrap();
                assert_eq!(hist.count(), 4);
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // An empty snapshot is legal (no series registered yet).
        let empty = Reply::MetricsSnapshot(hammer_obs::MetricsSnapshot::default());
        assert_eq!(round_trip_reply(&empty), empty);
        // Unknown series kinds are rejected, not panicked on.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'x');
        bad.push(9);
        assert!(matches!(
            Reply::decode(opcode::METRICS_SNAPSHOT_REPLY, &bad),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn sample_job_round_trips_every_gate_kind() {
        let mut circuit = Circuit::new(4);
        circuit
            .h(0)
            .x(1)
            .y(2)
            .z(3)
            .s(0)
            .t(1)
            .rx(2, 0.25)
            .ry(3, -0.5)
            .rz(0, 1.75)
            .cx(0, 1)
            .cz(1, 2)
            .swap(2, 3)
            .zz(0, 3, 0.375);
        circuit
            .push(Gate::Sdg(1))
            .push(Gate::Tdg(2))
            .push(Gate::SqrtX(3))
            .push(Gate::SqrtXdg(0));
        let job = SampleJob {
            circuit,
            device: DeviceSpec::IbmParis(4),
            trials: 4096,
            seed: 0xFEED,
            config: HammerConfig::paper(),
        };
        let req = Request::SampleAndReconstruct(job);
        assert_eq!(round_trip_request(&req), req);
    }

    #[test]
    fn sample_job_fingerprint_tracks_every_field() {
        let mut circuit = Circuit::new(3);
        circuit.h(0).cx(0, 1).cx(1, 2);
        let base = SampleJob {
            circuit: circuit.clone(),
            device: DeviceSpec::IbmParis(3),
            trials: 1024,
            seed: 7,
            config: HammerConfig::paper(),
        };
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut other_circuit = circuit.clone();
        other_circuit.z(2);
        for (name, changed) in [
            (
                "circuit",
                SampleJob {
                    circuit: other_circuit,
                    ..base.clone()
                },
            ),
            (
                "device",
                SampleJob {
                    device: DeviceSpec::IbmManhattan(3),
                    ..base.clone()
                },
            ),
            (
                "width",
                SampleJob {
                    device: DeviceSpec::IbmParis(4),
                    ..base.clone()
                },
            ),
            (
                "trials",
                SampleJob {
                    trials: 2048,
                    ..base.clone()
                },
            ),
            (
                "seed",
                SampleJob {
                    seed: 8,
                    ..base.clone()
                },
            ),
            (
                "config",
                SampleJob {
                    config: HammerConfig {
                        filter: FilterRule::None,
                        ..HammerConfig::paper()
                    },
                    ..base.clone()
                },
            ),
        ] {
            assert_ne!(base.fingerprint(), changed.fingerprint(), "{name}");
        }
    }

    #[test]
    fn malformed_payloads_error_instead_of_panicking() {
        // Truncated counts.
        let mut counts = Counts::new(5).unwrap();
        counts.record_n(bs("10110"), 100);
        let req = Request::Reconstruct {
            config: HammerConfig::paper(),
            counts,
        };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(opcode::RECONSTRUCT, &bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            Request::decode(opcode::RECONSTRUCT, &padded),
            Err(WireError::TrailingBytes)
        ));
        // Out-of-range circuit operand.
        let mut job_bytes = Vec::new();
        put_device(&mut job_bytes, DeviceSpec::Noiseless(2));
        put_u64(&mut job_bytes, 16);
        put_u64(&mut job_bytes, 1);
        put_config(&mut job_bytes, &HammerConfig::paper());
        put_u16(&mut job_bytes, 2); // width 2
        put_u32(&mut job_bytes, 1); // one gate
        job_bytes.push(0); // H
        put_u16(&mut job_bytes, 9); // qubit 9: out of range
        assert!(matches!(
            Request::decode(opcode::SAMPLE_AND_RECONSTRUCT, &job_bytes),
            Err(WireError::Malformed(_))
        ));
        // Unknown opcodes, including the retired `Stats` pair.
        for op in [0x05, 0x7E] {
            assert!(matches!(
                Request::decode(op, &[]),
                Err(WireError::UnknownOpcode(o)) if o == op
            ));
        }
        assert!(matches!(
            Reply::decode(0x85, &[0; 104]),
            Err(WireError::UnknownOpcode(0x85))
        ));
    }
}

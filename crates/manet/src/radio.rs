//! The wireless link model: unit-disk connectivity with a
//! bandwidth + latency + jitter delay model.
//!
//! The paper does not state radio parameters; the defaults follow common
//! 802.11b MANET-simulation practice (250 m nominal range, ~1 Mbit/s
//! effective payload rate) and are fully configurable. See DESIGN.md for the
//! substitution note.

use rand::rngs::StdRng;
use rand::Rng;

use crate::mobility::Pos;
use crate::time::SimDuration;

/// Per-frame energy model, after the point-to-point 802.11 measurements of
/// Feeney & Nilsson (INFOCOM 2001): linear in frame size with a fixed
/// per-frame component, different for send and receive. The paper motivates
/// its techniques with the devices' energy constraints; this model makes
/// the saving measurable.
#[derive(Debug, Clone, Copy)]
pub struct EnergyConfig {
    /// Energy to transmit one byte (µJ).
    pub tx_uj_per_byte: f64,
    /// Fixed per-transmission cost (µJ).
    pub tx_fixed_uj: f64,
    /// Energy to receive one byte (µJ).
    pub rx_uj_per_byte: f64,
    /// Fixed per-reception cost (µJ).
    pub rx_fixed_uj: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            tx_uj_per_byte: 1.9,
            tx_fixed_uj: 450.0,
            rx_uj_per_byte: 0.5,
            rx_fixed_uj: 350.0,
        }
    }
}

impl EnergyConfig {
    /// Joules to transmit a frame of `bytes` bytes.
    pub fn tx_joules(&self, bytes: usize) -> f64 {
        (self.tx_fixed_uj + self.tx_uj_per_byte * bytes as f64) * 1e-6
    }

    /// Joules to receive a frame of `bytes` bytes.
    pub fn rx_joules(&self, bytes: usize) -> f64 {
        (self.rx_fixed_uj + self.rx_uj_per_byte * bytes as f64) * 1e-6
    }
}

/// Radio and link-layer parameters.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Transmission range (m). Two nodes are neighbours iff within range.
    pub range_m: f64,
    /// Effective payload bandwidth (bits/s).
    pub bandwidth_bps: f64,
    /// Fixed per-frame latency (propagation + MAC overhead).
    pub latency: SimDuration,
    /// Uniform extra delay in `[0, jitter)` modelling MAC contention.
    pub jitter: SimDuration,
    /// Independent per-frame loss probability (besides range failures).
    pub loss_probability: f64,
    /// Energy accounting model.
    pub energy: EnergyConfig,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            range_m: 250.0,
            bandwidth_bps: 1.0e6,
            latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_micros(500),
            loss_probability: 0.0,
            energy: EnergyConfig::default(),
        }
    }
}

impl RadioConfig {
    /// `true` when two positions can hear each other.
    #[inline]
    pub fn in_range(&self, a: Pos, b: Pos) -> bool {
        a.dist2(b) <= self.range_m * self.range_m
    }

    /// Air time for a frame of `bytes` bytes, including jitter.
    pub fn tx_delay(&self, bytes: usize, rng: &mut StdRng) -> SimDuration {
        let serialization = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps);
        let jitter = if self.jitter.0 > 0 {
            SimDuration(rng.random_range(0..self.jitter.0))
        } else {
            SimDuration::ZERO
        };
        self.latency + serialization + jitter
    }

    /// `true` when the frame is dropped by random loss.
    pub fn lost(&self, rng: &mut StdRng) -> bool {
        self.loss_probability > 0.0 && rng.random_range(0.0..1.0) < self.loss_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn range_check_is_symmetric() {
        let r = RadioConfig::default();
        let a = Pos::new(0.0, 0.0);
        let b = Pos::new(250.0, 0.0);
        let c = Pos::new(250.1, 0.0);
        assert!(r.in_range(a, b) && r.in_range(b, a));
        assert!(!r.in_range(a, c));
    }

    #[test]
    fn tx_delay_scales_with_size() {
        let cfg = RadioConfig { jitter: SimDuration::ZERO, ..RadioConfig::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let small = cfg.tx_delay(100, &mut rng);
        let large = cfg.tx_delay(10_000, &mut rng);
        assert!(large > small);
        // 10 kB at 1 Mbit/s = 80 ms + 2 ms latency.
        assert_eq!(large.as_secs_f64(), 0.082);
    }

    #[test]
    fn jitter_bounded() {
        let cfg = RadioConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = cfg.tx_delay(0, &mut rng);
            assert!(d >= cfg.latency);
            assert!(d < cfg.latency + cfg.jitter);
        }
    }

    #[test]
    fn loss_probability_zero_never_drops() {
        let cfg = RadioConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..1000).all(|_| !cfg.lost(&mut rng)));
    }

    #[test]
    fn unit_disk_frame_reception_equals_range() {
        // Frames arrive iff the receiver is in range: the engine's only
        // reception gate besides the loss roll.
        let cfg = RadioConfig::default();
        let a = Pos::new(0.0, 0.0);
        assert!(cfg.in_range(a, Pos::new(249.0, 0.0)));
        assert!(!cfg.in_range(a, Pos::new(251.0, 0.0)));
    }

    #[test]
    fn loss_probability_one_always_drops() {
        let cfg = RadioConfig { loss_probability: 1.0, ..RadioConfig::default() };
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| cfg.lost(&mut rng)));
    }
}

//! The pacing clock: how far the live session is allowed to advance.
//!
//! The engine itself has no notion of wall time — [`ClusterSession`]
//! moves only when `step_until` is called. The control plane derives
//! the target from a [`ServeClock`]:
//!
//! - **Wall**: simulated time tracks wall time at a fixed rate
//!   (`MUDI_SERVE_PACE` simulated seconds per wall second). The binary
//!   uses this; a pacer thread plus every request handler pull the
//!   session up to `target_now`.
//! - **Virtual**: simulated time is a counter advanced explicitly via
//!   `POST /admin/clock`. Tests and scripted drivers use this — two
//!   identical request sequences see identical simulated clocks, so
//!   responses replay byte-for-byte.
//!
//! [`ClusterSession`]: cluster::engine::ClusterSession

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use simcore::{SimDuration, SimTime};

/// Returned by [`ServeClock::advance`] on a wall clock: wall time
/// cannot be skipped (the HTTP layer maps this to `409`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallClockImmutable;

/// The two pacing modes. See the module docs.
pub enum ServeClock {
    /// Simulated seconds advance at `pace` × wall seconds since `epoch`.
    Wall {
        /// Simulated seconds per wall second (> 0).
        pace: f64,
        /// Wall instant that maps to simulated time zero.
        epoch: Instant,
    },
    /// Simulated time advances only on explicit [`ServeClock::advance`].
    Virtual {
        /// Current simulated time, microseconds.
        micros: AtomicU64,
    },
}

impl ServeClock {
    /// A wall-paced clock starting now. `pace` is clamped positive;
    /// pass [`ServeClock::frozen`] for a non-advancing clock instead of
    /// pace 0.
    pub fn wall(pace: f64) -> Self {
        ServeClock::Wall {
            pace: pace.max(1e-9),
            epoch: Instant::now(),
        }
    }

    /// A virtual clock at simulated time zero.
    pub fn frozen() -> Self {
        ServeClock::Virtual {
            micros: AtomicU64::new(0),
        }
    }

    /// Whether this clock only moves on explicit [`ServeClock::advance`].
    pub fn is_virtual(&self) -> bool {
        matches!(self, ServeClock::Virtual { .. })
    }

    /// The simulated time the session should be stepped up to.
    pub fn target_now(&self) -> SimTime {
        match self {
            ServeClock::Wall { pace, epoch } => {
                SimTime::from_secs(epoch.elapsed().as_secs_f64() * pace)
            }
            ServeClock::Virtual { micros } => {
                SimTime::from_secs(micros.load(Ordering::SeqCst) as f64 / 1e6)
            }
        }
    }

    /// Advances a virtual clock by `delta` and returns the new target.
    /// The counter saturates at `u64::MAX` microseconds, so the clock
    /// never moves backward however large the advances. Fails on a
    /// wall clock — wall time cannot be skipped.
    pub fn advance(&self, delta: SimDuration) -> Result<SimTime, WallClockImmutable> {
        match self {
            ServeClock::Wall { .. } => Err(WallClockImmutable),
            ServeClock::Virtual { micros } => {
                // `as` saturates an out-of-range float at `u64::MAX`.
                let add = (delta.as_secs().max(0.0) * 1e6).round() as u64;
                let step = |m: u64| m.saturating_add(add);
                let old = micros
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |m| Some(step(m)))
                    .unwrap_or_else(|m| m);
                Ok(SimTime::from_secs(step(old) as f64 / 1e6))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_moves_only_on_advance() {
        let clock = ServeClock::frozen();
        assert!(clock.is_virtual());
        assert_eq!(clock.target_now(), SimTime::ZERO);
        let t = clock.advance(SimDuration::from_secs(12.5)).unwrap();
        assert_eq!(t, SimTime::from_secs(12.5));
        assert_eq!(clock.target_now(), SimTime::from_secs(12.5));
        // Advances accumulate.
        clock.advance(SimDuration::from_secs(0.5)).unwrap();
        assert_eq!(clock.target_now(), SimTime::from_secs(13.0));
    }

    #[test]
    fn wall_clock_rejects_explicit_advance() {
        let clock = ServeClock::wall(60.0);
        assert!(!clock.is_virtual());
        assert!(clock.advance(SimDuration::from_secs(1.0)).is_err());
    }

    #[test]
    fn wall_clock_scales_elapsed_time() {
        let clock = ServeClock::wall(3600.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t = clock.target_now().as_secs();
        // 20ms wall at 3600× is 72 simulated seconds; allow generous
        // scheduling slack in both directions.
        assert!(t >= 36.0, "target {t} too small");
        assert!(t < 3600.0, "target {t} absurdly large");
    }
}

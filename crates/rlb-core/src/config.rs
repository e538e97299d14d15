//! Simulation configuration: the model parameters of §2.

/// How arrivals and processing interleave within a time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// All of the step's requests are routed first, then every queue
    /// class drains its full per-step rate. The natural systems reading
    /// of the model.
    EndOfStep,
    /// The step is divided into `g` *sub-steps*: `⌈requests/g⌉` arrivals
    /// are routed, then every server consumes one request (per the §3
    /// analysis, which works at sub-step granularity).
    Interleaved,
}

/// Parameters of the simulated cluster (the paper's `m, n, d, g, q`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of servers `m`.
    pub num_servers: usize,
    /// Number of chunks `n` in the data universe.
    pub num_chunks: usize,
    /// Replication degree `d` (each chunk lives on `d` distinct servers).
    pub replication: usize,
    /// Per-server processing rate `g` (requests consumed per time step,
    /// summed across queue classes).
    pub process_rate: u32,
    /// Queue capacity `q`. For single-queue policies this is the queue
    /// length; multi-queue policies (delayed cuckoo routing) interpret it
    /// per class.
    pub queue_capacity: u32,
    /// Flush interval: every this many steps, all queues voluntarily
    /// reject their contents (the greedy algorithm's `m^c`-step reset).
    /// `None` disables flushing.
    pub flush_interval: Option<u64>,
    /// Arrival/drain interleaving.
    pub drain_mode: DrainMode,
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
    /// Record a backlog snapshot and safety check every this many steps
    /// (`None` = never; 1 = every step).
    pub safety_check_every: Option<u64>,
}

impl SimConfig {
    /// A baseline configuration for `m` servers: `n = 4m` chunks,
    /// `d = 2`, `g = 8`, `q = log2(m)+1`, end-of-step drain, no flush.
    pub fn baseline(num_servers: usize) -> Self {
        let q = log_capacity(num_servers);
        Self {
            safety_check_every: Some(1),
            ..Self::explicit(num_servers, 2.min(num_servers), 8, q)
        }
    }

    /// Configuration for Theorem 3.1 (greedy): replication `d`, rate `g`,
    /// `q = log2(m)+1`, interleaved drain, flushes every `m^c` steps
    /// (capped to keep runs finite; the cap does not change behaviour for
    /// runs shorter than the interval).
    pub fn greedy_theorem(num_servers: usize, d: usize, g: u32, c: f64) -> Self {
        let flush = (num_servers as f64).powf(c).min(1e12) as u64;
        Self {
            flush_interval: Some(flush.max(1)),
            drain_mode: DrainMode::Interleaved,
            safety_check_every: Some(1),
            ..Self::explicit(num_servers, d, g, log_capacity(num_servers))
        }
    }

    /// Configuration for Theorem 4.3 (delayed cuckoo routing): `d = 2`,
    /// rate `g` (split across the four queue classes), per-class capacity
    /// `q = max(4, mult · ⌈log2 log2 m⌉)`.
    pub fn dcr_theorem(num_servers: usize, g: u32, q_mult: u32) -> Self {
        let loglog = (num_servers.max(4) as f64).log2().log2().ceil().max(1.0) as u32;
        Self {
            safety_check_every: Some(1),
            ..Self::explicit(num_servers, 2, g, q_mult.saturating_mul(loglog).max(4))
        }
    }

    /// The model's four parameters spelled out — `m` servers, degree
    /// `d`, rate `g`, capacity `q` — over `n = 4m` chunks with
    /// end-of-step drain, no flush and no safety sampling: the point
    /// the ablations and extensions start from.
    pub fn explicit(num_servers: usize, d: usize, g: u32, q: u32) -> Self {
        Self {
            num_servers,
            num_chunks: num_servers.saturating_mul(4),
            replication: d,
            process_rate: g,
            queue_capacity: q,
            flush_interval: None,
            drain_mode: DrainMode::EndOfStep,
            seed: 0,
            safety_check_every: None,
        }
    }

    /// Sub-steps per time step: `g` under [`DrainMode::Interleaved`],
    /// one under [`DrainMode::EndOfStep`].
    pub(crate) fn substeps(&self) -> usize {
        match self.drain_mode {
            DrainMode::EndOfStep => 1,
            DrainMode::Interleaved => self.process_rate.max(1) as usize,
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_servers == 0 {
            return Err("num_servers must be positive".into());
        }
        if self.num_chunks == 0 {
            return Err("num_chunks must be positive".into());
        }
        if self.num_chunks as u64 > 1 << 32 {
            return Err(format!(
                "num_chunks must be at most 2^32 (chunk ids are u32), got {}",
                self.num_chunks
            ));
        }
        if self.replication == 0 {
            return Err("replication must be positive".into());
        }
        if self.replication > self.num_servers {
            return Err(format!(
                "replication {} exceeds num_servers {}",
                self.replication, self.num_servers
            ));
        }
        if self.replication > rlb_hash::placement::MAX_REPLICATION {
            return Err(format!(
                "replication {} exceeds supported maximum {}",
                self.replication,
                rlb_hash::placement::MAX_REPLICATION
            ));
        }
        if self.process_rate == 0 {
            return Err("process_rate must be positive (g >= 1)".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        if self.flush_interval == Some(0) {
            return Err("flush_interval must be positive when set".into());
        }
        if self.safety_check_every == Some(0) {
            return Err("safety_check_every must be positive when set".into());
        }
        Ok(())
    }
}

/// `q = ⌈log2 m⌉ + 1`, the queue capacity of Theorem 3.1.
fn log_capacity(num_servers: usize) -> u32 {
    ((num_servers.max(2) as f64).log2().ceil() as u32).saturating_add(1)
}

rlb_json::json_unit_enum!(DrainMode {
    EndOfStep,
    Interleaved
});
rlb_json::json_struct!(SimConfig {
    num_servers,
    num_chunks,
    replication,
    process_rate,
    queue_capacity,
    flush_interval,
    drain_mode,
    seed,
    safety_check_every,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        for m in [1usize, 2, 16, 1024] {
            SimConfig::baseline(m).validate().unwrap();
        }
    }

    #[test]
    fn theorem_constructors_are_valid() {
        SimConfig::greedy_theorem(256, 4, 8, 1.5)
            .validate()
            .unwrap();
        SimConfig::dcr_theorem(256, 8, 2).validate().unwrap();
    }

    #[test]
    fn queue_capacity_tracks_log_m() {
        let small = SimConfig::baseline(16);
        let large = SimConfig::baseline(1 << 16);
        assert_eq!(small.queue_capacity, 5);
        assert_eq!(large.queue_capacity, 17);
    }

    #[test]
    fn dcr_capacity_tracks_loglog_m() {
        let small = SimConfig::dcr_theorem(16, 8, 2);
        let large = SimConfig::dcr_theorem(1 << 16, 8, 2);
        assert_eq!(small.queue_capacity, 4); // 2 * ceil(log2 log2 16) = 4
        assert_eq!(large.queue_capacity, 8); // 2 * 4
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SimConfig::baseline(8);
        c.replication = 9;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline(8);
        c.process_rate = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline(8);
        c.flush_interval = Some(0);
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline(8);
        c.num_chunks = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline(8);
        c.num_chunks = 1 << 32;
        assert!(c.validate().is_ok());
        c.num_chunks += 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::baseline(8).with_seed(7);
        assert_eq!(c.seed, 7);
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn config_json_round_trip() {
        let cfg = SimConfig::greedy_theorem(512, 4, 8, 1.5).with_seed(99);
        let json = rlb_json::to_string(&cfg);
        let back: SimConfig = rlb_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert!(json.contains("\"num_servers\":512"));
    }

    #[test]
    fn drain_mode_variants_serialize_distinctly() {
        let a = rlb_json::to_string(&DrainMode::EndOfStep);
        let b = rlb_json::to_string(&DrainMode::Interleaved);
        assert_ne!(a, b);
    }
}

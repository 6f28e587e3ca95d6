//! Output checks: every simulated op is compared with the fingerprint
//! recorded for it (when its result does not depend on the seed, or the
//! seed is the default one), with its own seed-independent invariants, and
//! with the result the same op produced earlier in the run. Per-pass
//! deterministic counters must repeat exactly across warm passes.

use std::collections::HashMap;

/// Seed whose seed-dependent results (paging frame allocation, serving
/// arrival traces) are fingerprinted.
pub const DEFAULT_SEED: u64 = 1;

/// One checked unit of work: a simulated GEMM, a pass-cost entry, or a
/// serving load point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    pub key: String,
    /// Deterministic simulated outputs (see `fingerprints.txt`).
    pub values: Vec<u64>,
    /// The result depends on the workload seed: it is compared with the
    /// recorded fingerprint only under [`DEFAULT_SEED`].
    pub seed_dependent: bool,
    /// A broken seed-independent invariant, if any.
    pub violation: Option<String>,
}

/// Recorded outputs by op key.
pub struct Fingerprints(HashMap<String, Vec<u64>>);

impl Fingerprints {
    /// The table recorded from the simulator this benchmark was written
    /// against (`--record-fingerprints` regenerates it).
    pub fn recorded() -> Self {
        Self::parse(include_str!("../fingerprints.txt")).expect("fingerprints.txt parses")
    }

    /// Lines of `key v1 v2 ...`; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut fields = line.split_whitespace();
            let key = fields.next().expect("non-empty line").to_string();
            let values = fields
                .map(|v| v.parse::<u64>().map_err(|e| format!("{key}: {v}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            if map.insert(key.clone(), values).is_some() {
                return Err(format!("duplicate fingerprint {key}"));
            }
        }
        Ok(Self(map))
    }

    pub fn get(&self, key: &str) -> Option<&[u64]> {
        self.0.get(key).map(Vec::as_slice)
    }

    /// One fingerprint line per op.
    pub fn format(ops: &[OpResult]) -> String {
        ops.iter()
            .map(|op| {
                let vals: Vec<String> = op.values.iter().map(u64::to_string).collect();
                format!("{} {}\n", op.key, vals.join(" "))
            })
            .collect()
    }
}

/// Running tally of ops attempted and failed.
pub struct Checker {
    fingerprints: Fingerprints,
    default_seed: bool,
    /// First result seen for each op key in this run.
    seen: HashMap<String, Vec<u64>>,
    /// Deterministic counters of the first warm pass.
    warm_counters: Option<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons (printed to stderr).
    pub reasons: Vec<String>,
}

impl Checker {
    pub fn new(fingerprints: Fingerprints, seed: u64) -> Self {
        Self {
            fingerprints,
            default_seed: seed == DEFAULT_SEED,
            seen: HashMap::new(),
            warm_counters: None,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// Check one pass's ops. `counters` are the pass's deterministic
    /// per-layer counters; on a warm pass they must equal the first warm
    /// pass's, or every op of the pass counts as failed.
    pub fn check_pass(&mut self, ops: &[OpResult], counters: &[u64], warm: bool) {
        let mut pass_fault = None;
        if warm {
            match &self.warm_counters {
                None => self.warm_counters = Some(counters.to_vec()),
                Some(first) if first != counters => {
                    pass_fault = Some(format!("warm-pass counters {counters:?} != {first:?}"));
                }
                Some(_) => {}
            }
        }
        for op in ops {
            self.attempted += 1;
            let fault = pass_fault.clone().or_else(|| self.op_fault(op));
            if let Some(reason) = fault {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(format!("{}: {reason}", op.key));
                }
            }
        }
    }

    fn op_fault(&mut self, op: &OpResult) -> Option<String> {
        if let Some(v) = &op.violation {
            return Some(v.clone());
        }
        if !op.seed_dependent || self.default_seed {
            match self.fingerprints.get(&op.key) {
                None => return Some("no recorded fingerprint".into()),
                Some(fp) if fp != op.values.as_slice() => {
                    return Some(format!("{:?} != recorded {fp:?}", op.values));
                }
                Some(_) => {}
            }
        }
        match self.seen.get(&op.key) {
            Some(first) if *first != op.values => {
                Some(format!("{:?} != earlier {first:?} in this run", op.values))
            }
            Some(_) => None,
            None => {
                self.seen.insert(op.key.clone(), op.values.clone());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(key: &str, values: &[u64], seed_dependent: bool) -> OpResult {
        OpResult {
            key: key.into(),
            values: values.to_vec(),
            seed_dependent,
            violation: None,
        }
    }

    fn table() -> Fingerprints {
        Fingerprints::parse("# comment\n\na 1 2 3\nb 7\n").unwrap()
    }

    #[test]
    fn parse_round_trips_format() {
        let ops = [op("a", &[1, 2, 3], false), op("b", &[7], false)];
        let fp = Fingerprints::parse(&Fingerprints::format(&ops)).unwrap();
        assert_eq!(fp.get("a"), Some(&[1, 2, 3][..]));
        assert_eq!(fp.get("b"), Some(&[7][..]));
        assert!(Fingerprints::parse("a 1\na 2\n").is_err());
        assert!(Fingerprints::parse("a x\n").is_err());
    }

    #[test]
    fn matching_ops_pass() {
        let mut c = Checker::new(table(), DEFAULT_SEED);
        c.check_pass(
            &[op("a", &[1, 2, 3], false), op("b", &[7], true)],
            &[],
            false,
        );
        assert_eq!((c.attempted, c.failed), (2, 0));
    }

    #[test]
    fn a_perturbed_fingerprint_value_fails_the_op() {
        let mut c = Checker::new(table(), DEFAULT_SEED);
        c.check_pass(
            &[op("a", &[1, 2, 4], false), op("b", &[7], false)],
            &[],
            false,
        );
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.reasons[0].starts_with("a:"), "{:?}", c.reasons);
    }

    #[test]
    fn seed_dependent_ops_skip_the_fingerprint_on_other_seeds() {
        let mut c = Checker::new(table(), DEFAULT_SEED + 1);
        c.check_pass(&[op("b", &[8], true), op("new", &[1], true)], &[], false);
        assert_eq!(c.failed, 0);
        // ... but a seed-independent op is always fingerprinted.
        c.check_pass(&[op("a", &[0], false)], &[], false);
        assert_eq!(c.failed, 1);
        // ... and a missing fingerprint for one is a failure too.
        c.check_pass(&[op("missing", &[0], false)], &[], false);
        assert_eq!(c.failed, 2);
    }

    #[test]
    fn results_must_repeat_within_a_run() {
        let mut c = Checker::new(table(), DEFAULT_SEED + 1);
        c.check_pass(&[op("x", &[5], true)], &[], false);
        c.check_pass(&[op("x", &[6], true)], &[], false);
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn violations_and_counter_drift_fail_ops() {
        let mut c = Checker::new(table(), DEFAULT_SEED);
        let mut bad = op("a", &[1, 2, 3], false);
        bad.violation = Some("served + rejected != offered".into());
        c.check_pass(&[bad], &[], false);
        assert_eq!(c.failed, 1);
        c.check_pass(&[op("a", &[1, 2, 3], false)], &[10, 20], true);
        c.check_pass(&[op("a", &[1, 2, 3], false)], &[10, 20], true);
        assert_eq!(c.failed, 1);
        c.check_pass(
            &[op("a", &[1, 2, 3], false), op("b", &[7], false)],
            &[10, 21],
            true,
        );
        assert_eq!((c.attempted, c.failed), (5, 3));
    }
}

//! The three workloads and their analyst scripts.
//!
//! A script is one analyst's exploration of one session, request by
//! request. Scripts are a pure function of `(workload, seed, index)`:
//! the benchmark draws them from its own splitmix64 stream, never from the
//! program's RNG, so a change to the program cannot change its inputs.
//! Selections are whole label classes, as in the paper's use cases.

/// One HTTP endpoint a script step calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// `POST /api/sessions`
    Create,
    /// `POST /api/sessions/{id}/knowledge`
    Knowledge,
    /// `POST /api/sessions/{id}/update`
    Update,
    /// `POST /api/sessions/{id}/view`
    View,
    /// `GET /api/sessions/{id}/snapshot`
    Snapshot,
    /// `POST /api/sessions/{id}/suggest`
    Suggest,
}

impl Endpoint {
    /// Every endpoint a script can call, in report order.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Create,
        Endpoint::Knowledge,
        Endpoint::Update,
        Endpoint::View,
        Endpoint::Snapshot,
        Endpoint::Suggest,
    ];

    /// Lower-case name used in metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Create => "create",
            Endpoint::Knowledge => "knowledge",
            Endpoint::Update => "update",
            Endpoint::View => "view",
            Endpoint::Snapshot => "snapshot",
            Endpoint::Suggest => "suggest",
        }
    }

    /// HTTP method.
    pub fn method(self) -> &'static str {
        match self {
            Endpoint::Snapshot => "GET",
            _ => "POST",
        }
    }

    /// Request path for a session (`id` is ignored by create).
    pub fn path(self, id: &str) -> String {
        match self {
            Endpoint::Create => "/api/sessions".to_string(),
            other => format!("/api/sessions/{id}/{}", other.as_str()),
        }
    }
}

/// One request of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Endpoint called.
    pub endpoint: Endpoint,
    /// JSON request body (empty for `GET`).
    pub body: String,
    /// Feedback round this step belongs to: knowledge → update → view.
    pub round: Option<usize>,
}

/// One analyst's exploration of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Requests in order; the first one creates the session.
    pub steps: Vec<Step>,
    /// Label classes selected, in order (the script's selections).
    pub classes: Vec<usize>,
}

/// Suggest request shape the scripts use.
#[derive(Debug, Clone, Copy)]
pub struct SuggestShape {
    /// Candidate batch.
    pub batch: usize,
    /// Ranked suggestions returned.
    pub k: usize,
}

/// A workload: the data, the server layout, the client count and the
/// script shape.
#[derive(Debug)]
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Builtin dataset the scripts explore.
    pub dataset: &'static str,
    /// Rows of the dataset.
    pub n: usize,
    /// Columns of the dataset.
    pub d: usize,
    /// Classes of label set 0.
    pub classes: usize,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Server stripes.
    pub stripes: usize,
    /// Pool threads per stripe.
    pub pool_threads: usize,
    /// First knowledge statement of every script.
    pub opening: &'static str,
    /// Class rounds per script; each ends with `GET snapshot`.
    pub class_rounds: usize,
    /// Suggest before each class round.
    pub suggest_per_round: Option<SuggestShape>,
    /// Suggest once at the end of the script.
    pub suggest_at_end: Option<SuggestShape>,
    /// Measured scripts per connection for each second of `--seconds`,
    /// sized so that the measured phase lasts about `--seconds` on a
    /// 2-core x86-64 host. The amount of work is fixed by this number,
    /// not by a timer, so every run of a seed does the same work.
    pub scripts_per_second: f64,
    /// Blocks the measured phase is cut into. Every connection runs the
    /// same scripts per block and blocks start together; each timing is
    /// the median of its per-block values, so a stall from outside the
    /// benchmark (another tenant's disk flush, say) that hits fewer than
    /// half the blocks does not move it. Only a workload with enough
    /// requests per block for a steady per-block tail is cut.
    pub blocks: usize,
    /// Whether each block runs on a server of its own, set up right
    /// before the block and given one round of restarts right after it,
    /// instead of every block on the last set-up's server followed by
    /// repeated rounds of restarts. A compute-bound workload's few
    /// requests and long restarts are then spread over the whole run,
    /// not a few seconds of it. The blocks are too small for statistics
    /// of their own, so their requests are pooled; peak RSS is read
    /// after the first block.
    pub server_per_block: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-fig2",
        dataset: "fig2",
        n: 150,
        d: 3,
        classes: 4,
        connections: 2,
        stripes: 2,
        pool_threads: 1,
        opening: "one-cluster",
        class_rounds: 3,
        suggest_per_round: None,
        suggest_at_end: Some(SuggestShape { batch: 64, k: 8 }),
        scripts_per_second: 70.0,
        blocks: 10,
        server_per_block: false,
    },
    Workload {
        name: "loop-bnc",
        dataset: "bnc",
        n: 1335,
        d: 100,
        classes: 4,
        // Two analysts on one pool thread each, not one analyst on a
        // 2-thread pool. On a 2-vCPU shared host each vCPU has slow
        // spells of some seconds to a minute, and a 2-thread pool only
        // gets its second core after seconds of sustained two-core load:
        // one analyst's suggest median ran from about 60 to 150 ms across
        // runs, its feedback median from 245 to 375 ms. Two serial
        // analysts keep both vCPUs busy, so every run samples both.
        connections: 2,
        stripes: 2,
        pool_threads: 1,
        opening: "margin",
        class_rounds: 4,
        suggest_per_round: Some(SuggestShape { batch: 16, k: 8 }),
        suggest_at_end: None,
        // 4 blocks × 1 script × 2 connections: 8 scripts, every class at
        // every position exactly twice.
        scripts_per_second: 0.4,
        blocks: 4,
        server_per_block: true,
    },
    Workload {
        name: "guide-seg",
        dataset: "segmentation",
        n: 2310,
        d: 19,
        classes: 7,
        connections: 2,
        stripes: 2,
        pool_threads: 1,
        opening: "one-cluster",
        class_rounds: 3,
        suggest_per_round: Some(SuggestShape { batch: 64, k: 8 }),
        suggest_at_end: None,
        // 7 scripts × 2 connections: 14, every class at every position
        // exactly twice, so the mix of fits a run pays for is the same
        // for every seed.
        scripts_per_second: 0.7,
        blocks: 1,
        server_per_block: false,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Measured scripts each connection runs per block in a run of
    /// `seconds`.
    pub fn scripts_per_block(&self, seconds: u64) -> usize {
        ((self.scripts_per_second * seconds as f64 / self.blocks as f64).round() as usize).max(1)
    }

    /// Measured scripts each connection runs in a run of `seconds`.
    pub fn scripts_per_connection(&self, seconds: u64) -> usize {
        self.blocks * self.scripts_per_block(seconds)
    }

    /// Script `index` of this workload under `seed`.
    ///
    /// The seed picks one order of the label classes; script `index`
    /// selects its classes from that order rotated by `index`. Over as
    /// many scripts as there are classes, every class then comes at every
    /// position once, so the fits a run pays for hardly depend on the
    /// seed while the order still does.
    pub fn script(&self, seed: u64, index: u64) -> Script {
        let salted = mix(seed ^ fnv1a(self.name.as_bytes()));
        let order = SplitMix::new(salted).permutation(self.classes);
        let classes: Vec<usize> = (0..self.class_rounds)
            .map(|i| order[(index as usize + i) % self.classes])
            .collect();
        let mut rng = SplitMix::new(mix(salted ^ index));
        let session_seed = rng.below(1_000_000);
        let mut steps = vec![Step {
            endpoint: Endpoint::Create,
            body: format!(
                "{{\"dataset\":\"{}\",\"seed\":{session_seed}}}",
                self.dataset
            ),
            round: None,
        }];
        let round = |steps: &mut Vec<Step>, r: usize, knowledge: String| {
            for (endpoint, body) in [
                (Endpoint::Knowledge, knowledge),
                (Endpoint::Update, "{}".to_string()),
                (Endpoint::View, "{}".to_string()),
            ] {
                steps.push(Step {
                    endpoint,
                    body,
                    round: Some(r),
                });
            }
        };
        round(&mut steps, 0, format!("{{\"kind\":\"{}\"}}", self.opening));
        let suggest = |steps: &mut Vec<Step>, shape: SuggestShape, rng: &mut SplitMix| {
            steps.push(Step {
                endpoint: Endpoint::Suggest,
                body: format!(
                    "{{\"seed\":{},\"batch\":{},\"k\":{}}}",
                    rng.below(1_000_000),
                    shape.batch,
                    shape.k
                ),
                round: None,
            });
        };
        for (i, &class) in classes.iter().enumerate() {
            if let Some(shape) = self.suggest_per_round {
                suggest(&mut steps, shape, &mut rng);
            }
            round(
                &mut steps,
                i + 1,
                format!("{{\"kind\":\"cluster\",\"label_set\":0,\"class\":{class}}}"),
            );
            steps.push(Step {
                endpoint: Endpoint::Snapshot,
                body: String::new(),
                round: None,
            });
        }
        if let Some(shape) = self.suggest_at_end {
            suggest(&mut steps, shape, &mut rng);
        }
        Script { steps, classes }
    }
}

/// splitmix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continue an FNV-1a 64 hash with more bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The benchmark's own generator (splitmix64).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator at `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform integer in `0..n` (`n > 0`; the modulo bias is far below
    /// anything the scripts could notice).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_a_pure_function_of_workload_seed_and_index() {
        for w in &WORKLOADS {
            for index in 0..8 {
                assert_eq!(w.script(11, index), w.script(11, index), "{}", w.name);
            }
            let a: Vec<Script> = (0..8).map(|i| w.script(11, i)).collect();
            let b: Vec<Script> = (0..8).map(|i| w.script(12, i)).collect();
            assert_ne!(a, b, "{}: a second seed must change the scripts", w.name);
        }
    }

    #[test]
    fn a_run_of_as_many_scripts_as_classes_puts_every_class_at_every_position() {
        for w in &WORKLOADS {
            for position in 0..w.class_rounds {
                let mut seen: Vec<usize> = (0..w.classes as u64)
                    .map(|i| w.script(17, 100 + i).classes[position])
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..w.classes).collect::<Vec<_>>(), "{}", w.name);
            }
        }
    }

    #[test]
    fn measured_scripts_at_ten_seconds_are_whole_class_rotations() {
        // Measured script indices are contiguous, so a multiple of the
        // class count puts every class at every position equally often.
        for w in &WORKLOADS {
            let scripts = w.connections * w.scripts_per_connection(10);
            assert_eq!(scripts % w.classes, 0, "{}: {scripts} scripts", w.name);
        }
    }

    #[test]
    fn scripts_follow_the_workload_shape() {
        for w in &WORKLOADS {
            let s = w.script(3, 1);
            assert_eq!(s.steps[0].endpoint, Endpoint::Create);
            assert_eq!(s.classes.len(), w.class_rounds);
            let mut distinct = s.classes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), w.class_rounds, "classes are distinct");
            let count = |e: Endpoint| s.steps.iter().filter(|st| st.endpoint == e).count();
            assert_eq!(count(Endpoint::View), w.class_rounds + 1);
            assert_eq!(count(Endpoint::Update), w.class_rounds + 1);
            let suggests = w.suggest_per_round.map_or(0, |_| w.class_rounds)
                + usize::from(w.suggest_at_end.is_some());
            assert_eq!(count(Endpoint::Suggest), suggests);
            assert!(w.connections <= 2, "{}: at most nproc connections", w.name);
            if w.server_per_block {
                // Every block brings a set-up, and `setup_s` is a median.
                assert!(w.blocks >= crate::run::MIN_REPS, "{}", w.name);
            }
            // Rounds are knowledge → update → view, contiguous.
            for r in 0..=w.class_rounds {
                let idx: Vec<usize> = (0..s.steps.len())
                    .filter(|&i| s.steps[i].round == Some(r))
                    .collect();
                assert_eq!(idx.len(), 3);
                assert_eq!(idx[2] - idx[0], 2);
                assert_eq!(s.steps[idx[0]].endpoint, Endpoint::Knowledge);
                assert_eq!(s.steps[idx[2]].endpoint, Endpoint::View);
            }
        }
    }

    #[test]
    fn every_selection_has_more_rows_than_columns() {
        for w in &WORKLOADS {
            let body = sider_json::Json::parse(&format!("{{\"dataset\":\"{}\"}}", w.dataset))
                .expect("body");
            let ds = sider_store::ops::resolve_dataset(&body).expect("builtin dataset");
            assert_eq!((ds.n(), ds.d()), (w.n, w.d), "{}", w.name);
            let sizes = ds.labels[0].class_sizes();
            assert_eq!(sizes.len(), w.classes, "{}", w.name);
            for seed in 0..16 {
                for index in 0..4 {
                    for class in w.script(seed, index).classes {
                        assert!(
                            sizes[class] > w.d,
                            "{}: class {class} has {} rows at d={}",
                            w.name,
                            sizes[class],
                            w.d
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SplitMix::new(9);
        for n in [1, 2, 4, 7] {
            let mut p = rng.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }
}

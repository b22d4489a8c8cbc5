//! Workload generators. Every input a run feeds the program — cell sources,
//! checkout targets, view targets — is a pure function of the seed, so one
//! seed always replays the same inputs.

use kishu_testkit::rng::Rng;
use kishu_workloads::{all_notebooks, notebooks, NotebookSpec};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write-heavy: the eight Table-2 notebooks replayed side by side, every
    /// cell a durable commit.
    NotebookReplay,
    /// Read-heavy: seeded undo/redo and jumps over a session whose
    /// checkpoints are about three times the read-cache budget.
    UndoRedo,
    /// Query reads beside writes: dashboard views over a deep, branchy
    /// graph, with a durable commit after every [`VIEWS_PER_COMMIT`] views.
    Dashboard,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NotebookReplay,
        Workload::UndoRedo,
        Workload::Dashboard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NotebookReplay => "notebook-replay",
            Workload::UndoRedo => "undo-redo",
            Workload::Dashboard => "dashboard",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operation whose latency the workload reports as `op_ms.*`.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::NotebookReplay => "durable commit (run_cell + persist)",
            Workload::UndoRedo => "checkout",
            Workload::Dashboard => "view (diff + history + search)",
        }
    }

    /// Primary operations after which the figures that depend on the
    /// state a run holds are taken: peak RSS for every workload, and for
    /// `notebook-replay` also the stores whose resume time and stored bytes
    /// are measured (the other two take those on their set-up store). The
    /// loop always runs on until it is reached.
    ///
    /// For `notebook-replay` it is two whole replay rounds. The peak one
    /// round reaches depends on how the allocator reuses memory the
    /// checkpoint workers freed: over runs of one seed it was 169 MiB in
    /// most and anywhere from 149 to 181 in the rest, and the higher of two
    /// rounds is steadier. The other two take a third or less of what they
    /// fit in a 20 s budget.
    pub fn fixed_ops(self) -> usize {
        match self {
            Workload::NotebookReplay => {
                2 * replay_sessions()
                    .iter()
                    .map(|(_, cells)| cells.len() - 1)
                    .sum::<usize>()
            }
            Workload::UndoRedo => 300,
            Workload::Dashboard => 10_000,
        }
    }

    /// Highest percentile `op_ms.tail` may report; every run is extended
    /// until it has enough samples for it.
    ///
    /// A view takes tens of microseconds, so on a shared machine its p99
    /// counts the views that lost the CPU to another process: over runs of
    /// one seed it ranged 0.26–0.95 ms while p95 stayed within 4%.
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::NotebookReplay => 90.0,
            Workload::UndoRedo => 95.0,
            Workload::Dashboard => 95.0,
        }
    }
}

/// Derive an independent stream seed from the run seed and a salt.
pub fn stream(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `base`'s cells run top to bottom `times` times, as an analyst re-running
/// a notebook does.
///
/// The dashboard and replay sessions re-execute whole notebooks rather
/// than `sweeps::long_session`'s uniformly drawn cells: with random picks
/// one seed re-runs a data load five times and the next not at all, and
/// every end-to-end metric spread 20–70% from seed to seed. Seeds vary the
/// interleaving, branch points and query targets instead.
pub fn reruns(base: &NotebookSpec, times: usize) -> Vec<String> {
    (0..times)
        .flat_map(|_| base.cells.iter().map(|c| c.src.clone()))
        .collect()
}

/// One notebook session of `notebook-replay`: its name and cell sources.
pub type ReplaySession = (String, Vec<String>);

/// The eight sessions of a replay round: the Table-2 notebooks, whose
/// in-progress ones (Sklearn, Qiskit, Ray) already carry their re-executed
/// and out-of-order cells.
pub fn replay_sessions() -> Vec<ReplaySession> {
    all_notebooks(1.0)
        .iter()
        .map(|nb| (nb.name.to_string(), reruns(nb, 1)))
        .collect()
}

/// Seeded interleaving of the replay sessions: the next cell comes from the
/// session that has run the smallest share of its cells, ties broken in a
/// seeded order. Every session advances at the same pace, so wherever the
/// time budget cuts the loop, the mix of notebooks is the same.
pub struct Interleave {
    lens: Vec<usize>,
    done: Vec<usize>,
    rank: Vec<usize>,
}

impl Interleave {
    pub fn new(lens: Vec<usize>, seed: u64) -> Self {
        let mut rank: Vec<usize> = (0..lens.len()).collect();
        Rng::seed_from_u64(stream(seed, 0x1E)).shuffle(&mut rank);
        Interleave {
            done: vec![0; lens.len()],
            lens,
            rank,
        }
    }

    /// The session to advance next and the index of its cell, or `None`
    /// once every session has run all of its cells.
    pub fn next_cell(&mut self) -> Option<(usize, usize)> {
        let i = (0..self.lens.len())
            .filter(|&i| self.done[i] < self.lens[i])
            .min_by(|&a, &b| {
                let share = |i: usize| self.done[i] as f64 / self.lens[i] as f64;
                share(a)
                    .total_cmp(&share(b))
                    .then(self.rank[a].cmp(&self.rank[b]))
            })?;
        self.done[i] += 1;
        Some((i, self.done[i] - 1))
    }
}

/// Library co-variables the `undo-redo` session keeps live.
pub const UNDO_VARS: usize = 16;
/// Payload bytes of each of them.
pub const UNDO_PAYLOAD: usize = 256 * 1024;
/// Cells (and so commits) in the `undo-redo` set-up session.
pub const UNDO_CELLS: usize = 200;

/// The `undo-redo` set-up session: one cell binding all [`UNDO_VARS`]
/// library objects, then cells that each rebind two of them with fresh
/// seeds, so every commit stores distinct payloads.
pub fn undo_redo_cells(seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(stream(seed, 0x0ED0));
    let bind = |k: usize, rng: &mut Rng| {
        let s = rng.random_range(0..1_000_000_000u64);
        format!("v{k} = lib_obj('sk.KMeans', {UNDO_PAYLOAD}, {s})\n")
    };
    let mut cells = vec![(0..UNDO_VARS)
        .map(|k| bind(k, &mut rng))
        .collect::<String>()];
    while cells.len() < UNDO_CELLS {
        let a = rng.random_range(0..UNDO_VARS);
        let b = (a + 1 + rng.random_range(0..UNDO_VARS - 1)) % UNDO_VARS;
        cells.push(bind(a, &mut rng) + &bind(b, &mut rng));
    }
    cells
}

/// Seeded undo/redo itinerary over `commits` commits (indices into the
/// set-up session's commit list): 70% of steps move at most two commits
/// from the current one, 30% jump to a uniformly chosen commit.
///
/// The shares are exact in every block of ten steps, with the jumps at
/// seeded positions, and jump targets go through a seeded permutation of
/// all commits before any repeats: a jump loads far more than a step, and
/// a jump count drawn step by step moved the mean checkout cost and the
/// memory held after a fixed number of checkouts by about 10% from seed to
/// seed.
pub struct CheckoutWalk {
    rng: Rng,
    commits: usize,
    current: usize,
    /// The rest of the current block: `true` for a jump.
    block: Vec<bool>,
    /// The rest of the current permutation of jump targets.
    targets: Vec<usize>,
}

impl CheckoutWalk {
    pub fn new(seed: u64, commits: usize) -> Self {
        assert!(commits >= 3, "a walk needs room to step");
        CheckoutWalk {
            rng: Rng::seed_from_u64(stream(seed, 0xC0)),
            commits,
            current: commits - 1,
            block: Vec::new(),
            targets: Vec::new(),
        }
    }

    pub fn next_target(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..10).map(|i| i < 3).collect();
            self.rng.shuffle(&mut self.block);
        }
        let jump = self.block.pop().expect("a block has ten steps");
        let next = if !jump {
            let step = self.rng.random_range(1..3usize);
            let back = self.rng.gen_bool(0.5);
            // Reflect at either end so the step is never a no-op.
            if (back && self.current >= step) || self.current + step >= self.commits {
                self.current - step
            } else {
                self.current + step
            }
        } else {
            if self.targets.is_empty() {
                self.targets = (0..self.commits).collect();
                self.rng.shuffle(&mut self.targets);
            }
            self.targets.pop().expect("a permutation of every commit")
        };
        self.current = next;
        next
    }
}

/// Scale of the StoreSales notebook the dashboard session replays.
pub const DASH_SCALE: f64 = 0.2;
/// Times the dashboard set-up session runs the notebook.
pub const DASH_SETUP_RUNS: usize = 7;
/// The set-up session checks out an earlier commit after every this many
/// cells, so later cells branch.
pub const DASH_CHECKOUT_EVERY: usize = 50;
/// Views between two durable commits in the timed phase.
pub const VIEWS_PER_COMMIT: usize = 100;

/// Cell sources of the dashboard session and how many of them the set-up
/// runs: [`DASH_SETUP_RUNS`] runs of the notebook, then one more run, whose
/// cells each cycle of the timed phase commits, one per
/// [`VIEWS_PER_COMMIT`] views.
pub fn dashboard_cells() -> (Vec<String>, usize) {
    let base = notebooks::store_sales(DASH_SCALE);
    (
        reruns(&base, DASH_SETUP_RUNS + 1),
        base.cells.len() * DASH_SETUP_RUNS,
    )
}

/// Set-up checkouts: after the `after`-th cell, the index of the commit to
/// check out — 20 to 30 commits back, as a user stepping back to try
/// another path would. The band is narrow so that every seed's graph has
/// about the same depth.
pub fn dashboard_setup_checkouts(seed: u64, setup_cells: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::seed_from_u64(stream(seed, 0xDB));
    (DASH_CHECKOUT_EVERY..setup_cells)
        .step_by(DASH_CHECKOUT_EVERY)
        .map(|after| (after, after - rng.random_range(20..31)))
        .collect()
}

/// One dashboard view: the commit `a` whose `diff(parent(a), a)` is shown
/// (an index into the commit list) and whether it is a deep diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct View {
    pub commit: usize,
    pub deep: bool,
}

/// Seeded view targets: 70% one of the eight newest commits, else uniform;
/// one view in ten deep.
pub struct ViewPicker {
    rng: Rng,
}

impl ViewPicker {
    pub fn new(seed: u64) -> Self {
        ViewPicker {
            rng: Rng::seed_from_u64(stream(seed, 0x71E3)),
        }
    }

    pub fn next_view(&mut self, commits: usize) -> View {
        assert!(commits > 0, "views need commits");
        let commit = if self.rng.next_f64() < 0.7 {
            commits - 1 - self.rng.random_range(0..commits.min(8))
        } else {
            self.rng.random_range(0..commits)
        };
        View {
            commit,
            deep: self.rng.gen_bool(0.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(replay_sessions().len(), 8);
        let order = |seed| {
            let lens = replay_sessions().iter().map(|(_, c)| c.len()).collect();
            let mut it = Interleave::new(lens, seed);
            std::iter::from_fn(|| it.next_cell()).collect::<Vec<_>>()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));

        assert_eq!(undo_redo_cells(7), undo_redo_cells(7));
        assert_ne!(undo_redo_cells(7), undo_redo_cells(8));
        assert_eq!(undo_redo_cells(7).len(), UNDO_CELLS);

        let walk = |seed| {
            let mut w = CheckoutWalk::new(seed, UNDO_CELLS);
            (0..500).map(|_| w.next_target()).collect::<Vec<_>>()
        };
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8));
        assert!(walk(7).iter().all(|&t| t < UNDO_CELLS));

        let setup = dashboard_cells().1;
        assert_eq!(
            dashboard_setup_checkouts(7, setup),
            dashboard_setup_checkouts(7, setup)
        );
        assert_ne!(
            dashboard_setup_checkouts(7, setup),
            dashboard_setup_checkouts(8, setup)
        );
        let views = |seed| {
            let mut p = ViewPicker::new(seed);
            (0..500)
                .map(|i| p.next_view(100 + i / 100))
                .collect::<Vec<_>>()
        };
        assert_eq!(views(7), views(7));
        assert_ne!(views(7), views(8));
    }

    #[test]
    fn dashboard_branches_step_back_within_the_band() {
        let (cells, setup) = dashboard_cells();
        assert_eq!(
            setup,
            notebooks::store_sales(DASH_SCALE).cells.len() * DASH_SETUP_RUNS
        );
        assert!(cells.len() > setup);
        for (after, target) in dashboard_setup_checkouts(9, setup) {
            assert!((20..=30).contains(&(after - target)), "{after} -> {target}");
        }
    }

    #[test]
    fn interleave_keeps_sessions_at_the_same_pace() {
        let mut it = Interleave::new(vec![10, 40, 20], 3);
        let mut done = [0usize; 3];
        for _ in 0..35 {
            let (i, k) = it.next_cell().expect("cells left");
            assert_eq!(k, done[i]);
            done[i] += 1;
        }
        assert_eq!(done, [5, 20, 10]);
        assert_eq!(std::iter::from_fn(|| it.next_cell()).count(), 35);
    }

    #[test]
    fn walk_mixes_local_steps_and_jumps() {
        let mut w = CheckoutWalk::new(3, UNDO_CELLS);
        let mut prev = UNDO_CELLS - 1;
        let (mut local, mut n) = (0, 0);
        for _ in 0..2000 {
            let t = w.next_target();
            if t.abs_diff(prev) <= 2 && t != prev {
                local += 1;
            }
            n += 1;
            prev = t;
        }
        let share = local as f64 / n as f64;
        // 70% local steps, plus the jumps that happen to land within two.
        assert!((0.70..0.72).contains(&share), "local share {share}");
    }

    #[test]
    fn views_favour_the_newest_commits_and_one_in_ten_is_deep() {
        let mut p = ViewPicker::new(5);
        let views: Vec<View> = (0..5000).map(|_| p.next_view(500)).collect();
        let recent = views.iter().filter(|v| v.commit >= 492).count() as f64 / 5000.0;
        let deep = views.iter().filter(|v| v.deep).count() as f64 / 5000.0;
        assert!((0.68..0.76).contains(&recent), "recent share {recent}");
        assert!((0.08..0.12).contains(&deep), "deep share {deep}");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

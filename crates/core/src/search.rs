//! Automatic scheme search (the ROADMAP's *Automap*-style item): for one
//! kernel, evaluate `PartitionScheme × page size` through an [`Oracle`]
//! and report the best configuration.
//!
//! The search space is an [`crate::plan::ExperimentPlan`] — partition
//! schemes outermost, page sizes innermost. The winner is deterministic:
//! lowest [`Objective`] score, ties broken by fewest network messages,
//! then by enumeration order (first scheme, then smallest page-size
//! index).
//!
//! [`strategy::Searcher`]'s exhaustive walk is a branch and bound: it
//! visits page sizes smallest first and, within one, candidates by
//! ascending static score lower bound, and *prunes* a candidate whose
//! bound already exceeds the incumbent's score. The bound needs no
//! execution: one anchor profile per page size
//! ([`sa_lint::depgraph::AnchorProfile`]) is priced under each scheme
//! into the imbalance penalty of its per-PE writes
//! (`static_score_bound`) and a floor on its remote reads
//! ([`sa_lint::depgraph::AnchorProfile::fetch_floor`]). Strictness
//! preserves the exhaustive tie-breaks (a bound equal to the incumbent's
//! score still gets measured — it could tie and win on messages), and the
//! winner order is total, so the pruned walk is certified to return
//! bit-identical winners to the exhaustive parallel sweep, which stays
//! available as [`search_exhaustive_with`] (`tests/lint_static.rs`
//! certifies this across the registry).
//!
//! The default [`Objective::Balanced`] scores a candidate as
//! `remote % + weight · imbalance %`, where imbalance is derived from the
//! Jain fairness index of the per-PE write distribution. A pure remote-%
//! objective (the original behaviour, kept as [`Objective::RemoteOnly`])
//! degenerates for small kernels: a page size large enough to land the
//! whole array on one PE scores 0 % remote *because one PE does all the
//! work* — exactly the pathology the ROADMAP follow-up named.

use sa_ir::Program;
use sa_lint::LintConfig;
use sa_machine::{NetworkTopology, PartitionScheme};

use crate::oracle::{Oracle, OracleError, RunRecord};
use crate::plan::{ExperimentPlan, PlanError, RunConfig};
use crate::results::ResultSet;

pub mod strategy;

/// How candidates are scored (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Legacy objective: remote % alone. Prone to degenerate
    /// all-on-one-PE winners for kernels smaller than `n_pes × page size`.
    RemoteOnly,
    /// Remote % plus `weight × imbalance %`, where imbalance is
    /// `100 · (1 − write_balance)` ([`RunRecord::write_balance`], the Jain
    /// index of per-PE writes). A perfectly balanced candidate pays no
    /// penalty; an all-on-one-PE candidate on `n` PEs pays
    /// `weight · 100 · (1 − 1/n)`.
    Balanced {
        /// Penalty weight (the default is 1.0 via [`Objective::default`]).
        weight: f64,
    },
}

impl Default for Objective {
    /// The balanced objective at weight 1.0.
    fn default() -> Self {
        Objective::Balanced { weight: 1.0 }
    }
}

impl Objective {
    /// Score a candidate (lower wins).
    pub fn score(&self, r: &RunRecord) -> f64 {
        match *self {
            Objective::RemoteOnly => r.remote_pct,
            Objective::Balanced { weight } => {
                r.remote_pct + weight * 100.0 * (1.0 - r.write_balance)
            }
        }
    }
}

/// The space `search` enumerates, plus the fixed machine parameters every
/// candidate shares.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Candidate placement schemes.
    pub schemes: Vec<PartitionScheme>,
    /// Candidate page sizes in elements.
    pub page_sizes: Vec<usize>,
    /// Candidate interconnect topologies (innermost axis). The default is
    /// the single ideal network, which keeps the classic
    /// `scheme × page size` grid — and every winner computed over it —
    /// unchanged; [`strategy`]'s walks search a wider one.
    pub networks: Vec<NetworkTopology>,
    /// PE count every candidate runs at.
    pub n_pes: usize,
    /// Cache size (elements) every candidate runs with.
    pub cache_elems: usize,
}

impl Default for SearchSpace {
    /// The ROADMAP's default space: the paper's modulo scheme, the §9
    /// division (block) scheme, two block-cyclic hybrids, and the
    /// geometry-aware tiled placements (row bands and two square tiles),
    /// crossed with the page sizes of the §9 "selectable page size"
    /// proposal, at the reference 16-PE / 256-element-cache machine.
    fn default() -> Self {
        SearchSpace {
            schemes: vec![
                PartitionScheme::Modulo,
                PartitionScheme::Block,
                PartitionScheme::BlockCyclic { block_pages: 2 },
                PartitionScheme::BlockCyclic { block_pages: 4 },
                PartitionScheme::RowBand,
                PartitionScheme::Tile2D {
                    tile_rows: 16,
                    tile_cols: 16,
                },
                PartitionScheme::Tile2D {
                    tile_rows: 64,
                    tile_cols: 64,
                },
            ],
            page_sizes: vec![8, 16, 32, 64, 128, 256],
            networks: vec![NetworkTopology::Ideal],
            n_pes: 16,
            cache_elems: 256,
        }
    }
}

impl SearchSpace {
    /// The plan enumerating this space (schemes outermost, then page
    /// sizes, then network topologies innermost).
    pub fn plan(&self) -> ExperimentPlan {
        ExperimentPlan::new()
            .base(RunConfig {
                n_pes: self.n_pes,
                cache_elems: self.cache_elems,
                ..RunConfig::default()
            })
            .partitions(&self.schemes)
            .page_sizes(&self.page_sizes)
            .networks(&self.networks)
    }
}

/// The winning configuration of a search, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct BestConfig {
    /// Winning placement scheme.
    pub scheme: PartitionScheme,
    /// Winning page size in elements.
    pub page_size: usize,
    /// Remote % at the winner.
    pub remote_pct: f64,
    /// Network messages at the winner.
    pub messages: u64,
    /// Write-distribution Jain index at the winner (1 = balanced).
    pub write_balance: f64,
    /// The winner's objective score.
    pub score: f64,
    /// How many candidates were evaluated.
    pub evaluated: usize,
    /// How many candidates were skipped because their static score bound
    /// proved they cannot beat the incumbent (zero for exhaustive search).
    pub pruned: usize,
}

impl BestConfig {
    /// Does `candidate` beat `incumbent`? Strict ordering: objective score
    /// first, then messages; enumeration order breaks remaining ties
    /// (first wins).
    pub(crate) fn beats(
        objective: Objective,
        candidate: &RunRecord,
        incumbent: &RunRecord,
    ) -> bool {
        let (c, i) = (objective.score(candidate), objective.score(incumbent));
        if c != i {
            return c < i;
        }
        candidate.messages < incumbent.messages
    }

    /// Pick the winner out of an evaluated grid (grid order = enumeration
    /// order, so the fold is deterministic). `None` on an empty set.
    pub fn from_results(results: &ResultSet, objective: Objective) -> Option<BestConfig> {
        let mut best: Option<&RunRecord> = None;
        for r in results.records() {
            match best {
                Some(b) if !Self::beats(objective, r, b) => {}
                _ => best = Some(r),
            }
        }
        best.map(|b| BestConfig {
            scheme: b.cfg.partition,
            page_size: b.cfg.page_size,
            remote_pct: b.remote_pct,
            messages: b.messages,
            write_balance: b.write_balance,
            score: objective.score(b),
            evaluated: results.len(),
            pruned: 0,
        })
    }
}

/// A static per-PE write projection a pruning bound can be computed from
/// instead of the search's own anchor profiles: the certification tests
/// substitute [`sa_lint::depgraph::project_by_instance`]'s.
pub type WriteProjector = fn(&Program, &LintConfig) -> Option<Vec<u64>>;

/// Static lower bound on a candidate's objective score from its static
/// per-PE write counts: remote % is nonnegative, and under owner-computes
/// the per-PE write distribution is a pure function of the partition, so
/// the imbalance penalty is known without executing anything. The search
/// prices the counts from one [`sa_lint::depgraph::AnchorProfile`] per
/// page size: at 16 PEs K21's 42 bounds cost 0.84–1.14 ms after 0.7–1.1 ms
/// to build its six profiles (2-vCPU box, release) — under 0.03 ms a bound,
/// against 1.8–14 ms (median 4.7) for one uncapped replay of a K21
/// candidate. `writes` is asked only when the objective
/// carries an imbalance term. `None` when it does not or the program is
/// not statically projectable (runtime indirection) — both mean "cannot
/// prune". The bound depends on the PE count, page size and scheme only.
pub(crate) fn static_score_bound(
    objective: Objective,
    writes: impl FnOnce() -> Option<Vec<u64>>,
) -> Option<f64> {
    let Objective::Balanced { weight } = objective else {
        return None;
    };
    let writes = writes()?;
    Some(weight * 100.0 * (1.0 - sa_machine::load_balance(&writes).jain))
}

/// Search `space` for the best configuration for `kernel` without pruning:
/// the parallel exhaustive sweep every candidate is measured by. The
/// certification baseline of [`strategy::Searcher`]'s pruned walks.
pub fn search_exhaustive_with(
    kernel: &Program,
    space: &SearchSpace,
    oracle: &dyn Oracle,
    objective: Objective,
) -> Result<BestConfig, PlanError> {
    let results = space.plan().run(kernel, oracle)?;
    // A validated plan has non-empty axes, but every candidate may still
    // have been dropped as oracle-unsupported (plans fail soft per point).
    BestConfig::from_results(&results, objective).ok_or_else(|| {
        PlanError::Oracle(OracleError::Unsupported(
            "every candidate configuration was unsupported by the oracle".into(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::strategy::{Searcher, StrategyParams};
    use super::*;
    use crate::oracle::{Engine, FastCountingOracle};
    use sa_ir::index::iv;
    use sa_ir::{InitPattern, ProgramBuilder};

    /// The pruned canonical walk (`Strategy::Exhaustive`, the default).
    fn best_under(
        kernel: &Program,
        space: &SearchSpace,
        objective: Objective,
    ) -> Result<BestConfig, PlanError> {
        let params = StrategyParams {
            objective,
            ..StrategyParams::default()
        };
        let searcher = Searcher::new(
            space,
            Box::new(FastCountingOracle::with_engine(Engine::Interp)),
            params,
        )?;
        Ok(searcher.search(kernel)?.best)
    }

    fn best(kernel: &Program, space: &SearchSpace) -> Result<BestConfig, PlanError> {
        best_under(kernel, space, Objective::default())
    }

    /// A first-difference-style kernel (X[k] = Y[k+1] - Y[k]): Skewed, so
    /// larger pages and blockier schemes reduce boundary crossings.
    fn skewed(n: usize) -> Program {
        let mut b = ProgramBuilder::new("sk");
        let y = b.input("Y", &[n + 1], InitPattern::Wavy);
        let x = b.output("X", &[n]);
        b.nest("s", &[("k", 0, n as i64 - 1)], |nb| {
            nb.assign(
                x,
                [iv(0)],
                nb.read(y, [iv(0).plus(1)]) - nb.read(y, [iv(0)]),
            );
        });
        b.finish()
    }

    #[test]
    fn search_is_deterministic_and_covers_the_space() {
        let p = skewed(512);
        let space = SearchSpace::default();
        let a = best(&p, &space).unwrap();
        let b = best(&p, &space).unwrap();
        assert_eq!(a, b);
        // Every candidate is either measured or statically pruned.
        assert_eq!(
            a.evaluated + a.pruned,
            space.schemes.len() * space.page_sizes.len()
        );
        // The legacy objective has no static bound: fully exhaustive.
        let legacy = best_under(&p, &space, Objective::RemoteOnly).unwrap();
        assert_eq!(legacy.pruned, 0);
        assert_eq!(
            legacy.evaluated,
            space.schemes.len() * space.page_sizes.len()
        );
    }

    #[test]
    fn pruned_search_matches_exhaustive() {
        for n in [128, 512] {
            let p = skewed(n);
            let space = SearchSpace::default();
            let pruned = best(&p, &space).unwrap();
            let exhaustive = search_exhaustive_with(
                &p,
                &space,
                &FastCountingOracle::with_engine(Engine::Interp),
                Objective::default(),
            )
            .unwrap();
            assert_eq!(pruned.scheme, exhaustive.scheme, "n={n}");
            assert_eq!(pruned.page_size, exhaustive.page_size, "n={n}");
            assert_eq!(pruned.score.to_bits(), exhaustive.score.to_bits(), "n={n}");
            assert_eq!(pruned.messages, exhaustive.messages, "n={n}");
        }
    }

    #[test]
    fn search_matches_manual_argmin() {
        // The *legacy* objective must keep reproducing the original
        // remote-%-then-messages argmin exactly.
        let p = skewed(256);
        let space = SearchSpace {
            schemes: vec![PartitionScheme::Modulo, PartitionScheme::Block],
            page_sizes: vec![16, 32],
            n_pes: 8,
            ..SearchSpace::default()
        };
        let best = best_under(&p, &space, Objective::RemoteOnly).unwrap();
        // Recompute sequentially with the raw simulator.
        let mut manual: Option<(f64, u64, PartitionScheme, usize)> = None;
        for &scheme in &space.schemes {
            for &ps in &space.page_sizes {
                let cfg = sa_machine::MachineConfig::new(8, ps).with_partition(scheme);
                let rep = crate::exec::simulate(&p, &cfg).unwrap();
                let cand = (rep.remote_pct(), rep.network_messages, scheme, ps);
                let better = match &manual {
                    None => true,
                    Some((pct, msgs, _, _)) => cand.0 < *pct || (cand.0 == *pct && cand.1 < *msgs),
                };
                if better {
                    manual = Some(cand);
                }
            }
        }
        let (pct, msgs, scheme, ps) = manual.unwrap();
        assert_eq!(best.scheme, scheme);
        assert_eq!(best.page_size, ps);
        assert_eq!(best.remote_pct, pct);
        assert_eq!(best.messages, msgs);
    }

    #[test]
    fn balanced_objective_rejects_degenerate_all_on_one_pe_winners() {
        // A 128-element kernel on 16 PEs: at page size 256 the whole array
        // lands on one PE, so the legacy objective crowns it (0 % remote,
        // zero messages) even though a single PE does every write. The
        // balanced default must instead pick a configuration that spreads
        // the work.
        let p = skewed(128);
        let space = SearchSpace::default(); // 16 PEs, page sizes up to 256
        let legacy = best_under(&p, &space, Objective::RemoteOnly).unwrap();
        assert_eq!(legacy.remote_pct, 0.0);
        assert!(
            legacy.write_balance < 0.2,
            "legacy winner should be degenerate: {legacy:?}"
        );
        let balanced = best(&p, &space).unwrap();
        assert!(
            balanced.write_balance > 0.9,
            "balanced winner must spread writes: {balanced:?}"
        );
        assert!(balanced.score <= legacy.remote_pct + 100.0 * (1.0 - legacy.write_balance));
        // The balanced run may statically prune, but together with the
        // measured points it still covers the whole space.
        assert_eq!(balanced.evaluated + balanced.pruned, legacy.evaluated);
    }

    #[test]
    fn balanced_objective_is_a_noop_for_balanced_kernels() {
        // When every candidate is near-balanced (large kernel, small page
        // sizes), the penalty term changes nothing.
        let p = skewed(2048);
        let space = SearchSpace {
            page_sizes: vec![8, 16, 32],
            ..SearchSpace::default()
        };
        let legacy = best_under(&p, &space, Objective::RemoteOnly).unwrap();
        let balanced = best(&p, &space).unwrap();
        assert_eq!(legacy.scheme, balanced.scheme);
        assert_eq!(legacy.page_size, balanced.page_size);
    }

    #[test]
    fn objective_scores_compose() {
        use crate::plan::RunConfig;
        let rec = |remote_pct: f64, write_balance: f64| RunRecord {
            cfg: RunConfig::default(),
            remote_pct,
            cached_pct: 0.0,
            writes: 1,
            local_reads: 1,
            cached_reads: 0,
            remote_reads: 0,
            total_reads: 1,
            messages: 0,
            hops: 0,
            max_link_load: 0,
            write_balance,
            cycles: None,
        };
        assert_eq!(Objective::RemoteOnly.score(&rec(7.5, 0.1)), 7.5);
        let balanced = Objective::default();
        assert_eq!(balanced.score(&rec(0.0, 1.0)), 0.0);
        // All work on 1 of 16 PEs: jain 1/16 → 93.75 % imbalance penalty.
        assert!((balanced.score(&rec(0.0, 1.0 / 16.0)) - 93.75).abs() < 1e-9);
        let half = Objective::Balanced { weight: 0.5 };
        assert!((half.score(&rec(2.0, 0.5)) - 27.0).abs() < 1e-9);
    }

    #[test]
    fn empty_space_is_a_config_error() {
        let p = skewed(64);
        let space = SearchSpace {
            schemes: vec![],
            ..SearchSpace::default()
        };
        assert!(matches!(
            best(&p, &space),
            Err(PlanError::Config(sa_machine::ConfigError::EmptyAxis {
                axis: "partition"
            }))
        ));
    }
}

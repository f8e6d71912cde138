//! The real-runtime evaluation oracle: `sa-core`'s experiment plans
//! measured by actual worker threads instead of the counting simulator.
//!
//! This is the adapter the ROADMAP's "real-runtime parity" item needs: the
//! same grid an [`sa_core::plan::ExperimentPlan`] enumerates, evaluated by
//! a different backend. Knobs the thread runtime does not model —
//! replacement policies other than the page cache's LRU, the simulator's
//! `Ignore` partial-page fiction — are reported as
//! [`OracleError::Unsupported`] rather than silently approximated. Network
//! topologies *are* modeled: every modeled message a worker really sends is
//! priced through the topology's [`sa_machine::NetworkTopology::route`],
//! so hop and link-load figures certify against the counting simulator's.

use sa_core::oracle::{Oracle, OracleError, RunRecord};
use sa_core::plan::RunConfig;
use sa_ir::Program;
use sa_machine::CachePolicy;

use crate::engine::{execute, RuntimeConfig};

/// Evaluates grid points on real threads via [`execute`].
///
/// The runtime always refetches partially filled pages (it has no
/// omniscient snapshot to fake completeness with), so configs are accepted
/// with either `PartialPagePolicy` but measured under `Refetch` semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadOracle;

impl ThreadOracle {
    /// The runtime parameters for a grid point, or why it can't run.
    fn runtime_config(cfg: &RunConfig) -> Result<RuntimeConfig, OracleError> {
        if cfg.cache_policy != CachePolicy::Lru {
            return Err(OracleError::Unsupported(
                "thread runtime caches are LRU-only".to_string(),
            ));
        }
        Ok(RuntimeConfig::from_machine(&cfg.machine()))
    }
}

impl Oracle for ThreadOracle {
    fn name(&self) -> &'static str {
        "thread-runtime"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let rt = Self::runtime_config(cfg)?;
        let rep = execute(program, &rt).map_err(|e| match e {
            crate::engine::RuntimeError::Unsupported(m) => OracleError::Unsupported(m),
            other => OracleError::Backend(other.to_string()),
        })?;
        // The simulator-comparable message count: real wire traffic minus
        // scalar broadcasts and anchor-resolution fetches, the two
        // mechanisms the counting model performs for free. Hops and link
        // load are real measurements: the workers priced every modeled
        // send through the configured topology's link model.
        Ok(RunRecord::counted(
            cfg,
            &rep.stats,
            rep.modeled_messages(),
            rep.hops,
            rep.max_link_load,
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::oracle::{Engine, FastCountingOracle};
    use sa_core::plan::ExperimentPlan;
    use sa_machine::PartialPagePolicy;

    fn tiny() -> Program {
        use sa_ir::index::iv;
        use sa_ir::{InitPattern, ProgramBuilder};
        let mut b = ProgramBuilder::new("tiny");
        let y = b.input("Y", &[256], InitPattern::Wavy);
        let x = b.output("X", &[255]);
        b.nest("s", &[("k", 0, 254)], |nb| {
            nb.assign(x, [iv(0)], nb.read(y, [iv(0).plus(1)]));
        });
        b.finish()
    }

    #[test]
    fn same_plan_different_backend() {
        // The point of the Oracle trait: one grid, two engines.
        let p = tiny();
        let plan = ExperimentPlan::new().pes(&[1, 2, 4]);
        let sim = plan
            .run(&p, &FastCountingOracle::with_engine(Engine::Interp))
            .unwrap();
        let real = plan.run(&p, &ThreadOracle).unwrap();
        assert_eq!(sim.len(), real.len());
        for (s, r) in sim.records().iter().zip(real.records()) {
            assert_eq!(s.cfg, r.cfg);
            assert_eq!(s.writes, r.writes, "write counts are deterministic");
            assert_eq!(s.total_reads, r.total_reads);
        }
    }

    #[test]
    fn unsupported_knobs_are_typed_errors() {
        let p = tiny();
        let cfg = RunConfig {
            cache_policy: CachePolicy::Fifo,
            ..RunConfig::default()
        };
        assert!(matches!(
            ThreadOracle.measure(&p, &cfg),
            Err(OracleError::Unsupported(_))
        ));
    }

    #[test]
    fn topologies_certify_against_the_simulator() {
        // Hops and max link load are real measurements now, certified equal
        // to the counting simulator's locality accounting (cache disabled so
        // the two engines see identical fetch events).
        let p = tiny();
        for network in [
            sa_machine::NetworkTopology::Ideal,
            sa_machine::NetworkTopology::Bus,
            sa_machine::NetworkTopology::Ring,
            sa_machine::NetworkTopology::Mesh2D,
            sa_machine::NetworkTopology::Torus2D,
            sa_machine::NetworkTopology::Hypercube,
        ] {
            let cfg = RunConfig {
                n_pes: 4,
                cache_elems: 0,
                network,
                ..RunConfig::default()
            };
            let real = ThreadOracle.measure(&p, &cfg).unwrap();
            let sim = FastCountingOracle::with_engine(Engine::Interp)
                .measure(&p, &cfg)
                .unwrap();
            assert_eq!(real.hops, sim.hops, "{network:?} hops");
            assert_eq!(
                real.max_link_load, sim.max_link_load,
                "{network:?} link load"
            );
        }
    }

    #[test]
    fn refetch_semantics_accepted() {
        let p = tiny();
        let cfg = RunConfig {
            n_pes: 2,
            partial_pages: PartialPagePolicy::Refetch,
            ..RunConfig::default()
        };
        let rec = ThreadOracle.measure(&p, &cfg).unwrap();
        assert_eq!(rec.cfg.n_pes, 2);
        assert!(rec.total_reads > 0);
    }
}

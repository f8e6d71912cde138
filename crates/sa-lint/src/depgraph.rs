//! Static dependence graphs and the passes built on them: deadlock-freedom
//! proofs (SA008), work/span analysis, and partition-projected speedup
//! bounds.
//!
//! Single assignment makes the full producer→consumer dataflow statically
//! derivable — the paper's core premise: every array cell has exactly one
//! producer per generation, so read-after-write pairs are the *whole*
//! dependence structure. Two granularities are exposed:
//!
//! * **Generation level** ([`DepGraph`]): nodes are array generations (the
//!   segments between `Reinit`s) plus reduction statements; edges are
//!   *may*-dependences between a producing and a consuming statement,
//!   derived from affine footprint intersection (Banerjee range overlap +
//!   GCD lattice residue via [`sa_ir::analysis`]), exact set enumeration
//!   for statically-resolvable gathers/scatters, and a conservative
//!   [`EdgeKind::Undecidable`] edge when an index array is runtime data.
//!   This is the graph `sapp graph` renders, the superset the soundness
//!   proptests check interpreter-observed RAW pairs against, and the
//!   superset the thread runtime's observed wait edges are asserted to
//!   fall inside ([`DepGraph::covers_wait`]).
//! * **Instance level** (exact): [`summary`] computes, by enumeration,
//!   work, span (longest weighted path; reduction results cost a
//!   `⌈log₂ m⌉` tree-combine) and ideal parallelism; [`project`] /
//!   [`speedup_bound`] project the instance stream onto a concrete
//!   `PartitionScheme` × page size, yielding per-PE serialization bounds:
//!   the anchors do not depend on the placement, so one
//!   [`AnchorProfile`] per page size — anchored instances per page, as
//!   sorted runs — is priced under each scheme and PE count, and only a
//!   program whose anchors cannot be profiled is enumerated
//!   ([`project_by_instance`]);
//!   [`check_deadlock`] proves the wait graph the thread runtime would
//!   realize (data waits + per-PE execution order + reduction/reinit
//!   barriers) acyclic or reports the cycle as SA008 — building it only
//!   for a program that defers a read forward.
//!
//! The enumerating passes are observers of one walk of the instance
//! stream (`sites::walk`, crate-private), which keeps the producer map.
//!
//! ### Wait-graph model
//!
//! An edge `u → v` means *u cannot complete until v completes*. Three edge
//! families mirror the thread runtime exactly:
//!
//! 1. **Data**: a consumer instance waits on the producer instance of every
//!    cell it reads (reads satisfied by an initializer wait on nobody).
//! 2. **Chain**: a PE executes its instances in program order and a remote
//!    fetch blocks the whole PE, so each instance waits on its PE's
//!    previous instance. Same-PE *backward* data edges are implied by
//!    chains and dropped; cross-PE and same-PE *forward* data edges are
//!    kept.
//! 3. **Barrier**: reduction nests end with a collect/broadcast barrier and
//!    `Reinit` phases are two-round barriers; a barrier waits on every
//!    PE's last instance before it, and every PE's next instance waits on
//!    the barrier.
//!
//! A cycle means the runtime deadlocks (or aborts on an undefined read
//! along the cycle); acyclicity means any topological order — hence the
//! I-structure runtime's data-driven order — completes. Scalar reads never
//! block (workers read the last broadcast value), so they contribute value
//! edges to the span DAG but not wait edges.
//!
//! ### When the graph is built
//!
//! Program order is a topological order of all three families but for one
//! kind of edge: chains and barriers lead backwards by construction, and a
//! data edge leads to its producer, which ran earlier — unless the read
//! was deferred on a cell written *later* in its generation. So a cycle
//! needs a forward deferral, and a program without one is deadlock-free on
//! every machine shape ([`check_deadlock`] gives the numbering). The
//! progress pass proves a program free of deferrals over sweep footprints,
//! or its owner-free walk sees every deferral a write releases; only if
//! there was one is the program walked under the schedule and its graph
//! built, and that path alone decides such programs. [`summary`] still materializes its DAG for every program; in
//! the same way, a program without forward deferrals could have its
//! depths computed in program order, with no Kahn pass.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;
use std::rc::Rc;

use sa_ir::access::{loop_box, try_for_each_sweep, Access, Line};
use sa_ir::analysis::{
    affine_address_range, anchor_ref, linear_address_form, relate_forms, screen_nests, NestScreen,
    Screen,
};
use sa_ir::index::{AffineIndex, IndexExpr};
use sa_ir::nest::{ArrayRef, LoopNest, LoopVar, Stmt};
use sa_ir::program::Phase;
use sa_ir::{ArrayId, LinForm, PairRelation, Program};
use sa_machine::partition::{gcd, pages_in};
use sa_machine::{ConfigError, PageRun, PartitionScheme, Placement};

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::progress;
use crate::screening::{iteration, Schedule};
use crate::sites::{
    describe, iterate, segments, walk, Flow, Instance, LiveSlots, Pass, Read, ResolveFail,
    Resolver, Write, WriteSite,
};
use crate::writeonce::fmt_ivs;
use crate::LintConfig;

/// What a generation-level graph node stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// One generation of an array: the segment between consecutive
    /// `Reinit`s (generation 0 is the initial one).
    Gen {
        /// The array.
        array: ArrayId,
        /// Generation ordinal, starting at 0 and incremented per `Reinit`.
        generation: usize,
    },
    /// A reduction statement (its scalar result).
    Reduce {
        /// `ScalarId` index of the destination slot.
        scalar: usize,
        /// Phase index of the nest containing the reduction.
        phase: usize,
        /// Statement index within the nest body.
        stmt: usize,
    },
}

/// A node of the generation-level dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// What the node stands for.
    pub kind: NodeKind,
    /// Display label (`X#0`, `sum@p3/s1`).
    pub label: String,
}

/// How a dependence edge was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Proven by exact footprint enumeration (statically-resolvable
    /// gathers/scatters) or an identical affine form in the same nest.
    Exact,
    /// May-dependence from affine range overlap + GCD residue tests.
    Affine,
    /// At least one side resolves through a runtime-valued index array;
    /// the edge is assumed conservatively.
    Undecidable,
}

impl EdgeKind {
    /// Stable lowercase name (`exact` / `affine` / `undecidable`).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Exact => "exact",
            EdgeKind::Affine => "affine",
            EdgeKind::Undecidable => "undecidable",
        }
    }
}

/// A statement location: phase index and statement index within the nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteRef {
    /// Phase index within [`sa_ir::Program::phases`].
    pub phase: usize,
    /// Statement index within the nest body.
    pub stmt: usize,
}

/// One read-after-write dependence at generation granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Producing node index (the generation or reduction read from).
    pub src: usize,
    /// Consuming node index (the generation or reduction the reader
    /// belongs to).
    pub dst: usize,
    /// The producing statement (for scalar-broadcast edges, the reduce).
    pub writer: SiteRef,
    /// The consuming statement.
    pub reader: SiteRef,
    /// Array carrying the dependence; `None` for scalar broadcasts.
    pub array: Option<ArrayId>,
    /// How the edge was established.
    pub kind: EdgeKind,
}

/// The static generation-level dependence graph of a program.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Program name (used as the DOT graph name).
    pub name: String,
    /// Nodes: one per generation segment (in `crate::sites` slot order:
    /// every array's initial generation first, then one per `Reinit` in
    /// phase order), then one per reduction statement.
    pub nodes: Vec<Node>,
    /// May-dependence edges, deduplicated.
    pub edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Build the graph for `program`.
    pub fn build(program: &Program) -> DepGraph {
        build_depgraph(program)
    }

    /// Node index of `array`'s generation `generation`, if it exists.
    pub fn gen_node(&self, array: ArrayId, generation: usize) -> Option<usize> {
        self.nodes.iter().position(|n| {
            matches!(&n.kind, NodeKind::Gen { array: a, generation: g }
                     if *a == array && *g == generation)
        })
    }

    /// True if the graph contains an edge covering a runtime wait observed
    /// at statement (`phase`, `stmt`) on generation `generation` of
    /// `array` — the debug-mode runtime cross-check.
    pub fn covers_wait(
        &self,
        phase: usize,
        stmt: usize,
        array: ArrayId,
        generation: usize,
    ) -> bool {
        let Some(src) = self.gen_node(array, generation) else {
            return false;
        };
        self.edges.iter().any(|e| {
            e.src == src
                && e.array == Some(array)
                && e.reader.phase == phase
                && e.reader.stmt == stmt
        })
    }

    /// Render as Graphviz DOT. Edge style encodes the kind: solid =
    /// exact, dashed = affine (may), dotted = undecidable.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("digraph \"{}\" {{\n", esc(&self.name)));
        s.push_str("  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = match n.kind {
                NodeKind::Gen { .. } => "box",
                NodeKind::Reduce { .. } => "ellipse",
            };
            s.push_str(&format!(
                "  n{i} [label=\"{}\", shape={shape}];\n",
                esc(&n.label)
            ));
        }
        for e in &self.edges {
            let style = match e.kind {
                EdgeKind::Exact => "solid",
                EdgeKind::Affine => "dashed",
                EdgeKind::Undecidable => "dotted",
            };
            s.push_str(&format!(
                "  n{} -> n{} [label=\"p{}/s{} -> p{}/s{}\", style={style}];\n",
                e.src, e.dst, e.writer.phase, e.writer.stmt, e.reader.phase, e.reader.stmt
            ));
        }
        s.push_str("}\n");
        s
    }

    /// Render as JSON (hand-rolled; the workspace carries no serde). The
    /// optional `summary` embeds work/span/parallelism when available.
    pub fn to_json(&self, program: &Program, summary: Option<&GraphSummary>) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"name\":\"{}\",\"nodes\":[", esc(&self.name)));
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match &n.kind {
                NodeKind::Gen { array, generation } => s.push_str(&format!(
                    "{{\"id\":{i},\"kind\":\"gen\",\"array\":\"{}\",\"generation\":{generation}}}",
                    esc(&program.array(*array).name)
                )),
                NodeKind::Reduce {
                    scalar,
                    phase,
                    stmt,
                } => s.push_str(&format!(
                    "{{\"id\":{i},\"kind\":\"reduce\",\"scalar\":\"{}\",\"phase\":{phase},\"stmt\":{stmt}}}",
                    esc(&program.scalars[*scalar])
                )),
            }
        }
        s.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let arr = match e.array {
                Some(a) => format!("\"{}\"", esc(&program.array(a).name)),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "{{\"src\":{},\"dst\":{},\"kind\":\"{}\",\"array\":{arr},\
                 \"writer\":{{\"phase\":{},\"stmt\":{}}},\"reader\":{{\"phase\":{},\"stmt\":{}}}}}",
                e.src,
                e.dst,
                e.kind.name(),
                e.writer.phase,
                e.writer.stmt,
                e.reader.phase,
                e.reader.stmt
            ));
        }
        s.push(']');
        if let Some(sum) = summary {
            s.push_str(&format!(
                ",\"work\":{},\"span\":{},\"parallelism\":{:.3}",
                sum.work, sum.span, sum.parallelism
            ));
        }
        s.push('}');
        s
    }
}

fn esc(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s
}

fn vec_gcd(coeffs: &[i64]) -> u64 {
    coeffs.iter().fold(0u64, |g, &c| gcd(g, c.unsigned_abs()))
}

/// All array reads a statement performs, including the affine reads of
/// index arrays hidden inside indirect indices (of both RHS reads and an
/// assign target). Synthesized refs are owned; plain refs are cloned.
fn all_reads(stmt: &Stmt) -> Vec<ArrayRef> {
    let mut out = Vec::new();
    let push_index_reads = |r: &ArrayRef, out: &mut Vec<ArrayRef>| {
        for ix in &r.indices {
            if let IndexExpr::Indirect { base, pos, .. } = ix {
                out.push(ArrayRef::new(*base, vec![IndexExpr::Affine(pos.clone())]));
            }
        }
    };
    for r in stmt.reads() {
        out.push(r.clone());
        push_index_reads(r, &mut out);
    }
    if let Some(t) = stmt.write_target() {
        push_index_reads(t, &mut out);
    }
    out
}

type FootSet = Option<Rc<HashSet<usize>>>;

/// Exact address set of `aref` over `nest`'s domain, seen through static
/// index arrays; iterations that fail to resolve (the runtime would abort
/// there) are skipped. `None` if some indirection is runtime data.
fn footprint_set(res: &Resolver<'_>, nest: &LoopNest, aref: &ArrayRef) -> FootSet {
    if res.runtime_index(aref).is_some() {
        return None;
    }
    let mut set = HashSet::new();
    let Ok(()) = iterate(nest, |ivs| {
        if let Ok(addr) = res.addr(aref, ivs) {
            set.insert(addr);
        }
        Ok::<(), Infallible>(())
    });
    Some(Rc::new(set))
}

/// Whether an affine write site and an affine read can be a RAW pair:
/// Banerjee range overlap + GCD lattice residue.
fn affine_dep(
    program: &Program,
    w: &WriteSite<'_>,
    r_nest: &LoopNest,
    r_phase: usize,
    aref: &ArrayRef,
) -> Option<EdgeKind> {
    let (wlo, whi) = affine_address_range(program, w.nest, w.target)?;
    let (rlo, rhi) = affine_address_range(program, r_nest, aref)?;
    if whi < rlo || rhi < wlo {
        return None;
    }
    let wf = linear_address_form(program, w.target, w.nest.loops.len())?;
    let rf = linear_address_form(program, aref, r_nest.loops.len())?;
    let g = gcd(vec_gcd(&wf.coeffs), vec_gcd(&rf.coeffs));
    if g == 0 {
        if wf.offset != rf.offset {
            return None;
        }
    } else if (wf.offset - rf.offset).rem_euclid(g as i64) != 0 {
        return None;
    }
    if w.phase == r_phase && matches!(relate_forms(&wf, &rf), PairRelation::Identical) {
        return Some(EdgeKind::Exact);
    }
    Some(EdgeKind::Affine)
}

/// Whether two exact footprints share a cell; a side that goes through a
/// runtime-valued index array is conservatively assumed to.
fn footprint_dep(w_set: &FootSet, r_set: &FootSet) -> Option<EdgeKind> {
    let (Some(ws), Some(rs)) = (w_set, r_set) else {
        return Some(EdgeKind::Undecidable);
    };
    let (small, big) = if ws.len() <= rs.len() {
        (ws, rs)
    } else {
        (rs, ws)
    };
    small
        .iter()
        .any(|a| big.contains(a))
        .then_some(EdgeKind::Exact)
}

/// `(phase, stmt, scalar)` of every reduction statement, in program order:
/// the numbering of the graph's reduce nodes and of [`summary`]'s collectors.
fn reduce_sites(program: &Program) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (pidx, phase) in program.phases.iter().enumerate() {
        let Phase::Loop(nest) = phase else { continue };
        for (sidx, stmt) in nest.body.iter().enumerate() {
            if let Stmt::Reduce { target, .. } = stmt {
                out.push((pidx, sidx, target.0));
            }
        }
    }
    out
}

/// Index in `sites` of the reduction statement at (`phase`, `stmt`).
fn reduce_index(sites: &[(usize, usize, usize)], phase: usize, stmt: usize) -> usize {
    sites.partition_point(|&(p, s, _)| (p, s) < (phase, stmt))
}

/// The reduce sites whose results `stmt`, in `phase`, reads: per scalar
/// read, the last reduction into it strictly before the phase.
fn scalar_producers(sites: &[(usize, usize, usize)], stmt: &Stmt, phase: usize) -> Vec<usize> {
    stmt.value()
        .scalar_reads()
        .into_iter()
        .filter_map(|sid| sites.iter().rposition(|&(p, _, s)| s == sid && p < phase))
        .collect()
}

fn build_depgraph(program: &Program) -> DepGraph {
    let res = Resolver::new(program);

    // Generation nodes are the segments, so slot indices and node indices
    // agree; reduce nodes follow in program order.
    let segs = segments(program);
    let reduces = reduce_sites(program);
    let mut nodes: Vec<Node> = segs
        .iter()
        .map(|seg| Node {
            kind: NodeKind::Gen {
                array: seg.array,
                generation: seg.generation,
            },
            label: format!("{}#{}", program.array(seg.array).name, seg.generation),
        })
        .collect();
    nodes.extend(reduces.iter().map(|&(phase, stmt, scalar)| Node {
        kind: NodeKind::Reduce {
            scalar,
            phase,
            stmt,
        },
        label: format!("{}@p{phase}/s{stmt}", program.scalars[scalar]),
    }));

    // Edge pass. Footprints are memoized per (phase, stmt, 0 for the
    // target or 1 + read index).
    let mut edges: Vec<DepEdge> = Vec::new();
    let mut seen: HashSet<(usize, usize, SiteRef, SiteRef, Option<ArrayId>)> = HashSet::new();
    let mut add = |src, dst, writer, reader, array, kind| {
        if seen.insert((src, dst, writer, reader, array)) {
            edges.push(DepEdge {
                src,
                dst,
                writer,
                reader,
                array,
                kind,
            });
        }
    };
    let mut foot_memo: HashMap<(usize, usize, usize), FootSet> = HashMap::new();
    let mut foot = |key, nest: &LoopNest, aref: &ArrayRef| {
        foot_memo
            .entry(key)
            .or_insert_with(|| footprint_set(&res, nest, aref))
            .clone()
    };
    let mut live = LiveSlots::new(program);
    for (pidx, phase) in program.phases.iter().enumerate() {
        let nest = match phase {
            Phase::Reinit(id) => {
                live.reinit(*id);
                continue;
            }
            Phase::Loop(nest) => nest,
        };
        for (sidx, stmt) in nest.body.iter().enumerate() {
            let reader = SiteRef {
                phase: pidx,
                stmt: sidx,
            };
            let dst = match stmt {
                Stmt::Assign { target, .. } => live.of(target.array),
                Stmt::Reduce { .. } => segs.len() + reduce_index(&reduces, pidx, sidx),
            };
            for (ridx, aref) in all_reads(stmt).iter().enumerate() {
                let seg = live.of(aref.array);
                for w in &segs[seg].writes {
                    // With an indirection on either side the pair is decided
                    // by exact intersection, the affine side's set included.
                    let kind = if aref.has_indirection() || w.target.has_indirection() {
                        let w_set = foot((w.phase, w.stmt, 0), w.nest, w.target);
                        let r_set = foot((pidx, sidx, ridx + 1), nest, aref);
                        footprint_dep(&w_set, &r_set)
                    } else {
                        affine_dep(program, w, nest, pidx, aref)
                    };
                    if let Some(kind) = kind {
                        let writer = SiteRef {
                            phase: w.phase,
                            stmt: w.stmt,
                        };
                        add(seg, dst, writer, reader, Some(aref.array), kind);
                    }
                }
            }
            // Scalar broadcasts: reduce result → consumer.
            for k in scalar_producers(&reduces, stmt, pidx) {
                let writer = SiteRef {
                    phase: reduces[k].0,
                    stmt: reduces[k].1,
                };
                add(segs.len() + k, dst, writer, reader, None, EdgeKind::Exact);
            }
        }
    }

    DepGraph {
        name: program.name.clone(),
        nodes,
        edges,
    }
}

// ---------------------------------------------------------------------------
// Instance level
// ---------------------------------------------------------------------------

/// Why exact instance-level analysis is unavailable for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceError {
    /// A gather/scatter resolves through a runtime-valued index array.
    RuntimeIndirection(ArrayId),
    /// A reference failed static resolution (out of bounds or an undefined
    /// index-array prefix) — the executors would abort on it.
    Unresolvable(ArrayId),
    /// The instance graph exceeds the `u32` id space.
    TooLarge,
    /// The machine shape projected onto is invalid.
    Config(ConfigError),
    /// The value dependence graph itself is cyclic (an instance
    /// transitively reads its own output); span is undefined.
    Cyclic,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::RuntimeIndirection(_) => {
                write!(f, "indirection through a runtime-valued index array")
            }
            InstanceError::Unresolvable(_) => {
                write!(f, "a reference fails static address resolution")
            }
            InstanceError::TooLarge => write!(f, "instance graph exceeds the u32 id space"),
            InstanceError::Config(e) => write!(f, "invalid machine shape: {e}"),
            InstanceError::Cyclic => write!(f, "the value dependence graph is cyclic"),
        }
    }
}

/// Work/span/ideal-parallelism summary of the instance-level value DAG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSummary {
    /// Total statement instances (unit cost each; reduction tree combines
    /// are charged to span only).
    pub work: u64,
    /// Longest weighted path: instances weigh 1, a reduction result weighs
    /// `⌈log₂ m⌉` for `m` contributions (tree combine).
    pub span: u64,
    /// `work / span` (1.0 for empty programs).
    pub parallelism: f64,
}

impl From<ConfigError> for InstanceError {
    fn from(e: ConfigError) -> Self {
        InstanceError::Config(e)
    }
}

fn err_array(e: InstanceError) -> Option<ArrayId> {
    match e {
        InstanceError::RuntimeIndirection(a) | InstanceError::Unresolvable(a) => Some(a),
        _ => None,
    }
}

/// The cell an exact pass was told of — or the end of its walk: a
/// reference that names no cell makes its array unresolvable.
fn exact<T>(aref: &ArrayRef, cell: Result<T, ResolveFail>) -> Result<T, Option<InstanceError>> {
    cell.map_err(|_| Some(InstanceError::Unresolvable(aref.array)))
}

/// The edges of the instance-level value DAG, as [`summary`] collects them
/// from the walk. Collectors are numbered like [`reduce_sites`].
#[derive(Default)]
struct ValueEdges {
    reduces: Vec<(usize, usize, usize)>,
    /// `(consumer, producer)` instance ids.
    edges: Vec<(u32, u32)>,
    /// `(collector, reduce instance)`.
    cedges: Vec<(u32, u32)>,
    /// `(instance, collector)`.
    sedges: Vec<(u32, u32)>,
    contribs: Vec<u64>,
    /// Per statement of the nest being walked, resolved once: the collector
    /// of every scalar it reads, and (for a reduction) its own.
    producer_k: Vec<Vec<usize>>,
    own_k: Vec<usize>,
}

impl Pass for ValueEdges {
    fn nest(&mut self, phase: usize, nest: &LoopNest, _first: usize) {
        let body = nest.body.iter();
        self.producer_k = body
            .map(|stmt| scalar_producers(&self.reduces, stmt, phase))
            .collect();
        self.own_k = (0..nest.body.len())
            .map(|stmt| reduce_index(&self.reduces, phase, stmt))
            .collect();
    }

    fn instance(&mut self, at: &Instance<'_>) -> Flow {
        let collectors = self.producer_k[at.stmt].iter();
        self.sedges.extend(collectors.map(|&k| (at.id, k as u32)));
        Ok(())
    }

    fn read(&mut self, at: &Instance<'_>, read: Read<'_>) -> Flow {
        if let (_, Some(producer)) = exact(read.aref, read.cell)? {
            self.edges.push((at.id, producer));
        }
        Ok(())
    }

    // Forward deferrals: value edges discovered when the write arrives.
    fn write(&mut self, at: &Instance<'_>, write: Write<'_>) -> Flow {
        let (_, released) = exact(write.target, write.cell)?;
        let consumers = released.iter();
        self.edges.extend(consumers.map(|d| (d.reader, at.id)));
        Ok(())
    }

    fn reduce(&mut self, at: &Instance<'_>) {
        let k = self.own_k[at.stmt];
        self.cedges.push((k as u32, at.id));
        self.contribs[k] += 1;
    }
}

/// Compute work and span of the instance-level value DAG.
///
/// Forward deferrals make program order differ from topological order, so
/// depths come from a Kahn longest-path pass over the materialized DAG.
pub fn summary(program: &Program) -> Result<GraphSummary, InstanceError> {
    let res = Resolver::new(program);
    res.check_static()?;

    // One collector per reduce site, numbered like `reduces`.
    let reduces = reduce_sites(program);
    let n_collectors = reduces.len();
    let mut dag = ValueEdges {
        reduces,
        contribs: vec![0; n_collectors],
        ..ValueEdges::default()
    };
    let n = walk(&res, &mut dag)?;

    let total = n + n_collectors;
    if total == 0 {
        return Ok(GraphSummary {
            work: 0,
            span: 0,
            parallelism: 1.0,
        });
    }
    // Unify node ids: instances 0..n, collectors n..n+K.
    let mut all_edges: Vec<(u32, u32)> = dag.edges;
    all_edges.extend(
        dag.cedges
            .iter()
            .map(|&(k, i)| ((n + k as usize) as u32, i)),
    );
    all_edges.extend(
        dag.sedges
            .iter()
            .map(|&(i, k)| (i, (n + k as usize) as u32)),
    );
    let mut weight = vec![1u64; total];
    for (k, &m) in dag.contribs.iter().enumerate() {
        weight[n + k] = ceil_log2(m.max(1));
    }

    // Kahn longest path (producer → consumer CSR).
    let mut out_count = vec![0u32; total];
    let mut indeg = vec![0u32; total];
    for &(c, p) in &all_edges {
        out_count[p as usize] += 1;
        indeg[c as usize] += 1;
    }
    let mut start = vec![0usize; total + 1];
    for i in 0..total {
        start[i + 1] = start[i] + out_count[i] as usize;
    }
    let mut fill = start.clone();
    let mut csr = vec![0u32; all_edges.len()];
    for &(c, p) in &all_edges {
        csr[fill[p as usize]] = c;
        fill[p as usize] += 1;
    }
    let mut depth: Vec<u64> = weight.clone();
    let mut queue: Vec<u32> = (0..total as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut processed = 0usize;
    while let Some(x) = queue.pop() {
        processed += 1;
        let xi = x as usize;
        for &c in &csr[start[xi]..start[xi + 1]] {
            let ci = c as usize;
            let cand = depth[xi] + weight[ci];
            if cand > depth[ci] {
                depth[ci] = cand;
            }
            indeg[ci] -= 1;
            if indeg[ci] == 0 {
                queue.push(c);
            }
        }
    }
    if processed < total {
        return Err(InstanceError::Cyclic);
    }
    let span = depth.iter().copied().max().unwrap_or(0);
    let work = n as u64;
    let parallelism = if span == 0 {
        1.0
    } else {
        work as f64 / span as f64
    };
    Ok(GraphSummary {
        work,
        span,
        parallelism,
    })
}

fn ceil_log2(m: u64) -> u64 {
    if m <= 1 {
        0
    } else {
        (64 - (m - 1).leading_zeros()) as u64
    }
}

/// Per-PE projection of the instance stream onto a partition config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Assign instances per owning PE — exactly the counting engines'
    /// `Stats::writes_per_pe` (owner-computes places each assignment on
    /// the PE owning its target element).
    pub writes_per_pe: Vec<u64>,
    /// All statement instances per executing PE (assigns at their target's
    /// owner, reductions at their first read's owner, anchorless
    /// statements round-robin) — the serialization bound.
    pub instances_per_pe: Vec<u64>,
}

/// The schedule of `res`'s program under `cfg`, through the one
/// geometry-aware placement table (SA008's proofs are unsound under tiled
/// schemes otherwise).
fn schedule<'p>(res: &Resolver<'p>, cfg: &LintConfig) -> Result<Schedule<'p>, ConfigError> {
    Schedule::new(
        res.program,
        &res.statics,
        cfg.scheme,
        cfg.page_size,
        cfg.n_pes,
    )
}

/// Project the instance stream onto `cfg` — who executes how much under
/// the owner-computes schedule ([`Schedule`]): the [`AnchorProfile`] of
/// `cfg`'s page size, priced under its scheme and PE count.
pub fn project(program: &Program, cfg: &LintConfig) -> Result<Projection, InstanceError> {
    AnchorProfile::new(program, cfg.page_size).project(cfg.scheme, cfg.n_pes)
}

/// The first reference, in program order (a statement's write target
/// before its reads), that goes through an index array.
pub fn first_indirect_ref(program: &Program) -> Option<&ArrayRef> {
    program
        .nests()
        .flat_map(|nest| &nest.body)
        .flat_map(|stmt| stmt.write_target().into_iter().chain(stmt.reads()))
        .find(|aref| aref.has_indirection())
}

/// Append `count` on pages `first..first + pages` to the sorted runs
/// `runs`, merged into the last run when adjacent to it with an equal
/// count; whether it starts before the last run ends.
fn append(runs: &mut Vec<PageRun>, first: usize, pages: usize, count: u64) -> bool {
    if pages == 0 || count == 0 {
        return false;
    }
    let overlaps = match runs.last_mut() {
        Some(last) if last.end() == first && last.count == count => {
            last.pages += pages;
            return false;
        }
        Some(last) => first < last.end(),
        None => false,
    };
    runs.push(PageRun::new(first, pages, count));
    overlaps
}

/// The runs of one sweep of an affine anchor along `line`, trips
/// `0..trips`, all inside the array, into `runs`: a progression whose step
/// divides the page as its partial first page, one uniform middle run and
/// its partial last page; one whose step is a multiple of the page as one
/// page with its translates; any other as one run per page it visits.
fn sweep_runs(runs: &mut Vec<PageRun>, line: Line, trips: usize, page_size: usize) {
    if trips == 0 {
        return;
    }
    let (m, ps) = (trips as i64, page_size as i64);
    // The same addresses, ascending.
    let line = match line.step < 0 {
        true => Line {
            base: line.addr(m - 1),
            step: -line.step,
        },
        false => line,
    };
    let (lo, hi, step) = (line.base, line.addr(m - 1), line.step);
    let (q0, q1) = (lo / ps, hi / ps);
    let page = |q: i64| q as usize;
    if step > ps && step % ps == 0 {
        // Every trip on its own page, whole pages apart.
        runs.push(PageRun {
            stride: page(step / ps),
            reps: trips,
            ..PageRun::new(page(q0), 1, 1)
        });
    } else if q0 == q1 {
        append(runs, page(q0), 1, trips as u64);
    } else if ps % step == 0 {
        append(
            runs,
            page(q0),
            1,
            (((q0 + 1) * ps - 1 - lo) / step + 1) as u64,
        );
        append(runs, page(q0 + 1), page(q1 - q0 - 1), (ps / step) as u64);
        append(runs, page(q1), 1, ((hi - q1 * ps) / step + 1) as u64);
    } else {
        let mut t = 0;
        while t < m {
            let next = line.run_end(t, ps).min(m);
            append(runs, page(line.addr(t) / ps), 1, (next - t) as u64);
            t = next;
        }
    }
}

/// The page runs of one array as they are emitted, sweep by sweep, summed
/// per page at the end when they overlap or come out of order. Once such
/// runs would take as much memory as a difference per page of the array,
/// the sink keeps the differences instead, so memory stays within twice
/// the smaller of the two. Consecutive sweeps whose runs are translates of
/// one another by whole pages are kept apart, as one sweep's runs with a
/// stride and a count ([`Translates`]), never summed.
#[derive(Debug)]
struct RunSink {
    runs: Vec<PageRun>,
    /// Some run of `runs` starts before the previous one ends.
    overlapping: bool,
    /// Pages of the array.
    pages: usize,
    /// Per page, its count less the previous page's, once kept.
    diff: Option<Vec<i64>>,
    /// Runs with their translates.
    translated: Vec<PageRun>,
}

impl RunSink {
    fn new(pages: usize) -> RunSink {
        RunSink {
            runs: Vec::new(),
            overlapping: false,
            pages,
            diff: None,
            translated: Vec::new(),
        }
    }

    fn push(&mut self, first: usize, pages: usize, count: u64) {
        if let Some(diff) = &mut self.diff {
            diff[first] += count as i64;
            if let Some(d) = diff.get_mut(first + pages) {
                *d -= count as i64;
            }
            return;
        }
        self.overlapping |= append(&mut self.runs, first, pages, count);
        let (run, difference) = (size_of::<PageRun>(), size_of::<i64>());
        if self.overlapping && self.runs.len() * run >= self.pages * difference {
            self.diff = Some(vec![0; self.pages]);
            for r in std::mem::take(&mut self.runs) {
                self.push(r.first, r.pages, r.count);
            }
        }
    }

    /// The per-page sums as sorted, disjoint, maximal runs, then the
    /// translated runs.
    fn finish(mut self) -> Vec<PageRun> {
        let mut level = 0i64;
        if let Some(diff) = self.diff.take() {
            for (q, d) in diff.into_iter().enumerate() {
                level += d;
                append(&mut self.runs, q, 1, level as u64);
            }
        } else if self.overlapping {
            let mut ends: Vec<(usize, i64)> = Vec::with_capacity(2 * self.runs.len());
            for r in self.runs.drain(..) {
                ends.push((r.first, r.count as i64));
                ends.push((r.end(), -(r.count as i64)));
            }
            ends.sort_unstable_by_key(|&(q, _)| q);
            for (i, &(q, d)) in ends.iter().enumerate() {
                level += d;
                if let Some(&(next, _)) = ends.get(i + 1) {
                    append(&mut self.runs, q, next - q, level as u64);
                }
            }
        }
        self.runs.append(&mut self.translated);
        self.runs
    }
}

/// The runs of consecutive sweeps of one anchor that are translates of one
/// another: the first sweep's runs, and the stride in pages and the count
/// of the sweeps they stand for.
#[derive(Debug, Default)]
struct Translates {
    runs: Vec<PageRun>,
    stride: usize,
    reps: usize,
}

impl Translates {
    /// Take the runs of the next sweep, `sweep`, as one more translate if
    /// they are one; else hand the ones held to `sink` and start over from
    /// them. Leaves `sweep` empty.
    fn take(&mut self, sweep: &mut Vec<PageRun>, sink: &mut RunSink) {
        if sweep.is_empty() {
            return;
        }
        let stride = self.runs.first().and_then(|first| {
            let moved = sweep[0].first.checked_sub(first.first)?;
            match self.reps {
                1 => Some(moved),
                reps => (moved == self.stride * reps).then_some(self.stride),
            }
        });
        // A run that already has translates has them on the same pages
        // each sweep, or not at all.
        let follows = stride.is_some_and(|stride| {
            let moved = stride * self.reps;
            self.runs.len() == sweep.len()
                && (stride == 0 || sweep.iter().all(|r| r.reps == 1))
                && (self.runs.iter().zip(sweep.iter())).all(|(a, b)| {
                    PageRun {
                        first: a.first + moved,
                        ..*a
                    } == *b
                })
        });
        if let (true, Some(stride)) = (follows, stride) {
            self.stride = stride;
            self.reps += 1;
            sweep.clear();
        } else {
            self.flush(sink);
            std::mem::swap(&mut self.runs, sweep);
            self.reps = 1;
        }
    }

    /// Hand the runs held to `sink`: summed with its others if they stand
    /// for one sweep or for sweeps on the same pages, kept with their
    /// translates otherwise.
    fn flush(&mut self, sink: &mut RunSink) {
        for run in self.runs.drain(..) {
            let count = run.count * self.reps as u64;
            match self.stride {
                0 if run.reps == 1 => sink.push(run.first, run.pages, count),
                0 => sink.translated.push(PageRun { count, ..run }),
                stride => sink.translated.push(PageRun {
                    stride,
                    reps: self.reps,
                    ..run
                }),
            }
        }
        (self.reps, self.stride) = (0, 0);
    }
}

/// The anchor profile of a program at one page size: per array, how many
/// anchored instances fall on each of its pages, as sorted runs of equal
/// counts — kept apart for the assignments (the writes) and for every
/// other anchored statement.
///
/// Owner-computes runs an instance where its anchor element lives, so the
/// anchors are the same under every placement; only who owns their pages
/// changes. One profile therefore stands for every scheme and PE count at
/// its page size, and [`AnchorProfile::project`] prices it: each run's
/// count times the pages of it each PE owns
/// ([`Placement::count_owned_pages`]), plus the round-robin deal of the
/// anchorless statements.
///
/// It is built sweep by sweep, with no folding (folds follow a placement's
/// period), and its memory follows its runs, never the pages:
///
/// * an affine anchor's sweep is O(1) runs when its step divides the page
///   or is a multiple of it, and one run per page it visits otherwise — so
///   a rectangular nest is swept along the loop its anchor moves least on
///   (`densest_inner`);
/// * consecutive sweeps whose runs are translates by whole pages (the rows
///   of a stencil) are one sweep's runs with a stride (`Translates`);
/// * everything else is summed per page into sorted runs (`RunSink`),
///   through a difference per page once that is the smaller;
/// * an anchor seen through constant index arrays ([`Screen::Static`]) is
///   resolved instance by instance.
///
/// A program with an anchor that leaves its array, or that goes through a
/// runtime-valued index array, is not profiled: [`project_by_instance`]
/// finds its error.
#[derive(Debug)]
pub struct AnchorProfile<'p> {
    program: &'p Program,
    page_size: usize,
    profiled: Option<Profiled>,
}

#[derive(Debug)]
struct Profiled {
    /// Per array id: the runs of the assignments anchored on it, and of
    /// its other anchored statements.
    writes: Vec<Vec<PageRun>>,
    others: Vec<Vec<PageRun>>,
    /// Per nest, for the round-robin deal.
    screens: Vec<NestScreen>,
}

impl<'p> AnchorProfile<'p> {
    /// Profile `program`'s anchors on pages of `page_size` elements.
    pub fn new(program: &'p Program, page_size: usize) -> AnchorProfile<'p> {
        AnchorProfile {
            program,
            page_size,
            profiled: (page_size > 0)
                .then(|| profile(program, page_size))
                .flatten(),
        }
    }

    /// [`project`] under `scheme` on `n_pes` PEs, at the profiled page
    /// size.
    pub fn project(
        &self,
        scheme: PartitionScheme,
        n_pes: usize,
    ) -> Result<Projection, InstanceError> {
        let Some(p) = &self.profiled else {
            let cfg = LintConfig {
                n_pes,
                page_size: self.page_size,
                scheme,
            };
            return project_by_instance(self.program, &cfg);
        };
        let dims = self.program.arrays.iter().map(|d| &d.dims);
        let placements = Placement::table(dims, scheme, self.page_size, n_pes)?;
        let price = |runs: &[Vec<PageRun>], per_pe: &mut [u64]| {
            for (placement, runs) in placements.iter().zip(runs) {
                placement.count_owned_pages(runs, per_pe);
            }
        };
        let mut writes_per_pe = vec![0u64; n_pes];
        price(&p.writes, &mut writes_per_pe);
        let mut instances_per_pe = writes_per_pe.clone();
        price(&p.others, &mut instances_per_pe);
        for screen in &p.screens {
            for (count, dealt) in instances_per_pe.iter_mut().zip(screen.dealt_per_pe(n_pes)) {
                *count += dealt;
            }
        }
        Ok(Projection {
            writes_per_pe,
            instances_per_pe,
        })
    }
}

/// A rectangular nest's loops reordered so that the one `form` moves
/// least along (by a nonzero step) is innermost, and `form` over them —
/// `None` when the nest is not rectangular or that loop is innermost
/// already. A profile sums over the iterations in any order, and a sweep
/// along the densest loop is a few runs where one across it may leap a page
/// every trip.
fn densest_inner(nest: &LoopNest, form: &LinForm) -> Option<(Vec<LoopVar>, LinForm)> {
    let loops = &nest.loops;
    let constant = |b: &AffineIndex| b.coeffs.iter().all(|&c| c == 0);
    if !loops.iter().all(|lv| constant(&lv.lo) && constant(&lv.hi)) {
        return None;
    }
    let moves =
        |v: usize| (form.coeffs.get(v).copied().unwrap_or(0) * loops[v].step).unsigned_abs();
    let inner = loops.len().checked_sub(1)?;
    // The first minimum in reverse order: the innermost of a tie.
    let densest = (0..loops.len())
        .rev()
        .filter(|&v| moves(v) != 0)
        .min_by(|&a, &b| moves(a).cmp(&moves(b)))?;
    if densest == inner {
        return None;
    }
    let order: Vec<usize> = (0..loops.len())
        .filter(|&v| v != densest)
        .chain([densest])
        .collect();
    let coeffs = order
        .iter()
        .map(|&v| form.coeffs.get(v).copied().unwrap_or(0));
    Some((
        order.iter().map(|&v| loops[v].clone()).collect(),
        LinForm {
            coeffs: coeffs.collect(),
            offset: form.offset,
        },
    ))
}

/// The runs of an [`AnchorProfile`], or `None` when an anchor cannot be
/// profiled. The bounds proofs the loop box leaves open are checked at
/// each sweep's two end trips.
fn profile(program: &Program, page_size: usize) -> Option<Profiled> {
    let res = Resolver::new(program);
    res.check_static().ok()?;
    let screens = screen_nests(program, &res.statics);
    let mut sinks: Vec<[RunSink; 2]> = program
        .arrays
        .iter()
        .map(|decl| [0, 1].map(|_| RunSink::new(pages_in(decl.len(), page_size))))
        .collect();
    let mut ivs = Vec::new();
    for (nest, screen) in program.nests().zip(&screens) {
        let vars = loop_box(&nest.loops);
        for (stmt, screen) in nest.body.iter().zip(&screen.screens) {
            let Some(anchor) = anchor_ref(stmt) else {
                continue;
            };
            let assigns = matches!(stmt, Stmt::Assign { .. });
            let sink = &mut sinks[anchor.array.0][usize::from(!assigns)];
            let profiled = match screen {
                Screen::Affine { .. } => {
                    let access = Access::lower(program, anchor, &vars, None);
                    let (form, open) = (access.form.as_ref()?, !access.proved());
                    let interchanged = (!open).then(|| densest_inner(nest, form)).flatten();
                    let (loops, form) = match &interchanged {
                        Some((loops, form)) => (&loops[..], form),
                        None => (&nest.loops[..], form),
                    };
                    let (mut translates, mut runs) = (Translates::default(), Vec::new());
                    let walked = try_for_each_sweep(loops, |sweep| {
                        if open && access.leaves(sweep).is_some() {
                            return Err(());
                        }
                        sweep_runs(&mut runs, form.line(sweep), sweep.trips, page_size);
                        translates.take(&mut runs, sink);
                        Ok(())
                    });
                    translates.flush(sink);
                    walked
                }
                Screen::Static => nest.try_for_each_sweep(|sweep| {
                    for t in 0..sweep.trips {
                        iteration(&mut ivs, sweep, nest.loops.len(), t);
                        let addr = res.addr(anchor, &ivs).map_err(|_| ())?;
                        sink.push(addr / page_size, 1, 1);
                    }
                    Ok(())
                }),
                Screen::RoundRobin { .. } | Screen::Produced => Err(()),
            };
            profiled.ok()?;
        }
    }
    let (mut writes, mut others) = (Vec::new(), Vec::new());
    for [assigned, other] in sinks {
        writes.push(assigned.finish());
        others.push(other.finish());
    }
    Some(Profiled {
        writes,
        others,
        screens,
    })
}

/// [`project`] by enumerating every statement instance and resolving its
/// anchor through the static index arrays: the path for programs with
/// (statically initialized) indirect references, and the reference the
/// closed form is certified against.
pub fn project_by_instance(
    program: &Program,
    cfg: &LintConfig,
) -> Result<Projection, InstanceError> {
    let res = Resolver::new(program);
    res.check_static()?;
    let sched = schedule(&res, cfg)?;
    let mut writes_per_pe = vec![0u64; cfg.n_pes];
    let mut instances_per_pe = vec![0u64; cfg.n_pes];
    // Owners only: no reference matters.
    walk(&res, &mut |at: &Instance<'_>| {
        let pe = instance_owner(&sched, &res, at)?;
        instances_per_pe[pe] += 1;
        if matches!(at.nest.body[at.stmt], Stmt::Assign { .. }) {
            writes_per_pe[pe] += 1;
        }
        Ok(())
    })?;
    Ok(Projection {
        writes_per_pe,
        instances_per_pe,
    })
}

/// [`Schedule::owner`] for an instance of the stream; anchors resolve
/// against the constant arrays.
#[inline]
fn instance_owner(
    sched: &Schedule<'_>,
    res: &Resolver<'_>,
    at: &Instance<'_>,
) -> Result<usize, InstanceError> {
    sched
        .owner(
            at.nest_index,
            at.stmt,
            at.iteration,
            at.ivs,
            &mut &res.statics,
        )
        .map_err(|_| {
            let anchor = anchor_ref(&at.nest.body[at.stmt]).expect("the deal cannot fail");
            InstanceError::Unresolvable(anchor.array)
        })
}

/// Static per-PE write counts under `cfg`, or `None` when the program is
/// not statically projectable. Certified identical to the counting
/// engines' `writes_per_pe`, and the basis of search pruning's imbalance
/// lower bound. A caller pricing many placements at one page size builds
/// the [`AnchorProfile`] once instead.
pub fn static_writes_per_pe(program: &Program, cfg: &LintConfig) -> Option<Vec<u64>> {
    project(program, cfg).ok().map(|p| p.writes_per_pe)
}

/// Certified static upper bound on parallel speedup under `cfg`:
/// `work / max(span, max_p instances_p)` — no execution can beat both the
/// critical path and the busiest PE's serial workload. `None` when the
/// program is not statically analyzable.
pub fn speedup_bound(program: &Program, cfg: &LintConfig) -> Option<f64> {
    speedup_bound_with(&summary(program).ok()?, program, cfg)
}

/// [`speedup_bound`] from an already computed [`summary`] of `program` —
/// the summary is the expensive, config-independent half, so callers
/// bounding one program under many configs compute it once.
pub fn speedup_bound_with(sum: &GraphSummary, program: &Program, cfg: &LintConfig) -> Option<f64> {
    let proj = project(program, cfg).ok()?;
    if sum.work == 0 {
        return Some(1.0);
    }
    let serial = proj.instances_per_pe.iter().copied().max().unwrap_or(0);
    let denom = sum.span.max(serial).max(1);
    Some(sum.work as f64 / denom as f64)
}

// ---------------------------------------------------------------------------
// Deadlock-freedom (SA008)
// ---------------------------------------------------------------------------

/// Why one wait-graph node waits on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Why {
    /// The consumer reads `addr` of `array` produced by the waitee.
    Data { array: ArrayId, addr: u32 },
    /// Same-PE program order (a blocked PE executes nothing else).
    Chain,
    /// A reduction or reinit barrier.
    Barrier,
}

/// A compact wait-graph node: a participating instance or a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WgNode {
    Instance(u32),
    /// Barrier index (into the barrier list).
    Barrier(u32),
}

struct WaitGraph {
    nodes: Vec<WgNode>,
    adj: Vec<Vec<(u32, Why)>>,
    /// Phase index per barrier, for witness text.
    barrier_phase: Vec<usize>,
}

/// The instance stream as the wait graph needs it, collected from the walk
/// under a schedule: only wait-relevant data edges are kept (cross-PE, or
/// same-PE forward — same-PE backward waits are implied by chain order).
struct WaitEdges<'a, 'p> {
    sched: &'a Schedule<'p>,
    res: &'a Resolver<'p>,
    /// The PE each instance runs on.
    pe_of: Vec<u32>,
    /// `(consumer, producer, array, addr)`.
    data: Vec<(u32, u32, ArrayId, u32)>,
    /// Barrier watermarks `(instance id, phase)`.
    barriers: Vec<(u32, usize)>,
}

impl Pass for WaitEdges<'_, '_> {
    fn instance(&mut self, at: &Instance<'_>) -> Flow {
        let pe = instance_owner(self.sched, self.res, at)?;
        self.pe_of.push(pe as u32);
        Ok(())
    }

    fn read(&mut self, at: &Instance<'_>, read: Read<'_>) -> Flow {
        match exact(read.aref, read.cell)? {
            (addr, Some(w)) if self.pe_of[w as usize] != self.pe_of[at.id as usize] => {
                self.data.push((at.id, w, read.aref.array, addr as u32));
            }
            _ => {}
        }
        Ok(())
    }

    // Forward waits are never chain-implied (producer id > consumer id):
    // keep all.
    fn write(&mut self, at: &Instance<'_>, write: Write<'_>) -> Flow {
        let (addr, released) = exact(write.target, write.cell)?;
        let (array, waits) = (write.target.array, released.iter());
        self.data
            .extend(waits.map(|d| (d.reader, at.id, array, addr as u32)));
        Ok(())
    }

    fn nest_end(&mut self, phase: usize, nest: &LoopNest, count: usize) {
        if nest.body.iter().any(|s| matches!(s, Stmt::Reduce { .. })) {
            self.barriers.push((count as u32, phase));
        }
    }

    fn reinit(&mut self, phase: usize, _array: ArrayId, count: usize) {
        self.barriers.push((count as u32, phase));
    }
}

/// Build the compact wait graph: participating instances + barriers, with
/// data, chain and barrier edges.
fn build_wait_graph(
    n_pes: usize,
    pe_of: &[u32],
    data: &[(u32, u32, ArrayId, u32)],
    barriers: &[(u32, usize)],
) -> WaitGraph {
    let mut participating: Vec<u32> = data.iter().flat_map(|&(c, p, _, _)| [c, p]).collect();
    participating.sort_unstable();
    participating.dedup();
    let compact = |id: u32| participating.binary_search(&id).unwrap() as u32;
    let np = participating.len();
    let mut nodes: Vec<WgNode> = participating.iter().map(|&i| WgNode::Instance(i)).collect();
    let mut barrier_phase = Vec::with_capacity(barriers.len());
    for (bi, &(_, phase)) in barriers.iter().enumerate() {
        nodes.push(WgNode::Barrier(bi as u32));
        barrier_phase.push(phase);
    }
    let mut adj: Vec<Vec<(u32, Why)>> = vec![Vec::new(); nodes.len()];
    for &(c, p, array, addr) in data {
        adj[compact(c) as usize].push((compact(p), Why::Data { array, addr }));
    }
    // Chains and barrier edges, in global instance order.
    let mut last: Vec<Option<u32>> = vec![None; n_pes];
    let mut bi = 0usize;
    for (ci, &inst) in participating.iter().enumerate() {
        while bi < barriers.len() && barriers[bi].0 <= inst {
            let bnode = (np + bi) as u32;
            for l in last.iter_mut() {
                if let Some(prev) = *l {
                    adj[bnode as usize].push((prev, Why::Barrier));
                }
                *l = Some(bnode);
            }
            bi += 1;
        }
        let pe = pe_of[inst as usize] as usize;
        if let Some(prev) = last[pe] {
            let why = match nodes[prev as usize] {
                WgNode::Barrier(_) => Why::Barrier,
                WgNode::Instance(_) => Why::Chain,
            };
            adj[ci].push((prev, why));
        }
        last[pe] = Some(ci as u32);
    }
    while bi < barriers.len() {
        let bnode = (np + bi) as u32;
        for l in last.iter_mut() {
            if let Some(prev) = *l {
                adj[bnode as usize].push((prev, Why::Barrier));
            }
            *l = Some(bnode);
        }
        bi += 1;
    }
    WaitGraph {
        nodes,
        adj,
        barrier_phase,
    }
}

/// Find a directed cycle; returns compact node indices in edge order
/// (`v0 → v1 → … → vk → v0`).
fn find_cycle(adj: &[Vec<(u32, Why)>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    for s in 0..n {
        if color[s] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
        color[s] = 1;
        while let Some(&(u, ei)) = stack.last() {
            if ei < adj[u].len() {
                stack.last_mut().unwrap().1 += 1;
                let v = adj[u][ei].0 as usize;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        let pos = stack.iter().position(|&(x, _)| x == v).unwrap();
                        return Some(stack[pos..].iter().map(|&(x, _)| x).collect());
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Prove the wait graph acyclic under `cfg`, or report the cycle as SA008
/// (with iteration vectors and owning PEs on each hop). Programs that
/// cannot be statically enumerated get an `Info`-severity SA008 note —
/// deadlock-freedom is then undecidable, not disproven.
///
/// The graph is not built for a program that runs in order. Number its
/// nodes by program order — instance `i` at `2i + 1`, a barrier with
/// watermark `w` at `2w`, ties by barrier index: a chain edge leads to the
/// PE's previous node, a barrier edge to a node before the watermark or from
/// an instance past it, and a data edge to the producer, so every edge
/// except a data edge whose producer has the larger id — a *forward
/// deferral*, a read of a cell written later in its generation — points to
/// a strictly earlier node. A cycle needs a forward deferral: a program
/// without one is deadlock-free under every scheme, page size and PE count,
/// without one owner being computed. The progress pass ([`progress`]) says
/// whether there is one — proved absent over sweep footprints, or noted by
/// the owner-free walk that serves SA004/SA006 — and only a program that
/// has one is walked, under the schedule, into the wait graph.
pub fn check_deadlock(program: &Program, cfg: &LintConfig) -> Vec<Diagnostic> {
    let res = Resolver::new(program);
    deadlock(&res, cfg, || progress::observe(&res).forward_deferrals)
}

/// [`check_deadlock`], given what the progress pass saw of the program
/// (asked only of a program and shape the proof is possible for).
pub(crate) fn deadlock(
    res: &Resolver<'_>,
    cfg: &LintConfig,
    forward_deferrals: impl FnOnce() -> Result<bool, InstanceError>,
) -> Vec<Diagnostic> {
    let program = res.program;
    let cycle = || {
        res.check_static()?;
        let sched = schedule(res, cfg)?;
        if !forward_deferrals()? {
            return Ok(None);
        }
        wait_cycle(res, &sched, cfg)
    };
    match cycle() {
        Ok(cycle) => cycle.into_iter().collect(),
        Err(e) => {
            let span = match err_array(e) {
                Some(a) => Span::array(&program.array(a).name),
                None => Span::default(),
            };
            vec![Diagnostic::new(
                Code::Sa008DeadlockCycle,
                span,
                format!("deadlock-freedom not statically provable: {e}"),
            )
            .with_severity(Severity::Info)
            .explain(
                "The wait graph can only be proven acyclic when every reference \
                 resolves statically. This program's instance stream cannot be \
                 enumerated at lint time, so the deadlock check is skipped — the \
                 runtime may still complete normally.",
            )]
        }
    }
}

/// The graph path: walk the program under `sched`, build the wait graph
/// the thread runtime would realize, and report a cycle of it as SA008.
fn wait_cycle(
    res: &Resolver<'_>,
    sched: &Schedule<'_>,
    cfg: &LintConfig,
) -> Result<Option<Diagnostic>, InstanceError> {
    let program = res.program;
    let mut waits = WaitEdges {
        sched,
        res,
        pe_of: Vec::new(),
        data: Vec::new(),
        barriers: Vec::new(),
    };
    walk(res, &mut waits)?;
    let pe_of = waits.pe_of;
    let wg = build_wait_graph(cfg.n_pes, &pe_of, &waits.data, &waits.barriers);
    let Some(cycle) = find_cycle(&wg.adj) else {
        return Ok(None);
    };

    // Recover the witness: describe every instance node in the cycle.
    let wanted: HashSet<u32> = cycle
        .iter()
        .filter_map(|&ni| match wg.nodes[ni] {
            WgNode::Instance(id) => Some(id),
            WgNode::Barrier(_) => None,
        })
        .collect();
    let info = describe(res, &wanted, |at| {
        let (label, ivs) = (at.nest.label.clone(), fmt_ivs(at.nest, at.ivs));
        (at.phase, at.stmt, label, ivs)
    });
    let name_node = |ni: usize| -> String {
        match wg.nodes[ni] {
            WgNode::Instance(id) => {
                let pe = pe_of[id as usize];
                match info.get(&id) {
                    Some((p, s, label, ivs)) => {
                        format!("`{label}`/s{s} {ivs} on PE{pe} (phase {p})")
                    }
                    None => format!("instance {id} on PE{pe}"),
                }
            }
            WgNode::Barrier(bi) => format!("barrier(phase {})", wg.barrier_phase[bi as usize]),
        }
    };
    let edge_why = |from: usize, to: usize| -> Why {
        wg.adj[from]
            .iter()
            .find(|(t, _)| *t as usize == to)
            .map_or(Why::Chain, |&(_, w)| w)
    };
    const MAX_HOPS: usize = 8;
    let mut msg = format!(
        "cyclic I-structure wait under {} x {} PEs x page {}: ",
        cfg.scheme.name(),
        cfg.n_pes,
        cfg.page_size
    );
    let k = cycle.len();
    for (i, &ni) in cycle.iter().take(MAX_HOPS).enumerate() {
        let nj = cycle[(i + 1) % k];
        let why = match edge_why(ni, nj) {
            Why::Data { array, addr } => {
                format!(" waits for {}[{addr}] from ", program.array(array).name)
            }
            Why::Chain => " waits (PE order) for ".to_string(),
            Why::Barrier => " waits (barrier) for ".to_string(),
        };
        if i > 0 {
            msg.push_str("; ");
        }
        msg.push_str(&name_node(ni));
        msg.push_str(&why);
        msg.push_str(&name_node(nj));
    }
    if k > MAX_HOPS {
        msg.push_str(&format!("; ... ({} more hops)", k - MAX_HOPS));
    }
    msg.push_str(" (cycle closes)");
    let span = cycle
        .iter()
        .find_map(|&ni| match wg.nodes[ni] {
            WgNode::Instance(id) => info
                .get(&id)
                .map(|(p, s, label, _)| Span::stmt(*p, label, *s, "")),
            WgNode::Barrier(_) => None,
        })
        .unwrap_or_default();
    Ok(Some(
        Diagnostic::new(Code::Sa008DeadlockCycle, span, msg).explain(
            "Every hop is a wait the thread runtime would actually perform: a \
         consumer blocking on the producer of a cell it reads, a PE's \
         program-order execution chain, or a reduction/reinit barrier. A \
         cycle means no instance on it can ever complete — the runtime \
         deadlocks (or aborts on an undefined read along the cycle). \
         Break it by repartitioning (different scheme/page size), by \
         splitting the mutually-waiting nests, or by separating the \
         generations with a Reinit.",
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sa_ir::index::iv;
    use sa_ir::{Expr, InitPattern, ProgramBuilder, ReduceOp};
    use sa_machine::PartitionScheme;

    fn cfg(n_pes: usize, page_size: usize) -> LintConfig {
        LintConfig {
            n_pes,
            page_size,
            scheme: PartitionScheme::Modulo,
        }
    }

    /// X[k] = Y[k] (Y input): no edges, two gen nodes.
    #[test]
    fn input_satisfied_reads_make_no_edges() {
        let mut b = ProgramBuilder::new("copy");
        let x = b.output("X", &[64]);
        let y = b.input("Y", &[64], InitPattern::Wavy);
        b.nest("copy", &[("k", 0, 63)], |nb| {
            let rhs = nb.read(y, [iv(0)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let g = DepGraph::build(&b.finish());
        assert_eq!(g.nodes.len(), 2);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    /// Two-nest chain: X produced, then Z reads X → one affine edge.
    #[test]
    fn cross_nest_chain_has_one_edge() {
        let mut b = ProgramBuilder::new("chain");
        let x = b.output("X", &[64]);
        let z = b.output("Z", &[64]);
        b.nest("produce", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.nest("consume", &[("k", 0, 63)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        assert_eq!(g.edges.len(), 1);
        let e = &g.edges[0];
        assert_eq!(e.kind, EdgeKind::Affine);
        assert_eq!(e.writer, SiteRef { phase: 0, stmt: 0 });
        assert_eq!(e.reader, SiteRef { phase: 1, stmt: 0 });
        assert_eq!(g.nodes[e.src].label, "X#0");
        assert_eq!(g.nodes[e.dst].label, "Z#0");
        assert!(g.covers_wait(1, 0, x, 0));
        assert!(!g.covers_wait(0, 0, x, 0));
    }

    /// Disjoint halves: the nest writes X[32..64) while the reader reads
    /// the init-covered X[0..32) → range test rejects the pair.
    #[test]
    fn disjoint_ranges_make_no_edge() {
        let mut b = ProgramBuilder::new("disjoint");
        let x = b.array_with(
            "X",
            &[64],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Zero,
                len: 32,
            },
        );
        let z = b.output("Z", &[32]);
        b.nest("hi", &[("k", 0, 31)], |nb| {
            nb.assign(x, [iv(0).plus(32)], Expr::Const(1.0));
        });
        b.nest("lo", &[("k", 0, 31)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let g = DepGraph::build(&b.finish());
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    /// GCD residue: writes even cells, reads odd cells → no edge even
    /// though ranges overlap.
    #[test]
    fn gcd_residue_rejects_interleaved_footprints() {
        let mut b = ProgramBuilder::new("parity");
        let x = b.output("X", &[64]);
        let z = b.output("Z", &[31]);
        b.nest("even", &[("k", 0, 31)], |nb| {
            nb.assign(x, [iv(0).scale(2)], Expr::Const(0.0));
        });
        b.nest("odd", &[("k", 0, 30)], |nb| {
            let rhs = nb.read(x, [iv(0).scale(2).plus(1)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        assert!(
            g.edges.is_empty(),
            "even writes must not alias odd reads: {:?}",
            g.edges
        );
    }

    /// Same-nest recurrence X[k] = X[k-1]: self-edge on the X generation.
    #[test]
    fn recurrence_is_a_self_edge() {
        let mut b = ProgramBuilder::new("rec");
        let x = b.array_with(
            "X",
            &[64],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Const(2.0),
                len: 1,
            },
        );
        b.nest("scan", &[("k", 1, 63)], |nb| {
            let prev = nb.read(x, [iv(0).plus(-1)]);
            nb.assign(x, [iv(0)], prev);
        });
        let g = DepGraph::build(&b.finish());
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].src, g.edges[0].dst);
    }

    /// Reinit splits generations: post-reinit reads depend on the new
    /// generation's writer, not the old one.
    #[test]
    fn reinit_separates_generations() {
        let mut b = ProgramBuilder::new("gens");
        let x = b.output("X", &[16]);
        let z = b.output("Z", &[16]);
        let w = b.output("W", &[16]);
        b.nest("g0", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
        });
        b.nest("use0", &[("k", 0, 15)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        b.reinit(x);
        b.nest("g1", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.nest("use1", &[("k", 0, 15)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(w, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        let g0 = g.gen_node(x, 0).unwrap();
        let g1 = g.gen_node(x, 1).unwrap();
        assert!(g.edges.iter().any(|e| e.src == g0 && e.reader.phase == 1));
        assert!(g.edges.iter().any(|e| e.src == g1 && e.reader.phase == 4));
        assert!(!g.edges.iter().any(|e| e.src == g0 && e.reader.phase == 4));
        assert!(g.covers_wait(4, 0, x, 1));
        assert!(!g.covers_wait(4, 0, x, 0));
    }

    /// A reduction result consumed later: scalar-broadcast edge from the
    /// reduce node.
    #[test]
    fn scalar_broadcast_edge() {
        let mut b = ProgramBuilder::new("dot");
        let x = b.input(
            "X",
            &[32],
            InitPattern::Linear {
                base: 1.0,
                step: 1.0,
            },
        );
        let z = b.output("Z", &[32]);
        let s = b.scalar("sum");
        b.nest("acc", &[("k", 0, 31)], |nb| {
            let v = nb.read(x, [iv(0)]);
            nb.reduce(s, ReduceOp::Sum, v);
        });
        b.nest("scale", &[("k", 0, 31)], |nb| {
            nb.assign(z, [iv(0)], Expr::Scalar(s));
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        let scalar_edges: Vec<_> = g.edges.iter().filter(|e| e.array.is_none()).collect();
        assert_eq!(scalar_edges.len(), 1);
        let e = scalar_edges[0];
        assert!(matches!(g.nodes[e.src].kind, NodeKind::Reduce { .. }));
        assert_eq!(e.kind, EdgeKind::Exact);
        assert_eq!(e.reader.phase, 1);
    }

    /// Runtime-valued index array → conservative undecidable edge.
    #[test]
    fn runtime_gather_is_undecidable() {
        let mut b = ProgramBuilder::new("rt");
        let idx = b.output("IDX", &[16]);
        let x = b.output("X", &[16]);
        let z = b.output("Z", &[16]);
        b.nest("mkidx", &[("k", 0, 15)], |nb| {
            nb.assign(idx, [iv(0)], Expr::LoopVar(0));
        });
        b.nest("mkx", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(2.0));
        });
        b.nest("gather", &[("k", 0, 15)], |nb| {
            let rhs = nb.read_indirect(x, idx, iv(0));
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Undecidable && e.array == Some(x)));
        // The index-array read itself is affine and exact/affine-edged.
        assert!(g
            .edges
            .iter()
            .any(|e| e.array == Some(idx) && e.kind != EdgeKind::Undecidable));
        assert!(summary(&p).is_err());
        assert_eq!(
            project(&p, &cfg(4, 8)),
            Err(InstanceError::RuntimeIndirection(idx))
        );
    }

    /// Static gather footprints intersect exactly.
    #[test]
    fn static_gather_is_exact() {
        let mut b = ProgramBuilder::new("sg");
        let idx = b.input("IDX", &[16], InitPattern::Permutation { seed: 7 });
        let x = b.output("X", &[16]);
        let z = b.output("Z", &[16]);
        b.nest("mkx", &[("k", 0, 15)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(2.0));
        });
        b.nest("gather", &[("k", 0, 15)], |nb| {
            let rhs = nb.read_indirect(x, idx, iv(0));
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        let e: Vec<_> = g.edges.iter().filter(|e| e.array == Some(x)).collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].kind, EdgeKind::Exact);
    }

    /// Span of an elementwise nest is 1 step; a chained consumer adds one.
    #[test]
    fn summary_of_chain() {
        let mut b = ProgramBuilder::new("chain");
        let x = b.output("X", &[100]);
        let z = b.output("Z", &[100]);
        b.nest("produce", &[("k", 0, 99)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.nest("consume", &[("k", 0, 99)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let s = summary(&b.finish()).unwrap();
        assert_eq!(s.work, 200);
        assert_eq!(s.span, 2);
        assert!((s.parallelism - 100.0).abs() < 1e-9);
    }

    /// A sequential scan has span ≈ n: no parallelism to find.
    #[test]
    fn summary_of_scan_is_sequential() {
        let mut b = ProgramBuilder::new("scan");
        let x = b.array_with(
            "X",
            &[65],
            sa_ir::program::ArrayInit::Prefix {
                pattern: InitPattern::Const(2.0),
                len: 1,
            },
        );
        b.nest("scan", &[("k", 1, 64)], |nb| {
            let prev = nb.read(x, [iv(0).plus(-1)]);
            nb.assign(x, [iv(0)], prev);
        });
        let s = summary(&b.finish()).unwrap();
        assert_eq!(s.work, 64);
        assert_eq!(s.span, 64);
    }

    /// Reduction span includes the log-depth combine tree, and consumers
    /// of the scalar sit beneath it.
    #[test]
    fn summary_reduction_tree_depth() {
        let mut b = ProgramBuilder::new("dot");
        let x = b.input(
            "X",
            &[64],
            InitPattern::Linear {
                base: 1.0,
                step: 1.0,
            },
        );
        let z = b.output("Z", &[64]);
        let s = b.scalar("sum");
        b.nest("acc", &[("k", 0, 63)], |nb| {
            let v = nb.read(x, [iv(0)]);
            nb.reduce(s, ReduceOp::Sum, v);
        });
        b.nest("scale", &[("k", 0, 63)], |nb| {
            nb.assign(z, [iv(0)], Expr::Scalar(s));
        });
        let sum = summary(&b.finish()).unwrap();
        // contributions depth 1, collector +log2(64)=6, consumer +1.
        assert_eq!(sum.span, 1 + 6 + 1);
        assert_eq!(sum.work, 128);
    }

    /// Projection matches hand-computed modulo ownership, and the bound
    /// respects both span and serialization.
    #[test]
    fn projection_and_speedup_bound() {
        let mut b = ProgramBuilder::new("proj");
        let x = b.output("X", &[64]);
        b.nest("fill", &[("k", 0, 63)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(0.0));
        });
        let p = b.finish();
        // 4 PEs, page 8 → 8 pages round-robin → 2 pages = 16 writes per PE.
        let c = cfg(4, 8);
        let proj = project(&p, &c).unwrap();
        assert_eq!(proj.writes_per_pe, vec![16, 16, 16, 16]);
        assert_eq!(proj.instances_per_pe, vec![16, 16, 16, 16]);
        let bound = speedup_bound(&p, &c).unwrap();
        // work 64, span 1, serialization 16 → bound 4 = n_pes.
        assert!((bound - 4.0).abs() < 1e-9);
        // One PE owns everything under Block with a huge page.
        let c1 = LintConfig {
            n_pes: 4,
            page_size: 64,
            scheme: PartitionScheme::Block,
        };
        let bound1 = speedup_bound(&p, &c1).unwrap();
        assert!((bound1 - 1.0).abs() < 1e-9);
    }

    /// Anchorless statements go round-robin with a persistent counter.
    #[test]
    fn anchorless_round_robin_projection() {
        let mut b = ProgramBuilder::new("rr");
        let s = b.scalar("acc");
        b.nest("count", &[("k", 0, 9)], |nb| {
            nb.reduce(s, ReduceOp::Sum, Expr::Const(1.0));
        });
        let p = b.finish();
        let c = cfg(4, 8);
        let proj = project(&p, &c).unwrap();
        assert_eq!(proj.writes_per_pe, vec![0, 0, 0, 0]);
        // 10 instances round-robin over 4 PEs starting at 0.
        assert_eq!(proj.instances_per_pe, vec![3, 3, 2, 2]);
    }

    /// A clean forward-deferral program is deadlock-free.
    #[test]
    fn forward_deferral_is_not_a_deadlock() {
        let mut b = ProgramBuilder::new("fwd");
        let x = b.output("X", &[8]);
        let z = b.output("Z", &[8]);
        // Z reads X before X's producing nest runs: legal deferral.
        b.nest("consume", &[("k", 0, 7)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        b.nest("produce", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        let p = b.finish();
        // Different PEs own X[k] and Z[k]? Under modulo page 1 they map the
        // same, so consumer and producer share a PE — the forward wait
        // deadlocks there. Use page 1 × 2 PEs but shift the read.
        let diags = check_deadlock(&p, &cfg(16, 1));
        // Same-PE forward wait: consumer at X[k] waits for its own PE's
        // later instance → this IS a deadlock under owner-computes.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Sa008DeadlockCycle);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    /// Cross-PE *backward* dependence (producers run first, consumers
    /// later read a shifted neighbour): provably deadlock-free.
    #[test]
    fn cross_pe_backward_dependence_is_clean() {
        let mut b = ProgramBuilder::new("bwd2");
        let x = b.output("X", &[8]);
        let z = b.output("Z", &[7]);
        b.nest("produce", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        // Z[k] reads X[k+1]: under modulo × page 1 × 2 PEs the producer
        // lives on the opposite PE, but it already ran → every wait is
        // backward and the wait graph is acyclic.
        b.nest("consume", &[("k", 0, 6)], |nb| {
            let rhs = nb.read(x, [iv(0).plus(1)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let diags = check_deadlock(&p, &cfg(2, 1));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The seeded cyclic-deferral mutant: two nests exchange through each
    /// other's outputs cross-PE → SA008 with iteration vectors.
    #[test]
    fn cyclic_exchange_mutant_is_rejected() {
        let mut b = ProgramBuilder::new("mutant");
        let w = b.output("W", &[2]);
        let x = b.output("X", &[2]);
        b.nest("xch1", &[("k", 0, 1)], |nb| {
            let rhs = nb.read(x, [iv(0).scale(-1).plus(1)]);
            nb.assign(w, [iv(0)], rhs);
        });
        b.nest("xch2", &[("k", 0, 1)], |nb| {
            let rhs = nb.read(w, [iv(0).scale(-1).plus(1)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let p = b.finish();
        let diags = check_deadlock(&p, &cfg(2, 1));
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, Code::Sa008DeadlockCycle);
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.message.contains("k="),
            "no iteration vector: {}",
            d.message
        );
        assert!(d.message.contains("PE"), "no PE in witness: {}", d.message);
    }

    /// The same exchange under 1 PE also deadlocks (chain + forward wait).
    #[test]
    fn exchange_deadlocks_on_one_pe_too() {
        let mut b = ProgramBuilder::new("mutant1");
        let w = b.output("W", &[2]);
        let x = b.output("X", &[2]);
        b.nest("xch1", &[("k", 0, 1)], |nb| {
            let rhs = nb.read(x, [iv(0).scale(-1).plus(1)]);
            nb.assign(w, [iv(0)], rhs);
        });
        b.nest("xch2", &[("k", 0, 1)], |nb| {
            let rhs = nb.read(w, [iv(0).scale(-1).plus(1)]);
            nb.assign(x, [iv(0)], rhs);
        });
        let p = b.finish();
        let diags = check_deadlock(&p, &cfg(1, 32));
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    /// One copy nest of a generated exchange program: `A[dst][k] ←
    /// A[src][k']` with `k'` being `k + shift` or its mirror image, over a
    /// stretch of the `k` that keep `k'` inside the array.
    #[derive(Debug, Clone)]
    struct Copy {
        dst: usize,
        src: usize,
        mirrored: bool,
        shift: i64,
        /// Picks the stretch: where it starts and how long it is.
        stretch: (usize, usize),
        /// Run one trip past the stretch, out of the array.
        overrun: bool,
        /// Re-initialize `A[dst]` first.
        reinit: bool,
        /// Follow with a reduction over `A[dst]`.
        reduce: bool,
    }

    /// Copies among three arrays in any order: a nest reading what a later
    /// nest writes defers forward, and two that read each other exchange.
    fn exchange_program(n: usize, inputs: [bool; 3], copies: &[Copy]) -> Program {
        let mut b = ProgramBuilder::new("exchange");
        let arrays = [0, 1, 2].map(|a| match inputs[a] {
            true => b.input(format!("A{a}"), &[n], InitPattern::Wavy),
            false => b.output(format!("A{a}"), &[n]),
        });
        let s = b.scalar("s");
        let last = n as i64 - 1;
        for (i, c) in copies.iter().enumerate() {
            if c.reinit {
                b.reinit(arrays[c.dst]);
            }
            // `k + shift` stays in `0 ..= last` for `k` in `lo ..= hi`.
            let shift = c.shift.clamp(-last, last);
            let (lo, hi) = ((-shift).max(0), last.min(last - shift));
            let lo = lo + (c.stretch.0 as i64) % (hi - lo + 1);
            let hi = lo + (c.stretch.1 as i64) % (hi - lo + 1) + i64::from(c.overrun);
            b.nest(format!("n{i}"), &[("k", lo, hi)], |nb| {
                let from = match c.mirrored {
                    true => iv(0).scale(-1).plus(last - shift),
                    false => iv(0).plus(shift),
                };
                let rhs = nb.read(arrays[c.src], [from]);
                nb.assign(arrays[c.dst], [iv(0)], rhs);
            });
            if c.reduce {
                b.nest(format!("r{i}"), &[("k", 0, last)], |nb| {
                    let v = nb.read(arrays[c.dst], [iv(0)]);
                    nb.reduce(s, ReduceOp::Sum, v);
                });
            }
        }
        b.finish()
    }

    fn copy_strategy() -> impl Strategy<Value = Copy> {
        let rarely = |one_in: usize| {
            let mut options = vec![false; one_in];
            options[0] = true;
            proptest::sample::select(options)
        };
        (
            (0usize..3, 0usize..3),
            (proptest::bool::ANY, -3i64..4),
            (0usize..8, 0usize..8),
            (rarely(12), rarely(4), rarely(3)),
        )
            .prop_map(
                |((dst, src), (mirrored, shift), stretch, (overrun, reinit, reduce))| Copy {
                    dst,
                    src,
                    mirrored,
                    shift,
                    stretch,
                    overrun,
                    reinit,
                    reduce,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The ordering theorem, against the graph it spares: a program the
        /// owner-free walk saw no forward deferral in has no cycle in its
        /// wait graph, under any shape; and where the graph path finds a
        /// cycle, `check_deadlock` took that path and reports it.
        #[test]
        fn no_forward_deferral_no_cycle(
            n in 2usize..9,
            inputs in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            copies in proptest::collection::vec(copy_strategy(), 1..5),
            n_pes in 1usize..5,
            page_size in proptest::sample::select(vec![1usize, 2, 4]),
            scheme in prop_oneof![Just(PartitionScheme::Modulo), Just(PartitionScheme::Block)],
        ) {
            let p = exchange_program(n, [inputs.0, inputs.1, inputs.2], &copies);
            let c = LintConfig { n_pes, page_size, scheme };
            let res = Resolver::new(&p);
            let forward = progress::observe(&res).forward_deferrals;
            let forced = wait_cycle(&res, &schedule(&res, &c).unwrap(), &c);
            match (forward, forced) {
                (Ok(false), forced) => prop_assert_eq!(forced, Ok(None)),
                (Ok(true), Ok(cycle)) => {
                    let reported = check_deadlock(&p, &c);
                    prop_assert_eq!(reported, cycle.into_iter().collect::<Vec<_>>());
                }
                // A reference that names no cell: both walks stop on it.
                (Err(e), forced) => prop_assert_eq!(forced, Err(e)),
                (Ok(true), Err(e)) => prop_assert!(false, "only the graph path failed: {e}"),
            }
        }
    }

    /// DOT and JSON render without panicking and carry the basics.
    #[test]
    fn renders_dot_and_json() {
        let mut b = ProgramBuilder::new("render");
        let x = b.output("X", &[8]);
        let z = b.output("Z", &[8]);
        b.nest("a", &[("k", 0, 7)], |nb| {
            nb.assign(x, [iv(0)], Expr::Const(1.0));
        });
        b.nest("b", &[("k", 0, 7)], |nb| {
            let rhs = nb.read(x, [iv(0)]);
            nb.assign(z, [iv(0)], rhs);
        });
        let p = b.finish();
        let g = DepGraph::build(&p);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("X#0"));
        assert!(dot.contains("style=dashed"));
        let sum = summary(&p).unwrap();
        let json = g.to_json(&p, Some(&sum));
        assert!(json.contains("\"kind\":\"gen\""));
        assert!(json.contains("\"work\":16"));
        assert!(json.contains("\"span\":2"));
    }
}

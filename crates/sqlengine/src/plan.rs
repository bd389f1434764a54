//! Physical query planning: lowering a parsed `SELECT` into a tree of
//! physical operators.
//!
//! The planner replaces the legacy "cross-product everything, then filter"
//! strategy for the FROM/JOIN/WHERE section of a query with three
//! optimizations, while leaving projection, grouping, ordering, and limiting
//! to the shared executor pipeline:
//!
//! 1. **Hash equi-joins** — a join whose `ON` clause (or, for comma joins,
//!    the `WHERE` clause) contains a `left.col = right.col` conjunct builds
//!    a hash table over the right relation's key and probes it with each
//!    left row, turning an O(|L|·|R|) nested loop into O(|L| + |R|). The
//!    full `ON` predicate is still re-evaluated on hash candidates, so the
//!    hash phase can only *narrow* the candidate set, never change results.
//! 2. **Predicate pushdown** — `WHERE` conjuncts that reference exactly one
//!    base relation are evaluated while scanning that relation, shrinking
//!    join inputs. Conjuncts on the right side of a `LEFT JOIN` are never
//!    pushed (they must see the NULL-padded row), and conjuncts containing
//!    subqueries or aggregates always stay post-join.
//! 3. **Primary-key point lookups** — a pushed conjunct of the shape
//!    `pk = literal` on an indexed table fetches matching rows from the
//!    table's hash index instead of scanning.
//!
//! Before execution, correlated scalar/`IN`/`EXISTS` subqueries also pass
//! through the decorrelation analysis ([`mod@crate::decorrelate`],
//! memoized here in [`PlanCache::rewrite_for`]): provably rewritable shapes
//! become hash semi/anti/group joins executed by the runtime in
//! [`crate::exec`], the rest keep the per-outer-row cached-plan path.
//!
//! Plans preserve the legacy executor's row *order* as well as its row
//! multiset: hash probes return matches in right-scan order, so
//! `LIMIT`-without-`ORDER BY` queries stay bit-for-bit identical between
//! [`PlanMode::Columnar`], which executes these plans, and the
//! [`PlanMode::NestedLoop`] oracle, which never plans. The conformance
//! suite in `tests/engine_conformance.rs` asserts this equivalence over
//! every gold query of both synthetic corpora.
//!
//! **Equivalence contract, precisely:** for any query that evaluates
//! without error, both modes return identical rows in identical order.
//! For queries whose predicates can *error* at evaluation time (unknown
//! function, scalar subquery with more than one row, …), which error
//! surfaces — or whether it surfaces at all — is plan-dependent: pushdown
//! reorders conjunct evaluation, so a pushed conjunct may filter out every
//! row before an erroring post-join conjunct ever runs. Production engines
//! behave the same way (predicate evaluation order is unspecified in SQL),
//! and the eval layer always runs gold and predicted SQL under the same
//! mode, so EX/VES comparisons are unaffected.

use std::sync::OnceLock;

use crate::ast::{Expr, JoinKind, Projection, QueryId, SelectStatement, TableRef};
use crate::decorrelate::{decorrelate, DecorrelatedSubquery, SubqueryPosition};
use crate::error::{SqlError, SqlResult};
use crate::result::ExecStats;
use crate::storage::Database;
use crate::value::Value;

/// Which executor runs a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// The production executor: the physical plans above (hash equi-joins,
    /// PK lookups, predicate pushdown), run over
    /// [`crate::chunk::DataChunk`] batches of typed column arrays, with
    /// batch expression kernels and a per-operator row bridge for whatever
    /// is not vectorized (see [`crate::columnar`]). Uncorrelated subqueries
    /// are result-cached and correlated ones decorrelated where sound.
    #[default]
    Columnar,
    /// The semantic oracle: nested-loop joins and post-join filtering
    /// only, no planning, caching or decorrelation. The differential suites
    /// check `Columnar` against it.
    NestedLoop,
}

impl PlanMode {
    /// The mode serving and evaluation run under: the `Default`,
    /// [`PlanMode::Columnar`].
    pub fn serving() -> PlanMode {
        PlanMode::Columnar
    }
}

/// Metadata for one column of a flattened (joined) relation.
#[derive(Debug, Clone)]
pub struct ColMeta {
    /// Accepted qualifiers (alias and base-table name), lowercased.
    pub quals: Vec<String>,
    /// Original column name.
    pub name: String,
}

/// A primary-key point lookup planned for a scan.
#[derive(Debug, Clone)]
pub struct PkLookup {
    /// Column position (within the scan's layout) of the primary key.
    pub column: usize,
    /// Literal the key must equal.
    pub value: Value,
}

/// A physical operator. Joins are left-deep, mirroring the syntactic join
/// chain; the planner chooses the operator per join, not the join order.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan of a named base table, with pushed-down predicates and an
    /// optional PK point lookup.
    SeqScan {
        table: String,
        /// Lowercased qualifiers (base name and alias) the scan answers to.
        quals: Vec<String>,
        /// Single-relation `WHERE` conjuncts evaluated during the scan.
        pushed: Vec<Expr>,
        /// When set, rows come from the PK index instead of a full scan.
        lookup: Option<PkLookup>,
    },
    /// A derived table (subquery in FROM); the subquery is itself planned
    /// when it executes.
    SubqueryScan {
        query: Box<SelectStatement>,
        alias: String,
        /// Single-relation `WHERE` conjuncts evaluated on the subquery rows.
        pushed: Vec<Expr>,
    },
    /// Hash equi-join: builds on the right input's key column, probes with
    /// the left input's. `on` is the complete join predicate, re-checked on
    /// every hash candidate.
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        /// Key column position in the left (probe) layout.
        left_key: usize,
        /// Key column position in the right (build) layout.
        right_key: usize,
        on: Option<Expr>,
    },
    /// Fallback nested-loop join for predicates with no extractable equi-key.
    NestedLoopJoin { left: Box<PlanNode>, right: Box<PlanNode>, kind: JoinKind, on: Option<Expr> },
}

/// The physical plan for a query's FROM/JOIN/WHERE section.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Operator tree; `None` for a FROM-less `SELECT`.
    pub root: Option<PlanNode>,
    /// Flattened column layout of the joined relation.
    pub layout: Vec<ColMeta>,
    /// `WHERE` conjuncts that must run after the join (multi-relation
    /// predicates, subqueries, and everything not proven pushable).
    pub where_remnant: Vec<Expr>,
}

impl PhysicalPlan {
    /// Renders the operator tree, EXPLAIN-style.
    pub fn explain(&self) -> String {
        self.explain_annotated(&|_| String::new())
    }

    /// Renders the operator tree with a per-node annotation suffix —
    /// `EXPLAIN ANALYZE` passes a closure mapping each node to its measured
    /// profile (empty string ⇒ no suffix).
    pub fn explain_annotated(&self, annotate: &dyn Fn(&PlanNode) -> String) -> String {
        let mut out = String::new();
        match &self.root {
            None => out.push_str("Result (no FROM)\n"),
            Some(node) => explain_node(node, 0, annotate, &mut out),
        }
        if !self.where_remnant.is_empty() {
            out.push_str(&format!("Filter: {} post-join conjunct(s)\n", self.where_remnant.len()));
        }
        out
    }

    /// True if any operator in the tree is a hash join.
    pub fn uses_hash_join(&self) -> bool {
        fn walk(n: &PlanNode) -> bool {
            match n {
                PlanNode::HashJoin { .. } => true,
                PlanNode::NestedLoopJoin { left, right, .. } => walk(left) || walk(right),
                _ => false,
            }
        }
        self.root.as_ref().is_some_and(walk)
    }

    /// True if any scan in the tree is a PK point lookup.
    pub fn uses_index_lookup(&self) -> bool {
        fn walk(n: &PlanNode) -> bool {
            match n {
                PlanNode::SeqScan { lookup, .. } => lookup.is_some(),
                PlanNode::HashJoin { left, right, .. }
                | PlanNode::NestedLoopJoin { left, right, .. } => walk(left) || walk(right),
                PlanNode::SubqueryScan { .. } => false,
            }
        }
        self.root.as_ref().is_some_and(walk)
    }
}

/// The one-line `EXPLAIN` label for a physical operator — the single source
/// of truth shared by the plan renderer and the per-operator profiler, so
/// `EXPLAIN ANALYZE` annotations always match the rendered tree.
pub fn node_label(node: &PlanNode) -> String {
    match node {
        PlanNode::SeqScan { table, pushed, lookup, .. } => {
            let mut s = match lookup {
                Some(l) => {
                    format!("IndexLookup {table} (pk #{} = {})", l.column, l.value.render())
                }
                None => format!("SeqScan {table}"),
            };
            if !pushed.is_empty() {
                s.push_str(&format!(" [{} pushed predicate(s)]", pushed.len()));
            }
            s
        }
        PlanNode::SubqueryScan { alias, pushed, .. } => {
            let mut s = format!("SubqueryScan {alias}");
            if !pushed.is_empty() {
                s.push_str(&format!(" [{} pushed predicate(s)]", pushed.len()));
            }
            s
        }
        PlanNode::HashJoin { kind, left_key, right_key, .. } => {
            format!("HashJoin ({kind:?}) probe=#{left_key} build=#{right_key}")
        }
        PlanNode::NestedLoopJoin { kind, .. } => format!("NestedLoopJoin ({kind:?})"),
    }
}

fn explain_node(
    node: &PlanNode,
    depth: usize,
    annotate: &dyn Fn(&PlanNode) -> String,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    out.push_str(&node_label(node));
    let suffix = annotate(node);
    if !suffix.is_empty() {
        out.push(' ');
        out.push_str(&suffix);
    }
    out.push('\n');
    match node {
        PlanNode::HashJoin { left, right, .. } | PlanNode::NestedLoopJoin { left, right, .. } => {
            explain_node(left, depth + 1, annotate, out);
            explain_node(right, depth + 1, annotate, out);
        }
        PlanNode::SeqScan { .. } | PlanNode::SubqueryScan { .. } => {}
    }
}

/// Static column layout of one plan node's output relation, mirroring what
/// executing the node materializes. Used by `EXPLAIN`'s columnar-bridge
/// analysis to evaluate batch-expressibility per operator without running
/// anything.
pub(crate) fn node_layout(db: &Database, node: &PlanNode) -> SqlResult<Vec<ColMeta>> {
    match node {
        PlanNode::SeqScan { table, quals, .. } => {
            let t = db.table(table)?;
            Ok(t.schema
                .columns
                .iter()
                .map(|c| ColMeta { quals: quals.clone(), name: c.name.clone() })
                .collect())
        }
        PlanNode::SubqueryScan { query, alias, .. } => {
            let headers = select_headers(db, query)?;
            let quals = vec![alias.to_ascii_lowercase()];
            Ok(headers.into_iter().map(|name| ColMeta { quals: quals.clone(), name }).collect())
        }
        PlanNode::HashJoin { left, right, .. } | PlanNode::NestedLoopJoin { left, right, .. } => {
            let mut cols = node_layout(db, left)?;
            cols.extend(node_layout(db, right)?);
            Ok(cols)
        }
    }
}

/// Column positions in `layout` matching a `qualifier.name` reference, in
/// layout order. Mirrors the executor's scope resolution (case-insensitive
/// names, lowercased qualifiers) so planning decisions agree with runtime
/// resolution.
pub(crate) fn resolve_in(layout: &[ColMeta], qual: Option<&str>, name: &str) -> Vec<usize> {
    let qual = qual.map(str::to_ascii_lowercase);
    layout
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && match &qual {
                    Some(q) => c.quals.contains(q),
                    None => true,
                }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Lowercased qualifiers a table reference answers to.
fn ref_quals(tref: &TableRef) -> Vec<String> {
    match tref {
        TableRef::Named { table, alias } => {
            let mut quals = vec![table.to_ascii_lowercase()];
            if let Some(a) = alias {
                quals.push(a.to_ascii_lowercase());
            }
            quals
        }
        TableRef::Derived { alias, .. } => vec![alias.to_ascii_lowercase()],
    }
}

/// Static column layout of a table reference, without executing anything.
///
/// For derived tables this re-derives the subquery's output headers from its
/// projections, recursing for wildcards. It must agree with the executor's
/// `expand_projections`; the engine conformance suite holds the two together.
fn table_ref_layout(db: &Database, tref: &TableRef) -> SqlResult<Vec<ColMeta>> {
    let quals = ref_quals(tref);
    match tref {
        TableRef::Named { table, .. } => {
            let t = db.table(table)?;
            Ok(t.schema
                .columns
                .iter()
                .map(|c| ColMeta { quals: quals.clone(), name: c.name.clone() })
                .collect())
        }
        TableRef::Derived { query, .. } => {
            let headers = select_headers(db, query)?;
            Ok(headers.into_iter().map(|name| ColMeta { quals: quals.clone(), name }).collect())
        }
    }
}

/// Expands a projection list against a column layout into output headers
/// plus one expression per output column.
///
/// This is the *single* source of truth for projection expansion: the
/// executor calls it at runtime with the materialized relation's layout,
/// and the planner calls it (via [`select_headers`]) with the statically
/// derived layout — so the two can never disagree on a derived table's
/// output columns.
pub(crate) fn expand_projections(
    projections: &[Projection],
    cols: &[ColMeta],
) -> SqlResult<(Vec<String>, Vec<Expr>)> {
    let mut headers = Vec::new();
    let mut exprs = Vec::new();
    for p in projections {
        match p {
            Projection::Wildcard => {
                for c in cols {
                    headers.push(c.name.clone());
                    exprs.push(Expr::Column {
                        table: c.quals.first().cloned(),
                        column: c.name.clone(),
                    });
                }
                if cols.is_empty() {
                    return Err(SqlError::Execution("SELECT * with no FROM clause".into()));
                }
            }
            Projection::TableWildcard(t) => {
                let tl = t.to_ascii_lowercase();
                let mut any = false;
                for c in cols {
                    if c.quals.contains(&tl) {
                        headers.push(c.name.clone());
                        exprs
                            .push(Expr::Column { table: Some(tl.clone()), column: c.name.clone() });
                        any = true;
                    }
                }
                if !any {
                    return Err(SqlError::UnknownTable(t.clone()));
                }
            }
            Projection::Expr { expr, alias } => {
                let header = alias.clone().unwrap_or_else(|| describe_expr(expr));
                headers.push(header);
                exprs.push(expr.clone());
            }
        }
    }
    Ok((headers, exprs))
}

/// Static column layout of a statement's full FROM/JOIN input relation —
/// the scope its `WHERE` clause evaluates against. Shared with the
/// decorrelation analysis, which classifies predicate sides by whether they
/// resolve in this layout.
pub(crate) fn statement_input_layout(
    db: &Database,
    stmt: &SelectStatement,
) -> SqlResult<Vec<ColMeta>> {
    let mut inner: Vec<ColMeta> = Vec::new();
    if let Some(from) = &stmt.from {
        inner.extend(table_ref_layout(db, from)?);
    }
    for join in &stmt.joins {
        inner.extend(table_ref_layout(db, &join.table)?);
    }
    Ok(inner)
}

/// Static output headers of a `SELECT`, computed by running the shared
/// projection expansion over the statically derived input layout.
fn select_headers(db: &Database, stmt: &SelectStatement) -> SqlResult<Vec<String>> {
    let inner = statement_input_layout(db, stmt)?;
    let (headers, _) = expand_projections(&stmt.projections, &inner)?;
    Ok(headers)
}

/// Default header for an unaliased projection expression (shared with the
/// executor's projection expansion).
pub(crate) fn describe_expr(expr: &Expr) -> String {
    match expr {
        Expr::Column { table, column } => match table {
            Some(t) => format!("{t}.{column}"),
            None => column.clone(),
        },
        Expr::Aggregate { kind, distinct, arg } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => describe_expr(a),
            };
            if *distinct {
                format!("{}(DISTINCT {})", kind.name(), inner)
            } else {
                format!("{}({})", kind.name(), inner)
            }
        }
        Expr::Function { name, args } => {
            let inner: Vec<String> = args.iter().map(describe_expr).collect();
            format!("{}({})", name, inner.join(", "))
        }
        Expr::Literal(v) => v.render(),
        Expr::Arith { left, right, op } => {
            let sym = match op {
                crate::value::ArithOp::Add => "+",
                crate::value::ArithOp::Sub => "-",
                crate::value::ArithOp::Mul => "*",
                crate::value::ArithOp::Div => "/",
                crate::value::ArithOp::Mod => "%",
            };
            format!("{} {} {}", describe_expr(left), sym, describe_expr(right))
        }
        Expr::Cast { expr, target } => {
            format!("CAST({} AS {})", describe_expr(expr), target.sql_name())
        }
        _ => "expr".to_string(),
    }
}

/// The plans and decorrelation rewrites of one parsed statement, keyed by
/// [`QueryId`].
///
/// Planning is pure in the database schema and the statement, so a
/// statement that executes many times (a correlated scalar/`IN`/`EXISTS`
/// subquery runs once per outer row, a derived table once per enclosing
/// execution, a prepared statement once per request) needs planning exactly
/// once. The executor threads every `plan_select` call through the cache;
/// hits and misses are reported in [`ExecStats`].
///
/// Besides physical plans, the cache memoizes the [`mod@crate::decorrelate`]
/// analysis per subquery, and gives each successful rewrite's build
/// statement a plan slot of its own: repeated executions of a decorrelated
/// statement neither re-analyze nor re-plan.
///
/// The cache is a fixed array of write-once slots sized from the parse
/// ([`SelectStatement::query_count`]): ids `0..n` are the statement's own
/// `SELECT`s, and id `n + k` is the build statement of query `k`'s rewrite.
/// Ids are dense and clones keep them, so the plan of a derived table or
/// subquery copied into an enclosing plan is the same slot as the
/// original's. Slots are filled through `&self`, so one cache is shared by
/// every execution of its statement, on any thread: executions racing on an
/// empty slot may both plan, and the first plan stored wins. A cache only
/// answers for the statement it was sized from (or a clone of it).
#[derive(Debug)]
pub struct PlanCache {
    /// Plan slots: one per query id, then one per decorrelation build.
    /// Boxed, so the slots most statements never fill stay two words wide.
    plans: Box<[OnceLock<Box<PhysicalPlan>>]>,
    /// Decorrelation verdict per query id; a `None` inside records
    /// "analyzed, not rewritable" so refusals are not re-derived per row.
    rewrites: Box<[OnceLock<Option<Box<DecorrelatedSubquery>>>]>,
    /// Whether correlated subqueries may be decorrelated into hash joins.
    /// On by default; [`PlanCache::without_decorrelation`] turns it off so
    /// benches (and suspicious users) can isolate the per-outer-row
    /// cached-plan path.
    decorrelate: bool,
}

impl PlanCache {
    /// An empty cache for a statement spanning `queries` query ids
    /// ([`SelectStatement::query_count`]).
    pub fn new(queries: usize) -> Self {
        PlanCache {
            plans: (0..2 * queries).map(|_| OnceLock::new()).collect(),
            rewrites: (0..queries).map(|_| OnceLock::new()).collect(),
            decorrelate: true,
        }
    }

    /// Returns the cached plan for `stmt`, planning and caching on miss.
    pub fn get_or_plan(
        &self,
        db: &Database,
        stmt: &SelectStatement,
        stats: &mut ExecStats,
    ) -> SqlResult<&PhysicalPlan> {
        let slot = self.plans.get(stmt.id.0).ok_or_else(|| {
            SqlError::Execution(format!("query #{} is not part of this plan cache", stmt.id.0))
        })?;
        if let Some(plan) = slot.get() {
            stats.plan_cache_hits += 1;
            return Ok(plan);
        }
        stats.plan_cache_misses += 1;
        let plan = Box::new(plan_select(db, stmt)?);
        // A racing execution may have filled the slot meanwhile: its plan
        // stays, this one is dropped.
        Ok(slot.get_or_init(|| plan))
    }

    /// Returns the already-cached plan for `stmt` without planning on miss.
    /// `EXPLAIN ANALYZE` uses this to render the exact plan object an
    /// execution just ran (operator profile entries are keyed by node
    /// address, so the rendering must walk the *same* allocation).
    pub fn cached_plan(&self, stmt: &SelectStatement) -> Option<&PhysicalPlan> {
        self.plans.get(stmt.id.0)?.get().map(|plan| &**plan)
    }

    /// Returns the memoized decorrelation rewrite for the subquery `stmt`,
    /// running the analysis on first sight. `None` means the shape is not
    /// rewritable (or decorrelation is disabled) and the caller should use
    /// the per-outer-row path.
    pub fn rewrite_for(
        &self,
        db: &Database,
        stmt: &SelectStatement,
        pos: SubqueryPosition,
    ) -> Option<&DecorrelatedSubquery> {
        if !self.decorrelate {
            return None;
        }
        let build_id = QueryId(self.rewrites.len() + stmt.id.0);
        let slot = self.rewrites.get(stmt.id.0)?;
        slot.get_or_init(|| {
            let mut rewrite = decorrelate(db, stmt, pos)?;
            rewrite.build.id = build_id;
            Some(Box::new(rewrite))
        })
        .as_deref()
    }

    /// A cache that never decorrelates: correlated subqueries stay on the
    /// per-outer-row cached-plan path. Used by benches to measure the
    /// decorrelation speedup and by tests to triangulate semantics.
    pub fn without_decorrelation(queries: usize) -> Self {
        PlanCache { decorrelate: false, ..PlanCache::new(queries) }
    }

    /// Whether this cache rewrites correlated subqueries into hash joins.
    pub fn decorrelation_enabled(&self) -> bool {
        self.decorrelate
    }

    /// Number of statements planned so far (decorrelation builds included).
    pub fn len(&self) -> usize {
        self.plans.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// True when nothing has been planned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-relation bookkeeping while planning.
struct RelPlan<'a> {
    tref: &'a TableRef,
    offset: usize,
    width: usize,
    /// Whether `WHERE` conjuncts may be pushed into this relation's scan:
    /// true for the FROM relation and inner-joined relations, false for the
    /// right side of a LEFT JOIN (its rows must reach the NULL-padding
    /// stage unfiltered).
    pushable: bool,
    pushed: Vec<Expr>,
}

/// Lowers a `SELECT`'s FROM/JOIN/WHERE section into a physical plan.
///
/// Planning is purely schema-driven (no data access beyond table metadata),
/// deterministic, and cheap relative to execution. Subqueries are *not*
/// planned here — each runs through its own `plan_select` when the executor
/// reaches it.
pub fn plan_select(db: &Database, stmt: &SelectStatement) -> SqlResult<PhysicalPlan> {
    let where_conjuncts: Vec<Expr> = match &stmt.where_clause {
        Some(w) => w.split_conjuncts().into_iter().cloned().collect(),
        None => Vec::new(),
    };
    let Some(from) = &stmt.from else {
        return Ok(PhysicalPlan { root: None, layout: Vec::new(), where_remnant: where_conjuncts });
    };

    // 1. Flattened layout and per-relation spans.
    let mut layout: Vec<ColMeta> = Vec::new();
    let mut rels: Vec<RelPlan<'_>> = Vec::new();
    let trefs = std::iter::once(from).chain(stmt.joins.iter().map(|j| &j.table));
    for (i, tref) in trefs.enumerate() {
        let cols = table_ref_layout(db, tref)?;
        let pushable = i == 0 || stmt.joins[i - 1].kind == JoinKind::Inner;
        rels.push(RelPlan {
            tref,
            offset: layout.len(),
            width: cols.len(),
            pushable,
            pushed: Vec::new(),
        });
        layout.extend(cols);
    }

    // 2. Predicate pushdown: a conjunct goes to a scan when every column it
    // references resolves uniquely in the full layout, all of them land in
    // the same relation, and that relation may be filtered early.
    let mut remnant: Vec<Expr> = Vec::new();
    'conjunct: for conj in where_conjuncts {
        if conj.contains_subquery() || conj.contains_aggregate() {
            remnant.push(conj);
            continue;
        }
        let mut refs = Vec::new();
        conj.referenced_columns(&mut refs);
        if refs.is_empty() {
            remnant.push(conj);
            continue;
        }
        let mut target: Option<usize> = None;
        for (qual, name) in &refs {
            let matches = resolve_in(&layout, qual.as_deref(), name);
            if matches.len() != 1 {
                // Unresolved (outer-scope reference) or ambiguous: leave it
                // for the executor's scope-chain resolution.
                remnant.push(conj);
                continue 'conjunct;
            }
            let idx = matches[0];
            let rel = rels
                .iter()
                .position(|r| idx >= r.offset && idx < r.offset + r.width)
                .expect("resolved column must lie in some relation span");
            match target {
                None => target = Some(rel),
                Some(t) if t == rel => {}
                Some(_) => {
                    remnant.push(conj);
                    continue 'conjunct;
                }
            }
        }
        let t = target.expect("non-empty refs imply a target relation");
        if rels[t].pushable {
            rels[t].pushed.push(conj);
        } else {
            remnant.push(conj);
        }
    }

    // 3. Scan nodes, detecting PK point lookups among pushed predicates.
    let mut nodes: Vec<PlanNode> = Vec::new();
    for rel in &rels {
        nodes.push(make_scan_node(db, rel)?);
    }

    // 4. Left-deep join tree with per-join operator choice.
    let mut nodes = nodes.into_iter();
    let mut root = nodes.next().expect("at least the FROM relation");
    let mut split = rels[0].width;
    for (join, (right_node, right_rel)) in stmt.joins.iter().zip(nodes.zip(rels[1..].iter())) {
        let combined = &layout[..split + right_rel.width];
        // Try the ON clause first; for inner joins, fall back to promoting a
        // WHERE equality (the comma-join idiom `FROM a, b WHERE a.x = b.x`).
        let mut key = join
            .on
            .as_ref()
            .and_then(|on| extract_equi_key(on.split_conjuncts().into_iter(), combined, split));
        if key.is_none() && join.kind == JoinKind::Inner {
            key = extract_equi_key(remnant.iter(), combined, split);
        }
        root = match key {
            Some((left_key, right_key)) => PlanNode::HashJoin {
                left: Box::new(root),
                right: Box::new(right_node),
                kind: join.kind,
                left_key,
                right_key: right_key - split,
                on: join.on.clone(),
            },
            None => PlanNode::NestedLoopJoin {
                left: Box::new(root),
                right: Box::new(right_node),
                kind: join.kind,
                on: join.on.clone(),
            },
        };
        split += right_rel.width;
    }

    Ok(PhysicalPlan { root: Some(root), layout, where_remnant: remnant })
}

/// Finds the first conjunct of the shape `col = col` whose sides resolve
/// uniquely in `combined` and fall on opposite sides of `split`. Returns
/// (left position, absolute right position).
fn extract_equi_key<'a>(
    conjuncts: impl Iterator<Item = &'a Expr>,
    combined: &[ColMeta],
    split: usize,
) -> Option<(usize, usize)> {
    for conj in conjuncts {
        let Some(((q1, c1), (q2, c2))) = conj.as_column_equality() else { continue };
        let m1 = resolve_in(combined, q1, c1);
        let m2 = resolve_in(combined, q2, c2);
        if m1.len() != 1 || m2.len() != 1 {
            continue;
        }
        let (a, b) = (m1[0], m2[0]);
        if a < split && b >= split {
            return Some((a, b));
        }
        if b < split && a >= split {
            return Some((b, a));
        }
    }
    None
}

/// Builds the scan node for one relation, detecting a PK point lookup among
/// its pushed predicates.
fn make_scan_node(db: &Database, rel: &RelPlan<'_>) -> SqlResult<PlanNode> {
    match rel.tref {
        TableRef::Named { table, .. } => {
            let quals = ref_quals(rel.tref);
            let t = db.table(table)?;
            let mut lookup = None;
            if let Some(pk) = t.primary_key_column() {
                // Resolve against this scan's own layout: the lookup column
                // must be the primary key, unambiguously.
                let local: Vec<ColMeta> = t
                    .schema
                    .columns
                    .iter()
                    .map(|c| ColMeta { quals: quals.clone(), name: c.name.clone() })
                    .collect();
                for conj in &rel.pushed {
                    let Some(((qual, name), value)) = conj.as_column_literal_equality() else {
                        continue;
                    };
                    let m = resolve_in(&local, qual, name);
                    if m.len() == 1 && m[0] == pk {
                        lookup = Some(PkLookup { column: pk, value: value.clone() });
                        break;
                    }
                }
            }
            Ok(PlanNode::SeqScan {
                table: table.clone(),
                quals,
                pushed: rel.pushed.clone(),
                lookup,
            })
        }
        TableRef::Derived { query, alias } => Ok(PlanNode::SubqueryScan {
            query: query.clone(),
            alias: alias.clone(),
            pushed: rel.pushed.clone(),
        }),
    }
}

/// True when `stmt` is provably *uncorrelated*: every column reference
/// inside it — including inside its nested subqueries and derived tables —
/// resolves within the statement's own scope chain, so executing it never
/// consults an enclosing statement's row. An uncorrelated subquery therefore
/// returns the same result for every outer row, which is what licenses the
/// executor's per-statement subquery *result* cache.
///
/// The analysis is purely schema-driven and conservative: an unknown table,
/// an unresolvable reference, or anything else surprising yields `false`
/// (treat as correlated — merely forgoing the cache, never changing
/// results). A reference that resolves *ambiguously* in a local layer still
/// counts as local, because the executor's scope-chain resolution handles
/// ambiguity at the level that matched and never falls through to the outer
/// scope in that case.
pub fn is_uncorrelated(db: &Database, stmt: &SelectStatement) -> bool {
    stmt_is_self_contained(db, stmt, &[])
}

/// Core of [`is_uncorrelated`]: `outer` holds the layouts of enclosing
/// statements *within the unit being checked* (nearest first). References
/// resolving in any layer are fine; a reference that falls through every
/// layer would read the real outer scope at runtime, so the unit is
/// correlated.
fn stmt_is_self_contained(db: &Database, stmt: &SelectStatement, outer: &[&[ColMeta]]) -> bool {
    fn add_relation(
        db: &Database,
        tref: &TableRef,
        local: &mut Vec<ColMeta>,
        outer: &[&[ColMeta]],
    ) -> bool {
        // A derived table executes against the *enclosing* statement's outer
        // scope — it cannot see sibling FROM relations — so it is checked
        // against `outer`, not against the chain that includes `local`.
        if let TableRef::Derived { query, .. } = tref {
            if !stmt_is_self_contained(db, query, outer) {
                return false;
            }
        }
        match table_ref_layout(db, tref) {
            Ok(cols) => {
                local.extend(cols);
                true
            }
            Err(_) => false,
        }
    }
    fn chain_of<'a>(local: &'a [ColMeta], outer: &[&'a [ColMeta]]) -> Vec<&'a [ColMeta]> {
        let mut chain: Vec<&[ColMeta]> = Vec::with_capacity(outer.len() + 1);
        chain.push(local);
        chain.extend_from_slice(outer);
        chain
    }

    let mut local: Vec<ColMeta> = Vec::new();
    if let Some(from) = &stmt.from {
        if !add_relation(db, from, &mut local, outer) {
            return false;
        }
    }
    // Joins build left-deep: each join's ON predicate executes with only the
    // prefix (FROM plus the joins up to and including itself) in scope, so a
    // reference to a relation joined *later* falls through to the outer row
    // at runtime even though it would resolve in the full FROM layout. Check
    // every ON against exactly its runtime prefix.
    for join in &stmt.joins {
        if !add_relation(db, &join.table, &mut local, outer) {
            return false;
        }
        let prefix_chain = chain_of(&local, outer);
        if !join.on.iter().all(|e| expr_is_self_contained(db, e, &prefix_chain)) {
            return false;
        }
    }
    let chain = chain_of(&local, outer);

    let mut exprs: Vec<&Expr> = Vec::new();
    for p in &stmt.projections {
        if let Projection::Expr { expr, .. } = p {
            exprs.push(expr);
        }
    }
    exprs.extend(stmt.where_clause.iter());
    exprs.extend(stmt.group_by.iter());
    exprs.extend(stmt.having.iter());
    if !exprs.into_iter().all(|e| expr_is_self_contained(db, e, &chain)) {
        return false;
    }

    // ORDER BY additionally resolves bare names against the output headers
    // (aliases and default expression names) before consulting any scope, so
    // a bare reference matching a header never reads the outer scope even
    // when no input column carries that name.
    let headers: Vec<String> = stmt
        .projections
        .iter()
        .filter_map(|p| match p {
            Projection::Expr { expr, alias } => {
                Some(alias.clone().unwrap_or_else(|| describe_expr(expr)))
            }
            _ => None,
        })
        .collect();
    stmt.order_by.iter().all(|item| {
        if let Expr::Column { table: None, column } = &item.expr {
            if headers.iter().any(|h| h.eq_ignore_ascii_case(column)) {
                return true;
            }
        }
        expr_is_self_contained(db, &item.expr, &chain)
    })
}

/// Walks one expression: every column reference must resolve in `chain`, and
/// nested subqueries must be self-contained relative to `chain`.
fn expr_is_self_contained(db: &Database, expr: &Expr, chain: &[&[ColMeta]]) -> bool {
    let sub = |q: &SelectStatement| stmt_is_self_contained(db, q, chain);
    let walk = |e: &Expr| expr_is_self_contained(db, e, chain);
    match expr {
        Expr::Literal(_) => true,
        Expr::Column { table, column } => {
            chain.iter().any(|layer| !resolve_in(layer, table.as_deref(), column).is_empty())
        }
        Expr::Compare { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Concat { left, right } => walk(left) && walk(right),
        Expr::And(a, b) | Expr::Or(a, b) => walk(a) && walk(b),
        Expr::Not(e) | Expr::Neg(e) => walk(e),
        Expr::Like { expr, pattern, .. } => walk(expr) && walk(pattern),
        Expr::IsNull { expr, .. } => walk(expr),
        Expr::InList { expr, list, .. } => walk(expr) && list.iter().all(walk),
        Expr::InSubquery { expr, query, .. } => walk(expr) && sub(query),
        Expr::Between { expr, low, high, .. } => walk(expr) && walk(low) && walk(high),
        Expr::Exists { query, .. } => sub(query),
        Expr::ScalarSubquery(query) => sub(query),
        Expr::Aggregate { arg, .. } => arg.as_deref().is_none_or(walk),
        Expr::Function { args, .. } => args.iter().all(walk),
        Expr::Cast { expr, .. } => walk(expr),
        Expr::Case { operand, branches, else_branch } => {
            operand.as_deref().is_none_or(walk)
                && branches.iter().all(|(w, t)| walk(w) && walk(t))
                && else_branch.as_deref().is_none_or(walk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("plans");
        db.create_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("account_id", DataType::Integer).primary_key(),
                ColumnDef::new("district_id", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "loan",
            vec![
                ColumnDef::new("loan_id", DataType::Integer).primary_key(),
                ColumnDef::new("account_id", DataType::Integer),
                ColumnDef::new("amount", DataType::Real),
            ],
        ))
        .unwrap();
        db
    }

    fn plan(sql: &str) -> PhysicalPlan {
        plan_select(&db(), &parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn on_clause_equi_join_gets_hash_plan() {
        let p = plan(
            "SELECT T1.account_id FROM account AS T1 \
             INNER JOIN loan AS T2 ON T1.account_id = T2.account_id",
        );
        assert!(p.uses_hash_join(), "plan:\n{}", p.explain());
        let Some(PlanNode::HashJoin { left_key, right_key, .. }) = p.root else {
            panic!("expected hash join at root");
        };
        assert_eq!(left_key, 0, "probe key is account.account_id");
        assert_eq!(right_key, 1, "build key is loan.account_id (local position)");
    }

    #[test]
    fn comma_join_promotes_where_equality_to_hash_key() {
        let p = plan(
            "SELECT loan.loan_id FROM loan, account \
             WHERE loan.account_id = account.account_id AND account.district_id = 1",
        );
        assert!(p.uses_hash_join(), "plan:\n{}", p.explain());
        // The equality stays in the remnant for re-checking; the
        // single-table conjunct was pushed into the account scan.
        assert_eq!(p.where_remnant.len(), 1);
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let p = plan(
            "SELECT loan.loan_id FROM loan \
             INNER JOIN account ON loan.amount > account.district_id",
        );
        assert!(!p.uses_hash_join());
        assert!(matches!(p.root, Some(PlanNode::NestedLoopJoin { .. })));
    }

    #[test]
    fn where_conjunct_pushes_into_from_scan() {
        let p = plan("SELECT loan_id FROM loan WHERE amount > 100000 AND loan_id < 10");
        let Some(PlanNode::SeqScan { pushed, .. }) = &p.root else { panic!("expected scan") };
        assert_eq!(pushed.len(), 2);
        assert!(p.where_remnant.is_empty());
    }

    #[test]
    fn left_join_right_side_predicate_is_not_pushed() {
        let p = plan(
            "SELECT account.account_id FROM account \
             LEFT JOIN loan ON account.account_id = loan.account_id \
             WHERE loan.amount > 1000",
        );
        // The conjunct must see NULL-padded rows, so it stays post-join.
        assert_eq!(p.where_remnant.len(), 1);
        assert!(p.uses_hash_join(), "LEFT equi-joins still hash: {}", p.explain());
    }

    #[test]
    fn ambiguous_column_is_never_pushed() {
        // account_id exists in both tables: resolution is ambiguous, so the
        // conjunct stays in the remnant for the executor's scope chain.
        let p = plan(
            "SELECT loan.loan_id FROM loan \
             INNER JOIN account ON loan.account_id = account.account_id \
             WHERE account_id = 3",
        );
        assert_eq!(p.where_remnant.len(), 1);
    }

    #[test]
    fn pk_literal_equality_becomes_index_lookup() {
        let p = plan("SELECT * FROM loan WHERE loan_id = 3");
        assert!(p.uses_index_lookup(), "plan:\n{}", p.explain());
        let Some(PlanNode::SeqScan { lookup: Some(l), .. }) = &p.root else {
            panic!("expected index lookup scan");
        };
        assert_eq!(l.column, 0);
        assert_eq!(l.value, Value::Integer(3));
        // Reversed operand order plans the same lookup.
        assert!(plan("SELECT * FROM loan WHERE 3 = loan_id").uses_index_lookup());
        // Non-PK equality does not.
        assert!(!plan("SELECT * FROM loan WHERE account_id = 3").uses_index_lookup());
    }

    #[test]
    fn subquery_in_where_stays_post_join() {
        let p = plan("SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan)");
        let Some(PlanNode::SeqScan { pushed, .. }) = &p.root else { panic!("expected scan") };
        assert!(pushed.is_empty());
        assert_eq!(p.where_remnant.len(), 1);
    }

    #[test]
    fn derived_table_plans_subquery_scan_with_pushdown() {
        let p = plan("SELECT t.n FROM (SELECT account_id AS n FROM loan) AS t WHERE t.n > 2");
        let Some(PlanNode::SubqueryScan { pushed, alias, .. }) = &p.root else {
            panic!("expected subquery scan, got {:?}", p.root);
        };
        assert_eq!(alias, "t");
        assert_eq!(pushed.len(), 1, "derived-table filter is pushed onto its rows");
    }

    #[test]
    fn plan_cache_hits_on_repeated_statements() {
        let d = db();
        let stmt = parse_select("SELECT loan_id FROM loan WHERE amount > 10").unwrap();
        let cache = PlanCache::new(stmt.query_count());
        let mut stats = ExecStats::default();
        let p1 = cache.get_or_plan(&d, &stmt, &mut stats).unwrap();
        let p2 = cache.get_or_plan(&d, &stmt, &mut stats).unwrap();
        assert!(std::ptr::eq(p1, p2), "repeated statements share one plan");
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
        assert_eq!(cache.len(), 1);
        // A clone is the same query: it replays the same slot.
        let p3 = cache.get_or_plan(&d, &stmt.clone(), &mut stats).unwrap();
        assert!(std::ptr::eq(p1, p3));
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 2));
    }

    #[test]
    fn plan_cache_shares_plans_across_executions() {
        let mut d = db();
        for i in 0..4i64 {
            d.insert("account", vec![i.into(), (i % 2).into()]).unwrap();
            d.insert("loan", vec![i.into(), i.into(), ((i * 100) as f64).into()]).unwrap();
        }
        let stmt = parse_select(
            "SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan) \
             AND account_id IN (SELECT account_id FROM account WHERE district_id = 1)",
        )
        .unwrap();
        assert_eq!(stmt.query_count(), 3, "the statement and its two subqueries");
        let cache = PlanCache::new(stmt.query_count());
        let (first_rs, first) =
            crate::exec::execute_select_with_plan_cache(&d, &stmt, PlanMode::Columnar, &cache)
                .unwrap();
        assert_eq!(first.plan_cache_misses, 3, "the first execution plans every query");
        let plans = cache.len();
        let (rs, second) =
            crate::exec::execute_select_with_plan_cache(&d, &stmt, PlanMode::Columnar, &cache)
                .unwrap();
        assert_eq!(rs.rows, first_rs.rows);
        assert_eq!(second.plan_cache_misses, 0, "the second execution never re-plans");
        assert_eq!(second.plan_cache_hits, 3);
        assert_eq!(cache.len(), plans, "sharing adds no entries");
    }

    #[test]
    fn uncorrelated_analysis_separates_subquery_shapes() {
        let d = db();
        let sub = |sql: &str| {
            let stmt = parse_select(sql).unwrap();
            is_uncorrelated(&d, &stmt)
        };
        // Self-contained aggregates and joins are uncorrelated.
        assert!(sub("SELECT AVG(amount) FROM loan"));
        assert!(sub("SELECT T1.account_id FROM account AS T1 \
             INNER JOIN loan AS T2 ON T1.account_id = T2.account_id \
             WHERE T2.amount > 100"));
        // A reference that cannot resolve locally escapes to the outer scope.
        assert!(!sub("SELECT 1 FROM loan WHERE loan.account_id = account.account_id"));
        assert!(!sub("SELECT 1 FROM loan WHERE district_id = 4"));
        // Nesting: the inner subquery's outer reference is *our* FROM —
        // still self-contained as a unit.
        assert!(sub("SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id)"));
        // ...but a reference that escapes even the top level is correlated.
        assert!(!sub("SELECT account_id FROM account AS a2 WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = outer_table.account_id)"));
        // Unknown tables are conservatively correlated.
        assert!(!sub("SELECT x FROM no_such_table"));
        // ORDER BY an output alias stays self-contained.
        assert!(sub("SELECT account_id AS k FROM account GROUP BY account_id ORDER BY k"));
    }

    #[test]
    fn explain_renders_operators() {
        let text = plan(
            "SELECT T1.account_id FROM account AS T1 \
             INNER JOIN loan AS T2 ON T1.account_id = T2.account_id \
             WHERE T2.loan_id = 3",
        )
        .explain();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("SeqScan account"), "{text}");
        assert!(text.contains("IndexLookup loan"), "{text}");
    }
}

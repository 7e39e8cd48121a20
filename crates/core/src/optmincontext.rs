//! **OptMinContext** (paper §11.2, Algorithm 11.1): the combined query
//! processor.
//!
//! * Supports all of XPath with the MinContext bounds (Theorem 8.6);
//! * queries in the linear-time **Core XPath** fragment (and its
//!   XPatterns extension) take the `O(|D|·|Q|)` algebraic route
//!   (Corollary 11.5, Theorem 10.8);
//! * **Core XPath sub-paths** of any other query take the same route when
//!   they have a single source: an absolute path (`Relev = ∅`) at any
//!   depth, predicates included, or a relative path reached from the top
//!   level only through operators, function arguments, filter primaries
//!   and path heads, whose context set is just the evaluation's context
//!   node. Each is evaluated once by [`CoreXPathEvaluator`] and its
//!   one-row table seeded into MinContext — Algorithm 11.1's "not
//!   evaluated again" applied to the linear fragment — so `count(//d)`
//!   costs what `//d` costs instead of MinContext's per-node relation;
//! * subexpressions of the **Extended Wadler** shape — `boolean(π)` /
//!   `π RelOp c` — are evaluated bottom-up by backward propagation,
//!   innermost first, and their tables are seeded into MinContext so they
//!   are "not evaluated again" (Corollary 11.4: linear space, quadratic
//!   time for such subexpressions). A candidate whose path already took
//!   the algebra route is left to MinContext, which then only applies the
//!   `boolean` / comparison to the seeded node set. When everything
//!   outside the seeded sub-paths is constants, operators and function
//!   calls (as in `count(//d)`), MinContext computes the query at the one
//!   context directly from the seeds, building no further tables.
//!
//! Plain [`Strategy::MinContext`](crate::plan::Strategy::MinContext)
//! never takes these routes: it stays the paper's Algorithm 8.5.

use xpath_syntax::{Expr, PathStart};
use xpath_xml::{Document, NodeId};

use crate::bottomup::CvTable;
use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::mincontext::MinContextEvaluator;
use crate::relev::{relev, Relev};
use crate::value::Value;
use crate::wadler::bottomup_candidate;

/// Execution report: which routes Algorithm 11.1 took (exposed so tests and
/// benches can assert the dispatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// The whole query ran through the linear-time Core XPath algebra.
    pub used_core_xpath: bool,
    /// Number of subexpressions evaluated bottom-up (backward propagation).
    pub bottomup_paths: usize,
    /// Number of single-source Core XPath / XPatterns sub-paths evaluated
    /// once on the algebra and seeded into MinContext (the whole-query
    /// route counts under `used_core_xpath` instead).
    pub core_paths: usize,
}

/// The OptMinContext evaluator.
pub struct OptMinContextEvaluator<'d> {
    /// Shard budget handed to the Core XPath fast path and the seeded
    /// MinContext evaluator (`0` = auto; see [`crate::parallel`]).
    threads: u32,
    doc: &'d Document,
    /// Deadline/cancellation budget, forwarded to whichever route the
    /// dispatch takes (the Core XPath fast path or seeded MinContext).
    eval_budget: EvalBudget,
    /// Adaptive kernel decisions of every algebra evaluation run so far.
    kernels: xpath_axes::KernelCounters,
}

impl<'d> OptMinContextEvaluator<'d> {
    /// Create an evaluator over `doc` with the auto-resolved thread
    /// budget.
    pub fn new(doc: &'d Document) -> Self {
        OptMinContextEvaluator {
            doc,
            threads: 0,
            eval_budget: EvalBudget::unlimited(),
            kernels: xpath_axes::KernelCounters::new(),
        }
    }

    /// Pin the shard budget for the underlying engines: `0` (default)
    /// auto-resolves, `1` keeps every pass serial.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a deadline/cancellation [`EvalBudget`]: both dispatch routes
    /// poll it at their pass boundaries.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// The adaptive kernel decisions recorded by the algebra routes (the
    /// whole-query route and every sub-path) across this evaluator's
    /// evaluations; MinContext itself records none.
    pub(crate) fn kernel_counts(&self) -> xpath_axes::KernelCounts {
        self.kernels.snapshot()
    }

    /// Evaluate `query` at `ctx` (Algorithm 11.1).
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.evaluate_with_report(query, ctx).map(|(v, _)| v)
    }

    /// Evaluate and report the dispatch decisions.
    pub fn evaluate_with_report(
        &self,
        query: &Expr,
        ctx: Context,
    ) -> EvalResult<(Value, OptReport)> {
        self.evaluate_routed(query, &OptRoutes::compile(query), ctx)
    }

    /// [`OptMinContextEvaluator::evaluate_with_report`] with the work
    /// list compiled ahead of time: `routes` must come from
    /// [`OptRoutes::compile`] on this same `query`. A
    /// [`Plan`](crate::plan::Plan) compiles its routes once and passes
    /// them to every evaluation.
    pub(crate) fn evaluate_routed(
        &self,
        query: &Expr,
        routes: &OptRoutes,
        ctx: Context,
    ) -> EvalResult<(Value, OptReport)> {
        let mut report = OptReport::default();
        let sets = self.run_algebra(&routes.core, ctx)?;
        if routes.is_whole_query() {
            // Corollary 11.5: the whole query is Core XPath (or
            // XPatterns) and took the linear-time route.
            report.used_core_xpath = true;
            let out = sets.into_iter().next().expect("one program, one set");
            return Ok((Value::NodeSet(out), report));
        }

        // Algorithm 11.1: seed the single-source sub-paths' results, then
        // evaluate all bottom-up location paths inside Q, innermost first,
        // seeding their tables into MinContext too.
        let mc = MinContextEvaluator::new(self.doc)
            .with_threads(self.threads)
            .with_eval_budget(self.eval_budget.clone());
        for (route, set) in routes.core.iter().zip(sets) {
            // Relev ∅ projects every context onto the one row; {cn} keys
            // it by ctx.node, the only context a top-level path sees.
            let mut table = CvTable::new(route.relev);
            table.insert(ctx, Value::NodeSet(set));
            mc.seed_table(subexpr(query, &route.pos), table);
            report.core_paths += 1;
        }
        for pos in &routes.bottomup {
            self.eval_budget.check()?;
            let e = subexpr(query, pos);
            let table = mc.eval_bottomup_expr(e)?;
            mc.seed_table(e, table);
            report.bottomup_paths += 1;
        }
        let v = mc.evaluate_with_seeds(query, ctx)?;
        Ok((v, report))
    }

    /// Evaluate each compiled program once from `ctx.node` on one
    /// [`CoreXPathEvaluator`], under this evaluator's thread budget and
    /// [`EvalBudget`], and record its kernel decisions.
    fn run_algebra(
        &self,
        programs: &[CoreRoute],
        ctx: Context,
    ) -> EvalResult<Vec<crate::nodeset::NodeSet>> {
        if programs.is_empty() {
            return Ok(Vec::new());
        }
        let ev = CoreXPathEvaluator::new(self.doc).with_threads(self.threads);
        let sets = programs
            .iter()
            .map(|r| ev.try_evaluate(&r.program, &[ctx.node], &self.eval_budget))
            .collect::<EvalResult<Vec<_>>>();
        self.kernels.merge(ev.kernel_counts());
        sets
    }

    /// Evaluate over several context nodes at once (useful for XSLT-style
    /// batch matching); results are per node.
    pub fn evaluate_at_nodes(&self, query: &Expr, nodes: &[NodeId]) -> EvalResult<Vec<Value>> {
        nodes.iter().map(|&n| self.evaluate(query, Context::of(n))).collect()
    }
}

/// Algorithm 11.1's work list for one query, both halves in post-order.
/// Compiled once per query by [`OptRoutes::compile`] (a
/// [`Plan`](crate::plan::Plan) keeps it), so an evaluation neither walks
/// the query for candidates nor recompiles algebra programs; it only
/// looks the subexpressions up by position.
#[derive(Clone, Debug, Default)]
pub(crate) struct OptRoutes {
    /// Single-source Core XPath / XPatterns sub-paths and their compiled
    /// algebra programs.
    core: Vec<CoreRoute>,
    /// `boolean(π)` / `π RelOp c` occurrences for backward propagation,
    /// inner candidates before outer ones ("starting with the innermost
    /// ones in case of nesting").
    bottomup: Vec<Vec<u32>>,
}

/// One single-source sub-path: where it sits, its `Relev` (the key of
/// its seeded table) and its algebra program.
#[derive(Clone, Debug)]
struct CoreRoute {
    /// Child indices from the query root down ([`nth_child`] order).
    pos: Vec<u32>,
    relev: Relev,
    program: CoreQuery,
}

impl OptRoutes {
    /// Walk `query` once, collecting its routes and compiling each
    /// sub-path's algebra program.
    pub(crate) fn compile(query: &Expr) -> OptRoutes {
        let mut out = OptRoutes::default();
        let mut routed = Vec::new();
        collect_routes(query, true, &mut Vec::new(), &mut routed, &mut out);
        out
    }

    /// Is the whole query one algebra program (Corollary 11.5)?
    fn is_whole_query(&self) -> bool {
        matches!(self.core.as_slice(), [only] if only.pos.is_empty())
    }
}

/// Walk `e` (at position `pos`) collecting its routes. `top` holds while
/// `e` is reached from the query root only through operators, function
/// arguments, filter primaries and path heads: MinContext then evaluates
/// `e` at the context node alone, so a relative path there has a single
/// source too. `routed` holds the subexpressions of `out.core`, in order.
fn collect_routes<'e>(
    e: &'e Expr,
    top: bool,
    pos: &mut Vec<u32>,
    routed: &mut Vec<&'e Expr>,
    out: &mut OptRoutes,
) {
    if let Some(program) = single_source_program(e, top) {
        // The program covers the path's predicates; nothing inside it
        // needs a route of its own.
        out.core.push(CoreRoute { pos: pos.clone(), relev: relev(e), program });
        routed.push(e);
        return;
    }
    let routed_before = routed.len();
    // Children first (post-order).
    for i in 0..child_count(e) {
        pos.push(i as u32);
        collect_routes(nth_child(e, i), top && keeps_top(e, i), pos, routed, out);
        pos.pop();
    }
    if let Some(form) = bottomup_candidate(e) {
        let already = routed[routed_before..]
            .iter()
            .any(|r| matches!(r, Expr::Path(p) if std::ptr::eq(p, form.path)));
        if !already {
            out.bottomup.push(pos.clone());
        }
    }
}

/// Number of direct subexpressions of `e`, in [`nth_child`] order: a
/// path's head, then its step predicates; a filter's primary, then its
/// predicates; operands; arguments.
fn child_count(e: &Expr) -> usize {
    match e {
        Expr::Path(p) => {
            usize::from(matches!(p.start, PathStart::Expr(_)))
                + p.steps.iter().map(|s| s.predicates.len()).sum::<usize>()
        }
        Expr::Filter { predicates, .. } => 1 + predicates.len(),
        Expr::Binary { .. } => 2,
        Expr::Neg(_) => 1,
        Expr::Call { args, .. } => args.len(),
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => 0,
    }
}

/// The `i`-th direct subexpression of `e` (see [`child_count`]).
fn nth_child(e: &Expr, i: usize) -> &Expr {
    match e {
        Expr::Path(p) => {
            let mut i = i;
            if let PathStart::Expr(head) = &p.start {
                if i == 0 {
                    return head;
                }
                i -= 1;
            }
            p.steps.iter().flat_map(|s| &s.predicates).nth(i).expect("index below child_count")
        }
        Expr::Filter { primary, predicates } => match i {
            0 => primary,
            _ => &predicates[i - 1],
        },
        Expr::Binary { left, right, .. } => match i {
            0 => left,
            _ => right,
        },
        Expr::Neg(inner) => inner,
        Expr::Call { args, .. } => &args[i],
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {
            unreachable!("leaves have no children")
        }
    }
}

/// Does the `i`-th child of `e` keep `e`'s top-level status? Predicates
/// do not (MinContext evaluates them at many context nodes).
fn keeps_top(e: &Expr, i: usize) -> bool {
    match e {
        Expr::Path(p) => i == 0 && matches!(p.start, PathStart::Expr(_)),
        Expr::Filter { .. } => i == 0,
        _ => true,
    }
}

/// The subexpression of `root` at child-index path `pos`.
fn subexpr<'e>(root: &'e Expr, pos: &[u32]) -> &'e Expr {
    pos.iter().fold(root, |e, &i| nth_child(e, i as usize))
}

/// The algebra program for `e` if it is a location path in Core XPath or
/// XPatterns (a bare `id(…)` call is a step-less XPatterns path) with a
/// single source: context-independent anywhere, or relative at the top
/// level.
fn single_source_program(e: &Expr, top: bool) -> Option<CoreQuery> {
    let is_path = match e {
        Expr::Path(_) => true,
        Expr::Call { name, .. } => name == "id",
        _ => false,
    };
    if !is_path {
        return None;
    }
    let rel = relev(e);
    if rel != Relev::NONE && !(top && rel == Relev::CN) {
        return None;
    }
    let fused = xpath_syntax::rewrite::fuse_descendant_steps(e);
    corexpath::compile_dialect(&fused, CoreDialect::XPatterns).ok()
}

/// Convenience: evaluate a query string with OptMinContext.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e = xpath_syntax::parse_normalized(query)
        .map_err(|err| crate::context::EvalError::Parse(err.to_string()))?;
    OptMinContextEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn example_11_2_full_query() {
        // The §11 running example, evaluated end-to-end by OptMinContext.
        let d = doc_figure8();
        let q = "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
                 (preceding-sibling::*/preceding::* = 100)]/following::d)]";
        let e = parse_normalized(q).unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        let expect: Vec<_> =
            ["11", "12", "13", "14", "22"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
        assert_eq!(v, Value::NodeSet(expect.into()));
        assert!(!report.used_core_xpath);
        // Two bottom-up paths: the inner "=100" comparison and the outer
        // boolean(...).
        assert_eq!(report.bottomup_paths, 2);
        // Both paths are relative inside predicates: many sources.
        assert_eq!(report.core_paths, 0);
    }

    #[test]
    fn precompiled_routes_match_per_call_routes() {
        // A plan compiles the work list once; evaluating through it must
        // equal compiling it per call, at every context node.
        let d = doc_figure8();
        for q in [
            "count(//b)",
            "//a/b[count(b/c) > 1]",
            "count(//a//c) = count(/descendant::a/descendant::c)",
            "boolean(//d)",
            "//b[position() = last()]",
            "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
             (preceding-sibling::*/preceding::* = 100)]/following::d)]",
        ] {
            let e = parse_normalized(q).unwrap();
            let routes = OptRoutes::compile(&e);
            let ev = OptMinContextEvaluator::new(&d);
            for n in d.all_nodes().filter(|&n| d.kind(n) == xpath_xml::NodeKind::Element) {
                let ctx = Context::of(n);
                assert_eq!(
                    ev.evaluate_routed(&e, &routes, ctx).unwrap(),
                    ev.evaluate_with_report(&e, ctx).unwrap(),
                    "{q} at {n:?}"
                );
            }
        }
    }

    fn report_of(d: &Document, q: &str, ctx: NodeId) -> (Value, OptReport) {
        let e = parse_normalized(q).unwrap();
        OptMinContextEvaluator::new(d).evaluate_with_report(&e, Context::of(ctx)).unwrap()
    }

    #[test]
    fn single_source_sub_paths_run_on_the_algebra() {
        let d = doc_figure8();
        let root = d.root();
        // An absolute path under a function: one algebra evaluation.
        let (v, r) = report_of(&d, "count(//b)", root);
        assert_eq!((r.used_core_xpath, r.core_paths, r.bottomup_paths), (false, 1, 0));
        assert_eq!(
            v,
            NaiveEvaluator::new(&d)
                .evaluate(&parse_normalized("count(//b)").unwrap(), Context::of(root))
                .unwrap()
        );
        // The benchmark's count(//x) shapes, whatever the document holds.
        for q in ["count(//d)", "count(//a/c)", "count(//h/parent::g)"] {
            assert_eq!(report_of(&d, q, root).1.core_paths, 1, "{q}");
        }
        // A relative path inside a predicate has many sources: MinContext.
        let (_, r) = report_of(&d, "//a/b[count(b/c) > 1]", root);
        assert_eq!(r.core_paths, 0);
        // Absolute paths are single-source at any depth, XPatterns too.
        assert_eq!(report_of(&d, "//b[count(//c) > 1]", root).1.core_paths, 1);
        assert_eq!(report_of(&d, "count(id('12 24')/ancestor::*)", root).1.core_paths, 1);
        assert_eq!(
            report_of(&d, "count(//a//c) = count(/descendant::a/descendant::c)", root).1.core_paths,
            2
        );
        // A top-level relative path has the context node as its one source.
        let x = d.element_by_id("10").unwrap();
        let (v, r) = report_of(&d, "count(b/c)", x);
        assert_eq!(r.core_paths, 1);
        let naive = NaiveEvaluator::new(&d)
            .evaluate(&parse_normalized("count(b/c)").unwrap(), Context::of(x))
            .unwrap();
        assert_eq!(v, naive);
        // A Wadler candidate whose path took the algebra route is not
        // propagated backwards as well.
        let (_, r) = report_of(&d, "boolean(//d)", root);
        assert_eq!((r.core_paths, r.bottomup_paths), (1, 0));
    }

    #[test]
    fn sub_path_routes_honor_the_eval_budget() {
        let d = doc_figure8();
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let ev = OptMinContextEvaluator::new(&d)
            .with_eval_budget(EvalBudget::unlimited().with_cancel(cancel));
        let err = ev.evaluate(&parse_normalized("count(//d)").unwrap(), Context::of(d.root()));
        assert!(matches!(err, Err(crate::context::EvalError::Cancelled)), "{err:?}");
    }

    #[test]
    fn core_xpath_queries_take_fast_path() {
        let d = doc_bookstore();
        let e = parse_normalized("//book[author]/title").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 4);
    }

    #[test]
    fn positional_queries_fall_back_to_mincontext() {
        let d = doc_flat(5);
        let e = parse_normalized("//b[position() = last()]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(!report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[2]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b/following::b)",
            "(//c | //d)[2]",
            "id('12 24')/parent::*",
            "//*[@id = '22']",
            "//section/book[2]/title",
            "//book[author/last = 'Koch']/@id",
            "//d/ancestor::b",
            "//b[c = '23 24']",
            "//*[d = 100 and position() != last()]",
            "//*[boolean(following::d) or @year > 2000]",
            "sum(//d) + count(//c)",
            "//d[not(following-sibling::*)]",
            "string(//book[1]/title)",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let opt =
                    OptMinContextEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&opt), "query {q} on {d:?}: {naive:?} vs {opt:?}");
            }
        }
    }

    #[test]
    fn sub_path_routes_agree_with_naive_at_every_context() {
        // Unlike the differential suites, which tolerate `Capacity`
        // errors from table lookups, every evaluation here must succeed:
        // a seeded one-row table must cover every context MinContext
        // reads it at.
        let queries = [
            "count(b/c)",
            "count(//b) + count(c)",
            "(c | //d)[last()]",
            "boolean(b) and string(c) = '100'",
            "//b[count(//c) > 1]",
            "count(child::*[count(//d) > count(c)])",
            "sum(//@id) - count(id('12 24')/ancestor::*)",
            "*[position() > count(//c[2]) div 2]",
            "(b/c)[1]/following::d",
            "-count(//d) + number('2')",
            "concat(string(//b), name(), string(), 'x')",
            "not(//zzz) or count(c) div 0 > 1",
            "lang('en') or string-length(//c) = 3",
        ];
        for d in [doc_figure8(), doc_bookstore(), doc_flat_text(3)] {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                for n in d.all_nodes() {
                    let naive = NaiveEvaluator::new(&d).evaluate(&e, Context::of(n)).unwrap();
                    let opt = OptMinContextEvaluator::new(&d)
                        .evaluate(&e, Context::of(n))
                        .unwrap_or_else(|err| panic!("{q} at {n:?}: {err}"));
                    assert!(naive.semantically_equal(&opt), "{q} at {n:?}: {naive:?} vs {opt:?}");
                }
            }
        }
    }

    #[test]
    fn wadler_queries_use_bottomup_paths() {
        let d = doc_figure8();
        // [d = 100] is a π RelOp c occurrence → bottom-up.
        let e = parse_normalized("//*[d = 100 and position() = 1]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.bottomup_paths >= 1, "{report:?}");
        let naive = NaiveEvaluator::new(&d)
            .evaluate(
                &parse_normalized("//*[d = 100 and position() = 1]").unwrap(),
                Context::of(d.root()),
            )
            .unwrap();
        assert!(naive.semantically_equal(&v));
    }

    #[test]
    fn batch_evaluation() {
        let d = doc_flat(3);
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        let e = parse_normalized("count(following-sibling::b)").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let vs = ev.evaluate_at_nodes(&e, &bs).unwrap();
        assert_eq!(vs, vec![Value::Number(2.0), Value::Number(1.0), Value::Number(0.0)]);
    }
}

//! Seeded input generators: documents (as XML text) and query mixes.
//!
//! Every input is a pure function of the run's `--seed`. Documents are
//! written as XML text so the parse layer is exercised, then checked
//! after parsing: node count within [`SIZE_TOLERANCE`] of the target and
//! every label's share of elements within [`MIX_TOLERANCE`] of its
//! weight. A generator that silently shrinks (a root that drew zero
//! children) therefore fails the run instead of measuring a toy input.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use xpath_xml::rng::Rng;
use xpath_xml::{Document, NodeKind};

/// Allowed relative deviation of a parsed document's node count from
/// its target.
pub const SIZE_TOLERANCE: f64 = 0.02;

/// Allowed absolute deviation (in share of elements) of each label from
/// its weight.
pub const MIX_TOLERANCE: f64 = 0.02;

/// Element labels and their weights (percent of elements). `h` is the
/// rare label (under 1% of all nodes); `//*` covers over half of them.
pub const LABELS: &[(&str, u32)] =
    &[("a", 26), ("b", 22), ("c", 16), ("d", 12), ("e", 10), ("f", 8), ("g", 5), ("h", 1)];

/// Shape of one generated document.
#[derive(Clone, Copy, Debug)]
pub struct DocSpec {
    /// Node count the generator stops at (root, elements, attributes and
    /// text nodes all count, as in `Document::len`).
    pub target_nodes: usize,
    /// Maximum element depth below the document element.
    pub max_depth: usize,
    /// Children per element are drawn from `0..=max_fanout`.
    pub max_fanout: u64,
}

/// One generated document.
#[derive(Clone, Debug)]
pub struct GenDoc {
    /// The XML text.
    pub xml: String,
    /// Number of `id` attributes written (`n1` … `n{ids}`).
    pub ids: usize,
    /// The spec it was generated from.
    pub spec: DocSpec,
}

struct Writer<'a> {
    rng: &'a mut Rng,
    spec: DocSpec,
    out: String,
    nodes: usize,
    ids: usize,
}

impl Writer<'_> {
    fn label(&mut self) -> &'static str {
        let total: u32 = LABELS.iter().map(|l| l.1).sum();
        let mut x = u32::try_from(self.rng.next_u64() % u64::from(total)).expect("small");
        for &(name, w) in LABELS {
            if x < w {
                return name;
            }
            x -= w;
        }
        unreachable!("weights cover the draw")
    }

    fn element(&mut self, depth: usize) {
        let name = self.label();
        self.out.push('<');
        self.out.push_str(name);
        self.nodes += 1;
        if self.rng.next_u64().is_multiple_of(10) {
            self.ids += 1;
            self.out.push_str(&format!(" id=\"n{}\"", self.ids));
            self.nodes += 1;
        }
        if self.rng.next_u64().is_multiple_of(3) {
            self.out.push_str(&format!(" k=\"v{}\"", self.rng.next_u64() % 10));
            self.nodes += 1;
        }
        self.out.push('>');
        let fanout = if depth >= self.spec.max_depth {
            0
        } else {
            self.rng.next_u64() % (self.spec.max_fanout + 1)
        };
        if fanout == 0 && self.rng.next_u64().is_multiple_of(2) {
            self.out.push_str(&format!("w{}", self.rng.next_u64() % 50));
            self.nodes += 1;
        }
        for _ in 0..fanout {
            if self.nodes >= self.spec.target_nodes {
                break;
            }
            self.element(depth + 1);
        }
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push('>');
    }
}

/// Generate a document: a document element `r` holding seeded random
/// subtrees until the node budget is reached. Subtrees stop growing once
/// the budget is spent, so the count lands just above the target.
pub fn document(rng: &mut Rng, spec: DocSpec) -> GenDoc {
    let mut w = Writer { rng, spec, out: String::new(), nodes: 2, ids: 0 };
    w.out.push_str("<r>");
    while w.nodes < spec.target_nodes {
        w.element(1);
    }
    w.out.push_str("</r>");
    GenDoc { xml: w.out, ids: w.ids, spec }
}

/// Check a parsed document against its spec.
///
/// # Errors
/// A description of the first violated bound.
pub fn check_document(doc: &Document, spec: DocSpec) -> Result<(), String> {
    check_size(doc.len(), spec.target_nodes, SIZE_TOLERANCE)?;
    check_mix(&[doc])
}

/// `actual` within `tol` (relative) of `target`.
///
/// # Errors
/// When it is not.
pub fn check_size(actual: usize, target: usize, tol: f64) -> Result<(), String> {
    #[allow(clippy::cast_precision_loss)]
    let dev = (actual as f64 - target as f64).abs() / target as f64;
    if dev > tol {
        return Err(format!("document has {actual} nodes, target {target} (±{:.0}%)", tol * 100.0));
    }
    Ok(())
}

/// Label mix over all elements of `docs` (the document element `r`
/// excluded) within [`MIX_TOLERANCE`] of [`LABELS`].
///
/// # Errors
/// The first label outside the tolerance.
#[allow(clippy::cast_precision_loss)]
pub fn check_mix(docs: &[&Document]) -> Result<(), String> {
    let mut counts = vec![0usize; LABELS.len()];
    let mut elements = 0usize;
    for doc in docs {
        for n in doc.all_nodes() {
            if doc.kind(n) != NodeKind::Element {
                continue;
            }
            if let Some(i) = LABELS.iter().position(|l| Some(l.0) == doc.name(n)) {
                counts[i] += 1;
                elements += 1;
            }
        }
    }
    if elements == 0 {
        return Err("document has no labelled elements".to_owned());
    }
    let total: u32 = LABELS.iter().map(|l| l.1).sum();
    for (i, &(name, w)) in LABELS.iter().enumerate() {
        let share = counts[i] as f64 / elements as f64;
        let want = f64::from(w) / f64::from(total);
        if (share - want).abs() > MIX_TOLERANCE {
            return Err(format!(
                "label {name}: {:.1}% of {elements} elements, want {:.1}% (±{:.0} points)",
                share * 100.0,
                want * 100.0,
                MIX_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

/// A content hash of a document: kinds, names and values in document
/// order. Equal seeds must give equal fingerprints.
pub fn fingerprint(doc: &Document) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    doc.len().hash(&mut h);
    for n in doc.all_nodes() {
        (doc.kind(n) as u8).hash(&mut h);
        doc.name(n).hash(&mut h);
        doc.value(n).hash(&mut h);
        doc.parent(n).map(|p| p.0).hash(&mut h);
    }
    h.finish()
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = usize::try_from(rng.next_u64() % (i as u64 + 1)).expect("index fits");
        v.swap(i, j);
    }
    v
}

/// How the `lib-large` loop reads one query's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// Full evaluation; count plus string values of the first 16 nodes.
    NodeSet,
    /// Full evaluation of a scalar (`count()`/`boolean()`), read as its
    /// XPath string.
    Scalar,
    /// Lazy `CompiledQuery::first`, read as the node's string value.
    First,
    /// Lazy `CompiledQuery::exists`.
    Exists,
}

/// One query of the `lib-large` mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LibQuery {
    /// The query text handed to the compiler.
    pub text: String,
    /// How its result is read.
    pub read: Read,
    /// The location path the oracle evaluates (the query itself, or the
    /// path inside `count()`/`boolean()`).
    pub oracle_path: String,
}

/// The `lib-large` mix: `//` chains, `//x` beside `/descendant::x`,
/// reverse and horizontal axes, `and`/`or`/`not` predicates, an
/// XPatterns string test and an `id()` test (whose `ancestor` step from
/// four nodes takes the per-node kernel), one `count()` around a small
/// Core XPath path, and one lazy `first`/`exists` pair.
/// Selectivities run from about 0.2% (`//e[@k='v…']`) to over 50% (`//*`).
pub fn lib_queries(rng: &mut Rng, ids: usize) -> Vec<LibQuery> {
    let v = rng.next_u64() % 10;
    let mut pick_ids = || {
        (0..4)
            .map(|_| format!("n{}", 1 + rng.next_u64() % ids.max(1) as u64))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let ids_a = pick_ids();
    let node =
        |t: &str| LibQuery { text: t.to_owned(), read: Read::NodeSet, oracle_path: t.to_owned() };
    vec![
        node("//a//c"),
        node("//b//d//e"),
        node("//b"),
        node("/descendant::b"),
        node("//c/ancestor::a"),
        node("//d/preceding-sibling::b"),
        node("//g/following::h"),
        node("//a[b and not(c)]"),
        node("//e[f or g]"),
        node(&format!("//e[@k='v{v}']")),
        node(&format!("id('{ids_a}')/ancestor::*")),
        node("//*"),
        node("//text()"),
        LibQuery {
            text: "count(//h/parent::g)".to_owned(),
            read: Read::Scalar,
            oracle_path: "//h/parent::g".to_owned(),
        },
        LibQuery {
            text: "//a/b/c".to_owned(),
            read: Read::First,
            oracle_path: "//a/b/c".to_owned(),
        },
        LibQuery { text: "//f/g".to_owned(), read: Read::Exists, oracle_path: "//f/g".to_owned() },
    ]
}

/// One `serve-hot` request: a single query or a batch.
pub fn hot_lines(rng: &mut Rng) -> Vec<Vec<String>> {
    let v = rng.next_u64() % 10;
    let w = rng.next_u64() % 50;
    let one = |t: &str| vec![t.to_owned()];
    let batch = |ts: [&str; 4]| ts.iter().map(|t| (*t).to_owned()).collect::<Vec<_>>();
    vec![
        one("//a//c"),
        one("//b[c]/d"),
        one("/descendant::e/ancestor::a"),
        one("//d/following-sibling::b"),
        one("//c[not(d)]"),
        one("//h/parent::*"),
        one("count(//d)"),
        one("count(//b)"),
        one("count(//a/c)"),
        one("//a/b[position()=2]"),
        one("//c[position()=2]/d"),
        one(&format!("//e[@k='v{v}']")),
        one(&format!("//b[string(.)='w{w}']")),
        batch(["//a//b", "//a//b/c", "//a//b[d]", "//a//b/following-sibling::c"]),
        batch(["//c/d", "//c/d/e", "//c/d[e or f]", "count(//c/d)"]),
        batch(["//b/a", "//b/a/c", "//b/a[not(c)]", "//b/a/ancestor::d"]),
    ]
}

const AXES: &[&str] = &[
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
    "self",
];
const TESTS: &[&str] = &["a", "b", "c", "d", "e", "*", "node()", "text()"];

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[usize::try_from(rng.next_u64() % items.len() as u64).expect("index fits")]
}

fn step(rng: &mut Rng, with_pred: bool) -> String {
    let mut s = format!("{}::{}", pick(rng, AXES), pick(rng, TESTS));
    if with_pred && rng.next_u64().is_multiple_of(2) {
        let t = pick(rng, &TESTS[..6]);
        let u = pick(rng, &TESTS[..6]);
        let pred = match rng.next_u64() % 7 {
            0 => t.to_owned(),
            1 => format!("not({t})"),
            2 => format!("position()={}", 1 + rng.next_u64() % 3),
            3 => format!("@k='v{}'", rng.next_u64() % 10),
            4 => "last()".to_owned(),
            5 => format!("{}::{t} and {u}", pick(rng, AXES)),
            _ => format!("{t} or {u}"),
        };
        s.push('[');
        s.push_str(&pred);
        s.push(']');
    }
    s
}

/// `n` distinct ad-hoc queries from a seeded grammar over axes, node
/// tests, predicates (`not`, `and`, `or`, `position()`, `last()`,
/// attribute string tests) and functions (`count`, `boolean`,
/// `string`). Order is the generation order, so it is seed-determined.
pub fn churn_queries(rng: &mut Rng, n: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let steps = 1 + rng.next_u64() % 3;
        let mut path = String::new();
        for _ in 0..steps {
            path.push_str(if rng.next_u64().is_multiple_of(3) { "//" } else { "/" });
            path.push_str(&step(rng, true));
        }
        let q = match rng.next_u64() % 10 {
            0 | 1 => format!("count({path})"),
            2 => format!("boolean({path})"),
            3 => format!("string({path})"),
            _ => path,
        };
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: DocSpec = DocSpec { target_nodes: 20_000, max_depth: 7, max_fanout: 4 };

    #[test]
    fn same_seed_same_document_and_queries() {
        let a = document(&mut Rng::seed_from_u64(9), SMALL);
        let b = document(&mut Rng::seed_from_u64(9), SMALL);
        let c = document(&mut Rng::seed_from_u64(10), SMALL);
        let (da, db, dc) = (
            Document::parse_str(&a.xml).unwrap(),
            Document::parse_str(&b.xml).unwrap(),
            Document::parse_str(&c.xml).unwrap(),
        );
        assert_eq!(fingerprint(&da), fingerprint(&db));
        assert_ne!(fingerprint(&da), fingerprint(&dc));
        assert_eq!(
            lib_queries(&mut Rng::seed_from_u64(9), a.ids),
            lib_queries(&mut Rng::seed_from_u64(9), b.ids)
        );
        assert_eq!(
            churn_queries(&mut Rng::seed_from_u64(9), 300),
            churn_queries(&mut Rng::seed_from_u64(9), 300)
        );
        assert_eq!(hot_lines(&mut Rng::seed_from_u64(9)), hot_lines(&mut Rng::seed_from_u64(9)));
    }

    #[test]
    fn generated_documents_pass_their_checks() {
        for seed in 0..4 {
            let g = document(&mut Rng::seed_from_u64(seed), SMALL);
            let d = Document::parse_str(&g.xml).unwrap();
            check_document(&d, SMALL).unwrap();
            assert!(g.ids > 0);
        }
    }

    #[test]
    fn size_and_mix_checks_reject_shrunken_documents() {
        let tiny = Document::parse_str("<r><a/></r>").unwrap();
        assert!(check_document(&tiny, SMALL).is_err());
        let skewed = Document::parse_str(&format!("<r>{}</r>", "<a/>".repeat(500))).unwrap();
        assert!(check_mix(&[&skewed]).is_err());
    }

    #[test]
    fn churn_queries_are_distinct_and_compile() {
        let qs = churn_queries(&mut Rng::seed_from_u64(1), 500);
        let set: HashSet<&String> = qs.iter().collect();
        assert_eq!(set.len(), qs.len());
        for q in &qs {
            xpath_core::Compiler::new().compile(q).unwrap();
        }
    }
}

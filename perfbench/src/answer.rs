//! Answer digests and the verifier.
//!
//! Every operation's answer is reduced to a 64-bit digest of what the
//! caller reads: for `lib-large` the node count plus the string values
//! of the first 16 nodes (or the scalar's XPath string), for the serve
//! workloads the response's `results` array. Each digest is checked, as
//! the operation completes, against the expected digest of the same
//! request. The expected digests come from a reference evaluator
//! (`Alg32` axes for `lib-large`, `Strategy::TopDown` for the served
//! documents), run outside the measured window and outside set-up time.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use xpath_core::serve::Json;
use xpath_core::Value;
use xpath_xml::{Document, NodeSet};

/// Node string values a caller reads per node-set result (also the
/// server's default `limit`).
pub const READ_VALUES: usize = 16;

/// Digest of a node-set as read: count plus the first [`READ_VALUES`]
/// string values.
pub fn nodeset_digest(doc: &Document, nodes: &NodeSet) -> u64 {
    let mut h = DefaultHasher::new();
    nodes.len().hash(&mut h);
    for n in nodes.iter().take(READ_VALUES) {
        doc.string_value(n).hash(&mut h);
    }
    h.finish()
}

/// Digest of a string (scalar answers, response fragments).
pub fn str_digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// One result rendered the way the server renders it (`limit` =
/// [`READ_VALUES`]).
pub fn render_result(doc: &Document, value: &Value) -> Json {
    let ok = ("ok", Json::Bool(true));
    match value {
        Value::Number(n) => {
            Json::obj(vec![ok, ("type", Json::Str("number".to_owned())), ("value", Json::Num(*n))])
        }
        Value::String(s) => Json::obj(vec![
            ok,
            ("type", Json::Str("string".to_owned())),
            ("value", Json::Str(s.clone())),
        ]),
        Value::Boolean(b) => Json::obj(vec![
            ok,
            ("type", Json::Str("boolean".to_owned())),
            ("value", Json::Bool(*b)),
        ]),
        Value::NodeSet(nodes) => Json::obj(vec![
            ok,
            ("type", Json::Str("node-set".to_owned())),
            ("count", Json::num(nodes.len() as u64)),
            (
                "values",
                Json::Arr(
                    nodes
                        .iter()
                        .take(READ_VALUES)
                        .map(|n| Json::Str(doc.string_value(n).to_owned()))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The `results` array of a rendered eval response, as text.
pub fn results_fragment(response: &str) -> Option<&str> {
    let start = response.find("\"results\":")? + "\"results\":".len();
    let end = response.rfind(",\"elapsed_us\":")?;
    (start <= end).then(|| &response[start..end])
}

/// What became of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A complete answer with this digest.
    Answer(u64),
    /// A transport error, `ok:false`, `overloaded` or
    /// `deadline_exceeded`: counted as failed, not checked.
    Failed,
}

/// Classify a response line.
pub fn classify_response(response: &str) -> Outcome {
    if response.starts_with("{\"ok\":false") {
        return Outcome::Failed;
    }
    match results_fragment(response) {
        Some(frag) if !frag.contains("{\"ok\":false") => Outcome::Answer(str_digest(frag)),
        _ => Outcome::Failed,
    }
}

/// Running check of answers against expected digests (indexed by
/// request index), kept while operations run so no per-operation record
/// has to be stored.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (not checked).
    pub failed: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// The first wrong answer.
    pub first_wrong: Option<String>,
}

impl Tally {
    /// Record one operation's outcome.
    pub fn record(&mut self, expected: &[u64], idx: u32, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Failed => self.failed += 1,
            Outcome::Answer(got) => {
                let want = expected.get(idx as usize).copied();
                if want != Some(got) {
                    self.wrong += 1;
                    if self.first_wrong.is_none() {
                        self.first_wrong =
                            Some(format!("request {idx}: digest {got:#x}, expected {want:x?}"));
                    }
                }
            }
        }
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }

    /// The failure count, or the first wrong answer (a run with one
    /// fails as a whole).
    ///
    /// # Errors
    /// When any answer was wrong.
    pub fn verdict(&self) -> Result<u64, String> {
        match &self.first_wrong {
            None => Ok(self.failed),
            Some(first) => Err(format!("{} wrong answer(s); first: {first}", self.wrong)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(expected: &[u64], records: &[(u32, Outcome)]) -> Tally {
        let mut t = Tally::default();
        for &(idx, outcome) in records {
            t.record(expected, idx, outcome);
        }
        t
    }

    #[test]
    fn corrupted_answer_fails_the_verifier() {
        let expected = [11, 22, 33];
        let good = tally(
            &expected,
            &[(0, Outcome::Answer(11)), (2, Outcome::Answer(33)), (1, Outcome::Failed)],
        );
        assert_eq!(good.verdict(), Ok(1));
        assert_eq!(good.attempted, 3);
        let bad = tally(&expected, &[(0, Outcome::Answer(11)), (2, Outcome::Answer(34))]);
        assert!(bad.verdict().is_err());
        let unknown = tally(&expected, &[(5, Outcome::Answer(11))]);
        assert!(unknown.verdict().is_err());
        let mut merged = good.clone();
        merged.merge(bad);
        assert!(merged.verdict().is_err());
        assert_eq!(merged.attempted, 5);
    }

    #[test]
    fn corrupted_response_changes_the_digest() {
        let doc = Document::parse_str("<a><b>x</b><b>y</b></a>").unwrap();
        let q = xpath_core::Compiler::new().compile("//b").unwrap();
        let value = q.evaluate_root(&doc).unwrap();
        let rendered = Json::Arr(vec![render_result(&doc, &value)]).render();
        let response =
            format!("{{\"ok\":true,\"doc\":\"d\",\"results\":{rendered},\"elapsed_us\":5}}");
        let want = str_digest(&rendered);
        assert_eq!(classify_response(&response), Outcome::Answer(want));
        let corrupted = response.replace("\"y\"", "\"z\"");
        assert_ne!(classify_response(&corrupted), Outcome::Answer(want));
        assert!(tally(&[want], &[(0, classify_response(&corrupted))]).verdict().is_err());
        assert_eq!(classify_response("{\"ok\":false,\"error\":{}}"), Outcome::Failed);
    }

    #[test]
    fn server_renders_results_like_the_reference() {
        let dir = crate::sys::TempDir::new("answer-test", 0).unwrap();
        let server =
            xpath_core::Server::new(xpath_core::ServeConfig::new(dir.path().join("store")))
                .unwrap();
        let doc = Document::parse_str("<a><b k='1'>x</b><b>y</b><c/></a>").unwrap();
        server.store().publish("d", &doc).unwrap();
        for q in ["//b", "count(//b)", "string(//b)", "boolean(//c)"] {
            let line = format!("{{\"doc\":\"d\",\"query\":\"{q}\"}}");
            let response = server.handle_line(&line);
            let value =
                xpath_core::Compiler::new().compile(q).unwrap().evaluate_root(&doc).unwrap();
            let want = Json::Arr(vec![render_result(&doc, &value)]).render();
            assert_eq!(classify_response(&response), Outcome::Answer(str_digest(&want)), "{q}");
        }
    }
}

//! Machine-readable benchmark artifact: `bench_out/BENCH_pipeline.json`.
//!
//! The table/figure binaries each own one top-level *section* of a single
//! JSON object (`"table4"`, `"table5"`, `"nn_table"`, …) holding their
//! performance numbers — evals/s, hypervolume, cache hits/misses,
//! per-step timings — so the perf trajectory of the repo is trackable
//! across PRs by diffing one file.
//!
//! Everything is hand-rolled (no serde in the tree): a tiny JSON value
//! model with a deterministic renderer, plus a tolerant *top-level*
//! splitter that lets one binary update its own section without
//! disturbing — or needing to fully parse — the sections written by the
//! others. A malformed existing file is replaced rather than appended to.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value (insertion-ordered objects, so output is deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience integer constructor.
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Renders the value compactly (objects/arrays on one line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                // shortest round-trip float; integers lose the ".0"
                if *v == v.trunc() && v.abs() < 9e15 {
                    write!(out, "{}", *v as i64).unwrap();
                } else {
                    write!(out, "{v:?}").unwrap();
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Bool(b) => {
                write!(out, "{b}").unwrap();
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Splits the *top level* of a JSON object into `(key, raw value text)`
/// pairs without interpreting the values (balanced braces/brackets,
/// escape-aware strings). Returns `None` when the text is not a single
/// well-formed-enough object — the caller then starts a fresh file.
pub fn split_top_level(text: &str) -> Option<Vec<(String, String)>> {
    let bytes = text.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        i = skip_ws(bytes, i);
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'}' {
            return Some(out);
        }
        // key string
        let (key, next) = take_string(text, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let start = i;
        i = take_value(text, i)?;
        out.push((key, text[start..i].trim().to_string()));
        i = skip_ws(bytes, i);
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        } else if i < bytes.len() && bytes[i] == b'}' {
            return Some(out);
        } else {
            return None;
        }
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Parses the JSON string starting at `i` (which must be a `"`); returns
/// the unescaped content and the index just past the closing quote.
fn take_string(text: &str, i: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    if i >= bytes.len() || bytes[i] != b'"' {
        return None;
    }
    let mut out = String::new();
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Some((out, j + 1)),
            b'\\' => {
                let esc = *bytes.get(j + 1)?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text.get(j + 2..j + 6)?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        j += 4;
                    }
                    other => out.push(other as char),
                }
                j += 2;
            }
            _ => {
                let c = text[j..].chars().next()?;
                out.push(c);
                j += c.len_utf8();
            }
        }
    }
    None
}

/// Advances past one balanced JSON value starting at `i`; returns the
/// index just past it.
fn take_value(text: &str, i: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    match *bytes.get(i)? {
        b'"' => take_string(text, i).map(|(_, j)| j),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < bytes.len() {
                match bytes[j] {
                    b'"' => {
                        j = take_string(text, j)?.1;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            // scalar: number / true / false / null — runs until a
            // top-level delimiter
            let mut j = i;
            while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b']') {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// Writes (or replaces) one top-level section of the JSON artifact at
/// `path`, preserving every other section verbatim. A missing or
/// malformed file starts fresh with just this section.
pub fn upsert_section(path: &Path, section: &str, value: &Json) {
    upsert_raw(path, section, value.render());
}

/// [`upsert_section`] with the section's value already rendered.
fn upsert_raw(path: &Path, section: &str, raw: String) {
    let mut sections = read_sections(path);
    set_raw(&mut sections, section, raw);
    let mut out = String::from("{\n");
    for (i, (k, v)) in sections.iter().enumerate() {
        let mut key = String::new();
        render_str(k, &mut key);
        out.push_str("  ");
        out.push_str(&key);
        out.push_str(": ");
        out.push_str(v);
        if i + 1 < sections.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH json");
}

/// Writes (or replaces) entry `key` of the object section `section` at
/// `path`, preserving the section's other entries and every other
/// section verbatim — so a record keyed by scale keeps the other scales'
/// records. A section that is not an object starts fresh.
pub fn upsert_entry(path: &Path, section: &str, key: &str, value: &Json) {
    let mut entries = read_sections(path)
        .into_iter()
        .find(|(k, _)| k == section)
        .and_then(|(_, raw)| split_top_level(&raw))
        .unwrap_or_default();
    set_raw(&mut entries, key, value.render());
    let mut obj = String::from("{");
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            obj.push_str(", ");
        }
        render_str(k, &mut obj);
        obj.push_str(": ");
        obj.push_str(v);
    }
    obj.push('}');
    upsert_raw(path, section, obj);
}

/// The top-level `(key, raw value)` pairs of the artifact at `path`
/// (empty when the file is missing or malformed).
fn read_sections(path: &Path) -> Vec<(String, String)> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| split_top_level(&text))
        .unwrap_or_default()
}

/// Replaces the raw value of `key`, appending the key when absent.
fn set_raw(pairs: &mut Vec<(String, String)>, key: &str, raw: String) {
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = raw,
        None => pairs.push((key.to_string(), raw)),
    }
}

/// Writes (or replaces) `section` in `bench_out/BENCH_pipeline.json` and
/// reports the path.
pub fn write_bench_section(section: &str, value: &Json) {
    let path = crate::out_dir().join("BENCH_pipeline.json");
    upsert_section(&path, section, value);
    println!("[json] updated section `{section}` of {}", path.display());
}

/// Writes (or replaces) entry `key` of `section` in
/// `bench_out/BENCH_pipeline.json` and reports the path.
pub fn write_bench_entry(section: &str, key: &str, value: &Json) {
    let path = crate::out_dir().join("BENCH_pipeline.json");
    upsert_entry(&path, section, key, value);
    println!("[json] updated `{section}.{key}` of {}", path.display());
}

/// The shared per-run record: per-step timings (seconds), search
/// throughput and the cache ledger of one pipeline result.
pub fn pipeline_record(t: &autoax::pipeline::PipelineTimings) -> Json {
    Json::Obj(vec![
        ("profiling_s".into(), Json::Num(t.profiling.as_secs_f64())),
        ("preprocess_s".into(), Json::Num(t.preprocess.as_secs_f64())),
        (
            "training_data_s".into(),
            Json::Num(t.training_data.as_secs_f64()),
        ),
        ("model_fit_s".into(), Json::Num(t.model_fit.as_secs_f64())),
        (
            "step12_compute_s".into(),
            Json::Num(t.step12_compute.as_secs_f64()),
        ),
        ("cache_load_s".into(), Json::Num(t.cache_load.as_secs_f64())),
        ("cache_hits".into(), Json::int(t.cache_hits as u64)),
        ("cache_misses".into(), Json::int(t.cache_misses as u64)),
        ("search_s".into(), Json::Num(t.search.as_secs_f64())),
        (
            "search_strategy".into(),
            Json::Str(t.search_strategy.to_string()),
        ),
        (
            "search_evals_per_sec".into(),
            Json::Num(t.search_evals_per_sec),
        ),
        ("search_estimates".into(), Json::int(t.search_estimates)),
        (
            "search_propose_s".into(),
            Json::Num(t.search_propose.as_secs_f64()),
        ),
        (
            "search_estimate_s".into(),
            Json::Num(t.search_estimate.as_secs_f64()),
        ),
        (
            "search_insert_s".into(),
            Json::Num(t.search_insert.as_secs_f64()),
        ),
        (
            "search_engines".into(),
            Json::Arr(vec![
                Json::Str(t.search_engines.0.to_string()),
                Json::Str(t.search_engines.1.to_string()),
            ]),
        ),
        ("final_eval_s".into(), Json::Num(t.final_eval.as_secs_f64())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_and_deterministic() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x \"y\"".into())),
            ("c".into(), Json::Arr(vec![Json::Bool(true), Json::int(3)])),
            ("nan".into(), Json::Num(f64::NAN)),
        ]);
        let s = v.render();
        assert_eq!(
            s,
            r#"{"a": 1.5, "b": "x \"y\"", "c": [true, 3], "nan": null}"#
        );
        assert_eq!(v.render(), s);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::int(42).render(), "42");
        assert_eq!(Json::Num(1e-7).render(), "1e-7");
    }

    #[test]
    fn split_top_level_round_trips_rendered_objects() {
        let v = Json::Obj(vec![
            ("t4".into(), Json::Obj(vec![("hv".into(), Json::Num(0.25))])),
            ("t5".into(), Json::Arr(vec![Json::Str("a,b}".into())])),
        ]);
        let parts = split_top_level(&v.render()).expect("parse");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "t4");
        assert_eq!(parts[0].1, r#"{"hv": 0.25}"#);
        assert_eq!(parts[1].1, r#"["a,b}"]"#);
    }

    #[test]
    fn split_rejects_malformed_text() {
        assert!(split_top_level("not json").is_none());
        assert!(split_top_level("{\"a\": ").is_none());
        assert!(split_top_level("{\"a\" 1}").is_none());
    }

    #[test]
    fn upsert_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("axbench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let _ = std::fs::remove_file(&path);
        upsert_section(
            &path,
            "table4",
            &Json::Obj(vec![("hv".into(), Json::Num(0.5))]),
        );
        upsert_section(
            &path,
            "table5",
            &Json::Obj(vec![("apps".into(), Json::int(3))]),
        );
        // replace table4, table5 must survive byte-identically
        upsert_section(
            &path,
            "table4",
            &Json::Obj(vec![("hv".into(), Json::Num(0.75))]),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let parts = split_top_level(&text).expect("well-formed artifact");
        assert_eq!(
            parts,
            vec![
                ("table4".to_string(), r#"{"hv": 0.75}"#.to_string()),
                ("table5".to_string(), r#"{"apps": 3}"#.to_string()),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn upsert_entry_keeps_sibling_entries_and_sections() {
        let dir = std::env::temp_dir().join(format!("axbench-entry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let _ = std::fs::remove_file(&path);
        let rec = |s: f64| Json::Obj(vec![("total_s".into(), Json::Num(s))]);
        upsert_section(&path, "table4", &rec(9.0));
        upsert_entry(&path, "library_build", "quick", &rec(0.5));
        upsert_entry(&path, "library_build", "default", &rec(3.5));
        upsert_entry(&path, "library_build", "quick", &rec(0.25));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            split_top_level(&text).expect("well-formed artifact"),
            vec![
                ("table4".to_string(), r#"{"total_s": 9}"#.to_string()),
                (
                    "library_build".to_string(),
                    r#"{"quick": {"total_s": 0.25}, "default": {"total_s": 3.5}}"#.to_string()
                ),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

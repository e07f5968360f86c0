//! Diagnostics rendering.
//!
//! Renders compiler errors in the style of the paper's Section 2 examples,
//! upgraded to rustc-grade output: a stable error code from the
//! [`registry`], line-numbered source snippets with a gutter, multi-line
//! span support, and `help:` suggestions with concrete fix text:
//!
//! ```text
//! error[E0102]: conflicting memory access
//!   --> 4:13
//!    |
//!  4 |             arr[[thread]] = arr.rev[[thread]];
//!    |             ^^^^^^^^^^^^^ cannot select memory because of
//!    |  a conflicting prior selection here
//!   --> 4:29
//!    |
//!  4 |             arr[[thread]] = arr.rev[[thread]];
//!    |                             ------------------
//! ```
//!
//! A [`Diagnostic`] carries an optional stable code, a headline, a primary
//! labelled span, any number of secondary labelled spans (rendered with
//! dashes, like rustc's secondary labels), and a list of help notes.
//!
//! The same diagnostic also renders to machine-readable JSON
//! ([`Diagnostic::to_json`], [`render_json`]; schema
//! `descend-diagnostics/1`, `schemas/diagnostics.schema.json`) for
//! `descendc check --json` and the compile server.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod registry;

use descend_ast::Span;
use std::fmt;

/// A labelled source span inside a diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct Label {
    /// The span being pointed at.
    pub span: Span,
    /// The message attached to the span.
    pub message: String,
}

/// A structured compiler diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable error code (e.g. `E0104`) from the [`registry`], when the
    /// diagnostic was built through [`Diagnostic::coded`].
    pub code: Option<&'static str>,
    /// Headline, e.g. `conflicting memory access`.
    pub title: String,
    /// The primary label (rendered with carets `^^^`).
    pub primary: Label,
    /// Secondary labels (rendered with dashes `---`).
    pub secondary: Vec<Label>,
    /// Help notes, each rendered as a `= help:` line.
    pub help: Vec<String>,
}

impl Diagnostic {
    /// Creates an uncoded diagnostic with a primary label.
    pub fn new(title: impl Into<String>, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: None,
            title: title.into(),
            primary: Label {
                span,
                message: message.into(),
            },
            secondary: Vec::new(),
            help: Vec::new(),
        }
    }

    /// Creates a diagnostic for a registered error code; the headline is
    /// the registry title, so every `E0xxx` renders one canonical
    /// headline everywhere.
    ///
    /// # Panics
    ///
    /// If `code` is not in the [`registry`] (a compiler bug).
    pub fn coded(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: Some(code),
            ..Diagnostic::new(registry::title(code), span, message)
        }
    }

    /// Adds a secondary label.
    pub fn with_secondary(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.secondary.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Adds a help note.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help.push(help.into());
        self
    }

    /// Renders the diagnostic against the source text.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        match self.code {
            Some(c) => out.push_str(&format!("error[{c}]: {}\n", self.title)),
            None => out.push_str(&format!("error: {}\n", self.title)),
        }
        if self.primary.span.is_dummy() {
            // Span-less diagnostics (e.g. lowering failures that arise
            // from the elaborated form) carry their message as a note
            // instead of pointing at line 1:1.
            out.push_str(&format!("  = note: {}\n", self.primary.message));
        } else {
            render_label(&mut out, source, &self.primary, '^');
        }
        for l in &self.secondary {
            render_label(&mut out, source, l, '-');
        }
        for h in &self.help {
            out.push_str(&format!("  = help: {h}\n"));
        }
        out
    }

    /// Renders the diagnostic as one JSON object (no trailing newline),
    /// per the `descend-diagnostics/1` schema: stable `code` (or
    /// `null`), `severity`, `title`, primary `message`, every span with
    /// byte offsets and 1-based line/column, `help` notes, and the full
    /// human `rendered` text.
    pub fn to_json(&self, source: &str) -> String {
        let mut out = String::new();
        out.push('{');
        match self.code {
            Some(c) => out.push_str(&format!("\"code\":\"{c}\",")),
            None => out.push_str("\"code\":null,"),
        }
        out.push_str("\"severity\":\"error\",");
        out.push_str(&format!("\"title\":\"{}\",", json_escape(&self.title)));
        out.push_str(&format!(
            "\"message\":\"{}\",",
            json_escape(&self.primary.message)
        ));
        out.push_str("\"spans\":[");
        span_json(&mut out, source, &self.primary, true);
        for l in &self.secondary {
            out.push(',');
            span_json(&mut out, source, l, false);
        }
        out.push_str("],\"help\":[");
        for (i, h) in self.help.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(h)));
        }
        out.push_str(&format!(
            "],\"rendered\":\"{}\"}}",
            json_escape(&self.render(source))
        ));
        out
    }
}

/// Renders a full `descend-diagnostics/1` document for `file` with the
/// given diagnostics (`ok` is true exactly when there are none). This is
/// the payload of `descendc check --json`, validated against
/// `schemas/diagnostics.schema.json`.
pub fn render_json(file: &str, source: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"descend-diagnostics/1\",\n");
    out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(file)));
    out.push_str(&format!(
        "  \"ok\": {},\n",
        if diags.is_empty() { "true" } else { "false" }
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&d.to_json(source));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn span_json(out: &mut String, source: &str, label: &Label, primary: bool) {
    let (line, col) = line_col(source, label.span.start);
    let (end_line, end_col) = line_col(source, label.span.end);
    out.push_str(&format!(
        "{{\"primary\":{primary},\"start\":{},\"end\":{},\"line\":{line},\"col\":{col},\
         \"end_line\":{end_line},\"end_col\":{end_col},\"label\":\"{}\"}}",
        label.span.start,
        label.span.end,
        json_escape(&label.message)
    ));
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            Some(c) => write!(f, "error[{c}]: {} ({})", self.title, self.primary.message),
            None => write!(f, "error: {} ({})", self.title, self.primary.message),
        }
    }
}

/// Computes the 1-based line/column of a byte offset.
pub fn line_col(source: &str, offset: u32) -> (usize, usize) {
    let offset = (offset as usize).min(source.len());
    let mut line = 1;
    let mut col = 1;
    for (i, c) in source.char_indices() {
        if i >= offset {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

fn render_label(out: &mut String, source: &str, label: &Label, marker: char) {
    let (line, col) = line_col(source, label.span.start);
    let (end_line, end_col) = line_col(source, label.span.end);
    if end_line > line {
        render_multiline_label(out, source, label, marker, (line, col), (end_line, end_col));
        return;
    }
    out.push_str(&format!("  --> {line}:{col}\n"));
    let line_text = source.lines().nth(line - 1).unwrap_or("");
    let gutter = format!("{line}");
    let pad = " ".repeat(gutter.len());
    out.push_str(&format!(" {pad} |\n"));
    out.push_str(&format!(" {gutter} | {line_text}\n"));
    let span_len = (label.span.len() as usize).max(1);
    // Clamp the marker run to the end of the line.
    let avail = line_text.chars().count().saturating_sub(col - 1).max(1);
    let run = span_len.min(avail);
    let markers: String = std::iter::repeat_n(marker, run).collect();
    out.push_str(&format!(
        " {pad} | {}{} {}\n",
        " ".repeat(col - 1),
        markers,
        label.message
    ));
}

/// Renders a label whose span crosses lines, rustc-style: the opening
/// line gets an `__^` underline running up to the start column, every
/// spanned line a `|` continuation bar, and the closing line a `|__^`
/// underline carrying the message. Runs of more than four lines elide
/// the middle with a `...` gutter row.
fn render_multiline_label(
    out: &mut String,
    source: &str,
    label: &Label,
    marker: char,
    (line, col): (usize, usize),
    (end_line, end_col): (usize, usize),
) {
    let lines: Vec<&str> = source.lines().collect();
    let text = |n: usize| lines.get(n - 1).copied().unwrap_or("");
    let pad = " ".repeat(format!("{end_line}").len());
    let gut = |n: usize| format!("{n:>width$}", width = pad.len());
    out.push_str(&format!("  --> {line}:{col}\n"));
    out.push_str(&format!(" {pad} |\n"));
    out.push_str(&format!(" {} |   {}\n", gut(line), text(line)));
    out.push_str(&format!(" {pad} |  {}{marker}\n", "_".repeat(col - 1)));
    let (head, tail) = if end_line - line > 3 {
        (line + 1..line + 2, end_line - 1..end_line)
    } else {
        #[allow(clippy::reversed_empty_ranges)]
        (line + 1..end_line, end_line..end_line)
    };
    for n in head {
        out.push_str(&format!(" {} | | {}\n", gut(n), text(n)));
    }
    if !tail.is_empty() {
        out.push_str(&format!(" {pad} | ...\n"));
        for n in tail {
            out.push_str(&format!(" {} | | {}\n", gut(n), text(n)));
        }
    }
    out.push_str(&format!(" {} | | {}\n", gut(end_line), text(end_line)));
    // The closing underline ends under the span's last character.
    let close = end_col.saturating_sub(1).max(1);
    out.push_str(&format!(
        " {pad} | |{}{marker} {}\n",
        "_".repeat(close),
        label.message
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_primary_caret() {
        let src = "let x = y;\nlet z = w;";
        let d = Diagnostic::new("mismatched types", Span::new(8, 9), "expected `i32`");
        let r = d.render(src);
        assert!(r.contains("error: mismatched types"));
        assert!(r.contains("--> 1:9"));
        assert!(r.contains("let x = y;"));
        assert!(r.contains("^ expected `i32`"));
    }

    #[test]
    fn coded_header_and_registry_title() {
        let d = Diagnostic::coded("E0104", Span::new(0, 4), "`sync` under a split");
        let r = d.render("sync;");
        assert!(
            r.starts_with("error[E0104]: barrier not allowed here\n"),
            "{r}"
        );
        assert_eq!(
            d.to_string().split(" (").next().unwrap(),
            "error[E0104]: barrier not allowed here"
        );
    }

    #[test]
    fn renders_secondary_dashes() {
        let src = "a[[thread]] = a.rev[[thread]];";
        let d = Diagnostic::new(
            "conflicting memory access",
            Span::new(0, 11),
            "cannot select memory because of a conflicting prior selection here",
        )
        .with_secondary(Span::new(14, 29), "prior selection");
        let r = d.render(src);
        assert!(r.contains("^^^^^^^^^^^"));
        assert!(r.contains("---------------"));
        assert!(r.contains("prior selection"));
    }

    #[test]
    fn line_col_multiline() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 7), (3, 2));
    }

    #[test]
    fn help_is_rendered() {
        let d = Diagnostic::new("barrier not allowed here", Span::new(0, 4), "`sync` here")
            .with_help("barriers must be reached by every thread of the block");
        let r = d.render("sync;");
        assert!(r.contains("= help: barriers"));
    }

    #[test]
    fn multiple_help_notes_render_in_order() {
        let d = Diagnostic::new("x", Span::new(0, 1), "m")
            .with_help("first")
            .with_help("second");
        let r = d.render("abc");
        let first = r.find("= help: first").unwrap();
        let second = r.find("= help: second").unwrap();
        assert!(first < second);
    }

    #[test]
    fn dummy_span_renders_note_without_snippet() {
        let d = Diagnostic::new("oops", Span::DUMMY, "here");
        let r = d.render("");
        assert_eq!(r, "error: oops\n  = note: here\n");
    }

    #[test]
    fn marker_clamped_to_line_end() {
        let src = "short";
        let d = Diagnostic::new("x", Span::new(0, 100), "m");
        let r = d.render(src);
        assert!(r.contains("^^^^^ m"));
    }

    #[test]
    fn multiline_span_renders_open_and_close_underlines() {
        let src = "let x = foo(\n    1,\n);";
        // Span covers `foo(` through `)` — lines 1..3.
        let d = Diagnostic::new("mismatched types", Span::new(8, 22), "expected `i32`");
        let r = d.render(src);
        assert_eq!(
            r,
            "error: mismatched types\n\
             \x20 --> 1:9\n\
             \x20  |\n\
             \x201 |   let x = foo(\n\
             \x20  |  ________^\n\
             \x202 | |     1,\n\
             \x203 | | );\n\
             \x20  | |__^ expected `i32`\n"
        );
    }

    #[test]
    fn long_multiline_span_elides_middle() {
        let src = "a(\n1,\n2,\n3,\n4,\n5)";
        let d = Diagnostic::new("x", Span::new(0, src.len() as u32), "m");
        let r = d.render(src);
        assert!(r.contains(" | ...\n"), "{r}");
        assert!(r.contains("1 |   a(\n"), "{r}");
        assert!(r.contains("6 | | 5)\n"), "{r}");
        assert!(!r.contains("3,"), "middle lines should be elided: {r}");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn to_json_carries_code_spans_and_help() {
        let src = "sync;";
        let d = Diagnostic::coded("E0104", Span::new(0, 4), "`sync` here")
            .with_secondary(Span::new(4, 5), "split here")
            .with_help("hoist the `sync`");
        let j = d.to_json(src);
        assert!(j.contains("\"code\":\"E0104\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\"title\":\"barrier not allowed here\""));
        assert!(j.contains("\"primary\":true,\"start\":0,\"end\":4,\"line\":1,\"col\":1"));
        assert!(j.contains("\"primary\":false,\"start\":4,\"end\":5"));
        assert!(j.contains("\"help\":[\"hoist the `sync`\"]"));
        assert!(j.contains("\"rendered\":\"error[E0104]"));
    }

    #[test]
    fn uncoded_to_json_has_null_code() {
        let d = Diagnostic::new("oops", Span::DUMMY, "m");
        assert!(d.to_json("").contains("\"code\":null"));
    }

    #[test]
    fn render_json_document_shape() {
        let src = "sync;";
        let d = Diagnostic::coded("E0104", Span::new(0, 4), "`sync` here");
        let doc = render_json("a.descend", src, std::slice::from_ref(&d));
        assert!(doc.contains("\"schema\": \"descend-diagnostics/1\""));
        assert!(doc.contains("\"file\": \"a.descend\""));
        assert!(doc.contains("\"ok\": false"));
        assert!(doc.ends_with("]\n}\n"));
        let empty = render_json("a.descend", src, &[]);
        assert!(empty.contains("\"ok\": true"));
        assert!(empty.contains("\"diagnostics\": []"));
    }
}

//! Plain-text edge-list I/O.
//!
//! Format: one `u v` pair per line; lines starting with `#` or `%` are
//! comments (covering common SNAP / KONECT exports). Vertex ids are dense
//! `0..n`; `n` is inferred as `max id + 1` unless given.

use crate::AdjListGraph;
use std::io::{BufRead, Write};

/// Vertex ids in an edge list must be below this bound (2^26, about 67M
/// vertices). The graph is indexed densely by id, so one stray huge id
/// would otherwise size the adjacency tables for billions of vertices
/// and abort the process on allocation.
pub const MAX_VERTEX_ID: u32 = 1 << 26;

/// Parse an edge list from a reader.
///
/// Duplicate edges and self-loops are skipped (simple-graph semantics);
/// malformed lines, and ids at or above [`MAX_VERTEX_ID`], produce an
/// error naming the line number.
pub fn read_edge_list(r: impl BufRead) -> Result<AdjListGraph, String> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|e| format!("io error at line {}: {e}", lineno + 1))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let a: u32 = it
            .next()
            .ok_or_else(|| format!("line {}: missing source", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad source ({e})", lineno + 1))?;
        let b: u32 = it
            .next()
            .ok_or_else(|| format!("line {}: missing target", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad target ({e})", lineno + 1))?;
        if a.max(b) >= MAX_VERTEX_ID {
            return Err(format!(
                "line {}: vertex id {} is not below {MAX_VERTEX_ID}",
                lineno + 1,
                a.max(b)
            ));
        }
        if a == b {
            continue;
        }
        max_id = max_id.max(a).max(b);
        edges.push((a, b));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    Ok(AdjListGraph::from_pairs(n, edges))
}

/// Write a graph as an edge list (each edge once, `u < v`, sorted).
pub fn write_edge_list(g: &AdjListGraph, mut w: impl Write) -> std::io::Result<()> {
    for e in g.edge_vec() {
        writeln!(w, "{} {}", e.u(), e.v())?;
    }
    Ok(())
}

/// Parse from an in-memory string (convenience for tests and examples).
pub fn parse_edge_list(s: &str) -> Result<AdjListGraph, String> {
    read_edge_list(std::io::Cursor::new(s))
}

/// Serialize to a string.
pub fn to_edge_list_string(g: &AdjListGraph) -> String {
    let mut buf = Vec::new();
    write_edge_list(g, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("edge list is ASCII")
}

impl std::str::FromStr for AdjListGraph {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_edge_list(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticGraph;

    #[test]
    fn roundtrip() {
        let g = crate::gen::gnm(20, 50, 8);
        let s = to_edge_list_string(&g);
        let h = parse_edge_list(&s).unwrap();
        assert_eq!(g.edge_vec(), h.edge_vec());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = parse_edge_list("# header\n\n0 1\n% more\n1 2\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn self_loops_dropped() {
        let g = parse_edge_list("0 0\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn bad_line_reports_position() {
        let err = parse_edge_list("0 1\nx y\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn from_str_impl() {
        let g: AdjListGraph = "0 1\n1 2\n2 0".parse().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
